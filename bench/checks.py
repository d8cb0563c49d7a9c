"""Output checks: expected values computed apart from the program.

Nothing here imports mtqsim. Each check returns a list of problems; an empty
list means the operation's outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import (
    AUDIT_BINS,
    AUDIT_EPS,
    AUDIT_TARGETS,
    CALIBRATION_RUNS,
    CALIBRATION_SEED_BASE,
    FLAT_ERROR,
    GATE_DENSITY,
    HANOI27_EDGES,
    HISTORY_CYCLES,
    JOBS,
    PERCENTILE,
    QUBITS,
    SIZE_MAX,
    SIZE_MIN,
    TEST_CYCLES,
)

NEIGHBORS = [sorted({v for e in HANOI27_EDGES for v in e if q in e} - {q}) for q in range(QUBITS)]
EDGE_INDEX = {e: i for i, e in enumerate(HANOI27_EDGES)}
# per qubit, its incident edges' columns in ascending neighbour order: the
# order the program sums them in
INCIDENT = [[EDGE_INDEX[(min(q, n), max(q, n))] for n in NEIGHBORS[q]] for q in range(QUBITS)]


# ---------------------------------------------------------------- simulate


def job_sizes(gen_seed: int) -> list[int]:
    """Job sizes of the generator workload, replaying its documented draws:
    per job a size, then two integers per two-qubit gate."""
    rng = np.random.default_rng(gen_seed)
    sizes = []
    for _ in range(JOBS):
        size = int(rng.integers(SIZE_MIN, SIZE_MAX + 1))
        for _ in range(max(1, round(GATE_DENSITY * size * (size - 1) / 2))):
            rng.integers(size)
            rng.integers(size - 1)
        sizes.append(size)
    return sizes


def _connected(members: list[int]) -> bool:
    inside = set(members)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        u = frontier.pop()
        for v in NEIGHBORS[u]:
            if v in inside and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == inside


def check_leg(report: dict, sizes: dict[str, int], leg: str) -> list[str]:
    bad = []
    rounds = report["rounds"]
    placed_round = {}
    for rd in rounds:
        used: set[int] = set()
        for p in rd["placed"]:
            jid, members = p["job"], p["members"]
            if jid in placed_round:
                bad.append(f"{leg}: {jid} placed twice")
            placed_round[jid] = rd["round"]
            if used & set(members):
                bad.append(f"{leg}: round {rd['round']} partitions overlap")
            used |= set(members)
            if len(members) != sizes.get(jid, -1):
                bad.append(f"{leg}: {jid} got {len(members)} qubits for a {sizes.get(jid)}-qubit job")
            if not _connected(members):
                bad.append(f"{leg}: {jid}'s partition {members} is not connected")
        active = sum(len(p["members"]) for p in rd["placed"])
        if rd["active_qubits"] != active or rd["utilization"] != active / QUBITS:
            bad.append(f"{leg}: round {rd['round']} active/utilization disagree with its partitions")
    if sorted(placed_round) != sorted(sizes):
        bad.append(f"{leg}: placed jobs {sorted(placed_round)} are not the {JOBS} jobs")
    if report["total_rounds"] != len(rounds) or len(rounds) < math.ceil(sum(sizes.values()) / QUBITS):
        bad.append(f"{leg}: total_rounds {report['total_rounds']} impossible")
    jobs = report["jobs"]
    if sorted(j["id"] for j in jobs) != sorted(sizes):
        bad.append(f"{leg}: job metrics do not list each job once")
    for j in jobs:
        s = sizes.get(j["id"], 0)
        if j["round"] != placed_round.get(j["id"]):
            bad.append(f"{leg}: {j['id']} metrics name the wrong round")
        if j["cnots"] != s * (s - 1) + 3 * j["swaps"]:
            bad.append(f"{leg}: {j['id']} has {j['cnots']} cnots with {j['swaps']} swaps")
        expected = (1.0 - FLAT_ERROR) ** (j["cnots"] + s)
        if abs(j["pst"] - expected) > 1e-12 * expected:
            bad.append(f"{leg}: {j['id']} pst {j['pst']!r} != {expected!r}")
    return bad


def check_simulate(out: Path, gen_seed: int) -> tuple[list[str], dict]:
    """Check one simulate call's reports; also return its per-leg statistics."""
    sizes = {f"job{i:03d}": s for i, s in enumerate(job_sizes(gen_seed))}
    bad, stats = [], {}
    for leg in ("baseline", "attacked"):
        report = json.loads((out / f"{leg}.json").read_text())["report"]
        bad += check_leg(report, sizes, leg)
        stats[leg] = {
            "rounds": report["total_rounds"],
            "mean_swaps": report["mean_swap_count"],
            "mean_pst": report["mean_pst"],
        }
    return bad, stats


# ---------------------------------------------------------------- detect


def qubit_means(cnot: np.ndarray) -> np.ndarray:
    """(cycles, qubits) mean incident CNOT error, summed left to right in the
    program's edge order so each value is bit-identical to its own."""
    out = np.empty((cnot.shape[0], QUBITS))
    for q, cols in enumerate(INCIDENT):
        acc = cnot[:, cols[0]].copy()
        for c in cols[1:]:
            acc += cnot[:, c]
        out[:, q] = acc / len(cols)
    return out


def _kl(s1: np.ndarray, s2: np.ndarray) -> float:
    """KL(history || test) on shared equal-width bins over the pooled range,
    each histogram normalized and smoothed by eps."""
    lo = min(s1.min(), s2.min())
    hi = max(s1.max(), s2.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, AUDIT_BINS + 1)
    probs = []
    for s in (s1, s2):
        counts, _ = np.histogram(s, bins=edges)
        p = counts.astype(float) / counts.sum()
        probs.append(((p + AUDIT_EPS) / (1.0 + AUDIT_EPS * AUDIT_BINS)).tolist())
    total = 0.0
    for pi, qi in zip(*probs):
        total += pi * math.log(pi / qi)
    return total


def divergences(cnot: np.ndarray) -> list[float]:
    means = qubit_means(cnot)
    return [
        _kl(np.ascontiguousarray(means[:HISTORY_CYCLES, q]), np.ascontiguousarray(means[HISTORY_CYCLES:, q]))
        for q in range(QUBITS)
    ]


def threshold(cnot: np.ndarray) -> float:
    """The detect command's default threshold, recomputed.

    The drift cv is the mean over qubits of each qubit's history-window
    coefficient of variation; the base is the per-edge history mean. Each of
    the synthetic honest runs draws, per cycle, one standard normal per edge
    in sorted edge order and scales the base by exp(s * z) with
    s = sqrt(ln(1 + cv^2)), clamped to [0, 1]. tau is the linearly
    interpolated 95th percentile of every run's per-qubit divergences.
    """
    hist = cnot[:HISTORY_CYCLES]
    hist_means = qubit_means(hist)
    cv = 0.0
    for q in range(QUBITS):
        col = np.ascontiguousarray(hist_means[:, q])
        cv += 100.0 * float(np.std(col)) / float(np.mean(col))
    cv /= 100.0 * QUBITS
    base = np.cumsum(hist, axis=0)[-1] / HISTORY_CYCLES  # left-to-right sums
    s = math.sqrt(math.log(1.0 + cv * cv))
    pool = []
    for seed in range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + CALIBRATION_RUNS):
        rng = np.random.default_rng(seed)
        run = np.array([
            np.clip(base * np.exp(s * rng.standard_normal(len(HANOI27_EDGES))), 0.0, 1.0)
            for _ in range(HISTORY_CYCLES + TEST_CYCLES)
        ])
        pool += divergences(run)
    return float(np.percentile(np.asarray(pool), PERCENTILE))


def read_calibration_csv(text: str) -> np.ndarray:
    """The (cycle, edge) CNOT errors of a calibration CSV."""
    cycles = HISTORY_CYCLES + TEST_CYCLES
    cnot = np.full((cycles, len(HANOI27_EDGES)), np.nan)
    for line in text.splitlines()[1:]:
        cycle, kind, subject, value = line.split(",")
        if kind == "cnot":
            u, v = subject.split("-")
            cnot[int(cycle), EDGE_INDEX[(int(u), int(v))]] = float(value)
    if np.isnan(cnot).any():
        raise ValueError("calibration CSV does not cover every (cycle, edge)")
    return cnot


def expected_verdict(csv_text: str) -> dict:
    cnot = read_calibration_csv(csv_text)
    return {"divergence": divergences(cnot), "tau": threshold(cnot)}


def check_detect(verdict_path: Path, expected: dict) -> tuple[list[str], dict]:
    doc = json.loads(verdict_path.read_text())
    bad = []
    tau = doc["tau"]
    if abs(tau - expected["tau"]) > 1e-9 * abs(expected["tau"]):
        bad.append(f"tau {tau!r} != recomputed {expected['tau']!r}")
    rows = doc["qubits"]
    if [r["qubit"] for r in rows] != list(range(QUBITS)):
        bad.append("verdict does not list qubits 0..26 once each")
        return bad, {}
    for r, want in zip(rows, expected["divergence"]):
        if abs(r["divergence"] - want) > 1e-12:
            bad.append(f"qubit {r['qubit']}: divergence {r['divergence']!r} != {want!r}")
    flagged = [r["qubit"] for r in rows if r["flagged"]]
    if flagged != [r["qubit"] for r in rows if r["divergence"] > tau]:
        bad.append(f"flagged {flagged} is not {{q : divergence > tau}}")
    if not set(AUDIT_TARGETS) <= set(flagged):
        bad.append(f"flagged {flagged} misses an over-reported qubit of {AUDIT_TARGETS}")
    return bad, {"tau": tau, "flagged": flagged}

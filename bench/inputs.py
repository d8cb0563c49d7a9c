"""The benchmark's workloads and the input files they read.

Every input is made from the run's seed with numpy alone, never with an
mtqsim function, so the inputs stay the same when the program's own
generators change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUBITS = 27
# hanoi27's heavy-hex coupling map, kept here so the checks do not read the
# program's copy of it
HANOI27_EDGES = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)

FLAT_ERROR = 0.02
JOBS = 40
SIZE_MIN, SIZE_MAX = 2, 10
GATE_DENSITY = 2.0

# audit series: 336 history cycles, then 84 cycles under test
HISTORY_CYCLES = 336
TEST_CYCLES = 84
DRIFT_CV = 0.30
AUDIT_TARGETS = (8, 12, 14)  # H1's n=3 targets on hanoi27
OVERREPORT = 0.15
AUDIT_BINS = 3
AUDIT_EPS = 0.1
CALIBRATION_RUNS = 60  # the CLI's default
CALIBRATION_SEED_BASE = 1000  # the CLI's seeds for its synthetic runs
PERCENTILE = 95.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the CLI subcommand one operation runs
    allocator: str = ""
    attack: str = ""
    seeds_per_pass: int = 1

    def generator_seeds(self, seed: int) -> list[int]:
        """The workload generator seeds of one pass, derived from the run's seed."""
        return [seed * 1000 + i for i in range(self.seeds_per_pass)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-comdap", "simulate", "comdap", "H1:n=3,k=0.15", seeds_per_pass=16),
        Workload("sim-greedy", "simulate", "greedy", "H2:k=0.15,0.12,0.10", seeds_per_pass=40),
        Workload("audit", "detect"),
    )
}


def simulate_config() -> dict:
    """hanoi27, the flat 2% snapshot, and the 40-job generator workload."""
    return {
        "topology": "hanoi27",
        "errors": {"uniform": {"cnot": FLAT_ERROR, "readout": FLAT_ERROR}},
        "workload": {
            "count": JOBS,
            "size_min": SIZE_MIN,
            "size_max": SIZE_MAX,
            "gate_density": GATE_DENSITY,
            "seed": 0,
        },
    }


def audit_series(seed: int) -> np.ndarray:
    """CNOT error per (cycle, edge): lognormal drift at DRIFT_CV around 2%,
    with every edge incident to an audit target over-reported by 15% in the
    cycles under test."""
    s = math.sqrt(math.log(1.0 + DRIFT_CV * DRIFT_CV))
    rng = np.random.default_rng(seed)
    cycles = HISTORY_CYCLES + TEST_CYCLES
    vals = FLAT_ERROR * np.exp(s * rng.standard_normal((cycles, len(HANOI27_EDGES))))
    hit = [i for i, (u, v) in enumerate(HANOI27_EDGES) if u in AUDIT_TARGETS or v in AUDIT_TARGETS]
    vals[HISTORY_CYCLES:, hit] *= 1.0 + OVERREPORT
    return np.clip(vals, 0.0, 1.0)


def calibration_csv(vals: np.ndarray) -> str:
    rows = ["cycle,kind,subject,value"]
    for t, row in enumerate(vals.tolist()):
        rows.extend(f"{t},cnot,{u}-{v},{x!r}" for (u, v), x in zip(HANOI27_EDGES, row))
        rows.extend(f"{t},readout,{q},{FLAT_ERROR!r}" for q in range(QUBITS))
    return "\n".join(rows) + "\n"


def write_inputs(workload: Workload, seed: int, out: Path) -> list[list[str]]:
    """Write the workload's input files under out; return one pass's CLI argvs."""
    out.mkdir(parents=True, exist_ok=True)
    if workload.command == "detect":
        csv = out / "calibration.csv"
        csv.write_text(calibration_csv(audit_series(seed)))
        windows = f"0:{HISTORY_CYCLES},{HISTORY_CYCLES}:{HISTORY_CYCLES + TEST_CYCLES}"
        return [[
            "detect", "--calib", str(csv), "--windows", windows,
            "--bins", str(AUDIT_BINS), "--eps", str(AUDIT_EPS),
            "--out", str(out / "verdict.json"),
        ]]
    config = out / "config.json"
    config.write_text(json.dumps(simulate_config(), indent=2) + "\n")
    return [
        [
            "simulate", "--config", str(config),
            "--allocator", workload.allocator, "--attack", workload.attack,
            "--seed", str(gs), "--out", str(out / f"seed{gs}"),
        ]
        for gs in workload.generator_seeds(seed)
    ]

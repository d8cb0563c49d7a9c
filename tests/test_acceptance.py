"""Acceptance gate: the ten release criteria, one verdict line each.

Each test computes its criterion verbatim, appends a PASS/FAIL line to
RESULTS (echoed in the terminal summary), and then asserts. Criteria that
the implementation cannot meet fail here honestly; the measured values are
in the verdict line and the analysis lives in the Testing section of the
README.
"""

import json
import math

import numpy as np
import pytest

import oracles
from mtqsim.adversary import (
    apply_misreport,
    h1_plan,
    h2_plan,
    heuristic1_sigma_ranking,
    heuristic1_targets,
    heuristic2_targets,
)
from mtqsim.allocation import (
    AllocationRequest,
    cfm,
    comdap_allocate,
    cri,
    get_allocator,
    louvain,
)
from mtqsim.calibration import CalibrationSeries, synth_drift, uniform_snapshot, validate_snapshot
from mtqsim.cli import main
from mtqsim.defense import (
    calibrate_threshold,
    detect,
    divergences,
    naive_threshold_flags,
)
from mtqsim.scheduler import gen_workload, run_queue
from mtqsim.topology import CouplingGraph, hanoi27
from mtqsim.transpile import cost, initial_layout, parse_qasm_subset, route

RESULTS: list[str] = []

DEGREE3 = (1, 7, 8, 12, 14, 18, 19, 25)

PRESET = dict(count=40, size_min=2, size_max=10, gate_density=2.0)
SEEDS = range(1, 21)


def verdict(num: int | str, ok: bool, detail: str) -> bool:
    line = f"criterion {num:>3}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def hanoi():
    return hanoi27()


@pytest.fixture(scope="module")
def sweep20(hanoi):
    """Shared 20-seed preset runs: baseline, H1, and H2 legs per allocator."""
    snap = uniform_snapshot(hanoi, 0.02, 0.02)
    rep_h1 = apply_misreport(snap, h1_plan(hanoi, 3, 0.15))
    rep_h2 = apply_misreport(snap, h2_plan(hanoi, [0.15, 0.12, 0.10]))
    runs = {}
    for alloc in ("greedy", "comdap"):
        rows = []
        for seed in SEEDS:
            jobs = gen_workload(seed=seed, **PRESET)
            base = run_queue(jobs, snap, snap, alloc)
            a1 = run_queue(jobs, snap, rep_h1, alloc)
            a2 = run_queue(jobs, snap, rep_h2, alloc)
            rows.append((base, a1, a2))
        runs[alloc] = rows
    return runs


def test_criterion_01_fixture_exactness(hanoi):
    deg = {q: 0 for q in range(27)}
    for u, v in hanoi.edge_list:
        deg[u] += 1
        deg[v] += 1
    got = {q for q, d in deg.items() if d == 3}
    ok = got == set(DEGREE3) and max(deg.values()) == 3
    assert verdict(1, ok, f"degree-3 set {sorted(got)}"), sorted(got)


def test_criterion_02_h2_exactness(hanoi):
    got = heuristic2_targets(hanoi, 3)
    dist = oracles.floyd_warshall(hanoi.edge_list, 27)
    chain = oracles.maxmin_chain(hanoi.edge_list, 27, list(DEGREE3), 3)
    # each pick attains the brute-force max-min distance over the pool
    stepwise = True
    chosen = [got[0]]
    for q in got[1:]:
        best = max(min(dist[c][s] for s in chosen) for c in DEGREE3 if c not in chosen)
        stepwise &= min(dist[q][s] for s in chosen) == best
        chosen.append(q)
    ok = got == [1, 25, 14] and got == chain and stepwise
    assert verdict(
        2, ok, f"distributed targets {got}; oracle chain {chain}; stepwise max-min {stepwise}"
    ), got


def test_criterion_03_h1_audit(hanoi):
    ranking = oracles.sigma_ranking(hanoi.edge_list, 27, list(DEGREE3))
    got2 = heuristic1_targets(hanoi, 2)
    got3 = heuristic1_targets(hanoi, 3)
    surfaced = [q for q, _ in heuristic1_sigma_ranking(hanoi)]
    ok = got2 == ranking[:2] and got3 == ranking[:3] and surfaced == ranking
    assert verdict(
        3,
        ok,
        f"sigma ranking {ranking}; n=2 {got2}, n=3 {got3}; "
        f"documented alternates [12, 14] vs [7, 8, 12] (the latter does not "
        f"match the computed ranking)",
    ), (got2, got3)


def test_criterion_04_throughput_direction(sweep20):
    deltas = {
        alloc: [a1["total_rounds"] - b["total_rounds"] for b, a1, _ in rows]
        for alloc, rows in sweep20.items()
    }
    frac_g = float(np.mean([d >= 0 for d in deltas["greedy"]]))
    mean_g = float(np.mean(deltas["greedy"]))
    mean_c = float(np.mean(deltas["comdap"]))
    ok = frac_g >= 0.90 and mean_g >= mean_c
    assert verdict(
        4,
        ok,
        f"H1 rounds: greedy frac(delta>=0)={frac_g:.2f} (need >=0.90); "
        f"mean delta greedy {mean_g:+.2f} vs comdap {mean_c:+.2f} (need greedy >= comdap)",
    ), (frac_g, mean_g, mean_c)


def test_criterion_05_utilization_ordering(sweep20):
    drops = {
        alloc: float(np.mean([b["mean_utilization"] - a1["mean_utilization"] for b, a1, _ in rows]))
        for alloc, rows in sweep20.items()
    }
    ok = drops["greedy"] > drops["comdap"]
    assert verdict(
        5,
        ok,
        f"H1 mean utilization drop: greedy {drops['greedy']:.4f} vs "
        f"comdap {drops['comdap']:.4f} (need greedy strictly larger)",
    ), drops


def test_criterion_06_depth_pst_ordering(sweep20):
    stats = {}
    for alloc, rows in sweep20.items():
        pct = lambda key: float(np.mean([100.0 * (a2[key] - b[key]) / b[key] for b, _, a2 in rows]))
        depth_pct, pst_pct = pct("mean_depth"), pct("mean_pst")
        base_pool = [j["pst"] for b, _, _ in rows for j in b["jobs"]]
        att_pool = [j["pst"] for _, _, a2 in rows for j in a2["jobs"]]
        gm = lambda xs: math.exp(math.fsum(map(math.log, xs)) / len(xs))
        gm_pct = 100.0 * (gm(att_pool) - gm(base_pool)) / gm(base_pool)
        stats[alloc] = (depth_pct, pst_pct, gm_pct)
    dg, pg, gg = stats["greedy"]
    dc, pc, gc = stats["comdap"]
    ok = dg > 0 and dc > 0 and pg < 0 and pc < 0 and dg >= dc and -pg >= -pc
    assert verdict(
        6,
        ok,
        f"H2 depth: greedy {dg:+.3f}% comdap {dc:+.3f}% (need both >0, greedy >= comdap); "
        f"mean PST: greedy {pg:+.3f}% comdap {pc:+.3f}% (need both <0, greedy drop >= comdap); "
        f"diagnostic geometric-mean PST: greedy {gg:+.3f}% comdap {gc:+.3f}%",
    ), stats


def test_criterion_07_allocator_exactness(hanoi):
    star = CouplingGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    star_snap = validate_snapshot(
        star, {(0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.01}, {0: 0.02, 1: 0.0, 2: 0.0, 3: 0.0}
    )
    cfm_ok = abs(cfm(star_snap, 0) - 3.97) < 1e-12
    zero = uniform_snapshot(star, 0.0, 0.0)
    cfm_ok &= abs(cfm(zero, 1) - 2.0) < 1e-12

    fix5 = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)}))
    fix5_snap = validate_snapshot(
        fix5,
        {(0, 1): 0.01, (1, 2): 0.02, (2, 3): 0.03, (3, 4): 0.04, (1, 3): 0.05},
        {q: 0.01 * (q + 1) for q in range(5)},
    )
    cri_ok = abs(cri(fix5_snap, (1, 2, 3)) - 1.8278008298755188) < 1e-12
    cri_ok &= abs(cri(fix5_snap, (0, 1, 2, 3, 4)) - 1.0) < 1e-12

    snap = uniform_snapshot(hanoi, 0.02, 0.02)
    communities = louvain(snap, tuple(range(27)))
    target = communities[0]
    part = comdap_allocate(snap, AllocationRequest(len(target), tuple(range(27))))
    verbatim_ok = tuple(sorted(part.members)) in communities

    adj = oracles.adjacency(hanoi.edge_list, 27)
    rng = np.random.default_rng(424242)
    instances = returned = 0
    valid = True
    for trial in range(500):
        s = validate_snapshot(
            hanoi,
            {e: float(rng.uniform(0.001, 0.2)) for e in hanoi.edge_list},
            {q: float(rng.uniform(0.001, 0.2)) for q in range(27)},
        )
        if trial % 2 == 0:
            # well-posed: most of the chip free, modest request
            busy = rng.choice(27, size=int(rng.integers(0, 8)), replace=False)
            avail = tuple(sorted(set(range(27)) - set(busy.tolist())))
            size = int(rng.integers(1, 11))
        else:
            # stress: arbitrary fragmentation, arbitrary size
            n_avail = int(rng.integers(2, 28))
            avail = tuple(sorted(rng.choice(27, size=n_avail, replace=False).tolist()))
            size = int(rng.integers(1, n_avail + 1))
        req = AllocationRequest(size, avail)
        for name in ("greedy", "comdap"):
            instances += 1
            p = get_allocator(name)(s, req)
            if p is None:
                continue
            returned += 1
            valid &= (
                len(p.members) == req.size
                and set(p.members) <= set(avail)
                and oracles.is_connected(adj, p.members)
            )
    ok = cfm_ok and cri_ok and verbatim_ok and valid and instances == 1000 and returned >= 600
    assert verdict(
        7,
        ok,
        f"CFM/CRI hand values at 1e-12 {cfm_ok and cri_ok}; exact-size community "
        f"verbatim {verbatim_ok}; {returned}/{instances} seeded instances returned, "
        f"all connected/sized/available {valid}",
    ), (cfm_ok, cri_ok, verbatim_ok, valid)


def test_criterion_08_routing_invariants(hanoi):
    snap = uniform_snapshot(hanoi, 0.02, 0.02)
    edge_set = set(hanoi.edge_list)
    checked = 0
    ok = True
    for seed in range(12):
        for job in gen_workload(5, 2, 6, 2.0, 9000 + seed):
            part = get_allocator("greedy")(snap, AllocationRequest(job.size, tuple(range(27))))
            lay = initial_layout(job.circuit, part.members, snap)
            r = route(job.circuit, lay, part.members, hanoi)
            for op in oracles.expand_swaps(r.physical_ops):
                if op.kind == "cnot":
                    ok &= tuple(sorted(op.qubits)) in edge_set
            logical_cnots = sum(1 for g in job.circuit.gates if g.kind == "cnot")
            ok &= cost(job.circuit, lay, part.members, snap)[1] == logical_cnots + 3 * r.swap_count
            ok &= oracles.replay_routed(job.circuit, r) == r.swap_count
            checked += 1

    p3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
    s = validate_snapshot(p3, {(0, 1): 0.02, (1, 2): 0.02}, {0: 0.01, 1: 0.01, 2: 0.01})
    c = parse_qasm_subset(
        "qreg q[3]; creg c[2]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];"
    )
    pst_ok = abs(cost(c, {0: 0, 1: 2, 2: 1}, (0, 1, 2), s)[3] - 0.98**4 * 0.99**2) < 1e-12
    ok = ok and pst_ok and checked == 60
    assert verdict(
        8,
        ok,
        f"{checked} routed circuits: CNOTs on edges, 3-per-SWAP accounting, "
        f"interaction multiset preserved; PST hand product at 1e-12 {pst_ok}",
    )


def test_criterion_09a_kl_exactness():
    # one edge, so both qubits' samples are its rates: P's in window 1, Q's in window 2
    one_edge = CouplingGraph(2, frozenset({(0, 1)}))

    def kl(p_samples, q_samples):
        rates = [[r] for r in (*p_samples, *q_samples)]
        n, n1 = len(rates), len(p_samples)
        series = CalibrationSeries(one_edge, tuple(range(n)), rates, [[0.0, 0.0]] * n)
        return divergences(series, (0, n1), (n1, n), bins=2, eps=0.0)

    p, q = [0.1, 0.1, 0.3, 0.3], [0.1, 0.3, 0.3, 0.3]
    d_pq = kl(p, q)[0]
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    self_ok = kl(p, p) == [0.0, 0.0]
    ex_ok = abs(d_pq - expected) < 1e-6
    ok = self_ok and ex_ok
    assert verdict(
        "9a",
        ok,
        f"D(P,P)=0 {self_ok}; worked example {d_pq:.6f} nats "
        f"vs {expected:.6f} at 1e-6 {ex_ok}",
    )


def test_criterion_09b_detector_power(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    n1, n2 = 336, 84
    w1, w2 = (0, n1), (n1, n1 + n2)
    bins, eps, cv = 3, 0.1, 0.30
    cal = [synth_drift(base, n1 + n2, cv, 1000 + i) for i in range(60)]
    tau = calibrate_threshold(cal, w1, w2, bins=bins, eps=eps)
    plan = h1_plan(hanoi, 3, 0.15)
    targets = {q for q, _ in plan.targets}
    hits = 0
    fp = 0
    honest_tests = 0
    trials = 500
    for t in range(trials):
        honest = synth_drift(base, n1 + n2, cv, 2000 + t)
        hv = detect(honest, w1, w2, bins=bins, eps=eps, tau=tau)
        fp += len(hv.flagged)
        honest_tests += 27
        attacked = apply_misreport(honest, plan, (n1, n1 + n2))
        av = detect(attacked, w1, w2, bins=bins, eps=eps, tau=tau)
        hits += targets <= av.flagged
    rate = hits / trials
    fpr = fp / honest_tests
    ok = rate >= 0.90 and fpr <= 0.10
    assert verdict(
        "9b",
        ok,
        f"windows {n1}+{n2}, bins {bins}, eps {eps}: H1 +15% flagged on all "
        f"targets in {rate:.3f} of {trials} trials (need >=0.90); honest "
        f"per-qubit FPR {fpr:.3f} (need <=0.10); tau {tau:.4f}",
    ), (rate, fpr)


def test_criterion_09c_naive_detector_fails(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    fracs = []
    for seed in (1, 2, 3, 4, 5):
        series = synth_drift(base, 14, 0.30, seed)
        fracs.append(len(naive_threshold_flags(series, rel_bound=0.15)) / 27)
    ok = all(f > 0.5 for f in fracs)
    assert verdict(
        "9c",
        ok,
        f"naive +-15% per-cycle detector flags {min(fracs):.2f}-{max(fracs):.2f} "
        f"of honest qubits across 5 seeds (need majority on each)",
    ), fracs


def test_criterion_10_determinism_closure(tmp_path):
    cfg = {
        "topology": "hanoi27",
        "errors": {"uniform": {"cnot": 0.02, "readout": 0.02}},
        "allocator": "comdap",
        "attack": {"kind": "H1", "n": 3, "k": 0.15},
        "workload": {"count": 8, "size_min": 2, "size_max": 10, "seed": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "first"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    embedded = json.loads((out1 / "attacked.json").read_text())["config"]
    replay_cfg = tmp_path / "embedded.json"
    replay_cfg.write_text(json.dumps(embedded))
    out2 = tmp_path / "replay"
    assert main(["simulate", "--config", str(replay_cfg), "--out", str(out2)]) == 0
    names = [
        "baseline.json",
        "attacked.json",
        "summary.json",
        "baseline_rounds.csv",
        "baseline_jobs.csv",
        "attacked_rounds.csv",
        "attacked_jobs.csv",
    ]
    same = [n for n in names if (out1 / n).read_bytes() == (out2 / n).read_bytes()]
    ok = same == names
    assert verdict(
        10, ok, f"re-run from embedded config byte-identical for {len(same)}/{len(names)} reports"
    ), same

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import connected_graph, graph_and_snapshot
from mtqsim import allocation
from mtqsim.allocation import ScoringContext
from mtqsim.calibration import synth_drift, uniform_snapshot
from mtqsim.experiment import dump_json, jobs_csv, resolve_config, rounds_csv, run_simulate
from mtqsim.scheduler import AGGREGATES, JOB_COLUMNS, Job, gen_workload, run_queue
from mtqsim.topology import CouplingGraph, hanoi27, max_degree_qubits
from mtqsim.transpile import LogicalCircuit, Op


def chain_job(jid, size):
    gates = [Op("cnot", (i, i + 1)) for i in range(size - 1)]
    gates += [Op("measure", (q,), clbit=q) for q in range(size)]
    return Job(jid, LogicalCircuit(size, tuple(gates), size))


def test_single_full_size_job(flat_snap):
    report = run_queue([chain_job("whole", 27)], flat_snap, flat_snap, "greedy")
    assert report["total_rounds"] == 1
    assert report["rounds"][0]["utilization"] == 1.0


def test_two_half_size_jobs_pigeonhole(flat_snap):
    jobs = [chain_job("a", 14), chain_job("b", 14)]
    report = run_queue(jobs, flat_snap, flat_snap, "greedy")
    assert report["total_rounds"] == 2


def test_skip_ahead_packs_later_jobs(flat_snap):
    # 15 + 13 can't share the round, but the 6 behind them fits the leftover
    jobs = [chain_job("big", 15), chain_job("mid", 13), chain_job("small", 6)]
    report = run_queue(jobs, flat_snap, flat_snap, "greedy")
    first = report["rounds"][0]
    placed_ids = [p["job"] for p in first["placed"]]
    assert "big" in placed_ids and "small" in placed_ids
    assert "mid" not in placed_ids
    assert report["total_rounds"] == 2


def test_rounds_lower_bound_and_conservation(flat_snap):
    for seed in (1, 5, 9):
        jobs = gen_workload(40, 2, 10, 2.0, seed)
        for allocator in ("greedy", "comdap"):
            report = run_queue(jobs, flat_snap, flat_snap, allocator)
            placed = [p["job"] for r in report["rounds"] for p in r["placed"]]
            assert sorted(placed) == sorted(j.id for j in jobs)
            assert len(placed) == len(set(placed))
            total = sum(j.size for j in jobs)
            assert report["total_rounds"] >= math.ceil(total / 27)


def test_round_disjointness_and_utilization(flat_snap):
    jobs = gen_workload(25, 2, 10, 2.0, 3)
    report = run_queue(jobs, flat_snap, flat_snap, "comdap")
    for r in report["rounds"]:
        seen = set()
        for p in r["placed"]:
            assert not (seen & set(p["members"]))
            seen |= set(p["members"])
        assert r["active_qubits"] == len(seen)
        assert r["utilization"] == pytest.approx(len(seen) / 27)
        assert r["utilization"] <= 1.0


def test_jobs_metrics_present(flat_snap):
    jobs = gen_workload(10, 2, 6, 2.0, 8)
    report = run_queue(jobs, flat_snap, flat_snap, "greedy")
    assert len(report["jobs"]) == 10
    for m in report["jobs"]:
        assert m["depth"] >= 1
        assert m["cnots"] >= 3 * m["swaps"]
        assert 0.0 <= m["pst"] <= 1.0


def test_monotone_workload(flat_snap):
    base = gen_workload(12, 2, 10, 2.0, 4)
    more = base + gen_workload(6, 2, 10, 2.0, 90)
    r1 = run_queue(base, flat_snap, flat_snap, "greedy")
    r2 = run_queue(more, flat_snap, flat_snap, "greedy")
    assert r2["total_rounds"] >= r1["total_rounds"]


def test_oversized_job_rejected(flat_snap):
    with pytest.raises(ValueError):
        run_queue([chain_job("big", 28)], flat_snap, flat_snap, "greedy")


def test_snapshots_of_different_graphs_rejected(flat_snap):
    # a 27-qubit line: same qubit count as hanoi27, other edges
    line = CouplingGraph(27, frozenset((q, q + 1) for q in range(26)))
    line_snap = uniform_snapshot(line, 0.02, 0.02)
    message = "^the true and reported snapshots are of different graphs$"
    for snap_true, snap_reported in ((flat_snap, line_snap), (line_snap, flat_snap)):
        for allocator in ("greedy", "comdap"):
            with pytest.raises(ValueError, match=message):
                run_queue([chain_job("pair", 2)], snap_true, snap_reported, allocator)


def test_baseline_sanity_regression(flat_snap):
    """Honest reporting completes the 40-job preset with decent utilization."""
    for allocator in ("greedy", "comdap"):
        jobs = gen_workload(40, 2, 10, 2.0, 7)
        report = run_queue(jobs, flat_snap, flat_snap, allocator)
        assert report["mean_utilization"] > 0.5
    # regression pins for seed 7
    g = run_queue(gen_workload(40, 2, 10, 2.0, 7), flat_snap, flat_snap, "greedy")
    c = run_queue(gen_workload(40, 2, 10, 2.0, 7), flat_snap, flat_snap, "comdap")
    assert g["total_rounds"] == 12
    assert c["total_rounds"] == 11


def test_empty_queue(flat_snap):
    report = run_queue([], flat_snap, flat_snap, "greedy")
    assert report["total_rounds"] == 0
    assert report["mean_utilization"] == 0.0


def test_report_keys_and_whole_number_means_stay_json_integers(flat_snap):
    report = run_queue([chain_job("pair", 2)], flat_snap, flat_snap, "greedy")
    assert list(report) == ["allocator", *AGGREGATES, "rounds", "jobs"]
    assert [list(r) for r in report["rounds"]] == [["round", "placed", "active_qubits", "utilization"]]
    assert list(report["rounds"][0]["placed"][0]) == ["job", "members", "score"]
    assert [tuple(j) for j in report["jobs"]] == [JOB_COLUMNS]
    # statistics.mean keeps these means ints, so the report writes 2, not 2.0
    text = dump_json(report)
    assert '"mean_depth": 2,' in text and '"mean_swap_count": 0,' in text
    written = json.loads(text)
    for name in ("total_rounds", "mean_depth", "mean_cnot_count", "mean_swap_count"):
        assert type(written[name]) is int, name
    assert type(written["mean_pst"]) is float


def test_gen_workload_determinism_and_sizes():
    w1 = gen_workload(40, 2, 10, 2.0, 123)
    w2 = gen_workload(40, 2, 10, 2.0, 123)
    assert [j.id for j in w1] == [f"job{i:03d}" for i in range(40)]
    for a, b in zip(w1, w2):
        assert a.id == b.id
        assert a.circuit == b.circuit
    assert all(2 <= j.size <= 10 for j in w1)
    with pytest.raises(ValueError, match="count must be at least 1"):
        gen_workload(0, 2, 10, 2.0, 1)
    assert gen_workload(40, 2, 10, 2.0, 124)[0].circuit != w1[0].circuit


def test_gen_workload_measures_every_qubit():
    for job in gen_workload(5, 2, 10, 3.0, 77):
        measured = {gt.qubits[0] for gt in job.circuit.gates if gt.kind == "measure"}
        assert measured == set(range(job.size))


# sha256 of dump_json(doc["report"]) for the baseline and attacked documents of
# the 40-job preset (hanoi27, flat 2% errors, 2-10 qubits at density 2.0)
ATTACKS = {
    "H1": {"kind": "H1", "n": 3, "k": 0.15},
    "H2": {"kind": "H2", "ks": [0.15, 0.12, 0.10]},
}
PRESET_ATTACKS = {"comdap": "H1", "greedy": "H2"}
BASELINE_DIGESTS = {
    ("comdap", 1): "e1620ea09e9d533dbd5ef77789b147d883befdd6205a9dea76a97f51559f95a8",
    ("comdap", 2): "d8389cb1cfbd1500fa64b0469831410dbc58afd56a7dd01df4326912d5ee1200",
    ("comdap", 3): "264f4bf26a2eff1db594a2c11f7ed39ba7d8f07a6d0dcacf5a46d94e046b372b",
    ("greedy", 1): "f40a1af03242cde62f120f53884f9c187f105aa4a0eb84fe3195e29d9ec70503",
    ("greedy", 2): "13f9251f78c50b66c0b61544b6b6c9c487b8b7e18ce6b0d70b46a4cf636052af",
    ("greedy", 3): "40290377b9ba27fedc4484d05b337f62aa7aa9f29b3bb0a7637209b6985794b2",
}
ATTACKED_DIGESTS = {
    ("comdap", "H1", 1): "b68faa645e81ba221b9ec9aa513cc4964a5508e3c224e56865b534c85605f9a7",
    ("comdap", "H1", 2): "777c5266472985b5689bc1d1eb1563d43f8b8c3442cb0c6d3b89284f9f57ea64",
    ("comdap", "H1", 3): "ecbfa00a637bddff808bc03c21cfaa4c337912e68fb90b69a7a0e2d1fd5f9f4e",
    ("comdap", "H2", 1): "2553bc3e43db2a01a5f02477e2bdd5d4d6ab265fbf586449b6007e4ed013d41d",
    ("comdap", "H2", 2): "8dd5f03343ac60db7d23203648c0d797563899d28c3d530a44b92e78b515ea32",
    ("comdap", "H2", 3): "879c7238fe9f997f7388d12a477930d915cbfb70824138c70a75b65976c3eb6a",
    ("greedy", "H1", 1): "52e977a1972ef88b59cf07da4cfe2b1e0b38e614d7d398228d12ff8a585c212a",
    ("greedy", "H1", 2): "15f8b9cebba9769acab9357026ee339a36c1a3e2fbe5747a17aab6f88be96486",
    ("greedy", "H1", 3): "1f2bc52afa19ca5cfbcd522803ff03287980e7eb74c8a67cb273e44cc8b9ed72",
    ("greedy", "H2", 1): "46b8bf82fd9510f6d89d72d3d6028f645edeea676b53a24c99ba3b3940e00889",
    ("greedy", "H2", 2): "8df07dcb4265ae4e854aed4333528407e09da3cc4038b96f9a3432fa79457a89",
    ("greedy", "H2", 3): "b1826345463c8d7b7c27ff16e8cf03eb33a5db7ed0b41ab38ee230ac0c7a9747",
}


def pin_id(key):
    """The preset pairs keep their allocator-seed ids; the others name the attack."""
    allocator, attack, seed = key
    if attack == PRESET_ATTACKS[allocator]:
        return f"{allocator}-{seed}"
    return f"{allocator}-{attack}-{seed}"


def leg_digests(errors, key):
    """sha256 of the baseline and attacked reports of the preset workload."""
    allocator, attack, seed = key
    config = resolve_config(
        {
            "topology": "hanoi27",
            "errors": errors,
            "allocator": allocator,
            "attack": ATTACKS[attack],
            "workload": {
                "count": 40, "size_min": 2, "size_max": 10, "gate_density": 2.0, "seed": seed
            },
        }
    )
    res = run_simulate(config)
    return tuple(
        hashlib.sha256(dump_json(res[leg]["report"]).encode()).hexdigest()
        for leg in ("baseline", "attacked")
    )


@pytest.mark.parametrize("key", sorted(ATTACKED_DIGESTS), ids=pin_id)
def test_preset_reports_are_pinned(key):
    allocator, attack, seed = key
    got = leg_digests({"uniform": {"cnot": 0.02, "readout": 0.02}}, key)
    assert got == (BASELINE_DIGESTS[allocator, seed], ATTACKED_DIGESTS[key])


# the same legs with one synth_drift cycle (cv 0.30, seed 7) of the flat snapshot
# as the true errors: CNOT factors differ per edge, so PST pins the product order
DRIFT_BASELINE_DIGESTS = {
    ("comdap", 1): "0eebd7deac39a74ad3887c8b952cc477395c4e29845aa70de4d82479366196de",
    ("comdap", 2): "fbf4ab3c7237b734b44e2f403c353265ab1094da31899b0b0a9278e9dacec5bd",
    ("comdap", 3): "a577a1d3f413b280d78c5e3e5d42e8b0485124c38919eb0b4e00a53d9abfc03f",
    ("greedy", 1): "6f2a8f03d5f1e9557563111ecd3b5f1564286136abe7076c3acb26edf9f90dc6",
    ("greedy", 2): "17cba0cbfb9e87aa75cde3a11ae387bee600ad4af2f4d766c0876b2d924739b2",
    ("greedy", 3): "ca5197ecb42a1cd2478fd520c1f41add654050d22403db55fc9ce50485e98a8e",
}
DRIFT_ATTACKED_DIGESTS = {
    ("comdap", "H1", 1): "b0b888d213ae500bdd5ee2ea7c52f2c1ab0cf75c0b4fe3c5e047eaadb258bd39",
    ("comdap", "H1", 2): "a43d614cd29bea14d006959fb7cab99390ff9dc344b964a55a533fb225f344ef",
    ("comdap", "H1", 3): "1c9dd62c2c0d1a9c283b8cce509b1432573848817edb91ede03b849b07d94a26",
    ("comdap", "H2", 1): "a359d4a8ef0176d6bc21813738d43b60e441e41246be64abea3610bf34e1e568",
    ("comdap", "H2", 2): "21dcb3fffb67d6a783d5c1dd36cf82e54914d458f98d163889fc6dd8050901d0",
    ("comdap", "H2", 3): "60218f6e9eb9b54a7607a9df0ddd105129b4526d8e25177b0dceb08cc49d7309",
    ("greedy", "H1", 1): "7d334864f3b93417e07bdaac41da868b9cee4bb7aad0e4646d121a447ff9fa95",
    ("greedy", "H1", 2): "a3cc15ee6990fdc5c14124165a38235d201dc6904ed341ce9ed7cc1b77cb9f3a",
    ("greedy", "H1", 3): "2ee82babdadae207437d4dda080715687e378175f13efef37f942cbbdb51a626",
    ("greedy", "H2", 1): "f24cf0c6e26e49822da4c049c51654723367bc3e7744985885cb3184e5a55dd0",
    ("greedy", "H2", 2): "0179f339bb8a20f70bc40497c51f56041e12dcf2987f973d41bebc4e9a3b4008",
    ("greedy", "H2", 3): "c02a4f11198197b92b51e6fb103fe105fc6788d4707fef6c9eccbb51c2940ebf",
}


@pytest.fixture(scope="module")
def drift_errors():
    g = hanoi27()
    snap = synth_drift(uniform_snapshot(g, 0.02, 0.02), 1, 0.30, 7).snapshot(0)
    return {
        "cnot": {f"{u}-{v}": e for (u, v), e in zip(g.edge_list, snap.cnot_error[0].tolist())},
        "readout": {str(q): e for q, e in enumerate(snap.readout_error[0].tolist())},
    }


@pytest.mark.parametrize(
    "key", sorted(DRIFT_ATTACKED_DIGESTS), ids=lambda key: "-".join(map(str, key))
)
def test_drift_reports_are_pinned(key, drift_errors):
    allocator, attack, seed = key
    got = leg_digests(drift_errors, key)
    assert got == (DRIFT_BASELINE_DIGESTS[allocator, seed], DRIFT_ATTACKED_DIGESTS[key])


def test_an_attack_set_on_a_resolved_config_replays_from_its_report():
    raw = {
        "topology": "hanoi27",
        "errors": {"uniform": {"cnot": 0.02, "readout": 0.02}},
        "workload": {"count": 8, "size_min": 2, "size_max": 6, "seed": 4},
    }
    config = {**resolve_config(raw), "attack": {"kind": "H1", "n": 2, "k": 0.3}}
    res = run_simulate(config)
    assert [t["qubit"] for t in res["summary"]["attack_targets"]] == [12, 14]
    replay = run_simulate(resolve_config(res["attacked"]["config"]))
    assert dump_json(replay["attacked"]) == dump_json(res["attacked"])
    assert dump_json(replay["summary"]) == dump_json(res["summary"])


@st.composite
def raw_config(draw):
    """A valid raw config: a builtin or inline topology, uniform or inline
    errors, no, H1 or H2 attack, and a generator or inline-circuit workload."""
    if draw(st.booleans()):
        g, topology = hanoi27(), "hanoi27"
    else:
        g = draw(connected_graph())
        edges = [[v, u] if draw(st.booleans()) else [u, v] for u, v in g.edge_list]
        topology = {"qubits": g.qubit_count, "edges": draw(st.permutations(edges))}
    rate = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    if draw(st.booleans()):
        errors = {"uniform": {"cnot": draw(rate), "readout": draw(rate)}}
    else:
        errors = {
            "cnot": {f"{u}-{v}": draw(rate) for u, v in g.edge_list},
            "readout": {str(q): draw(rate) for q in range(g.qubit_count)},
        }
    n = draw(st.integers(1, len(max_degree_qubits(g))))
    magnitude = st.one_of(st.floats(0.01, 5.0), st.integers(1, 5))
    attack = draw(st.sampled_from([
        "none",
        {"kind": "none"},
        {"kind": "H1", "n": n, "k": draw(magnitude)},
        {"kind": "H2", "ks": sorted(draw(st.sets(magnitude, min_size=n, max_size=n)), reverse=True)},
    ]))
    if draw(st.booleans()):
        size_min = draw(st.integers(1, g.qubit_count))
        workload = {
            "count": draw(st.integers(1, 6)),
            "size_min": size_min,
            "size_max": draw(st.integers(size_min, g.qubit_count)),
            "seed": draw(st.integers(0, 2**32)),
        }
        if draw(st.booleans()):
            workload["gate_density"] = draw(st.one_of(st.floats(0.1, 4.0), st.integers(1, 4)))
    else:
        ids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True))
        workload = {"circuits": [{"id": jid, "qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"} for jid in ids]}
    raw = {"topology": topology, "errors": errors, "attack": attack, "workload": workload}
    if draw(st.booleans()):
        raw["allocator"] = draw(st.sampled_from(["greedy", "comdap"]))
    return raw


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(raw_config())
def test_a_resolved_config_resolves_to_itself(raw):
    config = resolve_config(raw)
    assert resolve_config(config) == config
    # and the copy a report embeds, read back from its JSON, to the same bytes
    assert dump_json(resolve_config(json.loads(dump_json(config)))) == dump_json(config)


@st.composite
def generator_config(draw):
    """A resolved hanoi27 config with a generator workload of 1-12 jobs of 1-6 qubits."""
    size_min = draw(st.integers(1, 6))
    workload = {
        "count": draw(st.integers(1, 12)),
        "size_min": size_min,
        "size_max": draw(st.integers(size_min, 6)),
        "seed": draw(st.integers(0, 2**32)),
    }
    return resolve_config({
        "topology": "hanoi27",
        "errors": {"uniform": {"cnot": 0.02, "readout": 0.02}},
        "allocator": draw(st.sampled_from(["greedy", "comdap"])),
        "attack": draw(st.sampled_from(["none", ATTACKS["H1"], ATTACKS["H2"]])),
        "workload": workload,
    })


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(generator_config())
def test_csvs_are_rows_of_the_report(config):
    docs = run_simulate(config)
    for leg in ("baseline", "attacked"):
        report = docs[leg]["report"]
        header, *rows = rounds_csv(report).splitlines()
        assert header == "round,placed,active,utilization"
        assert [row.split(",") for row in rows] == [
            [str(r["round"]), str(len(r["placed"])), str(r["active_qubits"]), repr(r["utilization"])]
            for r in report["rounds"]
        ]
        header, *rows = jobs_csv(report).splitlines()
        assert header.split(",") == list(report["jobs"][0])
        assert [row.split(",") for row in rows] == [
            [str(v) for v in j.values()] for j in report["jobs"]
        ]


@st.composite
def queue_case(draw):
    """A random graph and snapshot plus a workload of 1-12 jobs that fit the graph."""
    g, snap = draw(graph_and_snapshot())
    count, seed = draw(st.integers(1, 12)), draw(st.integers(0, 2**16))
    return g, snap, gen_workload(count, 1, g.qubit_count, 1.0, seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(queue_case())
def test_allocator_sees_each_distinct_request_once_per_run(case):
    _, snap, jobs = case
    for name in ("greedy", "comdap"):
        real = allocation.ALLOCATORS[name]
        calls = []

        def spy(ctx, req):
            calls.append((ctx, req))
            return real(ctx, req)

        allocation.ALLOCATORS[name] = spy
        contexts = []
        try:
            for _ in range(2):
                del calls[:]
                report = run_queue(jobs, snap, snap, name)
                requests = [req for _, req in calls]
                assert len(requests) == len(set(requests))
                contexts.append(calls[0][0])
                assert all(ctx is contexts[-1] for ctx, _ in calls)
                placed = sorted(p["job"] for r in report["rounds"] for p in r["placed"])
                assert placed == sorted(j.id for j in jobs)
        finally:
            allocation.ALLOCATORS[name] = real
        # each run scores through its own context
        assert isinstance(contexts[0], ScoringContext)
        assert contexts[0] is not contexts[1]

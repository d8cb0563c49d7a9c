import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import (
    circuit,
    connected_graph,
    connected_partition,
    disconnected_graph,
    graph_and_series,
    graph_and_snapshot,
    graph_and_sign_boundary_snapshot,
)
from mtqsim.allocation import (
    AllocationRequest,
    Partition,
    _cri_term,
    _device_cri_term,
    _louvain,
    _subset_cri,
    cfm,
    cfm_rank,
    comdap_allocate,
    cri,
    fidelity_weight,
    get_allocator,
    greedy_allocate,
    louvain,
)
from mtqsim.calibration import synth_drift, uniform_snapshot, validate_snapshot
from mtqsim.topology import CouplingGraph, hanoi27
from mtqsim.transpile import LogicalCircuit, Op, _path_table, cost, initial_layout, route

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))

# path 0-1-2-3-4 plus chord 1-3; hand-checked CRI values below derive from it
FIX5 = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)}))
FIX5_CNOT = {(0, 1): 0.01, (1, 2): 0.02, (2, 3): 0.03, (3, 4): 0.04, (1, 3): 0.05}
FIX5_READOUT = {q: 0.01 * (q + 1) for q in range(5)}
FIX5_SNAP = validate_snapshot(FIX5, FIX5_CNOT, FIX5_READOUT)


def snap_uniform(g, e=0.02, r=0.02):
    return uniform_snapshot(g, e, r)


def test_cfm_hand_values():
    g = CouplingGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    s = validate_snapshot(
        g, {(0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.01}, {0: 0.02, 1: 0.0, 2: 0.0, 3: 0.0}
    )
    assert cfm(s, 0) == pytest.approx(3.97, abs=1e-12)
    s2 = uniform_snapshot(g, 0.0, 0.0)
    assert cfm(s2, 1) == pytest.approx(2.0, abs=1e-12)


def test_cfm_monotone_under_overreport():
    g = hanoi27()
    s = snap_uniform(g)
    cnot = {e: 0.02 * 1.15 if 14 in e else 0.02 for e in g.edge_list}
    bumped = validate_snapshot(g, cnot, dict.fromkeys(range(27), 0.02))
    assert cfm(bumped, 14) < cfm(s, 14)


def test_greedy_degenerate_size():
    g = hanoi27()
    part = greedy_allocate(snap_uniform(g), AllocationRequest(1, tuple(range(27))))
    assert part.members == (1,)
    assert part.score == pytest.approx(cfm(snap_uniform(g), 1))


def test_greedy_p3():
    part = greedy_allocate(snap_uniform(P3), AllocationRequest(2, (0, 1, 2)))
    assert part.members == (1, 0)


def test_greedy_hanoi_size4():
    g = hanoi27()
    part = greedy_allocate(snap_uniform(g), AllocationRequest(4, tuple(range(27))))
    assert len(part.members) == 4
    adj = oracles.adjacency(g.edge_list, 27)
    assert oracles.is_connected(adj, part.members)
    assert part.members[0] in (1, 7, 8, 12, 14, 18, 19, 25)
    assert part.score == pytest.approx(3.96, abs=1e-12)


def test_greedy_failure_is_none():
    # available region around the best attractor too small
    assert greedy_allocate(snap_uniform(P3), AllocationRequest(2, (0, 2))) is None


def test_greedy_shift_invariance():
    """Adding a constant to every qubit's E+R must not change the selection."""
    g = hanoi27()
    rng = np.random.default_rng(5)
    cnot = {e: float(rng.uniform(0.001, 0.05)) for e in g.edge_list}
    read = {q: float(rng.uniform(0.001, 0.05)) for q in range(27)}
    s1 = validate_snapshot(g, cnot, read)
    s2 = validate_snapshot(g, cnot, {q: v + 0.07 for q, v in read.items()})
    for size in (3, 6, 9):
        a = greedy_allocate(s1, AllocationRequest(size, tuple(range(27))))
        b = greedy_allocate(s2, AllocationRequest(size, tuple(range(27))))
        assert a.members == b.members


def test_louvain_two_triangles():
    g = CouplingGraph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)}))
    s = snap_uniform(g, 0.02, 0.0)
    got = louvain(s, tuple(range(6)))
    assert got == ((0, 1, 2), (3, 4, 5))
    # exhaustive modularity maximization finds the same unique argmax
    weights = {e: fidelity_weight(0.02) for e in g.edge_list}
    _, shapes = oracles.best_partitions(weights, range(6))
    assert shapes == [((0, 1, 2), (3, 4, 5))]


def test_louvain_takes_best_gain_move():
    # spider: hub 0 with legs 0-1-5, 0-2-3 and 0-4. Node 0 gains most by
    # joining leaf 4. Taking the first positive move instead (joining 1)
    # lets 0's community absorb 2, 3 and 4 and ends in the local optimum
    # ((0, 2, 3, 4), (1, 5)), below the exhaustive argmax.
    g = CouplingGraph(6, frozenset({(0, 1), (0, 2), (0, 4), (1, 5), (2, 3)}))
    got = louvain(snap_uniform(g), tuple(range(6)))
    assert got == ((0, 4), (1, 5), (2, 3))
    weights = {e: fidelity_weight(0.02) for e in g.edge_list}
    _, shapes = oracles.best_partitions(weights, range(6))
    assert shapes == [((0, 4), (1, 5), (2, 3))]


def test_louvain_singleton():
    g = hanoi27()
    assert louvain(snap_uniform(g), (13,)) == ((13,),)


def test_louvain_zero_weight_bridge():
    g = CouplingGraph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)}))
    s = validate_snapshot(
        g, {e: (1.0 if e == (2, 3) else 0.02) for e in g.edge_list}, {q: 0.0 for q in range(6)}
    )
    for community in louvain(s, tuple(range(6))):
        assert not ({2, 3} <= set(community))


def test_louvain_partitions_available():
    g = hanoi27()
    s = snap_uniform(g)
    adj = oracles.adjacency(g.edge_list, 27)
    rng = np.random.default_rng(99)
    for _ in range(50):
        size = int(rng.integers(1, 28))
        available = tuple(sorted(rng.choice(27, size=size, replace=False).tolist()))
        communities = louvain(s, available)
        seen = [q for c in communities for q in c]
        assert sorted(seen) == sorted(available)
        assert len(seen) == len(set(seen))
        for c in communities:
            assert oracles.is_connected(adj, c)


def louvain_cases():
    """Seeded louvain inputs: drifted hanoi27 snapshots on random available sets,
    then random graphs of 1-12 qubits with all-zero, 0-or-1 or uniform edge weights."""
    g = hanoi27()
    series = synth_drift(uniform_snapshot(g, 0.02, 0.02), 12, 0.30, 11)
    rng = np.random.default_rng(12)
    for row in range(12):
        snap = series.snapshot(row)
        for _ in range(8):
            size = int(rng.integers(1, 28))
            yield snap, tuple(rng.choice(27, size=size, replace=False).tolist())
    for _ in range(150):
        n = int(rng.integers(1, 13))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)).tolist()
        small = CouplingGraph(n, frozenset((u, v) for u, v in pairs if u != v))
        kind = int(rng.integers(3))  # all errors 1 (every weight 0), errors 0 or 1, uniform
        cnot = {
            e: (1.0, float(rng.integers(2)), float(rng.uniform()))[kind] for e in small.edge_list
        }
        snap = validate_snapshot(small, cnot, dict.fromkeys(range(n), 0.02))
        size = int(rng.integers(1, n + 1))
        yield snap, tuple(rng.choice(n, size=size, replace=False).tolist())


# sha256 of the repr of every louvain_cases() result, one per line
LOUVAIN_DIGEST = "60bcaf2b2371f9f18491102026310f8138a4bd5e2b90990fcd6ac27941edae02"


def test_louvain_outputs_are_pinned():
    text = "\n".join(repr(louvain(*case)) for case in louvain_cases())
    assert hashlib.sha256(text.encode()).hexdigest() == LOUVAIN_DIGEST


def test_cri_whole_hardware_is_one():
    g = hanoi27()
    assert cri(snap_uniform(g), tuple(range(27))) == pytest.approx(1.0, abs=1e-12)
    assert cri(FIX5_SNAP, (0, 1, 2, 3, 4)) == pytest.approx(1.0, abs=1e-12)


def test_cri_hand_value():
    # frozen from an independent evaluation of the formula on FIX5
    assert cri(FIX5_SNAP, (1, 2, 3)) == pytest.approx(1.8278008298755188, abs=1e-12)


def test_cri_monotone_in_edge_error():
    # lower an intra-subset edge and raise a non-intra edge by the same amount:
    # the hardware-wide denominator is unchanged, E_p strictly drops
    better = validate_snapshot(
        FIX5,
        {**FIX5_CNOT, (1, 2): 0.001, (3, 4): 0.04 + 0.019},
        FIX5_READOUT,
    )
    assert cri(better, (1, 2, 3)) > cri(FIX5_SNAP, (1, 2, 3))


def test_cri_disconnected_rejected():
    with pytest.raises(ValueError):
        cri(FIX5_SNAP, (0, 4))


def test_comdap_exact_size_branch():
    g = hanoi27()
    s = snap_uniform(g)
    communities = louvain(s, tuple(range(27)))
    for target in communities:
        req = AllocationRequest(len(target), tuple(range(27)))
        part = comdap_allocate(s, req)
        assert tuple(sorted(part.members)) in communities
        assert len(part.members) == len(target)
        break


def test_comdap_size_one():
    g = hanoi27()
    s = snap_uniform(g)
    part = comdap_allocate(s, AllocationRequest(1, tuple(range(27))))
    assert len(part.members) == 1
    q = part.members[0]
    best = max(range(27), key=lambda x: (cfm(s, x), -x))
    assert cfm(s, q) == pytest.approx(cfm(s, best))


def test_comdap_merged_allocation():
    g = hanoi27()
    s = snap_uniform(g)
    communities = louvain(s, tuple(range(27)))
    biggest = max(len(c) for c in communities)
    size = biggest + 3
    part = comdap_allocate(s, AllocationRequest(size, tuple(range(27))))
    assert len(part.members) == size
    adj = oracles.adjacency(g.edge_list, 27)
    assert oracles.is_connected(adj, part.members)


def test_comdap_exact_extraction_matches_brute_force(monkeypatch):
    g = CouplingGraph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)}))
    rng = np.random.default_rng(3)
    s = validate_snapshot(
        g,
        {e: float(rng.uniform(0.005, 0.08)) for e in g.edge_list},
        {q: float(rng.uniform(0.005, 0.08)) for q in range(6)},
    )
    adj = oracles.adjacency(g.edge_list, 6)

    # comdap with its greedy extraction swapped for the exhaustive one
    def exhaustive(snap, pool, size):
        return oracles.best_connected_subset(adj, pool, size, lambda sub: cri(snap, sub))

    monkeypatch.setattr("mtqsim.allocation._expand_densest", exhaustive)
    for size in (2, 3, 4, 5):
        part = comdap_allocate(s, AllocationRequest(size, tuple(range(6))))
        best = max(
            oracles.connected_subsets(adj, range(6), size),
            key=lambda sub: cri(s, sub),
        )
        assert cri(s, part.members) == pytest.approx(cri(s, best), abs=1e-12)


def test_allocators_valid_on_seeded_instances():
    g = hanoi27()
    adj = oracles.adjacency(g.edge_list, 27)
    rng = np.random.default_rng(2718)
    for trial in range(300):
        cnot = {e: float(rng.uniform(0.001, 0.2)) for e in g.edge_list}
        read = {q: float(rng.uniform(0.001, 0.2)) for q in range(27)}
        s = validate_snapshot(g, cnot, read)
        n_avail = int(rng.integers(2, 28))
        available = tuple(sorted(rng.choice(27, size=n_avail, replace=False).tolist()))
        size = int(rng.integers(1, n_avail + 1))
        req = AllocationRequest(size, available)
        for name in ("greedy", "comdap"):
            part = get_allocator(name)(s, req)
            if part is None:
                continue
            assert len(part.members) == size
            assert set(part.members) <= set(available)
            assert oracles.is_connected(adj, part.members)


def test_comdap_succeeds_when_region_exists():
    """Failure is allowed only when no connected available region is big enough."""
    g = hanoi27()
    s = snap_uniform(g)
    adj = oracles.adjacency(g.edge_list, 27)
    rng = np.random.default_rng(777)
    for _ in range(100):
        n_avail = int(rng.integers(4, 28))
        available = tuple(sorted(rng.choice(27, size=n_avail, replace=False).tolist()))
        comps = []
        left = set(available)
        while left:
            start = next(iter(left))
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in left and y not in comp:
                        comp.add(y)
                        stack.append(y)
            left -= comp
            comps.append(comp)
        biggest = max(len(c) for c in comps)
        size = int(rng.integers(1, 28))
        part = (
            comdap_allocate(s, AllocationRequest(min(size, 27), available))
            if size <= len(available)
            else None
        )
        if size <= biggest:
            assert part is not None
        if part is not None:
            assert len(part.members) == min(size, 27)


def test_allocator_registry():
    assert get_allocator("greedy") is greedy_allocate
    with pytest.raises(Exception):
        get_allocator("magic")


def test_determinism():
    g = hanoi27()
    s = snap_uniform(g)
    req = AllocationRequest(6, tuple(range(27)))
    # a second snapshot of the same rates is scored afresh and answers the same
    for allocate in (greedy_allocate, comdap_allocate):
        assert allocate(s, req) == allocate(s, req) == allocate(snap_uniform(g), req)
    assert louvain(s, tuple(range(27))) == louvain(s, tuple(range(27)))


@st.composite
def allocation_case(draw):
    """A random graph and snapshot plus a request that fits its available set."""
    g, snap = draw(graph_and_snapshot())
    available = tuple(sorted(draw(st.sets(st.integers(0, g.qubit_count - 1), min_size=1))))
    size = draw(st.integers(1, len(available)))
    return g, snap, AllocationRequest(size, available)


PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(graph_and_sign_boundary_snapshot())
def test_cri_matches_the_oracle_or_is_undefined(case):
    """Where the device term is clear of 0, every connected subset's CRI is the
    oracle's; where it is 0 or below, every CRI raises. A second call gives the
    same outcome, so a remembered answer never stands in for a raise."""
    g, snap = case
    cnot = dict(zip(g.edge_list, snap.cnot_error[0].tolist()))
    readout = dict(enumerate(snap.readout_error[0].tolist()))
    term = oracles.cri_term(cnot, readout, range(g.qubit_count))
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    for _ in range(2):
        for q in range(g.qubit_count):
            assert cfm(snap, q) == pytest.approx(oracles.cfm(cnot, readout, q), abs=1e-12)
        for size in range(1, g.qubit_count + 1):
            for sub in oracles.connected_subsets(adj, range(g.qubit_count), size):
                if term > 0.01:
                    want = oracles.cri(cnot, readout, sub)
                    assert cri(snap, sub) == pytest.approx(want, rel=1e-12, abs=1e-12)
                elif term <= 0.0:
                    with pytest.raises(ValueError, match="not positive; CRI undefined$"):
                        cri(snap, sub)


@pytest.mark.parametrize("members", [(27,), (0, 27), (-1,)])
def test_cri_names_an_out_of_range_member(members):
    snap = uniform_snapshot(hanoi27(), 0.02, 0.02)
    with pytest.raises(ValueError, match="out of range for 27 qubits"):
        cri(snap, members)


@pytest.mark.parametrize("bad", [27, 99, -1])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("allocator", [greedy_allocate, comdap_allocate])
def test_allocators_name_an_out_of_range_available_qubit(allocator, size, bad):
    # -1 must not wrap round to the last qubit, nor 99 index past a table
    snap = uniform_snapshot(hanoi27(), 0.02, 0.02)
    for _ in range(2):  # a raise is never remembered as an answer
        with pytest.raises(ValueError, match=rf"^qubit index {bad} out of range for 27 qubits$"):
            allocator(snap, AllocationRequest(size, (0, 1, bad)))


@pytest.mark.parametrize("allocator", [greedy_allocate, comdap_allocate])
def test_a_device_with_an_isolated_qubit_has_no_cfm(allocator):
    # qubit 3 has no edge, so no qubit has a mean CNOT error: each request
    # raises what cfm raises for the first available qubit
    snap = uniform_snapshot(CouplingGraph(4, frozenset({(0, 1), (1, 2)})), 0.02, 0.02)
    for available, message in (
        ((3, 0), "qubit 3 is isolated; CFM undefined"),
        ((0, 3), "qubit 3 has no incident edges"),
        ((0, 2), "qubit 3 has no incident edges"),
    ):
        for _ in range(2):  # a raise is never remembered as an answer
            with pytest.raises(ValueError, match=rf"^{message}$"):
                allocator(snap, AllocationRequest(1, available))


def test_scores_are_remembered_per_snapshot():
    # two snapshots of one graph with different rates, scored alternately
    a, b = snap_uniform(FIX5, 0.01, 0.01), FIX5_SNAP
    cnot_a, readout_a = dict.fromkeys(FIX5.edge_list, 0.01), dict.fromkeys(range(5), 0.01)
    for _ in range(3):
        for snap, cnot, readout in ((a, cnot_a, readout_a), (b, FIX5_CNOT, FIX5_READOUT)):
            for q in range(5):
                assert cfm(snap, q) == pytest.approx(oracles.cfm(cnot, readout, q), abs=1e-12)
            want = oracles.cri(cnot, readout, (1, 2, 3))
            assert cri(snap, (1, 2, 3)) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert cri(b, (1, 2, 3)) != cri(a, (1, 2, 3))


def test_remembered_scores_do_not_keep_a_snapshot_alive():
    c = LogicalCircuit(3, (Op("cnot", (0, 2)), Op("cnot", (1, 2))))

    def score(snap):
        cfm(snap, 1)
        cri(snap, (1, 2, 3))
        comdap_allocate(snap, AllocationRequest(2, tuple(range(5))))  # runs louvain
        members = greedy_allocate(snap, AllocationRequest(3, tuple(range(5)))).members
        cost(c, initial_layout(c, members, snap), snap)  # reads both tables

    snap = uniform_snapshot(FIX5, 0.01, 0.01)
    score(snap)
    ref = weakref.ref(snap)
    del snap
    for _ in range(1000):
        score(uniform_snapshot(FIX5, 0.01, 0.01))
    gc.collect()
    assert ref() is None


@PROPERTY_SETTINGS
@given(g=connected_graph(), data=st.data())
def test_remembered_scores_equal_fresh_ones(g, data):
    """Two snapshots of one graph, scored with cold caches and then again,
    interleaved, with warm ones: CRI of a subset and of a reordered copy is
    the uncached arithmetic bit for bit, louvain answers a list as it does a
    tuple, and a sequence of comdap requests gives equal partitions."""
    everything = tuple(range(g.qubit_count))
    snaps = [data.draw(graph_and_snapshot(st.just(g)))[1] for _ in range(2)]
    assume(all(_cri_term(snap, everything) > 0.0 for snap in snaps))
    members = data.draw(connected_partition(g))
    subsets = (members, tuple(data.draw(st.permutations(members))))
    available = tuple(sorted(data.draw(st.sets(st.sampled_from(everything), min_size=1))))
    sizes = data.draw(st.lists(st.integers(1, g.qubit_count), min_size=1, max_size=4))

    def answers(snap):
        fresh = [_cri_term(snap, s) / _cri_term(snap, everything) for s in subsets]
        assert [cri(snap, s) for s in subsets] == fresh
        communities = louvain(snap, list(available))
        assert louvain(snap, available) == communities
        return communities, [comdap_allocate(snap, AllocationRequest(n, available)) for n in sizes]

    cold = []
    for snap in snaps:
        for remembered in (_device_cri_term, _subset_cri, _louvain):
            remembered.cache_clear()
        cold.append(answers(snap))
    for _ in range(2):
        assert [answers(snap) for snap in snaps] == cold


@PROPERTY_SETTINGS
@given(g=connected_graph(), data=st.data())
def test_remembered_tables_equal_fresh_ones(g, data):
    """Two snapshots, one on g and one on an equal graph built apart, placed,
    laid out and priced with cold tables and then again, interleaved, with
    warm ones: every greedy partition, layout and cost is the same bit for
    bit. The equal graphs share their path-table entries."""
    twin = CouplingGraph(g.qubit_count, frozenset(g.edges))
    assert twin == g and twin is not g
    snaps = [data.draw(graph_and_snapshot(st.just(h)))[1] for h in (g, twin)]
    everything = tuple(range(g.qubit_count))
    available = tuple(sorted(data.draw(st.sets(st.sampled_from(everything), min_size=1))))
    sizes = data.draw(st.lists(st.integers(1, g.qubit_count), min_size=1, max_size=4))
    circuits = {n: data.draw(circuit(n)) for n in {*sizes, g.qubit_count}}
    order = tuple(data.draw(st.permutations(everything)))  # a partition of every qubit

    def answers(snap):
        # the table is this snapshot's (-CFM, index) order, whatever else it has seen
        by_rank = sorted(everything, key=cfm_rank(snap).__getitem__)
        assert by_rank == sorted(everything, key=lambda q: (-cfm(snap, q), q))
        out = []
        for n in sizes:
            part = greedy_allocate(snap, AllocationRequest(n, available))
            if part is not None:
                layout = initial_layout(circuits[n], part.members, snap)
                part = part, layout, cost(circuits[n], layout, snap)
            out.append(part)
        c = circuits[g.qubit_count]
        out.append(cost(c, initial_layout(c, order, snap), snap))
        return out

    cold = []
    for snap in snaps:
        for remembered in (cfm_rank, _path_table):
            remembered.cache_clear()
        cold.append(answers(snap))
    for _ in range(2):
        assert [answers(snap) for snap in snaps] == cold


def test_a_zero_device_term_leaves_cri_undefined():
    # one edge, every rate 1: density/compactness 1 plus 1 - (1 + 1) is 0
    g = CouplingGraph(2, frozenset({(0, 1)}))
    snap = uniform_snapshot(g, 1.0, 1.0)
    for _ in range(2):  # a raise is never remembered as an answer
        with pytest.raises(
            ValueError, match=r"^the whole-device CRI term is 0\.0, not positive; CRI undefined$"
        ):
            cri(snap, (0, 1))
    with pytest.raises(ValueError, match="CRI undefined"):
        comdap_allocate(snap, AllocationRequest(2, (0, 1)))


def test_a_negative_device_term_leaves_cri_undefined():
    # a 4-qubit path whose mean error exceeds 1 + D/C: every CRI would flip sign,
    # so the pair with the lowest errors would score the worst
    g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    snap = validate_snapshot(
        g, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 0.5}, {0: 1.0, 1: 1.0, 2: 0.5, 3: 0.5}
    )
    for _ in range(2):  # a raise is never remembered as an answer
        with pytest.raises(ValueError, match=r"^the whole-device CRI term is -0\.0833"):
            cri(snap, (2, 3))
    with pytest.raises(ValueError, match="not positive; CRI undefined"):
        comdap_allocate(snap, AllocationRequest(2, (0, 1, 2, 3)))


@PROPERTY_SETTINGS
@given(allocation_case())
def test_allocators_return_connected_available_subsets(case):
    g, snap, req = case
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    for name in ("greedy", "comdap"):
        part = get_allocator(name)(snap, req)
        if part is not None:
            assert len(part.members) == req.size
            assert set(part.members) <= set(req.available)
            assert oracles.is_connected(adj, part.members)


@PROPERTY_SETTINGS
@given(allocation_case())
def test_comdap_fails_only_without_a_large_enough_region(case):
    g, snap, req = case
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    free = {q: adj[q] & set(req.available) for q in req.available}
    biggest = max(len(oracles.bfs_distances(free, q)) for q in req.available)
    part = comdap_allocate(snap, req)
    assert (part is None) == (biggest < req.size)


@PROPERTY_SETTINGS
@given(case=graph_and_series(), data=st.data())
def test_scores_match_the_oracles(case, data):
    """On any row of a random series: the CFM of every qubit and CRI of
    a connected subset agree with the documented formulas, and cost's PST of a
    circuit routed on that subset is the oracle's success product."""
    g, series = case
    row = data.draw(st.integers(0, len(series) - 1))
    snap = series.snapshot(row)
    cnot = dict(zip(g.edge_list, series.cnot_error[row].tolist()))
    readout = dict(enumerate(series.readout_error[row].tolist()))
    for q in range(g.qubit_count):
        assert cfm(snap, q) == pytest.approx(oracles.cfm(cnot, readout, q), abs=1e-12)
    # a device term near 0 turns rounding into large quotient errors, and one of 0
    # or below leaves CRI undefined (tested apart), so such rows are skipped
    assume(oracles.cri_term(cnot, readout, range(g.qubit_count)) > 0.01)
    members = data.draw(connected_partition(g))
    want = oracles.cri(cnot, readout, members)
    assert cri(snap, members) == pytest.approx(want, rel=1e-12, abs=1e-12)
    c = data.draw(circuit(len(members)))
    r = route(c, dict(enumerate(members)), g)
    pst = cost(c, dict(enumerate(members)), snap)[3]
    assert pst == oracles.success_product(r.physical_ops, cnot, readout)


@st.composite
def disconnected_case(draw):
    """Two connected graphs side by side, a snapshot, and a request that may not fit."""
    g, snap = draw(graph_and_snapshot(disconnected_graph()))
    available = tuple(sorted(draw(st.sets(st.integers(0, g.qubit_count - 1), min_size=1))))
    return g, snap, AllocationRequest(draw(st.integers(1, g.qubit_count)), available)


@PROPERTY_SETTINGS
@given(disconnected_case())
def test_allocators_on_a_disconnected_device(case):
    g, snap, req = case
    # comdap scores against the whole device, which has no CRI term
    if req.size <= len(req.available):
        with pytest.raises(ValueError, match="disconnected"):
            comdap_allocate(snap, req)
    else:
        assert comdap_allocate(snap, req) is None
    # greedy grows inside the attractor's connected piece of the free region:
    # it never reads the device term, so it answers where comdap raises
    part = greedy_allocate(snap, req)
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    free = {q: adj[q] & set(req.available) for q in req.available}
    attractor = min(req.available, key=lambda q: (-cfm(snap, q), q))
    piece = set(oracles.bfs_distances(free, attractor))
    if part is None:
        assert len(piece) < req.size
    else:
        assert len(part.members) == req.size
        assert set(part.members) <= piece
        assert oracles.is_connected(adj, part.members)


def test_greedy_never_reads_the_device_term():
    # two 3-qubit paths: the device is disconnected, so it has no CRI term
    g = CouplingGraph(6, frozenset({(0, 1), (1, 2), (3, 4), (4, 5)}))
    snap = snap_uniform(g)
    with pytest.raises(ValueError, match="disconnected"):
        cri(snap, (0, 1, 2))
    # a raise is not remembered, so greedy would raise too if it read the term
    part = greedy_allocate(snap, AllocationRequest(3, tuple(range(6))))
    assert part.members == (1, 0, 2)
    with pytest.raises(ValueError, match="disconnected"):
        cri(snap, (0, 1, 2))

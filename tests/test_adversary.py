import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import graph_and_series
from mtqsim.adversary import (
    MisreportPlan,
    apply_misreport,
    h1_plan,
    h2_plan,
    heuristic1_sigma_ranking,
    heuristic1_targets,
    heuristic2_selection,
    heuristic2_targets,
)
from mtqsim.calibration import uniform_snapshot, synth_drift
from mtqsim.topology import CouplingGraph, hanoi27

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
DEG3_POOL = [1, 7, 8, 12, 14, 18, 19, 25]


def test_h1_p3():
    assert heuristic1_targets(P3, 1) == [1]


def test_h1_hanoi_vs_oracle():
    g = hanoi27()
    ranking = oracles.sigma_ranking(g.edge_list, 27, DEG3_POOL)
    for n in (1, 2, 3, 8):
        assert heuristic1_targets(g, n) == ranking[:n]
    assert heuristic1_targets(g, 2) == [12, 14]
    assert heuristic1_targets(g, 3) == [12, 14, 8]


def test_h1_ranking_surfaced():
    g = hanoi27()
    ranking = heuristic1_sigma_ranking(g)
    assert [q for q, _ in ranking] == oracles.sigma_ranking(g.edge_list, 27, DEG3_POOL)
    sigmas = [s for _, s in ranking]
    assert sigmas == sorted(sigmas)


def test_h1_n_too_large():
    with pytest.raises(ValueError):
        heuristic1_targets(hanoi27(), 9)


def test_h2_hanoi():
    g = hanoi27()
    assert heuristic2_targets(g, 3) == [1, 25, 14]
    assert heuristic2_targets(g, 1) == [1]
    assert heuristic2_targets(g, 2) == [1, 25]


def test_h2_on_a_disconnected_device():
    two_paths = CouplingGraph(6, frozenset({(0, 1), (1, 2), (3, 4), (4, 5)}))  # pool {1, 4}
    assert heuristic2_targets(two_paths, 1) == [1]
    with pytest.raises(ValueError, match="connected"):
        heuristic2_targets(two_paths, 2)
    # a second component holding no maximum-degree qubit leaves the choice as it was
    stars = CouplingGraph(9, frozenset({(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (6, 7), (7, 8)}))
    assert heuristic2_selection(stars, 2) == [(0, ()), (3, (1,))]


def test_h2_vs_oracle_chain():
    g = hanoi27()
    for n in (1, 2, 3, 5, 8):
        assert heuristic2_targets(g, n) == oracles.maxmin_chain(g.edge_list, 27, DEG3_POOL, n)


def test_h2_maxmin_property():
    """Each pick's min-distance to its predecessors is maximal over the pool."""
    g = hanoi27()
    d = oracles.floyd_warshall(g.edge_list, 27)
    sel = heuristic2_targets(g, 8)
    assert sorted(sel) == DEG3_POOL
    for i in range(1, len(sel)):
        mine = min(d[sel[i]][s] for s in sel[:i])
        best = max(min(d[q][s] for s in sel[:i]) for q in DEG3_POOL if q not in sel[:i])
        assert mine == best


def test_h2_selection_profiles():
    g = hanoi27()
    d = oracles.floyd_warshall(g.edge_list, 27)
    selection = heuristic2_selection(g, 8)
    assert [q for q, _ in selection] == heuristic2_targets(g, 8)
    assert selection[:3] == [(1, ()), (25, (10,)), (14, (6, 4))]
    for i, (q, profile) in enumerate(selection):
        assert profile == tuple(d[q][s] for s, _ in selection[:i])


def test_plan_validation():
    with pytest.raises(ValueError):
        MisreportPlan("H1", ((12, -0.15), (14, 0.15)))  # H1 must over-report
    with pytest.raises(ValueError):
        MisreportPlan("H2", ((1, -0.15), (25, -0.15)))  # magnitudes must strictly decrease
    with pytest.raises(ValueError):
        MisreportPlan("H1", ((12, 0.15), (12, 0.15)))  # duplicate target
    plan = MisreportPlan("H2", ((1, -0.15), (25, -0.12), (14, -0.10)))
    assert tuple(q for q, _ in plan.targets) == (1, 25, 14)


def test_plan_builders():
    g = hanoi27()
    p1 = h1_plan(g, 3, 0.15)
    assert p1.heuristic == "H1"
    assert tuple(q for q, _ in p1.targets) == (12, 14, 8)
    assert all(d == pytest.approx(0.15) for _, d in p1.targets)
    p2 = h2_plan(g, [0.15, 0.12, 0.10])
    assert p2.heuristic == "H2"
    assert tuple(q for q, _ in p2.targets) == (1, 25, 14)
    assert [d for _, d in p2.targets] == pytest.approx([-0.15, -0.12, -0.10])


def test_apply_misreport_arithmetic():
    g = hanoi27()
    true = uniform_snapshot(g, 0.02, 0.02)
    plan = MisreportPlan("H1", ((12, 0.15),))
    reported = apply_misreport(true, plan)
    for e, v in zip(g.edge_list, reported.cnot_error[0].tolist()):
        if 12 in e:
            assert v == pytest.approx(0.023, abs=1e-15)
        else:
            assert v == 0.02
    assert (reported.readout_error == true.readout_error).all()
    # the input snapshot is untouched
    assert (true.cnot_error == 0.02).all()


def test_apply_misreport_clamps():
    true = uniform_snapshot(P3, 0.95, 0.0)
    reported = apply_misreport(true, MisreportPlan("H1", ((1, 0.15),)))
    assert (reported.cnot_error == 1.0).all()


def test_apply_misreport_identity():
    true = uniform_snapshot(hanoi27(), 0.02, 0.02)
    assert apply_misreport(true, None) is true


def test_doubly_targeted_edge_takes_larger_delta():
    g = CouplingGraph(2, frozenset({(0, 1)}))
    true = uniform_snapshot(g, 0.10, 0.0)
    plan = MisreportPlan("H2", ((0, -0.15), (1, -0.12)))
    reported = apply_misreport(true, plan)
    assert reported.cnot_error[0, 0] == pytest.approx(0.10 * 0.85, abs=1e-15)


def test_h_directions():
    g = hanoi27()
    true = uniform_snapshot(g, 0.02, 0.02)
    up = apply_misreport(true, h1_plan(g, 3, 0.15)).cnot_error[0]
    down = apply_misreport(true, h2_plan(g, [0.15, 0.12, 0.10])).cnot_error[0]
    t1 = {q for q, _ in h1_plan(g, 3, 0.15).targets}
    t2 = {q for q, _ in h2_plan(g, [0.15, 0.12, 0.10]).targets}
    for j, e in enumerate(g.edge_list):
        if set(e) & t1:
            assert up[j] > true.cnot_error[0, j]
        if set(e) & t2:
            assert down[j] < true.cnot_error[0, j]


def test_apply_misreport_series_window():
    g = hanoi27()
    base = uniform_snapshot(g, 0.02, 0.02)
    series = synth_drift(base, 10, 0.2, 5)
    plan = h1_plan(g, 3, 0.15)
    attacked = apply_misreport(series, plan, (6, 10))
    for cycle, before, after in zip(series.cycle_ids, series.cnot_error, attacked.cnot_error):
        assert (after != before).any() == (6 <= cycle < 10)
    whole = apply_misreport(series, plan, (0, 10)).cnot_error
    assert (apply_misreport(series, plan).cnot_error == whole).all()


@st.composite
def plans(draw, g):
    """An H1 or H2 plan over distinct qubits of g, magnitudes in [0.01, 2]."""
    qubits = draw(st.lists(st.integers(0, g.qubit_count - 1), min_size=1, unique=True))
    mags = draw(st.lists(st.floats(0.01, 2.0), min_size=len(qubits), max_size=len(qubits), unique=True))
    mags.sort(reverse=True)
    if draw(st.booleans()):
        return MisreportPlan("H1", tuple(zip(qubits, mags)))
    return MisreportPlan("H2", tuple((q, -m) for q, m in zip(qubits, mags)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=graph_and_series(), data=st.data())
def test_apply_misreport_series_matches_per_snapshot(case, data):
    """Each row in the window equals the documented rule applied to that cycle's
    rates alone, for windows that cover some, all or none of the cycles."""
    g, series = case
    plan = data.draw(plans(g))
    lo, hi = data.draw(st.integers(-2, 22)), data.draw(st.integers(-2, 22))
    cnot_before, readout_before = series.cnot_error.copy(), series.readout_error.copy()
    got = apply_misreport(series, plan, (lo, hi))
    want = [
        oracles.misreported_rates(g.edge_list, row, plan.targets) if lo <= c < hi else row
        for c, row in zip(series.cycle_ids, series.cnot_error.tolist())
    ]
    assert got.cycle_ids == series.cycle_ids
    assert got.cnot_error.tolist() == want
    # bit for bit, so a -0.0 in place of 0.0 would show
    assert got.cnot_error.tobytes() == np.array(want, dtype=float).tobytes()
    assert (got.readout_error == series.readout_error).all()
    assert (series.cnot_error == cnot_before).all()
    assert (series.readout_error == readout_before).all()

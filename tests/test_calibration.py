import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mtqsim.calibration import (
    CalibrationSeries,
    CalibrationSnapshot,
    avg_cnot_error,
    fluctuation_percent,
    load_calibration_csv,
    synth_drift,
    uniform_snapshot,
    validate_snapshot,
    write_calibration_csv,
)
from mtqsim.errors import DataError
from mtqsim.topology import CouplingGraph, hanoi27

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))


def snap(cycle, cnot, readout):
    return CalibrationSnapshot(cycle, dict(cnot), dict(readout))


def test_validate_snapshot():
    good = snap(0, {(0, 1): 0.01, (1, 2): 0.02}, {0: 0.0, 1: 0.5, 2: 1.0})
    validate_snapshot(good, P3)
    missing_edge = snap(0, {(0, 1): 0.01}, {0: 0.0, 1: 0.5, 2: 1.0})
    with pytest.raises(Exception):
        validate_snapshot(missing_edge, P3)
    out_of_range = snap(0, {(0, 1): 1.01, (1, 2): 0.02}, {0: 0.0, 1: 0.5, 2: 1.0})
    with pytest.raises(Exception):
        validate_snapshot(out_of_range, P3)


def test_avg_cnot_error():
    g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (1, 3)}))
    s = snap(0, {(0, 1): 0.01, (1, 2): 0.02, (1, 3): 0.03}, {q: 0.0 for q in range(4)})
    assert avg_cnot_error(s, g, 1) == pytest.approx(0.02, abs=1e-15)
    assert avg_cnot_error(s, g, 0) == pytest.approx(0.01, abs=1e-15)
    u = uniform_snapshot(hanoi27(), 0.05, 0.0)
    for q in range(27):
        assert avg_cnot_error(u, hanoi27(), q) == pytest.approx(0.05, abs=1e-15)


def test_series_monotonic_cycles():
    a = snap(0, {(0, 1): 0.01, (1, 2): 0.02}, {0: 0.1, 1: 0.1, 2: 0.1})
    b = snap(0, {(0, 1): 0.01, (1, 2): 0.02}, {0: 0.1, 1: 0.1, 2: 0.1})
    with pytest.raises(Exception):
        CalibrationSeries.from_snapshots(P3, (a, b))


def test_cycle_slice_half_open():
    base = uniform_snapshot(P3, 0.02, 0.02)
    series = synth_drift(base, P3, 6, 0.1, 7)
    rows = series.cycle_slice(1, 4)
    assert series.cycle_ids[rows] == (1, 2, 3)


def test_synth_drift_deterministic():
    base = uniform_snapshot(P3, 0.02, 0.02)
    s1 = synth_drift(base, P3, 5, 0.3, 42)
    s2 = synth_drift(base, P3, 5, 0.3, 42)
    assert write_calibration_csv(s1) == write_calibration_csv(s2)
    s3 = synth_drift(base, P3, 5, 0.3, 43)
    assert write_calibration_csv(s1) != write_calibration_csv(s3)


def test_synth_drift_zero_cv_limit():
    base = uniform_snapshot(P3, 0.02, 0.02)
    series = synth_drift(base, P3, 4, 1e-12, 1)
    for s in series:
        for e, v in s.cnot_error.items():
            assert v == pytest.approx(0.02, abs=1e-9)


def test_synth_drift_bounds_and_readout_held():
    base = uniform_snapshot(P3, 0.9, 0.07)
    series = synth_drift(base, P3, 50, 1.4, 3)
    for s in series:
        for v in s.cnot_error.values():
            assert 0.0 <= v <= 1.0
        assert s.readout_error == base.readout_error


def test_synth_drift_matches_docstring():
    """One draw per (cycle, edge), cycle by cycle, edges in sorted order."""
    g = hanoi27()
    cnot = {e: 0.01 * (1 + j % 7) for j, e in enumerate(g.edge_list)}
    base = CalibrationSnapshot(0, cnot, {q: 0.03 for q in range(27)})
    series = synth_drift(base, g, 30, 1.4, 5)
    s = math.sqrt(math.log(1.0 + 1.4 * 1.4))
    rng = np.random.default_rng(5)
    base_vals = np.array([cnot[e] for e in g.edge_list])
    expected = [
        np.clip(base_vals * np.exp(s * rng.standard_normal(len(g.edge_list))), 0.0, 1.0)
        for _ in range(30)
    ]
    assert np.array_equal(series.cnot_error, np.array(expected))
    assert series.cycle_ids == tuple(range(30))
    assert (series.readout_error == 0.03).all()


def test_synth_drift_cv_validation():
    base = uniform_snapshot(P3, 0.02, 0.02)
    with pytest.raises(Exception):
        synth_drift(base, P3, 4, 1.5, 1)
    with pytest.raises(Exception):
        synth_drift(base, P3, 4, -0.1, 1)


def test_synth_drift_empirical_cv():
    """Pooled per-edge coefficient of variation lands near the requested cv."""
    base = uniform_snapshot(P3, 0.02, 0.02)
    pooled = {e: [] for e in P3.edge_list}
    for seed in range(1000):
        series = synth_drift(base, P3, 14, 0.30, seed)
        for s in series:
            for e, v in s.cnot_error.items():
                pooled[e].append(v)
    for e, vals in pooled.items():
        vals = np.asarray(vals)
        cv = vals.std() / vals.mean()
        assert 0.30 * 0.8 <= cv <= 0.30 * 1.2


def test_fluctuation_percent():
    a = snap(0, {(0, 1): 0.01, (1, 2): 0.01}, {0: 0.1, 1: 0.1, 2: 0.1})
    b = snap(1, {(0, 1): 0.03, (1, 2): 0.03}, {0: 0.1, 1: 0.1, 2: 0.1})
    series = CalibrationSeries.from_snapshots(P3, (a, b))
    assert fluctuation_percent(series, 1) == pytest.approx(50.0, abs=1e-9)
    const = CalibrationSeries.from_snapshots(
        P3, (a, snap(1, {(0, 1): 0.01, (1, 2): 0.01}, {0: 0.1, 1: 0.1, 2: 0.1}))
    )
    assert fluctuation_percent(const, 0) == 0.0


def test_fluctuation_tracks_cv():
    """Per-qubit fluctuation reflects the drift cv at 14 cycles.

    The per-qubit statistic is the cv of the qubit's cycle-by-cycle mean
    incident error, so a degree-d qubit sees the raw edge cv shrunk by about
    sqrt(d). Degree-1 qubits recover the injected 30% (plus sampling noise);
    the across-qubit mean on this fixture sits near 21%. Bands below come
    from a 200-seed Monte Carlo of the same statistic.
    """
    g = hanoi27()
    base = uniform_snapshot(g, 0.02, 0.02)
    deg1 = [q for q in range(27) if sum(1 for e in g.edge_list if q in e) == 1]
    d1_vals = []
    q_means = []
    for seed in (11, 12, 13, 14, 15):
        series = synth_drift(base, g, 14, 0.30, seed)
        percents = [fluctuation_percent(series, q) for q in range(27)]
        q_means.append(np.mean(percents))
        d1_vals.extend(percents[q] for q in deg1)
    assert 20.0 <= np.mean(d1_vals) <= 40.0
    assert 17.0 <= np.mean(q_means) <= 26.0


def test_csv_round_trip():
    g = hanoi27()
    base = uniform_snapshot(g, 0.02, 0.02)
    series = synth_drift(base, g, 3, 0.3, 9)
    text = write_calibration_csv(series)
    assert text.splitlines()[0] == "cycle,kind,subject,value"
    again = load_calibration_csv(text, g)
    assert write_calibration_csv(again) == text
    for s1, s2 in zip(series, again):
        assert s1.cnot_error == s2.cnot_error
        assert s1.readout_error == s2.readout_error


def test_csv_errors_name_lines():
    g = P3
    with pytest.raises(DataError, match="no snapshots"):
        load_calibration_csv("cycle,kind,subject,value\n", g)
    bad_value = "cycle,kind,subject,value\n0,cnot,0-1,1.5\n0,cnot,1-2,0.1\n0,readout,0,0.1\n0,readout,1,0.1\n0,readout,2,0.1\n"
    with pytest.raises(DataError, match="line 2"):
        load_calibration_csv(bad_value, g)
    unknown_edge = "cycle,kind,subject,value\n0,cnot,0-2,0.1\n"
    with pytest.raises(DataError):
        load_calibration_csv(unknown_edge, g)


P3_CYCLE0 = "cycle,kind,subject,value\n0,cnot,0-1,0.1\n0,cnot,1-2,0.1\n0,readout,0,0.1\n0,readout,1,0.1\n"


def test_csv_rejects_duplicate_and_missing_rates():
    with pytest.raises(DataError, match="line 3: duplicate cnot"):
        load_calibration_csv(P3_CYCLE0.replace("1-2", "0-1"), P3)
    with pytest.raises(DataError, match="line 6: duplicate readout"):
        load_calibration_csv(P3_CYCLE0 + "0,readout,1,0.2\n", P3)
    with pytest.raises(DataError, match="^cycle 0:"):
        load_calibration_csv(P3_CYCLE0, P3)  # qubit 2 has no readout rate
    assert len(load_calibration_csv(P3_CYCLE0 + "0,readout,2,0.1\n", P3)) == 1


@st.composite
def graph_and_series(draw):
    """A random connected graph and a random series over it."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    qubit = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(qubit, qubit), max_size=8)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = CouplingGraph(n, frozenset(edges))
    ids = tuple(sorted(draw(st.sets(st.integers(0, 500), min_size=1, max_size=6))))
    rate = st.floats(0.0, 1.0)

    def rows(width):
        return draw(st.lists(st.lists(rate, min_size=width, max_size=width),
                             min_size=len(ids), max_size=len(ids)))

    return g, CalibrationSeries(g, ids, rows(len(g.edge_list)), rows(n))


SERIES_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SERIES_SETTINGS
@given(graph_and_series())
def test_mean_cnot_error_is_avg_cnot_error(case):
    g, series = case
    for i, snapshot in enumerate(series):
        for q in range(g.qubit_count):
            assert series.mean_cnot_error[i, q] == avg_cnot_error(snapshot, g, q)


@SERIES_SETTINGS
@given(graph_and_series())
def test_from_snapshots_of_views_rebuilds_arrays(case):
    g, series = case
    again = CalibrationSeries.from_snapshots(g, series)
    assert again.cycle_ids == series.cycle_ids
    assert np.array_equal(again.cnot_error, series.cnot_error)
    assert np.array_equal(again.readout_error, series.readout_error)


@SERIES_SETTINGS
@given(graph_and_series())
def test_csv_round_trip_keeps_arrays(case):
    g, series = case
    again = load_calibration_csv(write_calibration_csv(series), g)
    assert again.cycle_ids == series.cycle_ids
    assert np.array_equal(again.cnot_error, series.cnot_error)
    assert np.array_equal(again.readout_error, series.readout_error)

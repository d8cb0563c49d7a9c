import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from mtqsim.calibration import (
    CalibrationSeries,
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


def test_validate_snapshot():
    good = validate_snapshot(P3, {(0, 1): 0.01, (1, 2): 0.02}, {0: 0.0, 1: 0.5, 2: 1.0})
    assert good.cycle_ids == (0,)
    assert good.cnot_error.tolist() == [[0.01, 0.02]]
    assert good.readout_error.tolist() == [[0.0, 0.5, 1.0]]
    with pytest.raises(ValueError, match=r"cycle 0: cnot_error must cover .*missing \[\(1, 2\)\]"):
        validate_snapshot(P3, {(0, 1): 0.01}, {0: 0.0, 1: 0.5, 2: 1.0})
    with pytest.raises(ValueError, match="readout_error must cover every qubit"):
        validate_snapshot(P3, {(0, 1): 0.01, (1, 2): 0.02}, {0: 0.0, 1: 0.5})
    with pytest.raises(ValueError, match=r"cnot_error\(0, 1\) = 1.01 outside"):
        validate_snapshot(P3, {(0, 1): 1.01, (1, 2): 0.02}, {0: 0.0, 1: 0.5, 2: 1.0})


def test_avg_cnot_error():
    g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (1, 3)}))
    cnot = {(0, 1): 0.01, (1, 2): 0.02, (1, 3): 0.03}
    s = validate_snapshot(g, cnot, dict.fromkeys(range(4), 0.0))
    assert avg_cnot_error(s, 1)[0] == pytest.approx(0.02, abs=1e-15)
    assert avg_cnot_error(s, 0)[0] == pytest.approx(0.01, abs=1e-15)
    u = uniform_snapshot(hanoi27(), 0.05, 0.0)
    for q in range(27):
        assert avg_cnot_error(u, q)[0] == pytest.approx(0.05, abs=1e-15)
    isolated = uniform_snapshot(CouplingGraph(4, frozenset({(0, 1), (1, 2)})), 0.1, 0.1)
    with pytest.raises(ValueError, match="qubit 3 has no incident edges"):
        avg_cnot_error(isolated, 3)
    with pytest.raises(ValueError, match="qubit 3 has no incident edges"):
        isolated.mean_cnot_error


def test_series_monotonic_cycles():
    rows = [[0.01, 0.02]] * 2, [[0.1] * 3] * 2
    with pytest.raises(ValueError, match="strictly increase"):
        CalibrationSeries(P3, (0, 0), *rows)
    with pytest.raises(ValueError, match="cycle_id must be non-negative, got -1"):
        CalibrationSeries(P3, (-1, 0), *rows)
    with pytest.raises(ValueError, match="outside"):
        CalibrationSeries(P3, (0, 1), [[0.01, 0.02], [0.01, 1.5]], rows[1])


def test_cycle_slice_half_open():
    base = uniform_snapshot(P3, 0.02, 0.02)
    series = synth_drift(base, 6, 0.1, 7)
    rows = series.cycle_slice(1, 4)
    assert series.cycle_ids[rows] == (1, 2, 3)


def test_synth_drift_deterministic():
    base = uniform_snapshot(P3, 0.02, 0.02)
    s1 = synth_drift(base, 5, 0.3, 42)
    s2 = synth_drift(base, 5, 0.3, 42)
    assert write_calibration_csv(s1) == write_calibration_csv(s2)
    s3 = synth_drift(base, 5, 0.3, 43)
    assert write_calibration_csv(s1) != write_calibration_csv(s3)


def test_synth_drift_zero_cv_limit():
    base = uniform_snapshot(P3, 0.02, 0.02)
    series = synth_drift(base, 4, 1e-12, 1)
    assert series.cnot_error == pytest.approx(np.full((4, 2), 0.02), abs=1e-9)


def test_synth_drift_bounds_and_readout_held():
    base = uniform_snapshot(P3, 0.9, 0.07)
    series = synth_drift(base, 50, 1.4, 3)
    assert ((series.cnot_error >= 0.0) & (series.cnot_error <= 1.0)).all()
    assert (series.readout_error == base.readout_error).all()


def test_synth_drift_matches_docstring():
    """One draw per (cycle, edge), cycle by cycle, edges in sorted order."""
    g = hanoi27()
    cnot = {e: 0.01 * (1 + j % 7) for j, e in enumerate(g.edge_list)}
    base = validate_snapshot(g, cnot, {q: 0.03 for q in range(27)})
    series = synth_drift(base, 30, 1.4, 5)
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
        synth_drift(base, 4, 1.5, 1)
    with pytest.raises(Exception):
        synth_drift(base, 4, -0.1, 1)
    with pytest.raises(ValueError, match="base must be a snapshot"):
        synth_drift(synth_drift(base, 2, 0.1, 1), 4, 0.1, 1)


def test_synth_drift_empirical_cv():
    """Pooled per-edge coefficient of variation lands near the requested cv."""
    base = uniform_snapshot(P3, 0.02, 0.02)
    pooled = np.vstack([synth_drift(base, 14, 0.30, seed).cnot_error for seed in range(1000)])
    for vals in pooled.T:  # one edge's values
        cv = vals.std() / vals.mean()
        assert 0.30 * 0.8 <= cv <= 0.30 * 1.2


def test_fluctuation_percent():
    readout = [[0.1] * 3] * 2
    series = CalibrationSeries(P3, (0, 1), [[0.01, 0.01], [0.03, 0.03]], readout)
    assert fluctuation_percent(series, 1) == pytest.approx(50.0, abs=1e-9)
    const = CalibrationSeries(P3, (0, 1), [[0.01, 0.01], [0.01, 0.01]], readout)
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
        series = synth_drift(base, 14, 0.30, seed)
        percents = [fluctuation_percent(series, q) for q in range(27)]
        q_means.append(np.mean(percents))
        d1_vals.extend(percents[q] for q in deg1)
    assert 20.0 <= np.mean(d1_vals) <= 40.0
    assert 17.0 <= np.mean(q_means) <= 26.0


def test_csv_round_trip():
    g = hanoi27()
    base = uniform_snapshot(g, 0.02, 0.02)
    series = synth_drift(base, 3, 0.3, 9)
    text = write_calibration_csv(series)
    assert text.splitlines()[0] == "cycle,kind,subject,value"
    again = load_calibration_csv(text, g)
    assert write_calibration_csv(again) == text
    assert again.cycle_ids == series.cycle_ids
    assert np.array_equal(again.cnot_error, series.cnot_error)
    assert np.array_equal(again.readout_error, series.readout_error)


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
    """Both equal the oracle's incident mean of each cycle's rates exactly, and
    each row's snapshot gives that row."""
    g, series = case
    for i, rates in enumerate(series.cnot_error.tolist()):
        cnot = dict(zip(g.edge_list, rates))
        snapshot = series.snapshot(i)
        for q in range(g.qubit_count):
            want = oracles.incident_mean(cnot, q)
            assert series.mean_cnot_error[i, q] == want
            assert avg_cnot_error(series, q)[i] == want
            assert snapshot.mean_cnot_error[0, q] == want


@SERIES_SETTINGS
@given(graph_and_series())
def test_snapshot_rows_rebuild_arrays(case):
    g, series = case
    rows = [series.snapshot(i) for i in range(len(series))]
    assert all(len(row) == 1 and row.graph is g for row in rows)
    again = CalibrationSeries(
        g,
        tuple(row.cycle_ids[0] for row in rows),
        np.vstack([row.cnot_error for row in rows]),
        np.vstack([row.readout_error for row in rows]),
    )
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


PAD = st.text(alphabet=" \t\u00a0", max_size=3)  # whitespace that strip, int and float all skip
BAD_SUBJECTS = ["00-01", "1-0", "0-x", "0-1-2", "-1", "x", "", "07"]
BAD_VALUES = ["nan", "1.5", "-0.0", "1e-3", "1_0", "inf", "", "0x1"]


@st.composite
def corrupted_csv(draw):
    """A graph and a CSV that write_calibration_csv wrote for a series over it,
    after 0-5 random corruptions: whitespace around a field, blank lines, 3 or 5
    fields, odd subjects and kinds, a duplicated or dropped row, negative or
    out-of-order cycles, odd values."""
    g, series = draw(strategies.graph_and_series())
    n = g.qubit_count
    subject = st.one_of(
        st.sampled_from(BAD_SUBJECTS),
        st.integers(-1, n).map(str),
        st.integers(0, n).map(lambda q: f"{q:02d}"),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(lambda e: f"{e[0]}-{e[1]}"),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(lambda e: f"{e[0]:02d}-{e[1]:02d}"),
    )
    lines = write_calibration_csv(series).splitlines()
    for _ in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(
            ["pad", "blank", "fields", "subject", "kind", "duplicate", "drop", "cycle", "value"]
        ))
        if op == "blank":
            lines.insert(draw(st.integers(1, len(lines))), draw(PAD))
            continue
        if len(lines) == 1:
            continue
        i = draw(st.integers(1, len(lines) - 1))
        if op == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
            continue
        if op == "drop":
            del lines[i]
            continue
        fields = lines[i].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        if op == "pad":
            fields[k] = draw(PAD) + fields[k] + draw(PAD)
        elif op == "fields":
            if draw(st.booleans()):
                del fields[k]
            else:
                fields.insert(k, draw(st.sampled_from(["", "0", "cnot"])))
        elif len(fields) == 4:
            if op == "subject":
                fields[2] = draw(subject)
            elif op == "kind":
                fields[1] = draw(st.sampled_from(["cnot", "readout", "CNOT", "cnot "]))
            elif op == "cycle":
                fields[0] = draw(st.sampled_from(["-1", "x", " 1 ", "01"]) | st.integers(0, 25).map(str))
            else:
                fields[3] = draw(st.sampled_from(BAD_VALUES))
        lines[i] = ",".join(fields)
    return g, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corrupted_csv())
def test_csv_loader_matches_line_by_line_reference(case):
    """The loader gives the reference's arrays, or a DataError with its text."""
    g, text = case
    try:
        ids, cnot, readout = oracles.load_calibration_rows(text, g.edge_list, g.qubit_count)
    except ValueError as e:
        with pytest.raises(DataError) as got:
            load_calibration_csv(text, g)
        assert str(got.value) == str(e)
        return
    series = load_calibration_csv(text, g)
    assert series.cycle_ids == tuple(ids)
    assert np.array_equal(series.cnot_error, cnot)
    assert np.array_equal(series.readout_error, readout)

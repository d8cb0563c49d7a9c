import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from mtqsim.adversary import MisreportPlan, apply_misreport, h1_plan
from mtqsim.calibration import CalibrationSeries, synth_drift, uniform_snapshot
from mtqsim.defense import (
    DEFAULT_PERCENTILE,
    MAX_BINS,
    calibrate_threshold,
    detect,
    divergences,
    naive_threshold_flags,
    qubit_divergence,
)
from mtqsim.topology import CouplingGraph, hanoi27

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
ONE_EDGE = CouplingGraph(2, frozenset({(0, 1)}))


def one_edge_series(rates):
    """A series on one edge whose CNOT error at cycle i is rates[i], so each
    qubit's samples are rates."""
    n = len(rates)
    return CalibrationSeries(ONE_EDGE, tuple(range(n)), [[float(r)] for r in rates], [[0.0, 0.0]] * n)


def test_build_distribution_examples():
    d = oracles.build_distribution([0.1, 0.15, 0.12], [0.0, 0.2, 0.4], 0.0)
    assert list(d.probabilities) == [1.0, 0.0]
    u = oracles.build_distribution([0.05, 0.15, 0.25, 0.35], [0.0, 0.1, 0.2, 0.3, 0.4], 0.0)
    assert list(u.probabilities) == pytest.approx([0.25] * 4)
    s = oracles.build_distribution([0.1], [0.0, 0.2, 0.4, 0.6], 1e-6)
    assert all(p > 0 for p in s.probabilities)
    assert sum(s.probabilities) == pytest.approx(1.0, abs=1e-9)


def test_build_distribution_errors():
    with pytest.raises(Exception):
        oracles.build_distribution([0.5], [0.0, 0.2], 0.0)  # sample outside range
    with pytest.raises(Exception):
        oracles.build_distribution([0.1], [0.0], 0.0)  # fewer than 2 edges
    with pytest.raises(Exception):
        oracles.build_distribution([], [0.0, 1.0], 0.0)


def test_kl_worked_example():
    # window 1 holds P's samples and window 2 Q's; two bins split [0.1, 0.3]
    series = one_edge_series([0.1, 0.3, 0.1, 0.3, 0.3, 0.3])
    (d,) = set(divergences(series, (0, 2), (2, 6), bins=2, eps=0.0))
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert d == pytest.approx(expected, abs=1e-6)
    assert d == pytest.approx(0.1438, abs=5e-4)
    assert divergences(one_edge_series([0.1, 0.3] * 2), (0, 2), (2, 4), 2, 0.0) == [0.0, 0.0]
    # asymmetry
    (reverse,) = set(divergences(series, (2, 6), (0, 2), bins=2, eps=0.0))
    assert reverse != pytest.approx(d, abs=1e-6)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.uniform(0, 1, size=12)
        b = rng.uniform(0, 1, size=12)
        for d in divergences(one_edge_series([*a, *b]), (0, 12), (12, 24), 4, 1e-9):
            assert d >= 0.0
        for d in divergences(one_edge_series([*a, *a]), (0, 12), (12, 24), 4, 1e-9):
            assert d <= 1e-9
    with pytest.raises(Exception):
        oracles.kl_divergence(
            oracles.build_distribution([0.1], [0.0, 1.0], 1e-9),
            oracles.build_distribution([0.1], [0.0, 0.5, 1.0], 1e-9),
        )


def test_detect_identical_windows_all_zero(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    drift = synth_drift(base, 5, 0.3, 21)
    # duplicate the five drifted cycles so both windows hold identical values
    twice = [np.vstack([rates] * 2) for rates in (drift.cnot_error, drift.readout_error)]
    series = CalibrationSeries(hanoi, tuple(range(10)), *twice)
    verdict = detect(series, (0, 5), (5, 10), bins=5, eps=1e-9, tau=0.0)
    assert all(d == pytest.approx(0.0, abs=1e-9) for d in verdict.divergence.values())
    assert verdict.flagged == frozenset()


def test_detect_constant_series_zero(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    series = synth_drift(base, 10, 1e-12, 3)
    verdict = detect(series, (0, 5), (5, 10), bins=5, eps=1e-9, tau=0.0)
    assert all(d == 0.0 for d in verdict.divergence.values())


# eps values refused before any rate is read, with the message each gets at
# bins 3: 1e-320 and 5e-309 leave a full-over-empty ratio that overflows, and
# 1e308 and 6e307 overflow 1 + eps*3
EPS_REJECTED = [(eps, "eps must be finite and non-negative") for eps in (math.nan, -5.0, math.inf)]
EPS_REJECTED += [
    (eps, f"eps {eps} with bins 3 smooths to a divergence that is not finite")
    for eps in (1e-320, 5e-309, 1e308, 6e307)
]


@pytest.mark.parametrize("eps, message", EPS_REJECTED, ids=[str(eps) for eps, _ in EPS_REJECTED])
def test_qubit_divergence_checks_eps_on_a_constant_series(hanoi, eps, message):
    series = synth_drift(uniform_snapshot(hanoi, 0.02, 0.02), 14, 0.0, 1)
    assert qubit_divergence(series, 0, (0, 7), (7, 14), bins=3, eps=0.1) == 0.0
    with pytest.raises(ValueError, match=re.escape(message)):
        qubit_divergence(series, 0, (0, 7), (7, 14), bins=3, eps=eps)


@pytest.mark.parametrize("eps, message", EPS_REJECTED, ids=[str(eps) for eps, _ in EPS_REJECTED])
def test_detect_and_calibration_check_eps_on_a_constant_series(hanoi, eps, message):
    series = synth_drift(uniform_snapshot(hanoi, 0.02, 0.02), 14, 0.0, 1)
    runs = [series] * 30
    assert set(detect(series, (0, 7), (7, 14), bins=3, eps=0.1).divergence.values()) == {0.0}
    assert calibrate_threshold(runs, (0, 7), (7, 14), bins=3, eps=0.1) == 0.0
    with pytest.raises(ValueError, match=re.escape(message)):
        detect(series, (0, 7), (7, 14), bins=3, eps=eps)
    with pytest.raises(ValueError, match=re.escape(message)):
        calibrate_threshold(runs, (0, 7), (7, 14), bins=3, eps=eps)


@pytest.mark.parametrize("eps", [2.3e-308, 1e300])
def test_an_eps_that_smooths_gives_finite_divergences(eps):
    """The eps rule refuses no eps that smooths: near either end of the range
    every divergence stays finite."""
    series = synth_drift(uniform_snapshot(P3, 0.02, 0.02), 14, 0.3, 2)
    values = divergences(series, (0, 7), (7, 14), bins=3, eps=eps)
    assert all(math.isfinite(d) and d >= 0.0 for d in values)


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _reference(series, q, window1, window2, bins, eps):
    """The oracle's divergence of qubit q, from its column of the series."""
    errors = series.mean_cnot_error[:, q]
    rows1, rows2 = series.cycle_slice(*window1), series.cycle_slice(*window2)
    return oracles.window_divergence(errors[rows1], errors[rows2], bins, eps)


def _per_qubit(series, window1, window2, bins, eps):
    qubits = range(series.graph.qubit_count)
    return _outcome(lambda: [_reference(series, q, window1, window2, bins, eps) for q in qubits])


@st.composite
def drift_and_windows(draw):
    """A synth_drift series on a random connected graph, at cv 0, 1e-12 or
    any cv in [0, 1], and two disjoint windows of at least one cycle each.
    Half the series are rounded to eighths, so that samples sit on bin edges."""
    g, base = draw(strategies.graph_and_snapshot())
    cv = draw(st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.0, 1.0)))
    cycles = draw(st.integers(3, 40))
    series = synth_drift(base, cycles, cv, draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        eighths = np.round(series.cnot_error * 8) / 8
        series = CalibrationSeries(g, series.cycle_ids, eighths, series.readout_error)
    a, b, c, d = sorted(draw(st.lists(st.integers(0, cycles), min_size=4, max_size=4, unique=True)))
    windows = ((a, b), (c, d)) if draw(st.booleans()) else ((c, d), (a, b))
    return series, *windows


AUDIT_LIKE = (synth_drift(uniform_snapshot(hanoi27(), 0.02, 0.02), 420, 0.3, 1), (0, 336), (336, 420))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    case=drift_and_windows(),
    bins=st.integers(1, 50),
    eps=st.sampled_from([0.0, 1e-9, 0.1]),
)
@example(case=AUDIT_LIKE, bins=MAX_BINS, eps=1e-9)
def test_divergences_equal_the_per_qubit_reference(case, bins, eps):
    series, window1, window2 = case
    expected = _per_qubit(series, window1, window2, bins, eps)
    assert _outcome(lambda: divergences(series, window1, window2, bins, eps)) == expected
    for q in range(series.graph.qubit_count):
        expected = _outcome(lambda: _reference(series, q, window1, window2, bins, eps))
        assert _outcome(lambda: qubit_divergence(series, q, window1, window2, bins, eps)) == expected


def test_divergences_space_an_underflowing_step_apart():
    """linspace takes a subnormal rule for a whole array once one row's step
    underflows; the other rows must keep their own edges. Qubits 0 and 1 span
    [0.01, 0.04], whose own second edge is 0.02 (the subnormal rule gives
    0.019999999999999997, a window-2 sample), so with eps 0 qubit 0 fails on an
    empty Q bin before qubits 2 and 3, one subnormal step wide, fail on edges
    that repeat. Smoothed, only the repeated edges fail."""
    two_edges = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
    e01 = [0.01, 0.025, 0.04, 0.01, 0.019999999999999997, 0.04]
    e23 = [0.0, 5e-324, 0.0, 5e-324, 0.0, 5e-324]
    series = CalibrationSeries(two_edges, tuple(range(6)), list(zip(e01, e23)), [[0.0] * 4] * 6)
    for eps, message in ((0.0, "Q must be strictly positive"), (0.1, "bin edges must be strictly")):
        expected = _per_qubit(series, (0, 3), (3, 6), 3, eps)
        assert expected.startswith(f"ValueError: {message}")
        assert _outcome(lambda: divergences(series, (0, 3), (3, 6), 3, eps)) == expected


def test_one_qubit_is_scored_without_the_others():
    """qubit_divergence reads only its own qubit: at eps 0, qubit 0's equal
    windows score 0 while qubit 2's window 2 leaves a bin empty, which fails
    divergences over the whole series."""
    two_edges = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
    e01 = [0.01, 0.02, 0.03, 0.01, 0.02, 0.03]
    e23 = [0.01, 0.02, 0.03, 0.03, 0.03, 0.03]
    series = CalibrationSeries(two_edges, tuple(range(6)), list(zip(e01, e23)), [[0.0] * 4] * 6)
    empty_q_bin = re.escape("Q must be strictly positive everywhere (smooth it)")
    assert qubit_divergence(series, 0, (0, 3), (3, 6), 3, 0.0) == 0.0
    with pytest.raises(ValueError, match=empty_q_bin):
        divergences(series, (0, 3), (3, 6), 3, 0.0)
    with pytest.raises(ValueError, match=empty_q_bin):
        qubit_divergence(series, 2, (0, 3), (3, 6), 3, 0.0)


@pytest.mark.parametrize(
    "window1, window2, message",
    [
        ((0, 7), (20, 30), "window2 [20,30) covers no cycle of the series"),
        ((5, 2), (7, 14), "window1 [5,2) covers no cycle of the series"),
    ],
)
def test_an_empty_window_is_named_by_both_divergence_paths(hanoi, window1, window2, message):
    series = synth_drift(uniform_snapshot(hanoi, 0.02, 0.02), 14, 0.3, 7)
    with pytest.raises(ValueError, match=re.escape(message)):
        divergences(series, window1, window2)
    with pytest.raises(ValueError, match=re.escape(message)):
        qubit_divergence(series, 0, window1, window2)


def test_detect_window_validation(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    series = synth_drift(base, 10, 0.3, 3)
    with pytest.raises(ValueError):
        detect(series, (0, 2), (2, 10))  # too short
    with pytest.raises(ValueError):
        detect(series, (0, 6), (4, 10))  # overlap


def test_detect_order_free_within_window(hanoi):
    """Divergence only sees each window's value multiset, not cycle order."""
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    series = synth_drift(base, 14, 0.3, 17)
    order = [*reversed(range(7)), *range(7, 14)]
    series2 = CalibrationSeries(
        hanoi, series.cycle_ids, series.cnot_error[order], series.readout_error[order]
    )
    v1 = detect(series, (0, 7), (7, 14), bins=5, eps=1e-9, tau=0.0)
    v2 = detect(series2, (0, 7), (7, 14), bins=5, eps=1e-9, tau=0.0)
    for q in range(27):
        assert v1.divergence[q] == pytest.approx(v2.divergence[q], abs=1e-12)


def test_calibrate_threshold_examples(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    runs = [synth_drift(base, 14, 0.30, 3000 + i) for i in range(30)]
    tau95 = calibrate_threshold(runs, (0, 7), (7, 14), bins=5, eps=1e-9)
    pool = [
        qubit_divergence(s, q, (0, 7), (7, 14), bins=5, eps=1e-9)
        for s in runs
        for q in range(27)
    ]
    assert tau95 == pytest.approx(oracles.percentile_linear(pool, 95.0), abs=1e-12)
    tau100 = calibrate_threshold(
        runs, (0, 7), (7, 14), bins=5, eps=1e-9, percentile=100.0
    )
    assert tau100 == pytest.approx(max(pool), abs=1e-15)
    with pytest.raises(ValueError):
        calibrate_threshold(runs[:29], (0, 7), (7, 14))


def test_honest_false_positive_rate_near_design_point(hanoi):
    """tau at the 95th percentile flags about 5% of honest qubit-tests."""
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    cal = [synth_drift(base, 14, 0.30, 4000 + i) for i in range(40)]
    tau = calibrate_threshold(cal, (0, 7), (7, 14), bins=5, eps=1e-9)
    flagged = total = 0
    for t in range(40):
        s = synth_drift(base, 14, 0.30, 6000 + t)
        v = detect(s, (0, 7), (7, 14), bins=5, eps=1e-9, tau=tau)
        flagged += len(v.flagged)
        total += 27
    assert flagged / total <= 0.10


def test_detection_rate_monotone_in_shift(hanoi):
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    W = 28
    cal = [synth_drift(base, 2 * W, 0.30, 5000 + i) for i in range(40)]
    tau = calibrate_threshold(cal, (0, W), (W, 2 * W), bins=5, eps=0.05)
    rates = []
    for delta in (0.05, 0.10, 0.15):
        plan = MisreportPlan(
            "H1", ((12, delta), (14, delta * 0.99), (8, delta * 0.98))
        )
        hits = 0
        trials = 60
        for t in range(trials):
            s = synth_drift(base, 2 * W, 0.30, 9000 + t)
            att = apply_misreport(s, plan, (W, 2 * W))
            v = detect(att, (0, W), (W, 2 * W), bins=5, eps=0.05, tau=tau)
            hits += all(q in v.flagged for q in (12, 14, 8))
        rates.append(hits / trials)
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > rates[0]


def test_naive_threshold_detector_fails_on_honest_drift(hanoi):
    """Per-cycle +-15% bound checks fire on most qubits under 30% natural cv."""
    base = uniform_snapshot(hanoi, 0.02, 0.02)
    for seed in (1, 2, 3):
        series = synth_drift(base, 14, 0.30, seed)
        flagged = naive_threshold_flags(series, rel_bound=0.15)
        assert len(flagged) > 27 / 2

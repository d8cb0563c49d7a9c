"""Statistical misreport detection over calibration history.

The detector compares, per qubit, the distribution of its average incident
CNOT error across a historical window against a newly reported window. Both
windows are histogrammed on shared equal-width bins spanning their pooled
range, smoothed, and compared by KL divergence with the historical window as
the reference distribution. Qubits whose divergence exceeds a threshold
calibrated on honest runs are flagged.

matched_threshold calibrates that threshold on synthetic honest drift
matched to the historical window of the series under audit.

A naive alternative that just bounds per-cycle deviation is included because
it fails instructively: natural drift at a 30% coefficient of variation
blows through a 15% deviation bound on most qubits, so a bound tight enough
to catch a 15% misreport drowns in false alarms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .calibration import CalibrationSeries, fluctuation_percent, synth_drift

DEFAULT_BINS = 10
# the most bins a divergence may use; far more than any window has samples
MAX_BINS = 10**4
DEFAULT_EPS = 1e-9
DEFAULT_PERCENTILE = 95.0
MIN_WINDOW_CYCLES = 3
MIN_CALIBRATION_RUNS = 30
DEFAULT_CALIBRATION_RUNS = 60
CALIBRATION_SEED_BASE = 1000


@dataclass(frozen=True)
class ErrorDistribution:
    """A binned probability distribution over error values."""

    bin_edges: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probabilities) != len(self.bin_edges) - 1:
            raise ValueError("need exactly one probability per bin")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class DetectionVerdict:
    divergence: dict[int, float]
    tau: float
    flagged: frozenset[int]


def build_distribution(
    samples: Sequence[float], bin_edges: Sequence[float], eps: float
) -> ErrorDistribution:
    """Histogram samples on the given edges, normalize, smooth by eps, renormalize.

    With eps > 0 no bin probability is exactly zero, which keeps the
    distribution usable on the denominator side of a KL divergence.
    """
    edges = tuple(float(e) for e in bin_edges)
    if len(edges) < 2:
        raise ValueError("need at least 2 bin edges")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly ascending")
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    arr = np.asarray(samples, dtype=float)
    if arr.min() < edges[0] or arr.max() > edges[-1]:
        raise ValueError(
            f"samples outside bin range [{edges[0]}, {edges[-1]}]: "
            f"min {arr.min()}, max {arr.max()}"
        )
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    counts, _ = np.histogram(arr, bins=np.asarray(edges))
    probs = counts.astype(float) / counts.sum()
    if eps > 0:
        probs = (probs + eps) / (1.0 + eps * len(probs))
    return ErrorDistribution(edges, tuple(float(p) for p in probs))


def kl_divergence(p: ErrorDistribution, q: ErrorDistribution) -> float:
    """D(P || Q) = sum P ln(P/Q), natural log; zero-probability P bins contribute 0."""
    if p.bin_edges != q.bin_edges:
        raise ValueError("distributions must share bin edges")
    if any(qi <= 0.0 for qi in q.probabilities):
        raise ValueError("Q must be strictly positive everywhere (smooth it)")
    total = 0.0
    for pi, qi in zip(p.probabilities, q.probabilities):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


def _check_windows(
    series: CalibrationSeries, window1: tuple[int, int], window2: tuple[int, int]
) -> None:
    for name, (lo, hi) in (("window1", window1), ("window2", window2)):
        n = len(series.cycle_ids[series.cycle_slice(lo, hi)])
        if n < MIN_WINDOW_CYCLES:
            raise ValueError(
                f"{name} covers {n} cycles; need at least {MIN_WINDOW_CYCLES}"
            )
    lo1, hi1 = window1
    lo2, hi2 = window2
    if lo1 < hi2 and lo2 < hi1:
        raise ValueError(f"windows [{lo1},{hi1}) and [{lo2},{hi2}) overlap")


def qubit_divergence(
    series: CalibrationSeries,
    q: int,
    window1: tuple[int, int],
    window2: tuple[int, int],
    bins: int = DEFAULT_BINS,
    eps: float = DEFAULT_EPS,
) -> float:
    """KL divergence of one qubit's window-2 errors from its window-1 history.

    Bins are equal-width over the pooled min and max of both windows; there
    are 1 to MAX_BINS of them. A constant pooled series has no spread to
    bin; its divergence is 0.
    """
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be in [1, {MAX_BINS}], got {bins}")
    series.graph._check_index(q)
    errors = series.mean_cnot_error[:, q]
    s1 = errors[series.cycle_slice(*window1)]
    s2 = errors[series.cycle_slice(*window2)]
    lo = min(s1.min(), s2.min())
    hi = max(s1.max(), s2.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    d1 = build_distribution(s1, edges, eps)
    d2 = build_distribution(s2, edges, eps)
    return kl_divergence(d1, d2)


def detect(
    series: CalibrationSeries,
    window1: tuple[int, int],
    window2: tuple[int, int],
    bins: int = DEFAULT_BINS,
    eps: float = DEFAULT_EPS,
    tau: float = 0.0,
) -> DetectionVerdict:
    """Per-qubit divergence of the reported window from history; flag above tau.

    window1 is the historical reference, window2 the window under test; both
    are half-open [lo, hi) ranges over cycle ids, disjoint, each covering at
    least MIN_WINDOW_CYCLES cycles of the series. tau must be finite and
    non-negative.
    """
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    _check_windows(series, window1, window2)
    divergence = {
        q: qubit_divergence(series, q, window1, window2, bins, eps)
        for q in range(series.graph.qubit_count)
    }
    flagged = frozenset(q for q, d in divergence.items() if d > tau)
    return DetectionVerdict(divergence=divergence, tau=tau, flagged=flagged)


def calibrate_threshold(
    honest_runs: Iterable[CalibrationSeries],
    window1: tuple[int, int],
    window2: tuple[int, int],
    bins: int = DEFAULT_BINS,
    eps: float = DEFAULT_EPS,
    percentile: float = DEFAULT_PERCENTILE,
) -> float:
    """Pool per-qubit divergences over honest runs; return the given percentile.

    Requires at least MIN_CALIBRATION_RUNS runs so the pooled tail is
    populated. Uses linear interpolation between order statistics. Reads
    honest_runs once, so a generator keeps one run alive at a time.
    """
    if not (0.0 <= percentile <= 100.0):
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    pool: list[float] = []
    n_runs = 0
    for series in honest_runs:
        _check_windows(series, window1, window2)
        n_runs += 1
        for q in range(series.graph.qubit_count):
            pool.append(qubit_divergence(series, q, window1, window2, bins, eps))
    _check_runs(n_runs)
    return float(np.percentile(np.asarray(pool), percentile))


def _check_runs(runs: int) -> None:
    if runs < MIN_CALIBRATION_RUNS:
        raise ValueError(
            f"threshold calibration needs >= {MIN_CALIBRATION_RUNS} honest runs, got {runs}"
        )


def matched_threshold(
    series: CalibrationSeries,
    window1: tuple[int, int],
    window2: tuple[int, int],
    runs: int = DEFAULT_CALIBRATION_RUNS,
    cv: float | None = None,
    bins: int = DEFAULT_BINS,
    eps: float = DEFAULT_EPS,
    percentile: float = DEFAULT_PERCENTILE,
) -> tuple[float, float]:
    """Calibrate detect's tau for series on synthetic honest drift; return (tau, cv).

    Each run drifts (synth_drift) around a base whose CNOT error on every
    edge is that edge's mean over window1 and whose readout errors are
    window1's first cycle. cv, when None, is estimated as the mean over
    qubits of fluctuation_percent on window1, divided by 100. Run i uses seed
    CALIBRATION_SEED_BASE + i and spans window1's cycle count, then
    window2's. tau is calibrate_threshold over the runs.
    """
    _check_windows(series, window1, window2)
    _check_runs(runs)
    g = series.graph
    history = series.rows(series.cycle_slice(*window1))
    n1, n2 = len(history), len(series.cycle_ids[series.cycle_slice(*window2)])
    cnot = [sum(col) / n1 for col in history.cnot_error.T.tolist()]
    base = CalibrationSeries(g, (0,), [cnot], history.readout_error[:1])
    if cv is None:
        qubits = range(g.qubit_count)
        cv = sum(fluctuation_percent(history, q) for q in qubits) / (100.0 * len(qubits))
    honest_runs = (
        synth_drift(base, n1 + n2, cv, seed)
        for seed in range(CALIBRATION_SEED_BASE, CALIBRATION_SEED_BASE + runs)
    )
    tau = calibrate_threshold(
        honest_runs, (0, n1), (n1, n1 + n2), bins=bins, eps=eps, percentile=percentile
    )
    return tau, cv


def naive_threshold_flags(
    series: CalibrationSeries,
    rel_bound: float = 0.15,
) -> frozenset[int]:
    """Flag qubits whose per-cycle error ever strays more than rel_bound from
    their series mean.

    This is the bound check a misreport of size rel_bound would have to trip.
    Under realistic natural drift it flags most of the device, which is why
    the KL detector exists.
    """
    if len(series) < 2:
        raise ValueError("naive detector needs at least 2 cycles")
    flagged = set()
    for q in range(series.graph.qubit_count):
        vals = series.mean_cnot_error[:, q]
        m = float(np.mean(vals))
        if m == 0.0:
            continue
        if float(np.max(np.abs(vals - m))) / m > rel_bound:
            flagged.add(q)
    return frozenset(flagged)

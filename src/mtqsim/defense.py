"""Statistical misreport detection over calibration history.

The detector compares, per qubit, the distribution of its average incident
CNOT error across a historical window against a newly reported window. Both
windows are histogrammed on shared equal-width bins spanning their pooled
range, smoothed, and compared by KL divergence with the historical window as
the reference distribution. Qubits whose divergence exceeds a threshold
calibrated on honest runs are flagged.

divergences scores every qubit of a series in one pass over whole arrays,
and detect and calibrate_threshold call it once per series: each window is
sorted along cycles once, every qubit's edges come from one linspace, and
each qubit's bins are counted by one searchsorted of its inner edges. Only
the KL sums run in Python floats. qubit_divergence scores one qubit through
build_distribution and kl_divergence; it is the per-qubit reference that
divergences equals bit for bit, error messages included.

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


def _check_smoothing(bins: int, eps: float) -> None:
    """The one bins and eps rule of both divergence paths, read before any rate.

    eps 0 leaves an empty bin empty, which kl_divergence rejects on the Q
    side. A positive eps must keep 1 + eps*bins finite, and the largest ratio
    it can leave, a full P bin over an empty Q bin, finite, so that every
    divergence is finite.
    """
    if not 1 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be in [1, {MAX_BINS}], got {bins}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    if eps > 0:
        scale = 1.0 + eps * bins
        if not (math.isfinite(scale) and math.isfinite((1.0 + eps) / scale / (eps / scale))):
            raise ValueError(
                f"eps {eps} with bins {bins} smooths to a divergence that is not finite; "
                f"use 0 or an eps that keeps 1 + eps*bins and 1/eps finite"
            )


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
    _check_smoothing(bins, eps)
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


def divergences(
    series: CalibrationSeries,
    window1: tuple[int, int],
    window2: tuple[int, int],
    bins: int = DEFAULT_BINS,
    eps: float = DEFAULT_EPS,
) -> list[float]:
    """qubit_divergence of every qubit, in qubit order, from whole arrays.

    Equal bit for bit to one qubit_divergence call per qubit, and raises what
    the first failing qubit would. Each window is sorted along cycles once,
    and each qubit's bins are counted by one searchsorted of its inner edges,
    which gives np.histogram's counts, a sample equal to the top edge
    included. Only the KL sums run in Python floats, in bin order.
    """
    _check_smoothing(bins, eps)
    errors = series.mean_cnot_error.T  # one contiguous row per qubit
    s1 = np.sort(errors[:, series.cycle_slice(*window1)])
    s2 = np.sort(errors[:, series.cycle_slice(*window2)])
    lo = np.minimum(s1[:, 0], s2[:, 0])
    hi = np.maximum(s1[:, -1], s2[:, -1])
    varying = np.flatnonzero(hi > lo)  # a constant qubit's divergence is 0
    edges = _bin_edges(lo[varying], hi[varying], bins)
    p = _smoothed(s1[varying], edges, eps)
    q = _smoothed(s2[varying], edges, eps)
    ragged = (np.diff(edges) <= 0).any(axis=1)
    failing = np.flatnonzero(ragged | (q <= 0).any(axis=1))
    if len(failing):
        if ragged[failing[0]]:
            raise ValueError("bin edges must be strictly ascending")
        raise ValueError("Q must be strictly positive everywhere (smooth it)")
    out = [0.0] * len(lo)
    for qubit, p_row, q_row in zip(varying.tolist(), p.tolist(), q.tolist()):
        total = 0.0
        for pi, qi in zip(p_row, q_row):
            if pi > 0.0:
                total += pi * math.log(pi / qi)
        out[qubit] = total
    return out


def _bin_edges(lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """np.linspace(lo[i], hi[i], bins + 1) as row i, bit for bit.

    linspace spaces a whole array by its subnormal rule once any row's step
    (hi - lo) / bins is 0, so rows whose step underflows are spaced apart.
    """
    edges = np.empty((len(lo), bins + 1))
    underflow = (hi - lo) / bins == 0
    for rows in (underflow, ~underflow):
        edges[rows] = np.linspace(lo[rows], hi[rows], bins + 1, axis=1)
    return edges


def _smoothed(samples: np.ndarray, edges: np.ndarray, eps: float) -> np.ndarray:
    """build_distribution's probabilities of each row of sorted samples on its
    row of edges."""
    n = samples.shape[1]
    cumulative = np.empty(edges.shape, dtype=np.intp)
    cumulative[:, 0], cumulative[:, -1] = 0, n
    for row, (values, row_edges) in enumerate(zip(samples, edges)):
        cumulative[row, 1:-1] = values.searchsorted(row_edges[1:-1])
    probs = np.diff(cumulative).astype(float) / n
    if eps > 0:
        probs = (probs + eps) / (1.0 + eps * probs.shape[1])
    return probs


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
    divergence = dict(enumerate(divergences(series, window1, window2, bins, eps)))
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
        pool += divergences(series, window1, window2, bins, eps)
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

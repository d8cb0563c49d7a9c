"""Misreporting heuristics: how a tenant picks targets and skews reports.

Both heuristics choose among the device's maximum-degree qubits, because
those dominate allocation scores. The first over-reports the most central of
them (lowest path-distance spread), making prime real estate look bad so that
honest tenants get pushed into fragmented placements. The second
under-reports a spread-out set (maximum pairwise separation), luring
allocations toward distant corners of the device.

Misreports only ever touch the reported snapshot. The true snapshot, and
hence every PST computed against it, is never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationSeries, CalibrationSnapshot
from .topology import CouplingGraph, Edge, max_degree_qubits, path_stddev

H1 = "H1"
H2 = "H2"


@dataclass(frozen=True)
class MisreportPlan:
    """Ordered (qubit, relative perturbation) targets plus their provenance.

    H1 plans over-report: every delta positive. H2 plans under-report: every
    delta negative, with strictly decreasing magnitude so the most attractive
    lure lands on the first target. Every delta is finite.
    """

    heuristic: str
    targets: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if self.heuristic not in (H1, H2):
            raise ValueError(f"heuristic must be {H1!r} or {H2!r}, got {self.heuristic!r}")
        if not self.targets:
            raise ValueError("plan must contain at least one target")
        qubits = [q for q, _ in self.targets]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate target qubits in {qubits}")
        deltas = [d for _, d in self.targets]
        if self.heuristic == H1:
            if not all(0 < d < math.inf for d in deltas):
                raise ValueError(f"H1 deltas must be positive and finite, got {deltas}")
        else:
            if not all(0 < -d < math.inf for d in deltas):
                raise ValueError(f"H2 deltas must be negative and finite, got {deltas}")
            mags = [abs(d) for d in deltas]
            if any(a <= b for a, b in zip(mags, mags[1:])):
                raise ValueError(f"H2 magnitudes must strictly decrease, got {mags}")

    @property
    def n(self) -> int:
        return len(self.targets)

    @property
    def target_qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.targets)


def heuristic1_targets(g: CouplingGraph, n: int) -> list[int]:
    """The n most central maximum-degree qubits, by ascending path stddev.

    Centrality here means a low spread of shortest-path distances to the rest
    of the device: a qubit that is "equally close to everything" anchors the
    most placements. Ties break toward the lower index.
    """
    ranking = heuristic1_sigma_ranking(g)
    if not (1 <= n <= len(ranking)):
        raise ValueError(f"n must be in [1, {len(ranking)}] for this graph, got {n}")
    return [q for q, _ in ranking[:n]]


def heuristic1_sigma_ranking(g: CouplingGraph) -> list[tuple[int, float]]:
    """The full max-degree pool with path stddevs, in selection order."""
    ranked = sorted((path_stddev(g, q), q) for q in max_degree_qubits(g))
    return [(q, sigma) for sigma, q in ranked]


def heuristic2_targets(g: CouplingGraph, n: int) -> list[int]:
    """n maximum-degree qubits spread as far apart as possible.

    The first pick is the lowest-index maximum-degree qubit. Each subsequent
    pick maximizes the minimum distance to everything already selected;
    remaining ties are broken by the lexicographically largest distance
    profile to the selected qubits (in selection order), then by the lowest
    index.
    """
    return [q for q, _ in heuristic2_selection(g, n)]


def heuristic2_selection(g: CouplingGraph, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Heuristic 2's first n picks in selection order, with their distance profiles.

    A pick's profile is its hop distance to each earlier pick, in selection
    order, so the first pick's profile is empty.
    """
    pool = max_degree_qubits(g)
    if not (1 <= n <= len(pool)):
        raise ValueError(f"n must be in [1, {len(pool)}] for this graph, got {n}")
    dist = g.distance_matrix
    if n > 1 and not np.isfinite(dist[pool[0], list(pool)]).all():
        raise ValueError("heuristic 2 requires the maximum-degree qubits to be connected")
    selection: list[tuple[int, tuple[int, ...]]] = [(pool[0], ())]
    remaining = list(pool[1:])
    while len(selection) < n:
        profiles = {q: tuple(int(dist[q, s]) for s, _ in selection) for q in remaining}
        pick = max(remaining, key=lambda q: (min(profiles[q]), profiles[q], -q))
        selection.append((pick, profiles[pick]))
        remaining.remove(pick)
    return selection


def h1_plan(g: CouplingGraph, n: int, k: float) -> MisreportPlan:
    """Over-report each of heuristic 1's targets by the same relative k."""
    targets = tuple((q, k) for q in heuristic1_targets(g, n))
    return MisreportPlan(H1, targets)


def h2_plan(g: CouplingGraph, ks: list[float]) -> MisreportPlan:
    """Under-report heuristic 2's targets by the given magnitudes, in order."""
    if not ks:
        raise ValueError("H2 needs at least one perturbation magnitude")
    qubits = heuristic2_targets(g, len(ks))
    targets = tuple((q, -k) for q, k in zip(qubits, ks))
    return MisreportPlan(H2, targets)


def _edge_factors(g: CouplingGraph, plan: MisreportPlan) -> dict[Edge, float]:
    """The multiplier 1 + d of every edge incident to a target with delta d.

    An edge incident to two targets takes the larger-magnitude delta. The
    factor is floored at 0, as the [0, 1] clamp would do, so that numpy's
    clip of a zero rate gives 0.0, as Python's max does, not -0.0.
    """
    for q, _ in plan.targets:
        g._check_index(q)
    delta: dict[Edge, float] = {}
    for q, d in plan.targets:
        for e in g.incident_edges(q):
            if e not in delta or abs(d) > abs(delta[e]):
                delta[e] = d
    return {e: max(0.0, 1.0 + d) for e, d in delta.items()}


def apply_misreport(
    true_snap: CalibrationSnapshot, g: CouplingGraph, plan: MisreportPlan | None
) -> CalibrationSnapshot:
    """Build the reported snapshot a plan produces from a true snapshot.

    Every edge incident to a target q with perturbation d gets its CNOT error
    scaled by (1 + d) and clamped to [0, 1]. An edge incident to two targets
    is perturbed once, by the larger-magnitude delta. Readout errors pass
    through untouched, and the input snapshot is never modified.
    """
    factor = {} if plan is None else _edge_factors(g, plan)
    cnot = {
        e: min(1.0, max(0.0, val * factor[e])) if e in factor else val
        for e, val in true_snap.cnot_error.items()
    }
    return CalibrationSnapshot(true_snap.cycle_id, cnot, dict(true_snap.readout_error))


def apply_misreport_series(
    series: CalibrationSeries,
    plan: MisreportPlan,
    cycle_lo: int,
    cycle_hi: int,
) -> CalibrationSeries:
    """Apply a plan to every cycle with cycle_lo <= cycle_id < cycle_hi.

    Each of those rows equals apply_misreport of its cycle's snapshot.
    """
    g = series.graph
    rows = series.cycle_slice(cycle_lo, cycle_hi)
    cnot = series.cnot_error.copy()
    for e, f in _edge_factors(g, plan).items():
        j = g.edge_list.index(e)
        cnot[rows, j] = np.clip(cnot[rows, j] * f, 0.0, 1.0)
    return CalibrationSeries(g, series.cycle_ids, cnot, series.readout_error)

"""Fidelity-aware qubit allocation: the greedy attractor allocator and the
community-based allocator.

Both allocators consume the *reported* calibration snapshot, a one-cycle
CalibrationSeries whose rates they read by edge column and qubit. That is the
trust boundary the rest of the toolkit probes: a tenant that misreports error
rates steers these scores without touching real hardware behavior.

Scores:
  CFM (per qubit)    degree + (1 - (avg CNOT error + readout error))
  CRI (per subset)   (D_p/C_p + (1 - (E_p+R_p))) / (D_h/C_h + (1 - (E_h+R_h)))
where D is density (internal edges over the k(k-1)/2 pairs of k qubits), C is
compactness (induced diameter over k-1), D/C = 1 for one qubit, E/R are mean
CNOT/readout error, _p over the candidate subset and _h over the whole device.

Both scores depend only on the snapshot, which carries its graph, so the
allocators and the layout take the snapshot itself. A snapshot's arrays are
read-only and it hashes by identity, so the device's CRI term is remembered
per snapshot, in a cache bounded to a few snapshots. So is cfm_rank, each
qubit's position in (-CFM, index) order (8 snapshots), the one table of CFMs,
which every CFM-ranked choice reads: the attractor, each greedy step and each
step of a dense extraction; cfm itself remembers nothing. So are a subset's
CRI, keyed by the snapshot and the members in the order given (256 entries),
and the Louvain communities of an available region, keyed by the snapshot and
the region as given (64 entries). A raise is never remembered.
Failure to allocate is reported as None; the scheduler treats it as a signal
to defer the job to a later round.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Sequence

from .calibration import CalibrationSeries
from .topology import CouplingGraph, bfs_tree, degree, induced_diameter, subset_members


@dataclass(frozen=True)
class AllocationRequest:
    """A request for `size` connected qubits drawn from `available`."""

    size: int
    available: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"request size must be positive, got {self.size}")
        object.__setattr__(self, "available", subset_members(self.available))


@dataclass(frozen=True)
class Partition:
    """An allocated qubit subset plus the score that selected it."""

    members: tuple[int, ...]
    score: float


def cfm(snap: CalibrationSeries, q: int) -> float:
    """Composite fidelity metric: degree(q) + (1 - (E + R)) on the snapshot's graph.

    Higher is better. E is the mean CNOT error over q's incident edges and R
    its readout error, so over-reporting either strictly lowers the score.
    """
    d = degree(snap.graph, q)
    if d == 0:
        raise ValueError(f"qubit {q} is isolated; CFM undefined")
    return d + (1.0 - (float(snap.mean_cnot_error[0, q]) + float(snap.readout_error[0, q])))


class _Rank(dict):
    """cfm_rank's table. It holds the qubits whose CFM is defined; looking up
    any other (an index outside [0, n), or any qubit of a device with an
    isolated qubit) raises the ValueError that cfm raises for it."""

    def __init__(self, snap: CalibrationSeries) -> None:
        scores = {}
        for q in range(snap.graph.qubit_count):
            with suppress(ValueError):  # raised again when q is looked up
                scores[q] = cfm(snap, q)
        order = sorted(scores, key=lambda q: (-scores[q], q))
        super().__init__((q, i) for i, q in enumerate(order))
        self.snap = snap

    def __missing__(self, q: int) -> int:
        cfm(self.snap, q)  # raises for every qubit the table leaves out
        raise KeyError(q)


@lru_cache(maxsize=8)
def cfm_rank(snap: CalibrationSeries) -> _Rank:
    """Each qubit's position in (-CFM, index) order on snap: min over rank[q]
    picks the highest-CFM qubit, ties toward the lower index."""
    return _Rank(snap)


def _grow(
    snap: CalibrationSeries, pool: Sequence[int], size: int, densest: bool
) -> tuple[int, ...] | None:
    """Grow a connected subset of `size` pool qubits from the pool's highest-CFM qubit.

    Each step adds the frontier qubit (a pool qubit adjacent to the subset)
    with the highest CFM, ties toward the lower index; if densest, the one
    with the most edges into the subset comes first. Members are returned in
    the order they joined; None if the seed's connected region of the pool is
    too small.
    """
    if size > len(pool):
        return None
    g = snap.graph
    pool_set = set(pool)
    rank = cfm_rank(snap)
    q = min(pool, key=rank.__getitem__)
    members, chosen, frontier = [q], {q}, set()
    if densest:
        def key(n: int) -> tuple[int, int]:
            return (-sum(1 for m in g.neighbors(n) if m in chosen), rank[n])
    else:
        key = rank.__getitem__
    while len(members) < size:
        frontier.update(n for n in g.neighbors(q) if n in pool_set and n not in chosen)
        if not frontier:
            return None
        q = min(frontier, key=key)
        frontier.discard(q)
        members.append(q)
        chosen.add(q)
    return tuple(members)


def greedy_allocate(snap: CalibrationSeries, req: AllocationRequest) -> Partition | None:
    """Attractor-seeded best-first expansion.

    The attractor is the available qubit with the highest CFM. The partition
    then grows one qubit at a time, always taking the highest-CFM available
    neighbor of the current partition. There is no fallback to a second
    attractor: if the attractor's available region runs out of neighbors
    before the partition reaches the requested size, the request fails.
    """
    members = _grow(snap, req.available, req.size, densest=False)
    return None if members is None else Partition(members, score=cfm(snap, members[0]))


def fidelity_weight(error: float) -> float:
    """Community edge weight: max(0, 1 - cnot_error)."""
    return max(0.0, 1.0 - error)


def louvain(
    snap_reported: CalibrationSeries, available: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Deterministic modularity-maximizing communities on the available region.

    Two-phase Louvain on the subgraph of the snapshot's graph induced on
    `available`, with edge weights fidelity_weight(cnot_error). Nodes are
    visited in ascending index order and each moves to the neighboring
    community with the largest modularity gain above 1e-12, ties going to
    the lowest community id; a node with no such gain stays where it is.
    Communities whose induced subgraph is disconnected are split into
    connected pieces as a post-pass, so the result is always a disjoint
    cover of `available` by connected subsets, ordered by smallest member.
    """
    return _louvain(snap_reported, subset_members(available))


@lru_cache(maxsize=64)
def _louvain(snap: CalibrationSeries, available: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    g = snap.graph
    nodes = sorted(available)
    for q in nodes:
        g._check_index(q)
    idx = {q: i for i, q in enumerate(nodes)}
    super_nodes: list[frozenset[int]] = [frozenset([q]) for q in nodes]
    # weights between super-node indices i <= j; i == j is a self-loop
    w: dict[tuple[int, int], float] = {
        (idx[u], idx[v]): fidelity_weight(rate)
        for (u, v), rate in zip(g.edge_list, snap.rates[0])
        if u in idx and v in idx
    }

    while True:
        n = len(super_nodes)
        adj: list[dict[int, float]] = [{} for _ in range(n)]
        deg = [0.0] * n
        m2 = 0.0  # sum of weighted degrees; self-loops count twice
        for (i, j), wt in w.items():
            if i == j:
                deg[i] += 2 * wt
            else:
                adj[i][j] = adj[j][i] = wt
                deg[i] += wt
                deg[j] += wt
            m2 += 2 * wt
        if m2 == 0.0:
            break

        comm = list(range(n))
        comm_deg = deg[:]
        moved = True
        while moved:
            moved = False
            for i in range(n):
                ci = comm[i]
                w_to: dict[int, float] = {}
                for j, wt in adj[i].items():
                    cj = comm[j]
                    w_to[cj] = w_to.get(cj, 0.0) + wt
                comm_deg[ci] -= deg[i]
                base = w_to.get(ci, 0.0) - comm_deg[ci] * deg[i] / m2
                best_c, best_gain = ci, 1e-12
                for c in sorted(w_to):
                    if c == ci:
                        continue
                    gain = (w_to[c] - comm_deg[c] * deg[i] / m2) - base
                    if gain > best_gain:
                        best_c, best_gain = c, gain
                comm_deg[best_c] += deg[i]
                if best_c != ci:
                    comm[i] = best_c
                    moved = True

        # aggregate: one super-node per community, numbered by smallest member
        label: dict[int, int] = {}
        for c in comm:
            label.setdefault(c, len(label))
        if len(label) == n:
            break
        merged: list[frozenset[int]] = [frozenset()] * len(label)
        for i, c in enumerate(comm):
            merged[label[c]] |= super_nodes[i]
        new_w: dict[tuple[int, int], float] = {}
        for (i, j), wt in w.items():
            a, b = label[comm[i]], label[comm[j]]
            key = (a, b) if a < b else (b, a)
            new_w[key] = new_w.get(key, 0.0) + wt
        super_nodes, w = merged, new_w

    pieces = [piece for sn in super_nodes for piece in _connected_pieces(g, sn)]
    return tuple(sorted(pieces, key=lambda c: c[0]))


def _connected_pieces(g: CouplingGraph, members: Collection[int]) -> list[tuple[int, ...]]:
    mset = set(members)
    pieces = []
    unseen = set(members)
    while unseen:
        piece = bfs_tree(g, mset, min(unseen)).keys()
        pieces.append(tuple(sorted(piece)))
        unseen -= piece
    return pieces


def cri(snap_reported: CalibrationSeries, s: Sequence[int]) -> float:
    """Connectivity and reliability index of a subset, normalized by the device.

    Numerator: density/compactness of the subset plus its fidelity term
    1 - (E_p + R_p), with E_p = 0 when the subset has no internal edges.
    Denominator: the same expression over the full device, the snapshot's
    graph. The whole device therefore scores exactly 1; a subset beating the
    device average scores above 1. A device whose term is not positive has no
    CRI: a negative term would invert every ranking.
    """
    return _subset_cri(snap_reported, subset_members(s))


@lru_cache(maxsize=256)
def _subset_cri(snap: CalibrationSeries, members: tuple[int, ...]) -> float:
    # keyed by the members in the order given: _cri_term sums readout errors in
    # that order, so a reordered subset may differ in its last bit
    return _cri_term(snap, members) / _device_cri_term(snap)


def _cri_term(snap: CalibrationSeries, members: tuple[int, ...]) -> float:
    # every index is checked first, so a bad member is named before a
    # disconnected subset or a device term that is not positive
    g = snap.graph
    for q in members:
        g._check_index(q)
    cnot, readout = snap.rates
    mset = set(members)
    intra = [r for (u, v), r in zip(g.edge_list, cnot) if u in mset and v in mset]
    k = len(members)
    shape = (
        len(intra) / (k * (k - 1) / 2) / (induced_diameter(g, members) / (k - 1)) if k > 1 else 1.0
    )
    e_p = sum(intra) / len(intra) if intra else 0.0
    r_p = sum(readout[q] for q in members) / k
    return shape + (1.0 - (e_p + r_p))


@lru_cache(maxsize=8)
def _device_cri_term(snap: CalibrationSeries) -> float:
    den = _cri_term(snap, tuple(range(snap.graph.qubit_count)))
    if den <= 0.0:
        raise ValueError(f"the whole-device CRI term is {den!r}, not positive; CRI undefined")
    return den


def _expand_densest(
    snap: CalibrationSeries, pool: tuple[int, ...], size: int
) -> tuple[int, ...] | None:
    """Greedy dense-subset extraction from a connected pool.

    Starts at the pool's highest-CFM qubit and repeatedly adds the neighbor
    contributing the most edges into the current subset (ties: higher CFM,
    then lower index).
    """
    return _grow(snap, pool, size, densest=True)


def comdap_allocate(snap: CalibrationSeries, req: AllocationRequest) -> Partition | None:
    """Community-based allocation.

    A request that no connected region of the available qubits can hold
    fails (None) before any community is formed. Otherwise Louvain
    communities are formed over the available region, then:
      1. a community of exactly the requested size with the highest CRI is
         returned verbatim, if one exists;
      2. otherwise each larger community yields a dense connected extraction
         of the requested size, and the highest-CRI extraction wins;
      3. otherwise communities are merged: starting from the highest-CRI
         community in a connected region large enough for the request,
         adjacent communities join in descending CRI order until the merged
         set reaches the requested size, and step 2 runs on the merged set.

    Size-1 requests return the highest-CFM available qubit. Every CRI is
    relative to the whole device, so on a disconnected device, or one whose
    CRI term is not positive, any request of at most len(available) qubits
    raises ValueError.
    """
    g = snap.graph
    avail = req.available
    if req.size > len(avail):
        return None
    if req.size == 1:
        q = min(avail, key=cfm_rank(snap).__getitem__)
        return Partition((q,), score=cri(snap, (q,)))
    _device_cri_term(snap)  # raises on a device with no CRI term, feasible request or not
    regions = [p for p in _connected_pieces(g, avail) if len(p) >= req.size]
    if not regions:
        return None

    communities = louvain(snap, avail)
    com_cri = {c: cri(snap, c) for c in communities}

    def by_cri(c: tuple[int, ...]) -> tuple:
        return (-com_cri[c], c)

    exact = [c for c in communities if len(c) == req.size]
    if exact:
        best = min(exact, key=by_cri)
        return Partition(best, score=com_cri[best])

    larger = [c for c in communities if len(c) > req.size]
    if larger:
        best_sub: tuple[int, ...] | None = None
        best_score = 0.0
        for c in sorted(larger, key=by_cri):
            sub = _expand_densest(snap, c, req.size)
            score = cri(snap, sub)
            if best_sub is None or score > best_score + 1e-15:
                best_sub, best_score = sub, score
        return Partition(best_sub, score=best_score)

    # all communities are smaller than the request: merge, then extract.
    # Communities are connected and never span two regions, so merging from
    # any community inside a large-enough region reaches the requested size.
    merged = set(min((c for c in communities if any(c[0] in p for p in regions)), key=by_cri))
    while len(merged) < req.size:
        adjacent = (
            c for c in communities
            if c[0] not in merged and any(n in merged for q in c for n in g.neighbors(q))
        )
        merged |= set(min(adjacent, key=by_cri))
    sub = _expand_densest(snap, tuple(sorted(merged)), req.size)
    return Partition(sub, score=cri(snap, sub))


Allocator = Callable[[CalibrationSeries, AllocationRequest], Partition | None]

ALLOCATORS: dict[str, Allocator] = {
    "greedy": greedy_allocate,
    "comdap": comdap_allocate,
}


def get_allocator(name: str) -> Allocator:
    try:
        return ALLOCATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r}; expected one of {sorted(ALLOCATORS)}"
        ) from None

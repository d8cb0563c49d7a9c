"""Fidelity-aware qubit allocation: the greedy attractor allocator and the
community-based allocator.

Both allocators consume the *reported* calibration snapshot, a one-cycle
CalibrationSeries whose rates they read by edge column and qubit. That is the
trust boundary the rest of the toolkit probes: a tenant that misreports error
rates steers these scores without touching real hardware behavior.

Scores:
  CFM (per qubit)    degree + (1 - (avg CNOT error + readout error))
  CRI (per subset)   (D_p/C_p + (1 - (E_p+R_p))) / (D_h/C_h + (1 - (E_h+R_h)))
where D/C are density/compactness, E/R are mean CNOT/readout error, the _p
terms range over the candidate subset and the _h terms over the whole device.

Both scores depend only on the snapshot, which carries its graph, so the
allocators and the layout read them from a ScoringContext that computes each
qubit's CFM and the device's CRI term once. Failure to allocate is reported
as None; the scheduler treats it as a signal to defer the job to a later
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Sequence

from .calibration import CalibrationSeries
from .topology import CouplingGraph, bfs_tree, compactness, degree, density, subset_members


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


def _best_by_cfm(ctx: ScoringContext, qubits) -> int:
    """Highest-CFM qubit, ties broken toward the lowest index."""
    return min(qubits, key=lambda q: (-ctx.cfm(q), q))


def _grow(
    ctx: ScoringContext, pool: Sequence[int], size: int, rank: Callable[[int, set[int]], tuple]
) -> tuple[int, ...] | None:
    """Grow a connected subset of `size` pool qubits from the pool's highest-CFM qubit.

    Each step adds the frontier qubit (a pool qubit adjacent to the subset)
    with the least rank(q, chosen). Members are returned in the order they
    joined; None if the seed's connected region of the pool is too small.
    """
    if size > len(pool):
        return None
    g = ctx.snapshot.graph
    pool_set = set(pool)
    q = _best_by_cfm(ctx, pool)
    members, chosen, frontier = [q], {q}, set()
    while len(members) < size:
        frontier.update(n for n in g.neighbors(q) if n in pool_set and n not in chosen)
        if not frontier:
            return None
        q = min(frontier, key=lambda n: rank(n, chosen))
        frontier.discard(q)
        members.append(q)
        chosen.add(q)
    return tuple(members)


def greedy_allocate(ctx: ScoringContext, req: AllocationRequest) -> Partition | None:
    """Attractor-seeded best-first expansion.

    The attractor is the available qubit with the highest CFM. The partition
    then grows one qubit at a time, always taking the highest-CFM available
    neighbor of the current partition. There is no fallback to a second
    attractor: if the attractor's available region runs out of neighbors
    before the partition reaches the requested size, the request fails.
    """
    members = _grow(ctx, req.available, req.size, lambda q, chosen: (-ctx.cfm(q), q))
    return None if members is None else Partition(members, score=ctx.cfm(members[0]))


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
    g = snap_reported.graph
    nodes = sorted(subset_members(available))
    for q in nodes:
        g._check_index(q)
    idx = {q: i for i, q in enumerate(nodes)}
    super_nodes: list[frozenset[int]] = [frozenset([q]) for q in nodes]
    # weights between super-node indices i <= j; i == j is a self-loop
    w: dict[tuple[int, int], float] = {
        (idx[u], idx[v]): fidelity_weight(rate)
        for (u, v), rate in zip(g.edge_list, snap_reported.rates()[0])
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
    device average scores above 1. A device whose term is 0 has no CRI.
    """
    g, rates = snap_reported.graph, snap_reported.rates()
    num = _cri_term(g, rates, subset_members(s))
    return num / _device_cri_term(g, rates)


def _cri_term(
    g: CouplingGraph, rates: tuple[list[float], list[float]], members: tuple[int, ...]
) -> float:
    cnot, readout = rates
    mset = set(members)
    intra = [r for (u, v), r in zip(g.edge_list, cnot) if u in mset and v in mset]
    e_p = sum(intra) / len(intra) if intra else 0.0
    r_p = sum(readout[q] for q in members) / len(members)
    return density(g, members) / compactness(g, members) + (1.0 - (e_p + r_p))


def _device_cri_term(g: CouplingGraph, rates: tuple[list[float], list[float]]) -> float:
    den = _cri_term(g, rates, tuple(range(g.qubit_count)))
    if den == 0.0:
        raise ValueError("the whole-device CRI term is 0; CRI undefined")
    return den


@dataclass(frozen=True)
class ScoringContext:
    """The CFM and CRI scores of one snapshot, on the snapshot's graph.

    Each qubit's CFM (by cfm itself) and the device's CRI denominator are
    computed once, on first use, and equal what cfm and cri return bit for
    bit, or raise what they raise. Computing on first use keeps errors at
    first use: a context on a disconnected device, or on one whose CRI term
    is 0, raises at its first CRI, and one on a device with an isolated
    qubit at its first CFM.
    """

    snapshot: CalibrationSeries

    @cached_property
    def _rates(self) -> tuple[list[float], list[float]]:
        return self.snapshot.rates()

    @cached_property
    def _cfm(self) -> dict[int, float]:
        return {q: cfm(self.snapshot, q) for q in range(self.snapshot.graph.qubit_count)}

    @cached_property
    def _device_term(self) -> float:
        return _device_cri_term(self.snapshot.graph, self._rates)

    def cfm(self, q: int) -> float:
        """cfm(snapshot, q)."""
        value = self._cfm.get(q)
        # only out-of-range qubits are missing, and cfm rejects them
        return cfm(self.snapshot, q) if value is None else value

    def cri(self, s: Sequence[int]) -> float:
        """cri(snapshot, s)."""
        num = _cri_term(self.snapshot.graph, self._rates, subset_members(s))
        return num / self._device_term


def _expand_densest(
    ctx: ScoringContext, pool: tuple[int, ...], size: int
) -> tuple[int, ...] | None:
    """Greedy dense-subset extraction from a connected pool.

    Starts at the pool's highest-CFM qubit and repeatedly adds the neighbor
    contributing the most edges into the current subset (ties: higher CFM,
    then lower index).
    """
    g = ctx.snapshot.graph

    def rank(q: int, chosen: set[int]) -> tuple:
        intra = sum(1 for n in g.neighbors(q) if n in chosen)
        return (-intra, -ctx.cfm(q), q)

    return _grow(ctx, pool, size, rank)


def comdap_allocate(ctx: ScoringContext, req: AllocationRequest) -> Partition | None:
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
    CRI term is 0, any request of at most len(available) qubits raises
    ValueError.
    """
    g = ctx.snapshot.graph
    avail = req.available
    if req.size > len(avail):
        return None
    if req.size == 1:
        q = _best_by_cfm(ctx, avail)
        return Partition((q,), score=ctx.cri((q,)))
    ctx._device_term  # raises on a device with no CRI term, feasible request or not
    regions = [p for p in _connected_pieces(g, avail) if len(p) >= req.size]
    if not regions:
        return None

    communities = louvain(ctx.snapshot, avail)
    com_cri = {c: ctx.cri(c) for c in communities}

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
            sub = _expand_densest(ctx, c, req.size)
            score = ctx.cri(sub)
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
    sub = _expand_densest(ctx, tuple(sorted(merged)), req.size)
    return Partition(sub, score=ctx.cri(sub))


Allocator = Callable[[ScoringContext, AllocationRequest], Partition | None]

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

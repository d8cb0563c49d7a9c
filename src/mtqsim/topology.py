"""Coupling-graph model and the graph metrics everything else consumes.

A coupling graph is the undirected connectivity of a device's physical
qubits: an edge (u, v) means a two-qubit gate can act directly on that pair.
Allocation scores, misreport target selection, and SWAP routing all reduce to
degrees, shortest-path distances, and subset density/compactness computed
here. One breadth-first search inside a qubit subset, bfs_tree, gives the
all-pairs hop distances, the induced diameter, allocation's connected pieces
and routing's shortest paths. The 27-qubit heavy-hex fixture `hanoi27`
matches the layout of the commonly modeled 27-qubit backends.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected physical-qubit connectivity.

    Edges are stored normalized as (u, v) with u < v. The adjacency table,
    each qubit's incident-edge columns and the all-pairs hop-distance matrix
    are built lazily and cached; instances are immutable after construction
    and safe to share between threads.
    """

    qubit_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be positive, got {self.qubit_count}")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on qubit {u}")
            if not (0 <= u < self.qubit_count and 0 <= v < self.qubit_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.qubit_count} qubits")
            norm.add(_normalize_edge(u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges in sorted order, for deterministic iteration."""
        return tuple(sorted(self.edges))

    @cached_property
    def edge_column(self) -> dict[Edge, int]:
        """Each edge's position in edge_list, its column in a calibration row, keyed
        by (u, v) and by (v, u), so that a gate's qubit pair needs no normalizing."""
        return {e: j for j, (u, v) in enumerate(self.edge_list) for e in ((u, v), (v, u))}

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.qubit_count)]
        for u, v in self.edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(n)) for n in nbrs)

    def neighbors(self, q: int) -> tuple[int, ...]:
        self._check_index(q)
        return self._adjacency[q]

    def incident_edges(self, q: int) -> tuple[Edge, ...]:
        self._check_index(q)
        return tuple(_normalize_edge(q, n) for n in self._adjacency[q])

    @cached_property
    def incident_columns(self) -> tuple[tuple[int, ...], ...]:
        """Each qubit's incident edges as edge_list columns, in incident_edges order."""
        column = self.edge_column
        return tuple(
            tuple(column[e] for e in self.incident_edges(q)) for q in range(self.qubit_count)
        )

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Hop distances between all qubit pairs; np.inf where unreachable.

        Row src is read off bfs_tree(self, range(n), src). The returned array
        is marked read-only; copy before mutating.
        """
        n = self.qubit_count
        dist = np.full((n, n), np.inf)
        for src, row in enumerate(dist):
            for q, p in bfs_tree(self, range(n), src).items():
                row[q] = row[p] + 1 if q != p else 0.0
        dist.setflags(write=False)
        return dist

    def _check_index(self, q: int) -> None:
        if not (0 <= q < self.qubit_count):
            raise ValueError(f"qubit index {q} out of range for {self.qubit_count} qubits")


def subset_members(s: Sequence[int]) -> tuple[int, ...]:
    """A qubit index sequence as a member tuple: non-empty, no duplicates."""
    members = tuple(s)
    if not members:
        raise ValueError("subset must be non-empty")
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate members in subset {members}")
    return members


HANOI27_EDGES: frozenset[Edge] = frozenset(
    {
        (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
        (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
        (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
        (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
    }
)


def hanoi27() -> CouplingGraph:
    """The 27-qubit heavy-hex fixture (maximum degree 3, connected)."""
    return CouplingGraph(27, HANOI27_EDGES)


def degree(g: CouplingGraph, q: int) -> int:
    """Number of edges incident to q."""
    return len(g.neighbors(q))


def max_degree_qubits(g: CouplingGraph) -> tuple[int, ...]:
    """All qubits attaining the graph's maximum degree, ascending."""
    degs = [degree(g, q) for q in range(g.qubit_count)]
    top = max(degs)
    return tuple(q for q, d in enumerate(degs) if d == top)


def path_stddev(g: CouplingGraph, q: int) -> float:
    """Population standard deviation of hop distances from q to every other qubit.

    The self-distance is excluded: including the constant 0 would deflate the
    mean identically for all qubits while telling us nothing about position.
    """
    g._check_index(q)
    dist = g.distance_matrix[q]
    others = np.delete(dist, q)
    if not np.all(np.isfinite(others)):
        raise ValueError("path_stddev requires a connected graph")
    if others.size == 0:
        return 0.0
    # sorted reduction: qubits with permuted distance rows get bit-identical sigma
    return float(np.std(np.sort(others)))


def density(g: CouplingGraph, s: Sequence[int]) -> float:
    """Intra-subset edges divided by the pair count |s|(|s|-1)/2; 1 for singletons."""
    members = subset_members(s)
    for q in members:
        g._check_index(q)
    k = len(members)
    if k == 1:
        return 1.0
    mset = set(members)
    intra = sum(1 for u, v in g.edge_list if u in mset and v in mset)
    return intra / (k * (k - 1) / 2)


def bfs_tree(g: CouplingGraph, allowed: Collection[int], src: int) -> dict[int, int]:
    """Breadth-first search from src inside allowed: the parent of each reached qubit.

    Keys are in visit order, so hop distance from src never decreases along
    them; src is its own parent. Neighbors are scanned in ascending order,
    so a qubit's parent does not depend on where a caller stops reading.
    """
    g._check_index(src)
    adj = g._adjacency
    parent = {src: src}
    queue = [src]
    for u in queue:
        for v in adj[u]:
            if v in allowed and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def induced_diameter(g: CouplingGraph, members: tuple[int, ...]) -> int:
    """Diameter of the subgraph induced on members, by BFS within the subset."""
    mset = set(members)
    best = 0
    for src in members:
        parent = bfs_tree(g, mset, src)
        if len(parent) != len(members):
            raise ValueError(f"induced subgraph on {sorted(members)} is disconnected")
        # the last qubit visited is the farthest from src: count its hops back
        q, hops = next(reversed(parent)), 0
        while q != src:
            q, hops = parent[q], hops + 1
        best = max(best, hops)
    return best


def compactness(g: CouplingGraph, s: Sequence[int]) -> float:
    """Induced-subgraph diameter over the maximum possible diameter |s|-1.

    A path-shaped subset scores exactly 1; denser shapes score lower. Defined
    as 1 for singletons so downstream ratios stay finite.
    """
    members = subset_members(s)
    for q in members:
        g._check_index(q)
    if len(members) == 1:
        return 1.0
    return induced_diameter(g, members) / (len(members) - 1)


def load_edge_list(text: str) -> CouplingGraph:
    """Parse the plain-text exchange format: a "qubits N" line, then "u v" lines.

    Blank lines and lines starting with '#' are skipped. Malformed input
    raises DataError naming the offending line.
    """
    qubit_count: int | None = None
    edges: set[Edge] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if qubit_count is None:
            if len(parts) != 2 or parts[0] != "qubits":
                raise DataError(f"line {ln}: expected 'qubits N' header, got {line!r}")
            try:
                qubit_count = int(parts[1])
            except ValueError:
                raise DataError(f"line {ln}: qubit count {parts[1]!r} is not an integer") from None
            if qubit_count < 1:
                raise DataError(f"line {ln}: qubit count must be positive")
            continue
        if len(parts) != 2:
            raise DataError(f"line {ln}: expected 'u v' edge, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"line {ln}: non-integer edge endpoint in {line!r}") from None
        if u == v:
            raise DataError(f"line {ln}: self-loop on qubit {u}")
        if not (0 <= u < qubit_count and 0 <= v < qubit_count):
            raise DataError(f"line {ln}: edge ({u}, {v}) out of range")
        e = _normalize_edge(u, v)
        if e in edges:
            raise DataError(f"line {ln}: duplicate edge ({u}, {v})")
        edges.add(e)
    if qubit_count is None:
        raise DataError("empty topology file: missing 'qubits N' header")
    return CouplingGraph(qubit_count, frozenset(edges))

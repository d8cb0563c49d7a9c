"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the documented
rules, using different algorithms and data structures than the library
(plain dicts and math.fsum instead of numpy), so agreement between the
two is meaningful.
"""

import math
from collections import namedtuple
from itertools import combinations


def adjacency(edges, n):
    adj = {q: set() for q in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_distances(adj, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def floyd_warshall(edges, n):
    inf = math.inf
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = 1
        d[v][u] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def population_std(values):
    values = sorted(values)
    mu = math.fsum(values) / len(values)
    var = math.fsum((x - mu) ** 2 for x in values) / len(values)
    return math.sqrt(var)


def path_sigma(dist_matrix, q):
    others = [dist_matrix[q][t] for t in range(len(dist_matrix)) if t != q]
    return population_std(others)


def is_connected(adj, members):
    members = set(members)
    if not members:
        return False
    seen = {next(iter(sorted(members)))}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in members and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == members


def sigma_ranking(edges, n, pool):
    d = floyd_warshall(edges, n)
    return sorted(pool, key=lambda q: (round(path_sigma(d, q), 9), q))


def maxmin_chain(edges, n, pool, count):
    """Farthest-point selection re-derived from the documented rule."""
    d = floyd_warshall(edges, n)
    selected = [pool[0]]
    remaining = [q for q in pool if q != pool[0]]
    while len(selected) < count:
        def key(q):
            profile = tuple(d[q][s] for s in selected)
            return (min(profile), profile, -q)
        pick = max(remaining, key=key)
        selected.append(pick)
        remaining.remove(pick)
    return selected


# --- scoring ----------------------------------------------------------------

def incident_mean(cnot_rates, q):
    """Mean CNOT rate over the edges touching q, added by ascending neighbor;
    cnot_rates is a plain dict keyed by (low, high) edge."""
    neighbors = sorted(v if u == q else u for u, v in cnot_rates if q in (u, v))
    rates = [cnot_rates[(min(q, n), max(q, n))] for n in neighbors]
    return sum(rates) / len(rates)


def cfm(cnot_rates, readout_rates, q):
    """degree(q) + (1 - (E + R)): E the mean CNOT rate over q's edges, R its readout rate."""
    degree = sum(1 for e in cnot_rates if q in e)
    return degree + (1.0 - (incident_mean(cnot_rates, q) + readout_rates[q]))


def cri_term(cnot_rates, readout_rates, members):
    """D/C + (1 - (E + R)) of a connected subset: D the intra-edge count over
    |s|(|s|-1)/2, C the induced diameter over |s|-1 (both 1 for a singleton),
    E the mean intra-edge CNOT rate (0 with no intra edge), R the mean readout rate."""
    k, mset = len(members), set(members)
    intra = [e for e in cnot_rates if e[0] in mset and e[1] in mset]
    if k == 1:
        ratio = 1.0
    else:
        adj = adjacency(intra, len(readout_rates))
        diameter = max(max(bfs_distances(adj, q).values()) for q in members)
        ratio = (len(intra) / (k * (k - 1) / 2)) / (diameter / (k - 1))
    e_p = math.fsum(cnot_rates[e] for e in intra) / len(intra) if intra else 0.0
    r_p = math.fsum(readout_rates[q] for q in members) / k
    return ratio + (1.0 - (e_p + r_p))


def cri(cnot_rates, readout_rates, members):
    """A connected subset's cri_term over the whole (connected) device's."""
    device = range(len(readout_rates))
    return (cri_term(cnot_rates, readout_rates, members)
            / cri_term(cnot_rates, readout_rates, device))


# --- community detection ---------------------------------------------------

def modularity(assignment, weights, nodes):
    m2 = 2.0 * math.fsum(weights.values())
    if m2 == 0:
        return 0.0
    kdeg = {q: 0.0 for q in nodes}
    for (u, v), w in weights.items():
        kdeg[u] += w
        kdeg[v] += w
    groups = {}
    for q in nodes:
        groups.setdefault(assignment[q], []).append(q)
    total = 0.0
    for members in groups.values():
        ms = set(members)
        internal = math.fsum(w for (u, v), w in weights.items() if u in ms and v in ms)
        ktot = math.fsum(kdeg[q] for q in members)
        total += internal / (m2 / 2.0) - (ktot / m2) ** 2
    return total


def best_partitions(weights, nodes):
    """Exhaustive modularity maximization via restricted growth strings."""
    nodes = sorted(nodes)

    def enumerate_assignments(i, current, hi):
        if i == len(nodes):
            yield dict(zip(nodes, current))
            return
        for c in range(hi + 2):
            yield from enumerate_assignments(i + 1, current + [c], max(hi, c))

    best = None
    winners = []
    for assign in enumerate_assignments(0, [], -1):
        q = modularity(assign, weights, nodes)
        if best is None or q > best + 1e-12:
            best = q
            winners = [assign]
        elif abs(q - best) <= 1e-12:
            winners.append(assign)
    shapes = []
    for assign in winners:
        groups = {}
        for node, c in assign.items():
            groups.setdefault(c, []).append(node)
        shapes.append(tuple(sorted(tuple(sorted(g)) for g in groups.values())))
    return best, shapes


# --- routing ----------------------------------------------------------------

# one gate as the hardware runs it; routing marks the CNOTs a SWAP compiles to
Entry = namedtuple("Entry", "kind qubits name clbit routing")


def expand_swaps(ops):
    """The routed ops as hardware gates, in order: each "swap" op becomes
    three routing CNOT entries on its pair, every other op one entry."""
    out = []
    for op in ops:
        assert op.kind in ("1q", "cnot", "swap", "measure"), f"unknown op kind {op.kind!r}"
        if op.kind == "swap":
            assert len(op.qubits) == 2 and op.name is None and op.clbit is None
            out += [Entry("cnot", tuple(op.qubits), None, None, True)] * 3
        else:
            out.append(Entry(op.kind, tuple(op.qubits), op.name, op.clbit, False))
    return out


def replay_routed(circuit, routed):
    """Replay physical ops against the logical program, tracking the layout.

    Each swap op is expanded into its three routing CNOTs (expand_swaps),
    which come in runs of three identical entries; each run exchanges the
    logical contents of its two physical qubits. Every other op must line up,
    in order, with the next logical gate once mapped back through the current
    permutation. Returns the number of swap runs consumed.
    """
    phys2log = {p: l for l, p in routed.initial_layout.items()}
    logical = list(circuit.gates)
    ops = expand_swaps(routed.physical_ops)
    swaps = 0
    i = 0
    li = 0
    while i < len(ops):
        op = ops[i]
        if op.kind == "cnot" and op.routing:
            group = ops[i:i + 3]
            assert len(group) == 3, "truncated swap run"
            assert all(o.kind == "cnot" and o.routing for o in group)
            assert all(o.qubits == op.qubits for o in group), "mixed swap run"
            a, b = op.qubits
            phys2log[a], phys2log[b] = phys2log.get(b), phys2log.get(a)
            swaps += 1
            i += 3
            continue
        gate = logical[li]
        li += 1
        if op.kind == "cnot":
            mapped = (phys2log[op.qubits[0]], phys2log[op.qubits[1]])
            assert (gate.control, gate.target) == mapped, (
                f"cnot #{li} maps to {mapped}, expected {(gate.control, gate.target)}"
            )
        elif op.kind == "measure":
            assert phys2log[op.qubits[0]] == gate.qubit
            assert op.clbit == gate.clbit
        else:
            assert op.kind == "1q"
            assert op.name == gate.name
            assert phys2log[op.qubits[0]] == gate.qubit
        i += 1
    assert li == len(logical), "not every logical gate was emitted"
    return swaps


def asap_layers(ops):
    """Schedule ops into layers as soon as possible; return the layer count.

    Swap ops are first expanded into their three CNOTs (expand_swaps).
    Layers are kept as a list of sets of busy qubits. Each entry goes into
    the layer right after the last one that already uses any of its qubits.
    """
    layers = []
    for op in expand_swaps(ops):
        busy = set(op.qubits)
        slot = len(layers)
        while slot > 0 and not (layers[slot - 1] & busy):
            slot -= 1
        if slot == len(layers):
            layers.append(set())
        layers[slot] |= busy
    return len(layers)


def success_product(ops, cnot_rates, readout_rates):
    """(1 - rate) over every CNOT in op order, then over each distinct
    measured qubit in ascending order; rates are plain dicts keyed by
    (low, high) edge and by qubit. Swap ops count as their three CNOTs
    (expand_swaps)."""
    factors = []
    measured = []
    for op in expand_swaps(ops):
        if op.kind == "cnot":
            a, b = op.qubits
            factors.append(1.0 - cnot_rates[(min(a, b), max(a, b))])
        elif op.kind == "measure" and op.qubits[0] not in measured:
            measured.append(op.qubits[0])
    factors.extend(1.0 - readout_rates[q] for q in sorted(measured))
    p = 1.0
    for f in factors:
        p *= f
    return p


def misreported_rates(edges, rates, targets):
    """One cycle's CNOT rates, listed in edge order, as a plan with (qubit,
    delta) targets reports them: an edge touching targets is scaled by 1 + d
    for its largest-magnitude delta d (the earlier target on a tie) and
    clamped to [0, 1]; other edges keep their rate."""
    out = []
    for (u, v), rate in zip(edges, rates):
        deltas = [d for q, d in targets if q in (u, v)]
        if deltas:
            d = max(deltas, key=abs)
            rate = min(1.0, max(0.0, rate * (1.0 + d)))
        out.append(rate)
    return out


# --- statistics --------------------------------------------------------------

def percentile_linear(values, pct):
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    rank = (pct / 100.0) * (len(xs) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


def kl_direct(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


def connected_subsets(adj, nodes, size):
    """All connected subsets of the given size (small graphs only)."""
    out = set()
    for combo in combinations(sorted(nodes), size):
        if is_connected(adj, combo):
            out.add(combo)
    return out


def best_connected_subset(adj, pool, size, score):
    """Exhaustive extraction: the highest-scoring connected subset of the pool.

    Ties go to the lexicographically smallest member tuple; None when the
    pool holds no connected subset of that size. The caller supplies the
    scoring function, so this module stays free of library imports.
    """
    found = connected_subsets(adj, pool, size)
    if not found:
        return None
    return min(found, key=lambda members: (-score(members), members))

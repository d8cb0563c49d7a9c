"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the documented
rules, using different algorithms and data structures than the library
(plain dicts and math.fsum instead of numpy), so agreement between the
two is meaningful. The one numpy reference is the detector's: a per-qubit
KL divergence built on np.histogram and one distribution object per window
(build_distribution, kl_divergence, window_divergence), against which the
library's whole-array pass is checked bit for bit. The calibration CSV
reference strips every line and field before it checks them, where the
library looks the raw fields up first. The library only reads that CSV; the
writer that makes the tests' and CI's calibration files is here, and it reads
a series through its attributes alone. No mtqsim module is imported here.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np


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


def write_edge_list(qubit_count, edge_list):
    """Edge-list file text: a 'qubits N' header, then one 'u v' line per edge."""
    lines = [f"qubits {qubit_count}"]
    lines.extend(f"{u} {v}" for u, v in edge_list)
    return "\n".join(lines) + "\n"


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
Entry = namedtuple("Entry", "kind qubits name angle clbit routing")


def expand_swaps(ops):
    """The routed ops as hardware gates, in order: each "swap" op becomes
    three routing CNOT entries on its pair, every other op one entry."""
    out = []
    for op in ops:
        assert op.kind in ("1q", "cnot", "swap", "measure"), f"unknown op kind {op.kind!r}"
        if op.kind == "swap":
            assert len(op.qubits) == 2
            assert op.name is None and op.angle is None and op.clbit is None
            out += [Entry("cnot", tuple(op.qubits), None, None, None, True)] * 3
        else:
            out.append(Entry(op.kind, tuple(op.qubits), op.name, op.angle, op.clbit, False))
    return out


def replay_routed(circuit, layout, routed):
    """Replay physical ops against the logical program, tracking the layout
    from layout, the initial layout the ops were routed from.

    Each swap op is expanded into its three routing CNOTs (expand_swaps),
    which come in runs of three identical entries; each run exchanges the
    logical contents of its two physical qubits. Every other op must line up,
    in order, with the next logical gate: the same kind, name, angle and
    clbit, and its qubits, mapped back through the current permutation, the
    gate's qubits in order. Returns the number of swap runs consumed.
    """
    phys2log = {p: l for l, p in layout.items()}
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
        assert op.kind == gate.kind, f"op #{li} is a {op.kind}, expected a {gate.kind}"
        mapped = tuple(phys2log[q] for q in op.qubits)
        assert mapped == tuple(gate.qubits), (
            f"{op.kind} #{li} maps to {mapped}, expected {tuple(gate.qubits)}"
        )
        assert (op.name, op.angle, op.clbit) == (gate.name, gate.angle, gate.clbit)
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


def routed_pairs(adj, members, gates, layout):
    """The (kind, pair) of every "swap" and "cnot" op routing emits, in order.

    gates are the logical (kind, qubits) in circuit order and layout maps
    logical to physical qubits. For each CNOT, a breadth-first search inside
    members from the control's carrier, level by level with each qubit's
    neighbours in ascending order, finds a shortest path to the target's
    carrier; the control's contents walk it one swap per hop until they sit
    next to the target, and the CNOT then acts on the two carriers.
    """
    members = set(members)
    at = dict(layout)  # logical -> physical
    holds = {p: l for l, p in layout.items()}  # physical -> logical
    out = []
    for kind, qubits in gates:
        if kind != "cnot":
            continue
        src, dst = at[qubits[0]], at[qubits[1]]
        came_from = {src: None}
        frontier = [src]
        while dst not in came_from:
            assert frontier, f"no path {src} -> {dst} inside {sorted(members)}"
            level = []
            for x in frontier:
                for y in sorted(adj[x]):
                    if y in members and y not in came_from:
                        came_from[y] = x
                        level.append(y)
            frontier = level
        path = [dst]
        while came_from[path[-1]] is not None:
            path.append(came_from[path[-1]])
        path.reverse()
        here = src
        for hop in path[1:-1]:
            out.append(("swap", (here, hop)))
            a, b = holds[here], holds[hop]
            holds[here], holds[hop] = b, a
            at[a], at[b] = hop, here
            here = hop
        out.append(("cnot", (here, dst)))
    return out


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


# --- workload ---------------------------------------------------------------

def scalar_workload(rng, count, size_min, size_max, gate_density):
    """The documented draws of a seeded generator workload, one rng.integers
    call per value: each job draws its size from [size_min, size_max], then
    each of its max(1, round(gate_density * size * (size - 1) / 2)) gates a
    control from [0, size) and a target from [0, size - 1), where a target at
    or above the control names the qubit one higher. rng is a fresh numpy
    default_rng(seed), passed in so that this module stays free of library
    imports. Returns each job's (size, [(control, target), ...])."""
    jobs = []
    for _ in range(count):
        size = int(rng.integers(size_min, size_max + 1))
        pairs = []
        if size > 1:
            for _ in range(max(1, round(gate_density * size * (size - 1) / 2))):
                control = int(rng.integers(size))
                target = int(rng.integers(size - 1))
                pairs.append((control, target + 1 if target >= control else target))
        jobs.append((size, pairs))
    return jobs


# --- calibration CSV ----------------------------------------------------------

CSV_HEADER = "cycle,kind,subject,value"


def write_calibration_csv(series):
    """Calibration CSV text of a series: per cycle, a `cnot` row per edge in
    graph.edge_list order, then a `readout` row per qubit, each value written
    with repr. Loading it reproduces the series."""
    edges = series.graph.edge_list
    rows = [CSV_HEADER]
    for cycle, cnot, readout in zip(
        series.cycle_ids, series.cnot_error.tolist(), series.readout_error.tolist()
    ):
        rows += (f"{cycle},cnot,{u}-{v},{val!r}" for (u, v), val in zip(edges, cnot))
        rows += (f"{cycle},readout,{q},{val!r}" for q, val in enumerate(readout))
    return "\n".join(rows) + "\n"


def load_calibration_rows(text, edges, qubit_count):
    """The calibration CSV read line by line: each line and each of its four
    fields stripped, then checked in the documented order. edges are the
    graph's edges, sorted, whose positions are the CNOT columns. Returns the
    cycle ids and each cycle's CNOT and readout rows as lists, or raises
    ValueError naming the line, or the cycle with a missing rate."""
    lines = text.splitlines()
    if not lines or not any(ln.strip() for ln in lines):
        raise ValueError("no snapshots: calibration file is empty")
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise ValueError(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    edge_column = {e: j for j, e in enumerate(edges)}
    subjects = [*edges, *range(qubit_count)]
    ids, rows = [], []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {ln}: expected 4 fields, got {len(parts)}")
        cyc_s, kind, subject, val_s = (p.strip() for p in parts)
        try:
            cycle = int(cyc_s)
        except ValueError:
            raise ValueError(f"line {ln}: cycle {cyc_s!r} is not an integer") from None
        if cycle < 0:
            raise ValueError(f"line {ln}: cycle {cycle} is negative")
        try:
            value = float(val_s)
        except ValueError:
            raise ValueError(f"line {ln}: value {val_s!r} is not a number") from None
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"line {ln}: value {value} outside [0, 1]")
        if not ids or cycle != ids[-1]:
            if ids and cycle < ids[-1]:
                raise ValueError(f"line {ln}: cycle {cycle} breaks ascending cycle order")
            ids.append(cycle)
            rows.append([None] * len(subjects))
        if kind == "cnot":
            m = subject.split("-")
            if len(m) != 2:
                raise ValueError(f"line {ln}: cnot subject must be 'u-v', got {subject!r}")
            try:
                key = int(m[0]), int(m[1])
            except ValueError:
                raise ValueError(f"line {ln}: non-integer edge in {subject!r}") from None
            if key[0] >= key[1]:
                raise ValueError(f"line {ln}: edge subject must have u < v, got {subject!r}")
            if key not in edge_column:
                raise ValueError(f"line {ln}: unknown edge {subject!r} for this topology")
            j = edge_column[key]
        elif kind == "readout":
            try:
                key = int(subject)
            except ValueError:
                raise ValueError(f"line {ln}: readout subject {subject!r} is not an integer") from None
            if not 0 <= key < qubit_count:
                raise ValueError(f"line {ln}: unknown qubit {key} for this topology")
            j = len(edges) + key
        else:
            raise ValueError(f"line {ln}: kind must be 'cnot' or 'readout', got {kind!r}")
        if rows[-1][j] is not None:
            raise ValueError(f"line {ln}: duplicate {kind} entry for {subject!r}")
        rows[-1][j] = value

    if not ids:
        raise ValueError("no snapshots: calibration file has a header but no rows")
    for cycle, row in zip(ids, rows):
        missing = [subjects[j] for j, x in enumerate(row) if x is None]
        if missing:
            raise ValueError(f"cycle {cycle}: no rate for these edges and qubits: {missing}")
    return ids, [row[:len(edges)] for row in rows], [row[len(edges):] for row in rows]


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


def round_asks(sizes, qubit_count, answer):
    """The scheduler's documented rounds, replayed with a set of free qubits.

    sizes are the queued jobs' sizes in FIFO order, and answer(size, free)
    gives the qubits a job of that size takes from the ascending tuple free,
    or None when it does not fit. A round scans the pending jobs in order,
    placing each one that fits and skipping the rest, stops early once no
    qubit is free, and rescans until a scan places nothing. Returns the
    distinct (size, free) requests in the order first asked, and each
    round's (job index, members) placements.
    """
    asked = []
    rounds = []
    pending = list(range(len(sizes)))
    while pending:
        available = set(range(qubit_count))
        placed = []
        while True:
            placed_in_scan = False
            for job in list(pending):
                request = (sizes[job], tuple(sorted(available)))
                if request not in asked:
                    asked.append(request)
                members = answer(*request)
                if members is None:
                    continue
                available -= set(members)
                pending.remove(job)
                placed.append((job, tuple(members)))
                placed_in_scan = True
                if not available:
                    break
            if not placed_in_scan or not available:
                break
        if not placed:
            raise ValueError("a job cannot be placed even on idle hardware")
        rounds.append(placed)
    return asked, rounds


# --- detection ---------------------------------------------------------------
# The per-qubit KL reference: np.histogram and a dataclass per distribution,
# where the library counts every qubit's bins at once with searchsorted.


@dataclass(frozen=True)
class ErrorDistribution:
    """A binned probability distribution over error values."""

    bin_edges: tuple
    probabilities: tuple

    def __post_init__(self):
        if len(self.probabilities) != len(self.bin_edges) - 1:
            raise ValueError("need exactly one probability per bin")
        total = sum(self.probabilities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def build_distribution(samples, bin_edges, eps):
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


def kl_divergence(p, q):
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


def window_divergence(s1, s2, bins, eps):
    """KL divergence of one qubit's window-2 samples s2 from its window-1
    samples s1 (numpy arrays), on bins equal-width bins over their pooled
    range; 0 when the pooled samples are constant."""
    lo = min(s1.min(), s2.min())
    hi = max(s1.max(), s2.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    d1 = build_distribution(s1, edges, eps)
    d2 = build_distribution(s2, edges, eps)
    return kl_divergence(d1, d2)

"""Transpilation-cost proxy: parse, lay out, route, and score circuits.

The pipeline mirrors what production transpilers cost tenants without
simulating any quantum state. A circuit parsed from the supported grammar is
assigned an initial logical-to-physical layout inside its allocated
partition, two-qubit gates between non-adjacent carriers are made adjacent by
SWAP insertion along shortest paths inside the partition, and the result is
scored by ASAP depth, CNOT count, and an analytic success probability against
the true error rates.

Every gate is one Op tuple (kind, qubits, name, angle, clbit). A
LogicalCircuit holds "1q", "cnot" and "measure" ops on logical qubits. cost
is the one pricer: one walk over the logical ops that inserts SWAPs and
prices each SWAP (as the three CNOTs it compiles to) and each CNOT as it
makes them, and builds no routed op; the scheduler prices every placed job
with it. route is the op-level view of the same routing, for tests and the
benchmark's tracer: it returns the ops on physical qubits plus one "swap" op
per SWAP, which the tests replay and price with the reference schedulers in
tests/oracles.py. route and cost share one routing rule (_router), and take
the layout alone: the partition is the layout's image. depth and
pst_estimate each return one of cost's numbers.

Routing reads a path table that is built once per partition, not once per
call. It is a bounded cache of the last 512 partitions routed on, keyed by
the graph (which compares by value) and the partition's member set, and each
entry is a dict of one shortest-path tree per member, all built when the
partition is first routed. So the jobs of a run, and the seeds of a sweep,
that land on one partition share its trees. The bound holds the traffic
measured on hanoi27's 40-job preset: one simulate routes on fewer than 64
distinct partitions, a 20-seed sweep on 223 (greedy, H2) and 180 (comdap,
H1), and a 100-seed greedy sweep on 314 (H2) and 333 (H1). An entry's trees
take about 2.4 KB. Layout ranks qubits by allocation's per-snapshot CFM
order (cfm_rank).

Layout consumes the reported snapshot (the allocator's world view); the
success probability consumes the true snapshot. Both are one-cycle
CalibrationSeries. Keeping those apart is the whole point of the toolkit.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .allocation import cfm_rank
from .calibration import CalibrationSeries
from .errors import DataError
from .topology import CouplingGraph, bfs_tree, subset_members


class Op(NamedTuple):
    """One gate, logical or physical. kind is "1q" (name, and angle for
    rx/ry/rz), "cnot" (qubits are control, target), "measure" (into clbit), or
    "swap", which exchanges the contents of its two qubits, costs three CNOTs
    on that pair, and appears only in routed circuits."""

    kind: str
    qubits: tuple[int, ...]
    name: str | None = None
    angle: float | None = None
    clbit: int | None = None


# the qubit count of each kind a LogicalCircuit holds; "swap" is not one
_ARITY = {"1q": 1, "cnot": 2, "measure": 1}


@dataclass(frozen=True)
class LogicalCircuit:
    """A tenant program: qubit count plus ordered ops on logical indices."""

    qubit_count: int
    gates: tuple[Op, ...]
    clbit_count: int = 0

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be positive, got {self.qubit_count}")
        n, clbits = self.qubit_count, range(self.clbit_count)
        for kind, qubits, name, angle, clbit in self.gates:
            if _ARITY.get(kind) != len(qubits):
                raise ValueError(f"not a logical gate: {kind!r} op on qubits {qubits}")
            if kind == "1q" and name not in (ONE_QUBIT_GATES if angle is None else PARAM_GATES):
                raise ValueError(f"not a one-qubit gate: {name!r} with angle {angle}")
            for q in qubits:
                if not 0 <= q < n:
                    raise ValueError(f"logical qubit {q} out of range for {n} qubits")
            if kind == "cnot":
                if qubits[0] == qubits[1]:
                    raise ValueError(f"two-qubit gate with control == target == {qubits[0]}")
            elif kind == "measure" and clbit not in clbits:
                raise ValueError(f"clbit {clbit} out of range")


ONE_QUBIT_GATES = frozenset({"h", "x", "y", "z", "s", "t"})
PARAM_GATES = frozenset({"rx", "ry", "rz"})

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_REF = rf"({_ID})\s*\[\s*(\d+)\s*\]"
_RE_REG = re.compile(rf"^(qreg|creg)\s+{_REF}$")
_RE_1Q = re.compile(rf"^([a-z]+)(?:\s*\(([^()]*)\)\s*|\s+){_REF}$")
_RE_CX = re.compile(rf"^cx\s+{_REF}\s*,\s*{_REF}$")
_RE_MEASURE = re.compile(rf"^measure\s+{_REF}\s*->\s*{_REF}$")
_RE_PI_EXPR = re.compile(
    r"^([-+]?)(?:(\d+(?:\.\d*)?)\s*\*\s*)?pi(?:\s*/\s*(\d+(?:\.\d*)?))?$"
)
# what a missing register blocks, and what kind of register it is
_REG_WORDS = {"qreg": ("gate", "quantum"), "creg": ("measure", "classical")}


def _parse_angle(text: str, ln: int) -> float:
    expr = text.strip()
    if not expr:
        raise DataError(f"line {ln}: empty gate angle")
    try:
        return float(expr)
    except ValueError:
        pass
    m = _RE_PI_EXPR.match(expr)
    if not m:
        raise DataError(f"line {ln}: cannot parse angle {expr!r}")
    sign = -1.0 if m.group(1) == "-" else 1.0
    coeff = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    if div == 0:
        raise DataError(f"line {ln}: angle {expr!r} divides by zero")
    return sign * coeff * math.pi / div


def _parse_int(digits: str, ln: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        raise DataError(f"line {ln}: number of {len(digits)} digits is too long") from None


def parse_qasm_subset(text: str) -> LogicalCircuit:
    """Parse the supported circuit grammar into a LogicalCircuit.

    Supported statements: one `qreg`, one `creg`, gates h/x/y/z/s/t,
    rx/ry/rz(angle) (angle kept but not costed), `cx`, and
    `measure q[i] -> c[j]`. `OPENQASM ...;` headers and `include ...;` lines
    are tolerated and ignored; `//` starts a comment. A statement may span
    lines, which join without a separator, and is numbered by the line of its
    first character. Anything else raises DataError naming the line.
    """
    statements: list[tuple[int, str]] = []
    buf, buf_line = "", 0  # buf: the open statement, from its first non-space character
    for ln, raw in enumerate(text.splitlines(), start=1):
        *ended, rest = raw.split("//", 1)[0].split(";")
        for piece in ended:
            if stmt := (buf + piece).strip():
                statements.append((buf_line if buf else ln, stmt))
            buf = ""
        if not buf:
            buf_line = ln
        buf = (buf + rest).lstrip()
    if buf:
        raise DataError(f"line {buf_line}: unterminated statement (missing ';')")

    regs: dict[str, tuple[str, int]] = {}
    gates: list[Op] = []

    def index(kind: str, name: str, digits: str, ln: int) -> int:
        if kind not in regs:
            raise DataError(f"line {ln}: {_REG_WORDS[kind][0]} before {kind} declaration")
        if name != regs[kind][0]:
            raise DataError(f"line {ln}: unknown {_REG_WORDS[kind][1]} register {name!r}")
        i, size = _parse_int(digits, ln), regs[kind][1]
        if i >= size:
            raise DataError(f"line {ln}: index {i} overflows {kind} {name}[{size}]")
        return i

    for ln, stmt in statements:
        if stmt.startswith("OPENQASM") or stmt.startswith("include"):
            continue
        if m := _RE_REG.match(stmt):
            kind = m[1]
            if kind in regs:
                raise DataError(f"line {ln}: only one {kind} is supported")
            if (size := _parse_int(m[3], ln)) < 1:
                raise DataError(f"line {ln}: {kind} size must be positive")
            regs[kind] = (m[2], size)
        elif m := _RE_MEASURE.match(stmt):
            q = index("qreg", m[1], m[2], ln)
            gates.append(Op("measure", (q,), clbit=index("creg", m[3], m[4], ln)))
        elif m := _RE_CX.match(stmt):
            qc, qt = index("qreg", m[1], m[2], ln), index("qreg", m[3], m[4], ln)
            if qc == qt:
                raise DataError(f"line {ln}: cx control and target are both q[{qc}]")
            gates.append(Op("cnot", (qc, qt)))
        elif m := _RE_1Q.match(stmt):
            if m[1] not in (ONE_QUBIT_GATES if m[2] is None else PARAM_GATES):
                raise DataError(f"line {ln}: unknown gate {m[1]!r}")
            angle = None if m[2] is None else _parse_angle(m[2], ln)
            gates.append(Op("1q", (index("qreg", m[3], m[4], ln),), m[1], angle))
        else:
            raise DataError(f"line {ln}: unsupported statement {stmt!r}")

    if "qreg" not in regs:
        raise DataError("no qreg declaration found")
    return LogicalCircuit(
        qubit_count=regs["qreg"][1],
        gates=tuple(gates),
        clbit_count=regs["creg"][1] if "creg" in regs else 0,
    )


def circuit_to_qasm(c: LogicalCircuit) -> str:
    """Emit circuit text that parse_qasm_subset reads back identically."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.qubit_count}];"]
    if c.clbit_count:
        lines.append(f"creg c[{c.clbit_count}];")
    for kind, qubits, name, angle, clbit in c.gates:
        if kind == "cnot":
            lines.append(f"cx q[{qubits[0]}],q[{qubits[1]}];")
        elif kind == "measure":
            lines.append(f"measure q[{qubits[0]}] -> c[{clbit}];")
        elif angle is None:
            lines.append(f"{name} q[{qubits[0]}];")
        else:
            lines.append(f"{name}({angle!r}) q[{qubits[0]}];")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RoutedCircuit:
    physical_ops: tuple[Op, ...]
    swap_count: int


def initial_layout(
    c: LogicalCircuit, members: Sequence[int], snap: CalibrationSeries
) -> dict[int, int]:
    """Deterministic fidelity-greedy placement of logical onto physical qubits.

    Logical qubits are placed in descending order of two-qubit-gate
    participation (ties toward the lower logical index). Each is put on the
    unused partition qubit with the highest CFM on snap, the reported
    snapshot, restricted to qubits adjacent to an already-placed interaction
    partner whenever that set is non-empty. Ties break toward the lower
    physical index.
    """
    if len(members) != c.qubit_count:
        raise ValueError(
            f"partition size {len(members)} != circuit qubit count {c.qubit_count}"
        )
    participation = [0] * c.qubit_count
    partners: list[set[int]] = [set() for _ in range(c.qubit_count)]
    for kind, qubits, _, _, _ in c.gates:
        if kind == "cnot":
            a, b = qubits
            participation[a] += 1
            participation[b] += 1
            partners[a].add(b)
            partners[b].add(a)
    order = sorted(range(c.qubit_count), key=lambda l: (-participation[l], l))

    layout: dict[int, int] = {}
    g = snap.graph
    rank = cfm_rank(snap)
    unused = set(subset_members(members))
    for logical in order:
        preferred = {
            q for p in partners[logical] if p in layout for q in g.neighbors(layout[p])
        }
        preferred &= unused
        chosen = min(preferred or unused, key=rank.__getitem__)
        layout[logical] = chosen
        unused.discard(chosen)
    return layout


class _Paths(dict):
    """The shortest paths from one source qubit inside a partition: each reached
    qubit maps to the inner qubits of its path, in walking order, read from one
    bfs_tree (a qubit's path is its parent's plus the parent). Looking up a
    qubit the source does not reach raises the "no path" ValueError."""

    __slots__ = ("allowed", "src")

    def __init__(self, g: CouplingGraph, allowed: frozenset[int], src: int) -> None:
        super().__init__()
        self.allowed, self.src = allowed, src
        for q, parent in bfs_tree(g, allowed, src).items():  # a parent before its children
            self[q] = () if parent == src else self[parent] + (parent,)

    def __missing__(self, q: int) -> tuple[int, ...]:
        raise ValueError(
            f"partition {sorted(self.allowed)} is disconnected: no path {self.src} -> {q}"
        )


@functools.lru_cache(maxsize=512)
def _path_table(g: CouplingGraph, allowed: frozenset[int]) -> dict[int, _Paths]:
    """One partition's paths: each member's _Paths, keyed by the member as source."""
    return {src: _Paths(g, allowed, src) for src in sorted(allowed)}


def _router(
    c: LogicalCircuit, layout: dict[int, int], g: CouplingGraph
) -> tuple[dict[int, int], dict[int, int], dict[int, _Paths]]:
    """The routing rule that route and cost share. The partition is the
    layout's image; the layout must map exactly the logical qubits
    0..qubit_count-1, each to its own qubit. Returns the logical-to-physical
    and physical-to-logical maps to update as SWAPs move qubits, and paths,
    whose [a][b] is the inner qubits of the shortest path from a to b inside
    the partition's induced subgraph. paths is the partition's entry in the
    path table (_path_table, the last 512 partitions, keyed by (g, the
    image's frozenset)), built on its first call, which checks every
    member's index, so an out-of-range member raises even with no CNOT.
    """
    l2p = dict(layout)
    allowed = frozenset(l2p.values())
    if set(l2p) != set(range(c.qubit_count)) or len(allowed) != c.qubit_count:
        raise ValueError("layout must be a bijection from logical qubits onto the partition")
    return l2p, {p: l for l, p in l2p.items()}, _path_table(g, allowed)


def route(c: LogicalCircuit, layout: dict[int, int], g: CouplingGraph) -> RoutedCircuit:
    """Make every two-qubit gate executable by shortest-path SWAP insertion.

    Ops are processed in circuit order. A one-qubit or measure op moves to
    its qubit's current carrier, keeping its name, angle and clbit. When a
    CNOT's carriers are not adjacent, the control's carrier walks a shortest
    path inside the partition's induced subgraph (_router), one SWAP per hop,
    until adjacency; the CNOT is then emitted. Each SWAP is one "swap" op on
    its hop's pair. Routing never leaves the partition and never emits a
    CNOT or SWAP on a non-edge.
    """
    l2p, p2l, paths = _router(c, layout, g)
    ops: list[Op] = []
    swap_count = 0

    for kind, qubits, name, angle, clbit in c.gates:
        if kind != "cnot":
            ops.append(Op(kind, (l2p[qubits[0]],), name, angle, clbit))
        else:
            pc, pt = l2p[qubits[0]], l2p[qubits[1]]
            for step in paths[pc][pt]:
                ops.append(Op("swap", (pc, step)))
                swap_count += 1
                lc, ls = p2l[pc], p2l[step]
                l2p[lc], l2p[ls] = step, pc
                p2l[pc], p2l[step] = ls, lc
                pc = step
            ops.append(Op("cnot", (pc, pt)))

    return RoutedCircuit(physical_ops=tuple(ops), swap_count=swap_count)


def cost(
    c: LogicalCircuit, layout: dict[int, int], snap_true: CalibrationSeries
) -> tuple[int, int, int, float]:
    """Depth, CNOT count, SWAP count and PST of c as route routes it on
    snap_true's graph, priced against snap_true in one walk that builds no op.

    Each SWAP and CNOT is priced as it is made, a SWAP as the three CNOTs on
    its pair that it compiles to. Depth: a one-qubit op, measure or CNOT
    occupies its qubits for one layer and a SWAP for three; each starts once
    all of its qubits are free. CNOTs: every logical CNOT plus three per
    SWAP. PST: the product of (1 - cnot_error) over every CNOT in routed
    order, a SWAP's three taken as three successive factors, then of
    (1 - readout_error) over the distinct measured physical qubits in
    ascending order; one-qubit gates are error-free. route's ValueErrors are
    raised as route raises them.
    """
    g = snap_true.graph
    l2p, p2l, paths = _router(c, layout, g)
    (cnot, readout), column = snap_true.rates, g.edge_column
    ready = dict.fromkeys(p2l, 0)
    total = cnots = swaps = 0
    p = 1.0
    measured: set[int] = set()
    for kind, qubits, _, _, _ in c.gates:
        if kind != "cnot":
            a = l2p[qubits[0]]
            t = ready[a] + 1
            ready[a] = t
            if kind == "measure":
                measured.add(a)
        else:
            pc, pt = l2p[qubits[0]], l2p[qubits[1]]
            for step in paths[pc][pt]:
                ta, tb = ready[pc], ready[step]
                ready[pc] = ready[step] = (ta if ta > tb else tb) + 3
                f = 1.0 - cnot[column[pc, step]]
                p *= f
                p *= f
                p *= f
                lc, ls = p2l[pc], p2l[step]
                l2p[lc], l2p[ls] = step, pc
                p2l[pc], p2l[step] = ls, lc
                pc = step
                swaps += 1
            ta, tb = ready[pc], ready[pt]
            t = (ta if ta > tb else tb) + 1  # later than every SWAP that moved pc
            ready[pc] = ready[pt] = t
            p *= 1.0 - cnot[column[pc, pt]]
            cnots += 1
        if t > total:
            total = t
    for q in sorted(measured):
        p *= 1.0 - readout[q]
    return total, cnots + 3 * swaps, swaps, p


def depth(c: LogicalCircuit, layout: dict[int, int], snap_true: CalibrationSeries) -> int:
    """cost's depth. Kept only because bench/tracing.py's TRACED names it; it
    goes with the next change to the benchmark's definition (ROADMAP item 4)."""
    return cost(c, layout, snap_true)[0]


def pst_estimate(c: LogicalCircuit, layout: dict[int, int], snap_true: CalibrationSeries) -> float:
    """cost's PST. Kept only because bench/tracing.py's TRACED names it; it
    goes with the next change to the benchmark's definition (ROADMAP item 4)."""
    return cost(c, layout, snap_true)[3]

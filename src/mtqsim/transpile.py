"""Transpilation-cost proxy: parse, lay out, route, and score circuits.

The pipeline mirrors what production transpilers cost tenants without
simulating any quantum state. A circuit parsed from the supported grammar is
assigned an initial logical-to-physical layout inside its allocated
partition, two-qubit gates between non-adjacent carriers are made adjacent by
SWAP insertion along shortest paths inside the partition, and the result is
scored by ASAP depth, CNOT count, and an analytic success probability against
the true error rates.

A SWAP is one shared routing-CNOT op listed three times. score computes all
three measures in one walk over the ops; depth, cnot_count and pst_estimate
each read one of them.

Layout consumes the reported snapshot (the allocator's world view); the
success probability consumes the true snapshot. Keeping those apart is the
whole point of the toolkit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .allocation import ScoringContext
from .calibration import CalibrationSnapshot
from .errors import DataError
from .topology import CouplingGraph, bfs_tree, tree_path


@dataclass(frozen=True)
class OneQubitGate:
    name: str
    qubit: int
    angle: float | None = None


@dataclass(frozen=True)
class TwoQubitGate:
    control: int
    target: int


@dataclass(frozen=True)
class MeasureGate:
    qubit: int
    clbit: int


Gate = OneQubitGate | TwoQubitGate | MeasureGate


@dataclass(frozen=True)
class LogicalCircuit:
    """A tenant program: qubit count plus ordered gates on logical indices."""

    qubit_count: int
    gates: tuple[Gate, ...]
    clbit_count: int = 0

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError(f"qubit_count must be positive, got {self.qubit_count}")
        for gate in self.gates:
            if isinstance(gate, OneQubitGate):
                self._check(gate.qubit)
            elif isinstance(gate, TwoQubitGate):
                self._check(gate.control)
                self._check(gate.target)
                if gate.control == gate.target:
                    raise ValueError(f"two-qubit gate with control == target == {gate.control}")
            else:
                self._check(gate.qubit)
                if not (0 <= gate.clbit < self.clbit_count):
                    raise ValueError(f"clbit {gate.clbit} out of range")

    def _check(self, q: int) -> None:
        if not (0 <= q < self.qubit_count):
            raise ValueError(f"logical qubit {q} out of range for {self.qubit_count} qubits")

    @property
    def two_qubit_gates(self) -> tuple[TwoQubitGate, ...]:
        return tuple(g for g in self.gates if isinstance(g, TwoQubitGate))


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
    gates: list[Gate] = []

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
            gates.append(MeasureGate(index("qreg", m[1], m[2], ln), index("creg", m[3], m[4], ln)))
        elif m := _RE_CX.match(stmt):
            qc, qt = index("qreg", m[1], m[2], ln), index("qreg", m[3], m[4], ln)
            if qc == qt:
                raise DataError(f"line {ln}: cx control and target are both q[{qc}]")
            gates.append(TwoQubitGate(qc, qt))
        elif m := _RE_1Q.match(stmt):
            if m[1] not in (ONE_QUBIT_GATES if m[2] is None else PARAM_GATES):
                raise DataError(f"line {ln}: unknown gate {m[1]!r}")
            angle = None if m[2] is None else _parse_angle(m[2], ln)
            gates.append(OneQubitGate(m[1], index("qreg", m[3], m[4], ln), angle))
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
    for gate in c.gates:
        if isinstance(gate, OneQubitGate):
            if gate.angle is None:
                lines.append(f"{gate.name} q[{gate.qubit}];")
            else:
                lines.append(f"{gate.name}({gate.angle!r}) q[{gate.qubit}];")
        elif isinstance(gate, TwoQubitGate):
            lines.append(f"cx q[{gate.control}],q[{gate.target}];")
        else:
            lines.append(f"measure q[{gate.qubit}] -> c[{gate.clbit}];")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PhysOp:
    """One operation on physical qubits. routing marks SWAP-constituent CNOTs."""

    kind: str  # "1q" | "cnot" | "measure"
    qubits: tuple[int, ...]
    name: str | None = None
    clbit: int | None = None
    routing: bool = False


@dataclass(frozen=True)
class RoutedCircuit:
    partition: tuple[int, ...]
    initial_layout: dict[int, int]
    physical_ops: tuple[PhysOp, ...]
    swap_count: int


def initial_layout(
    c: LogicalCircuit, members: Sequence[int], ctx: ScoringContext
) -> dict[int, int]:
    """Deterministic fidelity-greedy placement of logical onto physical qubits.

    Logical qubits are placed in descending order of two-qubit-gate
    participation (ties toward the lower logical index). Each is put on the
    unused partition qubit with the highest reported CFM, restricted to
    qubits adjacent to an already-placed interaction partner whenever that
    set is non-empty. Ties break toward the lower physical index.
    """
    if len(members) != c.qubit_count:
        raise ValueError(
            f"partition size {len(members)} != circuit qubit count {c.qubit_count}"
        )
    participation = [0] * c.qubit_count
    partners: list[set[int]] = [set() for _ in range(c.qubit_count)]
    for gate in c.two_qubit_gates:
        participation[gate.control] += 1
        participation[gate.target] += 1
        partners[gate.control].add(gate.target)
        partners[gate.target].add(gate.control)
    order = sorted(range(c.qubit_count), key=lambda l: (-participation[l], l))

    layout: dict[int, int] = {}
    g = ctx.graph
    unused = set(members)
    for logical in order:
        preferred = {
            q for p in partners[logical] if p in layout for q in g.neighbors(layout[p])
        }
        preferred &= unused
        chosen = min(preferred or unused, key=lambda p: (-ctx.cfm(p), p))
        layout[logical] = chosen
        unused.discard(chosen)
    return layout


def route(
    c: LogicalCircuit,
    layout: dict[int, int],
    members: Sequence[int],
    g: CouplingGraph,
) -> RoutedCircuit:
    """Make every two-qubit gate executable by shortest-path SWAP insertion.

    Gates are processed in circuit order. When a two-qubit gate's carriers
    are not adjacent, the control's carrier walks a shortest path inside the
    partition's induced subgraph, one SWAP per hop, until adjacency; the
    gate's CNOT is then emitted. A SWAP is one routing-flagged CNOT op,
    listed three times (the op is frozen, so sharing it is safe). Paths are
    read from one bfs_tree per source qubit, built on first use. Routing
    never leaves the partition and never emits a CNOT on a non-edge.
    """
    allowed = set(members)
    l2p = dict(layout)
    if (
        len(allowed) != c.qubit_count
        or set(l2p) != set(range(c.qubit_count))
        or set(l2p.values()) != allowed
    ):
        raise ValueError("layout must be a bijection from logical qubits onto the partition")
    p2l = {p: l for l, p in l2p.items()}
    trees: dict[int, dict[int, int]] = {}
    ops: list[PhysOp] = []
    swap_count = 0

    for gate in c.gates:
        if isinstance(gate, OneQubitGate):
            ops.append(PhysOp("1q", (l2p[gate.qubit],), name=gate.name))
        elif isinstance(gate, MeasureGate):
            ops.append(PhysOp("measure", (l2p[gate.qubit],), clbit=gate.clbit))
        else:
            pc, pt = l2p[gate.control], l2p[gate.target]
            if pc not in trees:
                trees[pc] = bfs_tree(g, allowed, pc)
            if pt not in trees[pc]:
                raise ValueError(
                    f"partition {sorted(allowed)} is disconnected: no path {pc} -> {pt}"
                )
            for step in tree_path(trees[pc], pt)[1:-1]:
                swap = PhysOp("cnot", (pc, step), routing=True)
                ops += (swap, swap, swap)
                swap_count += 1
                lc, ls = p2l[pc], p2l[step]
                l2p[lc], l2p[ls] = step, pc
                p2l[pc], p2l[step] = ls, lc
                pc = step
            ops.append(PhysOp("cnot", (pc, pt)))

    return RoutedCircuit(
        partition=tuple(members),
        initial_layout=dict(layout),
        physical_ops=tuple(ops),
        swap_count=swap_count,
    )


def score(
    r: RoutedCircuit, snap_true: CalibrationSnapshot | None
) -> tuple[int, int, float | None]:
    """ASAP depth, CNOT count and analytic PST of a routed circuit, in one walk.

    Depth: every physical op occupies its qubits for one layer and starts
    once all of them are free. CNOTs: every emitted CNOT, routing CNOTs
    included. PST: the product of (1 - cnot_error) over every CNOT in op
    order, then of (1 - readout_error) over the distinct measured physical
    qubits in ascending order, against the true snapshot; one-qubit gates
    are error-free. PST is None, and no product is taken, when snap_true is
    None.
    """
    rates = None if snap_true is None else snap_true.cnot_error
    ready = dict.fromkeys(r.partition, 0)
    total = cnots = 0
    p = 1.0
    measured: set[int] = set()
    for op in r.physical_ops:
        if op.kind == "cnot":
            a, b = op.qubits
            ta, tb = ready[a], ready[b]
            t = (ta if ta > tb else tb) + 1
            ready[a] = ready[b] = t
            cnots += 1
            if rates is not None:
                p *= 1.0 - rates[(a, b) if a < b else (b, a)]
        else:
            (a,) = op.qubits
            t = ready[a] + 1
            ready[a] = t
            if op.kind == "measure":
                measured.add(a)
        if t > total:
            total = t
    if rates is None:
        return total, cnots, None
    for q in sorted(measured):
        p *= 1.0 - snap_true.readout_error[q]
    return total, cnots, p


def depth(r: RoutedCircuit) -> int:
    """ASAP schedule length; every physical op occupies its qubits one layer."""
    return score(r, None)[0]


def cnot_count(r: RoutedCircuit) -> int:
    """All emitted CNOTs, routing CNOTs included."""
    return score(r, None)[1]


def pst_estimate(r: RoutedCircuit, snap_true: CalibrationSnapshot) -> float:
    """Analytic success probability against the true snapshot (see score)."""
    return score(r, snap_true)[2]

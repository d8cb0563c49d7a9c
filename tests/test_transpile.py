import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from strategies import angled_circuit, routing_case
from mtqsim.calibration import uniform_snapshot, validate_snapshot
from mtqsim.errors import DataError
from mtqsim.topology import CouplingGraph, hanoi27
from mtqsim.transpile import (
    LogicalCircuit,
    Op,
    circuit_to_qasm,
    cost,
    initial_layout,
    parse_qasm_subset,
    route,
)

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))


def test_parse_minimal():
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1];")
    assert c.qubit_count == 2
    assert c.gates == (Op("cnot", (0, 1)),)


def test_parse_h_measure():
    c = parse_qasm_subset("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];")
    assert c.gates == (Op("1q", (0,), "h"), Op("measure", (0,), clbit=0))


# one op per check LogicalCircuit makes, on 2 qubits and 1 clbit, with its message
MALFORMED_OPS = {
    "unknown-kind": (Op("cz", (0, 1)), "not a logical gate: 'cz' op on qubits (0, 1)"),
    "swap": (Op("swap", (0, 1)), "not a logical gate: 'swap' op on qubits (0, 1)"),
    "one-qubit-cnot": (Op("cnot", (0,)), "not a logical gate: 'cnot' op on qubits (0,)"),
    "control-is-target": (Op("cnot", (1, 1)), "two-qubit gate with control == target == 1"),
    "qubit-out-of-range": (Op("1q", (2,), "h"), "logical qubit 2 out of range for 2 qubits"),
    "clbit-out-of-range": (Op("measure", (0,), clbit=1), "clbit 1 out of range"),
    # one-qubit ops that circuit_to_qasm would write as text parse_qasm_subset rejects
    "1q-no-name": (Op("1q", (0,)), "not a one-qubit gate: None with angle None"),
    "1q-unknown-name": (Op("1q", (0,), "u", 0.5), "not a one-qubit gate: 'u' with angle 0.5"),
    "1q-angled-h": (Op("1q", (0,), "h", 0.5), "not a one-qubit gate: 'h' with angle 0.5"),
    "1q-rx-no-angle": (Op("1q", (0,), "rx"), "not a one-qubit gate: 'rx' with angle None"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_OPS))
def test_logical_circuit_rejects_a_malformed_op(name):
    op, message = MALFORMED_OPS[name]
    with pytest.raises(ValueError) as info:
        LogicalCircuit(2, (Op("1q", (0,), "h"), op), 1)
    assert str(info.value) == message


def test_ops_of_different_kinds_compare_unequal():
    ops = [
        Op("cnot", (0, 1)),
        Op("swap", (0, 1)),
        Op("1q", (0,), "h"),
        Op("1q", (0,), "rx", 0.5),
        Op("measure", (0,), clbit=0),
    ]
    for i, a in enumerate(ops):
        assert [a == b for b in ops] == [j == i for j in range(len(ops))]


def test_a_routed_rotation_keeps_its_name_and_angle():
    # the swap moves logical 0 from physical 0 to 1; logical 1 stays on physical 2
    c = parse_qasm_subset(
        "qreg q[3]; creg c[1]; rx(pi/4) q[1]; cx q[0],q[1]; rz(-0.5) q[0]; measure q[1] -> c[0];"
    )
    r = route(c, {0: 0, 1: 2, 2: 1}, (0, 1, 2), P3)
    assert r.physical_ops == (
        Op("1q", (2,), "rx", np.pi / 4),
        Op("swap", (0, 1)),
        Op("cnot", (1, 2)),
        Op("1q", (1,), "rz", -0.5),
        Op("measure", (2,), clbit=0),
    )
    assert oracles.replay_routed(c, r) == 1


def test_parse_rejects_self_cx():
    with pytest.raises(DataError):
        parse_qasm_subset("qreg q[2]; cx q[0],q[0];")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 3"):
        parse_qasm_subset("OPENQASM 2.0;\nqreg q[2];\nnope q[0];\n")
    with pytest.raises(DataError):
        parse_qasm_subset("qreg q[2]; h q[5];")


def test_parse_tolerates_header_comments_and_angles():
    text = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "// entangler\n"
        "qreg q[2]; creg c[2];\n"
        "rx(pi/2) q[0];\n"
        "rz(0.25) q[1];\n"
        "cx q[0],q[1];\n"
    )
    c = parse_qasm_subset(text)
    assert [gt.kind for gt in c.gates] == ["1q", "1q", "cnot"]
    assert c.gates[0].angle == pytest.approx(np.pi / 2)


# one malformed text per DataError branch of parse_qasm_subset, with its exact message
MALFORMED_QASM = {
    "unterminated": ("qreg q[2];\nh q[0]", "line 2: unterminated statement (missing ';')"),
    "unterminated-spans-lines": (
        "qreg q[2]; // fine\n\n  cx q[0],\nq[1] // no semicolon\n",
        "line 3: unterminated statement (missing ';')",
    ),
    "second-qreg": ("qreg q[2];\nqreg r[2];", "line 2: only one qreg is supported"),
    "second-creg": ("qreg q[2]; creg c[1]; creg d[1];", "line 1: only one creg is supported"),
    "qreg-size-0": ("qreg q[0];", "line 1: qreg size must be positive"),
    "creg-size-0": ("qreg q[1]; creg c[0];", "line 1: creg size must be positive"),
    "gate-before-qreg": ("h q[0];", "line 1: gate before qreg declaration"),
    "cx-before-qreg": ("creg c[1]; cx q[0],q[1];", "line 1: gate before qreg declaration"),
    "measure-before-creg": (
        "qreg q[1]; measure q[0] -> c[0];", "line 1: measure before creg declaration"
    ),
    "measure-qubit-before-creg": (
        "qreg q[1]; measure q[1] -> c[0];", "line 1: index 1 overflows qreg q[1]"
    ),
    "unknown-qreg": ("qreg q[2]; h r[0];", "line 1: unknown quantum register 'r'"),
    "unknown-qreg-angled": ("qreg q[2]; rx(pi) r[0];", "line 1: unknown quantum register 'r'"),
    "unknown-qreg-cx-target": ("qreg q[2]; cx q[0],r[1];", "line 1: unknown quantum register 'r'"),
    "unknown-creg": (
        "qreg q[1]; creg c[1]; measure q[0] -> d[0];", "line 1: unknown classical register 'd'"
    ),
    "qubit-overflow": ("qreg q[2]; h q[2];", "line 1: index 2 overflows qreg q[2]"),
    "qubit-overflow-cx": ("qreg q[2]; cx q[0],q[2];", "line 1: index 2 overflows qreg q[2]"),
    "clbit-overflow": (
        "qreg q[2]; creg c[1]; measure q[1] -> c[1];", "line 1: index 1 overflows creg c[1]"
    ),
    "cx-same-qubit": ("qreg q[2]; cx q[1], q[1];", "line 1: cx control and target are both q[1]"),
    "unknown-gate": ("qreg q[1]; u q[0];", "line 1: unknown gate 'u'"),
    "unknown-angled-gate": ("qreg q[1]; h(0.5) q[0];", "line 1: unknown gate 'h'"),
    "angled-gate-name-first": ("qreg q[1]; u(2pi) r[0];", "line 1: unknown gate 'u'"),
    "bad-angle": ("qreg q[1]; rx(2pi) q[0];", "line 1: cannot parse angle '2pi'"),
    "bad-angle-before-qubit": ("qreg q[1]; ry(2pi) r[0];", "line 1: cannot parse angle '2pi'"),
    "empty-angle": ("qreg q[1]; rz( ) q[0];", "line 1: empty gate angle"),
    "angle-divides-by-zero": ("qreg q[1]; rx(pi/0) q[0];", "line 1: angle 'pi/0' divides by zero"),
    "angle-divides-by-zero-point-zero": (
        "qreg q[1];\nry(-2*pi/0.0) q[0];", "line 2: angle '-2*pi/0.0' divides by zero"
    ),
    # int() refuses over 4,300 digits by default
    "qreg-size-too-long": (
        f"qreg q[{'9' * 4301}];", "line 1: number of 4301 digits is too long"
    ),
    "index-too-long": (
        f"qreg q[2];\nh q[{'9' * 4301}];", "line 2: number of 4301 digits is too long"
    ),
    "unsupported": ("qreg q[1]; barrier q;", "line 1: unsupported statement 'barrier q'"),
    "unsupported-no-space": ("qreg q[1]; hq[0];", "line 1: unsupported statement 'hq[0]'"),
    "lines-join-without-space": ("qreg\nq[2];", "line 1: unsupported statement 'qregq[2]'"),
    "spans-lines": (
        "OPENQASM 2.0;\nqreg q[2];\n\n  h\n  q[5];", "line 4: index 5 overflows qreg q[2]"
    ),
    "no-qreg": ("OPENQASM 2.0;\ncreg c[1];", "no qreg declaration found"),
    "empty": ("", "no qreg declaration found"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_QASM))
def test_parse_rejects_malformed_text_with_its_message(name):
    text, message = MALFORMED_QASM[name]
    with pytest.raises(DataError) as info:
        parse_qasm_subset(text)
    assert str(info.value) == message


def test_parse_checks_the_register_before_reading_a_long_index():
    # int() may refuse an index of over 4,300 digits; the register's own error comes first
    long = "9" * 4301
    with pytest.raises(DataError, match="line 1: gate before qreg declaration"):
        parse_qasm_subset(f"h q[{long}];")
    with pytest.raises(DataError, match="line 1: unknown quantum register 'r'"):
        parse_qasm_subset(f"qreg q[2]; cx q[0],r[{long}];")


def test_qasm_round_trip():
    text = "qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; measure q[2] -> c[0];"
    c = parse_qasm_subset(text)
    again = parse_qasm_subset(circuit_to_qasm(c))
    assert again == c


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(angled_circuit())
def test_qasm_round_trip_holds_for_any_circuit(c):
    assert parse_qasm_subset(circuit_to_qasm(c)) == c


def test_initial_layout_trivial_and_busiest():
    s = uniform_snapshot(P3, 0.02, 0.01)
    one = parse_qasm_subset("qreg q[1];")
    assert initial_layout(one, (2,), s) == {0: 2}
    # logical 0 participates in both cnots; physical 1 has the highest CFM
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
    lay = initial_layout(c, (0, 1), s)
    assert lay[0] == 1
    assert sorted(lay.values()) == [0, 1]


def test_initial_layout_bijection_and_mismatch():
    g = hanoi27()
    s = uniform_snapshot(g, 0.02, 0.02)
    c = parse_qasm_subset("qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    lay = initial_layout(c, (1, 2, 3, 4), s)
    assert sorted(lay.keys()) == [0, 1, 2, 3]
    assert sorted(lay.values()) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        initial_layout(c, (1, 2, 3), s)


def test_route_adjacent_pair():
    s = uniform_snapshot(P3, 0.02, 0.01)
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1];")
    r = route(c, {0: 0, 1: 1}, (0, 1), P3)
    assert r.swap_count == 0
    d, cnots, _, _ = cost(c, {0: 0, 1: 1}, (0, 1), s)
    assert cnots == 1
    assert d == 1


def test_route_p3_long_range():
    """CNOT between the endpoints of a path costs one SWAP run plus the CNOT."""
    c = parse_qasm_subset("qreg q[3]; cx q[0],q[1];")
    r = route(c, {0: 0, 1: 2, 2: 1}, (0, 1, 2), P3)
    assert r.swap_count == 1
    assert [(op.kind, op.qubits) for op in r.physical_ops] == [("swap", (0, 1)), ("cnot", (1, 2))]
    d, cnots, _, _ = cost(c, {0: 0, 1: 2, 2: 1}, (0, 1, 2), uniform_snapshot(P3, 0.02, 0.01))
    assert cnots == 4
    assert d == 4
    assert oracles.replay_routed(c, r) == 1


def test_route_rejects_a_disconnected_partition():
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1];")
    with pytest.raises(ValueError, match="no path 0 -> 2"):
        route(c, {0: 0, 1: 2}, (0, 2), P3)
    with pytest.raises(ValueError, match="no path 0 -> 2"):
        cost(c, {0: 0, 1: 2}, (0, 2), uniform_snapshot(P3, 0.01, 0.01))


def test_route_rejects_a_many_to_one_layout():
    # both logical qubits on physical 1 would route cx q[0],q[1] as a CNOT on (1, 1)
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1];")
    with pytest.raises(ValueError, match="layout must be a bijection"):
        route(c, {0: 1, 1: 1}, (1,), P3)
    with pytest.raises(ValueError, match="layout must be a bijection"):
        cost(c, {0: 1, 1: 1}, (1,), uniform_snapshot(P3, 0.01, 0.01))


def test_route_takes_the_lowest_shortest_path():
    # on the 4-cycle 0-1-3-2 both 0-1-3 and 0-2-3 are shortest; neighbors scan ascending
    g = CouplingGraph(4, frozenset({(0, 1), (1, 3), (0, 2), (2, 3)}))
    c = parse_qasm_subset("qreg q[4]; cx q[0],q[1];")
    r = route(c, {0: 0, 1: 3, 2: 1, 3: 2}, (0, 1, 2, 3), g)
    assert [(op.kind, op.qubits) for op in r.physical_ops] == [("swap", (0, 1)), ("cnot", (1, 3))]
    assert [op.qubits for op in oracles.expand_swaps(r.physical_ops)] == [(0, 1)] * 3 + [(1, 3)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(routing_case())
def test_route_emits_the_oracle_swaps_and_cnots(case):
    """Every SWAP and CNOT route emits, in order, is the oracle's: the shortest
    path that a breadth-first search from the control's carrier finds first."""
    g, _, members, c, layout = case
    r = route(c, layout, members, g)
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    gates = [(op.kind, op.qubits) for op in c.gates]
    expected = oracles.routed_pairs(adj, members, gates, layout)
    assert [(op.kind, op.qubits) for op in r.physical_ops if op.kind in ("swap", "cnot")] == expected


def test_route_stays_on_edges_and_preserves_interactions():
    g = hanoi27()
    s = uniform_snapshot(g, 0.02, 0.02)
    adj = oracles.adjacency(g.edge_list, 27)
    edge_set = set(g.edge_list)
    rng = np.random.default_rng(1234)
    for trial in range(60):
        size = int(rng.integers(2, 7))
        # grow a random connected partition
        start = int(rng.integers(0, 27))
        members = [start]
        while len(members) < size:
            frontier = sorted(
                {y for x in members for y in adj[x]} - set(members)
            )
            if not frontier:
                break
            members.append(int(rng.choice(frontier)))
        if len(members) < size:
            continue
        n_gates = int(rng.integers(1, 12))
        gates = []
        for _ in range(n_gates):
            a = int(rng.integers(0, size))
            b = int(rng.integers(0, size - 1))
            if b >= a:
                b += 1
            gates.append(Op("cnot", (a, b)))
        for q in range(size):
            gates.append(Op("measure", (q,), clbit=q))
        c = LogicalCircuit(size, tuple(gates), size)
        lay = initial_layout(c, tuple(members), s)
        r = route(c, lay, tuple(members), g)
        for op in oracles.expand_swaps(r.physical_ops):
            if op.kind == "cnot":
                u, v = sorted(op.qubits)
                assert (u, v) in edge_set
                assert set(op.qubits) <= set(members)
        swaps = oracles.replay_routed(c, r)
        assert swaps == r.swap_count
        assert cost(c, lay, tuple(members), s)[1] == n_gates + 3 * r.swap_count


def test_depth_parallel_pairs():
    g = CouplingGraph(4, frozenset({(0, 1), (2, 3), (1, 2)}))
    c = parse_qasm_subset("qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    s = uniform_snapshot(g, 0.02, 0.02)
    d, _, swaps, _ = cost(c, {0: 0, 1: 1, 2: 2, 3: 3}, (0, 1, 2, 3), s)
    assert swaps == 0
    assert d == 1


def test_depth_lower_bound():
    g = hanoi27()
    s = uniform_snapshot(g, 0.02, 0.02)
    c = parse_qasm_subset(
        "qreg q[3]; cx q[0],q[1]; cx q[0],q[2]; cx q[0],q[1]; cx q[1],q[2];"
    )
    lay = initial_layout(c, (11, 14, 16), s)
    r = route(c, lay, (11, 14, 16), g)
    per_qubit = {}
    for op in oracles.expand_swaps(r.physical_ops):
        for q in op.qubits:
            per_qubit[q] = per_qubit.get(q, 0) + 1
    assert cost(c, lay, (11, 14, 16), s)[0] >= max(per_qubit.values())


def test_pst_examples():
    g = CouplingGraph(2, frozenset({(0, 1)}))
    s = validate_snapshot(g, {(0, 1): 0.1}, {0: 0.5, 1: 0.5})
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1];")
    assert cost(c, {0: 0, 1: 1}, (0, 1), s)[3] == pytest.approx(0.9, abs=1e-12)

    empty = LogicalCircuit(2, (), 0)
    assert cost(empty, {0: 0, 1: 1}, (0, 1), s)[3] == 1.0


def test_pst_p3_hand_product():
    s = validate_snapshot(P3, {(0, 1): 0.02, (1, 2): 0.02}, {0: 0.01, 1: 0.01, 2: 0.01})
    c = parse_qasm_subset(
        "qreg q[3]; creg c[2]; cx q[0],q[1]; measure q[0] -> c[0]; measure q[1] -> c[1];"
    )
    _, _, swaps, pst = cost(c, {0: 0, 1: 2, 2: 1}, (0, 1, 2), s)
    assert swaps == 1
    assert pst == pytest.approx(0.98**4 * 0.99**2, abs=1e-12)


def test_pst_strictly_decreases_per_cnot():
    g = CouplingGraph(2, frozenset({(0, 1)}))
    s = validate_snapshot(g, {(0, 1): 0.03}, {0: 0.01, 1: 0.01})
    last = None
    for n in range(1, 5):
        gates = tuple(Op("cnot", (0, 1)) for _ in range(n))
        c = LogicalCircuit(2, gates, 0)
        p = cost(c, {0: 0, 1: 1}, (0, 1), s)[3]
        if last is not None:
            assert p < last
        last = p


def test_no_swap_matches_unrouted_schedule():
    # an adjacency-respecting layout must add nothing
    g = hanoi27()
    s = uniform_snapshot(g, 0.02, 0.02)
    c = parse_qasm_subset("qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
    d, cnots, swaps, _ = cost(c, {0: 12, 1: 13}, (12, 13), s)
    assert swaps == 0
    assert cnots == 2
    assert d == 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(routing_case())
def test_depth_cnots_and_pst_match_the_oracles(case):
    g, snap, members, c, layout = case
    r = route(c, layout, members, g)
    swaps = oracles.replay_routed(c, r)
    assert swaps == r.swap_count
    assert len(r.physical_ops) == len(c.gates) + r.swap_count
    layers = oracles.asap_layers(r.physical_ops)
    cnots = sum(op.kind == "cnot" for op in c.gates) + 3 * swaps
    cnot = dict(zip(g.edge_list, snap.cnot_error[0].tolist()))
    readout = dict(enumerate(snap.readout_error[0].tolist()))
    expected = oracles.success_product(r.physical_ops, cnot, readout)
    # the one walk that prices every job: the oracles' four numbers, PST bit for bit
    assert cost(c, layout, members, snap) == (layers, cnots, swaps, expected)

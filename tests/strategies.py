"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from mtqsim.calibration import CalibrationSeries, validate_snapshot
from mtqsim.topology import CouplingGraph
from mtqsim.transpile import LogicalCircuit, MeasureGate, OneQubitGate, TwoQubitGate


@st.composite
def connected_graph(draw):
    """A random connected graph of 2-8 qubits."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    qubit = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(qubit, qubit), max_size=8)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return CouplingGraph(n, frozenset(edges))


@st.composite
def graph_and_snapshot(draw, graphs=connected_graph()):
    """A random graph (by default connected, of 2-8 qubits) and a random snapshot over it."""
    g = draw(graphs)
    rate = st.floats(0.0, 1.0)
    snap = validate_snapshot(
        g, {e: draw(rate) for e in g.edge_list}, {q: draw(rate) for q in range(g.qubit_count)}
    )
    return g, snap


@st.composite
def graph_and_series(draw):
    """A random connected graph and a series of 1-6 cycles, ids in 0..20, over it.

    Rates are often exactly 0, the edge case of a clamped scale.
    """
    g = draw(connected_graph())
    ids = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=6)))
    rate = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    cnot = [[draw(rate) for _ in g.edge_list] for _ in ids]
    readout = [[draw(rate) for _ in range(g.qubit_count)] for _ in ids]
    return g, CalibrationSeries(g, tuple(ids), cnot, readout)


@st.composite
def disconnected_graph(draw):
    """Two random connected graphs of 2-8 qubits side by side, with no edge between them."""
    a, b = draw(connected_graph()), draw(connected_graph())
    n = a.qubit_count
    edges = a.edges | {(u + n, v + n) for u, v in b.edges}
    return CouplingGraph(n + b.qubit_count, edges)


@st.composite
def connected_partition(draw, g):
    """A connected qubit subset of g, grown from a random qubit one frontier pick at a time."""
    members = [draw(st.integers(0, g.qubit_count - 1))]
    size = draw(st.integers(1, g.qubit_count))
    while len(members) < size:
        frontier = sorted({y for x in members for y in g.neighbors(x)} - set(members))
        if not frontier:
            break
        members.append(draw(st.sampled_from(frontier)))
    return tuple(members)


@st.composite
def circuit(draw, size):
    """A random circuit of up to 30 one-qubit, CNOT and measure gates on size qubits."""
    qubit = st.integers(0, size - 1)
    one = st.builds(OneQubitGate, st.sampled_from("hxyzst"), qubit)
    measure = st.builds(MeasureGate, qubit, qubit)
    kinds = [one, measure]
    if size > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        kinds.append(pair.map(lambda p: TwoQubitGate(*p)))
    gates = draw(st.lists(st.one_of(kinds), max_size=30))
    return LogicalCircuit(size, tuple(gates), size)


@st.composite
def angled_circuit(draw):
    """A `circuit` on 1-6 qubits with up to 10 rx/ry/rz gates at finite angles inserted."""
    size = draw(st.integers(1, 6))
    gates = list(draw(circuit(size)).gates)
    angle = st.floats(allow_nan=False, allow_infinity=False)
    qubit = st.integers(0, size - 1)
    rotation = st.builds(OneQubitGate, st.sampled_from(("rx", "ry", "rz")), qubit, angle)
    for gate in draw(st.lists(rotation, max_size=10)):
        gates.insert(draw(st.integers(0, len(gates))), gate)
    return LogicalCircuit(size, tuple(gates), size)


@st.composite
def routing_case(draw):
    """A random connected graph, a snapshot with distinct CNOT rates, a connected
    partition, a random circuit on it and a random layout onto it."""
    g = draw(connected_graph())
    rates = draw(st.lists(st.floats(0.0, 0.5), min_size=len(g.edge_list),
                          max_size=len(g.edge_list), unique=True))
    readout = draw(st.lists(st.floats(0.0, 0.5), min_size=g.qubit_count,
                            max_size=g.qubit_count))
    snap = validate_snapshot(g, dict(zip(g.edge_list, rates)), dict(enumerate(readout)))
    members = draw(connected_partition(g))
    c = draw(circuit(len(members)))
    layout = dict(enumerate(draw(st.permutations(members))))
    return g, snap, members, c, layout

"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from mtqsim.calibration import CalibrationSeries, CalibrationSnapshot
from mtqsim.topology import CouplingGraph


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
    snap = CalibrationSnapshot(
        0, {e: draw(rate) for e in g.edge_list}, {q: draw(rate) for q in range(g.qubit_count)}
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

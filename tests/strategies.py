"""Hypothesis strategies shared by the allocation and scheduler property tests."""

from hypothesis import strategies as st

from mtqsim.calibration import CalibrationSnapshot
from mtqsim.topology import CouplingGraph


@st.composite
def graph_and_snapshot(draw):
    """A random connected graph of 2-8 qubits and a random snapshot over it."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, q - 1)), q) for q in range(1, n)}  # a spanning tree
    qubit = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(qubit, qubit), max_size=8)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = CouplingGraph(n, frozenset(edges))
    rate = st.floats(0.0, 1.0)
    snap = CalibrationSnapshot(
        0, {e: draw(rate) for e in g.edge_list}, {q: draw(rate) for q in range(n)}
    )
    return g, snap

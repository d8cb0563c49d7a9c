import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtqsim
import oracles
from strategies import connected_graph, disconnected_graph
from mtqsim.allocation import _connected_pieces
from mtqsim.errors import DataError
from mtqsim.topology import (
    HANOI27_EDGES,
    CouplingGraph,
    bfs_tree,
    compactness,
    degree,
    density,
    hanoi27,
    induced_diameter,
    load_edge_list,
    max_degree_qubits,
    path_stddev,
)

P3 = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
K3 = CouplingGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))


def test_hanoi27_fixture():
    g = hanoi27()
    assert g.qubit_count == 27
    assert len(g.edge_list) == 28
    assert set(g.edge_list) == set(HANOI27_EDGES)
    adj = oracles.adjacency(g.edge_list, 27)
    assert oracles.is_connected(adj, range(27))


def test_degree_3_set():
    g = hanoi27()
    assert max_degree_qubits(g) == (1, 7, 8, 12, 14, 18, 19, 25)
    assert degree(g, 0) == 1
    assert degree(g, 14) == 3
    assert sum(degree(g, q) for q in range(27)) == 2 * 28
    assert all(degree(g, q) <= 2 for q in range(27) if q not in max_degree_qubits(g))


def test_degree_p3():
    assert degree(P3, 1) == 2
    with pytest.raises(Exception):
        degree(P3, 3)


def test_shortest_paths_fixture():
    g = hanoi27()
    d = g.distance_matrix
    assert d[1, 25] == 10
    assert np.all(np.diag(d) == 0)
    assert np.array_equal(d, d.T)
    oracle = oracles.floyd_warshall(g.edge_list, 27)
    for i in range(27):
        for j in range(27):
            assert d[i, j] == oracle[i][j]


def test_shortest_paths_p3():
    d = P3.distance_matrix
    assert d[0, 2] == 2


def test_shortest_paths_random_graphs():
    """Matrix agrees with an independent Floyd-Warshall on 100 seeded graphs."""
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        extra = int(rng.integers(0, n))
        for _ in range(extra):
            u, v = rng.choice(n, size=2, replace=False)
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
        g = CouplingGraph(n, frozenset(edges))
        d = g.distance_matrix
        oracle = oracles.floyd_warshall(sorted(edges), n)
        for i in range(n):
            for j in range(n):
                assert d[i, j] == oracle[i][j]


def assert_matches_oracle(g):
    d = g.distance_matrix
    assert d.dtype == np.float64
    assert not d.flags.writeable
    n = g.qubit_count
    oracle = oracles.floyd_warshall(g.edge_list, n)
    for i in range(n):
        for j in range(n):
            assert d[i, j] == oracle[i][j]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(disconnected_graph())
def test_shortest_paths_disconnected_graphs(g):
    """Matrix agrees with Floyd-Warshall across components too, where both give inf."""
    assert_matches_oracle(g)
    assert np.isinf(g.distance_matrix).any()


def test_shortest_paths_edgeless_graph():
    g = CouplingGraph(4, frozenset())
    assert_matches_oracle(g)
    d = g.distance_matrix
    assert np.array_equal(d, np.where(np.eye(4) == 1, 0.0, np.inf))


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency; a fresh interpreter shows what the CLI loads."""
    probe = "import mtqsim.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(mtqsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "[]\n"


def test_path_stddev_examples():
    assert path_stddev(P3, 1) == 0.0
    assert path_stddev(P3, 0) == pytest.approx(0.5, abs=1e-12)


def test_path_stddev_oracle():
    g = hanoi27()
    oracle = oracles.floyd_warshall(g.edge_list, 27)
    for q in range(27):
        assert path_stddev(g, q) == pytest.approx(
            oracles.path_sigma(oracle, q), abs=1e-9
        )


def test_path_stddev_symmetry():
    # the fixture has a mirror symmetry q -> 26-q; sigma must respect it exactly
    g = hanoi27()
    for q in range(27):
        assert path_stddev(g, q) == path_stddev(g, 26 - q)


def test_path_stddev_disconnected():
    g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        path_stddev(g, 0)


def test_density_examples():
    assert density(K3, (0, 1, 2)) == 1.0
    assert density(P3, (0, 1, 2)) == pytest.approx(2 / 3)
    assert density(K3, (1,)) == 1.0


def test_density_tree_subsets():
    g = hanoi27()
    # the induced subgraph on 0..4 is a tree on 5 nodes
    assert density(g, (0, 1, 2, 3, 4)) == pytest.approx(2 / 5)


def test_compactness_examples():
    assert compactness(P3, (0, 1, 2)) == 1.0
    assert compactness(K3, (0, 1, 2)) == 0.5
    assert compactness(K3, (2,)) == 1.0


def test_compactness_path_subset():
    g = hanoi27()
    assert compactness(g, (0, 1, 2, 3)) == 1.0


def test_induced_diameter_disconnected():
    g = hanoi27()
    with pytest.raises(ValueError):
        induced_diameter(g, (0, 26))


@st.composite
def subset_search_case(draw):
    """A random connected graph, a subset of its qubits, and a source inside it."""
    g = draw(connected_graph())
    allowed = draw(st.sets(st.integers(0, g.qubit_count - 1), min_size=1))
    return g, allowed, draw(st.sampled_from(sorted(allowed)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(subset_search_case())
def test_subset_search_matches_oracle(case):
    g, allowed, src = case
    adj = oracles.adjacency(g.edge_list, g.qubit_count)
    induced = {q: adj[q] & allowed for q in allowed}
    dist = oracles.bfs_distances(induced, src)
    parent = bfs_tree(g, allowed, src)
    assert set(parent) == set(dist)
    for q in parent:
        chain = [q]
        while chain[-1] != src:
            chain.append(parent[chain[-1]])
        assert len(chain) - 1 == dist[q]
        assert all(v in induced[u] for u, v in zip(chain, chain[1:]))
    members = tuple(sorted(allowed))
    pieces = {tuple(sorted(oracles.bfs_distances(induced, q))) for q in allowed}
    assert _connected_pieces(g, members) == sorted(pieces)
    if len(pieces) == 1:
        diameter = max(max(oracles.bfs_distances(induced, q).values()) for q in allowed)
        assert induced_diameter(g, members) == diameter
    else:
        with pytest.raises(ValueError, match="disconnected"):
            induced_diameter(g, members)


def test_edge_list_round_trip():
    g = hanoi27()
    text = oracles.write_edge_list(g.qubit_count, g.edge_list)
    g2 = load_edge_list(text)
    assert g2.qubit_count == 27
    assert set(g2.edge_list) == set(g.edge_list)


def test_edge_list_comments_and_errors():
    g = load_edge_list("# device\nqubits 3\n0 1\n1 2\n")
    assert g.qubit_count == 3
    with pytest.raises(DataError, match="line 3"):
        load_edge_list("qubits 3\n0 1\n0 99\n")
    with pytest.raises(DataError):
        load_edge_list("0 1\n")  # missing header
    with pytest.raises(DataError):
        load_edge_list("qubits 3\n1 1\n")  # self loop


def test_graph_validation():
    with pytest.raises(Exception):
        CouplingGraph(2, frozenset({(0, 2)}))
    with pytest.raises(Exception):
        CouplingGraph(2, frozenset({(1, 1)}))

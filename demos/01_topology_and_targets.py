#!/usr/bin/env python3
"""Walk the 27-qubit heavy-hex fixture and derive both attack target sets.

Prints the degree table, the hop-distance spread (sigma) for every
degree-3 qubit, and the two adversary selections: centrality-driven
over-reporting (lowest sigma first) and distributed under-reporting
(max-min hop distance chain).

Usage: python3 demos/01_topology_and_targets.py
"""

from mtqsim.adversary import heuristic1_sigma_ranking, heuristic1_targets, heuristic2_selection
from mtqsim.topology import degree, hanoi27, max_degree_qubits, path_stddev

g = hanoi27()
degrees = [degree(g, q) for q in range(g.qubit_count)]

print(f"fixture: {g.qubit_count} qubits, {len(g.edge_list)} edges")
print(f"degree histogram: { {d: degrees.count(d) for d in (1, 2, 3)} }")

print(f"\ndegree-3 pool: {list(max_degree_qubits(g))}")
print("\nqubit  sigma(hop distances)")
for q, sigma in heuristic1_sigma_ranking(g):
    print(f"  {q:>3}  {sigma:.6f}")

print("\ncentral over-report targets (n=3):", heuristic1_targets(g, 3))
print("mirror check: sigma(q) == sigma(26-q) for all q:",
      all(path_stddev(g, q) == path_stddev(g, 26 - q) for q in range(27)))

h2 = heuristic2_selection(g, 3)
print("\ndistributed under-report targets (n=3):", [q for q, _ in h2])
for i, (q, profile) in enumerate(h2, start=1):
    print(f"  pick {i}: qubit {q:>2}, distances to earlier picks {list(profile) or '-'}")

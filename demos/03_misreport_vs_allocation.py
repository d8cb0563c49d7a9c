#!/usr/bin/env python3
"""One full baseline-vs-attack comparison, in library calls.

Runs the same 40-job workload twice per allocator: once with honest
reported errors, once with the reported snapshot inflated +15% on the
three most central qubits. True errors never change, so every delta in
the table is caused by the misreport steering the allocators.

Usage: python3 demos/03_misreport_vs_allocation.py
"""

from mtqsim.adversary import apply_misreport, h1_plan
from mtqsim.calibration import uniform_snapshot
from mtqsim.scheduler import gen_workload, run_queue
from mtqsim.topology import hanoi27

g = hanoi27()
snap = uniform_snapshot(g, 0.02, 0.02)
plan = h1_plan(g, 3, 0.15)
reported = apply_misreport(snap, plan)
targets = {q for q, _ in plan.targets}
print(f"attack: +15% reported CNOT error on qubits {sorted(targets)}")

jobs = gen_workload(count=40, size_min=2, size_max=10, gate_density=2.0, seed=18)
print(f"workload: {len(jobs)} jobs, {sum(j.size for j in jobs)} qubit-slots, seed 18\n")

header = f"{'allocator':<10} {'leg':<9} {'rounds':>6} {'util':>7} {'swaps':>6} {'pst':>7} {'target use':>10}"
print(header)
print("-" * len(header))
for alloc in ("greedy", "comdap"):
    for leg, rep_snap in (("honest", snap), ("attacked", reported)):
        rep = run_queue(jobs, snap, rep_snap, alloc)
        # how many placements touched an attacked qubit
        touched = sum(
            1
            for r in rep["rounds"]
            for p in r["placed"]
            if targets & set(p["members"])
        )
        print(
            f"{alloc:<10} {leg:<9} {rep['total_rounds']:>6} {rep['mean_utilization']:>7.4f} "
            f"{rep['mean_swap_count']:>6.2f} {rep['mean_pst']:>7.4f} {touched:>7}/40"
        )
    print()

print("reading: with a flat true-error floor the inflated reports do not banish")
print("the central qubits outright; they demote them in every expansion ordering,")
print("so partitions change shape, packing loosens, and this workload pays one")
print("extra round (and the utilization that goes with it) under both allocators.")

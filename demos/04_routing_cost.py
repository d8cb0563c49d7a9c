#!/usr/bin/env python3
"""What an under-report costs one circuit: layout, SWAP insertion, depth, PST.

Here the distributed targets are genuinely bad hardware: every edge
touching qubits 1, 25, 14 has five times the CNOT error of the rest of
the chip, and the under-report makes them advertise as the best on it.
PST is always evaluated against the true snapshot: reported numbers only
steer placement, physics does not read them.

The run does not show the lure. Reported honestly, the idle chip splits
into three 5-qubit communities, each holding one bad qubit, with equal
CRI; comdap's exact-size branch takes the first, {0, 1, 2, 3, 5}, and
pays true PST 0.298. The under-report reweights the edges, the split
changes, and the one 5-qubit community left, [3, 5, 8, 9, 11], avoids
all three targets: true PST 0.641. The exact-size branch ranks only
communities of the requested size, so honest reports alone do not keep
it off bad qubits.

Usage: python3 demos/04_routing_cost.py
"""

from mtqsim.adversary import apply_misreport, h2_plan
from mtqsim.allocation import AllocationRequest, comdap_allocate
from mtqsim.calibration import validate_snapshot
from mtqsim.topology import hanoi27
from mtqsim.transpile import cost, initial_layout, parse_qasm_subset

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
cx q[0],q[4];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
measure q[3] -> c[3];
measure q[4] -> c[4];
"""

g = hanoi27()
plan = h2_plan(g, [0.85, 0.84, 0.83])
targets = {q for q, _ in plan.targets}

snap_true = validate_snapshot(
    g,
    {e: (0.10 if targets & set(e) else 0.02) for e in g.edge_list},
    dict.fromkeys(range(g.qubit_count), 0.02),
)
reported = apply_misreport(snap_true, plan)

circuit = parse_qasm_subset(QASM)
print(f"circuit: {circuit.qubit_count} qubits, {len(circuit.gates)} gates")
print(f"true CNOT error: 0.10 on edges touching {sorted(targets)}, 0.02 elsewhere")
lured = sorted(g.incident_edges(14))[0]
column = g.edge_column[lured]
print(
    f"under-report scales those edges by up to {1 + plan.targets[0][1]:.2f}x: "
    f"edge {lured} reads {reported.cnot_error[0, column]:.4f} instead of "
    f"{snap_true.cnot_error[0, column]:.4f}\n"
)

for leg, rep_snap in (("honest", snap_true), ("under-reported", reported)):
    part = comdap_allocate(rep_snap, AllocationRequest(5, tuple(range(27))))
    # laid out on what the device reports, priced on what it does, as the scheduler does
    layout = initial_layout(circuit, part.members, rep_snap)
    depth, _, swaps, pst = cost(circuit, layout, part.members, snap_true)
    hit = targets & set(part.members)
    print(f"{leg} reports")
    print(f"  region   : {sorted(part.members)}"
          + (f" (contains attacked qubits {sorted(hit)})" if hit else ""))
    print(f"  swaps    : {swaps} (3 CNOTs each)")
    print(f"  depth    : {depth}")
    print(f"  PST(true): {pst:.6f}\n")

#!/usr/bin/env python3
"""Place the same request with both allocators and compare their choices.

The greedy allocator grows a region outward from the best composite-score
qubit; the community-based allocator clusters the free region first and
extracts from (or merges) the best-scoring communities. On a uniform error
snapshot the two disagree about shape even when both succeed.

Usage: python3 demos/02_allocators_side_by_side.py
"""

from mtqsim.allocation import (
    AllocationRequest,
    cfm,
    comdap_allocate,
    cri,
    greedy_allocate,
    louvain,
)
from mtqsim.calibration import uniform_snapshot
from mtqsim.topology import hanoi27

g = hanoi27()
snap = uniform_snapshot(g, 0.02, 0.02)
everything = tuple(range(27))

print("free-region communities (whole chip):")
for c in louvain(snap, everything):
    print(f"  size {len(c):>2}: {list(c)}")

for size in (4, 6, 9):
    req = AllocationRequest(size, everything)
    a = greedy_allocate(snap, req)
    b = comdap_allocate(snap, req)
    print(f"\nrequest size {size}")
    print(f"  greedy : {list(a.members)} (attractor {a.members[0]}, score {a.score:.4f})")
    print(f"  comdap : {sorted(b.members)} (CRI {cri(snap, b.members):.4f})")

# fragment the chip: take the central band offline and retry
busy = {11, 12, 13, 14, 15}
available = tuple(q for q in everything if q not in busy)
req = AllocationRequest(8, available)
a = greedy_allocate(snap, req)
b = comdap_allocate(snap, req)
print(f"\nwith qubits {sorted(busy)} busy, request size 8")
print(f"  greedy : {a and list(a.members)}")
print(f"  comdap : {b and sorted(b.members)}")

best = max(everything, key=lambda q: cfm(snap, q))
print(f"\nbest composite score on the idle chip: qubit {best} ({cfm(snap, best):.4f})")

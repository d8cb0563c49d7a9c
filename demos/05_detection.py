#!/usr/bin/env python3
"""Catch the misreport in the calibration time series.

Builds synthetic honest drift (coefficient of variation 0.30, matching
observed hardware fluctuation), calibrates the divergence threshold on
honest history, then injects a +15% central-qubit misreport into the
last 84 cycles and runs both detectors:

  * histogram KL divergence per qubit, flag when above the honest
    95th-percentile threshold
  * the naive per-cycle +-15% bound check

The KL detector lights up the attacked qubits plus the neighbors that
share their inflated edges (a per-qubit statistic over incident edges
cannot tell the two ends apart), while unrelated qubits stay quiet. The
naive check drowns in natural drift.

Usage: python3 demos/05_detection.py
"""

from mtqsim.adversary import apply_misreport, h1_plan
from mtqsim.calibration import synth_drift, uniform_snapshot
from mtqsim.defense import calibrate_threshold, detect, naive_threshold_flags
from mtqsim.topology import hanoi27

g = hanoi27()
base = uniform_snapshot(g, 0.02, 0.02)
N1, N2 = 336, 84  # history cycles, audit cycles
BINS, EPS, CV = 3, 0.1, 0.30

plan = h1_plan(g, 3, 0.15)
targets = sorted(q for q, _ in plan.targets)
neighbors = sorted(
    {v for q in targets for e in g.incident_edges(q) for v in e} - set(targets)
)
print(f"misreport: +15% on qubits {targets}, applied to the last {N2} cycles")
print(f"qubits sharing an attacked edge: {neighbors}")

honest_runs = (synth_drift(base, N1 + N2, CV, 1000 + i) for i in range(60))
tau = calibrate_threshold(honest_runs, (0, N1), (N1, N1 + N2), bins=BINS, eps=EPS)
print(f"threshold tau = {tau:.4f} (95th percentile of 60 honest runs)\n")

series = synth_drift(base, N1 + N2, CV, 55)
attacked = apply_misreport(series, plan, (N1, N1 + N2))
verdict = detect(attacked, (0, N1), (N1, N1 + N2), bins=BINS, eps=EPS, tau=tau)

print("qubit  divergence  flagged")
for q in sorted(verdict.divergence):
    if q in targets:
        mark = " <- target"
    elif q in neighbors:
        mark = " <- shares an attacked edge"
    else:
        mark = ""
    flag = "YES" if q in verdict.flagged else "."
    print(f"  {q:>3}  {verdict.divergence[q]:>10.4f}  {flag:<3}{mark}")
print(f"\nKL detector flagged: {sorted(verdict.flagged)}")
outside = verdict.flagged - set(targets) - set(neighbors)
print(f"flags outside the attacked neighborhood: {sorted(outside) or 'none'}")

naive = naive_threshold_flags(attacked, rel_bound=0.15)
print(f"\nnaive +-15% bound check flagged {len(naive)}/27 qubits: {sorted(naive)}")
print("(nearly everything: honest 30% drift crosses a 15% band all the time)")

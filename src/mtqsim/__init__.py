"""Multi-tenant quantum hardware allocation under adversarial error misreporting.

A desk-scale simulator and analysis toolkit: coupling-graph model,
calibration data with synthetic drift, two fidelity-aware allocators, two
misreporting heuristics, a SWAP-routing transpilation-cost proxy, a
round-based scheduler, and a KL-divergence misreport detector. Import
from the modules (mtqsim.topology, mtqsim.experiment, ...); the package root
holds only __version__.
"""

__version__ = "0.1.0"

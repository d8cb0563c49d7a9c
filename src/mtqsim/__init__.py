"""Multi-tenant quantum hardware allocation under adversarial error misreporting.

A desk-scale simulator and analysis toolkit: coupling-graph model,
calibration data with synthetic drift, two fidelity-aware allocators, two
misreporting heuristics, a SWAP-routing transpilation-cost proxy, a
round-based scheduler, and a KL-divergence misreport detector.
"""

from .adversary import (
    MisreportPlan,
    apply_misreport,
    apply_misreport_series,
    h1_plan,
    h2_plan,
    heuristic1_targets,
    heuristic2_selection,
    heuristic2_targets,
)
from .allocation import (
    AllocationRequest,
    Partition,
    ScoringContext,
    cfm,
    comdap_allocate,
    cri,
    greedy_allocate,
    louvain,
)
from .calibration import (
    CalibrationSeries,
    CalibrationSnapshot,
    avg_cnot_error,
    fluctuation_percent,
    load_calibration_csv,
    synth_drift,
    uniform_snapshot,
    write_calibration_csv,
)
from .defense import (
    DetectionVerdict,
    ErrorDistribution,
    build_distribution,
    calibrate_threshold,
    detect,
    kl_divergence,
    matched_threshold,
    naive_threshold_flags,
)
from .errors import ConfigError, DataError
from .experiment import ResolvedConfig, resolve_config, run_simulate, run_sweep
from .scheduler import ExperimentReport, Job, JobMetrics, RoundReport, gen_workload, run_queue
from .topology import (
    CouplingGraph,
    compactness,
    degree,
    density,
    hanoi27,
    load_edge_list,
    path_stddev,
    write_edge_list,
)
from .transpile import (
    LogicalCircuit,
    MeasureGate,
    OneQubitGate,
    RoutedCircuit,
    TwoQubitGate,
    circuit_to_qasm,
    cnot_count,
    depth,
    initial_layout,
    parse_qasm_subset,
    pst_estimate,
    route,
)

__version__ = "0.1.0"

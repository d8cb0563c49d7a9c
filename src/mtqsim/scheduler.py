"""Round-based multi-tenant execution over a shared device.

Jobs queue FIFO. Each round scans the queue in order and places every job
the allocator can fit into the qubits still free this round; a job that does
not fit is skipped, not blocking smaller jobs behind it, and retries next
round. The round closes when a full scan places nothing. Placed jobs are laid
out and routed against the reported snapshot and scored against the true one.

The allocator is a pure function of the scoring context and the request,
and a rescan repeats a request whenever the free qubits have not changed
since, so each run computes each distinct request once and reuses the
answer, failures included.

Each number a run reports has one name from here to the files: the fields of
RoundReport (round, placed, active_qubits, utilization) and JobMetrics (id,
round, depth, cnots, swaps, pst) are the keys of a report's "rounds" and
"jobs", and JobMetrics' fields are also the jobs.csv columns, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean

import numpy as np

from .allocation import AllocationRequest, Partition, ScoringContext, get_allocator
from .calibration import CalibrationSnapshot
from .topology import CouplingGraph
from .transpile import (
    LogicalCircuit,
    MeasureGate,
    TwoQubitGate,
    initial_layout,
    route,
    score,
)


@dataclass(frozen=True)
class Job:
    id: str
    circuit: LogicalCircuit

    @property
    def size(self) -> int:
        return self.circuit.qubit_count


@dataclass(frozen=True)
class RoundReport:
    round: int
    placed: tuple[tuple[str, Partition], ...]
    active_qubits: int
    utilization: float


@dataclass(frozen=True)
class JobMetrics:
    id: str
    round: int
    depth: int
    cnots: int
    swaps: int
    pst: float


# the report-level aggregates, by ExperimentReport property name
AGGREGATES = (
    "total_rounds",
    "mean_utilization",
    "mean_depth",
    "mean_cnot_count",
    "mean_swap_count",
    "mean_pst",
)


@dataclass(frozen=True)
class ExperimentReport:
    allocator: str
    rounds: tuple[RoundReport, ...]
    jobs: tuple[JobMetrics, ...]

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def mean_utilization(self) -> float:
        return mean(r.utilization for r in self.rounds) if self.rounds else 0.0

    def _job_mean(self, field: str) -> float:
        return mean(getattr(j, field) for j in self.jobs) if self.jobs else 0.0

    mean_depth = property(lambda self: self._job_mean("depth"))
    mean_cnot_count = property(lambda self: self._job_mean("cnots"))
    mean_swap_count = property(lambda self: self._job_mean("swaps"))
    mean_pst = property(lambda self: self._job_mean("pst"))

    def to_dict(self) -> dict:
        """The report as reports embed it: each round and job under its own field names."""
        return {
            "allocator": self.allocator,
            **{name: getattr(self, name) for name in AGGREGATES},
            "rounds": [
                {
                    **vars(r),
                    "placed": [
                        {"job": jid, "members": list(p.members), "score": p.score}
                        for jid, p in r.placed
                    ],
                }
                for r in self.rounds
            ],
            "jobs": [dict(vars(j)) for j in self.jobs],
        }


def run_queue(
    jobs: list[Job],
    g: CouplingGraph,
    snap_true: CalibrationSnapshot,
    snap_reported: CalibrationSnapshot,
    allocator: str = "greedy",
) -> ExperimentReport:
    """Drain the queue and report per-round and per-job outcomes.

    Allocation and layout see only snap_reported, through one ScoringContext;
    PST sees only snap_true. Deterministic: same inputs, same report.
    """
    alloc = get_allocator(allocator)
    for job in jobs:
        if job.size > g.qubit_count:
            raise ValueError(
                f"job {job.id} needs {job.size} qubits; hardware has {g.qubit_count}"
            )

    ctx = ScoringContext(g, snap_reported)
    answers: dict[AllocationRequest, Partition | None] = {}
    pending = list(jobs)
    rounds: list[RoundReport] = []
    metrics: list[JobMetrics] = []
    while pending:
        available = set(range(g.qubit_count))
        placed: list[tuple[Job, Partition]] = []
        while True:
            placed_in_scan = False
            for job in list(pending):
                req = AllocationRequest(job.size, tuple(sorted(available)))
                if req not in answers:
                    answers[req] = alloc(ctx, req)
                part = answers[req]
                if part is None:
                    continue
                available -= set(part.members)
                pending.remove(job)
                placed.append((job, part))
                placed_in_scan = True
                if not available:
                    break
            if not placed_in_scan or not available:
                break
        if not placed:
            stuck = ", ".join(j.id for j in pending)
            raise ValueError(f"jobs cannot be placed even on idle hardware: {stuck}")
        for job, part in placed:
            layout = initial_layout(job.circuit, part.members, ctx)
            routed = route(job.circuit, layout, part.members, g)
            depth, cnots, pst = score(routed, snap_true)
            metrics.append(JobMetrics(job.id, len(rounds), depth, cnots, routed.swap_count, pst))
        active = sum(len(p.members) for _, p in placed)
        placed_ids = tuple((job.id, part) for job, part in placed)
        rounds.append(RoundReport(len(rounds), placed_ids, active, active / g.qubit_count))
    return ExperimentReport(allocator, tuple(rounds), tuple(metrics))


# the most two-qubit gates gen_workload may give one job
MAX_JOB_GATES = 10**6


def check_generator(count: int, size_min: int, size_max: int, gate_density: float) -> None:
    """gen_workload's range rules: count >= 1, 1 <= size_min <= size_max, and a positive,
    finite gate_density that gives no size_max job more than MAX_JOB_GATES gates."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not (1 <= size_min <= size_max):
        raise ValueError(f"need 1 <= size_min <= size_max, got {size_min}..{size_max}")
    if not 0 < gate_density < math.inf:
        raise ValueError(f"gate_density must be positive and finite, got {gate_density}")
    if size_max * (size_max - 1) > 2 * MAX_JOB_GATES / gate_density:  # no float product to overflow
        raise ValueError(
            f"gate_density {gate_density} gives a {size_max}-qubit job more than "
            f"{MAX_JOB_GATES} gates"
        )


def gen_workload(
    count: int,
    size_min: int,
    size_max: int,
    gate_density: float,
    seed: int,
) -> list[Job]:
    """Seeded synthetic workload of two-qubit-gate circuits.

    Per job, in a fixed draw order from numpy's default_rng(seed): the size is
    uniform over [size_min, size_max]; then max(1, round(gate_density *
    size*(size-1)/2)) two-qubit gates each draw a control and a distinct
    target uniformly. Every qubit is measured at the end. Single-qubit jobs
    carry measurements only. Parameters that break check_generator's rules
    are rejected before anything is drawn.
    """
    check_generator(count, size_min, size_max, gate_density)
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for i in range(count):
        size = int(rng.integers(size_min, size_max + 1))
        gates: list = []
        if size > 1:
            n_gates = max(1, round(gate_density * size * (size - 1) / 2))
            for _ in range(n_gates):
                control = int(rng.integers(size))
                target = int(rng.integers(size - 1))
                if target >= control:
                    target += 1
                gates.append(TwoQubitGate(control, target))
        gates.extend(MeasureGate(q, q) for q in range(size))
        circuit = LogicalCircuit(qubit_count=size, gates=tuple(gates), clbit_count=size)
        jobs.append(Job(id=f"job{i:03d}", circuit=circuit))
    return jobs

"""Round-based multi-tenant execution over a shared device.

Jobs queue FIFO. Each round scans the queue in order and places every job
the allocator can fit into the qubits still free this round; a job that does
not fit is skipped, not blocking smaller jobs behind it, and retries next
round. The round closes when a full scan places nothing. Placed jobs are laid
out against the reported snapshot, then routed and priced against the true one
in one walk (transpile.cost); both snapshots must be of one graph, the device,
and the queue reads the device from them.

The allocator is a pure function of the reported snapshot and the request,
and a rescan repeats a request while the round's free qubits, an ascending
tuple, are unchanged; each run asks through a cache keyed by the job size
and that tuple, so each distinct request is asked once, failures included.

run_queue returns the report as simulate writes it, a dict, and each number
in it has one name from here to the files: a round's keys are round, placed
(each {"job", "members", "score"}), active_qubits and utilization; a job's
keys are JOB_COLUMNS, which are also the jobs.csv columns, in order; and the
report-level keys are "allocator", AGGREGATES, "rounds" and "jobs".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import mean

import numpy as np

from .allocation import AllocationRequest, Partition, get_allocator
from .calibration import CalibrationSeries
from .transpile import LogicalCircuit, Op, cost, initial_layout


@dataclass(frozen=True)
class Job:
    id: str
    circuit: LogicalCircuit

    @property
    def size(self) -> int:
        return self.circuit.qubit_count


# a report's per-job fields: the keys of each of its "jobs", in order, and the jobs.csv columns
JOB_COLUMNS = ("id", "round", "depth", "cnots", "swaps", "pst")

# a report's aggregates, in order: the round count, then the mean utilization
# over rounds and the mean depth, cnots, swaps and pst over jobs
AGGREGATES = (
    "total_rounds",
    "mean_utilization",
    "mean_depth",
    "mean_cnot_count",
    "mean_swap_count",
    "mean_pst",
)


def run_queue(
    jobs: list[Job],
    snap_true: CalibrationSeries,
    snap_reported: CalibrationSeries,
    allocator: str = "greedy",
) -> dict:
    """Drain the queue and return the report simulate writes: the allocator,
    the AGGREGATES, each round's placements and each job's JOB_COLUMNS.

    Allocation and layout see only snap_reported; PST sees only snap_true.
    Both must be of one graph. Deterministic: same inputs, same report.
    """
    g = snap_true.graph
    if snap_reported.graph != g:
        raise ValueError("the true and reported snapshots are of different graphs")
    alloc = get_allocator(allocator)
    for job in jobs:
        if job.size > g.qubit_count:
            raise ValueError(
                f"job {job.id} needs {job.size} qubits; hardware has {g.qubit_count}"
            )

    ask = functools.cache(lambda size, free: alloc(snap_reported, AllocationRequest(size, free)))
    pending = list(jobs)
    rounds: list[dict] = []
    metrics: list[dict] = []
    while pending:
        free = tuple(range(g.qubit_count))
        placed: list[tuple[Job, Partition]] = []
        progress = True
        while progress and free:
            progress = False
            for job in list(pending):
                part = ask(job.size, free)
                if part is None:
                    continue
                taken = set(part.members)
                free = tuple(q for q in free if q not in taken)
                pending.remove(job)
                placed.append((job, part))
                progress = True
                if not free:
                    break
        if not placed:
            stuck = ", ".join(j.id for j in pending)
            raise ValueError(f"jobs cannot be placed even on idle hardware: {stuck}")
        for job, part in placed:
            layout = initial_layout(job.circuit, part.members, snap_reported)
            values = cost(job.circuit, layout, part.members, snap_true)
            metrics.append(dict(zip(JOB_COLUMNS, (job.id, len(rounds), *values))))
        active = g.qubit_count - len(free)
        rounds.append({
            "round": len(rounds),
            "placed": [
                {"job": job.id, "members": list(part.members), "score": part.score}
                for job, part in placed
            ],
            "active_qubits": active,
            "utilization": active / g.qubit_count,
        })

    def job_mean(column: str) -> float:
        # statistics.mean gives ints a whole-number mean as an int, as reports write it
        return mean(m[column] for m in metrics) if metrics else 0.0

    aggregates = (
        len(rounds),
        mean(r["utilization"] for r in rounds) if rounds else 0.0,
        *map(job_mean, ("depth", "cnots", "swaps", "pst")),
    )
    return {
        "allocator": allocator,
        **dict(zip(AGGREGATES, aggregates)),
        "rounds": rounds,
        "jobs": metrics,
    }


# the most two-qubit gates gen_workload may give one job
MAX_JOB_GATES = 10**6


def check_generator(
    count: int, size_min: int, size_max: int, gate_density: float, seed: int
) -> None:
    """gen_workload's range rules: count >= 1, 1 <= size_min <= size_max, a positive,
    finite gate_density that gives no size_max job more than MAX_JOB_GATES gates, and
    a non-negative seed."""
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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


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

    A job's gates come from one rng.integers call over the bounds (size,
    size - 1) repeated per gate, which draws the same values in the same
    order, and leaves the generator in the same state, as one call per bound.
    """
    check_generator(count, size_min, size_max, gate_density, seed)
    rng = np.random.default_rng(seed)
    jobs: list[Job] = []
    for i in range(count):
        size = int(rng.integers(size_min, size_max + 1))
        gates: list[Op] = []
        if size > 1:
            n_gates = max(1, round(gate_density * size * (size - 1) / 2))
            draws = iter(rng.integers(0, np.tile((size, size - 1), n_gates)).tolist())
            # a target drawn from the size - 1 qubits other than the control
            gates = [Op("cnot", (c, t + (t >= c))) for c, t in zip(draws, draws)]
        gates.extend(Op("measure", (q,), clbit=q) for q in range(size))
        circuit = LogicalCircuit(qubit_count=size, gates=tuple(gates), clbit_count=size)
        jobs.append(Job(id=f"job{i:03d}", circuit=circuit))
    return jobs

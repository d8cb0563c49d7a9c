"""Error-rate data model: snapshots, series, CSV exchange, synthetic drift.

A calibration snapshot holds one cycle's per-edge CNOT error rates and
per-qubit readout error rates. Snapshots exist in two roles that must never
be conflated: the true rates the hardware actually exhibits, and the reported
rates an allocator consumes. The adversary perturbs only the reported side;
the scoring side of the simulator always reads the true side.

A series stores its rates as read-only arrays, one row per cycle, and caches
the one cycles x qubits matrix of mean incident CNOT error that every
per-qubit statistic reads. Iterating it yields fresh dict-shaped snapshot
views. Anything that derives a new snapshot or series builds new values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .topology import CouplingGraph, Edge

MAX_DRIFT_CV = 1.5


@dataclass(frozen=True, eq=True)
class CalibrationSnapshot:
    """One calibration cycle's error rates.

    cnot_error maps normalized edges (u, v), u < v, to rates in [0, 1];
    readout_error maps qubit indices to rates in [0, 1].
    """

    cycle_id: int
    cnot_error: dict[Edge, float]
    readout_error: dict[int, float]

    def __post_init__(self) -> None:
        if self.cycle_id < 0:
            raise ValueError(f"cycle_id must be non-negative, got {self.cycle_id}")


def validate_snapshot(snap: CalibrationSnapshot, g: CouplingGraph) -> None:
    """Check full coverage of the graph and [0, 1] bounds on every rate."""
    if set(snap.cnot_error) != g.edges:
        missing = g.edges - set(snap.cnot_error)
        extra = set(snap.cnot_error) - g.edges
        raise ValueError(
            f"cycle {snap.cycle_id}: cnot_error must cover the graph exactly "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    if set(snap.readout_error) != set(range(g.qubit_count)):
        raise ValueError(f"cycle {snap.cycle_id}: readout_error must cover every qubit")
    for e, val in snap.cnot_error.items():
        if not (0.0 <= val <= 1.0):
            raise ValueError(f"cycle {snap.cycle_id}: cnot_error{e} = {val} outside [0, 1]")
    for q, val in snap.readout_error.items():
        if not (0.0 <= val <= 1.0):
            raise ValueError(f"cycle {snap.cycle_id}: readout_error[{q}] = {val} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class CalibrationSeries:
    """Error rates over strictly increasing calibration cycles of one graph.

    Row i of each array belongs to cycle cycle_ids[i]. cnot_error is a
    cycles x edges array whose columns follow graph.edge_list; readout_error
    is a cycles x qubits array. Both are copied on construction and read-only.
    Build one from snapshots with from_snapshots.
    """

    graph: CouplingGraph
    cycle_ids: tuple[int, ...]
    cnot_error: np.ndarray
    readout_error: np.ndarray

    def __post_init__(self) -> None:
        ids = self.cycle_ids
        if not ids:
            raise ValueError("series must contain at least one snapshot")
        for a, b in zip(ids, ids[1:]):
            if b <= a:
                raise ValueError(f"cycle ids must strictly increase, got {a} then {b}")
        g = self.graph
        for name, width in (("cnot_error", len(g.edges)), ("readout_error", g.qubit_count)):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (len(ids), width):
                raise ValueError(f"{name} must have shape {(len(ids), width)}, got {arr.shape}")
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                raise ValueError(f"{name} has a rate outside [0, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_snapshots(
        cls, g: CouplingGraph, snapshots: Iterable[CalibrationSnapshot]
    ) -> CalibrationSeries:
        """Validate each snapshot against g and stack them, in order, into a series."""
        snaps = tuple(snapshots)
        for snap in snaps:
            validate_snapshot(snap, g)
        cnot = [[s.cnot_error[e] for e in g.edge_list] for s in snaps]
        readout = [[s.readout_error[q] for q in range(g.qubit_count)] for s in snaps]
        return cls(g, tuple(s.cycle_id for s in snaps), cnot, readout)

    def __len__(self) -> int:
        return len(self.cycle_ids)

    def __iter__(self) -> Iterator[CalibrationSnapshot]:
        """One dict-shaped snapshot view per cycle, in cycle order."""
        return map(self.snapshot, range(len(self)))

    def snapshot(self, row: int) -> CalibrationSnapshot:
        """A fresh dict-shaped snapshot view of one row."""
        return CalibrationSnapshot(
            self.cycle_ids[row],
            dict(zip(self.graph.edge_list, self.cnot_error[row].tolist())),
            dict(enumerate(self.readout_error[row].tolist())),
        )

    def cycle_slice(self, lo: int, hi: int) -> slice:
        """The rows whose cycle ids satisfy lo <= cycle_id < hi, as a slice."""
        return slice(bisect_left(self.cycle_ids, lo), bisect_left(self.cycle_ids, hi))

    @cached_property
    def mean_cnot_error(self) -> np.ndarray:
        """avg_cnot_error of every cycle (row) and qubit (column), read-only.

        Each column adds the qubit's incident edges in incident_edges order,
        as avg_cnot_error does, so every entry equals it exactly. Stored
        column-major, so one qubit's values are contiguous.
        """
        g = self.graph
        column = {e: j for j, e in enumerate(g.edge_list)}
        out = np.empty((len(self), g.qubit_count), order="F")
        for q in range(g.qubit_count):
            incident = g.incident_edges(q)
            if not incident:
                raise ValueError(f"qubit {q} has no incident edges")
            out[:, q] = sum(self.cnot_error[:, column[e]] for e in incident) / len(incident)
        out.setflags(write=False)
        return out


def uniform_snapshot(
    g: CouplingGraph, cnot: float, readout: float, cycle_id: int = 0
) -> CalibrationSnapshot:
    """Every edge at the same CNOT error, every qubit at the same readout error."""
    snap = CalibrationSnapshot(
        cycle_id=cycle_id,
        cnot_error={e: cnot for e in g.edge_list},
        readout_error={q: readout for q in range(g.qubit_count)},
    )
    validate_snapshot(snap, g)
    return snap


def avg_cnot_error(snap: CalibrationSnapshot, g: CouplingGraph, q: int) -> float:
    """Arithmetic mean CNOT error over the edges incident to q."""
    incident = g.incident_edges(q)
    if not incident:
        raise ValueError(f"qubit {q} has no incident edges")
    return sum(snap.cnot_error[e] for e in incident) / len(incident)


def synth_drift(
    base: CalibrationSnapshot,
    g: CouplingGraph,
    cycles: int,
    cv: float,
    seed: int,
) -> CalibrationSeries:
    """Seeded multiplicative lognormal drift around a base snapshot.

    For each cycle t and edge e (one standard-normal draw per (t, e) pair from
    numpy's default_rng(seed), cycle by cycle, edges in sorted order within a
    cycle):

        error_t(e) = clamp(base(e) * exp(s * z), 0, 1)

    with s = sqrt(ln(1 + cv^2)) so the lognormal factor's coefficient of
    variation is exactly cv. Readout errors are held at base values: both the
    adversary and the detector concern gate errors only. Emitted cycle ids
    run 0 .. cycles-1.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    if not (0.0 <= cv < MAX_DRIFT_CV):
        raise ValueError(f"cv must be in [0, {MAX_DRIFT_CV}), got {cv}")
    validate_snapshot(base, g)
    s = math.sqrt(math.log(1.0 + cv * cv))
    z = np.random.default_rng(seed).standard_normal((cycles, len(g.edge_list)))
    base_vals = np.array([base.cnot_error[e] for e in g.edge_list])
    readout = [base.readout_error[q] for q in range(g.qubit_count)]
    return CalibrationSeries(
        g, tuple(range(cycles)), np.clip(base_vals * np.exp(s * z), 0.0, 1.0), [readout] * cycles
    )


def fluctuation_percent(series: CalibrationSeries, q: int) -> float:
    """Coefficient of variation of avg_cnot_error(q) across cycles, in percent.

    Population standard deviation over the series mean, times 100.
    """
    if len(series) < 2:
        raise ValueError("fluctuation needs at least 2 cycles")
    series.graph._check_index(q)
    vals = series.mean_cnot_error[:, q]
    mean = float(np.mean(vals))
    if mean == 0.0:
        raise ValueError(f"qubit {q} has zero mean error; fluctuation undefined")
    return 100.0 * float(np.std(vals)) / mean


CSV_HEADER = "cycle,kind,subject,value"


def load_calibration_csv(text: str, g: CouplingGraph) -> CalibrationSeries:
    """Parse the calibration CSV schema against a known graph.

    Schema: header `cycle,kind,subject,value`; kind is `cnot` with subject
    "u-v" (u < v) or `readout` with subject "q"; values are decimals in
    [0, 1]; rows grouped by ascending cycle. A malformed row raises DataError
    naming the line; a cycle missing an edge or qubit, one naming the cycle.
    """
    lines = text.splitlines()
    if not lines or not any(ln.strip() for ln in lines):
        raise DataError("no snapshots: calibration file is empty")
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    subjects = [*g.edge_list, *range(g.qubit_count)]  # columns: cnot by edge, then readout by qubit
    column = {s: j for j, s in enumerate(subjects)}
    ids, rows = [], []  # per cycle: its id, and its rates, nan until the CSV gives one
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"line {ln}: expected 4 fields, got {len(parts)}")
        cyc_s, kind, subject, val_s = (p.strip() for p in parts)
        try:
            cycle = int(cyc_s)
        except ValueError:
            raise DataError(f"line {ln}: cycle {cyc_s!r} is not an integer") from None
        if cycle < 0:
            raise DataError(f"line {ln}: cycle {cycle} is negative")
        try:
            value = float(val_s)
        except ValueError:
            raise DataError(f"line {ln}: value {val_s!r} is not a number") from None
        if not (0.0 <= value <= 1.0):
            raise DataError(f"line {ln}: value {value} outside [0, 1]")
        if not ids or cycle != ids[-1]:
            if ids and cycle < ids[-1]:
                raise DataError(f"line {ln}: cycle {cycle} breaks ascending cycle order")
            ids.append(cycle)
            rows.append([math.nan] * len(subjects))
        if kind == "cnot":
            m = subject.split("-")
            if len(m) != 2:
                raise DataError(f"line {ln}: cnot subject must be 'u-v', got {subject!r}")
            try:
                key = int(m[0]), int(m[1])
            except ValueError:
                raise DataError(f"line {ln}: non-integer edge in {subject!r}") from None
            if key[0] >= key[1]:
                raise DataError(f"line {ln}: edge subject must have u < v, got {subject!r}")
            if key not in column:
                raise DataError(f"line {ln}: unknown edge {subject!r} for this topology")
        elif kind == "readout":
            try:
                key = int(subject)
            except ValueError:
                raise DataError(f"line {ln}: readout subject {subject!r} is not an integer") from None
            if key not in column:
                raise DataError(f"line {ln}: unknown qubit {key} for this topology")
        else:
            raise DataError(f"line {ln}: kind must be 'cnot' or 'readout', got {kind!r}")
        if not math.isnan(rows[-1][column[key]]):
            raise DataError(f"line {ln}: duplicate {kind} entry for {subject!r}")
        rows[-1][column[key]] = value

    if not ids:
        raise DataError("no snapshots: calibration file has a header but no rows")
    gaps = np.isnan(rows)
    if gaps.any():
        i = int(gaps.any(axis=1).argmax())
        missing = [subjects[j] for j in np.flatnonzero(gaps[i])]
        raise DataError(f"cycle {ids[i]}: no rate for these edges and qubits: {missing}")
    return CalibrationSeries(g, tuple(ids), *np.hsplit(np.array(rows), [len(g.edge_list)]))


def write_calibration_csv(series: CalibrationSeries) -> str:
    """Inverse of load_calibration_csv; loading the output reproduces the series."""
    rows = [CSV_HEADER]
    for snap in series:
        for u, v in sorted(snap.cnot_error):
            rows.append(f"{snap.cycle_id},cnot,{u}-{v},{snap.cnot_error[(u, v)]!r}")
        for q in sorted(snap.readout_error):
            rows.append(f"{snap.cycle_id},readout,{q},{snap.readout_error[q]!r}")
    return "\n".join(rows) + "\n"

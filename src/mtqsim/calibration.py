"""Error-rate data model: calibration series, CSV exchange, synthetic drift.

A calibration series holds per-edge CNOT error rates and per-qubit readout
error rates over one or more calibration cycles; a snapshot is a series of
one cycle. Snapshots exist in two roles that must never be conflated: the
true rates the hardware actually exhibits, and the reported rates an
allocator consumes. The adversary perturbs only the reported side; the
scoring side of the simulator always reads the true side.

A series stores its rates as read-only arrays, one row per cycle, with the
CNOT columns in the graph's edge_list order (CouplingGraph.edge_column), and
caches the one cycles x qubits matrix of mean incident CNOT error that every
per-qubit statistic reads, gathered through the graph's per-qubit column
table (CouplingGraph.incident_columns), and a snapshot's rates as tuples that
scoring reads. Anything that derives a new snapshot or series builds new
arrays. The CSV loader looks each row's subject up in a table of the
canonical spellings `u-v` (u < v) and `q`, built once per call, and checks
any other spelling field by field.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .topology import CouplingGraph, Edge

MAX_DRIFT_CV = 1.5


@dataclass(frozen=True, eq=False)
class CalibrationSeries:
    """Error rates over strictly increasing, non-negative cycle ids of one graph.

    Row i of each array belongs to cycle cycle_ids[i]. cnot_error is a
    cycles x edges array whose columns follow graph.edge_list; readout_error
    is a cycles x qubits array. Both are copied on construction and read-only,
    and every rate is in [0, 1]; the first rate outside is named by its cycle
    id and its edge or qubit. A snapshot is a series of one cycle:
    uniform_snapshot, validate_snapshot and snapshot(row) build one.
    """

    graph: CouplingGraph
    cycle_ids: tuple[int, ...]
    cnot_error: np.ndarray
    readout_error: np.ndarray

    def __post_init__(self) -> None:
        ids = self.cycle_ids
        if not ids:
            raise ValueError("series must contain at least one snapshot")
        if ids[0] < 0:
            raise ValueError(f"cycle_id must be non-negative, got {ids[0]}")
        for a, b in zip(ids, ids[1:]):
            if b <= a:
                raise ValueError(f"cycle ids must strictly increase, got {a} then {b}")
        g = self.graph
        for name, width in (("cnot_error", len(g.edges)), ("readout_error", g.qubit_count)):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (len(ids), width):
                raise ValueError(f"{name} must have shape {(len(ids), width)}, got {arr.shape}")
            outside = ~((arr >= 0.0) & (arr <= 1.0))  # nan too
            if outside.any():
                i, j = np.argwhere(outside)[0].tolist()
                cell = g.edge_list[j] if name == "cnot_error" else [j]
                raise ValueError(f"cycle {ids[i]}: {name}{cell} = {arr[i, j]} outside [0, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.cycle_ids)

    def rows(self, rows: slice) -> CalibrationSeries:
        """The series of the selected rows, such as a cycle_slice."""
        return CalibrationSeries(
            self.graph, self.cycle_ids[rows], self.cnot_error[rows], self.readout_error[rows]
        )

    def snapshot(self, row: int) -> CalibrationSeries:
        """The snapshot of one row, 0 <= row < len(self): the series of its cycle alone."""
        return self.rows(slice(row, row + 1))

    def cycle_slice(self, lo: int, hi: int) -> slice:
        """The rows whose cycle ids satisfy lo <= cycle_id < hi, as a slice."""
        return slice(bisect_left(self.cycle_ids, lo), bisect_left(self.cycle_ids, hi))

    @cached_property
    def rates(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The first row's rates, a snapshot's, as tuples of Python floats:
        CNOT by edge column, readout by qubit."""
        return tuple(self.cnot_error[0].tolist()), tuple(self.readout_error[0].tolist())

    @cached_property
    def mean_cnot_error(self) -> np.ndarray:
        """avg_cnot_error of every cycle (row) and qubit (column), read-only.

        Stored column-major, so one qubit's values are contiguous. Gathered in
        one pass per incident-edge slot from the graph's incident_columns: slot k
        adds every qubit's k-th edge, or an appended zero column past its degree.
        Adding 0.0 is exact, so each entry equals avg_cnot_error's bit for bit.
        """
        g = self.graph
        width = len(g.edge_list)
        columns = g.incident_columns
        degree = [len(c) for c in columns]
        if 0 in degree:
            raise ValueError(f"qubit {degree.index(0)} has no incident edges")
        padded = np.hstack((self.cnot_error, np.zeros((len(self), 1))))
        out = np.zeros((len(self), g.qubit_count), order="F")
        for k in range(max(degree)):
            out += padded[:, [c[k] if k < len(c) else width for c in columns]]
        out /= degree
        out.setflags(write=False)
        return out


def validate_snapshot(
    g: CouplingGraph,
    cnot_error: Mapping[Edge, float],
    readout_error: Mapping[int, float],
) -> CalibrationSeries:
    """The snapshot of cycle 0's rates, given as maps: cnot_error by normalized
    edge (u, v), u < v, and readout_error by qubit. Both must cover g exactly
    and every rate must be in [0, 1]; the first fault is named."""
    if set(cnot_error) != g.edges:
        missing = g.edges - set(cnot_error)
        extra = set(cnot_error) - g.edges
        raise ValueError(
            f"cycle 0: cnot_error must cover the graph exactly "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    if set(readout_error) != set(range(g.qubit_count)):
        raise ValueError("cycle 0: readout_error must cover every qubit")
    readout = [readout_error[q] for q in range(g.qubit_count)]
    return CalibrationSeries(g, (0,), [[cnot_error[e] for e in g.edge_list]], [readout])


def uniform_snapshot(g: CouplingGraph, cnot: float, readout: float) -> CalibrationSeries:
    """Every edge at the same CNOT error, every qubit at the same readout error."""
    return validate_snapshot(
        g, dict.fromkeys(g.edge_list, cnot), dict.fromkeys(range(g.qubit_count), readout)
    )


def avg_cnot_error(series: CalibrationSeries, q: int) -> np.ndarray:
    """Arithmetic mean CNOT error over the edges incident to q, one entry per cycle.

    The edges are added in incident_edges order. The library reads
    series.mean_cnot_error instead; this is kept only because
    bench/tracing.py's TRACED names it, and goes with the next change to the
    benchmark's definition (ROADMAP items 1 Step 3 and 5).
    """
    g = series.graph
    incident = g.incident_edges(q)
    if not incident:
        raise ValueError(f"qubit {q} has no incident edges")
    column = g.edge_column
    return sum(series.cnot_error[:, column[e]] for e in incident) / len(incident)


def synth_drift(base: CalibrationSeries, cycles: int, cv: float, seed: int) -> CalibrationSeries:
    """Seeded multiplicative lognormal drift around a base snapshot, on its graph.

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
    if len(base) != 1:
        raise ValueError("base must be a snapshot (one cycle)")
    s = math.sqrt(math.log(1.0 + cv * cv))
    z = np.random.default_rng(seed).standard_normal((cycles, len(base.graph.edge_list)))
    cnot = np.clip(base.cnot_error * np.exp(s * z), 0.0, 1.0)
    return CalibrationSeries(
        base.graph, tuple(range(cycles)), cnot, np.repeat(base.readout_error, cycles, axis=0)
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


def _subject_column(g: CouplingGraph, kind: str, subject: str, ln: int) -> int:
    """The calibration-row column of a stripped (kind, subject) pair, or a
    DataError naming line ln and the first fault."""
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
        if key not in g.edge_column:
            raise DataError(f"line {ln}: unknown edge {subject!r} for this topology")
        return g.edge_column[key]
    if kind == "readout":
        try:
            key = int(subject)
        except ValueError:
            raise DataError(f"line {ln}: readout subject {subject!r} is not an integer") from None
        if not 0 <= key < g.qubit_count:
            raise DataError(f"line {ln}: unknown qubit {key} for this topology")
        return len(g.edge_list) + key
    raise DataError(f"line {ln}: kind must be 'cnot' or 'readout', got {kind!r}")


def load_calibration_csv(text: str, g: CouplingGraph) -> CalibrationSeries:
    """Parse the calibration CSV schema against a known graph.

    Schema: header `cycle,kind,subject,value`; kind is `cnot` with subject
    "u-v" (u < v) or `readout` with subject "q"; values are decimals in
    [0, 1]; rows grouped by ascending cycle. Whitespace around a field and
    blank lines are ignored, and a subject may spell its integers any way
    int accepts. A malformed row raises DataError naming the line; a cycle
    missing an edge or qubit, one naming the cycle.
    """
    lines = text.splitlines()
    if not lines or not any(ln.strip() for ln in lines):
        raise DataError("no snapshots: calibration file is empty")
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    subjects = [*g.edge_list, *range(g.qubit_count)]  # columns: cnot by edge, then readout by qubit
    columns = {("cnot", f"{u}-{v}"): j for j, (u, v) in enumerate(g.edge_list)}
    columns.update((("readout", str(q)), len(g.edge_list) + q) for q in range(g.qubit_count))
    ids, rows = [], []  # per cycle: its id, and its rates, nan until the CSV gives one
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            if not line.strip():
                continue
            raise DataError(f"line {ln}: expected 4 fields, got {len(parts)}")
        cyc_s, kind, subject, val_s = parts  # int and float skip the whitespace strip would
        try:
            cycle = int(cyc_s)
        except ValueError:
            raise DataError(f"line {ln}: cycle {cyc_s.strip()!r} is not an integer") from None
        if cycle < 0:
            raise DataError(f"line {ln}: cycle {cycle} is negative")
        try:
            value = float(val_s)
        except ValueError:
            raise DataError(f"line {ln}: value {val_s.strip()!r} is not a number") from None
        if not (0.0 <= value <= 1.0):
            raise DataError(f"line {ln}: value {value} outside [0, 1]")
        if not ids or cycle != ids[-1]:
            if ids and cycle < ids[-1]:
                raise DataError(f"line {ln}: cycle {cycle} breaks ascending cycle order")
            ids.append(cycle)
            rows.append([math.nan] * len(subjects))
            row = rows[-1]
        j = columns.get((kind, subject))
        if j is None:
            j = _subject_column(g, kind.strip(), subject.strip(), ln)
        if row[j] == row[j]:  # only nan, the unset mark, differs from itself
            raise DataError(f"line {ln}: duplicate {kind.strip()} entry for {subject.strip()!r}")
        row[j] = value

    if not ids:
        raise DataError("no snapshots: calibration file has a header but no rows")
    gaps = np.isnan(rows)
    if gaps.any():
        i = int(gaps.any(axis=1).argmax())
        missing = [subjects[j] for j in np.flatnonzero(gaps[i])]
        raise DataError(f"cycle {ids[i]}: no rate for these edges and qubits: {missing}")
    return CalibrationSeries(g, tuple(ids), *np.hsplit(np.array(rows), [len(g.edge_list)]))


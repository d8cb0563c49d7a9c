"""Error-rate data model: snapshots, series, CSV exchange, synthetic drift.

A calibration snapshot holds one cycle's per-edge CNOT error rates and
per-qubit readout error rates. Snapshots exist in two roles that must never
be conflated: the true rates the hardware actually exhibits, and the reported
rates an allocator consumes. The adversary perturbs only the reported side;
the scoring side of the simulator always reads the true side.

Snapshots and series are treated as immutable values. Anything that derives a
new snapshot builds fresh dicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CalibrationSeries:
    """Snapshots over strictly increasing cycle ids, all covering one graph."""

    graph: CouplingGraph
    snapshots: tuple[CalibrationSnapshot, ...]

    def __post_init__(self) -> None:
        if not self.snapshots:
            raise ValueError("series must contain at least one snapshot")
        for a, b in zip(self.snapshots, self.snapshots[1:]):
            if b.cycle_id <= a.cycle_id:
                raise ValueError(
                    f"cycle ids must strictly increase, got {a.cycle_id} then {b.cycle_id}"
                )
        for snap in self.snapshots:
            validate_snapshot(snap, self.graph)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    def cycle_slice(self, lo: int, hi: int) -> tuple[CalibrationSnapshot, ...]:
        """Snapshots with lo <= cycle_id < hi."""
        return tuple(s for s in self.snapshots if lo <= s.cycle_id < hi)


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

    For each cycle t and edge e (edges visited in sorted order, one draw per
    (t, e) pair from numpy's default_rng(seed)):

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
    rng = np.random.default_rng(seed)
    edges = g.edge_list
    base_vals = np.array([base.cnot_error[e] for e in edges])
    snaps = []
    for t in range(cycles):
        z = rng.standard_normal(len(edges))
        vals = np.clip(base_vals * np.exp(s * z), 0.0, 1.0)
        snaps.append(
            CalibrationSnapshot(
                cycle_id=t,
                cnot_error={e: float(v) for e, v in zip(edges, vals)},
                readout_error=dict(base.readout_error),
            )
        )
    return CalibrationSeries(g, tuple(snaps))


def fluctuation_percent(series: CalibrationSeries, g: CouplingGraph, q: int) -> float:
    """Coefficient of variation of avg_cnot_error(q) across cycles, in percent.

    Population standard deviation over the series mean, times 100.
    """
    if len(series) < 2:
        raise ValueError("fluctuation needs at least 2 cycles")
    vals = np.array([avg_cnot_error(snap, g, q) for snap in series])
    mean = float(np.mean(vals))
    if mean == 0.0:
        raise ValueError(f"qubit {q} has zero mean error; fluctuation undefined")
    return 100.0 * float(np.std(vals)) / mean


CSV_HEADER = "cycle,kind,subject,value"


def load_calibration_csv(text: str, g: CouplingGraph) -> CalibrationSeries:
    """Parse the calibration CSV schema against a known graph.

    Schema: header `cycle,kind,subject,value`; kind is `cnot` with subject
    "u-v" (u < v) or `readout` with subject "q"; values are decimals in
    [0, 1]; rows grouped by ascending cycle. Every cycle must cover the whole
    graph. Malformed rows raise DataError naming the line.
    """
    lines = text.splitlines()
    if not lines or not any(ln.strip() for ln in lines):
        raise DataError("no snapshots: calibration file is empty")
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}, got {header!r}")

    # rows for the cycle currently being accumulated
    cur_cycle: int | None = None
    cur_cnot: dict[Edge, float] = {}
    cur_readout: dict[int, float] = {}
    snaps: list[CalibrationSnapshot] = []

    def close_cycle(ln: int) -> None:
        if cur_cycle is None:
            return
        snap = CalibrationSnapshot(cur_cycle, dict(cur_cnot), dict(cur_readout))
        try:
            validate_snapshot(snap, g)
        except ValueError as exc:
            raise DataError(f"line {ln}: {exc}") from None
        snaps.append(snap)

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
        try:
            value = float(val_s)
        except ValueError:
            raise DataError(f"line {ln}: value {val_s!r} is not a number") from None
        if not (0.0 <= value <= 1.0):
            raise DataError(f"line {ln}: value {value} outside [0, 1]")
        if cur_cycle is None:
            cur_cycle = cycle
        elif cycle != cur_cycle:
            if cycle < cur_cycle or (snaps and cycle <= snaps[-1].cycle_id):
                raise DataError(f"line {ln}: cycle {cycle} breaks ascending cycle order")
            close_cycle(ln)
            cur_cycle, cur_cnot, cur_readout = cycle, {}, {}
        if kind == "cnot":
            m = subject.split("-")
            if len(m) != 2:
                raise DataError(f"line {ln}: cnot subject must be 'u-v', got {subject!r}")
            try:
                u, v = int(m[0]), int(m[1])
            except ValueError:
                raise DataError(f"line {ln}: non-integer edge in {subject!r}") from None
            if u >= v:
                raise DataError(f"line {ln}: edge subject must have u < v, got {subject!r}")
            edge = (u, v)
            if edge not in g.edges:
                raise DataError(f"line {ln}: unknown edge {subject!r} for this topology")
            if edge in cur_cnot:
                raise DataError(f"line {ln}: duplicate cnot entry for {subject!r}")
            cur_cnot[edge] = value
        elif kind == "readout":
            try:
                q = int(subject)
            except ValueError:
                raise DataError(f"line {ln}: readout subject {subject!r} is not an integer") from None
            if not (0 <= q < g.qubit_count):
                raise DataError(f"line {ln}: unknown qubit {q} for this topology")
            if q in cur_readout:
                raise DataError(f"line {ln}: duplicate readout entry for qubit {q}")
            cur_readout[q] = value
        else:
            raise DataError(f"line {ln}: kind must be 'cnot' or 'readout', got {kind!r}")

    if cur_cycle is None:
        raise DataError("no snapshots: calibration file has a header but no rows")
    close_cycle(len(lines))
    try:
        return CalibrationSeries(g, tuple(snaps))
    except ValueError as exc:
        raise DataError(str(exc)) from None


def write_calibration_csv(series: CalibrationSeries) -> str:
    """Inverse of load_calibration_csv; loading the output reproduces the series."""
    rows = [CSV_HEADER]
    for snap in series:
        for u, v in sorted(snap.cnot_error):
            rows.append(f"{snap.cycle_id},cnot,{u}-{v},{snap.cnot_error[(u, v)]!r}")
        for q in sorted(snap.readout_error):
            rows.append(f"{snap.cycle_id},readout,{q},{snap.readout_error[q]!r}")
    return "\n".join(rows) + "\n"

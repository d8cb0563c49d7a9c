"""Experiment configuration and the baseline-vs-attack drivers.

A configuration names a topology, a base error model, an allocator, an
attack, and a workload. Resolution turns every file reference into inline
content, so the resolved form embedded in each report is self-contained:
re-running from an embedded config and its seeds reproduces the report byte
for byte. A resolved workload is the very dict that reports embed, either
{"kind": "generator", count, size_min, size_max, gate_density, seed} or
{"kind": "qasm", "circuits": [{"id", "qasm"}, ...]}; ResolvedConfig.build_jobs
turns it into jobs. So is a resolved attack, {"kind": "none"}, {"kind": "H1",
n, k} or {"kind": "H2", "ks": [...]}; attack_plan turns it into a
MisreportPlan. The baseline leg always embeds attack "none", which makes
baseline reports byte-identical across attack variants sharing a workload and
topology.

The report writers here lay out the per-round CSV, the per-job CSV (whose
columns are scheduler.JOB_COLUMNS, the same keys as a report's "jobs"), and
the sweep CSV (SWEEP_COLUMNS).
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .adversary import MisreportPlan, apply_misreport, h1_plan, h2_plan
from .allocation import get_allocator
from .calibration import (
    CalibrationSnapshot,
    load_calibration_csv,
    uniform_snapshot,
    validate_snapshot,
)
from .errors import ConfigError
from .scheduler import JOB_COLUMNS, ExperimentReport, Job, gen_workload, run_queue
from .topology import CouplingGraph, hanoi27, load_edge_list
from .transpile import circuit_to_qasm, parse_qasm_subset

BUILTIN_TOPOLOGIES = {"hanoi27": hanoi27}

DEFAULT_GATE_DENSITY = 2.0


def read_referenced_file(path: str | Path) -> str:
    """Read a file named by a config; absence is a configuration error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read referenced file {path}: {exc}") from None


def _read_config_file(base_dir: Path, name: Any) -> str:
    """Read a file a config names relative to the config's directory."""
    if not isinstance(name, str):
        raise ConfigError(f"file reference must be a path string, got {name!r}")
    return read_referenced_file(base_dir / name)


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write-then-rename so readers never observe a half-written file.

    A path that cannot be written, such as an existing directory or a path
    under a file, is a ConfigError naming it; the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from None


def resolve_topology(spec: Any, base_dir: Path) -> CouplingGraph:
    if isinstance(spec, str):
        if spec in BUILTIN_TOPOLOGIES:
            return BUILTIN_TOPOLOGIES[spec]()
        raise ConfigError(
            f"unknown topology {spec!r}; builtins: {sorted(BUILTIN_TOPOLOGIES)}"
        )
    if isinstance(spec, dict) and "file" in spec:
        return load_edge_list(_read_config_file(base_dir, spec["file"]))
    if isinstance(spec, dict) and "qubits" in spec and "edges" in spec:
        try:
            edges = frozenset((int(u), int(v)) for u, v in spec["edges"])
            return CouplingGraph(int(spec["qubits"]), edges)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline topology: {exc}") from None
    raise ConfigError(f"topology must be a builtin name, a file, or inline: {spec!r}")


def resolve_errors(spec: Any, g: CouplingGraph, base_dir: Path) -> CalibrationSnapshot:
    if not isinstance(spec, dict):
        raise ConfigError(f"errors must be an object, got {spec!r}")
    if "uniform" in spec:
        u = spec["uniform"]
        try:
            return uniform_snapshot(g, float(u["cnot"]), float(u["readout"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid uniform error model: {exc}") from None
    if "file" in spec:
        series = load_calibration_csv(_read_config_file(base_dir, spec["file"]), g)
        cycle = spec.get("cycle", series.cycle_ids[0])
        if not isinstance(cycle, int) or isinstance(cycle, bool):
            raise ConfigError(f"errors cycle must be an integer, got {cycle!r}")
        rows = series.cycle_slice(cycle, cycle + 1)
        if rows.start == rows.stop:
            raise ConfigError(f"cycle {cycle} not present in {spec['file']}")
        return series.snapshot(rows.start)
    if "cnot" in spec and "readout" in spec:
        if not (isinstance(spec["cnot"], dict) and isinstance(spec["readout"], dict)):
            raise ConfigError("inline 'cnot' and 'readout' error models must be objects")
        try:
            cnot = {}
            for key, val in spec["cnot"].items():
                u, v = key.split("-")
                cnot[(int(u), int(v))] = float(val)
            readout = {int(q): float(val) for q, val in spec["readout"].items()}
            snap = CalibrationSnapshot(0, cnot, readout)
            validate_snapshot(snap, g)
            return snap
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline error model: {exc}") from None
    raise ConfigError("errors must give 'uniform', a 'file', or inline 'cnot'/'readout'")


def attack_plan(attack: dict, g: CouplingGraph) -> MisreportPlan | None:
    """The misreport plan of a resolved attack on g; None for no attack."""
    if attack["kind"] == "H1":
        return h1_plan(g, attack["n"], attack["k"])
    if attack["kind"] == "H2":
        return h2_plan(g, attack["ks"])
    return None


def resolve_attack(spec: Any, g: CouplingGraph) -> dict:
    """The attack as reports embed it, checked by building its plan on g."""
    if spec in (None, "none"):
        return {"kind": "none"}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"attack must be 'none' or an object with 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "none":
        return {"kind": "none"}
    try:
        if kind == "H1":
            attack = {"kind": "H1", "n": int(spec["n"]), "k": float(spec["k"])}
        elif kind == "H2":
            attack = {"kind": "H2", "ks": [float(k) for k in spec["ks"]]}
        else:
            raise ConfigError(f"attack kind must be 'none', 'H1', or 'H2', got {kind!r}")
        attack_plan(attack, g)
    except KeyError as exc:
        raise ConfigError(f"attack {kind} missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} attack: {exc}") from None
    return attack


def resolve_workload(spec: Any, base_dir: Path) -> dict:
    """The workload as reports embed it: generator parameters, or QASM circuits."""
    if not isinstance(spec, dict):
        raise ConfigError(f"workload must be an object, got {spec!r}")
    if "qasm_files" in spec:
        if not isinstance(spec["qasm_files"], list):
            raise ConfigError(f"workload qasm_files must be a list, got {spec['qasm_files']!r}")
        circuits = []
        for p in spec["qasm_files"]:
            text = _read_config_file(base_dir, p)
            circuits.append({"id": Path(p).stem, "qasm": text})
        spec = {"circuits": circuits}
    if "circuits" in spec:
        if not isinstance(spec["circuits"], list):
            raise ConfigError(f"workload circuits must be a list, got {spec['circuits']!r}")
        circuits = []
        for entry in spec["circuits"]:
            try:
                jid, text = entry["id"], entry["qasm"]
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"workload circuit entry missing field: {exc}") from None
            # a jobs.csv cell: splitlines also rejects the empty id
            if not isinstance(jid, str) or "," in jid or jid.splitlines() != [jid]:
                raise ConfigError(
                    f"workload circuit id must be a non-empty string without commas or "
                    f"line breaks, got {jid!r}"
                )
            if any(c["id"] == jid for c in circuits):
                raise ConfigError(f"duplicate workload circuit id {jid!r}")
            if not isinstance(text, str):
                raise ConfigError(f"workload circuit {jid!r}: qasm must be a string")
            parse_qasm_subset(text)  # fail fast with the circuit's line numbers
            circuits.append({"id": jid, "qasm": text})
        if not circuits:
            raise ConfigError("workload lists no circuits")
        return {"kind": "qasm", "circuits": circuits}
    try:
        workload = {
            "kind": "generator",
            "count": int(spec["count"]),
            "size_min": int(spec["size_min"]),
            "size_max": int(spec["size_max"]),
            "gate_density": float(spec.get("gate_density", DEFAULT_GATE_DENSITY)),
            "seed": int(spec["seed"]),
        }
    except KeyError as exc:
        raise ConfigError(f"generator workload missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid generator workload: {exc}") from None
    if workload["count"] < 1:
        raise ConfigError("generator workload count must be positive")
    if not (1 <= workload["size_min"] <= workload["size_max"]):
        raise ConfigError("need 1 <= size_min <= size_max")
    return workload


@dataclass(frozen=True)
class ResolvedConfig:
    graph: CouplingGraph
    snapshot: CalibrationSnapshot
    allocator: str
    attack: dict
    workload: dict

    def with_seed(self, seed: int) -> ResolvedConfig:
        """This config with its generator workload drawn from another seed."""
        if self.workload["kind"] != "generator":
            raise ConfigError("seed overrides require a generator workload")
        return replace(self, workload={**self.workload, "seed": seed})

    def build_jobs(self) -> list[Job]:
        w = self.workload
        if w["kind"] == "qasm":
            return [Job(id=c["id"], circuit=parse_qasm_subset(c["qasm"])) for c in w["circuits"]]
        return gen_workload(w["count"], w["size_min"], w["size_max"], w["gate_density"], w["seed"])

    def as_dict(self) -> dict:
        return {
            "allocator": self.allocator,
            "attack": self.attack,
            "errors": {
                "cnot": {f"{u}-{v}": val for (u, v), val in sorted(self.snapshot.cnot_error.items())},
                "readout": {str(q): val for q, val in sorted(self.snapshot.readout_error.items())},
            },
            "topology": {
                "qubits": self.graph.qubit_count,
                "edges": [[u, v] for u, v in self.graph.edge_list],
            },
            "workload": self.workload,
        }


def resolve_config(raw: Any, base_dir: str | Path = ".") -> ResolvedConfig:
    """Validate a raw config tree and resolve every reference to content."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    base_dir = Path(base_dir)
    unknown = set(raw) - {"topology", "errors", "allocator", "attack", "workload", "out"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for required in ("topology", "errors", "workload"):
        if required not in raw:
            raise ConfigError(f"config missing required field {required!r}")
    g = resolve_topology(raw["topology"], base_dir)
    snapshot = resolve_errors(raw["errors"], g, base_dir)
    allocator = raw.get("allocator", "greedy")
    if not isinstance(allocator, str):
        raise ConfigError(f"allocator must be a name, got {allocator!r}")
    get_allocator(allocator)  # rejects unknown names
    attack = resolve_attack(raw.get("attack", "none"), g)
    workload = resolve_workload(raw["workload"], base_dir)
    return ResolvedConfig(g, snapshot, allocator, attack, workload)


def load_config_file(path: str | Path) -> dict:
    text = read_referenced_file(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return raw


@dataclass(frozen=True)
class SimulationResult:
    baseline: ExperimentReport
    attacked: ExperimentReport
    baseline_doc: dict
    attacked_doc: dict
    summary_doc: dict


def _pct_change(new: float, old: float) -> float:
    return 100.0 * (new - old) / old if old else 0.0


def run_simulate(rc: ResolvedConfig) -> SimulationResult:
    """Run the identical workload twice: honest reports, then attacked reports.

    The true snapshot is shared; only the reported snapshot differs between
    legs, so every metric delta is attributable to the misreport.
    """
    jobs = rc.build_jobs()
    snap_true = rc.snapshot
    plan = attack_plan(rc.attack, rc.graph)
    snap_attacked = apply_misreport(snap_true, rc.graph, plan)
    baseline = run_queue(jobs, rc.graph, snap_true, snap_true, rc.allocator)
    attacked = run_queue(jobs, rc.graph, snap_true, snap_attacked, rc.allocator)

    baseline_doc = {
        "config": replace(rc, attack={"kind": "none"}).as_dict(),
        "report": baseline.to_dict(),
    }
    attacked_doc = {
        "config": rc.as_dict(),
        "report": attacked.to_dict(),
    }
    summary_doc = {
        "config": rc.as_dict(),
        "attack_targets": [
            {"qubit": q, "delta": d} for q, d in (plan.targets if plan else ())
        ],
        "baseline": baseline.aggregates(),
        "attacked": attacked.aggregates(),
        "delta": {
            "rounds": attacked.total_rounds - baseline.total_rounds,
            "mean_utilization": attacked.mean_utilization - baseline.mean_utilization,
            "depth_pct": _pct_change(attacked.mean_depth, baseline.mean_depth),
            "pst_pct": _pct_change(attacked.mean_pst, baseline.mean_pst),
            "swaps": attacked.mean_swap_count - baseline.mean_swap_count,
        },
    }
    return SimulationResult(baseline, attacked, baseline_doc, attacked_doc, summary_doc)


def rounds_csv(r: ExperimentReport) -> str:
    lines = ["round,placed,active,utilization"]
    for rd in r.rounds:
        lines.append(
            f"{rd.round_index},{len(rd.placed_jobs)},{rd.active_qubits},{rd.utilization!r}"
        )
    return "\n".join(lines) + "\n"


def jobs_csv(r: ExperimentReport) -> str:
    lines = [",".join(JOB_COLUMNS)]
    lines += [",".join(str(getattr(j, field)) for field in JOB_COLUMNS.values()) for j in r.jobs]
    return "\n".join(lines) + "\n"


# each sweep.csv column after "seed", as its (section, key) in summary_doc
SWEEP_COLUMNS = {
    "baseline_rounds": ("baseline", "total_rounds"),
    "attacked_rounds": ("attacked", "total_rounds"),
    "delta_rounds": ("delta", "rounds"),
    "baseline_mean_utilization": ("baseline", "mean_utilization"),
    "attacked_mean_utilization": ("attacked", "mean_utilization"),
    "delta_mean_utilization": ("delta", "mean_utilization"),
    "baseline_mean_depth": ("baseline", "mean_depth"),
    "attacked_mean_depth": ("attacked", "mean_depth"),
    "depth_pct": ("delta", "depth_pct"),
    "baseline_mean_swaps": ("baseline", "mean_swap_count"),
    "attacked_mean_swaps": ("attacked", "mean_swap_count"),
    "baseline_mean_pst": ("baseline", "mean_pst"),
    "attacked_mean_pst": ("attacked", "mean_pst"),
    "pst_pct": ("delta", "pst_pct"),
}


def run_sweep(rc: ResolvedConfig, seeds: list[int]) -> tuple[list[dict], str]:
    """Per-seed baseline-vs-attack rows plus mean/std aggregate rows, as CSV."""
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    rows: list[dict] = []
    for seed in seeds:
        summary = run_simulate(rc.with_seed(seed)).summary_doc
        rows.append(
            {"seed": seed, **{c: summary[sec][key] for c, (sec, key) in SWEEP_COLUMNS.items()}}
        )
    lines = [",".join(["seed", *SWEEP_COLUMNS])]
    lines += [",".join(str(v) for v in row.values()) for row in rows]
    for label, fn in (("mean", np.mean), ("std", np.std)):
        cells = [str(float(fn([row[c] for row in rows]))) for c in SWEEP_COLUMNS]
        lines.append(",".join([label, *cells]))
    return rows, "\n".join(lines) + "\n"


def workload_manifest(jobs: list[Job], params: dict) -> dict:
    return {
        "params": params,
        "jobs": [{"id": j.id, "size": j.size, "file": f"{j.id}.qasm"} for j in jobs],
    }


def write_workload(jobs: list[Job], params: dict, out_dir: str | Path) -> None:
    out = Path(out_dir)
    for job in jobs:
        write_text_atomic(out / f"{job.id}.qasm", circuit_to_qasm(job.circuit))
    write_text_atomic(out / "manifest.json", dump_json(workload_manifest(jobs, params)))

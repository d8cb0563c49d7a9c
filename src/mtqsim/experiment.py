"""Experiment configuration and the baseline-vs-attack drivers.

A configuration names a topology, a base error model, an allocator, an
attack, and a workload. resolve_config checks every value (config_number
checks every number) and every field (check_fields rejects any field an
object's form does not take), and returns the very dict that reports embed,
with each file reference turned into inline content: the topology {"qubits",
"edges"}, the errors' "cnot"/"readout" maps, the attack {"kind": "none"},
{"kind": "H1", n, k} or {"kind": "H2", "ks": [...]}, and the workload
{"kind": "generator", count, size_min, size_max, gate_density, seed} or
{"kind": "qasm", "circuits": [{"id", "qasm"}, ...]}. run_simulate reads
nothing else, so re-running from an embedded config reproduces the report
byte for byte. The baseline leg always embeds attack "none", which makes
baseline reports byte-identical across attack variants sharing a workload
and topology.

run_simulate returns the three documents simulate writes, by file stem:
"baseline" and "attacked", each {"config", "report"} with the report that
scheduler.run_queue returns embedded as it is, and "summary". The CSV
writers lay out rows of one dict: rounds_csv and jobs_csv a leg's "report"
(jobs.csv's columns are scheduler.JOB_COLUMNS, the keys of its "jobs"), and
sweep_csv run_sweep's rows (SWEEP_COLUMNS), whose mean and std rows are
computed once, there.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from .adversary import MisreportPlan, apply_misreport, h1_plan, h2_plan
from .allocation import get_allocator
from .calibration import (
    CalibrationSeries,
    load_calibration_csv,
    uniform_snapshot,
    validate_snapshot,
)
from .errors import ConfigError, DataError
from .scheduler import AGGREGATES, JOB_COLUMNS, Job, check_generator, gen_workload, run_queue
from .topology import CouplingGraph, hanoi27, load_edge_list
from .transpile import circuit_to_qasm, parse_qasm_subset

BUILTIN_TOPOLOGIES = {"hanoi27": hanoi27}

DEFAULT_GATE_DENSITY = 2.0
# a generator workload's fields, in gen_workload's and check_generator's order
GENERATOR_FIELDS = ("count", "size_min", "size_max", "gate_density", "seed")


def read_referenced_file(path: str | Path) -> str:
    """Read a file named by a config or a flag: absence is a configuration
    error, bytes that are not UTF-8 malformed data; each message names path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read referenced file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


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


def config_number(value: Any, where: str, kind: type = float) -> int | float:
    """A number a config holds, as kind: an int field takes a JSON integer, a
    float field any JSON number. Neither takes a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of range, got {value}") from None


def check_fields(spec: dict, allowed: tuple[str, ...], what: str) -> None:
    """Reject every field of a config object that its form does not take."""
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown, key=str)}")


def resolve_topology(spec: Any, base_dir: Path) -> CouplingGraph:
    if isinstance(spec, str):
        if spec in BUILTIN_TOPOLOGIES:
            return BUILTIN_TOPOLOGIES[spec]()
        raise ConfigError(
            f"unknown topology {spec!r}; builtins: {sorted(BUILTIN_TOPOLOGIES)}"
        )
    if isinstance(spec, dict) and "file" in spec:
        check_fields(spec, ("file",), "topology file")
        return load_edge_list(_read_config_file(base_dir, spec["file"]))
    if isinstance(spec, dict) and "qubits" in spec and "edges" in spec:
        check_fields(spec, ("qubits", "edges"), "inline topology")
        qubits = config_number(spec["qubits"], "topology qubits", int)
        try:
            edges: set[tuple[int, int]] = set()
            for u, v in spec["edges"]:
                a, b = (config_number(q, "topology edge endpoint", int) for q in (u, v))
                if (min(a, b), max(a, b)) in edges:  # given before, either way round
                    raise ValueError(f"duplicate edge ({a}, {b})")
                edges.add((min(a, b), max(a, b)))
            return CouplingGraph(qubits, frozenset(edges))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline topology: {exc}") from None
    raise ConfigError(f"topology must be a builtin name, a file, or inline: {spec!r}")


def resolve_errors(spec: Any, g: CouplingGraph, base_dir: Path) -> CalibrationSeries:
    """The snapshot (a one-cycle series) an errors spec gives: uniform rates,
    one cycle of a calibration CSV, or inline cnot/readout maps."""
    if not isinstance(spec, dict):
        raise ConfigError(f"errors must be an object, got {spec!r}")
    if "uniform" in spec:
        check_fields(spec, ("uniform",), "uniform errors")
        u = spec["uniform"]
        if not isinstance(u, dict):
            raise ConfigError(f"uniform error model must be an object, got {u!r}")
        check_fields(u, ("cnot", "readout"), "uniform error model")
        try:
            rates = [config_number(u[key], f"uniform {key} error") for key in ("cnot", "readout")]
            return uniform_snapshot(g, *rates)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid uniform error model: {exc}") from None
    if "file" in spec:
        check_fields(spec, ("file", "cycle"), "errors file")
        series = load_calibration_csv(_read_config_file(base_dir, spec["file"]), g)
        cycle = config_number(spec.get("cycle", series.cycle_ids[0]), "errors cycle", int)
        rows = series.cycle_slice(cycle, cycle + 1)
        if rows.start == rows.stop:
            raise ConfigError(f"cycle {cycle} not present in {spec['file']}")
        return series.snapshot(rows.start)
    if "cnot" in spec and "readout" in spec:
        check_fields(spec, ("cnot", "readout"), "inline errors")
        if not (isinstance(spec["cnot"], dict) and isinstance(spec["readout"], dict)):
            raise ConfigError("inline 'cnot' and 'readout' error models must be objects")
        try:
            cnot, readout = (_inline_rates(spec[kind], kind) for kind in ("cnot", "readout"))
            return validate_snapshot(g, cnot, readout)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid inline error model: {exc}") from None
    raise ConfigError("errors must give 'uniform', a 'file', or inline 'cnot'/'readout'")


def _inline_rates(rates: dict, kind: str) -> dict:
    """An inline "cnot" or "readout" error map by edge or qubit, each rate
    checked. Two keys that name one edge or qubit, such as "1-2" and "01-2",
    are a ConfigError."""
    noun = "edge" if kind == "cnot" else "qubit"
    out: dict = {}
    spelled: dict = {}
    for key, val in rates.items():
        subject = tuple(map(int, key.split("-"))) if kind == "cnot" else int(key)
        if subject in spelled:
            raise ConfigError(
                f"{kind} error keys {spelled[subject]!r} and {key!r} both name {noun} {subject}"
            )
        spelled[subject] = key
        out[subject] = config_number(val, f"{kind} error {key}")
    return out


def attack_plan(attack: dict, g: CouplingGraph) -> MisreportPlan | None:
    """The misreport plan of a resolved attack on g; None for no attack."""
    if attack["kind"] == "H1":
        return h1_plan(g, attack["n"], attack["k"])
    if attack["kind"] == "H2":
        return h2_plan(g, attack["ks"])
    return None


def resolve_attack(spec: Any, g: CouplingGraph) -> dict:
    """The attack as reports embed it, checked by building its plan on g."""
    if spec in (None, "none", {"kind": "none"}):
        return {"kind": "none"}
    if not isinstance(spec, dict) or spec.get("kind") not in ("H1", "H2"):
        raise ConfigError(f"attack must be 'none' or an object of kind 'H1' or 'H2': {spec!r}")
    kind, fields = spec["kind"], sorted(set(spec) - {"kind"})
    if fields != (["k", "n"] if kind == "H1" else ["ks"]):
        raise ConfigError(f"{kind} attack takes {'k and n' if kind == 'H1' else 'ks'}, got {fields}")
    if kind == "H1":
        n, k = config_number(spec["n"], "H1 attack n", int), config_number(spec["k"], "H1 attack k")
        attack = {"kind": "H1", "n": n, "k": k}
    elif isinstance(spec["ks"], list):
        attack = {"kind": "H2", "ks": [config_number(k, "H2 attack ks entry") for k in spec["ks"]]}
    else:
        raise ConfigError(f"H2 attack ks must be a list, got {spec['ks']!r}")
    try:
        attack_plan(attack, g)
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} attack: {exc}") from None
    return attack


def resolve_workload(spec: Any, base_dir: Path) -> dict:
    """The workload as reports embed it: generator parameters, or QASM circuits.
    Each form takes its own fields and a "kind" that names it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"workload must be an object, got {spec!r}")
    kind = "qasm" if "qasm_files" in spec or "circuits" in spec else "generator"
    if spec.get("kind", kind) != kind:
        raise ConfigError(f"a {kind} workload's kind must be {kind!r}, got {spec['kind']!r}")
    if "qasm_files" in spec:
        check_fields(spec, ("kind", "qasm_files"), "qasm_files workload")
        if not isinstance(spec["qasm_files"], list):
            raise ConfigError(f"workload qasm_files must be a list, got {spec['qasm_files']!r}")
        circuits = []
        for p in spec["qasm_files"]:
            text = _read_config_file(base_dir, p)
            circuits.append({"id": Path(p).stem, "qasm": text})
        spec = {"circuits": circuits}
    if "circuits" in spec:
        check_fields(spec, ("kind", "circuits"), "circuits workload")
        if not isinstance(spec["circuits"], list):
            raise ConfigError(f"workload circuits must be a list, got {spec['circuits']!r}")
        circuits = []
        for entry in spec["circuits"]:
            try:
                jid, text = entry["id"], entry["qasm"]
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"workload circuit entry missing field: {exc}") from None
            check_fields(entry, ("id", "qasm"), "workload circuit")
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
    check_fields(spec, ("kind", *GENERATOR_FIELDS), "generator workload")
    spec = {"gate_density": DEFAULT_GATE_DENSITY, **spec}
    workload = {"kind": "generator"}
    for field in GENERATOR_FIELDS:
        if field not in spec:
            raise ConfigError(f"generator workload missing field {field!r}")
        number = float if field == "gate_density" else int
        workload[field] = config_number(spec[field], f"generator workload {field}", number)
    check_generator(*(workload[f] for f in GENERATOR_FIELDS))
    return workload


def with_seed(config: dict, seed: int) -> dict:
    """A resolved config with its generator workload drawn from another seed."""
    if config["workload"]["kind"] != "generator":
        raise ConfigError("seed overrides require a generator workload")
    workload = {**config["workload"], "seed": config_number(seed, "seed", int)}
    check_generator(*(workload[f] for f in GENERATOR_FIELDS))
    return {**config, "workload": workload}


def build_jobs(config: dict) -> list[Job]:
    """The jobs of a resolved config's workload."""
    w = config["workload"]
    if w["kind"] == "qasm":
        return [Job(id=c["id"], circuit=parse_qasm_subset(c["qasm"])) for c in w["circuits"]]
    return gen_workload(*(w[f] for f in GENERATOR_FIELDS))


def resolve_config(raw: Any, base_dir: str | Path = ".") -> dict:
    """Validate a raw config tree and resolve it to the dict reports embed,
    with every reference turned into inline content."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    base_dir = Path(base_dir)
    check_fields(raw, ("topology", "errors", "allocator", "attack", "workload", "out"), "config")
    for required in ("topology", "errors", "workload"):
        if required not in raw:
            raise ConfigError(f"config missing required field {required!r}")
    g = resolve_topology(raw["topology"], base_dir)
    snapshot = resolve_errors(raw["errors"], g, base_dir)
    cnot, readout = snapshot.rates()
    allocator = raw.get("allocator", "greedy")
    if not isinstance(allocator, str):
        raise ConfigError(f"allocator must be a name, got {allocator!r}")
    get_allocator(allocator)  # rejects unknown names
    return {
        "allocator": allocator,
        "attack": resolve_attack(raw.get("attack", "none"), g),
        "errors": {
            "cnot": {f"{u}-{v}": val for (u, v), val in zip(g.edge_list, cnot)},
            "readout": {str(q): val for q, val in enumerate(readout)},
        },
        "topology": {"qubits": g.qubit_count, "edges": [[u, v] for u, v in g.edge_list]},
        "workload": resolve_workload(raw["workload"], base_dir),
    }


def load_config_file(path: str | Path) -> dict:
    """A config file's object. Bytes that are not UTF-8, invalid JSON, nesting
    too deep to parse and a key given twice in one object are ConfigErrors."""

    def one_value_per_key(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k in obj if sum(k == other for other, _ in pairs) > 1)
            raise ConfigError(f"{path}: key {key!r} given twice in one object")
        return obj

    try:
        raw = json.loads(read_referenced_file(path), object_pairs_hook=one_value_per_key)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return raw


def _pct_change(new: float, old: float) -> float:
    return 100.0 * (new - old) / old if old else 0.0


def run_simulate(config: dict) -> dict:
    """Run the identical workload twice, honest reports then attacked reports,
    and return the three documents simulate writes, by file stem: "baseline"
    and "attacked", each {"config", "report"}, and "summary".

    The graph, true snapshot, jobs and plan are built from resolve_config's
    dict alone, as a replay builds them. The true snapshot is shared; only the
    reported snapshot differs between legs, so every metric delta is
    attributable to the misreport.
    """
    g = resolve_topology(config["topology"], Path())
    snap_true = resolve_errors(config["errors"], g, Path())
    jobs = build_jobs(config)
    plan = attack_plan(config["attack"], g)
    snap_attacked = apply_misreport(snap_true, plan)
    baseline = run_queue(jobs, snap_true, snap_true, config["allocator"])
    attacked = run_queue(jobs, snap_true, snap_attacked, config["allocator"])
    b, a = ({name: report[name] for name in AGGREGATES} for report in (baseline, attacked))
    return {
        "baseline": {"config": {**config, "attack": {"kind": "none"}}, "report": baseline},
        "attacked": {"config": config, "report": attacked},
        "summary": {
            "config": config,
            "attack_targets": [
                {"qubit": q, "delta": d} for q, d in (plan.targets if plan else ())
            ],
            "baseline": b,
            "attacked": a,
            "delta": {
                "rounds": a["total_rounds"] - b["total_rounds"],
                "mean_utilization": a["mean_utilization"] - b["mean_utilization"],
                "depth_pct": _pct_change(a["mean_depth"], b["mean_depth"]),
                "pst_pct": _pct_change(a["mean_pst"], b["mean_pst"]),
                "swaps": a["mean_swap_count"] - b["mean_swap_count"],
            },
        },
    }


def rounds_csv(report: dict) -> str:
    """A report's "rounds" as CSV rows, with the number of jobs placed."""
    lines = ["round,placed,active,utilization"]
    for r in report["rounds"]:
        lines.append(f"{r['round']},{len(r['placed'])},{r['active_qubits']},{r['utilization']!r}")
    return "\n".join(lines) + "\n"


def jobs_csv(report: dict) -> str:
    """A report's "jobs" as CSV rows, one column per JOB_COLUMNS entry."""
    lines = [",".join(JOB_COLUMNS)]
    lines += [",".join(str(j[c]) for c in JOB_COLUMNS) for j in report["jobs"]]
    return "\n".join(lines) + "\n"


# each sweep.csv column after "seed", as its (section, key) in a summary
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


def run_sweep(config: dict, seeds: list[int]) -> list[dict]:
    """sweep.csv's rows by column: one baseline-vs-attack row per seed, then
    the "mean" and "std" rows over them."""
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    configs = [with_seed(config, seed) for seed in seeds]  # check every seed before any run
    rows: list[dict] = []
    for seed, seeded in zip(seeds, configs):
        summary = run_simulate(seeded)["summary"]
        rows.append(
            {"seed": seed, **{c: summary[sec][key] for c, (sec, key) in SWEEP_COLUMNS.items()}}
        )
    return rows + [
        {"seed": label, **{c: float(fn([row[c] for row in rows])) for c in SWEEP_COLUMNS}}
        for label, fn in (("mean", np.mean), ("std", np.std))
    ]


def sweep_csv(rows: list[dict]) -> str:
    lines = [",".join(["seed", *SWEEP_COLUMNS])]
    lines += [",".join(str(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


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

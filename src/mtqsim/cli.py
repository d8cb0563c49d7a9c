"""Command-line experiment driver.

Subcommands: simulate, attack-plan, detect, sweep, gen-workload. Exit codes:
0 on success, 2 for configuration problems (bad flags or flag values, unknown
names, missing referenced files, unwritable output paths, workloads that
cannot be placed), 3 for malformed data file content. `main` is the one
place that maps errors to exit codes: ConfigError and ValueError exit 2,
DataError exits 3.

The CLI is a thin layer: everything it does is importable from the library
modules, and every report it writes embeds the resolved config and seeds
needed to reproduce it. Flags only fill in the raw config: --attack text
becomes an attack object whose values are numbers, and resolve_config
checks it exactly as it checks a config file's.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Sequence

from .adversary import H1, heuristic1_sigma_ranking, heuristic2_selection
from .calibration import load_calibration_csv
from .defense import (
    DEFAULT_BINS,
    DEFAULT_CALIBRATION_RUNS,
    DEFAULT_EPS,
    DEFAULT_PERCENTILE,
    detect,
    matched_threshold,
)
from .errors import ConfigError, DataError
from .experiment import (
    BUILTIN_TOPOLOGIES,
    DEFAULT_GATE_DENSITY,
    attack_plan,
    dump_json,
    jobs_csv,
    load_config_file,
    read_referenced_file,
    resolve_attack,
    resolve_config,
    resolve_topology,
    rounds_csv,
    run_simulate,
    run_sweep,
    sweep_csv,
    with_seed,
    write_text_atomic,
    write_workload,
)
from .scheduler import gen_workload


def _attack_token(text: str) -> int | float | str:
    """An --attack value as an int if it parses as one, else a float, else as is."""
    for number in (int, float):
        with contextlib.suppress(ValueError):
            return number(text)
    return text.strip()


def parse_attack_spec(spec: str) -> str | dict:
    """--attack text as a config attack: 'none', 'H1:n=3,k=0.15', 'H2:k=0.15,0.12,0.10'.

    Only a field given twice is rejected here; resolve_attack checks the rest.
    """
    spec = spec.strip()
    if ":" not in spec:
        return spec  # 'none'; resolve_attack rejects any other
    kind, _, params = spec.partition(":")
    attack = {"kind": kind.strip().upper()}
    if attack["kind"] == "H2":
        body = params.strip()
        if body.startswith(("k=", "ks=")):
            body = body.split("=", 1)[1]
        attack["ks"] = [_attack_token(x) for x in body.split(",") if x.strip()]
        return attack
    for part in filter(str.strip, params.split(",")):
        key, _, val = part.partition("=")
        if key.strip() in attack:
            raise ConfigError(f"attack field {key.strip()!r} given twice in {spec!r}")
        attack[key.strip()] = _attack_token(val)
    return attack


# the most seeds a '--seeds' range may give; each seed is a full simulate run
MAX_SEEDS = 10**5


def parse_seed_list(spec: str) -> list[int]:
    """'1,2,5' or an inclusive range '1..20' of at most MAX_SEEDS seeds."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError(f"empty range {spec!r}")
            if hi_i - lo_i >= MAX_SEEDS:
                raise ValueError(f"range of {hi_i - lo_i + 1} seeds exceeds {MAX_SEEDS}")
            return list(range(lo_i, hi_i + 1))
        seeds = [int(s) for s in spec.split(",") if s.strip()]
        if not seeds:
            raise ValueError("no seeds")
        return seeds
    except ValueError as exc:
        raise ConfigError(f"bad seed list {spec!r}: {exc}") from None


def parse_windows(spec: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """'0:7,7:14' -> ((0, 7), (7, 14)); ranges are half-open cycle ids."""
    try:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError("need exactly two ranges")
        out = []
        for part in parts:
            lo, hi = part.split(":")
            out.append((int(lo), int(hi)))
        return out[0], out[1]
    except ValueError as exc:
        raise ConfigError(f"bad windows {spec!r} (want 'lo:hi,lo:hi'): {exc}") from None


def topology_entry(flag: str) -> str | dict:
    """--topology as a config entry: a builtin name, else an edge-list file.

    The file path is made absolute against the working directory, so a
    config that resolves file references against its own directory still
    reads the file the user named.
    """
    if flag in BUILTIN_TOPOLOGIES:
        return flag
    return {"file": str(Path(flag).absolute())}


def resolve_run(args: argparse.Namespace, seeds: Sequence[int] = ()) -> tuple[dict, Path]:
    """The --config file with its flag overrides applied, resolved, and the
    output directory. The directory is created once the config, --seed and
    every one of seeds check out, so that an unwritable one fails before any
    run and a rejected run leaves none behind."""
    raw = load_config_file(args.config)
    if getattr(args, "topology", None):
        raw["topology"] = topology_entry(args.topology)
    if args.allocator:
        raw["allocator"] = args.allocator
    if args.attack:
        raw["attack"] = parse_attack_spec(args.attack)
    config = resolve_config(raw, Path(args.config).parent)
    if getattr(args, "seed", None) is not None:
        config = with_seed(config, args.seed)
    for seed in seeds:
        with_seed(config, seed)
    out = raw.get("out", "reports")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a directory path string, got {out!r}")
    out_dir = Path(args.out or out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    return config, out_dir


def cmd_simulate(args: argparse.Namespace) -> int:
    config, out_dir = resolve_run(args)
    docs = run_simulate(config)
    for name, doc in docs.items():
        write_text_atomic(out_dir / f"{name}.json", dump_json(doc))
    for leg in ("baseline", "attacked"):
        write_text_atomic(out_dir / f"{leg}_rounds.csv", rounds_csv(docs[leg]["report"]))
        write_text_atomic(out_dir / f"{leg}_jobs.csv", jobs_csv(docs[leg]["report"]))

    summary = docs["summary"]
    d = summary["delta"]
    print(
        f"baseline rounds {summary['baseline']['total_rounds']}, attacked rounds "
        f"{summary['attacked']['total_rounds']} (delta {d['rounds']:+d}); "
        f"utilization delta {d['mean_utilization']:+.4f}; "
        f"depth {d['depth_pct']:+.2f}%; pst {d['pst_pct']:+.2f}%"
    )
    print(f"reports written to {out_dir}")
    return 0


def cmd_attack_plan(args: argparse.Namespace) -> int:
    g = resolve_topology(topology_entry(args.topology), Path("."))
    plan = attack_plan(resolve_attack(parse_attack_spec(args.attack), g), g)
    if plan is None:
        raise ConfigError("attack-plan needs an H1 or H2 attack spec")
    n = len(plan.targets)
    if plan.heuristic == H1:
        ranking = heuristic1_sigma_ranking(g)
        sigma = dict(ranking)
        doc = {
            "heuristic": plan.heuristic,
            "n": n,
            "targets": [
                {"qubit": q, "delta": d, "sigma": sigma[q]} for q, d in plan.targets
            ],
            "pool_sigma_ranking": [{"qubit": q, "sigma": s} for q, s in ranking],
        }
    else:
        targets = [
            {
                "qubit": q,
                "delta": d,
                "min_distance_to_selected": min(profile) if profile else None,
                "distance_profile": list(profile),
            }
            for (q, d), (_, profile) in zip(plan.targets, heuristic2_selection(g, n))
        ]
        doc = {"heuristic": plan.heuristic, "n": n, "targets": targets}
    text = dump_json(doc)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"plan written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    g = resolve_topology(topology_entry(args.topology), Path("."))
    series = load_calibration_csv(read_referenced_file(args.calib), g)
    window1, window2 = parse_windows(args.windows)

    if args.tau is not None:
        tau = args.tau
        tau_source = "explicit"
    else:
        tau, cv = matched_threshold(
            series, window1, window2, runs=args.calibration_runs, cv=args.calibration_cv,
            bins=args.bins, eps=args.eps, percentile=args.percentile,
        )
        tau_source = f"synthetic honest drift (cv={cv:.4f}, {args.calibration_runs} runs)"

    verdict = detect(series, window1, window2, bins=args.bins, eps=args.eps, tau=tau)
    doc = {
        "tau": verdict.tau,
        "params": {
            "bins": args.bins,
            "eps": args.eps,
            "window1": list(window1),
            "window2": list(window2),
            "percentile": args.percentile,
            "tau_source": tau_source,
        },
        "qubits": [
            {
                "qubit": q,
                "divergence": verdict.divergence[q],
                "flagged": q in verdict.flagged,
            }
            for q in sorted(verdict.divergence)
        ],
    }
    text = dump_json(doc)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"verdict written to {args.out}")
    flagged = sorted(verdict.flagged)
    print(f"tau {tau:.6f} ({tau_source}); flagged qubits: {flagged if flagged else 'none'}")
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    seeds = parse_seed_list(args.seeds)
    config, out_dir = resolve_run(args, seeds)
    rows = run_sweep(config, seeds)
    write_text_atomic(out_dir / "sweep.csv", sweep_csv(rows))
    *per_seed, mean, _std = rows
    print(
        f"{len(per_seed)} seeds: mean delta rounds {mean['delta_rounds']:+.2f}, "
        f"mean utilization delta {mean['delta_mean_utilization']:+.4f}, "
        f"mean depth change {mean['depth_pct']:+.2f}%, mean pst change {mean['pst_pct']:+.2f}%"
    )
    print(f"sweep written to {out_dir / 'sweep.csv'}")
    return 0


def cmd_gen_workload(args: argparse.Namespace) -> int:
    params = {
        "count": args.count,
        "size_min": args.size_min,
        "size_max": args.size_max,
        "gate_density": args.density,
        "seed": args.seed,
    }
    jobs = gen_workload(**params)
    write_workload(jobs, params, args.out)
    print(f"{len(jobs)} circuits written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtqsim",
        description="Multi-tenant quantum allocation simulator and misreport analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one baseline-vs-attack comparison")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--topology", help="override: builtin name or edge-list file")
    p.add_argument("--allocator", help="override: greedy or comdap")
    p.add_argument("--attack", help="override: none, H1:n=3,k=0.15, or H2:k=0.15,0.12,0.10")
    p.add_argument("--seed", type=int, help="override the workload generator seed")
    p.add_argument("--out", help="output directory (default from config, else ./reports)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack-plan", help="emit a misreport plan with selection evidence")
    p.add_argument("--topology", default="hanoi27", help="builtin name or edge-list file")
    p.add_argument("--attack", required=True, help="H1:n=3,k=0.15 or H2:k=0.15,0.12,0.10")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_attack_plan)

    p = sub.add_parser("detect", help="KL-divergence misreport detection on a calibration series")
    p.add_argument("--calib", required=True, help="calibration CSV file")
    p.add_argument("--topology", default="hanoi27", help="builtin name or edge-list file")
    p.add_argument("--windows", required=True, help="two half-open cycle ranges, e.g. 0:7,7:14")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--tau", type=float, help="divergence threshold (calibrated synthetically if omitted)")
    p.add_argument("--percentile", type=float, default=DEFAULT_PERCENTILE)
    p.add_argument("--calibration-runs", type=int, default=DEFAULT_CALIBRATION_RUNS)
    p.add_argument("--calibration-cv", type=float, help="override the estimated drift cv")
    p.add_argument("--out", help="verdict JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sweep", help="multi-seed baseline-vs-attack aggregate")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", required=True, help="comma list '1,2,3' or inclusive range '1..20'")
    p.add_argument("--allocator", help="override: greedy or comdap")
    p.add_argument("--attack", help="override attack spec")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-workload", help="emit a seeded synthetic workload as circuit files")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size-min", type=int, default=2)
    p.add_argument("--size-max", type=int, default=10)
    p.add_argument("--density", type=float, default=DEFAULT_GATE_DENSITY)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_workload)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

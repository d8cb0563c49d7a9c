"""mtqsim's benchmark: simulate and detect through the CLI, end to end and per layer.

Run from the root of a source checkout (no install needed):

    python3 bench/run.py --workload sim-comdap --seed 1 --seconds 30 --trace 0

Workloads (see README.md): sim-comdap, sim-greedy, audit. The benchmark
writes its inputs from --seed, then calls mtqsim.cli.main in this process,
one operation after another (a closed loop, one client), in passes over the
same operations until the next pass would end after --seconds (two passes at
least). Every operation's outputs are checked against values computed apart
from the program (checks.py), and each later pass must write the same bytes
as the first.

--trace 0 prints the end-to-end metrics: setup_s, run_s and peak_rss_mb.
--trace 1 alternates untraced passes with passes traced per layer
(tracing.py) and prints the per-layer metrics. The last line of standard
output is the result as JSON. Outputs go to .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
PROGRAM_MODULES = (
    "topology", "calibration", "adversary", "allocation", "transpile",
    "scheduler", "defense", "experiment", "cli",
)


def load_program():
    """Import mtqsim from this checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "mtqsim" / "__init__.py").is_file():
        sys.exit(f"bench: no mtqsim package under {src}")
    sys.path.insert(0, str(src))
    import importlib

    for name in PROGRAM_MODULES:
        module = importlib.import_module(f"mtqsim.{name}")
        if src.resolve() not in Path(module.__file__).resolve().parents:
            sys.exit(f"bench: mtqsim.{name} was imported from {module.__file__}, not {src}")
    return sys.modules["mtqsim.cli"]


def setup(workload_name: str, seed: int):
    """Everything before the first operation: imports and input files."""
    from inputs import WORKLOADS, write_inputs

    cli = load_program()
    workload = WORKLOADS[workload_name]
    out = OUT / workload_name
    return cli, workload, out, write_inputs(workload, seed, out)


def setup_child(spawned_at: float, workload: str, seed: int) -> None:
    """Time one set-up from process start, as its own process, and print it."""
    with SpeedProbe() as probe:
        setup(workload, seed)
        own, scaled = probe.since((0, 0.0), time.perf_counter() - spawned_at)
    print(json.dumps({"own": own, "scaled": scaled}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               repr(time.perf_counter()), "--workload", workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def _out_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()) if path.is_dir() else [path]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Operations:
    """One pass's CLI calls, their checks, and the first pass's output digests."""

    def __init__(self, cli, workload, out: Path, argvs: list[list[str]]):
        import checks

        self.cli, self.workload, self.argvs = cli, workload, argvs
        self.checks = checks
        self.expected = (
            checks.expected_verdict((out / "calibration.csv").read_text())
            if workload.command == "detect" else None
        )
        self.reference: list[tuple[bool, str] | None] = [None] * len(argvs)
        self.stats: list[dict] = [{} for _ in argvs]
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def call(self, i: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = self.cli.main(self.argvs[i])
            except Exception:  # a traceback is a failed operation, not a benchmark crash
                err.write(traceback.format_exc())
                code = None
        if code != 0:
            self.problems.append(f"{self.argvs[i]} exited {code}: {err.getvalue().strip()[-300:]}")
        return code

    def check(self, i: int, code) -> None:
        """Count operation i; it fails unless it exited 0 with correct outputs."""
        self.attempted += 1
        out = _out_path(self.argvs[i])
        ok = code == 0
        if ok and self.reference[i] is None:
            if self.workload.command == "detect":
                bad, self.stats[i] = self.checks.check_detect(out, self.expected)
            else:
                gen_seed = int(self.argvs[i][self.argvs[i].index("--seed") + 1])
                bad, self.stats[i] = self.checks.check_simulate(out, gen_seed)
            self.problems += bad
            self.reference[i] = (not bad, digest(out))
        if ok:
            first_ok, first_digest = self.reference[i]
            same = digest(out) == first_digest
            if not same:
                self.problems.append(f"{out} differs from the first pass")
            ok = first_ok and same
        self.failed += not ok


def run_pass(ops: Operations, probe: SpeedProbe) -> tuple[float, float]:
    """One closed-loop pass; returns (wall seconds, seconds at reference speed)."""
    wall = scaled = 0.0
    for i in range(len(ops.argvs)):
        gc.collect()  # every operation starts from the same heap state
        mark = probe.mark()
        t0 = time.perf_counter()
        code = ops.call(i)
        dt = time.perf_counter() - t0
        own, own_scaled = probe.since(mark, dt)
        wall += own
        scaled += own_scaled
        ops.check(i, code)
    return wall, scaled


def keep_going(started: float, seconds: float, passes: int, minimum: int) -> bool:
    """True while the next pass is expected to end within the run's seconds."""
    if passes < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds


def run_untraced(ops: Operations, seconds: float) -> dict:
    walls, scaled = [], []
    started = time.perf_counter()
    with SpeedProbe() as probe:
        while keep_going(started, seconds, len(walls), 2):
            w, s = run_pass(ops, probe)
            walls.append(w)
            scaled.append(s)
    return {"pass_wall_s": walls, "pass_scaled_s": scaled}


def run_traced(ops: Operations, seconds: float, out: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are per pass."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    started = time.perf_counter()
    with SpeedProbe() as probe:
        while keep_going(started, seconds, len(traced), 1):
            plain.append(run_pass(ops, probe)[1])
            tracer.reset()
            first = len(probe.samples)
            tracer.install()
            try:
                wall, scaled = run_pass(ops, probe)
            finally:
                tracer.uninstall()
            traced.append(scaled)
            per_pass.append(tracer.pass_metrics(probe.starts[first:], probe.samples[first:], scaled / wall))
    tracer.write(out / "spans.npz")
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"pass_scaled_s": plain, "traced_pass_scaled_s": traced, "metrics": metrics}


PER_LAYER = (
    "scheduler.run_queue.s", "scheduler.run_queue.self_s",
    "scheduler.alloc.attempts", "scheduler.alloc.useful_ratio",
    "allocation.comdap_allocate.s", "allocation.louvain.calls", "allocation.louvain.s",
    "allocation.cri.calls", "allocation.cri.s",
    "allocation.greedy_allocate.s", "allocation.cfm.calls", "allocation.cfm.s",
    "topology.induced_diameter.calls", "topology.induced_diameter.s",
    "topology.incident_edges.calls",
    "transpile.initial_layout.s", "transpile.route.s", "transpile.depth.s",
    "transpile.pst_estimate.s", "transpile.route.swaps",
    "calibration.avg_cnot_error.calls", "calibration.avg_cnot_error.s",
    "calibration.validate_snapshot.calls", "calibration.validate_snapshot.s",
    "calibration.cycle_slice.calls", "calibration.load_calibration_csv.s",
    "calibration.synth_drift.s",
    "defense.calibrate_threshold.s", "defense.detect.s",
    "defense.qubit_divergence.calls", "defense.qubit_divergence.s",
    "experiment.run_simulate.s", "experiment.write_text_atomic.s",
    "cli.main.self_s", "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_child is not None:
        setup_child(args.setup_child, args.workload, args.seed)
        return 0

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    cli, workload, out, argvs = setup(args.workload, args.seed)
    ops = Operations(cli, workload, out, argvs)
    if args.trace:
        result = run_traced(ops, args.seconds, out)
        metrics = {k: {"value": result["metrics"][k], "unit": unit_of(k)} for k in PER_LAYER}
    else:
        result = run_untraced(ops, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(s["scaled"] for s in setup_samples), "unit": "s"},
            "run_s": {"value": statistics.median(result["pass_scaled_s"]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        result["setup"] = setup_samples
    result.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        attempted=ops.attempted, failed=ops.failed, problems=ops.problems[:20], stats=ops.stats,
    )
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    for line in ops.problems[:5]:
        print(f"bench: {line}", file=sys.stderr)
    for key in ("pass_wall_s", "pass_scaled_s", "traced_pass_scaled_s"):
        if key in result:
            print(f"{workload.name} seed {args.seed}: {key} over {len(argvs)} operations: "
                  + " ".join(f"{w:.3f}" for w in result[key]))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

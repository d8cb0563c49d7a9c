"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/repeat.py --seeds 1..10 --seconds 30
    python3 bench/repeat.py --seeds 1..2 --seconds 30 --trace 1 --workloads audit

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, plus the share of failed operations. With --trace 0 it also prints
the simulated statistics the runs checked. Each run's result is appended to
.bench_out/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-comdap", "sim-greedy", "audit")


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" / workload / f"result-trace{trace}.json").read_text())
    return {"workload": workload, "seed": seed, "trace": trace, "result": out, "detail": detail}


def spread(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else float("nan")
    return f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}"


def sim_stats(runs: list[dict]) -> None:
    for leg in ("baseline", "attacked"):
        per_call = [s[leg] for r in runs for s in r["detail"]["stats"]]
        for key in ("rounds", "mean_swaps", "mean_pst"):
            print(f"    {leg} {key}: mean over {len(per_call)} calls "
                  f"{statistics.mean(p[key] for p in per_call):.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", default="1..10", help="inclusive range, e.g. 1..10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    log = ROOT / ".bench_out" / "repeat.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            with log.open("a") as f:
                f.write(json.dumps(runs[-1]) + "\n")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}, "
              f"correct {all(r['result']['correct'] for r in runs)}")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            print(f"  {name} [{runs[0]['result']['metrics'][name]['unit']}]: {spread(values)}")
        if args.trace == 0 and workload == "audit":
            for r in runs:
                s = r["detail"]["stats"][0]
                print(f"    seed {r['seed']}: tau {s.get('tau')!r} flagged {s.get('flagged')}")
        elif args.trace == 0:
            sim_stats(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

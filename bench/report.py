"""Run workloads over several seeds and print every metric with its spread.

    python3 bench/report.py                       # every workload, seed 1
    python3 bench/report.py --seeds 1-10 --workloads sweep2d-const
    python3 bench/report.py --trace 1             # per-layer metrics

Each run is its own process (`run.py`), one after another, so peak memory
is per workload.  For each workload and metric the summary gives the median
over seeds and the spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median.
An end-to-end spread above a third of the metric's bound in BENCHMARK.json
is flagged.  fail_rate is failed ops / attempted ops over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=[1])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            line = run_once(workload, seed, args.seconds, args.trace)
            runs.append(line)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in line["metrics"].items())
            print(f"{workload} seed {seed}: {line['attempted']} ops, {line['failed']} failed, "
                  f"{time.perf_counter() - start:.1f} s wall; {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, fail_rate {failed / attempted:.4g} "
              f"({failed}/{attempted})")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = ""
            if name in bounds and s > bounds[name] / 3:
                flag = f"  SPREAD ABOVE {bounds[name] / 3:.3f}"
            print(f"   {name:30s} {statistics.median(values):12.6g} {metric['unit']:8s}"
                  f" spread {s:.3f}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

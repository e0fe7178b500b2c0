"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 bench/smoke.py

Checks that every metric of BENCHMARK.json is emitted with its unit, that
exact counts repeat across two runs with the same seed, that a perturbed
solution (injected here, not in the program) is counted as failed, and that
run.py refuses to run without the library.  Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

if not run.prepare():
    raise SystemExit("no diagsweep library under src/")

import numpy as np  # noqa: E402  (after run.prepare caps BLAS threads)

import harness  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "krylov.iterations",
    "subdomain.factorizations",
    "subdomain.solves",
    "ddm.scheduled_solves",
    "transfer.psi_calls",
    "pml.apply_calls",
    "pipeline.tasks",
)
TINY = {
    "sweep2d-const": dict(cells=40, counts=(2, 2), pml=6, overlap=2, frequency=2.0),
    "sweep3d-const": dict(cells=16, counts=(2, 2, 2), pml=4, overlap=2, frequency=1.0),
    "gmres2d-raster": dict(cells=40, counts=(2, 2), pml=6, overlap=2, frequency=3.0,
                           raster_samples=9, raster_sigma=1.0),
    "pipeline-sat3d": dict(counts=(2, 2), n_rhs=60, n_iter=10),
}
OPS = 3


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def run_tiny(name: str, trace: bool, seed: int = 7):
    line, _, _ = harness.run(tiny(name), seed, seconds=1e9, trace=trace, max_ops=OPS)
    return line


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_metrics_and_counts() -> None:
    wanted = {
        False: {m["name"]: m["unit"] for m in CONFIG["end_to_end"]},
        True: {m["name"]: m["unit"] for m in CONFIG["per_layer"]},
    }
    for name in TINY:
        for trace in (False, True):
            line = run_tiny(name, trace)
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] == OPS,
                   f"{name} trace={trace}: {OPS} ops, none failed")
            units = {k: m["unit"] for k, m in line["metrics"].items()}
            expect(units == wanted[trace], f"{name} trace={trace}: every metric with its unit")
            expect(all(np.isfinite(m["value"]) for m in line["metrics"].values()),
                   f"{name} trace={trace}: finite values")
        again = run_tiny(name, True)
        counts = {k: line["metrics"][k]["value"] for k in EXACT_COUNTS}
        repeat = {k: again["metrics"][k]["value"] for k in EXACT_COUNTS}
        expect(counts == repeat, f"{name}: exact counts repeat for one seed {counts}")


def noisy(values: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(0)
    return values + 1e-3 * np.abs(values).max() * rng.standard_normal(values.shape)


def check_perturbation_fails() -> None:
    """Perturb what every op returns, before the benchmark checks it."""
    perturb = {
        workloads.SweepWorkload: noisy,
        workloads.PipelineWorkload:
            lambda s: dataclasses.replace(s, avg_per_rhs=s.avg_per_rhs * 1.01),
    }
    originals = {cls: cls.run_op for cls in perturb}
    for cls, fn in perturb.items():
        def run_op(self, *args, _run_op=originals[cls], _fn=fn):
            result = _run_op(self, *args)
            return dataclasses.replace(result, value=_fn(result.value))
        cls.run_op = run_op
    try:
        for name in TINY:
            line = run_tiny(name, False)
            expect(not line["correct"] and line["failed"] == line["attempted"] == OPS,
                   f"{name}: every perturbed op counted as failed")
    finally:
        for cls, fn in originals.items():
            cls.run_op = fn


def check_refuses_without_library() -> None:
    bare = run.BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*CONFIG["command"], "--workload", CONFIG["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    check_metrics_and_counts()
    check_perturbation_fails()
    check_refuses_without_library()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One closed-loop benchmark run: set-up, timed ops, checks, metrics.

One caller runs ops back to back until `seconds` of op wall time have
passed; the correctness check after each op is not on the clock, nor is the
reference work run between ops to measure the host's pace (pace.py).
After the timed phase the run reads its peak resident memory, then solves
the first op's problem with the plain single-domain `global-direct` method
as the baseline and the reference for the first op.  Every set-up, op and
span time is reported in paced seconds, each by the reference samples
taken just before and after its step; the record keeps the wall times too.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np
import scipy

import diagsweep
from pace import NOMINAL_S, Pace
from spans import Tracer
from workloads import CONSTANTS

TAIL_ABOVE = 10  # the tail percentile keeps this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "pml.assemble_s": "s",
    "pml.apply_s": "s",
    "pml.apply_calls": "count",
    "subdomain.factorizations": "count",
    "subdomain.factorize_s": "s",
    "subdomain.cache_hit_ratio": "ratio",
    "subdomain.factor_bytes": "bytes",
    "subdomain.solves": "count",
    "subdomain.solve_s": "s",
    "subdomain.solve_gflop": "Gflop",
    "subdomain.solve_gflops": "Gflop/s",
    "subdomain.global_factorize_s": "s",
    "subdomain.global_solve_s": "s",
    "transfer.psi_calls": "count",
    "transfer.psi_s": "s",
    "transfer.discarded_sources": "count",
    "ddm.sweeps": "count",
    "ddm.sweep_s": "s",
    "ddm.self_s": "s",
    "ddm.scheduled_solves": "count",
    "ddm.nonzero_ratio": "ratio",
    "krylov.iterations": "count",
    "krylov.precond_s": "s",
    "krylov.matvec_s": "s",
    "krylov.orth_s": "s",
    "pipeline.tasks": "count",
    "pipeline.simulate_s": "s",
    "pipeline.tasks_per_s": "1/s",
    "trace.op_s_p50_traced": "s",
    "trace.op_s_p50_untraced": "s",
    "trace.overhead": "ratio",
}

# per-layer metric -> (span name, field of Tracer.totals: 0 count, 1 total, 2 self)
_SPAN_METRICS = {
    "pml.apply_s": ("pml.apply", 1),
    "pml.apply_calls": ("pml.apply", 0),
    "subdomain.solves": ("subdomain.solve", 0),
    "subdomain.solve_s": ("subdomain.solve", 1),
    "transfer.psi_calls": ("transfer.psi", 0),
    "transfer.psi_s": ("transfer.psi", 1),
    "ddm.sweeps": ("ddm.sweep", 0),
    "ddm.sweep_s": ("ddm.sweep", 1),
    "ddm.self_s": ("ddm.sweep", 2),
    "krylov.precond_s": ("krylov.precond", 1),
    "krylov.matvec_s": ("pml.apply", 1),
    "krylov.orth_s": ("krylov.gmres", 2),
    "pipeline.simulate_s": ("pipeline.simulate", 1),
}
_COUNTER_METRICS = (
    "transfer.discarded_sources",
    "ddm.scheduled_solves",
    "krylov.iterations",
    "pipeline.tasks",
)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the highest percentile with
    TAIL_ABOVE samples above it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, TAIL_ABOVE


def run(workload, seed: int, seconds: float, trace: bool, max_ops: int | None = None):
    """Run one workload; returns (result line, run record, tracer)."""
    tracer = Tracer(trace)
    pace = Pace()
    media = workload.media(seed)
    digest = hashlib.sha256(workload.media_bytes(media))
    problems, setup_wall = workload.set_ups(media, tracer, pace)

    op_wall, failures = [], {}
    first = None
    busy, op = 0.0, 0
    while busy < seconds and (max_ops is None or op < max_ops):
        inputs = workload.op_input(seed, op)
        digest.update(np.ascontiguousarray(inputs).tobytes())
        problem = workload.problem_of(problems, op)
        argument = workload.op_argument(problem, inputs)
        traced = trace and op % 2 == 0  # alternate, to measure the overhead
        result = None
        pace.sample()
        start = time.perf_counter()
        try:
            with tracer.traced(op) if traced else nullcontext(), tracer.span("op"):
                result = workload.run_op(problem, argument, tracer)
        except Exception:  # a raising op counts as failed; the run goes on
            failures[op] = "raised: " + traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if result is not None:
            failure = workload.check(problem, argument, result)
            if failure is not None:
                failures[op] = failure
        busy += elapsed
        op_wall.append(elapsed)
        if op == 0:
            first = (problem, argument, result.value if result else None)
        op += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pace.sample()
    with tracer.traced("baseline") if trace else nullcontext():
        reference = workload.global_direct(*first, tracer) if first[2] is not None else None
    pace.sample()
    if reference is not None:
        failures[0] = reference

    # paced seconds per wall second of every step: set-ups, ops, baseline
    attempted, n = op, len(setup_wall)
    factor = [pace.paced(1.0, k) for k in range(n + attempted + 1)]
    setup_times = [t * f for t, f in zip(setup_wall, factor)]
    op_times = [t * f for t, f in zip(op_wall, factor[n:])]
    phase_scale = {f"setup{k}": factor[k] for k in range(n)}
    phase_scale.update({i: factor[n + i] for i in range(attempted)})
    phase_scale["baseline"] = factor[-1]
    traced_times = op_times[0::2] if trace else []
    times = op_times[1::2] if trace else op_times
    all_times = times + traced_times
    tail_value, tail_pct, tail_above = tail(all_times)
    if trace:
        metrics = per_layer(tracer, phase_scale, problems, times, traced_times)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(all_times),
            "op_s_tail": tail_value,
            "ops_per_s": (attempted - len(failures)) / sum(all_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "spec": asdict(workload),
        "constants": CONSTANTS,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_sha256": digest.hexdigest(),
        "fail_rate": len(failures) / attempted,
        "failures": {str(k): v for k, v in failures.items()},
        "setup_times_s": setup_times,
        "op_times_s": all_times if not trace else {"untraced": times, "traced": traced_times},
        "setup_wall_s": setup_wall,
        "op_wall_s": op_wall,
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_samples": len(all_times),
        "op_s_tail_samples_above": tail_above,
        "peak_rss_mb": peak_rss_mb,
        "pace": {
            "nominal_s": NOMINAL_S,
            "scale": pace.scale(),
            "samples_s": pace.samples,
        },
        "environment": environment(),
        "result": line,
    }
    return line, record, tracer


def per_layer(tracer: Tracer, phase_scale: dict, problems, times, traced_times) -> dict:
    """Per-layer metrics of the traced run, in paced seconds.

    Set-up metrics are medians over the set-ups, op metrics medians over the
    traced ops; a layer the workload never reaches reads 0.  `phase_scale`
    gives the paced seconds per wall second of each set-up, op and the
    baseline; `times` and `traced_times` are paced already.
    """
    totals = tracer.totals(phase_scale)
    counters = tracer.counters
    setups = [p for p in totals if isinstance(p, str) and p.startswith("setup")]
    ops = sorted(p for p in totals if isinstance(p, int))

    def over_setups(fn):
        return statistics.median(fn(totals[p], counters[p]) for p in setups)

    def over_ops(fn):
        return statistics.median(fn(totals[p], counters[p]) for p in ops) if ops else 0.0

    def hit_ratio(_, c):
        calls = c["subdomain.cache_hits"] + c["subdomain.cache_misses"]
        return c["subdomain.cache_hits"] / calls if calls else 0.0

    def gflops(t, c):
        solve_s = t["subdomain.solve"][1]
        return c["subdomain.solve_flop"] / 1e9 / solve_s if solve_s else 0.0

    def tasks_per_s(t, c):
        sim_s = t["pipeline.simulate"][1]
        return c["pipeline.tasks"] / sim_s if sim_s else 0.0

    out = {
        "pml.assemble_s": over_setups(lambda t, c: t["pml.assemble"][1]),
        "subdomain.factorizations": over_setups(lambda t, c: t["subdomain.factorize"][0]),
        "subdomain.factorize_s": over_setups(lambda t, c: t["subdomain.factorize"][1]),
        "subdomain.cache_hit_ratio": over_setups(hit_ratio),
        "subdomain.factor_bytes": statistics.median(
            p.cache.total_bytes if p is not None else 0 for p in problems
        ),
        "subdomain.solve_gflop": over_ops(lambda t, c: c["subdomain.solve_flop"] / 1e9),
        "subdomain.solve_gflops": over_ops(gflops),
        "subdomain.global_factorize_s": totals["baseline"]["subdomain.global_factorize"][1],
        "subdomain.global_solve_s": totals["baseline"]["subdomain.global_solve"][1],
        "pipeline.tasks_per_s": over_ops(tasks_per_s),
    }
    for name, (span, field) in _SPAN_METRICS.items():
        out[name] = over_ops(lambda t, c: t[span][field])
    for name in _COUNTER_METRICS:
        out[name] = over_ops(lambda t, c: c[name])
    scheduled = sum(counters[p]["ddm.scheduled_solves"] for p in ops)
    nonzero = sum(counters[p]["ddm.nonzero_solves"] for p in ops)
    out["ddm.nonzero_ratio"] = nonzero / scheduled if scheduled else 0.0
    traced_p50 = statistics.median(traced_times)
    untraced_p50 = statistics.median(times) if times else traced_p50
    out["trace.op_s_p50_traced"] = traced_p50
    out["trace.op_s_p50_untraced"] = untraced_p50
    out["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
    return {name: out[name] for name in PER_LAYER_UNITS}


def _openblas_threads():
    """Thread count OpenBLAS reports from inside this process, if it can be
    asked without threadpoolctl; None otherwise."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _process_threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "blas_thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "openblas_threads_in_effect": _openblas_threads(),
        "process_threads": _process_threads(),
        "cli_threads_note": (
            "diagsweep's CLI --threads sets the BLAS variables after numpy is "
            "loaded, which does nothing without threadpoolctl (not installed); "
            "this benchmark sets them before numpy is imported instead"
        ),
        "python": platform.python_version(),
        "diagsweep": diagsweep.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }

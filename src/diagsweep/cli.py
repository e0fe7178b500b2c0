"""Command-line driver.

Commands:

    solve        one problem in direct-ddm, gmres-ddm or global-direct mode
    convergence  refinement study against the semi-analytic radial reference
    decay        iterative-mode residual decay on a list of partitions
    pipeline     analytic and simulated multi-RHS timing report
    precond-study  GMRES iteration counts over a list of problem sizes

Every run reads an INI config (see `config`), applies DIAGSWEEP_* environment
overrides and --set flags, and writes its artifacts under --out.  All tables
carry the resolved config hash in a header comment.  With one BLAS thread
the numerical artifacts (field.f64le, quicklook.pgm, convergence.csv,
decay_*.csv, precond_study.csv without wall_time, pipeline_report.json,
residuals.csv without its seconds columns) are bit-for-bit reproducible for a
fixed config and seed; timing fields (wall_time, the *_s seconds,
cumulative_seconds, precond_seconds) vary from run to run.
--threads caps BLAS threads by calling openblas_set_num_threads in every
OpenBLAS library loaded in the process (numpy and scipy wheels each bundle
one); `solve` writes the count in effect to solve_report.json as
blas_threads, or null when no OpenBLAS answers (another BLAS then keeps its
own setting).

Exit codes: 0 success, 2 configuration error or a problem too large for
memory, 3 solver non-convergence or breakdown, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import itertools
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .ddm import build_global_operator, build_operators, diagonal_sweep_solve
from .errors import ConfigurationError, SolverError
from .grid import ComplexField, dump_field, field_error, write_pgm
from .krylov import gmres
from .media import point_shots
from .pipeline import average_time_recursive, simulate_pipeline
from .reference import gaussian_profile, radial_solution
from .subdomain import FactorizationCache, factorize

EXIT_CONFIG = 2
EXIT_NOCONV = 3
EXIT_IO = 4
# counters and per-layer seconds of a DDM application, summed over all of them
# in a solve
_DDM_COUNTERS = ("solves", "nonzero_solves", "solve_s", "transfer_s", "blend_s")

Problem = namedtuple("Problem", "grid partition profile model")


def _build_problem(cfg: RunConfig) -> Problem:
    """All that a run builds before it solves, unassembled: `_solve_once` and
    `decay_history` assemble the operators they need from it."""
    grid = cfg.build_grid()
    partition = cfg.build_partition(grid)
    return Problem(grid, partition, cfg.build_profile(grid), cfg.build_model())


def _solve_once(cfg: RunConfig, problem: Problem, f):
    """Assemble what the configured solver mode needs and run it; returns
    (field, report dict, DDM report of a direct-ddm solve, GMRES report)."""
    mode = cfg.get("solver", "mode")
    _, partition, profile, model = problem
    operators = (None if mode == "global-direct"
                 else build_operators(partition, profile, model, cfg.omega))
    gop = build_global_operator(partition, profile, model, cfg.omega)
    cache = FactorizationCache()
    info = {"mode": mode, "config_sha256": cfg.sha256}
    ddm_report = krylov_report = None

    def sweep(v, **options):
        du, report = diagonal_sweep_solve(v, partition, operators, cache, **options)
        for key in _DDM_COUNTERS:
            info[key] = info.get(key, 0) + getattr(report, key)
        return du, report

    t0 = time.perf_counter()
    if mode == "global-direct":
        u = ComplexField(partition.grid, factorize(gop).solve(f))
    elif mode == "direct-ddm":
        u, ddm_report = sweep(f)
    else:  # gmres-ddm
        values, krylov_report = gmres(
            gop.apply,
            lambda v: sweep(v, warn_collar=False)[0].values,
            f,
            **cfg.gmres_settings(),
        )
        u = ComplexField(partition.grid, values)
        info["n_iter"] = krylov_report.n_iter
        info["converged"] = krylov_report.converged
        info["final_residual"] = krylov_report.residuals[-1]
        info["precond_s"] = sum(krylov_report.precond_times)
    info["wall_time"] = time.perf_counter() - t0
    if mode != "global-direct":
        info.update(factorizations=cache.count, cache_hits=cache.hits,
                    cache_misses=cache.misses, factor_bytes=cache.total_bytes)
    info["residual"] = float(
        np.linalg.norm(gop.apply(u.values) - f) / np.linalg.norm(f)
    )
    return u, info, ddm_report, krylov_report


def _study(cfg: RunConfig, section: str, key: str, values) -> list:
    """(entry, variant, problem) of each entry of the study list [section]
    key; the variant is `cfg` with the config `values(entry)` and the problem
    is its `_build_problem`.  Each problem and convergence source is built
    here, so a bad entry exits 2 before the first solve.  The message about a
    bad entry drops the location of a key the study set."""
    variants = []
    for token, entry in cfg.get(section, key):
        settings = values(entry)
        sub = cfg.with_values(settings)
        try:
            problem = _build_problem(sub)
            if section == "convergence":  # solves the config's source on each entry's grid
                sub.build_source(problem.grid)
        except ConfigurationError as exc:
            own = {sub._where(*dotted.split(".")) for dotted in settings}
            head, sep, rest = str(exc).partition(": ")
            kept = [where for where in head.split(", ") if where not in own]
            message = f"{', '.join(kept)}{sep}{rest}" if kept else rest
            where = cfg._where(section, key)
            raise ConfigurationError(f"{where}: {key} entry {token!r}: {message}") from None
        variants.append((entry, sub, problem))
    return variants


def _write_csv(path, cfg: RunConfig, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config sha256: {cfg.sha256}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_solve(cfg: RunConfig, out: Path, rng) -> int:
    event_log = cfg.get("output", "event_log")
    problem = _build_problem(cfg)
    f = cfg.build_source(problem.grid, rng)  # a bad source exits 2 before assembly
    u, info, ddm_report, krylov_report = _solve_once(cfg, problem, f)
    info["blas_threads"] = _blas_threads()
    if cfg.get("output", "field_dump"):
        dump_field(u, out / "field.f64le")
    if cfg.get("output", "quicklook"):
        write_pgm(u, out / "quicklook.pgm")
    if krylov_report is not None and cfg.get("output", "residual_csv"):
        history = zip(krylov_report.residuals, krylov_report.times,
                      [""] + krylov_report.precond_times)  # row 0 applies no preconditioner
        _write_csv(out / "residuals.csv", cfg, ["iteration", "relative_residual",
                                                "cumulative_seconds", "precond_seconds"],
                   [(k, f"{res:.6e}", f"{t:.6f}", p) for k, (res, t, p) in enumerate(history)])
    if ddm_report is not None and event_log:
        lines = (json.dumps(event) + "\n" for event in ddm_report.events)
        (out / "events.jsonl").write_text("".join(lines))
    (out / "solve_report.json").write_text(json.dumps(info, indent=2))
    print(json.dumps(info))
    if krylov_report is not None and not krylov_report.converged:
        return EXIT_NOCONV
    return 0


def cmd_convergence(cfg: RunConfig, out: Path, rng) -> int:
    for key, needed in (("medium", "constant"), ("source", "gaussian")):
        value = cfg.get("problem", key)
        cfg._require(value == needed, "problem", key,
                     f"{needed} for the convergence study", repr(value))
    center = tuple(cfg.get("problem", "center"))
    cfg._require(len(center) == cfg.dim, "problem", "center", f"{cfg.dim} coordinates", center)
    variants = _study(cfg, "convergence", "meshes",
                      lambda cells: {"discretization.interior_cells": str(cells)})
    meshes = [cells for cells, _, _ in variants]
    ok = len(set(meshes)) == len(meshes) >= 2
    cfg._require(ok, "convergence", "meshes", "2 or more distinct meshes", meshes)
    kappa = cfg.omega / cfg.get("problem", "speed")
    # build_source's Gaussian is that of omega, whatever the wavenumber kappa
    source = lambda rho: gaussian_profile(rho, cfg.omega, cfg.dim)
    table, prev = [], None
    for cells, sub, problem in variants:
        grid, partition, _, _ = problem
        u, _, _, _ = _solve_once(sub, problem, sub.build_source(grid, rng))
        ref = radial_solution(grid, center, kappa, profile=source)
        h = min(grid.spacing)
        l2 = field_error(u, ref, "L2", region=partition.interior)
        h1 = field_error(u, ref, "H1", region=partition.interior)
        print(f"mesh {cells}: L2 {l2:.3e} H1 {h1:.3e}")
        r2 = rh = ""
        if prev is not None:
            scale = np.log(prev[0] / h)
            r2 = f"{np.log(prev[1] / l2) / scale:.2f}"
            rh = f"{np.log(prev[2] / h1) / scale:.2f}"
        prev = h, l2, h1
        table.append([cells, f"{h:.6e}", f"{l2:.6e}", r2, f"{h1:.6e}", rh])
    _write_csv(out / "convergence.csv", cfg,
               ["mesh", "h", "l2_error", "l2_rate", "h1_error", "h1_rate"], table)
    return 0


def decay_history(cfg: RunConfig, problem: Problem, f, n_it: int):
    """Iterative-mode relative residual over `n_it` iterations of the source
    `f` (on the problem's grid) for its partition; it sweeps in any mode."""
    grid, partition, profile, model = problem
    operators = build_operators(partition, profile, model, cfg.omega)
    gop = build_global_operator(partition, profile, model, cfg.omega)
    cache = FactorizationCache()
    u = np.zeros(grid.counts, dtype=np.complex128)
    norm_f = np.linalg.norm(f)
    history = []
    for _ in range(n_it):
        r = f - gop.apply(u)
        history.append(float(np.linalg.norm(r) / norm_f))
        du, _ = diagonal_sweep_solve(r, partition, operators, cache, warn_collar=False)
        u += du.values
    return np.asarray(history)


def fit_decay_rate(history, skip: int, floor: float) -> float:
    """Least-squares slope of log10(residual) above the stagnation floor."""
    history = np.asarray(history)
    mask = history > floor
    k = np.arange(history.size)[mask][skip:]
    if k.size < 2:
        raise SolverError("too few iterations above the floor to fit a rate")
    return float(np.polyfit(k, np.log10(history[mask][skip:]), 1)[0])


def cmd_decay(cfg: RunConfig, out: Path, rng) -> int:
    n_it, skip, floor = cfg.decay_settings()
    variants = _study(cfg, "decay", "partitions",
                      lambda counts: {"partition.counts": ",".join(map(str, counts))})
    report = {"config_sha256": cfg.sha256, "partitions": {}}
    if cfg.get("problem", "source") == "shots":
        report["shots"] = cfg.get("problem", "shots")
    # one draw on the config's grid, so that every partition solves the same (seeded) source
    f = cfg.build_source(variants[0][2].grid, rng)
    for counts, sub, problem in variants:
        name = "x".join(map(str, counts))
        history = decay_history(sub, problem, f, n_it)
        _write_csv(out / f"decay_{name}.csv", cfg, ["iteration", "relative_residual"],
                   [(k, f"{res:.6e}") for k, res in enumerate(history)])
        try:
            rate = fit_decay_rate(history, skip, floor)
            print(f"partition {name}: decay {rate:.3f} log10/iteration")
        except SolverError:  # converged: too few residuals above the floor
            rate = None
            print(f"partition {name}: reached the floor {floor:g}, no rate")
        report["partitions"][name] = {
            "rate_log10_per_iteration": rate,
            "final_residual": history[-1],
        }
    rates = [p["rate_log10_per_iteration"] for p in report["partitions"].values()]
    if len(rates) >= 2:
        report["rate_ratio"] = None if None in rates[:2] else rates[0] / rates[1]
    (out / "decay_report.json").write_text(json.dumps(report, indent=2))
    return 0


def cmd_pipeline(cfg: RunConfig, out: Path, rng) -> int:
    spec = cfg.pipeline_spec()
    schedule = simulate_pipeline(spec)
    report = {
        "config_sha256": cfg.sha256,
        "counts": list(spec.counts),
        "n_rhs": spec.n_rhs,
        "n_iter": spec.n_iter,
        "makespan": schedule.makespan,
        "avg_per_rhs": schedule.avg_per_rhs,
        "formula_avg": schedule.formula_avg,
        "formula_avg_recursive": average_time_recursive(spec),
        "simulation_vs_formula": schedule.avg_per_rhs / schedule.formula_avg - 1.0,
        "overhead_fraction": schedule.formula_avg
        / (spec.n_sweeps * spec.n_iter * spec.t0)
        - 1.0,
        "utilization_min": min(schedule.utilization),
        "utilization_max": max(schedule.utilization),
    }
    (out / "pipeline_report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    return 0


def cmd_precond_study(cfg: RunConfig, out: Path, rng) -> int:
    """GMRES iteration counts for a list of cells,NxM,frequency rows."""
    variants = _study(cfg, "precond", "rows", lambda row: {
        "discretization.interior_cells": str(row[0]),
        "partition.counts": ",".join(map(str, row[1])),
        "problem.frequency": repr(row[2]),
        "solver.mode": "gmres-ddm",
    })
    results = []
    for (cells, counts, freq), sub, problem in variants:
        name = "x".join(map(str, counts))
        interior = sub.interior_extents()
        shots = [
            tuple(a + t * (b - a) for (a, b), t in zip(interior, frac))
            for frac in itertools.product((0.25, 0.75), repeat=sub.dim)
        ]
        f = point_shots(problem.grid, shots, interior)
        _, info, _, _ = _solve_once(sub, problem, f)
        results.append((cells, name, freq, info["n_iter"], info["converged"],
                        info["wall_time"]))
        print(f"cells {cells} partition {name} freq {freq}: "
              f"n_iter {info['n_iter']} converged {info['converged']}")
    _write_csv(out / "precond_study.csv", cfg,
               ["cells", "partition", "frequency", "n_iter", "converged", "wall_time"],
               results)
    if any(not conv for *_, conv, _ in results):
        return EXIT_NOCONV
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "decay": cmd_decay,
    "pipeline": cmd_pipeline,
    "precond-study": cmd_precond_study,
}


def _openblas(name: str) -> list:
    """The OpenBLAS function `name` (e.g. "set_num_threads") of every
    OpenBLAS library loaded in this process, found through /proc/self/maps.
    Wheels prefix and suffix the exported symbols."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return []
    found = []
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}"
                       for prefix in ("", "scipy_") for suffix in ("", "64_")):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                found.append(fn)
                break
    return found


def _set_threads(n: int) -> None:
    for fn in _openblas("set_num_threads"):
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(n)


def _blas_threads() -> int | None:
    """Most BLAS threads any loaded OpenBLAS may use, or None if none answers."""
    counts = []
    for fn in _openblas("get_num_threads"):
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts.append(fn())
    return max(counts, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagsweep",
        description="Diagonal sweeping DDM solver for the Helmholtz equation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="BLAS thread cap, set in every loaded OpenBLAS; other BLAS "
        "libraries keep their own setting",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        overrides = {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigurationError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
            dotted, value = item.split("=", 1)
            overrides[dotted] = value
        cfg = load_config(args.config, overrides=overrides)
        _set_threads(args.threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(args.seed)
        return _COMMANDS[args.command](cfg, out, rng)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

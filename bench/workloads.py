"""The benchmark's workloads: seeded inputs, set-up, one op, and its checks.

Each workload draws all of its inputs from the run's seed and hands the
library only arrays and specs.  Ops are closed-loop: the harness starts op
i+1 after op i has returned.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from diagsweep import (
    FactorizationCache,
    PipelineSpec,
    PmlProfile,
    build_global_operator,
    build_operators,
    constant_model,
    diagonal_sweep_solve,
    factorize,
    gmres,
    make_grid,
    make_partition,
    point_shots,
    simulate_pipeline,
    tuned_sigma_max,
)
from diagsweep.media import RasterModel

from spans import TracedCache

SET_UPS = 3  # at least this many set-ups per run; setup_s is their median
SETUP_MIN_S = 3.0  # ... and at least this much set-up time in all
PIPELINE_FORMULA_BOUND = 1e-3  # acceptance criterion 8
SPEED_RANGE = (1.0, 3.0)  # raster speeds
GMRES_TOL, GMRES_RESTART, GMRES_MAX_ITER = 1e-6, 30, 200

CONSTANTS = {
    "set_ups_min": SET_UPS,
    "setup_min_s": SETUP_MIN_S,
    "pipeline_formula_bound": PIPELINE_FORMULA_BOUND,
    "speed_range": SPEED_RANGE,
    "gmres_tol": GMRES_TOL,
    "gmres_restart": GMRES_RESTART,
    "gmres_max_iter": GMRES_MAX_ITER,
}


def op_rng(seed: int, op: int) -> np.random.Generator:
    """Generator of op `op`'s inputs; independent of how many ops ran before."""
    return np.random.default_rng([seed, 1, op])


def repeat_set_ups(media: list, set_up, pace) -> tuple[list, list[float]]:
    """Set up the media in turn, cycling, until there have been SET_UPS
    set-ups, every medium once and one more, and SETUP_MIN_S of set-up time.

    `set_up(k, medium)` returns (problem, seconds).  The first set-up of
    each medium is kept for the ops; later ones are only timed and dropped
    at once.  So peak memory is always one set-up per medium plus one,
    however many set-ups the host's speed lets into SETUP_MIN_S.  The pace
    is sampled before each.
    """
    kept, times = [], []
    while len(times) < max(SET_UPS, len(media) + 1) or sum(times) < SETUP_MIN_S:
        pace.sample()
        k = len(times)
        problem, seconds = set_up(k, media[k % len(media)])
        if k < len(media):
            kept.append(problem)
        del problem
        times.append(seconds)
    return kept, times


@dataclass
class Problem:
    """One set-up: the assembled operators and a filled factorization cache."""

    grid: object
    partition: object
    operators: dict
    gop: object
    cache: object
    setup_s: float


@dataclass
class OpResult:
    """What an op returned, and the reason it failed, if it did."""

    value: object
    failure: str | None = None


@dataclass(frozen=True)
class SweepWorkload:
    """Point shots solved by one diagonal sweep (`direct-ddm`) or by GMRES
    right-preconditioned with it (`gmres-ddm`) on the unit square or cube.

    With `rasters` > 0 the medium is that many seeded smooth rasters and op
    i runs on raster i mod `rasters`; otherwise the medium is constant.
    """

    name: str
    why: str
    mode: str
    dim: int
    cells: int
    counts: tuple[int, ...]
    pml: int
    overlap: int
    frequency: float
    shots: int
    residual_bound: float  # relative residual under the global operator
    reference_bound: float  # first op vs global-direct, relative, interior
    rasters: int = 0
    raster_samples: int = 33
    raster_sigma: float = 2.0

    # inputs ---------------------------------------------------------------

    def media(self, seed: int):
        if not self.rasters:
            return [constant_model(1.0)]
        rng = np.random.default_rng([seed, 0])
        lo, hi = SPEED_RANGE
        out = []
        for _ in range(self.rasters):
            noise = rng.standard_normal((self.raster_samples,) * self.dim)
            smooth = gaussian_filter(noise, self.raster_sigma, mode="reflect")
            unit = (smooth - smooth.min()) / (smooth.max() - smooth.min())
            samples = (lo + (hi - lo) * unit).astype(np.float32)
            out.append(RasterModel(((0.0, 1.0),) * self.dim, samples))
        return out

    def media_bytes(self, media) -> bytes:
        return b"".join(m.samples.tobytes() for m in media if isinstance(m, RasterModel))

    def op_input(self, seed: int, op: int) -> np.ndarray:
        """Shot locations of op `op`, uniform in the unit interior box."""
        return op_rng(seed, op).uniform(0.0, 1.0, size=(self.shots, self.dim))

    # set-up ---------------------------------------------------------------

    def set_up(self, medium, tracer) -> Problem:
        start = time.perf_counter()
        h = 1.0 / self.cells
        grid = make_grid(
            [(-self.pml * h, 1.0 + self.pml * h)] * self.dim,
            [self.cells + 2 * self.pml + 1] * self.dim,
        )
        partition = make_partition(grid, self.counts, self.overlap, self.pml)
        omega = 2.0 * math.pi * self.frequency
        profile = PmlProfile(
            self.pml, self.overlap, tuned_sigma_max(omega, self.pml * h), 2
        )
        with tracer.span("pml.assemble"):
            operators = build_operators(partition, profile, medium, omega)
            gop = build_global_operator(partition, profile, medium, omega)
        cache = TracedCache(tracer) if tracer.tracing else FactorizationCache()
        for op in operators.values():
            cache.get(op)
        return Problem(grid, partition, operators, gop, cache,
                       time.perf_counter() - start)

    def set_ups(self, media, tracer, pace) -> tuple[list[Problem], list[float]]:
        def one(k, medium):
            with tracer.traced(f"setup{k}") if tracer.tracing else nullcontext():
                problem = self.set_up(medium, tracer)
                tracer.count("subdomain.cache_hits", problem.cache.hits)
                tracer.count("subdomain.cache_misses", problem.cache.misses)
            return problem, problem.setup_s

        return repeat_set_ups(media, one, pace)

    # ops ------------------------------------------------------------------

    def problem_of(self, problems, op: int) -> Problem:
        return problems[op % len(problems)]

    def op_argument(self, problem: Problem, locations) -> np.ndarray:
        return point_shots(problem.grid, locations, problem.partition.interior_box())

    def run_op(self, problem: Problem, f: np.ndarray, tracer) -> OpResult:
        if self.mode == "direct-ddm":
            return OpResult(self._sweep(problem, f, tracer, warn_collar=True))
        full = problem.grid.full_window()

        def apply_A(v):
            with tracer.span("pml.apply"):
                return problem.gop.apply(v, region=full)

        def apply_M(v):
            with tracer.span("krylov.precond"):
                return self._sweep(problem, v, tracer, warn_collar=False)

        with tracer.span("krylov.gmres"):
            x, report = gmres(apply_A, apply_M, f, GMRES_TOL, GMRES_RESTART, GMRES_MAX_ITER)
        tracer.count("krylov.iterations", report.n_iter)
        return OpResult(x, None if report.converged else "GMRES did not converge")

    def _sweep(self, problem: Problem, f, tracer, warn_collar: bool):
        with tracer.span("ddm.sweep"):
            u, report = diagonal_sweep_solve(
                f, problem.partition, problem.operators, problem.cache,
                warn_collar=warn_collar,
            )
        tracer.count("ddm.scheduled_solves", report.solves)
        tracer.count("ddm.nonzero_solves", report.nonzero_solves)
        tracer.count("transfer.discarded_sources", report.discarded_sources)
        return u.values

    # checks ---------------------------------------------------------------

    def check(self, problem: Problem, f: np.ndarray, result: OpResult) -> str | None:
        """Reason the op's output is wrong, or None."""
        u = result.value
        if not np.all(np.isfinite(u)):
            return "non-finite solution"
        full = problem.grid.full_window()
        residual = np.linalg.norm(problem.gop.apply(u, region=full) - f) / np.linalg.norm(f)
        if not residual <= self.residual_bound:
            return f"relative residual {residual:.2e} > {self.residual_bound:.0e}"
        return result.failure

    def global_direct(self, problem: Problem, f: np.ndarray, u: np.ndarray, tracer):
        """Single-domain direct solve of the first op's problem; returns the
        reason `u` disagrees with it, or None."""
        with tracer.span("subdomain.global_factorize"):
            fact = factorize(problem.gop)
        with tracer.span("subdomain.global_solve"):
            u_ref = fact.solve(f)
        box = problem.partition.interior.slices()
        diff = np.linalg.norm(u[box] - u_ref[box]) / np.linalg.norm(u_ref[box])
        if not diff <= self.reference_bound:
            return f"differs from global-direct by {diff:.2e} > {self.reference_bound:.0e}"
        return None


@dataclass(frozen=True)
class PipelineWorkload:
    """Discrete-event simulation of pipelined multi-right-hand-side sweeps.

    Each op simulates the same task graph with a seeded solve time t0.  A
    set-up runs the reference simulation at t0 = 1 and checks it against
    the analytic formula before any op is timed.
    """

    name: str
    why: str
    counts: tuple[int, ...]
    n_rhs: int
    n_iter: int

    def media(self, seed: int):
        return [None]  # no medium

    def media_bytes(self, media) -> bytes:
        return b""

    def op_input(self, seed: int, op: int) -> np.ndarray:
        return op_rng(seed, op).uniform(0.5, 2.0, size=1)

    def spec(self, t0: float) -> PipelineSpec:
        return PipelineSpec(self.counts, self.n_rhs, self.n_iter, t0)

    def tasks(self) -> int:
        spec = self.spec(1.0)
        return self.n_rhs * spec.n_sweeps * self.n_iter * spec.fill_steps

    def set_ups(self, media, tracer, pace):
        def one(k, _):
            with tracer.traced(f"setup{k}") if tracer.tracing else nullcontext():
                start = time.perf_counter()
                error = self._formula_error(self._simulate(self.spec(1.0), tracer))
                seconds = time.perf_counter() - start
            if error is not None:
                raise RuntimeError(f"reference simulation: {error}")
            return None, seconds

        return repeat_set_ups(media, one, pace)

    def problem_of(self, problems, op: int):
        return None

    def op_argument(self, problem, t0) -> PipelineSpec:
        return self.spec(float(t0[0]))

    def run_op(self, problem, spec: PipelineSpec, tracer) -> OpResult:
        return OpResult(self._simulate(spec, tracer))

    def _simulate(self, spec: PipelineSpec, tracer):
        with tracer.span("pipeline.simulate"):
            schedule = simulate_pipeline(spec)
        tracer.count("pipeline.tasks", self.tasks())
        return schedule

    @staticmethod
    def _formula_error(schedule) -> str | None:
        rel = abs(schedule.avg_per_rhs - schedule.formula_avg) / schedule.formula_avg
        if not rel <= PIPELINE_FORMULA_BOUND:
            return (f"simulated average per rhs is {rel:.1e} from the formula "
                    f"> {PIPELINE_FORMULA_BOUND:.0e}")
        return None

    def check(self, problem, spec, result: OpResult) -> str | None:
        if not math.isfinite(result.value.avg_per_rhs):
            return "non-finite average"
        return self._formula_error(result.value)

    def global_direct(self, problem, spec, value, tracer):
        return None


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep2d-const",
            why="2D separable kernel (ztrsyl) and a factorization cache that "
            "exact-geometry keys could shrink from 16 to 9",
            mode="direct-ddm", dim=2, cells=400, counts=(4, 4), pml=15,
            overlap=5, frequency=10.0, shots=1,
            residual_bound=1e-2, reference_bound=2e-2,
        ),
        SweepWorkload(
            name="sweep3d-const",
            why="3D separable kernel (einsum transforms) dominates; cache, "
            "transfer and Krylov layers do little",
            mode="direct-ddm", dim=3, cells=30, counts=(3, 3, 3), pml=6,
            overlap=3, frequency=5.0, shots=1,
            residual_bound=1e-2, reference_bound=2e-2,
        ),
        SweepWorkload(
            name="gmres2d-raster",
            why="SuperLU subdomains, dense Krylov sources and heavy transfer: "
            "the only Krylov workload and the control for kernel and cache work",
            mode="gmres-ddm", dim=2, cells=120, counts=(4, 4), pml=8,
            overlap=3, frequency=8.0, shots=4, rasters=5,
            residual_bound=1e-5, reference_bound=1e-4,
        ),
        PipelineWorkload(
            name="pipeline-sat3d",
            why="saturated 3x3x3 pipeline simulation: the only workload of the "
            "pipeline layer's event loop",
            counts=(3, 3, 3), n_rhs=70, n_iter=10,
        ),
    )
}

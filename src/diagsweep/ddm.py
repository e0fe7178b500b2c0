"""The additive and diagonal sweeping DDM engines: one runner, two schedules.

The runner (`_run`) is one loop over the tasks, stage by stage.  A task is
the same in both engines: sum a subdomain's own source piece and the
transferred sources that reached it, solve the local PML problem on its
extended window, blend the solution into the global field with the
beta_{0,0} cutoff, and emit the transferred sources Psi towards its
neighbors, each delivered to the stage its schedule routes it to.  Every
task writes one record, its event; the report's counters and per-layer
seconds are sums over the events.  The engines are two schedules of stages:

* additive: every subdomain runs at every step s = 1..sum(N)-dim+1.  Step 1
  takes the own piece f_{i,j}; a source emitted at step s along direction d
  is consumed at step s + |d|_1.
* diagonal sweeping: 2^dim sweeps over the diagonal directions, always in
  the fixed order `partition.SWEEP_DIRECTIONS`; the first sweep takes the own
  pieces.  Within a sweep, subdomains run in `Partition.sweep_order`, and
  every emitted source is routed to the smallest admissible sweep (same
  sweep when it points with it, a later one otherwise; `emits` lets no solve
  send a source that no sweep accepts, as tests/test_ddm.py enumerates).

Both read every slice from the partition: the own piece f_{i,j} is the view
f[owned] (`Partition.owned`), never a copy.

For constant media the diagonal sweep reconstructs the global PML solution
octant by octant; for variable media it serves as the preconditioner.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import ComplexField
from .partition import SWEEP_DIRECTIONS, Partition, octant_region
from .pml import PmlProfile, assemble_operator
from .subdomain import FactorizationCache
from .transfer import next_usable_sweep, psi

# `check_source` warns when the collar part of the source exceeds this
# fraction of its norm.  The tail of a Gaussian centred in the interior is far
# below it, and it is far above the ~1e-8 that rounding leaves in the
# difference of squared norms the collar part is computed from
COLLAR_LEAK = 1e-6


@functools.cache
def content_cuts(direction, parent_cuts: frozenset) -> frozenset:
    """Cut set of a transferred content: (axis, side) pairs past whose
    breakpoint the content vanishes in exact arithmetic.

    Crossing an interface multiplies in the complementary cutoff of that
    interface, adding a cut on the side the content came from; cuts on axes
    the transfer does not cross are inherited because breakpoints are global
    per-axis lines.
    """
    out = {(a, -c) for a, c in enumerate(direction) if c}
    out |= {(a, s) for (a, s) in parent_cuts if direction[a] == 0}
    return frozenset(out)


def solve_cuts(arrival_cuts, has_own_source: bool) -> frozenset:
    """Cut set of a local solve: the intersection over its summed contents."""
    if has_own_source or not arrival_cuts:
        return frozenset()
    return frozenset.intersection(*arrival_cuts)


@functools.cache
def emits(direction, cuts: frozenset) -> bool:
    """Whether a solved subdomain emits a transferred source in `direction`.

    The emission band on each nonzero axis lies just past the breakpoint on
    that side; if the solution carries a cut there the source is identically
    zero in exact arithmetic and is never generated.
    """
    return not any(c != 0 and (a, c) in cuts for a, c in enumerate(direction))


def build_operators(
    partition: Partition, profile: PmlProfile, velocity, omega: float
) -> dict:
    """Assemble the local PML operator of every subdomain.

    Velocity sampling in the absorbing layers is clamped to the interior box,
    so every subdomain extends its boundary layer speeds into its collar.
    """
    clamp = partition.interior_box()
    return {
        index: assemble_operator(
            partition.grid,
            partition.window(index),
            partition.box(index),
            profile,
            velocity,
            omega,
            clamp_box=clamp,
        )
        for index in partition.subdomains()
    }


def build_global_operator(partition: Partition, profile: PmlProfile, velocity, omega):
    """The single-domain PML operator on the full grid (reference problem)."""
    return assemble_operator(
        partition.grid,
        partition.grid.full_window(),
        partition.interior,
        profile,
        velocity,
        omega,
        clamp_box=partition.interior_box(),
    )


def _total(key: str) -> property:
    return property(lambda self: sum(event[key] for event in self.events),
                    doc=f"The sum of the events' {key!r}.")


@dataclass
class DdmReport:
    """One event per scheduled task and the optional partial sums of one DDM
    application.  The counters and per-layer seconds are sums over the events."""

    events: list = field(default_factory=list)
    partials: list | None = None

    solves = property(lambda self: len(self.events), doc="The scheduled tasks.")
    nonzero_solves = _total("nonzero")
    discarded_sources = property(lambda self: 0, doc="Always 0, as every emitted source "
                                 "is consumed; kept because bench/workloads.py reads it.")
    solve_s = _total("solve_s")
    transfer_s = _total("transfer_s")
    blend_s = _total("blend_s")


def check_source(f: np.ndarray, partition: Partition, warn_collar: bool) -> None:
    """Reject a source whose shape is not the grid's, and warn (if
    `warn_collar`) when more than COLLAR_LEAK of its norm lies in the global
    collar, where the boundary subdomains take it as their own piece."""
    if f.shape != partition.grid.counts:
        raise ConfigurationError("source shape does not match the grid")
    if warn_collar:
        total = np.linalg.norm(f)
        collar_sq = total**2 - np.linalg.norm(f[partition.interior.slices()]) ** 2
        if collar_sq > (COLLAR_LEAK * total) ** 2:
            warnings.warn("source support leaks into the global PML collar")


def _run(f, partition, operators, cache, stages, route, report, warn_collar):
    """Run the scheduled tasks and return the blended field.

    `stages` holds the tasks of each stage as (step, index, directions) in
    solve order; stage 1 takes the own pieces of `f`, and every direction
    has its target inside the partition.  A source emitted along d in stage
    s is delivered to its target in stage route(d, s); one routed to None or
    past the last stage is never consumed and is refused at the end.  A zero
    right-hand side is not solved.  Every task appends its event to
    `report.events`; with `report.partials` the field after each stage is
    appended there.
    """
    check_source(f, partition, warn_collar)
    queues: dict = {}
    combined = np.zeros(partition.grid.counts, dtype=np.complex128)
    for stage, tasks in enumerate(stages, 1):
        for step, index, directions in tasks:
            arrivals = queues.pop((stage, index), [])
            event = {"sweep": stage, "step": step, "subdomain": list(index),
                     "sources_consumed": len(arrivals), "sources_emitted": 0,
                     "nonzero": False, "solve_s": 0.0, "blend_s": 0.0, "transfer_s": 0.0}
            report.events.append(event)
            owned, local = partition.owned(index)
            has_own = stage == 1 and bool(np.any(f[owned]))
            if not has_own and not arrivals:
                continue
            rhs = np.zeros(partition.window(index).shape, dtype=np.complex128)
            if has_own:
                rhs[local] += f[owned]
            for ts in arrivals:
                rhs[ts.slices] += ts.values
            if not np.any(rhs):
                continue
            cuts = solve_cuts([ts.cuts for ts in arrivals], has_own)
            fact = cache.get(operators[index])  # factorizes on a miss; not timed
            start = time.perf_counter()
            u_local = fact.solve(rhs)
            solved = time.perf_counter()
            _, beta, (blend, support) = partition.beta00_support(index)
            combined[blend] += beta * u_local[support]
            blended = time.perf_counter()
            for direction in (d for d in directions if emits(d, cuts)):
                ts = psi(partition, index, direction, u_local, rhs)
                ts.cuts = content_cuts(direction, cuts)
                queues.setdefault((route(direction, stage), ts.target), []).append(ts)
                event["sources_emitted"] += 1
            transferred = time.perf_counter()
            event.update(nonzero=True, solve_s=solved - start, blend_s=blended - solved,
                         transfer_s=transferred - blended)
        if report.partials is not None:
            report.partials.append(combined.copy())
    if queues:
        raise SolverError("pending transferred sources left after the last stage")
    return ComplexField(partition.grid, combined)


def diagonal_sweep_solve(
    f: np.ndarray,
    partition: Partition,
    operators: dict,
    cache: FactorizationCache,
    *,
    collect_partials: bool = False,
    warn_collar: bool = True,
) -> tuple[ComplexField, DdmReport]:
    """One application of the diagonal sweeping DDM to the source `f`."""
    report = DdmReport(partials=[] if collect_partials else None)
    sweeps = (
        [(step, index, partition.transfer_directions(index))
         for step, index in partition.sweep_order(direction)]
        for direction in SWEEP_DIRECTIONS[partition.dim]
    )
    u = _run(f, partition, operators, cache, sweeps, next_usable_sweep, report,
             warn_collar)
    return u, report


def additive_ddm_solve(
    f: np.ndarray,
    partition: Partition,
    operators: dict,
    cache: FactorizationCache,
    *,
    warn_collar: bool = True,
) -> tuple[ComplexField, DdmReport]:
    """The additive overlapping DDM baseline (all subdomains at every step)."""
    report = DdmReport()
    last = sum(partition.counts) - partition.dim + 1
    # a source sent along d arrives |d|_1 steps later; none arrives past the end
    arrival = lambda direction, step: step + sum(map(abs, direction))
    steps = (
        [(step, index, tuple(d for d in partition.transfer_directions(index)
                             if arrival(d, step) <= last))
         for index in partition.subdomains()]
        for step in range(1, last + 1)
    )
    u = _run(f, partition, operators, cache, steps, arrival, report, warn_collar)
    return u, report


def octant_exactness_check(
    partials: list[np.ndarray],
    reference: np.ndarray,
    partition: Partition,
    origin: tuple[int, ...],
) -> list[dict]:
    """Per-sweep relative errors of the partial sums on their octant regions."""
    out = []
    for sweep, direction in enumerate(SWEEP_DIRECTIONS[partition.dim], 1):
        region = octant_region(direction, origin, partition.counts)
        mask = np.zeros(partition.grid.counts, dtype=bool)
        for index in region:
            mask[partition.box(index).slices()] = True
        ref_norm = np.linalg.norm(reference[mask]) if mask.any() else 0.0
        if ref_norm == 0.0:
            rel = 0.0
        else:
            rel = float(
                np.linalg.norm(partials[sweep - 1][mask] - reference[mask]) / ref_norm
            )
        out.append(
            {"sweep": sweep, "direction": direction,
             "subdomains": len(region), "relative_error": rel}
        )
    return out

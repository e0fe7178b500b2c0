"""The additive and diagonal sweeping DDM engines: one task, two schedules.

The task (`_solve_and_emit`) is the same in both engines: sum a subdomain's
own source piece and the transferred sources that reached it, solve the
local PML problem on its extended window, blend the solution into the global
field with the beta_{0,0} cutoff, and emit the transferred sources Psi
towards its neighbors.  The engines differ only in the order of the tasks
and in where an emitted source is delivered:

* additive: every subdomain runs at every step s = 1..sum(N)-dim+1.  Step 1
  takes the restricted source f_{i,j}; a source emitted at step s along
  direction d is consumed at step s + |d|_1.
* diagonal sweeping: 2^dim sweeps over the diagonal directions, always in
  the fixed order `partition.SWEEP_DIRECTIONS`; within a sweep, subdomains
  run in anti-diagonal step order, and every emitted source is routed to the
  smallest admissible sweep (same sweep when it points with it, a later one
  otherwise, or discarded when no later sweep accepts it).

For constant media the diagonal sweep reconstructs the global PML solution
octant by octant; for variable media it serves as the preconditioner.
"""

from __future__ import annotations

import itertools
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .grid import ComplexField, Window
from .partition import (
    SWEEP_DIRECTIONS,
    Partition,
    octant_region,
    steps_per_sweep,
    sweep_step_of,
)
from .pml import PmlProfile, assemble_operator
from .subdomain import FactorizationCache
from .transfer import next_usable_sweep, psi

# `restrict_source` warns when the collar part of the source exceeds this
# fraction of its norm.  The tail of a Gaussian centred in the interior is far
# below it, and it is far above the ~1e-8 that rounding leaves in the
# difference of squared norms the collar part is computed from
COLLAR_LEAK = 1e-6


def source_directions(dim: int):
    """All 3^dim - 1 transfer directions, in a fixed deterministic order."""
    return tuple(
        d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)
    )


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


@dataclass
class DdmReport:
    """Counters, per-layer seconds and optional traces from one DDM application."""

    solves: int = 0
    nonzero_solves: int = 0
    discarded_sources: int = 0
    solve_s: float = 0.0
    transfer_s: float = 0.0
    blend_s: float = 0.0
    events: list | None = None
    partials: list | None = None
    first_nonzero_step: dict = field(default_factory=dict)

    def write_event_log(self, path) -> None:
        with open(path, "w") as fh:
            for event in self.events or []:
                fh.write(json.dumps(event) + "\n")


def restrict_source(
    f: np.ndarray, partition: Partition, warn_collar: bool = True
) -> dict:
    """Split the global source into per-subdomain owned pieces.

    Every grid node belongs to exactly one subdomain: breakpoint nodes go to
    the lower-index neighbor and boundary subdomains own their share of the
    global collar.  Warns (if `warn_collar`) when more than COLLAR_LEAK of
    the source's norm lies in the collar.  Returns {index: (window, values)}.
    """
    if f.shape != partition.grid.counts:
        raise ConfigurationError("source shape does not match the grid")
    if warn_collar:
        total = np.linalg.norm(f)
        collar_sq = total**2 - np.linalg.norm(f[partition.interior.slices()]) ** 2
        if collar_sq > (COLLAR_LEAK * total) ** 2:
            warnings.warn("source support leaks into the global PML collar")
    out = {}
    for index in partition.subdomains():
        owned = list(partition.owned_slices(index))
        for a, i in enumerate(index):
            lo = owned[a].start if i > 1 else 0
            hi = owned[a].stop - 1 if i < partition.counts[a] else partition.grid.counts[a] - 1
            owned[a] = slice(lo, hi + 1)
        window = Window(
            tuple(s.start for s in owned), tuple(s.stop - 1 for s in owned)
        )
        out[index] = (window, np.ascontiguousarray(f[tuple(owned)], dtype=np.complex128))
    return out


def _step_groups(partition: Partition, direction):
    groups = {}
    for index in partition.subdomains():
        step = sweep_step_of(index, direction, partition.counts)
        groups.setdefault(step, []).append(index)
    return {s: sorted(g) for s, g in groups.items()}


def _accumulate(combined, partition, index, u_local):
    support, beta = partition.beta00_support(index)
    win = partition.window(index)
    combined[support.slices()] += beta * u_local[win.local_slices(support)]


def _solve_and_emit(
    partition, operators, cache, index, own, arrivals, directions, combined, report
):
    """The subdomain task both engines schedule.

    Sums the subdomain's own source piece `own` ((window, values), or None)
    and the `arrivals`, solves the local PML problem, blends the solution
    into `combined` with beta_{0,0}, and returns the sources it transfers
    along `directions` (each carrying its cut set).  A zero right-hand side
    is counted as a solve but not solved, and the task returns None.
    """
    win = partition.window(index)
    rhs = np.zeros(win.shape, dtype=np.complex128)
    has_own = False
    if own is not None:
        src_win, src_values = own
        has_own = bool(np.any(src_values))
        rhs[win.local_slices(src_win)] += src_values
    for ts in arrivals:
        rhs[win.local_slices(ts.window)] += ts.values
    cuts = solve_cuts([ts.cuts for ts in arrivals], has_own)
    report.solves += 1
    if not np.any(rhs):
        return None
    fact = cache.get(operators[index])  # factorizes on a miss; not timed
    start = time.perf_counter()
    u_local = fact.solve(rhs)
    solved = time.perf_counter()
    report.solve_s += solved - start
    report.nonzero_solves += 1
    _accumulate(combined, partition, index, u_local)
    blended = time.perf_counter()
    report.blend_s += blended - solved
    emitted = []
    for direction in directions:
        if not emits(direction, cuts):
            continue
        ts = psi(partition, operators, index, direction, u_local, rhs)
        if ts is not None:
            ts.cuts = content_cuts(direction, cuts)
            emitted.append(ts)
    report.transfer_s += time.perf_counter() - blended
    return emitted


def diagonal_sweep_solve(
    f: np.ndarray,
    partition: Partition,
    operators: dict,
    cache: FactorizationCache,
    *,
    collect_partials: bool = False,
    record_events: bool = False,
    warn_collar: bool = True,
) -> tuple[ComplexField, DdmReport]:
    """One application of the diagonal sweeping DDM to the source `f`."""
    report = DdmReport(
        events=[] if record_events else None,
        partials=[] if collect_partials else None,
    )
    directions = source_directions(partition.dim)
    sources = restrict_source(f, partition, warn_collar)
    queues: dict = {}
    combined = np.zeros(partition.grid.counts, dtype=np.complex128)
    n_steps = steps_per_sweep(partition.counts)
    for sweep, sweep_dir in enumerate(SWEEP_DIRECTIONS[partition.dim], 1):
        groups = _step_groups(partition, sweep_dir)
        for step in range(1, n_steps + 1):
            for index in groups.get(step, []):
                arrivals = queues.pop((sweep, index), [])
                own = sources[index] if sweep == 1 else None
                solve_before = report.solve_s
                emitted = _solve_and_emit(
                    partition, operators, cache, index, own, arrivals,
                    directions, combined, report,
                )
                queued = 0
                for ts in emitted or ():
                    use = next_usable_sweep(ts.direction, sweep)
                    if use is None:
                        report.discarded_sources += 1
                    else:
                        queues.setdefault((use, ts.target), []).append(ts)
                        queued += 1
                if report.events is not None:
                    report.events.append(
                        {"sweep": sweep, "step": step, "subdomain": list(index),
                         "sources_consumed": len(arrivals), "sources_emitted": queued,
                         "nonzero": emitted is not None,
                         "solve_s": report.solve_s - solve_before}
                    )
        if report.partials is not None:
            report.partials.append(combined.copy())
    if queues:
        raise SolverError("pending transferred sources left after the last sweep")
    return ComplexField(partition.grid, combined), report


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
    directions = source_directions(partition.dim)
    sources = restrict_source(f, partition, warn_collar)
    queues: dict = {}
    combined = np.zeros(partition.grid.counts, dtype=np.complex128)
    total_steps = sum(partition.counts) - partition.dim + 1
    for step in range(1, total_steps + 1):
        # a source sent along d arrives |d|_1 steps later; none arrives past the end
        reach = [d for d in directions if step + sum(map(abs, d)) <= total_steps]
        for index in sorted(partition.subdomains()):
            own = sources[index] if step == 1 else None
            emitted = _solve_and_emit(
                partition, operators, cache, index, own,
                queues.pop((step, index), []), reach, combined, report,
            )
            if emitted is None:
                continue
            report.first_nonzero_step.setdefault(index, step)
            for ts in emitted:
                arrival = step + sum(map(abs, ts.direction))
                queues.setdefault((arrival, ts.target), []).append(ts)
    return ComplexField(partition.grid, combined), report


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
        for index in region.indices:
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
             "subdomains": len(region.indices), "relative_error": rel}
        )
    return out

"""The additive and diagonal sweeping DDM engines.

Both engines solve local PML problems on the extended subdomain windows and
blend the local solutions with the beta_{0,0} cutoffs:

* additive: every subdomain is solved at every step s = 1..sum(N)-dim+1;
  step 1 takes the restricted source f_{i,j}, later steps take the sum of
  transferred sources emitted at step s - |direction|_1.
* diagonal sweeping: 2^dim sweeps over the diagonal directions; within a
  sweep, subdomains are solved in anti-diagonal step order, and every
  generated source is routed to the smallest admissible sweep (same sweep
  when it points with it, a later one otherwise, or discarded when no later
  sweep accepts it).

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
from .partition import Partition, octant_region, steps_per_sweep, sweep_step_of
from .pml import PmlProfile, assemble_operator
from .subdomain import FactorizationCache
from .transfer import next_usable_sweep, psi

_DEFAULT_2D = ((1, 1), (-1, 1), (1, -1), (-1, -1))
_DEFAULT_3D = (
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1),
    (1, 1, -1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1),
)
# alternative order with monotonically increasing L1 distance from the first
_ALTERNATE_3D = (
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
    (-1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1),
)


@dataclass(frozen=True)
class SweepPlan:
    """Ordered list of diagonal sweep directions."""

    directions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dim = len(self.directions[0])
        expected = set(itertools.product((-1, 1), repeat=dim))
        if set(self.directions) != expected or len(self.directions) != len(expected):
            raise ConfigurationError(
                "sweep plan must cover every diagonal direction exactly once"
            )

    @classmethod
    def default(cls, dim: int) -> "SweepPlan":
        return cls(_DEFAULT_2D if dim == 2 else _DEFAULT_3D)

    @classmethod
    def alternate_3d(cls) -> "SweepPlan":
        return cls(_ALTERNATE_3D)

    @property
    def dim(self) -> int:
        return len(self.directions[0])


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
    """Counters and optional traces from one DDM application."""

    solves: int = 0
    nonzero_solves: int = 0
    discarded_sources: int = 0
    wall_time: float = 0.0
    events: list | None = None
    partials: list | None = None
    transfer_records: list | None = None
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
    global collar.  Returns {index: (window, values)}.
    """
    if f.shape != partition.grid.counts:
        raise ConfigurationError("source shape does not match the grid")
    if warn_collar:
        probe = f.copy()
        probe[partition.interior.slices()] = 0
        if np.any(probe):
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


def diagonal_sweep_solve(
    f: np.ndarray,
    partition: Partition,
    operators: dict,
    cache: FactorizationCache,
    plan: SweepPlan | None = None,
    *,
    collect_partials: bool = False,
    record_events: bool = False,
    record_transfers: bool = False,
    warn_collar: bool = True,
) -> tuple[ComplexField, DdmReport]:
    """One application of the diagonal sweeping DDM to the source `f`."""
    t0 = time.perf_counter()
    dim = partition.dim
    plan = plan or SweepPlan.default(dim)
    report = DdmReport(
        events=[] if record_events else None,
        partials=[] if collect_partials else None,
        transfer_records=[] if record_transfers else None,
    )
    directions = source_directions(dim)
    sources = restrict_source(f, partition, warn_collar)
    queues: dict = {}
    combined = np.zeros(partition.grid.counts, dtype=np.complex128)
    n_steps = steps_per_sweep(partition.counts)
    for sweep, sweep_dir in enumerate(plan.directions, 1):
        groups = _step_groups(partition, sweep_dir)
        for step in range(1, n_steps + 1):
            for index in groups.get(step, []):
                win = partition.window(index)
                rhs = np.zeros(win.shape, dtype=np.complex128)
                arrival_cuts = []
                has_own = False
                if sweep == 1:
                    src_win, src_values = sources[index]
                    has_own = bool(np.any(src_values))
                    rhs[win.local_slices(src_win)] += src_values
                consumed = 0
                for ts in queues.pop((sweep, index), []):
                    rhs[win.local_slices(ts.window)] += ts.values
                    arrival_cuts.append(ts.cuts)
                    consumed += 1
                cuts = solve_cuts(arrival_cuts, has_own)
                nonzero = bool(np.any(rhs))
                emitted = 0
                if nonzero:
                    u_local = cache.get(operators[index]).solve(rhs)
                    report.nonzero_solves += 1
                    _accumulate(combined, partition, index, u_local)
                    for direction in directions:
                        if not emits(direction, cuts):
                            continue
                        ts = psi(partition, operators, index, direction, u_local, rhs, sweep)
                        if ts is None:
                            continue
                        ts.cuts = content_cuts(direction, cuts)
                        use = next_usable_sweep(direction, sweep, plan.directions)
                        if report.transfer_records is not None:
                            report.transfer_records.append(
                                (sweep, direction, index, ts.target,
                                 use if use is not None else "discarded")
                            )
                        if use is None:
                            report.discarded_sources += 1
                        else:
                            queues.setdefault((use, ts.target), []).append(ts)
                            emitted += 1
                report.solves += 1
                if report.events is not None:
                    report.events.append(
                        {"sweep": sweep, "step": step, "subdomain": list(index),
                         "sources_consumed": consumed, "sources_emitted": emitted,
                         "nonzero": nonzero}
                    )
        if report.partials is not None:
            report.partials.append(combined.copy())
    if queues:
        raise SolverError("pending transferred sources left after the last sweep")
    report.wall_time = time.perf_counter() - t0
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
    t0 = time.perf_counter()
    dim = partition.dim
    report = DdmReport()
    directions = source_directions(dim)
    sources = restrict_source(f, partition, warn_collar)
    combined = np.zeros(partition.grid.counts, dtype=np.complex128)
    total_steps = sum(partition.counts) - dim + 1
    history: dict[int, dict] = {}
    for step in range(1, total_steps + 1):
        current = {}
        for index in sorted(partition.subdomains()):
            win = partition.window(index)
            rhs = np.zeros(win.shape, dtype=np.complex128)
            arrival_cuts = []
            has_own = False
            if step == 1:
                src_win, src_values = sources[index]
                has_own = bool(np.any(src_values))
                rhs[win.local_slices(src_win)] += src_values
            else:
                for direction in directions:
                    level = step - sum(abs(c) for c in direction)
                    source_idx = tuple(i - c for i, c in zip(index, direction))
                    if level < 1 or any(
                        not 1 <= i <= n for i, n in zip(source_idx, partition.counts)
                    ):
                        continue
                    entry = history.get(level, {}).get(source_idx)
                    if entry is None or not emits(direction, entry[2]):
                        continue
                    ts = psi(partition, operators, source_idx, direction,
                             entry[0], entry[1])
                    rhs[win.local_slices(ts.window)] += ts.values
                    arrival_cuts.append(content_cuts(direction, entry[2]))
            report.solves += 1
            if np.any(rhs):
                u_local = cache.get(operators[index]).solve(rhs)
                report.nonzero_solves += 1
                _accumulate(combined, partition, index, u_local)
                current[index] = (u_local, rhs, solve_cuts(arrival_cuts, has_own))
                report.first_nonzero_step.setdefault(index, step)
            else:
                current[index] = None
        history[step] = current
        history.pop(step - dim, None)
    report.wall_time = time.perf_counter() - t0
    return ComplexField(partition.grid, combined), report


def octant_exactness_check(
    partials: list[np.ndarray],
    reference: np.ndarray,
    partition: Partition,
    origin: tuple[int, ...],
    plan: SweepPlan | None = None,
) -> list[dict]:
    """Per-sweep relative errors of the partial sums on their octant regions."""
    plan = plan or SweepPlan.default(partition.dim)
    out = []
    for sweep, direction in enumerate(plan.directions, 1):
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

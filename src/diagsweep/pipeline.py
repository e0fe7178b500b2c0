"""Timing model for pipelined multi-right-hand-side sweeping.

With one core per subdomain, the four (2D) or eight (3D) sweeps of one
preconditioner application form a pipeline of anti-diagonal stages: the core
owning a subdomain at diagonal step s can start an incoming right-hand side as
soon as step s-1 of the same sweep instance has finished.  Streaming many
right-hand sides through the pipe keeps every core busy after the initial fill,
so the average cost per right-hand side approaches

    2^dim * n_iter * T0 + fill / N_RHS * T0,

where T0 is the one-subdomain solve time and the fill equals the number of
anti-diagonal steps per sweep.  The recursive-bisection sweeping alternative
pipelines at subdomain granularity and pays a Prod(N) fill instead of Sum(N).

`simulate_pipeline` runs a discrete-event list schedule over the task graph
(uniform T0 per solve, optional per-transfer constant) and reports makespan
and per-core utilization; the analytic formulas are `average_time_diagonal`
and `average_time_recursive`.  Cores keep the same solving order in every
sweep: the core of rank ((i'-1) N_y + j'-1) N_z + k' owns the up-to-2^dim
mirror images of one base subdomain and solves whichever of them the current
sweep direction selects.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import prod

from .errors import ConfigurationError
from .partition import steps_per_sweep, sweep_step_of


@dataclass(frozen=True)
class PipelineSpec:
    """Problem sizes and costs for the pipeline timing model."""

    counts: tuple[int, ...]
    n_rhs: int
    n_iter: int
    t0: float = 1.0
    transfer_cost: float = 0.0

    def __post_init__(self):
        if len(self.counts) not in (2, 3) or any(n < 1 for n in self.counts):
            raise ConfigurationError(f"bad subdomain counts {self.counts}")
        if self.n_rhs < 1 or self.n_iter < 1:
            raise ConfigurationError("n_rhs and n_iter must be positive")
        if self.t0 <= 0.0 or self.transfer_cost < 0.0:
            raise ConfigurationError("t0 must be positive, transfer_cost >= 0")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def n_cores(self) -> int:
        return prod(self.counts)

    @property
    def n_sweeps(self) -> int:
        return 2**self.dim

    @property
    def fill_steps(self) -> int:
        return steps_per_sweep(self.counts)


def average_time_diagonal(spec: PipelineSpec) -> float:
    """Analytic average seconds per right-hand side, diagonal sweeping."""
    solves = spec.n_sweeps * spec.n_iter
    return (solves + spec.fill_steps / spec.n_rhs) * spec.t0


def average_time_recursive(spec: PipelineSpec) -> float:
    """Analytic average seconds per right-hand side, recursive sweeping."""
    solves = spec.n_sweeps * spec.n_iter
    return (solves + spec.n_cores / spec.n_rhs) * spec.t0


def core_rank(index: tuple[int, ...], counts: tuple[int, ...]) -> int:
    """Row-major core rank of a base subdomain index (1-based index, 0-based rank)."""
    rank = 0
    for i, n in zip(index, counts):
        rank = rank * n + (i - 1)
    return rank


def core_assignment(
    counts: tuple[int, ...], directions
) -> list[dict[int, tuple[int, ...]]]:
    """Per-sweep map rank -> subdomain index solved by that core.

    The core of a base subdomain solves its mirror image along every axis the
    sweep direction flips, so each core's anti-diagonal step is the same in
    every sweep.
    """
    dim = len(counts)
    ranges = [range(1, n + 1) for n in counts]
    bases = [()]
    for r in ranges:
        bases = [b + (i,) for b in bases for i in r]
    out = []
    for direction in directions:
        sweep_map = {}
        for base in bases:
            index = tuple(
                i if c == 1 else n + 1 - i for i, c, n in zip(base, direction, counts)
            )
            sweep_map[core_rank(base, counts)] = index
        if len(set(sweep_map.values())) != len(bases):
            raise ConfigurationError("core assignment does not cover all subdomains")
        out.append(sweep_map)
    return out


@dataclass
class Schedule:
    """Result of one pipeline simulation."""

    makespan: float
    avg_per_rhs: float
    utilization: list[float]
    formula_avg: float


def simulate_pipeline(spec: PipelineSpec) -> Schedule:
    """Discrete-event schedule of all solves across the pipeline.

    Cores sharing an anti-diagonal step position run in lockstep (identical
    task graphs), so the event loop tracks one timeline per position.  A solve
    becomes ready when the previous position of its sweep instance finishes
    (plus the transfer cost); the first position of instance m waits for the
    last position of instance m-1 of the same right-hand side.  Ready work is
    started oldest-first.
    """
    n_pos = spec.fill_steps
    n_inst = spec.n_sweeps * spec.n_iter
    t0, tc = spec.t0, spec.transfer_cost
    core_time = [0.0] * n_pos
    busy = [0.0] * n_pos
    # heap entries: (earliest start, fifo sequence, rhs, instance, position);
    # a task blocked on a busy core keeps its sequence number so ties at the
    # same ready time are served oldest-first
    seq = itertools.count(spec.n_rhs)
    heap = [(0.0, q, q, 0, 0) for q in range(spec.n_rhs)]
    heapq.heapify(heap)
    makespan = 0.0
    while heap:
        start, s, q, m, p = heapq.heappop(heap)
        if start < core_time[p]:
            heapq.heappush(heap, (core_time[p], s, q, m, p))
            continue
        end = start + t0
        core_time[p] = end
        busy[p] += t0
        makespan = max(makespan, end)
        if p + 1 < n_pos:
            heapq.heappush(heap, (max(end + tc, core_time[p + 1]), next(seq), q, m, p + 1))
        elif m + 1 < n_inst:
            heapq.heappush(heap, (max(end + tc, core_time[0]), next(seq), q, m + 1, 0))
    util_by_pos = [b / makespan for b in busy]
    utilization = []
    ranges = [range(1, n + 1) for n in spec.counts]
    bases = [()]
    for r in ranges:
        bases = [b + (i,) for b in bases for i in r]
    direction = (1,) * spec.dim
    for base in sorted(bases, key=lambda b: core_rank(b, spec.counts)):
        pos = sweep_step_of(base, direction, spec.counts) - 1
        utilization.append(util_by_pos[pos])
    return Schedule(
        makespan=makespan,
        avg_per_rhs=makespan / spec.n_rhs,
        utilization=utilization,
        formula_avg=average_time_diagonal(spec),
    )

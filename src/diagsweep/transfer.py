"""Source-transfer operators and the sweep-admissibility rule engine.

A solved subdomain hands its influence to a neighbor as the equivalent
residual source

    Psi_{dir; idx}(v) = s * ( r + L_{idx+dir}( (prod_a (1-beta_a) - 1) v ) ) |_band,

with one complementary cutoff factor (1 - beta_a) per nonzero component of
the direction, the solved local right-hand side r, the NEIGHBOR's operator,
and the inclusion-exclusion sign s = (-1)^(|dir|_1 + 1).  The band is the
d+1 node layers from the shared breakpoint on (per nonzero axis; the window
intersection along the others).  Band, sign and cutoff weight depend only on
(index, direction): `Partition.transfer_geometry` builds them once, and the
engines ask for Psi only along `Partition.transfer_directions`, whose targets
lie inside the partition.

The stencil is evaluated on the band rows only: the weighted v is given on
ext, the band grown by one node, and `DiscreteOperator.apply(..., region=ext,
rows=band)` computes no row outside the band.  The neighbor operator keeps
the slices and coefficient views of each (ext, band) pair in a per-operator
plan, built on first use; a plan holds only views of the operator's own
arrays, so it adds no copies, and its sums run in the order of the whole-
region stencil, so the values are bit-identical to it.

The expression is L(prod (1-beta_a) v) on the band with the subset-free term
L(v) replaced by the identity L(v) = r, which keeps every stencil evaluation
inside the zone where the two subdomain operators coincide (the weight
prod(1-beta)-1 vanishes past the band, so the neighbor operator never touches
v across its absorption onset).  For a face direction this reduces to the
continuum form (r - L(beta v)) chi; the corner and edge signs subtract the
doubly covered band intersections so the target residual is delivered exactly
once, and a reverse transfer of a pure transfer solution vanishes to
discretization accuracy.  Sources are stored as the band's values and its
slices in the target's window.

Which sweep may consume a transferred source is decided by two rules:

* similar direction: a sweep only uses sources pointing with it (positive dot
  product and no componentwise sign conflict; in 2D, where components are in
  {-1, 0, 1}, a positive dot product alone implies the second condition);
* opposite direction: an axis-aligned source (exactly one nonzero component
  in 2D; in 3D, judged on each coordinate-plane projection) generated in one
  sweep is barred from later sweeps whose (projected) direction is opposite
  to the (projected) generating sweep.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .partition import SWEEP_DIRECTIONS, Partition


@dataclass
class TransferredSource:
    """A direction-tagged banded residual source queued for a later solve.

    `cuts` records the (axis, side) breakpoints past which the carried
    content vanishes in exact arithmetic; the engines use it to suppress
    identically-zero re-emissions.
    """

    target: tuple[int, ...]
    direction: tuple[int, ...]
    slices: tuple[slice, ...]  # of the band in the target's window
    values: np.ndarray
    cuts: frozenset = frozenset()


def similar_direction(d1, d2) -> bool:
    dot = sum(a * b for a, b in zip(d1, d2))
    return dot > 0 and all(a * b >= 0 for a, b in zip(d1, d2))


def rule_allows(src_dir, gen_sweep_dir, use_sweep_dir, dim: int) -> bool:
    """Whether a source generated in one sweep may be consumed in another."""
    if not similar_direction(src_dir, use_sweep_dir):
        return False
    for axes in itertools.combinations(range(dim), 2):
        src = tuple(src_dir[a] for a in axes)
        gen = tuple(gen_sweep_dir[a] for a in axes)
        use = tuple(use_sweep_dir[a] for a in axes)
        one_zero = sum(1 for c in src if c == 0) == 1
        if one_zero and all(g == -u for g, u in zip(gen, use)):
            return False
    return True


@functools.cache
def next_usable_sweep(src_dir: tuple[int, ...], gen_sweep: int) -> int | None:
    """Smallest sweep ordinal >= gen_sweep whose rules accept the source.

    Sweeps run in the fixed `SWEEP_DIRECTIONS` order, so the answer depends
    only on its (hashable) arguments and is computed once per process.
    """
    dim = len(src_dir)
    directions = SWEEP_DIRECTIONS[dim]
    gen_dir = directions[gen_sweep - 1]
    for use in range(gen_sweep, len(directions) + 1):
        if rule_allows(src_dir, gen_dir, directions[use - 1], dim):
            return use
    return None


def psi(
    partition: Partition,
    operators: dict,
    index: tuple[int, ...],
    direction: tuple[int, ...],
    v: np.ndarray,
    rhs: np.ndarray,
) -> TransferredSource:
    """Transferred source from subdomain `index` along `direction`, one of
    its `Partition.transfer_directions` (no transfer crosses the global
    boundary).

    `v` is the local solution on the source subdomain's window and `rhs` the
    local right-hand side it solves.
    """
    geometry = partition.transfer_geometry(index, direction)
    target, band, ext, (v_ext, rhs_band, target_band), sign, weight = geometry
    correction = operators[target].apply(weight * v[v_ext], region=ext, rows=band)
    payload = sign * (rhs[rhs_band] + correction)
    return TransferredSource(target, tuple(direction), target_band, payload)

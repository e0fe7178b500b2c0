"""Source-transfer operators and the sweep-admissibility rule engine.

A solved subdomain hands its influence to a neighbor as the equivalent
residual source

    Psi_{dir; idx}(v) = s * ( r + L_{idx+dir}( w v ) ) |_band,  w = prod_a (1-beta_a) - 1,

with one complementary cutoff factor (1 - beta_a) per nonzero component of
the direction, the solved local right-hand side r, the NEIGHBOR's operator,
and the inclusion-exclusion sign s = (-1)^(|dir|_1 + 1).  The band is the
d+1 node layers from the shared breakpoint on (per nonzero axis; the window
intersection along the others).  For a face direction this is the continuum
form (r - L(beta v)) chi; the corner and edge signs subtract the doubly
covered band intersections so the target residual is delivered exactly
once, and a reverse transfer of a pure transfer solution vanishes to
discretization accuracy.

No stencil is evaluated.  On the band rows the two operators coincide (both
absorb only past the band) and the local solve gives L v = r, so with the
couplings c_lo^a, c_hi^a to the lower and upper neighbour along axis a

    L(w v)(x) = w r + sum_a sum_{+-} c_{lo,hi}^a (w(x +- e_a) - w(x)) v(x +- e_a):

kappa^2 and the diagonal cancel, and so does every axis the direction does
not cross, along which w is constant.  Psi is then s prod(1-beta) r plus two
band terms per crossed axis, equal to the stencil form up to the rounding
of L v = r.  `Partition.transfer_geometry` builds all but the couplings
once per (index, direction); `psi` multiplies in the source operator's
couplings on first use and keeps the products, band profiles of length 1
off the crossed axes, in the geometry's `folded`.

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
    target, _, (rows, target_rows), keep, terms, folded = geometry
    op = operators[index]
    if op.fingerprint not in folded:  # its couplings to each neighbour on the band rows
        folded[op.fingerprint] = tuple(
            (delta * op.coefficients[a][side][at], v_part)
            for a, side, at, v_part, delta in terms
        )
    payload = keep * rhs[rows]
    for coupling, v_part in folded[op.fingerprint]:
        payload += coupling * v[v_part]
    return TransferredSource(target, tuple(direction), target_rows, payload)

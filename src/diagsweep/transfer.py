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

No stencil is evaluated and no operator is read.  On the band rows the two
operators coincide and the local solve gives L v = r.  Both absorb only past
the band (`pml.assemble_operator` starts the PML one node past the overlap),
so every band row is unstretched: its couplings to the lower and upper
neighbour along axis a are both 1/h_a^2, and

    L(w v)(x) = w r + sum_a sum_{+-} (w(x +- e_a) - w(x)) v(x +- e_a) / h_a^2:

kappa^2 and the diagonal cancel, and so does every axis the direction does
not cross, along which w is constant.  Psi is then s prod(1-beta) r plus two
band terms per crossed axis, equal to the stencil form up to the rounding
of L v = r, and it needs only the partition, r and v.
`Partition.transfer_geometry` builds keep = s prod(1-beta) and each term's
coupling s (w(x +- e_a) - w(x)) / h_a^2 once per (index, direction), band
profiles of length 1 off the crossed axes.

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
    target, _, (rows, target_rows), keep, terms = partition.transfer_geometry(index, direction)
    payload = keep * rhs[rows]
    for coupling, v_part in terms:
        payload += coupling * v[v_part]
    return TransferredSource(target, tuple(direction), target_rows, payload)

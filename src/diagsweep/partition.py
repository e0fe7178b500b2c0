"""Checkerboard decomposition, cutoff and truncation families, sweep geometry.

The interior domain (global grid minus the boundary collar) is split into
N_x x N_y (x N_z) equal boxes whose breakpoints fall exactly on grid nodes.
Each subdomain solves on an extended window: its box grown by the overlap
width d plus the PML width at interior faces, and reaching the grid edge at
global faces (the "+-infinity" breakpoint convention: no cutoff and no
transfer across the global boundary).

Subdomain indices are 1-based tuples, matching the (i, j, k) convention used
throughout.

Only the partition reads its breakpoints: the transfer geometry of each
(index, direction) and the beta_{0,0} blend of each index are built once, on
first use, so `transfer.psi` and the engines' blend do only arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, Window


def beta_hat(t):
    """C^2 monotone cutoff: 1 for t <= 0, 0 for t >= 1 (complementary smootherstep)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    out = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)
    if out.ndim == 0:
        return float(out)
    return out


def _outer(window: Window, axes, factor) -> np.ndarray:
    """Ones on `window` (length 1 off `axes`) times factor(a, nodes of a), a in `axes`."""
    out = np.ones(tuple(n if a in axes else 1 for a, n in enumerate(window.shape)))
    for a in axes:
        f = factor(a, np.arange(window.lo[a], window.hi[a] + 1))
        out = out * f.reshape([-1 if b == a else 1 for b in range(len(window.shape))])
    return out


def _per_instance(method):
    """Cache a Partition method's result per argument tuple on the instance."""
    def cached(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return functools.wraps(method)(cached)


@dataclass(frozen=True)
class OctantRegion:
    """Subdomain indices on one side of the origin subdomain in every axis."""

    direction: tuple[int, ...]
    origin: tuple[int, ...]
    indices: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class Partition:
    grid: Grid
    counts: tuple[int, ...]
    overlap_d_points: int
    pml_width_points: int
    breaks: tuple[tuple[int, ...], ...]  # node indices, length N_axis + 1 per axis
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def interior(self) -> Window:
        return Window(
            tuple(bk[0] for bk in self.breaks), tuple(bk[-1] for bk in self.breaks)
        )

    def interior_box(self) -> tuple[tuple[float, float], ...]:
        win = self.interior
        return tuple(
            (self.grid.axis_coords(a)[win.lo[a]], self.grid.axis_coords(a)[win.hi[a]])
            for a in range(self.dim)
        )

    def subdomains(self):
        return itertools.product(*(range(1, n + 1) for n in self.counts))

    def box(self, index: tuple[int, ...]) -> Window:
        return Window(
            tuple(self.breaks[a][i - 1] for a, i in enumerate(index)),
            tuple(self.breaks[a][i] for a, i in enumerate(index)),
        )

    def window(self, index: tuple[int, ...]) -> Window:
        reach = self.overlap_d_points + self.pml_width_points
        lo, hi = [], []
        for a, i in enumerate(index):
            bk = self.breaks[a]
            lo.append(bk[i - 1] - reach if i > 1 else 0)
            hi.append(bk[i] + reach if i < self.counts[a] else self.grid.counts[a] - 1)
        return Window(tuple(lo), tuple(hi))

    def owned_slices(self, index: tuple[int, ...]) -> tuple[slice, ...]:
        """Global slices of the nodes owned by this subdomain.

        Breakpoint nodes belong to the lower-index neighbor, so ownership is
        (bk[i-1], bk[i]] except for the first subdomain which keeps its lower
        edge.
        """
        out = []
        for a, i in enumerate(index):
            bk = self.breaks[a]
            lo = bk[i - 1] + 1 if i > 1 else bk[0]
            out.append(slice(lo, bk[i] + 1))
        return tuple(out)

    # cutoff families ------------------------------------------------------

    def beta_1d_nodes(self, axis: int, sign: int, i: int, nodes: np.ndarray):
        """The 1D cutoff factor at node indices (breakpoints are node-aligned)."""
        nodes = np.asarray(nodes)
        d = self.overlap_d_points
        bk = self.breaks[axis]
        if sign == -1 and i != 1:
            return beta_hat((bk[i - 1] - nodes) / d)
        if sign == 1 and i != self.counts[axis]:
            return beta_hat((nodes - bk[i]) / d)
        return np.ones(nodes.shape)

    @_per_instance
    def beta00_support(self, index: tuple[int, ...]) -> tuple[Window, np.ndarray]:
        """Support window of beta_{0,0;index}, the window less the PML at
        interior faces, and its sampled values (read-only)."""
        win, p = self.window(index), self.pml_width_points
        support = Window(
            tuple(lo + p * (i > 1) for lo, i in zip(win.lo, index)),
            tuple(hi - p * (i < n) for hi, i, n in zip(win.hi, index, self.counts)),
        )
        values = _outer(support, range(self.dim), lambda a, x: self.beta_1d_nodes(
            a, -1, index[a], x) * self.beta_1d_nodes(a, 1, index[a], x))
        values.flags.writeable = False
        return support, values

    @_per_instance
    def transfer_geometry(self, index: tuple[int, ...], direction: tuple[int, ...]):
        """(target, band, ext, slices, sign, weight) of Psi_{direction; index}, or
        None when the target lies outside the partition.  `slices` places ext
        and band in the source window and band in ext; `weight` =
        prod_a (1 - beta_a) - 1 on `ext`, of length 1 off the crossed axes.
        """
        target = tuple(i + c for i, c in zip(index, direction))
        if any(not 1 <= i <= n for i, n in zip(target, self.counts)):
            return None
        src_win = self.window(index)
        both = src_win.intersect(self.window(target))
        lo, hi = list(both.lo), list(both.hi)
        crossed = [a for a, comp in enumerate(direction) if comp]
        for a in crossed:
            edge = self.breaks[a][index[a] + (direction[a] - 1) // 2]
            lo[a], hi[a] = sorted((edge, edge + direction[a] * self.overlap_d_points))
        band = Window(tuple(lo), tuple(hi))
        ext = band.grow(1).intersect(both)
        weight = _outer(ext, crossed, lambda a, x: 1.0 - self.beta_1d_nodes(
            a, direction[a], index[a], x)) - 1.0
        weight.flags.writeable = False
        slices = (src_win.local_slices(ext), src_win.local_slices(band),
                  ext.local_slices(band))
        return target, band, ext, slices, (-1.0) ** (len(crossed) + 1), weight

    def chi_indicator(
        self, direction: tuple[int, ...], index: tuple[int, ...], node: tuple[int, ...]
    ) -> int:
        """Indicator of the product interval past the breakpoints.

        Breakpoint nodes themselves are included: their stencil rows already
        reach into the cutoff ramp, so the discrete truncation keeps them.
        """
        for a, (comp, i, p) in enumerate(zip(direction, index, node)):
            bk = self.breaks[a]
            if comp == 1 and not p >= bk[i]:
                return 0
            if comp == -1 and not p <= bk[i - 1]:
                return 0
        return 1


def make_partition(
    grid: Grid,
    counts,
    overlap_d_points: int,
    pml_width_points: int,
) -> Partition:
    """Partition the interior (grid minus the PML-wide boundary collar) into equal boxes."""
    counts = tuple(int(n) for n in counts)
    if len(counts) != grid.dim or any(n < 1 for n in counts):
        raise ConfigurationError(f"bad partition counts {counts} for dim {grid.dim}")
    breaks = []
    for axis, n_sub in enumerate(counts):
        cells = grid.counts[axis] - 1 - 2 * pml_width_points
        if cells < n_sub:
            raise ConfigurationError(
                f"axis {axis}: interior has only {cells} cells for {n_sub} subdomains"
            )
        if cells % n_sub != 0:
            raise ConfigurationError(
                f"axis {axis}: {cells} interior cells not divisible by {n_sub} subdomains"
            )
        per = cells // n_sub
        breaks.append(tuple(pml_width_points + i * per for i in range(n_sub + 1)))
    part = Partition(
        grid, counts, int(overlap_d_points), int(pml_width_points), tuple(breaks)
    )
    reach = part.overlap_d_points + part.pml_width_points
    for axis, n_sub in enumerate(counts):
        per = breaks[axis][1] - breaks[axis][0]
        if n_sub > 1 and per < reach:
            raise ConfigurationError(
                f"axis {axis}: subdomain size {per} smaller than overlap+pml {reach}"
            )
    return part


# The order of the 2^dim diagonal sweeps, per dimension; the engine, the
# octant check and the pipeline's core assignment all run it
SWEEP_DIRECTIONS = {
    2: ((1, 1), (-1, 1), (1, -1), (-1, -1)),
    3: (
        (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1),
        (1, 1, -1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1),
    ),
}


def sweep_step_of(
    index: tuple[int, ...], direction: tuple[int, ...], counts: tuple[int, ...]
) -> int:
    """Anti-diagonal step (1-based) of a subdomain within one sweep."""
    if any(c not in (-1, 1) for c in direction):
        raise ConfigurationError(f"sweep direction {direction} must be diagonal")
    return 1 + sum(
        (i - 1) if c == 1 else (n - i) for i, c, n in zip(index, direction, counts)
    )


def steps_per_sweep(counts: tuple[int, ...]) -> int:
    return sum(n - 1 for n in counts) + 1


def octant_region(
    direction: tuple[int, ...], origin: tuple[int, ...], counts: tuple[int, ...]
) -> OctantRegion:
    """The subdomain indices reached by the sweep `direction` from `origin`.

    The +1 side includes the origin index; the -1 side is everything strictly
    below it, so the 2^dim regions for a fixed origin tile the index set.
    """
    ranges = []
    for comp, i0, n in zip(direction, origin, counts):
        if comp == 1:
            ranges.append(range(i0, n + 1))
        else:
            ranges.append(range(1, i0))
    return OctantRegion(
        tuple(direction), tuple(origin), frozenset(itertools.product(*ranges))
    )

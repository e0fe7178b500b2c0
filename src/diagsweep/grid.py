"""Structured tensor-product grids, complex nodal fields, and discrete norms.

Grids are node-centered: a grid with extent [a, b] and n points has nodes at
a + i*h with h = (b - a)/(n - 1).  Fields store one complex value per node in
a C-ordered array indexed [i_x, i_y(, i_z)].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid:
    """A uniform tensor-product grid over an axis-aligned box."""

    extents: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (n - 1) for (a, b), n in zip(self.extents, self.counts))

    def axis_coords(self, axis: int) -> np.ndarray:
        a, b = self.extents[axis]
        return np.linspace(a, b, self.counts[axis])

    def full_window(self) -> "Window":
        return Window(tuple(0 for _ in self.counts), tuple(n - 1 for n in self.counts))


@dataclass(frozen=True)
class Window:
    """An inclusive node-index box [lo, hi] within a grid."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h + 1) for l, h in zip(self.lo, self.hi))

    def intersect(self, other: "Window") -> "Window | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l > h for l, h in zip(lo, hi)):
            return None
        return Window(lo, hi)

    def local_slices(self, sub: "Window") -> tuple[slice, ...]:
        """Slices of `sub` expressed in this window's local array coordinates."""
        return tuple(
            slice(sl - l, sh - l + 1) for l, sl, sh in zip(self.lo, sub.lo, sub.hi)
        )

    def grow(self, points: int) -> "Window":
        return Window(
            tuple(l - points for l in self.lo), tuple(h + points for h in self.hi)
        )


@dataclass
class ComplexField:
    """A complex-valued nodal field on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.counts:
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid {self.grid.counts}"
            )


def make_grid(extents, counts) -> Grid:
    extents = tuple((float(a), float(b)) for a, b in extents)
    counts = tuple(int(n) for n in counts)
    if len(extents) != len(counts) or len(counts) not in (2, 3):
        raise ConfigurationError("grid must be 2D or 3D with matching extents/counts")
    for (a, b), n in zip(extents, counts):
        if n < 2:
            raise ConfigurationError(f"axis needs at least 2 points, got {n}")
        if not b > a:
            raise ConfigurationError(f"degenerate extent [{a}, {b}]")
    return Grid(extents, counts)


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")


def field_norm(u: ComplexField, kind: str = "L2", region: Window | None = None) -> float:
    """Discrete L2 or H1 norm; H1 adds the forward-difference seminorm."""
    values = u.values if region is None else u.values[region.slices()]
    _check_finite(values)
    cell = math.prod(u.grid.spacing)
    l2_sq = float(np.vdot(values, values).real) * cell
    if kind == "L2":
        return math.sqrt(l2_sq)
    if kind == "H1":
        semi_sq = 0.0
        for axis, h in enumerate(u.grid.spacing):
            diff = np.diff(values, axis=axis) / h
            semi_sq += float(np.vdot(diff, diff).real) * cell
        return math.sqrt(l2_sq + semi_sq)
    raise ConfigurationError(f"unknown norm kind {kind!r}")


def field_error(
    u: ComplexField, ref: ComplexField, kind: str = "L2", region: Window | None = None
) -> float:
    """Norm of (u - ref) restricted to `region` (typically the PML-free box)."""
    if u.grid != ref.grid:
        raise ConfigurationError("fields live on different grids")
    diff = ComplexField(u.grid, u.values - ref.values)
    return field_norm(diff, kind, region)


def dump_field(u: ComplexField, path) -> None:
    """Raw little-endian float64 dump, (re, im) interleaved, x fastest.

    A sidecar JSON descriptor with the same stem records dims, extents and
    counts.
    """
    path = Path(path)
    # a little-endian complex128 is the (re, im) pair of little-endian float64s
    u.values.ravel(order="F").astype("<c16").tofile(path)
    meta = {
        "dims": u.grid.dim,
        "extents": [list(e) for e in u.grid.extents],
        "counts": list(u.grid.counts),
        "layout": "f64le re/im interleaved, x fastest",
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2))


def load_field(path) -> ComplexField:
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    grid = make_grid(meta["extents"], meta["counts"])
    values = np.fromfile(path, dtype="<c16").reshape(grid.counts, order="F")
    return ComplexField(grid, np.ascontiguousarray(values))


def write_pgm(u: ComplexField, path) -> None:
    """Binary PGM quicklook of the real part, linearly scaled to [0, 255].

    3D fields dump the middle slice along the last axis.
    """
    real = u.values.real
    if real.ndim == 3:
        real = real[:, :, real.shape[2] // 2]
    lo, hi = float(real.min()), float(real.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = ((real - lo) * scale).astype(np.uint8)
    # image rows run along y, top row = largest y
    img = img.T[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())

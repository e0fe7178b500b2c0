"""Velocity models (constant, layered, raster) and source construction."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ModelError
from .grid import Grid
from .reference import gaussian_amplitude

DEPTH_AXIS = -1  # layers are horizontal: speed varies along the last axis


@dataclass(frozen=True)
class ConstantModel:
    """Uniform propagation speed."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ModelError(f"speed must be finite and > 0, got {self.c}")

    def speed_at(self, points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[:-1], self.c)


@dataclass(frozen=True)
class LayeredModel:
    """Piecewise-constant speed in depth (the last coordinate).

    `depths` are the interface coordinates (strictly increasing); layer i
    spans depths[i-1]..depths[i] with speed speeds[i], the first and last
    layers extending to -inf/+inf.
    """

    depths: tuple[float, ...]
    speeds: tuple[float, ...]

    def __post_init__(self):
        if len(self.speeds) != len(self.depths) + 1:
            raise ModelError("need exactly one more speed than interface depth")
        if not all(math.isfinite(s) and s > 0 for s in self.speeds):
            raise ModelError(f"layer speeds must be finite and > 0, got {self.speeds}")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ModelError("interface depths must be strictly increasing")

    def speed_of_depth(self, depth: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.depths), depth, side="right")
        return np.asarray(self.speeds)[idx]

    def speed_at(self, points: np.ndarray) -> np.ndarray:
        return self.speed_of_depth(points[..., DEPTH_AXIS])


@dataclass(frozen=True)
class RasterModel:
    """Grid-sampled speed with multilinear interpolation.

    Queries outside the raster extents use constant extrapolation from the
    nearest raster point.
    """

    extents: tuple[tuple[float, float], ...]
    samples: np.ndarray  # float32, shape = raster counts

    def __post_init__(self):
        if not np.all(np.isfinite(self.samples) & (self.samples > 0)):
            raise ModelError("raster speeds must be finite and > 0")

    def speed_at(self, points: np.ndarray) -> np.ndarray:
        out = None
        counts = self.samples.shape
        idx_lo, weights = [], []
        for axis, ((a, b), n) in enumerate(zip(self.extents, counts)):
            t = (points[..., axis] - a) / (b - a) * (n - 1)
            t = np.clip(t, 0.0, n - 1.0)
            lo = np.minimum(t.astype(np.int64), n - 2) if n > 1 else np.zeros_like(t, np.int64)
            idx_lo.append(lo)
            weights.append(t - lo)
        out = np.zeros(points.shape[:-1])
        dim = len(counts)
        for corner in range(1 << dim):
            w = np.ones(points.shape[:-1])
            idx = []
            for axis in range(dim):
                if corner >> axis & 1 and counts[axis] > 1:
                    idx.append(idx_lo[axis] + 1)
                    w = w * weights[axis]
                else:
                    idx.append(idx_lo[axis])
                    if counts[axis] > 1:
                        w = w * (1.0 - weights[axis])
                    elif corner >> axis & 1:
                        w = w * 0.0
            out += w * self.samples[tuple(idx)].astype(np.float64)
        return out


VelocityModel = ConstantModel | LayeredModel | RasterModel


def constant_model(c: float) -> ConstantModel:
    return ConstantModel(float(c))


def layered_model(depths, speeds) -> LayeredModel:
    return LayeredModel(tuple(float(d) for d in depths), tuple(float(s) for s in speeds))


def save_velocity(model: RasterModel, path) -> None:
    """Raw little-endian float32 (x fastest) plus a JSON sidecar."""
    path = Path(path)
    np.asfortranarray(model.samples.astype("<f4")).ravel(order="F").tofile(path)
    counts = model.samples.shape
    meta = {"counts": list(counts), "extents": [list(e) for e in model.extents],
            "dtype": "f32le"}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(meta, indent=2))


def load_velocity(path) -> RasterModel:
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    if not path.exists() or not sidecar.exists():
        raise ModelError(f"missing raster file or sidecar for {path}")
    try:
        meta = json.loads(sidecar.read_text())
        counts = tuple(int(n) for n in meta["counts"])
        extents = tuple((float(a), float(b)) for a, b in meta["extents"])
        if len(extents) != len(counts):
            raise ModelError(f"{len(counts)} counts but {len(extents)} extents")
        if meta["dtype"] != "f32le":
            raise ModelError(f"unsupported raster dtype {meta['dtype']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed raster sidecar {sidecar}: {exc}") from exc
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != math.prod(counts):
        raise ModelError(
            f"raster size {raw.size} does not match sidecar counts {counts}"
        )
    samples = np.ascontiguousarray(raw.reshape(counts, order="F"))
    return RasterModel(extents, samples)


def gaussian_source(grid: Grid, center, kappa: float, interior=None) -> np.ndarray:
    """Normalized Gaussian bump sampled on the grid nodes.

    2D: (16 kappa^2 / pi^3) exp(-(4 kappa/pi)^2 |x - r|^2);
    3D: (64 kappa^3 / pi^(9/2)) exp(-(4 kappa/pi)^2 |x - r|^2).
    """
    center = tuple(float(c) for c in center)
    _check_inside(center, grid, interior)
    dim = grid.dim
    amp = gaussian_amplitude(kappa, dim)
    rate = (4.0 * kappa / math.pi) ** 2
    r_sq = np.zeros(grid.counts)
    for axis in range(dim):
        coords = grid.axis_coords(axis) - center[axis]
        shape = [1] * dim
        shape[axis] = -1
        r_sq = r_sq + (coords**2).reshape(shape)
    return (amp * np.exp(-rate * r_sq)).astype(np.complex128)


def point_shots(grid: Grid, locations, interior=None) -> np.ndarray:
    """Grid delta functions: 1/prod(h) at the node nearest each location."""
    values = np.zeros(grid.counts, dtype=np.complex128)
    weight = 1.0 / math.prod(grid.spacing)
    for loc in locations:
        loc = tuple(float(c) for c in loc)
        _check_inside(loc, grid, interior)
        idx = tuple(
            int(round((c - a) / h))
            for c, (a, _), h in zip(loc, grid.extents, grid.spacing)
        )
        values[idx] += weight
    return values


def _check_inside(point, grid: Grid, interior) -> None:
    if interior is None:
        boxes = grid.extents
    else:
        boxes = interior
    for c, (a, b) in zip(point, boxes):
        if not a <= c <= b:
            raise ConfigurationError(f"source location {point} outside {boxes}")

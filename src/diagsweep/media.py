"""Velocity models (constant, layered, raster) and source construction.

A model samples itself: `kappa2(coords, omega)` is kappa^2 = (omega/speed)^2
on the tensor grid of the per-axis `coords`, broadcastable to it and of length
1 along every axis where the model is constant; `slowest` is its least speed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grid import Grid
from .reference import gaussian_amplitude


@dataclass(frozen=True)
class ConstantModel:
    """Uniform propagation speed."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"speed must be finite and > 0, got {self.c}")

    @property
    def slowest(self) -> float:
        return self.c

    def kappa2(self, coords, omega: float) -> np.ndarray:
        return np.full((1,) * len(coords), (omega / self.c) ** 2)


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
            raise ConfigurationError("need exactly one more speed than interface depth")
        if not all(math.isfinite(s) and s > 0 for s in self.speeds):
            raise ConfigurationError(f"layer speeds must be finite and > 0, got {self.speeds}")
        if not all(math.isfinite(d) for d in self.depths):
            raise ConfigurationError(f"interface depths must be finite, got {self.depths}")
        if any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ConfigurationError("interface depths must be strictly increasing")

    @property
    def slowest(self) -> float:
        return min(self.speeds)

    def kappa2(self, coords, omega: float) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.depths), coords[-1], side="right")
        speed = np.asarray(self.speeds)[idx]
        return ((omega / speed) ** 2).reshape((1,) * (len(coords) - 1) + (-1,))


@dataclass(frozen=True)
class RasterModel:
    """Grid-sampled speed with multilinear interpolation.

    Queries outside the raster extents use constant extrapolation from the
    nearest raster point.
    """

    extents: tuple[tuple[float, float], ...]
    samples: np.ndarray  # float32, shape = raster counts

    def __post_init__(self):
        if not all(math.isfinite(a) and math.isfinite(b) and a < b for a, b in self.extents):
            raise ConfigurationError(
                f"raster extents must be finite with lo < hi, got {self.extents}")
        if not np.all(np.isfinite(self.samples) & (self.samples > 0)):
            raise ConfigurationError("raster speeds must be finite and > 0")

    @property
    def slowest(self) -> float:
        return float(self.samples.min())

    def kappa2(self, coords, omega: float) -> np.ndarray:
        # imported here: scipy.ndimage adds ~60 ms to importing the package
        from scipy.ndimage import map_coordinates

        index = np.meshgrid(*(
            np.clip((x - a) / (b - a) * (n - 1), 0.0, n - 1.0)
            for x, (a, b), n in zip(coords, self.extents, self.samples.shape)
        ), indexing="ij")
        speed = map_coordinates(self.samples.astype(np.float64), index, order=1, mode="nearest")
        return (omega / speed) ** 2


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
        raise ConfigurationError(f"missing raster file or sidecar for {path}")
    try:
        meta = json.loads(sidecar.read_text())
        counts = tuple(int(n) for n in meta["counts"])
        extents = tuple((float(a), float(b)) for a, b in meta["extents"])
        if len(extents) != len(counts):
            raise ConfigurationError(f"{len(counts)} counts but {len(extents)} extents")
        if any(n < 1 for n in counts):
            raise ConfigurationError(f"raster counts must be >= 1, got {counts}")
        if meta["dtype"] != "f32le":
            raise ConfigurationError(f"unsupported raster dtype {meta['dtype']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed raster sidecar {sidecar}: {exc}") from exc
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != math.prod(counts):
        raise ConfigurationError(
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
    amp = gaussian_amplitude(kappa, grid.dim)
    rate = (4.0 * kappa / math.pi) ** 2
    axes = np.meshgrid(*map(grid.axis_coords, range(grid.dim)), indexing="ij", sparse=True)
    r_sq = sum((x - c) ** 2 for x, c in zip(axes, center))
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
    if len(point) != grid.dim:
        raise ConfigurationError(
            f"source location {point} has {len(point)} coordinates, need {grid.dim}"
        )
    for c, (a, b) in zip(point, boxes):
        if not a <= c <= b:
            raise ConfigurationError(f"source location {point} outside {boxes}")

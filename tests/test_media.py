"""Velocity models and source constructors."""

import numpy as np
import pytest

from diagsweep.errors import ConfigurationError, ModelError
from diagsweep.grid import make_grid
from diagsweep.media import (
    RasterModel,
    constant_model,
    gaussian_source,
    layered_model,
    load_velocity,
    point_shots,
    save_velocity,
)


def test_constant_model():
    m = constant_model(1.5)
    pts = np.zeros((4, 2))
    np.testing.assert_array_equal(m.speed_at(pts), 1.5)
    with pytest.raises(ModelError):
        constant_model(0.0)


def test_layered_model_lookup():
    m = layered_model((0.3, 0.6), (1.0, 2.0, 0.5))
    depths = np.array([0.0, 0.299, 0.3, 0.45, 0.61, 5.0])
    # an interface depth belongs to the layer below it
    np.testing.assert_array_equal(
        m.speed_of_depth(depths), [1.0, 1.0, 2.0, 2.0, 0.5, 0.5]
    )
    # speed varies along the last coordinate
    pts = np.stack([np.zeros(6), depths], axis=-1)
    np.testing.assert_array_equal(m.speed_at(pts), m.speed_of_depth(depths))
    with pytest.raises(ModelError):
        layered_model((0.6, 0.3), (1.0, 2.0, 0.5))
    with pytest.raises(ModelError):
        layered_model((0.3,), (1.0,))


def test_raster_model_interpolation_and_io(tmp_path):
    samples = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    m = RasterModel(((0.0, 1.0), (0.0, 1.0)), samples)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [2.0, 2.0]])
    got = m.speed_at(pts)
    np.testing.assert_allclose(got, [1.0, 2.5, 4.0, 4.0])  # clamped outside
    path = tmp_path / "vel.raster"
    save_velocity(m, path)
    m2 = load_velocity(path)
    np.testing.assert_allclose(m2.speed_at(pts), got)
    with pytest.raises(ModelError):
        RasterModel(((0, 1), (0, 1)), np.array([[1.0, -2.0], [1.0, 1.0]], np.float32))


@pytest.mark.parametrize("speed", (float("nan"), float("inf")))
@pytest.mark.parametrize("build", (
    constant_model,
    lambda s: layered_model((0.5,), (1.0, s)),
    lambda s: RasterModel(((0, 1), (0, 1)), np.array([[1.0, s], [1.0, 1.0]], np.float32)),
), ids=("constant", "layered", "raster"))
def test_nonfinite_speed_rejected(build, speed):
    with pytest.raises(ModelError, match="finite and > 0"):
        build(speed)


def test_gaussian_source_normalization():
    grid = make_grid(((-1, 1), (-1, 1)), (401, 401))
    kappa = 10.0
    f = gaussian_source(grid, (0.0, 0.0), kappa)
    assert f.dtype == np.complex128
    peak = 16.0 * kappa**2 / np.pi**3
    assert f[200, 200] == pytest.approx(peak)
    # integral of A exp(-a r^2) over the plane is A pi / a
    cell = np.prod(grid.spacing)
    a = (4.0 * kappa / np.pi) ** 2
    assert np.sum(f.real) * cell == pytest.approx(peak * np.pi / a, rel=1e-6)


def test_point_shots_weight_and_bounds():
    grid = make_grid(((0, 1), (0, 1)), (11, 11))
    f = point_shots(grid, ((0.5, 0.5), (0.5, 0.5)))
    assert f[5, 5] == pytest.approx(2.0 / (0.1 * 0.1))
    assert np.count_nonzero(f) == 1
    with pytest.raises(ConfigurationError):
        point_shots(grid, ((1.5, 0.5),))
    with pytest.raises(ConfigurationError):
        point_shots(grid, ((0.5, 0.5),), interior=((0.6, 1.0), (0.0, 1.0)))

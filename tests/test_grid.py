"""Grids, windows, norms and field I/O."""

import numpy as np
import pytest

from diagsweep.errors import ConfigurationError
from diagsweep.grid import (
    ComplexField,
    Window,
    dump_field,
    field_error,
    field_norm,
    load_field,
    make_grid,
    write_pgm,
)


def test_grid_basic_geometry():
    grid = make_grid(((0.0, 1.0), (0.0, 2.0)), (11, 21))
    assert grid.dim == 2
    assert grid.spacing == (0.1, 0.1)
    assert np.allclose(grid.axis_coords(0), np.linspace(0, 1, 11))
    assert grid.full_window() == Window((0, 0), (10, 20))


def test_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        make_grid(((0, 1),), (5,))
    with pytest.raises(ConfigurationError):
        make_grid(((0, 1), (1, 0)), (5, 5))
    with pytest.raises(ConfigurationError):
        make_grid(((0, 1), (0, 1)), (5, 1))


def test_window_algebra():
    w = Window((2, 3), (6, 9))
    assert w.shape == (5, 7)
    assert w.slices() == (slice(2, 7), slice(3, 10))
    assert w.contains((2, 9)) and not w.contains((7, 3))
    inner = Window((4, 4), (8, 6))
    cap = w.intersect(inner)
    assert cap == Window((4, 4), (6, 6))
    assert w.intersect(Window((7, 0), (9, 2))) is None
    assert w.local_slices(cap) == (slice(2, 5), slice(1, 4))
    assert w.grow(1) == Window((1, 2), (7, 10))


def test_l2_norm_matches_quadrature():
    grid = make_grid(((0.0, 1.0), (0.0, 1.0)), (201, 201))
    x = grid.axis_coords(0)[:, None]
    y = grid.axis_coords(1)[None, :]
    u = ComplexField(grid, np.sin(np.pi * x) * np.sin(np.pi * y) + 0j)
    # ||sin(pi x) sin(pi y)||_L2 over the unit square is 1/2
    assert field_norm(u, "L2") == pytest.approx(0.5, rel=1e-2)
    # H1 norm adds the gradient seminorm: sqrt(1/4 + pi^2/2)
    assert field_norm(u, "H1") == pytest.approx(
        np.sqrt(0.25 + np.pi**2 / 2), rel=1e-2
    )


def test_field_error_region_restriction():
    grid = make_grid(((0.0, 1.0), (0.0, 1.0)), (11, 11))
    a = ComplexField(grid, np.zeros(grid.counts, dtype=np.complex128))
    b = ComplexField(grid, np.zeros(grid.counts, dtype=np.complex128))
    b.values[0, 0] = 3.0  # difference outside the region is ignored
    region = Window((5, 5), (9, 9))
    assert field_error(a, b, "L2", region) == 0.0
    assert field_error(a, b, "L2") > 0.0


def test_dump_load_round_trip(tmp_path):
    grid = make_grid(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (5, 6, 7))
    rng = np.random.default_rng(1)
    u = ComplexField(grid, rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts))
    path = tmp_path / "field.f64le"
    dump_field(u, path)
    assert path.exists() and path.with_suffix(".f64le.json").exists()
    v = load_field(path)
    assert v.grid == grid
    np.testing.assert_array_equal(u.values, v.values)


def test_pgm_quicklook(tmp_path):
    grid = make_grid(((0.0, 1.0), (0.0, 1.0)), (32, 16))
    u = ComplexField(grid, np.outer(np.linspace(-1, 1, 32), np.ones(16)) + 0j)
    path = tmp_path / "look.pgm"
    write_pgm(u, path)
    header = path.read_bytes()[:2]
    assert header == b"P5"

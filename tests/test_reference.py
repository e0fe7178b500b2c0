"""Semi-analytic radial reference solutions."""

import numpy as np
import pytest

from diagsweep.grid import make_grid
from diagsweep.reference import (
    gaussian_amplitude,
    gaussian_profile,
    radial_solution,
)


def _laplacian_residual(grid, u, kappa, f):
    """Relative residual of the plain second-order Helmholtz stencil."""
    h = grid.spacing[0]
    dim = grid.dim
    res = kappa**2 * u.copy()
    res -= 2 * dim / h**2 * u
    for axis in range(dim):
        up = [slice(None)] * dim
        down = [slice(None)] * dim
        mid = [slice(1, -1)] * dim
        up[axis] = slice(2, None)
        down[axis] = slice(None, -2)
        for other in range(dim):
            if other != axis:
                up[other] = slice(1, -1)
                down[other] = slice(1, -1)
        res[tuple(mid)] += (u[tuple(up)] + u[tuple(down)]) / h**2
    inner = tuple(slice(1, -1) for _ in range(dim))
    diff = res[inner] - f[inner]
    return np.linalg.norm(diff) / np.linalg.norm(f[inner])


@pytest.mark.parametrize("dim,n_coarse,n_fine", ((2, 81, 161), (3, 41, 81)))
def test_residual_second_order(dim, n_coarse, n_fine):
    kappa = 9.0
    center = (0.0,) * dim
    residuals = []
    for n in (n_coarse, n_fine):
        grid = make_grid(((-1.0, 1.0),) * dim, (n,) * dim)
        u = radial_solution(grid, center, kappa, n_quad=40_000).values
        coords = np.meshgrid(*(grid.axis_coords(a) for a in range(dim)),
                             indexing="ij")
        rho = np.sqrt(sum(c**2 for c in coords))
        f = gaussian_profile(rho, kappa, dim).astype(np.complex128)
        residuals.append(_laplacian_residual(grid, u, kappa, f))
    # halving h divides the discrete residual by about four
    assert residuals[1] < residuals[0] / 2.5


def test_amplitude_constants():
    kappa = 5.0
    assert gaussian_amplitude(kappa, 2) == pytest.approx(16 * kappa**2 / np.pi**3)
    assert gaussian_amplitude(kappa, 3) == pytest.approx(64 * kappa**3 / np.pi**4.5)
    assert gaussian_profile(np.array([0.0]), kappa, 2)[0] == pytest.approx(
        gaussian_amplitude(kappa, 2)
    )


def test_outgoing_far_field_2d():
    """Far from the source the field decays like 1/sqrt(r) and is outgoing."""
    kappa = 12.0
    grid = make_grid(((-4.0, 4.0), (-0.01, 0.01)), (1601, 3))
    u = radial_solution(grid, (0.0, 0.0), kappa, n_quad=100_000).values[:, 1]
    x = grid.axis_coords(0)
    far = np.abs(x) > 2.0
    scaled = np.abs(u[far]) * np.sqrt(np.abs(x[far]))
    # 1/sqrt(r) envelope: the scaled magnitude is nearly constant
    assert scaled.std() / scaled.mean() < 0.02
    # outgoing: phase advances with radius on the positive axis
    right = u[x > 2.0]
    phase = np.unwrap(np.angle(right))
    slope = np.polyfit(x[x > 2.0], phase, 1)[0]
    assert slope == pytest.approx(kappa, rel=0.05)


def test_outgoing_far_field_3d():
    """Far from the source the field decays like 1/r and is outgoing."""
    kappa = 12.0
    grid = make_grid(((-4.0, 4.0), (-0.01, 0.01), (-0.01, 0.01)), (1601, 3, 3))
    u = radial_solution(grid, (0.0, 0.0, 0.0), kappa, n_quad=100_000).values[:, 1, 1]
    x = grid.axis_coords(0)
    far = np.abs(x) > 2.0
    scaled = np.abs(u[far]) * np.abs(x[far])
    # 1/r envelope: the scaled magnitude is nearly constant
    assert scaled.std() / scaled.mean() < 1e-2
    # outgoing: phase advances with radius on the positive axis
    right = u[x > 2.0]
    phase = np.unwrap(np.angle(right))
    slope = np.polyfit(x[x > 2.0], phase, 1)[0]
    assert slope == pytest.approx(kappa, rel=0.05)


@pytest.mark.parametrize("dim", (2, 3))
def test_node_at_the_center(dim):
    """A node on the source center (radius 0) is finite and continuous."""
    kappa = 7.0
    grid = make_grid(((-1.0, 1.0),) * dim, (21,) * dim)
    at = radial_solution(grid, (0.0,) * dim, kappa, n_quad=40_000).values
    near = radial_solution(grid, (1e-7,) + (0.0,) * (dim - 1), kappa,
                           n_quad=40_000).values
    assert np.all(np.isfinite(at))
    assert np.abs(at - near).max() / np.abs(near).max() < 1e-5


def test_default_profile_matches_explicit():
    grid = make_grid(((-0.5, 0.5), (-0.5, 0.5)), (41, 41))
    kappa = 7.0
    a = radial_solution(grid, (0.1, 0.0), kappa, n_quad=20_000)
    b = radial_solution(
        grid, (0.1, 0.0), kappa,
        profile=lambda rho: gaussian_profile(rho, kappa, 2), n_quad=20_000,
    )
    np.testing.assert_array_equal(a.values, b.values)

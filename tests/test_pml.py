"""Absorption profile and discrete PML operator assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from diagsweep.errors import ConfigurationError
from diagsweep.grid import Window, make_grid
from diagsweep.media import RasterModel, constant_model, layered_model
from diagsweep.pml import (
    DEFAULT_DAMPING,
    PmlProfile,
    assemble_operator,
    tuned_sigma_max,
)


def _grid2d(n=41, h=0.025):
    return make_grid(((0, h * (n - 1)), (0, h * (n - 1))), (n, n))


def test_profile_ramp_support():
    profile = PmlProfile(8, 4, sigma_max=3.0, exponent=2)
    t = np.linspace(-10.0, 20.0, 301)  # grid points past the box face
    sig = profile.ramp(t, profile.overlap_d_points, profile.pml_width_points)
    # zero through the overlap shift, clamped at sigma_max past the layer
    assert np.all(sig[t <= 4 - 1e-9] == 0.0)
    assert sig[-1] == pytest.approx(3.0)
    assert np.all(np.diff(sig) >= -1e-12)
    mid = profile.ramp(np.array([4 + 0.5 * 8]), 4, 8)
    assert mid[0] == pytest.approx(3.0 * 0.25)


@pytest.mark.parametrize("width, overlap, sigma_max, exponent", (
    (0, 1, 1.0, 2), (5, 0, 1.0, 2), (5, 1, -1.0, 2), (5, 1, 1.0, 0), (5, 1, 1.0, -1),
    (5, 1, float("inf"), 2),
))
def test_profile_rejects_bad_parameters(width, overlap, sigma_max, exponent):
    """0**0 = 1 would absorb on every node, and a negative exponent is
    infinite where the ramp is zero."""
    with pytest.raises(ConfigurationError):
        PmlProfile(width, overlap, sigma_max, exponent)


def test_tuned_sigma_round_trip_damping():
    kappa, width, p = 30.0, 0.2, 2
    sig = tuned_sigma_max(kappa, width, p)
    # analytic two-pass attenuation exponent: 2 kappa sigma_max L / (p+1)
    assert 2 * kappa * sig * width / (p + 1) == pytest.approx(DEFAULT_DAMPING)


def test_sigma_zero_reduces_to_five_point_stencil():
    grid = _grid2d()
    win = grid.full_window()
    profile = PmlProfile(5, 2, sigma_max=0.0)
    kappa = 7.0
    box = Window((5, 5), (35, 35))
    op = assemble_operator(grid, win, box, profile, constant_model(1.0), kappa)
    h = grid.spacing[0]
    rng = np.random.default_rng(0)
    v = rng.normal(size=win.shape) + 1j * rng.normal(size=win.shape)
    got = op.apply(v)
    lap = -4.0 * v.copy()
    lap[1:, :] += v[:-1, :]
    lap[:-1, :] += v[1:, :]
    lap[:, 1:] += v[:, :-1]
    lap[:, :-1] += v[:, 1:]
    want = lap / h**2 + kappa**2 * v
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_apply_matches_sparse_matrix():
    grid = _grid2d(25)
    win = grid.full_window()
    box = Window((6, 6), (18, 18))
    profile = PmlProfile(5, 1, sigma_max=2.0)
    op = assemble_operator(grid, win, box, profile, constant_model(1.0), 5.0)
    rng = np.random.default_rng(3)
    v = rng.normal(size=win.shape) + 1j * rng.normal(size=win.shape)
    got = op.apply(v)
    want = (op.to_sparse() @ v.ravel()).reshape(win.shape)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_apply_matches_per_call_coefficients():
    """The assembled coefficients give bit-identical results to the stencil
    with its coefficients rebuilt from the absorption profile on every call."""
    grid = make_grid(((0, 1), (0, 1.2)), (25, 31))
    win = grid.full_window()
    box = Window((6, 6), (18, 24))
    profile = PmlProfile(5, 1, sigma_max=1.5)
    op = assemble_operator(grid, win, box, profile, layered_model((0.5,), (1.0, 2.0)), 5.0)
    rng = np.random.default_rng(5)
    v = rng.normal(size=win.shape) + 1j * rng.normal(size=win.shape)
    want = np.broadcast_to(op.kappa2, win.shape) * v
    for axis in range(2):
        h = grid.spacing[axis]
        lo, hi = box.lo[axis], box.hi[axis]
        # the overhang past the PML is the zero-sigma shift, one node longer
        # at these interior faces
        shift_lo = lo - win.lo[axis] - profile.pml_width_points + 1
        shift_hi = win.hi[axis] - hi - profile.pml_width_points + 1

        def alpha(t):
            return 1.0 + 1j * (profile.ramp(lo - t, shift_lo, profile.pml_width_points)
                               + profile.ramp(t - hi, shift_hi, profile.pml_width_points))

        nodes = np.arange(win.lo[axis], win.hi[axis] + 1, dtype=float)
        node, face = alpha(nodes), alpha(np.append(nodes - 0.5, nodes[-1] + 0.5))
        c_lo = 1.0 / (node * face[:-1] * h * h)
        c_hi = 1.0 / (node * face[1:] * h * h)
        for got, ref in zip(op.tridiagonal(axis), (c_lo[1:], -(c_lo + c_hi), c_hi[:-1])):
            assert np.array_equal(got, ref)
        shape = [1, 1]
        shape[axis] = -1
        want += (-(c_lo + c_hi)).reshape(shape) * v
        up, down = [slice(None)] * 2, [slice(None)] * 2
        up[axis], down[axis] = slice(1, None), slice(None, -1)
        want[tuple(up)] += c_lo[1:].reshape(shape) * v[tuple(down)]
        want[tuple(down)] += c_hi[:-1].reshape(shape) * v[tuple(up)]
    assert np.array_equal(op.apply(v), want)


def _operator(dim, medium, n=15):
    """An operator on a small full window whose kappa^2 is constant, depth-only
    (length 1 off the last axis) or a full raster."""
    grid = make_grid(((0, 1),) * dim, (n,) * dim)
    raster = np.random.default_rng(8).uniform(1.0, 2.0, (5,) * dim).astype(np.float32)
    model = {
        "constant": constant_model(1.0),
        "layered": layered_model((0.4, 0.7), (1.0, 2.0, 1.5)),
        "raster": RasterModel(((0.0, 1.0),) * dim, raster),
    }[medium]
    box = Window((4,) * dim, (n - 5,) * dim)
    return assemble_operator(grid, grid.full_window(), box, PmlProfile(4, 1, sigma_max=1.5),
                             model, 6.0)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("medium", ("constant", "layered", "raster"))
def test_apply_takes_only_the_whole_window(dim, medium):
    """Naming the window as the region gives the bits of the plain call, and
    any other region, inside the window or shifted off it, is refused."""
    op = _operator(dim, medium)
    rng = np.random.default_rng(9)
    v = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    assert np.array_equal(op.apply(v, region=op.window), op.apply(v))
    inside, shifted = Window((1,) * dim, (12,) * dim), Window((1,) * dim, (15,) * dim)
    assert shifted.shape == op.window.shape
    for region in (inside, shifted):
        with pytest.raises(ConfigurationError, match="whole window"):
            op.apply(np.ones(region.shape, dtype=np.complex128), region=region)


def test_kronecker_sum_structure():
    grid = _grid2d(21)
    win = grid.full_window()
    profile = PmlProfile(4, 1, sigma_max=1.5)
    op = assemble_operator(grid, win, Window((5, 5), (15, 15)), profile,
                           constant_model(1.0), 6.0)
    n = win.shape[0]
    T1, T2 = (
        np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        for lower, diag, upper in map(op.tridiagonal, (0, 1))
    )
    eye = np.eye(n)
    dense = np.kron(T1, eye) + np.kron(eye, T2) + op.kappa2 * np.eye(n * n)
    np.testing.assert_allclose(op.to_sparse().toarray(), dense, atol=1e-12)


def test_interior_face_onset_leaves_transfer_band_unstretched():
    """Neighboring operators agree on all stencil rows through bk..bk+d."""
    grid = make_grid(((0, 1.0), (0, 1.0)), (101, 101))
    pml, d = 10, 4
    profile = PmlProfile(pml, d, sigma_max=2.0)
    from diagsweep.partition import make_partition

    part = make_partition(grid, (2, 2), d, pml)
    bk = part.breaks[0][1]
    win_a, win_b = part.window((1, 1)), part.window((2, 1))
    op_a = assemble_operator(grid, win_a, part.box((1, 1)), profile,
                             constant_model(1.0), 5.0)
    op_b = assemble_operator(grid, win_b, part.box((2, 1)), profile,
                             constant_model(1.0), 5.0)
    # row coefficients on the band rows bk .. bk+d use the row's own node
    # alpha and the faces bk-1/2 .. bk+d+1/2; both operators must sample
    # alpha = 1 there, so that their band rows are the unstretched 1/h^2
    # couplings and identical residual rows on the band
    h = grid.spacing[0]
    band_rows = []
    for op, win in ((op_a, win_a), (op_b, win_b)):
        c_lo, c_hi, _ = op.coefficients[0]
        rows = slice(bk - win.lo[0], bk + d - win.lo[0] + 1)
        np.testing.assert_array_equal(c_lo[rows], 1.0 / (h * h))
        np.testing.assert_array_equal(c_hi[rows], 1.0 / (h * h))
        band_rows.append((c_lo[rows], c_hi[rows]))
    for a, b in zip(*band_rows):
        assert a.shape == (d + 1,) and np.array_equal(a, b)


def test_layered_medium_axis_structure_and_clamping():
    grid = _grid2d(31)
    win = grid.full_window()
    box = Window((8, 8), (22, 22))
    model = layered_model((0.3, 0.5), (1.0, 2.0, 0.5))
    profile = PmlProfile(5, 3, sigma_max=1.0)
    op = assemble_operator(grid, win, box, profile, model, 10.0)
    # kappa^2 varies along the depth axis (axis 1) only
    assert op.kappa2.shape == (1, win.shape[1]) and op.separable
    values = op.kappa2[0]
    # clamped to the box: collar rows repeat the edge-layer speed
    coords = np.clip(grid.axis_coords(1), grid.axis_coords(1)[8],
                     grid.axis_coords(1)[22])
    np.testing.assert_allclose(values, (10.0 / model.speed_of_depth(coords)) ** 2)


def test_fingerprint_distinguishes_operators():
    grid = _grid2d(25)
    win = grid.full_window()
    box = Window((6, 6), (18, 18))
    profile = PmlProfile(5, 1, sigma_max=2.0)
    op1 = assemble_operator(grid, win, box, profile, constant_model(1.0), 5.0)
    op2 = assemble_operator(grid, win, box, profile, constant_model(1.0), 5.0)
    op3 = assemble_operator(grid, win, box, profile, constant_model(1.0), 6.0)
    # the same integer structure and kappa^2, on a finer mesh
    finer = _grid2d(25, h=0.02)
    op4 = assemble_operator(finer, win, box, profile, constant_model(1.0), 5.0)
    assert op4.window == op1.window and np.array_equal(op4.kappa2, op1.kappa2)
    assert op1.fingerprint == op2.fingerprint
    assert op1.fingerprint != op3.fingerprint
    assert op1.fingerprint != op4.fingerprint


def test_window_must_cover_pml():
    grid = _grid2d(25)
    win = grid.full_window()
    profile = PmlProfile(9, 1, sigma_max=1.0)
    with pytest.raises(ConfigurationError):
        assemble_operator(grid, win, Window((2, 2), (22, 22)), profile,
                          constant_model(1.0), 5.0)

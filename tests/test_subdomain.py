"""Direct factorization backends and the fingerprint cache."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import schur

from diagsweep import subdomain
from diagsweep.ddm import build_operators
from diagsweep.errors import ConfigurationError, SolverError
from diagsweep.grid import Window, make_grid
from diagsweep.media import RasterModel, constant_model, layered_model
from diagsweep.partition import make_partition
from diagsweep.pml import PmlProfile, assemble_operator
from diagsweep.subdomain import (
    FactorizationCache,
    SeparableFactorization,
    SparseLuFactorization,
    factorize,
)


def _op(dim=2, n=25, model=None, kappa=9.0):
    counts = (n,) * dim if np.isscalar(n) else n
    grid = make_grid(((0, 1),) * dim, counts)
    win = grid.full_window()
    box = Window((6,) * dim, tuple(c - 7 for c in counts))
    profile = PmlProfile(5, 1, sigma_max=2.0)
    return assemble_operator(grid, win, box, profile,
                             model or constant_model(1.0), kappa)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("backend", (SeparableFactorization, SparseLuFactorization),
                         ids=("separable", "splu"))
def test_round_trip_residual(dim, backend):
    op = _op(dim, 25 if dim == 2 else 21)
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = backend(op).solve(rhs)
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


@pytest.mark.parametrize("dim", (2, 3))
def test_backends_agree(dim):
    op = _op(dim, 23 if dim == 2 else 17, model=layered_model((0.5,), (1.0, 2.0)))
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=op.window.shape) + 0j
    u_sep = SeparableFactorization(op).solve(rhs)
    u_lu = SparseLuFactorization(op).solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9


# distinct node counts and spacings per axis, so that a transform applied
# along the wrong axis fails instead of hiding behind a cube's symmetry
NONCUBIC = (13, 17, 19)
NONCUBIC_MEDIA = pytest.mark.parametrize(
    "model, kappa2_shape",
    ((None, (1, 1, 1)), (layered_model((0.5,), (1.0, 2.0)), (1, 1, NONCUBIC[2]))),
    ids=("const", "layered"),
)


@NONCUBIC_MEDIA
def test_backends_agree_noncubic_3d(model, kappa2_shape):
    op = _op(3, NONCUBIC, model=model)
    assert op.window.shape == NONCUBIC and op.kappa2.shape == kappa2_shape
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u_sep = SeparableFactorization(op).solve(rhs)
    u_lu = SparseLuFactorization(op).solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9


@NONCUBIC_MEDIA
def test_round_trip_residual_noncubic_3d(model, kappa2_shape):
    op = _op(3, NONCUBIC, model=model)
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = SeparableFactorization(op).solve(rhs)
    assert u.shape == NONCUBIC
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


# 2D windows as wide as the 136-141 node subdomains of the benchmark's 4x4
# sweep, distinct per axis; the 2D separable solve sweeps one shifted
# tridiagonal system per Schur column
WIDE_2D = (150, 137)
MEDIA_2D = pytest.mark.parametrize(
    "model", (None, layered_model((0.5,), (1.0, 2.0))), ids=("const", "layered")
)


@MEDIA_2D
def test_separable_wide_2d_window(model):
    op = _op(2, WIDE_2D, model=model)
    assert op.window.shape == WIDE_2D and min(WIDE_2D) >= 136
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u_sep = SeparableFactorization(op).solve(rhs)
    u_lu = SparseLuFactorization(op).solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9
    res = np.linalg.norm(op.apply(u_sep) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def _one_call(A, B, C):
    Y, scale, info = subdomain._trsyl(A, B, C)
    assert info == 0
    return Y / scale


def _two_sided_schur_solve(op, rhs):
    """The 2D solve with both axes triangularized: one triangular Sylvester
    equation between two Schur factors, kappa^2 folded in the same way."""
    T = [op.tridiag_dense(a) for a in range(2)]
    axis = next((a for a, n in enumerate(op.kappa2.shape) if n > 1), 1)
    T[axis][np.diag_indices(len(T[axis]))] += op.kappa2.ravel()
    R1, Q1 = schur(T[0], output="complex")
    R2, Q2 = schur(T[1].T, output="complex")
    Y = _one_call(R1, R2, Q1.conj().T @ rhs @ Q2)
    return Q1 @ Y @ Q2.conj().T


# Two backward-stable solvers agree only to about cond(A) * eps.  The wide
# box at kappa 9 (over 100 nodes per wavelength in a 5-node PML) has a
# 1-norm condition estimate of 4e4, and both kernels differ from splu there
# by 2-5e-12, the two-sided one more.  At kappa 40 (23 nodes per wavelength,
# estimate 9e3) they agree with each other to ~3e-13.
@MEDIA_2D
@pytest.mark.parametrize("counts, kappa", ((25, 9.0), ((23, 31), 9.0), (WIDE_2D, 40.0)),
                         ids=("25", "23x31", "150x137"))
def test_hessenberg_schur_matches_two_sided_schur(model, counts, kappa):
    op = _op(2, counts, model=model, kappa=kappa)
    rng = np.random.default_rng(8)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = SeparableFactorization(op).solve(rhs)
    ref = _two_sided_schur_solve(op, rhs)
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) <= 1e-12


def test_separable_kappa2_along_the_tridiagonal_axis():
    """No medium varies kappa^2 along axis 0, but the kernel folds it into
    that axis's tridiagonal, which stays unfactored; check it against splu."""
    op = _op(2, (23, 31), model=layered_model((0.5,), (1.0, 2.0)))
    op = replace(op, kappa2=op.kappa2.reshape(-1)[:23].reshape(23, 1).copy())
    assert op.separable and op.kappa2.shape == (23, 1)
    rng = np.random.default_rng(9)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u_sep = SeparableFactorization(op).solve(rhs)
    u_lu = SparseLuFactorization(op).solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9
    assert np.linalg.norm(op.apply(u_sep) - rhs) / np.linalg.norm(rhs) < 1e-10


def test_separable_raises_on_singular_shifted_system(monkeypatch):
    fact = SeparableFactorization(_op())
    monkeypatch.setattr(subdomain, "_gtsv",
                        lambda dl, d, du, b, **kw: (dl, d, du, b, 3))
    with pytest.raises(SolverError, match="info=3"):
        fact.solve(np.ones(fact.shape, dtype=np.complex128))


@pytest.mark.parametrize("axis", (0, 1))
def test_separable_one_node_wide_window(axis):
    """A window one node wide has no off-diagonals along that axis.  Along
    the tridiagonal axis 0 f2py's gtsv would reject them, so the separable
    backend refuses such a window as a configuration error; along the Schur
    axis it solves."""
    op = _op(2, (23, 31))
    lo, hi = list(op.window.lo), list(op.window.hi)
    hi[axis] = lo[axis] = 11
    nodes, faces = list(op.alpha_nodes), list(op.alpha_faces)
    nodes[axis], faces[axis] = nodes[axis][11:12], faces[axis][11:13]
    op = replace(op, window=Window(tuple(lo), tuple(hi)),
                 alpha_nodes=nodes, alpha_faces=faces)
    rng = np.random.default_rng(10)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    if axis == 0:
        with pytest.raises(ConfigurationError, match="2 nodes on axis 0"):
            SeparableFactorization(op)
        return
    u = SeparableFactorization(op).solve(rhs)
    ref = np.linalg.solve(op.to_sparse().toarray(), rhs.ravel()).reshape(rhs.shape)
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) < 1e-12


def test_separable_3d_divides_by_the_trsyl_scale(monkeypatch):
    """ztrsyl returns scale < 1 to avoid overflow; a slab solved on that
    scale must be divided back."""
    fact = SeparableFactorization(_op(3, NONCUBIC))
    rng = np.random.default_rng(11)
    rhs = rng.normal(size=fact.shape) + 1j * rng.normal(size=fact.shape)
    ref = fact.solve(rhs)
    trsyl = subdomain._trsyl

    def rescaling(A, B, C):
        Y, scale, info = trsyl(A, B, C)
        assert scale == 1.0 and info == 0
        return 0.5 * Y, 0.5, 0

    monkeypatch.setattr(subdomain, "_trsyl", rescaling)
    assert np.array_equal(fact.solve(rhs), ref)


def test_separable_3d_raises_on_trsyl_error(monkeypatch):
    fact = SeparableFactorization(_op(3, NONCUBIC))
    monkeypatch.setattr(subdomain, "_trsyl", lambda A, B, C: (C, 1.0, -1))
    with pytest.raises(SolverError, match="info=-1"):
        fact.solve(np.ones(fact.shape, dtype=np.complex128))


@pytest.mark.parametrize("dim, n", ((2, 21), (3, 13)))
def test_splu_factors_a_zero_interior_diagonal(dim, n):
    """kappa^2 h^2 = 2 dim cancels the Laplacian's diagonal off the PML, so
    the factorization must pivot off the diagonal there."""
    h = 1.0 / (n - 1)
    op = _op(dim, n, kappa=np.sqrt(2 * dim) / h)
    diag = np.abs(op.to_sparse().diagonal())
    assert np.sum(diag < 1e-12 * diag.max()) >= 3**dim
    rng = np.random.default_rng(4)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = SparseLuFactorization(op).solve(rhs)
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def test_auto_selects_backend():
    sep = factorize(_op())
    assert sep.backend == "separable"
    raster = RasterModel(((0, 1), (0, 1)),
                         np.array([[1.0, 1.2], [1.1, 1.3]], dtype=np.float32))
    lu = factorize(_op(model=raster))
    assert lu.backend == "splu"


def test_separable_rejects_full_kappa():
    raster = RasterModel(((0, 1), (0, 1)),
                         np.array([[1.0, 1.2], [1.1, 1.3]], dtype=np.float32))
    with pytest.raises(ConfigurationError):
        SeparableFactorization(_op(model=raster))


def test_rhs_shape_checked():
    fact = factorize(_op())
    with pytest.raises(ConfigurationError):
        fact.solve(np.zeros((3, 3), dtype=np.complex128))


def test_cache_shares_identical_operators():
    cache = FactorizationCache()
    op1 = _op()
    op2 = _op()  # identical assembly
    op3 = _op(kappa=11.0)
    f1 = cache.get(op1)
    assert cache.get(op2) is f1
    assert cache.get(op3) is not f1
    assert cache.count == 2
    assert cache.hits == 1 and cache.misses == 2
    assert cache.total_bytes > 0


def _partition_operators(counts, model, cells=40, pml=4, overlap=2):
    dim = len(counts)
    h = 1.0 / cells
    grid = make_grid([(-pml * h, 1.0 + pml * h)] * dim, [cells + 2 * pml + 1] * dim)
    partition = make_partition(grid, counts, overlap, pml)
    profile = PmlProfile(pml, overlap, sigma_max=2.0)
    return build_operators(partition, profile, model, 9.0)


RASTER = RasterModel(((0, 1), (0, 1)),
                     np.random.default_rng(6).uniform(1.0, 3.0, (9, 9)).astype(np.float32))


@pytest.mark.parametrize("counts, model, count", (
    ((4, 4), constant_model(1.0), 9),
    ((5, 5), constant_model(1.0), 9),
    ((4, 4, 4), constant_model(1.0), 27),
    ((4, 4), layered_model((0.3, 0.6), (1.0, 2.0, 1.5)), 12),
    ((4, 4), RASTER, 16),
), ids=("const-4x4", "const-5x5", "const-4x4x4", "layered-4x4", "raster-4x4"))
def test_cache_shares_structurally_identical_subdomains(counts, model, count):
    """Constant media need 3 distinct operators per axis (first, interior,
    last); layered media 3 per axis across depth and one per depth row."""
    cache = FactorizationCache()
    for op in _partition_operators(counts, model).values():
        cache.get(op)
    assert cache.count == count


def test_splu_fill_below_colamd():
    """The symmetric-mode ordering keeps raster subdomain fill well below a
    COLAMD column ordering of the same matrices."""
    ops = _partition_operators((4, 4), RASTER).values()
    fill = sum(SparseLuFactorization(op).factor_nnz for op in ops)
    reference = 0
    for op in ops:
        lu = spla.splu(op.to_sparse().tocsc(), permc_spec="COLAMD")
        reference += lu.L.nnz + lu.U.nnz
    assert fill <= 0.75 * reference

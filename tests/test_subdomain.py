"""Direct factorization backends and the fingerprint cache."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diagsweep import subdomain
from diagsweep.ddm import build_operators
from diagsweep.errors import ConfigurationError, SolverError
from diagsweep.grid import Window, make_grid
from diagsweep.media import RasterModel, constant_model, layered_model
from diagsweep.partition import make_partition
from diagsweep.pml import PmlProfile, assemble_operator
from diagsweep.subdomain import FactorizationCache, factorize


def _op(dim=2, n=25, model=None, kappa=9.0):
    counts = (n,) * dim if np.isscalar(n) else n
    grid = make_grid(((0, 1),) * dim, counts)
    win = grid.full_window()
    box = Window((6,) * dim, tuple(c - 7 for c in counts))
    profile = PmlProfile(5, 1, sigma_max=2.0)
    return assemble_operator(grid, win, box, profile,
                             model or constant_model(1.0), kappa)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("method", ("separable", "splu"))
def test_round_trip_residual(dim, method):
    op = _op(dim, 25 if dim == 2 else 21)
    rng = np.random.default_rng(0)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = factorize(op, method).solve(rhs)
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


@pytest.mark.parametrize("dim", (2, 3))
def test_backends_agree(dim):
    op = _op(dim, 23 if dim == 2 else 17, model=layered_model((0.5,), (1.0, 2.0)))
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=op.window.shape) + 0j
    u_sep = factorize(op, "separable").solve(rhs)
    u_lu = factorize(op, "splu").solve(rhs)
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
    u_sep = factorize(op, "separable").solve(rhs)
    u_lu = factorize(op, "splu").solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9


@NONCUBIC_MEDIA
def test_round_trip_residual_noncubic_3d(model, kappa2_shape):
    op = _op(3, NONCUBIC, model=model)
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u = factorize(op, "separable").solve(rhs)
    assert u.shape == NONCUBIC
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


# 2D windows longer than the Sylvester leaf on both sides, so the separable
# solve goes through the recursive blocking along rows and columns
WIDE_2D = (150, 137)


@pytest.mark.parametrize("model", (None, layered_model((0.5,), (1.0, 2.0))),
                         ids=("const", "layered"))
def test_separable_above_the_sylvester_block(model):
    op = _op(2, WIDE_2D, model=model)
    assert min(op.window.shape) > subdomain._BLOCK
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=op.window.shape) + 1j * rng.normal(size=op.window.shape)
    u_sep = factorize(op, "separable").solve(rhs)
    u_lu = factorize(op, "splu").solve(rhs)
    assert np.linalg.norm(u_sep - u_lu) / np.linalg.norm(u_lu) < 1e-9
    res = np.linalg.norm(op.apply(u_sep) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def _sylvester_problem(m, n, seed=0):
    """Seeded complex upper-triangular A (m x m), B (n x n) and C (m x n).
    Diagonals have real part in [1, 2] and off-diagonals are O(1/side), so
    the equation is well conditioned."""
    rng = np.random.default_rng([seed, m, n])

    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def triangular(k):
        T = np.triu(complex_normal(k, k)) / k
        T[np.diag_indices(k)] = rng.uniform(1, 2, k) + 1j * rng.normal(size=k)
        return T

    return triangular(m), triangular(n), complex_normal(m, n)


def _one_call(A, B, C):
    Y, scale, info = subdomain._trsyl(A, B, C)
    assert info == 0
    return Y / scale


SYLVESTER_SHAPES = ((1, 1), (64, 64), (65, 64), (64, 65), (136, 141), (141, 136),
                    (3, 200))


@pytest.mark.parametrize("m, n", SYLVESTER_SHAPES)
def test_sylvester_matches_one_trsyl_call(m, n):
    A, B, C = _sylvester_problem(m, n)
    X = subdomain._sylvester(A, B, C)
    ref = _one_call(A, B, C)
    assert np.linalg.norm(X - ref) / np.linalg.norm(ref) <= 1e-13
    assert np.linalg.norm(A @ X + X @ B - C) / np.linalg.norm(C) <= 1e-13
    if max(m, n) <= subdomain._BLOCK:
        # one leaf is the whole solve, so 3D slabs this size are unchanged
        assert np.array_equal(X, ref)


def test_sylvester_falls_back_to_one_call_when_a_leaf_rescales(monkeypatch):
    """ztrsyl returns scale < 1 to avoid overflow; the blocks of a recursive
    solve would then be on different scales, so the whole equation is solved
    in one call instead."""
    A, B, C = _sylvester_problem(136, 141)
    trsyl = subdomain._trsyl
    shapes = []

    def rescaling_leaves(A, B, C):
        shapes.append(C.shape)
        Y, scale, info = trsyl(A, B, C)
        if C.shape != (136, 141):
            return 0.5 * Y, 0.5, info
        return Y, scale, info

    monkeypatch.setattr(subdomain, "_trsyl", rescaling_leaves)
    X = subdomain._sylvester(A, B, C)
    assert shapes[0] != (136, 141) and shapes[-1] == (136, 141)
    monkeypatch.undo()
    assert np.array_equal(X, _one_call(A, B, C))


@pytest.mark.parametrize("m, n", ((3, 3), (136, 141)))
def test_sylvester_raises_on_trsyl_error(monkeypatch, m, n):
    monkeypatch.setattr(subdomain, "_trsyl", lambda A, B, C: (C, 1.0, -1))
    with pytest.raises(SolverError, match="info=-1"):
        subdomain._sylvester(*_sylvester_problem(m, n))


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
    u = factorize(op, "splu").solve(rhs)
    res = np.linalg.norm(op.apply(u) - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


def test_auto_selects_backend():
    sep = factorize(_op(), "auto")
    assert sep.backend == "separable"
    raster = RasterModel(((0, 1), (0, 1)),
                         np.array([[1.0, 1.2], [1.1, 1.3]], dtype=np.float32))
    lu = factorize(_op(model=raster), "auto")
    assert lu.backend == "splu"


def test_separable_rejects_full_kappa():
    raster = RasterModel(((0, 1), (0, 1)),
                         np.array([[1.0, 1.2], [1.1, 1.3]], dtype=np.float32))
    with pytest.raises(ConfigurationError):
        factorize(_op(model=raster), "separable")


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
    fill = sum(factorize(op, "splu").factor_nnz for op in ops)
    reference = 0
    for op in ops:
        lu = spla.splu(op.to_sparse().tocsc(), permc_spec="COLAMD")
        reference += lu.L.nnz + lu.U.nnz
    assert fill <= 0.75 * reference

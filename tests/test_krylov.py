"""Right-preconditioned restarted GMRES."""

import numpy as np
import pytest

from diagsweep.errors import ConfigurationError, SolverError
from diagsweep.krylov import gmres


def _dense_system(n=30, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 5 * np.eye(n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    return A, b


def test_matches_dense_lu():
    A, b = _dense_system()
    x_ref = np.linalg.solve(A, b)
    x, report = gmres(lambda v: A @ v, lambda v: v, b, tol=1e-10, restart=40)
    assert report.converged
    assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    # reported residual is the true residual
    true = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert report.residuals[-1] == pytest.approx(true, abs=1e-13)


def test_exact_preconditioner_one_iteration():
    A, b = _dense_system(seed=2)
    A_inv = np.linalg.inv(A)
    x, report = gmres(lambda v: A @ v, lambda v: A_inv @ v, b, tol=1e-8)
    assert report.converged and report.n_iter == 1


def test_restart_cycles_still_converge():
    A, b = _dense_system(n=40, seed=3)
    A += 15 * np.eye(40)  # strong shift so short restart cycles converge
    x, report = gmres(lambda v: A @ v, lambda v: v, b, tol=1e-8, restart=7,
                      max_iter=400)
    assert report.converged
    assert report.n_iter > 7  # more than one cycle was needed
    assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-8


def test_identity_and_aliasing_operators():
    _, b = _dense_system(seed=4)
    # operators that return their argument unchanged must not corrupt the basis
    x, report = gmres(lambda v: v, lambda v: v, b, tol=1e-12)
    assert report.n_iter == 1 and np.allclose(x, b)


def test_residual_history_is_the_krylov_minimum():
    """Within one cycle, residual k is min_y |b - A M^-1 Q_k y| / |b| over
    an orthonormal basis Q_k of the k-dimensional Krylov space of A M^-1."""
    n = 40
    rng = np.random.default_rng(7)
    A = (np.diag(2 + rng.uniform(size=n) + 1j * rng.uniform(size=n))
         + np.diag(3 * np.ones(n - 1), 1)  # strongly non-normal
         + 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    m = 1 + rng.uniform(size=n)
    AM = A / m  # A M^-1 with M = diag(m)
    _, report = gmres(lambda v: A @ v, lambda v: v / m, b, tol=1e-10, restart=n,
                      max_iter=n)
    assert report.n_iter > 30  # one cycle (restart = max_iter), slow to converge
    Q = (b / np.linalg.norm(b))[:, None]
    for k, residual in enumerate(report.residuals[1:], start=1):
        y = np.linalg.lstsq(AM @ Q, b, rcond=None)[0]
        minimum = np.linalg.norm(b - AM @ Q @ y) / np.linalg.norm(b)
        assert residual == pytest.approx(minimum, abs=1e-9)
        Q = np.linalg.qr(np.column_stack([Q, AM @ Q[:, -1]]))[0]


def test_singular_preconditioner_raises():
    """A zero preconditioner makes A M^-1 singular on the Krylov space: a
    breakdown, not a zero residual."""
    A, b = _dense_system(n=40, seed=8)
    with pytest.raises(SolverError, match="singular on the Krylov space"):
        gmres(lambda v: A @ v, lambda v: np.zeros_like(v), b, tol=1e-8)


def test_cycle_no_longer_than_the_system():
    """A restart above the number of unknowns allocates no larger basis: the
    Krylov space of 4 unknowns has at most 4 vectors."""
    A, b = _dense_system(n=4, seed=8)
    x_ref, ref = gmres(lambda v: A @ v, lambda v: v, b, restart=4, max_iter=10**15)
    x, report = gmres(lambda v: A @ v, lambda v: v, b, restart=10**15, max_iter=10**15)
    assert report.converged
    assert np.array_equal(x, x_ref) and report.residuals == ref.residuals


def test_zero_rhs():
    x, report = gmres(lambda v: v, lambda v: v, np.zeros(8))
    assert report.converged and np.all(x == 0)


def test_nonconvergence_reported():
    A, b = _dense_system(n=25, seed=5)
    x, report = gmres(lambda v: A @ v, lambda v: v, b, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.n_iter == 3


def test_shape_preserved_and_csv():
    A, b = _dense_system(n=36, seed=6)
    b2 = b.reshape(6, 6)
    x, report = gmres(lambda v: (A @ v.ravel()).reshape(6, 6), lambda v: v, b2,
                      tol=1e-8)
    assert x.shape == (6, 6)


@pytest.mark.parametrize("settings", (
    {"restart": 0}, {"max_iter": 0}, {"tol": float("nan")}, {"tol": 0.0},
), ids=("restart", "max_iter", "tol-nan", "tol-zero"))
def test_bad_settings_raise(settings):
    with pytest.raises(ConfigurationError):
        gmres(lambda v: v, lambda v: v, np.ones(4), **settings)

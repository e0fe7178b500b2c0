"""Right-preconditioned restarted GMRES for the global discrete system.

The solver iterates on A M^-1 y = b with x = M^-1 y recovered at the end of
each cycle, so the reported residual is the true residual of A x = b and the
stopping tolerance is meaningful.  Arnoldi orthogonalizes each new vector by
classical Gram-Schmidt applied twice; LAPACK Givens rotations (zlartg) reduce
the Hessenberg columns to an upper-triangular R, and each cycle ends with one
triangular solve.  The initial guess is zero.  A zero diagonal of R means
A M^-1 is singular on the Krylov space and raises `SolverError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

from .errors import ConfigurationError, SolverError

_lartg = get_lapack_funcs("lartg", dtype=np.complex128)


@dataclass
class SolveReport:
    """Convergence record of one GMRES solve."""

    n_iter: int = 0
    converged: bool = False
    residuals: list = field(default_factory=list)  # relative; true at each cycle's end
    times: list = field(default_factory=list)  # cumulative seconds
    precond_times: list = field(default_factory=list)


def gmres(
    apply_A,
    apply_M,
    b: np.ndarray,
    tol: float = 1e-6,
    restart: int = 30,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Solve A x = b with right preconditioner M^-1 (apply_M(v) = M^-1 v).

    Returns the best iterate and its report; `converged` is False when the
    tolerance was not reached within `max_iter` total iterations.
    """
    if not (restart >= 1 and max_iter >= 1 and np.isfinite(tol) and tol > 0):
        raise ConfigurationError(
            "gmres needs restart >= 1, max_iter >= 1 and a finite tol > 0, got "
            f"restart={restart}, max_iter={max_iter}, tol={tol}"
        )
    t0 = time.perf_counter()
    report = SolveReport()
    shape = b.shape
    b = np.asarray(b, dtype=np.complex128).ravel()
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        report.converged = True
        report.residuals.append(0.0)
        report.times.append(time.perf_counter() - t0)
        return x.reshape(shape), report

    def mat(v):
        return np.asarray(apply_A(v.reshape(shape)), dtype=np.complex128).ravel()

    def prec(v):
        tp = time.perf_counter()
        out = np.asarray(apply_M(v.reshape(shape)), dtype=np.complex128).ravel()
        report.precond_times.append(time.perf_counter() - tp)
        return out

    residual = norm_b
    report.residuals.append(1.0)
    report.times.append(time.perf_counter() - t0)
    while report.n_iter < max_iter and residual / norm_b > tol:
        r = b - mat(x)
        m = min(restart, max_iter - report.n_iter, b.size)  # no Krylov space is larger
        V = np.zeros((m + 1, b.size), dtype=np.complex128)
        Z = np.zeros((m, b.size), dtype=np.complex128)
        R = np.zeros((m, m), dtype=np.complex128)
        g = np.zeros(m + 1, dtype=np.complex128)
        g[0] = np.linalg.norm(r)
        V[0] = r / g[0]
        rotations = []
        for k in range(m):
            Z[k] = prec(V[k])
            w = mat(Z[k])
            if np.shares_memory(w, Z[k]):  # operator returned its input
                w = w.copy()
            h = np.zeros(k + 2, dtype=np.complex128)
            for _ in range(2):  # classical Gram-Schmidt, applied twice
                c = (V[: k + 1] @ w.conj()).conj()  # V^H w, without copying V
                w -= c @ V[: k + 1]
                h[: k + 1] += c
            norm_w = h[k + 1] = np.linalg.norm(w)
            for i, (cs, sn) in enumerate(rotations):
                h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - np.conj(sn) * h[i]
            cs, sn, R[k, k] = _lartg(h[k], h[k + 1])
            if R[k, k] == 0.0:  # a lucky breakdown (norm_w == 0) keeps R[k, k] != 0
                raise SolverError(
                    f"GMRES breakdown at iteration {report.n_iter + 1}: A M^-1 is "
                    "singular on the Krylov space"
                )
            rotations.append((cs, sn))
            R[:k, k] = h[:k]
            g[k], g[k + 1] = cs * g[k], -np.conj(sn) * g[k]
            report.n_iter += 1
            residual = abs(g[k + 1])
            report.residuals.append(residual / norm_b)
            report.times.append(time.perf_counter() - t0)
            if residual / norm_b <= tol or norm_w == 0.0:
                break
            V[k + 1] = w / norm_w
        y = solve_triangular(R[: k + 1, : k + 1], g[: k + 1])
        x = x + Z[: k + 1].T @ y
        residual = np.linalg.norm(b - mat(x))
        report.residuals[-1] = residual / norm_b
    report.converged = bool(residual / norm_b <= tol)
    return x.reshape(shape), report

"""Right-preconditioned restarted GMRES for the global discrete system.

The solver iterates on A M^-1 y = b with x = M^-1 y recovered at the end of
each cycle, so the reported residual is the true residual of A x = b and the
stopping tolerance is meaningful.  Arnoldi uses modified Gram-Schmidt with a
single reorthogonalization pass on demand; the least-squares problem is
updated with Givens rotations.  The initial guess is zero.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass
class SolveReport:
    """Convergence record of one GMRES solve."""

    n_iter: int = 0
    converged: bool = False
    residuals: list = field(default_factory=list)  # true relative residual
    times: list = field(default_factory=list)  # cumulative seconds
    precond_times: list = field(default_factory=list)

    def write_residual_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["iteration", "relative_residual", "cumulative_seconds"])
            for k, (res, t) in enumerate(zip(self.residuals, self.times)):
                writer.writerow([k, f"{res:.6e}", f"{t:.6f}"])


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
    total = 0
    while total < max_iter and residual / norm_b > tol:
        r = b - mat(x)
        beta = np.linalg.norm(r)
        m = min(restart, max_iter - total)
        V = np.zeros((m + 1, b.size), dtype=np.complex128)
        Z = np.zeros((m, b.size), dtype=np.complex128)
        H = np.zeros((m + 1, m), dtype=np.complex128)
        cs = np.zeros(m, dtype=np.complex128)
        sn = np.zeros(m, dtype=np.complex128)
        g = np.zeros(m + 1, dtype=np.complex128)
        g[0] = beta
        V[0] = r / beta
        k_done = 0
        for k in range(m):
            Z[k] = prec(V[k])
            w = mat(Z[k])
            if np.shares_memory(w, Z[k]):  # operator returned its input
                w = w.copy()
            norm_w0 = np.linalg.norm(w)
            for i in range(k + 1):
                H[i, k] = np.vdot(V[i], w)
                w -= H[i, k] * V[i]
            if np.linalg.norm(w) < 0.5 * norm_w0:  # reorthogonalize on demand
                for i in range(k + 1):
                    c = np.vdot(V[i], w)
                    H[i, k] += c
                    w -= c * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            for i in range(k):  # apply stored rotations
                hi = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -np.conj(sn[i]) * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = hi
            denom = np.hypot(abs(H[k, k]), abs(H[k + 1, k]))
            if denom == 0.0:
                k_done = k + 1
                break
            if H[k, k] == 0:
                cs[k] = 0.0
                sn[k] = np.conj(H[k + 1, k]) / abs(H[k + 1, k])
            else:
                cs[k] = abs(H[k, k]) / denom
                sn[k] = (H[k, k] / abs(H[k, k])) * np.conj(H[k + 1, k]) / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            norm_w = H[k + 1, k].real
            H[k + 1, k] = 0.0
            g[k + 1] = -np.conj(sn[k]) * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total += 1
            residual = abs(g[k + 1])
            report.n_iter = total
            report.residuals.append(residual / norm_b)
            report.times.append(time.perf_counter() - t0)
            if residual / norm_b <= tol or norm_w == 0.0:
                break
            V[k + 1] = w / norm_w
        if k_done:
            y = np.linalg.solve(
                np.triu(H[:k_done, :k_done]), g[:k_done]
            )
            x = x + Z[:k_done].T @ y
        true_res = np.linalg.norm(b - mat(x))
        residual = true_res
        report.residuals[-1] = true_res / norm_b
        if k_done == 0:
            break
    report.converged = bool(residual / norm_b <= tol)
    return x.reshape(shape), report

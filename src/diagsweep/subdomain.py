"""Cached direct factorizations of subdomain PML operators.

Two backends are provided behind one interface:

* separable: for constant or depth-layered media the discrete operator is an
  exact Kronecker sum of per-axis tridiagonals, so a Schur (unitary
  triangularization) factorization of the small 1D matrices gives a fast
  direct solver.  2D solves reduce to one triangular Sylvester equation
  (LAPACK ztrsyl).  3D solves triangularize all three axes and peel the
  middle one slab by slab, each slab again a ztrsyl solve in the first and
  last axes; as in 2D, kappa^2 folds into the transposed last-axis factor.
  Every axis transform is a GEMM.  All transforms are unitary and all
  solves triangular, so the method is backward stable.

* splu: general sparse LU (SuperLU) on the full window matrix, used whenever
  kappa^2 is not tensor-structured (raster media).

Factorizations are cached by operator fingerprint so identical subdomains
share one factorization across sweeps, iterations and right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs, schur

from .errors import ConfigurationError, SolverError
from .pml import DiscreteOperator

_trsyl = get_lapack_funcs(("trsyl",), (np.zeros((1, 1), np.complex128),))[0]


def _sylvester(A, B, C):
    """Solve A X + X B = C with A, B upper triangular."""
    Y, scale, info = _trsyl(A, B, C)
    if info < 0:
        raise SolverError(f"trsyl failed with info={info}")
    return Y / scale


class SeparableFactorization:
    """Schur-based fast direct solver for Kronecker-sum operators."""

    backend = "separable"

    def __init__(self, op: DiscreteOperator):
        if not op.separable:
            raise ConfigurationError("operator kappa^2 is not tensor-structured")
        self.window = op.window
        self.shape = op.window.shape
        dim = op.dim
        T = [op.tridiag_dense(a) for a in range(dim)]
        if op.kappa2_kind == "axis":
            axis, values = op.kappa2
            T[axis] += np.diag(values.astype(np.complex128))
            k2 = 0.0
        else:
            k2 = complex(op.kappa2)
        last = dim - 1
        # the kappa^2 constant folds into the transposed last-axis factor
        B_last = T[last].T + k2 * np.eye(self.shape[last], dtype=np.complex128)
        self._R1, self._Q1 = schur(T[0], output="complex")
        self._R2, self._Q2 = schur(B_last, output="complex")
        if dim == 3:
            self._R3, self._Q3 = schur(T[1], output="complex")
        self._dim = dim
        self.factor_bytes = sum(
            getattr(self, name).nbytes
            for name in ("_R1", "_Q1", "_R2", "_Q2")
        ) + (self._R3.nbytes + self._Q3.nbytes if dim == 3 else 0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != self.shape:
            raise ConfigurationError(
                f"rhs shape {rhs.shape} does not match window {self.shape}"
            )
        if self._dim == 2:
            C = self._Q1.conj().T @ rhs @ self._Q2
            Y = _sylvester(self._R1, self._R2, C)
            return np.ascontiguousarray(self._Q1 @ Y @ self._Q2.conj().T)
        return self._solve3d(rhs)

    def _solve3d(self, rhs: np.ndarray) -> np.ndarray:
        Q1, R1 = self._Q1, self._R1
        Q2, R2 = self._Q2, self._R2  # transposed last-axis factor
        Q3, R3 = self._Q3, self._R3  # middle axis, peeled slab by slab
        n1, m, n3 = self.shape
        C = (Q1.conj().T @ rhs.reshape(n1, m * n3)).reshape(n1 * m, n3)
        C = (C @ Q2).reshape(n1, m, n3)
        C = np.matmul(Q3.conj().T, C)
        Y = np.empty_like(C)
        eye = np.eye(n1, dtype=np.complex128)
        for s in range(m - 1, -1, -1):
            rhs_s = C[:, s, :]
            if s < m - 1:
                rhs_s = rhs_s - np.tensordot(
                    Y[:, s + 1 :, :], R3[s, s + 1 :], axes=([1], [0])
                )
            Y[:, s, :] = _sylvester(R1 + R3[s, s] * eye, R2, rhs_s)
        out = np.matmul(Q3, Y).reshape(n1 * m, n3) @ Q2.conj().T
        return (Q1 @ out.reshape(n1, m * n3)).reshape(self.shape)


class SparseLuFactorization:
    """SuperLU factorization of the full window matrix."""

    backend = "splu"

    def __init__(self, op: DiscreteOperator):
        self.window = op.window
        self.shape = op.window.shape
        matrix = op.to_sparse().tocsc()
        self.matrix_nnz = matrix.nnz
        spec = "COLAMD" if op.dim == 2 else "MMD_AT_PLUS_A"
        try:
            self._lu = spla.splu(matrix, permc_spec=spec)
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}") from exc
        self.factor_nnz = self._lu.L.nnz + self._lu.U.nnz
        self.factor_bytes = self.factor_nnz * 16

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != self.shape:
            raise ConfigurationError(
                f"rhs shape {rhs.shape} does not match window {self.shape}"
            )
        out = self._lu.solve(rhs.ravel().astype(np.complex128))
        return out.reshape(self.shape)


Factorization = SeparableFactorization | SparseLuFactorization


def factorize(op: DiscreteOperator, method: str = "auto") -> Factorization:
    if method == "auto":
        method = "separable" if op.separable else "splu"
    if method == "separable":
        return SeparableFactorization(op)
    if method == "splu":
        return SparseLuFactorization(op)
    raise ConfigurationError(f"unknown factorization method {method!r}")


@dataclass
class FactorizationCache:
    """Shares factorizations between subdomains with identical operators."""

    method: str = "auto"
    _store: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, op: DiscreteOperator) -> Factorization:
        key = op.fingerprint
        fact = self._store.get(key)
        if fact is None:
            fact = factorize(op, self.method)
            self._store[key] = fact
            self.misses += 1
        else:
            self.hits += 1
        return fact

    @property
    def count(self) -> int:
        return len(self._store)

    @property
    def total_bytes(self) -> int:
        return sum(f.factor_bytes for f in self._store.values())

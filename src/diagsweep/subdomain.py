"""Cached direct factorizations of subdomain PML operators.

Two backends are provided behind one interface:

* separable: for constant or depth-layered media the discrete operator is an
  exact Kronecker sum of per-axis tridiagonals, so a Schur (unitary
  triangularization) factorization of the small 1D matrices gives a fast
  direct solver.  2D solves reduce to one triangular Sylvester equation,
  solved recursively (RECSY, Jonsson & Kagstrom 2002): the longer side is
  halved, one half solved, the other updated by one GEMM, down to LAPACK
  ztrsyl leaves of at most 64 a side.  If a leaf rescales against overflow,
  the whole equation is solved by one ztrsyl call instead.  3D solves
  triangularize all three axes and peel the middle one slab by slab, each
  slab again a triangular Sylvester solve in the first and last axes (one
  leaf when both are at most 64); the peeled axis leads in memory, so each
  slab is the Fortran-ordered block ztrsyl reads.  kappa^2 varies along at
  most one axis and folds into that axis's factor (the last one when
  kappa^2 is constant); the last-axis factor is transposed.  Every axis
  transform is a GEMM.  All transforms are unitary and all solves
  triangular, so the method is backward stable.

* splu: general sparse LU (SuperLU) on the full window matrix, used whenever
  kappa^2 varies along more than one axis (raster media).  The stencil is
  structurally symmetric, so SuperLU runs in its symmetric mode: a
  minimum-degree ordering of A^T + A, applied to rows and columns alike, with
  threshold pivoting that keeps the diagonal unless it is below 0.1 of the
  column's largest entry.  That pattern-based ordering depends only on the
  stencil graph, so the same setting serves 2D and 3D windows; the threshold
  still moves off a weak or zero diagonal (kappa^2 h^2 = 2 dim cancels the
  interior diagonal exactly).

Factorizations are cached by operator fingerprint.  Operators are exact
functions of their integer structure, so structurally identical subdomains
share one factorization across sweeps, iterations and right-hand sides: a
constant medium on N^dim equal boxes needs 3^dim (first, interior or last
along each axis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs, schur

from .errors import ConfigurationError, SolverError
from .pml import DiscreteOperator

_trsyl = get_lapack_funcs(("trsyl",), (np.zeros((1, 1), np.complex128),))[0]
# largest side of a ztrsyl leaf in the recursive Sylvester solve
_BLOCK = 64


def _leaf(A, B, C):
    """One checked ztrsyl call: (Y, scale) with A Y + Y B = scale * C."""
    Y, scale, info = _trsyl(A, B, C)
    if info < 0:
        raise SolverError(f"trsyl failed with info={info}")
    return Y, scale


def _sylvester(A, B, C):
    """Solve A X + X B = C with A, B upper triangular.

    Sides longer than `_BLOCK` are split recursively (RECSY), so most of the
    work is GEMM.  If a leaf rescales against overflow, the whole equation
    is solved in one ztrsyl call instead.
    """
    if max(C.shape) > _BLOCK:
        X = np.empty(C.shape, dtype=np.complex128)
        if _recurse(A, B, C, X):
            return X
    Y, scale = _leaf(A, B, C)
    return Y / scale


def _recurse(A, B, C, X):
    """Fill X block by block; False as soon as a leaf reports a rescale."""
    m, n = C.shape
    if max(m, n) <= _BLOCK:
        X[...], scale = _leaf(A, B, C)
        return scale == 1.0
    if m >= n:  # split rows: the trailing block does not see the leading one
        k = m // 2
        return _recurse(A[k:, k:], B, C[k:], X[k:]) and _recurse(
            A[:k, :k], B, C[:k] - A[:k, k:] @ X[k:], X[:k]
        )
    k = n // 2  # split columns: the leading block does not see the trailing one
    return _recurse(A, B[:k, :k], C[:, :k], X[:, :k]) and _recurse(
        A, B[k:, k:], C[:, k:] - X[:, :k] @ B[:k, k:], X[:, k:]
    )


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
        # kappa^2 joins the diagonal of the axis along which it varies, or of
        # the last axis when it is constant; the last-axis factor is transposed
        axis = next((a for a, n in enumerate(op.kappa2.shape) if n > 1), dim - 1)
        diag = np.arange(self.shape[axis])
        T[axis][diag, diag] += op.kappa2.ravel()
        self._R1, self._Q1 = schur(T[0], output="complex")
        self._R2, self._Q2 = schur(T[-1].T, output="complex")
        if dim == 3:
            self._R3, self._Q3 = schur(T[1], output="complex")
        self._dim = dim
        self.factor_bytes = sum(
            a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray)
        )

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
        # transformed data is held as (m, n3, n1), C-ordered: the peeled axis
        # leads, so each slab is contiguous, its transpose is the
        # Fortran-ordered (n1, n3) block trsyl wants, and the update from the
        # later slabs is one matrix-vector product.  The Schur factors and
        # `eye` are Fortran-ordered too, so trsyl reorders no argument
        C = rhs.reshape(n1, m * n3).T @ Q1.conj()
        C = np.matmul(Q2.T, C.reshape(m, n3, n1))
        C = (Q3.conj().T @ C.reshape(m, n3 * n1)).reshape(m, n3, n1)
        Y = np.empty_like(C)
        flat = Y.reshape(m, n3 * n1)
        eye = np.eye(n1, dtype=np.complex128, order="F")
        for s in range(m - 1, -1, -1):
            rhs_s = C[s]
            if s < m - 1:
                rhs_s = rhs_s - (R3[s, s + 1 :] @ flat[s + 1 :]).reshape(n3, n1)
            Y[s] = _sylvester(R1 + R3[s, s] * eye, R2, rhs_s.T).T
        out = np.matmul(Q2.conj(), (Q3 @ flat).reshape(m, n3, n1))
        return (Q1 @ out.reshape(m * n3, n1).T).reshape(self.shape)


class SparseLuFactorization:
    """SuperLU factorization of the full window matrix."""

    backend = "splu"

    def __init__(self, op: DiscreteOperator):
        self.window = op.window
        self.shape = op.window.shape
        matrix = op.to_sparse().tocsc()
        self.matrix_nnz = matrix.nnz
        try:
            self._lu = spla.splu(
                matrix,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.1,
                options={"SymmetricMode": True},
            )
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

    _store: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, op: DiscreteOperator) -> Factorization:
        key = op.fingerprint
        fact = self._store.get(key)
        if fact is None:
            fact = factorize(op)
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

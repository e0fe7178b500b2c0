"""Cached direct factorizations of subdomain PML operators.

Two backends are provided behind one interface:

* separable: for constant or depth-layered media the discrete operator is an
  exact Kronecker sum of per-axis tridiagonals, so a Schur (unitary
  triangularization) factorization of the small 1D matrices gives a fast
  direct solver.  kappa^2 varies along at most one axis and folds into that
  axis's tridiagonal (the last one when kappa^2 is constant).  2D solves are
  Hessenberg-Schur (Golub, Nash & Van Loan 1979): only the last axis is
  triangularized (its transposed tridiagonal), and axis 0 stays tridiagonal,
  so after one GEMM the solve is a forward sweep over the Schur columns, each
  one shifted tridiagonal system solved by LAPACK zgtsv (Gaussian elimination
  with partial pivoting), then one GEMM back.  3D solves triangularize all
  three axes and peel the middle one slab by slab, each slab a triangular
  Sylvester equation in the first and last axes, solved by one LAPACK ztrsyl
  call (divided by the scale ztrsyl returns against overflow).  The peeled
  axis leads in memory, so each slab is the Fortran-ordered block ztrsyl
  reads.  Every axis transform is a GEMM.  All transforms are unitary and
  all solves triangular or partially pivoted tridiagonal, so the method is
  backward stable.

* splu: general sparse LU (SuperLU) on the full window matrix, used whenever
  kappa^2 varies along more than one axis (raster media).  The stencil is
  structurally symmetric, so SuperLU runs in its symmetric mode: a
  minimum-degree ordering of A^T + A, applied to rows and columns alike, with
  threshold pivoting that keeps the diagonal unless it is below 0.1 of the
  column's largest entry.  That pattern-based ordering depends only on the
  stencil graph, so the same setting serves 2D and 3D windows; the threshold
  still moves off a weak or zero diagonal (kappa^2 h^2 = 2 dim cancels the
  interior diagonal exactly).  Each factorization holds the factors once, in
  SuperLU's supernodal store: `factor_nnz` counts the entries that store
  keeps (`SuperLU.nnz`, which on a general matrix can exceed the nonzeros of
  CSC copies of L and U), and `factor_bytes` is 16 bytes per entry, values
  only.

Factorizations are cached by operator fingerprint.  Operators are exact
functions of their integer structure, so structurally identical subdomains
share one factorization across sweeps, iterations and right-hand sides: a
constant medium on N^dim equal boxes needs 3^dim (first, interior or last
along each axis).  Each cache also keeps a table of per-axis Schur factors,
keyed by the three diagonals of the exact tridiagonal triangularized (kappa^2
folded in, the last axis transposed), which the separable factorizations hold
by reference.  A subdomain's factor along one axis depends only on where it
sits along that axis, so a quasi-uniform constant partition needs 3 Schur
factors per triangularized axis (in 3D, axes 0 and 1 share theirs) instead
of one per factorization and axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs, schur

from .errors import ConfigurationError, SolverError
from .pml import DiscreteOperator

_trsyl, _gtsv = get_lapack_funcs(("trsyl", "gtsv"), (np.zeros((1, 1), np.complex128),))


def _schur_factor(lower, diag, upper, table: dict) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur factor (R, Q) of the tridiagonal with these diagonals.

    `table` maps the diagonals' bytes to factors already computed, so an
    equal tridiagonal is triangularized once and its arrays are shared."""
    key = (lower.tobytes(), diag.tobytes(), upper.tobytes())
    factor = table.get(key)
    if factor is None:
        # plain assignments (sp.diags(...).toarray() is 20x slower at these sizes)
        T = np.diag(diag)
        np.fill_diagonal(T[1:], lower)
        np.fill_diagonal(T[:, 1:], upper)
        factor = table[key] = schur(T, output="complex")
    return factor


class SeparableFactorization:
    """Schur-based fast direct solver for Kronecker-sum operators.

    The per-axis Schur factors come from `schur_table` (see `_schur_factor`)
    when one is given, so that equal axes share them; else from a table of
    this factorization's own."""

    backend = "separable"

    def __init__(self, op: DiscreteOperator, schur_table: dict | None = None):
        if not op.separable:
            raise ConfigurationError("operator kappa^2 is not tensor-structured")
        self.shape = op.window.shape
        dim = op.dim
        table = {} if schur_table is None else schur_table
        tri = [op.tridiagonal(a) for a in range(dim)]
        # kappa^2 joins the diagonal of the axis along which it varies, or of
        # the last axis when it is constant
        axis = next((a for a, n in enumerate(op.kappa2.shape) if n > 1), dim - 1)
        lower, diag, upper = tri[axis]
        tri[axis] = (lower, diag + op.kappa2.ravel(), upper)
        # the last-axis factor is of the transposed tridiagonal
        lower, diag, upper = tri[-1]
        self._R2, self._Q2 = _schur_factor(upper, diag, lower, table)
        if dim == 2:
            # axis 0 stays tridiagonal; f2py's gtsv rejects the empty
            # off-diagonals of a one-node axis
            if self.shape[0] < 2:
                raise ConfigurationError("2D separable solve needs 2 nodes on axis 0")
            self._lower, self._diag, self._upper = (np.array(d) for d in tri[0])
        else:
            self._R1, self._Q1 = _schur_factor(*tri[0], table)
            self._R3, self._Q3 = _schur_factor(*tri[1], table)
        # id -> bytes of each array held, so that shared arrays count once
        self.held = {
            id(a): a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray)
        }
        self.factor_bytes = sum(self.held.values())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != self.shape:
            raise ConfigurationError(
                f"rhs shape {rhs.shape} does not match window {self.shape}"
            )
        if len(self.shape) == 2:
            return self._solve2d(rhs)
        return self._solve3d(rhs)

    def _solve2d(self, rhs: np.ndarray) -> np.ndarray:
        """Hessenberg-Schur: T0 U + U T1^T = rhs with T1^T = Q2 R2 Q2^H, so
        Y = U Q2 solves T0 Y + Y R2 = rhs Q2 = C column by column, each the
        shifted tridiagonal system (T0 + R2[j, j]) y_j = c_j - Y[:, :j] R2[:j, j]."""
        R2, Q2 = self._R2, self._Q2
        # Y^T is held C-ordered, so each column y_j is one contiguous row
        Yt = Q2.T @ rhs.T
        for j in range(Yt.shape[0]):
            Yt[j] -= R2[:j, j] @ Yt[:j]
            *_, y, info = _gtsv(
                self._lower, self._diag + R2[j, j], self._upper, Yt[j, :, None],
                overwrite_d=True, overwrite_b=True,
            )
            if info != 0:
                raise SolverError(f"gtsv failed with info={info}")
            Yt[j] = y[:, 0]
        return Yt.T @ Q2.conj().T

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
        # each slab is solved in place: trsyl overwrites C[s].T, and the
        # solved slabs are the later ones the coupling reads
        flat = C.reshape(m, n3 * n1)
        eye = np.eye(n1, dtype=np.complex128, order="F")
        for s in range(m - 1, -1, -1):
            if s < m - 1:
                C[s] -= (R3[s, s + 1 :] @ flat[s + 1 :]).reshape(n3, n1)
            Ys, scale, info = _trsyl(R1 + R3[s, s] * eye, R2, C[s].T, overwrite_c=1)
            if info < 0:
                raise SolverError(f"trsyl failed with info={info}")
            C[s] = (Ys / scale).T
        out = np.matmul(Q2.conj(), (Q3 @ flat).reshape(m, n3, n1))
        return (Q1 @ out.reshape(m * n3, n1).T).reshape(self.shape)


class SparseLuFactorization:
    """SuperLU factorization of the full window matrix.

    `factor_nnz` is the number of factor entries SuperLU stores."""

    backend = "splu"

    def __init__(self, op: DiscreteOperator):
        self.shape = op.window.shape
        matrix = op.to_sparse().tocsc()
        try:
            self._lu = spla.splu(
                matrix,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.1,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}") from exc
        # the entries SuperLU stores: reading `_lu.L` or `_lu.U` instead would
        # build CSC copies of the factors, which scipy caches on the object
        self.factor_nnz = self._lu.nnz
        self.factor_bytes = self.factor_nnz * 16
        self.held = {id(self): self.factor_bytes}  # SuperLU's memory, as one buffer

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != self.shape:
            raise ConfigurationError(
                f"rhs shape {rhs.shape} does not match window {self.shape}"
            )
        # SuperLU.solve copies its input, so a complex rhs is passed as it is
        out = self._lu.solve(rhs.ravel().astype(np.complex128, copy=False))
        return out.reshape(self.shape)


Factorization = SeparableFactorization | SparseLuFactorization


def factorize(op: DiscreteOperator, schur_table: dict | None = None) -> Factorization:
    """Separable backend when kappa^2 varies along at most one axis, else SuperLU."""
    if op.separable:
        return SeparableFactorization(op, schur_table)
    return SparseLuFactorization(op)


@dataclass
class FactorizationCache:
    """Shares factorizations between subdomains with identical operators,
    and per-axis Schur factors between equal axes of any of them."""

    _store: dict = field(default_factory=dict)
    _schur: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, op: DiscreteOperator) -> Factorization:
        key = op.fingerprint
        fact = self._store.get(key)
        if fact is None:
            fact = factorize(op, self._schur)
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
        """Bytes the cached factorizations hold, shared arrays counted once."""
        held = {}
        for fact in self._store.values():
            held.update(fact.held)
        return sum(held.values())

"""Complex coordinate stretching and the discrete uniaxial-PML Helmholtz operator.

The operator on a box B with absorbing collar is

    L_B u = J_B^{-1} div(A_B grad u) + kappa^2 u,

with per-axis stretching alpha_j(x_j) = 1 + i sigma_j(x_j) and, in 2D,
A_B = diag(alpha_2/alpha_1, alpha_1/alpha_2), J_B = alpha_1 alpha_2 (the 3D
analogue multiplies the remaining alphas into each diagonal entry).  On a
tensor-product grid with face-midpoint sampling of the alpha ratios, every
row coefficient reduces to 1/(alpha_j(node) alpha_j(face) h_j^2), so the
discrete operator is an exact Kronecker sum of per-axis tridiagonals plus the
kappa^2 diagonal.  That structure is what the fast direct subdomain solver
exploits.

The absorption profile is polynomial, sigma(t) = sigma_max * (t/L)^p clamped
at sigma_max, optionally shifted outward by the overlap width d so that it
vanishes on the first d points past the box face.  Distances t are in grid
points from integer node indices (faces at half-integers), not coordinates,
and kappa^2 is one array broadcastable to the window shape, length 1 along
constant axes.  So an operator is an exact function of its integer structure
and medium, and structurally identical subdomains share one cached
factorization by fingerprint alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, ModelError
from .grid import Grid, Window
from .media import ConstantModel, LayeredModel, VelocityModel

DEFAULT_DAMPING = 24.0


@dataclass(frozen=True)
class PmlProfile:
    """Absorption profile parameters shared by all subdomain operators."""

    pml_width_points: int
    overlap_d_points: int
    sigma_max: float
    exponent: int = 2

    def __post_init__(self):
        if self.pml_width_points < 1 or self.overlap_d_points < 1:
            raise ConfigurationError("pml width and overlap must be >= 1 point")
        if not self.sigma_max >= 0:
            raise ConfigurationError(f"sigma_max must be >= 0, got {self.sigma_max}")

    def ramp(self, t, shift_points: int, width_points: int):
        """sigma at t grid points past a box face, zero for t <= shift_points."""
        s = (np.asarray(t, dtype=float) - shift_points) / width_points
        return self.sigma_max * np.clip(s, 0.0, 1.0) ** self.exponent


def tuned_sigma_max(
    kappa: float, pml_width: float, exponent: int = 2, damping: float = DEFAULT_DAMPING
) -> float:
    """Amplitude giving a round-trip damping exponent `damping` through the layer.

    A wave crossing the layer twice is attenuated by
    exp(-2 kappa sigma_max L / (p+1)); the default target keeps the analytic
    reflection well below discretization error.
    """
    return damping * (exponent + 1) / (2.0 * kappa * pml_width)


@dataclass
class DiscreteOperator:
    """The assembled PML Helmholtz stencil on one window of the global grid."""

    grid: Grid
    window: Window
    alpha_nodes: list[np.ndarray]
    alpha_faces: list[np.ndarray]  # length m+1 per axis, face i at x_i - h/2
    kappa2: np.ndarray  # broadcasts to the window shape, length 1 where constant

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def separable(self) -> bool:
        return sum(n > 1 for n in self.kappa2.shape) <= 1

    @cached_property
    def _coefficients(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per axis, the read-only (c_lo, c_hi, -(c_lo + c_hi))."""
        out = []
        for axis in range(self.dim):
            h = self.grid.spacing[axis]
            node = self.alpha_nodes[axis]
            face = self.alpha_faces[axis]
            c_lo = 1.0 / (node * face[:-1] * h * h)
            c_hi = 1.0 / (node * face[1:] * h * h)
            coeffs = (c_lo, c_hi, -(c_lo + c_hi))
            for arr in coeffs:
                arr.flags.writeable = False
            out.append(coeffs)
        return tuple(out)

    def axis_coefficients(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Couplings (c_lo, c_hi) to the previous/next node along `axis`."""
        return self._coefficients[axis][:2]

    def tridiag_dense(self, axis: int) -> np.ndarray:
        """The per-axis tridiagonal T_axis (without the kappa^2 diagonal)."""
        c_lo, c_hi, diag = self._coefficients[axis]
        m = c_lo.size
        T = np.zeros((m, m), dtype=np.complex128)
        idx = np.arange(m)
        T[idx, idx] = diag
        T[idx[1:], idx[1:] - 1] = c_lo[1:]
        T[idx[:-1], idx[:-1] + 1] = c_hi[:-1]
        return T

    def _tridiag_sparse(self, axis: int) -> sp.spmatrix:
        c_lo, c_hi, diag = self._coefficients[axis]
        return sp.diags([c_lo[1:], diag, c_hi[:-1]], [-1, 0, 1], format="csr")

    def kappa2_values(self, region: Window | None = None) -> np.ndarray:
        """kappa^2 on the (sub)window, as a read-only broadcast view."""
        if region is None:
            region = self.window
        local = self.window.local_slices(region)
        return np.broadcast_to(self.kappa2, self.window.shape)[local]

    def apply(self, v: np.ndarray, region: Window | None = None) -> np.ndarray:
        """Stencil action on `v` given on `region` (zero outside), result on `region`."""
        if region is None:
            region = self.window
        if v.shape != region.shape:
            raise ConfigurationError(
                f"field shape {v.shape} does not match window {region.shape}"
            )
        local = self.window.local_slices(region)
        out = self.kappa2_values(region) * v
        dim = self.dim
        for axis, coeffs in enumerate(self._coefficients):
            c_lo, c_hi, diag = (c[local[axis]] for c in coeffs)
            shape = [1] * dim
            shape[axis] = -1
            out += diag.reshape(shape) * v
            up = [slice(None)] * dim
            down = [slice(None)] * dim
            up[axis] = slice(1, None)
            down[axis] = slice(None, -1)
            out[tuple(up)] += c_lo[1:].reshape(shape) * v[tuple(down)]
            out[tuple(down)] += c_hi[:-1].reshape(shape) * v[tuple(up)]
        return out

    def to_sparse(self) -> sp.csr_matrix:
        """Full sparse matrix over the window, C-ordered flattening."""
        shape = self.window.shape
        eyes = [sp.identity(m, dtype=np.complex128, format="csr") for m in shape]
        total = None
        for axis in range(self.dim):
            factors = [eyes[a] if a != axis else self._tridiag_sparse(axis) for a in range(self.dim)]
            term = factors[0]
            for f in factors[1:]:
                term = sp.kron(term, f, format="csr")
            total = term if total is None else total + term
        return (total + sp.diags(self.kappa2_values().ravel())).tocsr()

    @cached_property
    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        digest.update(repr((self.window.shape, self.grid.spacing, self.kappa2.shape)).encode())
        for arr in (*self.alpha_nodes, *self.alpha_faces, self.kappa2):
            digest.update(arr.tobytes())
        return digest.hexdigest()


def _sigma_axis(index, box_lo, box_hi, profile, shift_lo, shift_hi):
    below = profile.ramp(box_lo - index, shift_lo, profile.pml_width_points)
    above = profile.ramp(index - box_hi, shift_hi, profile.pml_width_points)
    return below + above


def _kappa2(grid, window, velocity, omega, clamp_box):
    """kappa^2 broadcastable to the window shape, length 1 along constant axes."""
    slices = window.slices()
    coords = [
        np.clip(grid.axis_coords(a)[slices[a]], clamp_box[a][0], clamp_box[a][1])
        for a in range(grid.dim)
    ]
    if isinstance(velocity, ConstantModel):
        return np.full((1,) * grid.dim, (omega / velocity.c) ** 2)
    if isinstance(velocity, LayeredModel):
        speed = velocity.speed_of_depth(coords[-1])
        return ((omega / speed) ** 2).reshape((1,) * (grid.dim - 1) + (-1,))
    mesh = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    speed = velocity.speed_at(mesh)
    if np.any(speed <= 0):
        raise ModelError("nonpositive velocity inside operator window")
    return (omega / speed) ** 2


def assemble_operator(
    grid: Grid,
    window: Window,
    box: Window,
    profile: PmlProfile,
    velocity: VelocityModel,
    omega: float,
    clamp_box=None,
) -> DiscreteOperator:
    """Build the discrete PML operator for `box` on its window.

    The PML occupies the outermost `pml_width_points` of the window's
    overhang past each box face; any remaining overhang is the zero-sigma
    shift (the overlap width d at interior faces, zero at global faces).
    kappa uses the velocity sampled at coordinates clamped to `clamp_box`
    (constant extrapolation into the collar); it defaults to the box itself.
    """
    dim = grid.dim
    if clamp_box is None:
        clamp_box = tuple(
            (grid.axis_coords(a)[box.lo[a]], grid.axis_coords(a)[box.hi[a]])
            for a in range(dim)
        )
    alpha_nodes, alpha_faces = [], []
    for axis in range(dim):
        shift_lo = box.lo[axis] - window.lo[axis] - profile.pml_width_points
        shift_hi = window.hi[axis] - box.hi[axis] - profile.pml_width_points
        if shift_lo < 0 or shift_hi < 0:
            raise ConfigurationError(
                f"window overhang smaller than the PML width on axis {axis}"
            )
        # At interior faces, absorption starts one node past the overlap so
        # that neighboring operators share identical stencil rows on the whole
        # transfer band; the residual substitution in the source transfer is
        # then exact there.
        if shift_lo > 0:
            shift_lo += 1
        if shift_hi > 0:
            shift_hi += 1
        nodes = np.arange(window.lo[axis], window.hi[axis] + 1, dtype=float)
        faces = np.append(nodes - 0.5, nodes[-1] + 0.5)
        lo, hi = box.lo[axis], box.hi[axis]
        sig_n = _sigma_axis(nodes, lo, hi, profile, shift_lo, shift_hi)
        sig_f = _sigma_axis(faces, lo, hi, profile, shift_lo, shift_hi)
        alpha_nodes.append(1.0 + 1j * sig_n)
        alpha_faces.append(1.0 + 1j * sig_f)
    kappa2 = _kappa2(grid, window, velocity, omega, clamp_box)
    return DiscreteOperator(grid, window, alpha_nodes, alpha_faces, kappa2)

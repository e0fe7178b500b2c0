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

An operator is its stencil: the window, kappa^2 and per axis the read-only
coefficients (c_lo, c_hi, -(c_lo + c_hi)), computed once at assembly with the
mesh spacing inside them.  Every reader uses these arrays, and the
fingerprint hashes the window and kappa^2 shapes, the coefficients and kappa^2.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
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
        if self.exponent < 1:
            raise ConfigurationError(f"exponent must be >= 1, got {self.exponent}")
        if not (np.isfinite(self.sigma_max) and self.sigma_max >= 0):
            raise ConfigurationError(f"sigma_max must be finite and >= 0, got {self.sigma_max}")

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


@dataclass(frozen=True)
class DiscreteOperator:
    """The assembled PML Helmholtz stencil on one window of the global grid."""

    window: Window
    # per axis, the couplings to the lower and upper neighbour and the diagonal
    coefficients: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    kappa2: np.ndarray  # broadcasts to the window shape, length 1 where constant

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    @property
    def separable(self) -> bool:
        return sum(n > 1 for n in self.kappa2.shape) <= 1

    def tridiagonal(self, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (sub, main, super) diagonals of T_axis (without kappa^2), read-only."""
        c_lo, c_hi, diag = self.coefficients[axis]
        return c_lo[1:], diag, c_hi[:-1]

    def apply(self, v: np.ndarray, region: Window | None = None) -> np.ndarray:
        """Stencil action on `v` given on the whole window.

        `region` may only be the window itself, for callers that name the
        region they apply on, such as the benchmark's GMRES matvec; any other
        region raises.  No solver path applies an operator on part of its
        window: the source transfer reads only the residual and the
        partition's geometry.
        """
        if region is not None and region != self.window:
            raise ConfigurationError(
                f"apply takes the whole window {self.window}, got region {region}"
            )
        if v.shape != self.window.shape:
            raise ConfigurationError(
                f"field shape {v.shape} does not match window {self.window.shape}"
            )
        out = self.kappa2 * v
        for axis, (c_lo, c_hi, diag) in enumerate(self.coefficients):
            shape = [-1 if b == axis else 1 for b in range(self.dim)]
            lower = (slice(None),) * axis + (slice(None, -1),)  # all but the last node
            upper = (slice(None),) * axis + (slice(1, None),)  # all but the first
            out += diag.reshape(shape) * v
            out[upper] += c_lo[1:].reshape(shape) * v[lower]
            out[lower] += c_hi[:-1].reshape(shape) * v[upper]
        return out

    def to_sparse(self) -> sp.csr_matrix:
        """Full sparse matrix over the window, C-ordered flattening."""
        total = None
        for axis in range(self.dim):
            T = sp.diags(self.tridiagonal(axis), [-1, 0, 1], format="csr")
            if total is not None:  # the Kronecker sum of total and T, all in CSR
                # (sp.kronsum goes through COO and is ~10% slower on 2D windows)
                eye = [sp.identity(n, format="csr") for n in (total.shape[0], T.shape[0])]
                T = sp.kron(total, eye[1], "csr") + sp.kron(eye[0], T, "csr")
            total = T
        kappa2 = np.broadcast_to(self.kappa2, self.window.shape)
        return (total + sp.diags(kappa2.ravel())).tocsr()

    @cached_property
    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        digest.update(repr((self.window.shape, self.kappa2.shape)).encode())
        for arr in (*itertools.chain.from_iterable(self.coefficients), self.kappa2):
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
        raise ConfigurationError("nonpositive velocity inside operator window")
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
    if clamp_box is None:
        clamp_box = tuple(
            (grid.axis_coords(a)[box.lo[a]], grid.axis_coords(a)[box.hi[a]])
            for a in range(grid.dim)
        )
    coefficients = []
    for axis, h in enumerate(grid.spacing):
        shift_lo = box.lo[axis] - window.lo[axis] - profile.pml_width_points
        shift_hi = window.hi[axis] - box.hi[axis] - profile.pml_width_points
        if shift_lo < 0 or shift_hi < 0:
            raise ConfigurationError(
                f"window overhang smaller than the PML width on axis {axis}"
            )
        # At interior faces, absorption starts one node past the overlap so
        # that neighboring operators share identical, unstretched stencil rows
        # on the whole transfer band.  `transfer.psi` depends on it: it
        # substitutes the residual there and takes every band coupling as
        # 1/h^2 without reading an operator.
        if shift_lo > 0:
            shift_lo += 1
        if shift_hi > 0:
            shift_hi += 1
        nodes = np.arange(window.lo[axis], window.hi[axis] + 1, dtype=float)
        faces = np.append(nodes - 0.5, nodes[-1] + 0.5)
        lo, hi = box.lo[axis], box.hi[axis]
        sig_n = _sigma_axis(nodes, lo, hi, profile, shift_lo, shift_hi)
        sig_f = _sigma_axis(faces, lo, hi, profile, shift_lo, shift_hi)
        node, face = 1.0 + 1j * sig_n, 1.0 + 1j * sig_f
        c_lo = 1.0 / (node * face[:-1] * h * h)
        c_hi = 1.0 / (node * face[1:] * h * h)
        coeffs = (c_lo, c_hi, -(c_lo + c_hi))
        for arr in coeffs:
            arr.flags.writeable = False
        coefficients.append(coeffs)
    kappa2 = _kappa2(grid, window, velocity, omega, clamp_box)
    return DiscreteOperator(window, tuple(coefficients), kappa2)

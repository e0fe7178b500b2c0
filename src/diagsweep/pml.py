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
vanishes on the first d points past the box face.
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

    def ramp(self, t, h: float, shift_points: int, width_points: int):
        """sigma at distance t past a box face, zero for t <= shift_points*h."""
        s = (np.asarray(t, dtype=float) - shift_points * h) / (width_points * h)
        return self.sigma_max * np.clip(s, 0.0, 1.0) ** self.exponent

    def sigma_hat(self, t, h: float):
        """The shifted profile used at interior subdomain faces."""
        return self.ramp(t, h, self.overlap_d_points, self.pml_width_points)


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
    box: Window  # PML-free box, node indices
    alpha_nodes: list[np.ndarray]
    alpha_faces: list[np.ndarray]  # length m+1 per axis, face i at x_i - h/2
    kappa2_kind: str  # 'const' | 'axis' | 'full'
    kappa2: object  # float | (axis, 1d array) | ndarray

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def separable(self) -> bool:
        return self.kappa2_kind != "full"

    def axis_coefficients(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Couplings (c_lo, c_hi) to the previous/next node along `axis`."""
        h = self.grid.spacing[axis]
        node = self.alpha_nodes[axis]
        face = self.alpha_faces[axis]
        c_lo = 1.0 / (node * face[:-1] * h * h)
        c_hi = 1.0 / (node * face[1:] * h * h)
        return c_lo, c_hi

    def tridiag_dense(self, axis: int) -> np.ndarray:
        """The per-axis tridiagonal T_axis (without the kappa^2 diagonal)."""
        c_lo, c_hi = self.axis_coefficients(axis)
        m = c_lo.size
        T = np.zeros((m, m), dtype=np.complex128)
        idx = np.arange(m)
        T[idx, idx] = -(c_lo + c_hi)
        T[idx[1:], idx[1:] - 1] = c_lo[1:]
        T[idx[:-1], idx[:-1] + 1] = c_hi[:-1]
        return T

    def _tridiag_sparse(self, axis: int) -> sp.spmatrix:
        c_lo, c_hi = self.axis_coefficients(axis)
        return sp.diags(
            [c_lo[1:], -(c_lo + c_hi), c_hi[:-1]], [-1, 0, 1], format="csr"
        )

    def kappa2_values(self, region: Window | None = None) -> np.ndarray | float:
        """kappa^2 broadcastable to the (sub)window shape."""
        if region is None:
            region = self.window
        local = self.window.local_slices(region)
        if self.kappa2_kind == "const":
            return self.kappa2
        if self.kappa2_kind == "axis":
            axis, values = self.kappa2
            shape = [1] * self.dim
            shape[axis] = -1
            return values[local[axis]].reshape(shape)
        return self.kappa2[local]

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
        for axis in range(dim):
            c_lo, c_hi = self.axis_coefficients(axis)
            c_lo = c_lo[local[axis]]
            c_hi = c_hi[local[axis]]
            shape = [1] * dim
            shape[axis] = -1
            out += (-(c_lo + c_hi)).reshape(shape) * v
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
        k2 = np.broadcast_to(self.kappa2_values(), shape).ravel()
        return (total + sp.diags(k2)).tocsr()

    @cached_property
    def fingerprint(self) -> str:
        digest = hashlib.sha1()
        digest.update(repr((self.window.shape, self.kappa2_kind, self.grid.spacing)).encode())
        for arr in (*self.alpha_nodes, *self.alpha_faces):
            digest.update(arr.tobytes())
        if self.kappa2_kind == "const":
            digest.update(repr(self.kappa2).encode())
        elif self.kappa2_kind == "axis":
            digest.update(repr(self.kappa2[0]).encode())
            digest.update(self.kappa2[1].tobytes())
        else:
            digest.update(self.kappa2.tobytes())
        return digest.hexdigest()


def _sigma_axis(coords, box_lo, box_hi, h, profile, shift_lo, shift_hi):
    below = profile.ramp(box_lo - coords, h, shift_lo, profile.pml_width_points)
    above = profile.ramp(coords - box_hi, h, shift_hi, profile.pml_width_points)
    return below + above


def _kappa2_structure(grid, window, velocity, omega, clamp_box):
    slices = window.slices()
    coords = [
        np.clip(grid.axis_coords(a)[slices[a]], clamp_box[a][0], clamp_box[a][1])
        for a in range(grid.dim)
    ]
    if isinstance(velocity, ConstantModel):
        return "const", (omega / velocity.c) ** 2
    if isinstance(velocity, LayeredModel):
        axis = grid.dim - 1
        speed = velocity.speed_of_depth(coords[axis])
        return "axis", (axis, (omega / speed) ** 2)
    mesh = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    speed = velocity.speed_at(mesh)
    if np.any(speed <= 0):
        raise ModelError("nonpositive velocity inside operator window")
    return "full", (omega / speed) ** 2


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
        h = grid.spacing[axis]
        coords = grid.axis_coords(axis)
        box_lo = coords[box.lo[axis]]
        box_hi = coords[box.hi[axis]]
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
        nodes = coords[window.lo[axis] : window.hi[axis] + 1]
        faces = np.concatenate([nodes - h / 2, [nodes[-1] + h / 2]])
        sig_n = _sigma_axis(nodes, box_lo, box_hi, h, profile, shift_lo, shift_hi)
        sig_f = _sigma_axis(faces, box_lo, box_hi, h, profile, shift_lo, shift_hi)
        alpha_nodes.append(1.0 + 1j * sig_n)
        alpha_faces.append(1.0 + 1j * sig_f)
    kind, kappa2 = _kappa2_structure(grid, window, velocity, omega, clamp_box)
    return DiscreteOperator(grid, window, box, alpha_nodes, alpha_faces, kind, kappa2)

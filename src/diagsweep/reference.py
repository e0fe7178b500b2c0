"""Semi-analytic free-space solutions for radially symmetric sources.

For a radial source f(|x - r0|) the outgoing solution of Delta u + kappa^2 u
= f is one radial quadrature against the radial Green function

    g(R, rho) = c * a(kappa rho_<) b(kappa rho_>),   rho_< = min(R, rho),
                                                     rho_> = max(R, rho),

with measure rho^p drho.  `_KERNELS[dim]` holds (a, b, p, c) from scipy:

    2D: a = J_0, b = H_0^(1),       p = 1, c = -i pi / 2;
    3D: a = j_0, b = h_0^(1) = j_0 + i y_0, p = 2, c = -i kappa.

The forward cumulative trapezoid sum against a and the reversed one against b
are computed once on a fine radial mesh and interpolated at the grid node
radii, so evaluating a full field costs one pass over the grid.  The outgoing
kernel b is singular at 0; it is evaluated at positive radii only and left 0
at rho = 0 and R = 0, which is exact: the measure vanishes at rho = 0, and the
inner integral vanishes at R = 0.

The PML problem approximates this free-space solution in the interior box; the
quadrature is accurate to far below the discretization error, which makes it
the reference for grid convergence studies.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import hankel1, j0, spherical_jn, spherical_yn

from .grid import ComplexField, Grid

_KERNELS = {  # dim: (regular a, outgoing b, power p, Green factor c(kappa))
    2: (j0, lambda x: hankel1(0, x), 1, lambda kappa: -0.5j * np.pi),
    3: (lambda x: spherical_jn(0, x), lambda x: spherical_jn(0, x) + 1j * spherical_yn(0, x),
        2, lambda kappa: -1j * kappa),
}


def gaussian_amplitude(kappa: float, dim: int) -> float:
    """Normalization of the convergence-study Gaussian source."""
    if dim == 2:
        return 16.0 * kappa**2 / np.pi**3
    return 64.0 * kappa**3 / np.pi ** (9.0 / 2.0)


def gaussian_profile(rho: np.ndarray, kappa: float, dim: int) -> np.ndarray:
    """Radial profile of the study source, f(rho) = A exp(-(4 kappa/pi)^2 rho^2)."""
    return gaussian_amplitude(kappa, dim) * np.exp(-((4.0 * kappa / np.pi) ** 2) * rho**2)


def _off_origin(kernel, x: np.ndarray) -> np.ndarray:
    """`kernel` at the positive entries of `x`, 0 at x = 0."""
    out = np.zeros(x.shape, dtype=np.complex128)
    out[x > 0] = kernel(x[x > 0])
    return out


def radial_solution(
    grid: Grid, center, kappa: float, profile=None, n_quad: int = 200_000
) -> ComplexField:
    """Free-space solution field for a radial source centered at `center`.

    `profile` maps radius arrays to source values; it defaults to the
    convergence-study Gaussian.  The radial mesh has `n_quad` points and ends
    one grid spacing past the farthest node.
    """
    dim = grid.dim
    regular, outgoing, power, factor = _KERNELS[dim]
    if profile is None:
        profile = lambda rho: gaussian_profile(rho, kappa, dim)
    coords = np.meshgrid(*(grid.axis_coords(a) - center[a] for a in range(dim)), indexing="ij")
    r = np.sqrt(sum(c**2 for c in coords)).ravel()
    rho = np.linspace(0.0, float(r.max()) + grid.spacing[0], n_quad)
    weight = profile(rho) * rho**power
    inner = cumulative_trapezoid(regular(kappa * rho) * weight, rho, initial=0.0)
    outer = cumulative_trapezoid(
        (_off_origin(outgoing, kappa * rho) * weight)[::-1], rho, initial=0.0
    )[::-1]
    a_r = regular(kappa * r)
    u = _off_origin(outgoing, kappa * r) * np.interp(r, rho, inner)
    # two real interps: one complex np.interp is not bit-identical to them
    u = u + a_r * np.interp(r, rho, outer.real) + 1j * a_r * np.interp(r, rho, outer.imag)
    return ComplexField(grid, (factor(kappa) * u).reshape(grid.counts))

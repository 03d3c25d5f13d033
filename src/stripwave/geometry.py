"""Flattening map of the wavy layer onto the fixed strip, plus surface geometry.

For a surface displacement eta with max|eta| < b/2, the layer 0 < y_n <
b + eta(y') pulls back to the strip 0 < x_n < b through
F_eta(x) = (x', x_n (1 + eta(x')/b)).  The derived fields are

    J   = 1 + eta/b                      (Jacobian determinant)
    A   = [[ I , -x_n grad'eta/(b+eta) ],
           [ 0 ,  b/(b+eta)            ]]   (inverse-transpose Jacobian)

stored pointwise on the collocation grid.  A twists every derivative of the
flattened system: d_i^A = A_ij d_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SurfaceTooLarge
from .fields import SurfaceSpectral
from .grids import FrequencyGrid, VerticalGrid
from .ops import dealias, horiz_deriv, to_coeff, to_phys


@dataclass
class FlatteningFields:
    """Pointwise flattening data on the strip collocation grid."""

    a_field: np.ndarray      # (n, n) + phys_shape + (Nz,)
    j_field: np.ndarray      # phys_shape (vertically constant)
    eta_bound: float
    eta_phys: np.ndarray     # phys_shape
    grad_eta_phys: np.ndarray  # (dim_h,) + phys_shape


def _eta_physical(eta: SurfaceSpectral):
    """eta and its dealiased slopes grad'eta on the collocation grid."""
    grid = eta.grid
    grad = np.stack([to_phys(dealias(horiz_deriv(eta.data, grid, ax), grid), grid)[0]
                     for ax in range(grid.dim_h)])
    return to_phys(eta.data, grid)[0], grad


def build_flattening(eta: SurfaceSpectral, grid: FrequencyGrid,
                     vgrid: VerticalGrid) -> FlatteningFields:
    b = vgrid.depth
    n = grid.dim_h + 1
    eta_p, grad_p = _eta_physical(eta)
    bound = float(np.abs(eta_p).max())
    if bound >= b / 2:
        raise SurfaceTooLarge(f"max|eta| = {bound:.3g} >= b/2 = {b / 2:.3g}")

    phys = grid.phys_shape
    nz = vgrid.count
    A = np.zeros((n, n) + phys + (nz,))
    for i in range(grid.dim_h):
        A[i, i] = 1.0
        A[i, n - 1] = -vgrid.nodes * (grad_p[i] / (b + eta_p))[..., None]
    A[n - 1, n - 1] = (b / (b + eta_p))[..., None]
    J = 1.0 + eta_p / b
    return FlatteningFields(a_field=A, j_field=J, eta_bound=bound,
                            eta_phys=eta_p, grad_eta_phys=grad_p)


def flattening_points(ff: FlatteningFields, grid: FrequencyGrid,
                      vgrid: VerticalGrid) -> np.ndarray:
    """Images F_eta(x) of the strip collocation points, shape phys+(Nz, n)."""
    pts_h = grid.phys_points()
    nz = vgrid.count
    out = np.zeros(grid.phys_shape + (nz, grid.dim_h + 1))
    for i in range(grid.dim_h):
        out[..., i] = pts_h[..., i][..., None]
    out[..., -1] = vgrid.nodes[None] * (1.0 + ff.eta_phys / vgrid.depth)[..., None]
    return out


def mean_curvature(eta: SurfaceSpectral) -> SurfaceSpectral:
    """div'( grad'eta / sqrt(1+|grad'eta|^2) ), dealiased pseudospectral."""
    return slope_curvature(_eta_physical(eta)[1], eta.grid)


def slope_curvature(grad: np.ndarray, grid: FrequencyGrid) -> SurfaceSpectral:
    """mean_curvature from the physical slopes of _eta_physical."""
    norm2 = sum(g * g for g in grad)
    scale = 1.0 / np.sqrt(1.0 + norm2)
    out = np.zeros(grid.freq_shape, dtype=complex)
    for ax, g in enumerate(grad):
        flux = to_coeff((g * scale)[None], grid)
        out += dealias(horiz_deriv(flux, grid, ax), grid)[0]
    return SurfaceSpectral(grid, out).enforce_real()


def lattice_phases(grid: FrequencyGrid, points: np.ndarray) -> np.ndarray:
    """exp(2 pi i xi . x') per horizontal point (rows) and lattice frequency
    (columns, freq_shape flattened in C order).

    The lattice is a product of one axis per direction, so the phases are
    products of one table exp(2 pi i x_d xi_d) per direction: dim_h * modes
    exponentials per point instead of modes^dim_h.
    """
    points = np.asarray(points, dtype=float)
    tables = np.exp(2j * np.pi * (points[:, :, None] * grid.xi_axis()))
    phases = tables[:, 0]
    for d in range(1, grid.dim_h):
        phases = (phases[:, :, None] * tables[:, d, None, :]).reshape(len(points), -1)
    return phases


def surface_at(eta: SurfaceSpectral, phases: np.ndarray) -> np.ndarray:
    """A real surface field at arbitrary horizontal points, given their
    lattice_phases (the real part of a direct sum over the lattice)."""
    coeffs = eta.data.reshape(eta.comps, -1)
    vals = np.real(phases @ coeffs.T)
    return np.moveaxis(vals, -1, 0) if eta.comps > 1 else vals[..., 0]

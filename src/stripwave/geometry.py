"""Flattening map of the wavy layer onto the fixed strip, plus surface geometry.

For a surface displacement eta with max|eta| < b/2, the layer 0 < y_n <
b + eta(y') pulls back to the strip 0 < x_n < b through
F_eta(x) = (x', x_n (1 + eta(x')/b)).  The derived fields are

    J   = 1 + eta/b                      (Jacobian determinant)
    A   = [[ I , -x_n grad'eta/(b+eta) ],
           [ 0 ,  b/(b+eta)            ]]   (inverse-transpose Jacobian)

on the collocation grid, where F_eta fixes x': A is stored as its last column,
its one part off the identity.  A twists every derivative of the flattened
system: d_i^A = A_ij d_j.
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

    a_last: np.ndarray       # A[:, n-1], (n,) + phys_shape + (Nz,)
    j_field: np.ndarray      # phys_shape (vertically constant)
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

    a_last = np.empty((n,) + grid.phys_shape + (vgrid.count,))
    a_last[:-1] = -vgrid.nodes * (grad_p / (b + eta_p))[..., None]
    a_last[-1] = (b / (b + eta_p))[..., None]
    J = 1.0 + eta_p / b
    return FlatteningFields(a_last=a_last, j_field=J, eta_phys=eta_p, grad_eta_phys=grad_p)


def flattening_points(eta_phys: np.ndarray, grid: FrequencyGrid,
                      vgrid: VerticalGrid) -> np.ndarray:
    """Images F_eta(x) of the strip collocation points, shape phys+(Nz, n),
    for the surface samples ``eta_phys`` (phys_shape); the top node's images
    are the free-surface points (x', b + eta)."""
    out = np.empty(grid.phys_shape + (vgrid.count, grid.dim_h + 1))
    out[..., :-1] = grid.phys_points()[..., None, :]
    out[..., -1] = vgrid.nodes[None] * (1.0 + eta_phys / vgrid.depth)[..., None]
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


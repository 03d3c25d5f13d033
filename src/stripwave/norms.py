"""Norms and compatibility functionals for the solver's function spaces.

All horizontal sums carry the box volume factor L^dim_h so that the order-zero
norm reproduces the physical L^2 integral over the periodic box; lattice sums
then approximate the corresponding whole-plane frequency integrals.  Bulk
Sobolev norms take integer order and mix vertical derivatives (spectral
differentiation matrix) with the horizontal weight (1+|xi|^2)^(s-j).  Surface
norms accept any real order.  The anisotropic surface weight is

    w_t(xi) = (xi_1^2 + |xi|^4)/|xi|^2   for 0 < |xi| < 1,
              (1 + |xi|^2)^t            for |xi| >= 1,

with the zero mode contributing nothing (mean-zero surface convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, SurfaceSpectral

DEFAULT_ZERO_MODE_TOL = 1e-10


def sobolev_norm(field: SpectralField, s: int) -> float:
    """H^s norm on the strip; s must be a nonnegative integer."""
    if s < 0 or int(s) != s:
        raise ValueError("bulk Sobolev order must be a nonnegative integer")
    s = int(s)
    grid, vgrid = field.grid, field.vgrid
    xi2 = grid.xi_magnitude() ** 2
    total = 0.0
    dz = field.data
    for j in range(s + 1):
        weight = (1.0 + xi2) ** (s - j)
        prof = (np.abs(dz) ** 2) @ vgrid.weights
        total += float((weight[None] * prof).sum())
        if j < s:
            dz = vgrid.differentiate(dz)
    return float(np.sqrt(grid.box_volume() * total))


def surface_sobolev_norm(field: SurfaceSpectral, t: float) -> float:
    """H^t norm on the flat surface, any real t."""
    grid = field.grid
    weight = (1.0 + grid.xi_magnitude() ** 2) ** t
    total = float((weight[None] * np.abs(field.data) ** 2).sum())
    return float(np.sqrt(grid.box_volume() * total))


def anisotropic_weight(grid, t: float) -> np.ndarray:
    """The piecewise weight w_t on the lattice (0 at xi = 0)."""
    vecs = grid.xi_vectors()
    xi1 = vecs[..., 0]
    mag2 = (vecs ** 2).sum(axis=-1)
    w = np.zeros(grid.freq_shape)
    inner = (mag2 > 0) & (mag2 < 1.0)
    outer = mag2 >= 1.0
    w[inner] = (xi1[inner] ** 2 + mag2[inner] ** 2) / mag2[inner]
    w[outer] = (1.0 + mag2[outer]) ** t
    return w


def x_norm(eta: SurfaceSpectral, t: float) -> float:
    """Anisotropically weighted surface norm housing the free surface."""
    w = anisotropic_weight(eta.grid, t)
    total = float((w[None] * np.abs(eta.data) ** 2).sum())
    return float(np.sqrt(eta.grid.box_volume() * total))


def hdot_neg1(field: SurfaceSpectral, zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL) -> float:
    """Homogeneous order -1 seminorm; inf when the zero mode obstructs it.

    On the periodic surrogate a nonzero mean has no finite negative-order
    norm, so |fhat(0)| > zero_mode_tol returns float('inf').
    """
    grid = field.grid
    zero = (slice(None),) + (0,) * grid.dim_h
    if np.abs(field.data[zero]).max() > zero_mode_tol:
        return float("inf")
    mag2 = grid.xi_magnitude() ** 2
    inv = np.zeros(grid.freq_shape)
    nz = mag2 > 0
    inv[nz] = 1.0 / mag2[nz]
    total = float((inv[None] * np.abs(field.data) ** 2).sum())
    return float(np.sqrt(grid.box_volume() * total))


@dataclass
class DivergenceTraceReport:
    residual_hneg1: float
    zero_mode_abs: float


def check_divergence_trace(data) -> DivergenceTraceReport:
    """Residual h - integral of g over the depth, per frequency.

    Reports the homogeneous order -1 size of the residual (zero mode
    excluded) and the zero-mode magnitude separately.
    """
    vgrid = data.vgrid
    g_int = data.g.data @ vgrid.weights
    resid = SurfaceSpectral(data.grid, data.h.data - g_int)
    zero = (slice(None),) + (0,) * data.grid.dim_h
    return DivergenceTraceReport(
        residual_hneg1=hdot_neg1(resid, zero_mode_tol=np.inf),
        zero_mode_abs=float(np.abs(resid.data[zero]).max()),
    )


def ydata_norm(data) -> float:
    """Graph norm of a data tuple: component Sobolev norms plus the
    divergence-trace seminorm (zero mode excluded)."""
    report = check_divergence_trace(data)
    pieces = [
        sobolev_norm(data.f, 0),
        sobolev_norm(data.g, 1),
        sobolev_norm(data.l, 0),
        surface_sobolev_norm(data.k, 0.5),
        surface_sobolev_norm(data.h, 1.5),
        surface_sobolev_norm(data.m, 0.5),
        report.residual_hneg1,
    ]
    return float(np.sqrt(sum(p * p for p in pieces)))

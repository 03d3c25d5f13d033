"""Norms and compatibility functionals for the solver's function spaces.

All horizontal sums carry the box volume factor L^dim_h so that the order-zero
norm reproduces the physical L^2 integral over the periodic box; lattice sums
then approximate the corresponding whole-plane frequency integrals.  A field
stores half the lattice, so each sum weights a stored index by the number
of lattice points it stands for, ``FrequencyGrid.pair_weight``.  Bulk
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

from .fields import SpectralField, SurfaceSpectral, gather_index


def _lattice_norm(grid, power) -> float:
    """sqrt(L^dim_h sum of ``power``, shape (comps,) + freq_shape), each
    stored index counted for the pair_weight lattice points it stands for."""
    return float(np.sqrt(grid.box_volume() * float((grid.pair_weight * power).sum())))


def sobolev_norm(field: SpectralField, s: int) -> float:
    """H^s norm on the strip; s must be a nonnegative integer.  Vertical
    derivatives are taken only where the field is nonzero (zeros elsewhere)."""
    if s < 0 or int(s) != s:
        raise ValueError("bulk Sobolev order must be a nonnegative integer")
    s = int(s)
    grid, vgrid = field.grid, field.vgrid
    size = np.abs(field.data)
    rows = size.reshape(len(size), -1, vgrid.count)
    # where some |value| is nonzero: a sum of them is zero only if all are
    at = gather_index((rows @ np.ones(vgrid.count)).any(axis=0)) if s else None
    power = (1.0 + grid.xi2) ** s * (np.square(size, out=size) @ vgrid.weights)
    dz = field.rows(at) if s else None
    for j in range(1, s + 1):
        dz = vgrid.differentiate(dz)
        square = np.abs(dz)
        rows[:, at] = np.square(square, out=square)
        power = power + (1.0 + grid.xi2) ** (s - j) * (size @ vgrid.weights)
    return _lattice_norm(grid, power)


def surface_sobolev_norm(field: SurfaceSpectral, t: float) -> float:
    """H^t norm on the flat surface, any real t."""
    weight = (1.0 + field.grid.xi2) ** t
    return _lattice_norm(field.grid, weight * np.abs(field.data) ** 2)


def anisotropic_weight(grid, t: float) -> np.ndarray:
    """The piecewise weight w_t on the lattice (0 at xi = 0)."""
    mag2 = grid.xi2
    inner = (mag2 > 0) & (mag2 < 1.0)
    return np.where(inner, (grid.xi_vectors[..., 0] ** 2 + mag2 ** 2) / np.where(inner, mag2, 1.0),
                    np.where(mag2 >= 1.0, (1.0 + mag2) ** t, 0.0))


def x_norm(eta: SurfaceSpectral, t: float) -> float:
    """Anisotropically weighted surface norm housing the free surface."""
    return _lattice_norm(eta.grid, anisotropic_weight(eta.grid, t) * np.abs(eta.data) ** 2)


def hdot_neg1(field: SurfaceSpectral) -> float:
    """Homogeneous order -1 seminorm, the zero mode excluded: on the periodic
    surrogate a nonzero mean has no finite negative-order norm, so
    ``check_divergence_trace`` reports it apart."""
    grid = field.grid
    mag2 = grid.xi2
    inv = np.where(mag2 > 0, 1.0 / np.where(mag2 > 0, mag2, 1.0), 0.0)
    return _lattice_norm(grid, inv * np.abs(field.data) ** 2)


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
        residual_hneg1=hdot_neg1(resid),
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

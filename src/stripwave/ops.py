"""Shared pseudospectral building blocks (derivatives, dealiased products)."""

from __future__ import annotations

import numpy as np

from .grids import FrequencyGrid


def on_lattice(arr: np.ndarray, ndim: int, first: int = 1) -> np.ndarray:
    """Reshape a lattice array (or a per-axis factor of one) to broadcast
    against an ndim array whose horizontal axes start at ``first``."""
    shape = [1] * ndim
    shape[first:first + arr.ndim] = arr.shape
    return arr.reshape(shape)


def xi_multipliers(grid: FrequencyGrid):
    """2*pi*i*xi factors per horizontal axis, broadcastable over freq_shape."""
    ax = grid.xi_axis()
    if grid.dim_h == 1:
        return (2j * np.pi * ax,)
    return (2j * np.pi * ax[:, None], 2j * np.pi * ax[None, :])


def horiz_deriv(coeffs: np.ndarray, grid: FrequencyGrid, axis: int) -> np.ndarray:
    """Spectral d/dx'_axis on coefficient arrays with leading component axis."""
    return coeffs * on_lattice(xi_multipliers(grid)[axis], coeffs.ndim)


def synthesize(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Fourier series summed on the collocation grid (complex samples)."""
    axes = tuple(range(1, 1 + grid.dim_h))
    return np.fft.ifftn(coeffs, axes=axes) * grid.modes ** grid.dim_h


def to_phys(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    # copied out of the complex samples: a strided real view would slow
    # every pointwise product that follows
    return np.ascontiguousarray(np.real(synthesize(coeffs, grid)))


def to_coeff(phys: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    axes = tuple(range(1, 1 + grid.dim_h))
    return np.fft.fftn(phys, axes=axes) / grid.modes ** grid.dim_h


def dealias(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Zero coefficients beyond the 2/3 cutoff (per horizontal axis)."""
    return coeffs * on_lattice(grid.dealias_mask(), coeffs.ndim)


def dealias_tail_fraction(coeffs: np.ndarray, grid: FrequencyGrid) -> float:
    """Fraction of spectral energy sitting beyond the 2/3 cutoff."""
    mask = on_lattice(grid.dealias_mask(), coeffs.ndim)
    power = np.abs(coeffs) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    tail = float((power * ~mask).sum())
    return tail / total

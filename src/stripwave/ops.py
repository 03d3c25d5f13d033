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


def to_phys(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Fourier series summed on the collocation grid (real samples)."""
    axes = tuple(range(1, 1 + grid.dim_h))
    samples = np.fft.ifftn(coeffs, axes=axes) * grid.modes ** grid.dim_h
    # copied out of the complex samples: a strided real view would slow
    # every pointwise product that follows
    return np.ascontiguousarray(np.real(samples))


def to_coeff(phys: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    axes = tuple(range(1, 1 + grid.dim_h))
    return np.fft.fftn(phys, axes=axes) / grid.modes ** grid.dim_h


def lattice_sum(coeffs: np.ndarray, grid: FrequencyGrid, points: np.ndarray) -> np.ndarray:
    """Fourier series summed at arbitrary horizontal points (real part).

    ``coeffs`` carries the lattice on its leading dim_h axes and any
    trailing axes; ``points`` has shape (npts, dim_h).  Returns shape
    (npts,) + the trailing axes.  The phases exp(2 pi i xi . x') are a
    product of one table per lattice axis, so the sum runs one axis at a
    time and never forms the (npts, modes^dim_h) table of their product.
    """
    tables = np.exp(2j * np.pi * (points[:, :, None] * grid.xi_axis()))
    out = np.tensordot(tables[:, -1], coeffs, axes=(1, grid.dim_h - 1))
    if grid.dim_h == 2:
        out = np.einsum("pj,pj...->p...", tables[:, 0], out)
    return np.real(out)


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

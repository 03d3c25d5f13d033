"""Shared pseudospectral building blocks (derivatives, dealiased products)."""

from __future__ import annotations

import numpy as np

from .grids import FrequencyGrid

# complex partial sums of lattice_sum alive at a time (8 MiB)
_SUM_BLOCK = 2 ** 19


def on_lattice(arr: np.ndarray, ndim: int, first: int = 1) -> np.ndarray:
    """Reshape a lattice array (or a per-axis factor of one) to broadcast
    against an ndim array whose horizontal axes start at ``first``."""
    shape = [1] * ndim
    shape[first:first + arr.ndim] = arr.shape
    return arr.reshape(shape)


def horiz_deriv(coeffs: np.ndarray, grid: FrequencyGrid, axis: int) -> np.ndarray:
    """Spectral d/dx'_axis on coefficient arrays with leading component axis."""
    return coeffs * on_lattice(2j * np.pi * grid.xi_axes[axis], coeffs.ndim, 1 + axis)


def to_phys(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Fourier series summed on the collocation grid (real samples)."""
    axes = tuple(range(grid.dim_h, 0, -1))      # numpy halves the last axis listed
    return np.fft.irfftn(coeffs, s=grid.phys_shape, axes=axes) * grid.modes ** grid.dim_h


def to_coeff(phys: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Stored-half coefficients of real samples on the collocation grid."""
    if phys.shape[1:1 + grid.dim_h] != grid.phys_shape:
        raise ValueError(f"samples of shape {phys.shape} are not on the "
                         f"{grid.phys_shape} collocation grid")
    return np.fft.rfftn(phys, axes=tuple(range(grid.dim_h, 0, -1))) / grid.modes ** grid.dim_h


def lattice_sum(coeffs: np.ndarray, grid: FrequencyGrid, points: np.ndarray) -> np.ndarray:
    """Fourier series of a real field summed at arbitrary horizontal points.

    ``coeffs`` carries the stored half lattice on its leading dim_h axes and
    any trailing axes; ``points`` has shape (npts, dim_h).  Returns shape
    (npts,) + the trailing axes: the real part of the pair-weighted sum of
    coeffs exp(2 pi i xi . x'), which is the sum over the whole lattice.
    The phases are a product of one table per lattice axis, so the sum runs
    one axis at a time, on at most _SUM_BLOCK partial sums.
    """
    block = max(1, _SUM_BLOCK * grid.modes // coeffs.size)
    if len(points) > block:
        return np.concatenate([lattice_sum(coeffs, grid, points[lo:lo + block])
                               for lo in range(0, len(points), block)])
    tables = [np.exp(2j * np.pi * points[:, ax, None] * xi)
              for ax, xi in enumerate(grid.xi_axes)]
    tables[0] *= grid.pair_weight.ravel()
    out = np.tensordot(tables[-1], coeffs, axes=(1, grid.dim_h - 1))
    if grid.dim_h == 2:
        out = np.einsum("pj,pj...->p...", tables[0], out)
        # off the self-paired planes xi and its mirror share the Nyquist
        # phase of the second axis, so the pair sums to its cosine there
        nyq = grid.modes // 2
        sine = tables[1][:, nyq].imag.reshape((-1,) + (1,) * (coeffs.ndim - 2))
        out -= 1j * sine * np.tensordot(tables[0][:, 1:-1], coeffs[1:-1, nyq], axes=1)
    return np.real(out)


def dealias(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Zero coefficients beyond the 2/3 cutoff (per horizontal axis)."""
    return coeffs * on_lattice(grid.dealias_mask, coeffs.ndim)


def dealias_tail_fraction(coeffs: np.ndarray, grid: FrequencyGrid) -> float:
    """Fraction of spectral energy sitting beyond the 2/3 cutoff."""
    power = np.abs(coeffs) ** 2 * on_lattice(grid.pair_weight, coeffs.ndim)
    total = float(power.sum())
    tail = float((power * ~on_lattice(grid.dealias_mask, coeffs.ndim)).sum())
    return tail / total if total else 0.0

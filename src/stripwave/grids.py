"""Horizontal frequency lattice and vertical Chebyshev grid.

The horizontal domain is a periodic box of side ``box_len`` standing in for
the whole plane; fields are Fourier series over the lattice xi = j/L with the
convention f(x) = sum_xi fhat(xi) exp(2 pi i xi . x), so d/dx_1 acts as
multiplication by 2 pi i xi_1.  The vertical interval [0, b] carries
Chebyshev-Gauss-Lobatto nodes (both endpoints included), the associated
spectral differentiation matrix, and Clenshaw-Curtis quadrature weights.
A grid's tables are built once per parameter set, shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np


def chebyshev_lobatto(n: int) -> np.ndarray:
    """Nodes cos(pi*k/n), k=0..n, on [-1, 1] (descending)."""
    if n < 1:
        raise ValueError("need at least two nodes")
    return np.cos(np.pi * np.arange(n + 1) / n)


def chebyshev_diff_matrix(n: int) -> np.ndarray:
    """Differentiation matrix on the Lobatto nodes of chebyshev_lobatto(n)."""
    x = chebyshev_lobatto(n)
    c = np.ones(n + 1)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D = D - np.diag(D.sum(axis=1))
    return D


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights on the Lobatto nodes, integrating over [-1, 1]."""
    if n == 1:
        return np.array([1.0, 1.0])
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = 1.0 / (n * n - 1)
        w[n] = w[0]
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = 1.0 / (n * n)
        w[n] = w[0]
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
    w[ii] = 2.0 * v / n
    return w


def _is_integer(value) -> bool:
    """An integer and no bool, as a JSON true is no number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_integer(value) or isinstance(value, (float, np.floating))


def read_only(*arrays) -> tuple:
    """The arrays, each made read-only, as a cache shares them with every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def _vertical_tables(depth: float, count: int) -> tuple:
    """VerticalGrid's tables, in the order of its fields."""
    x = chebyshev_lobatto(count - 1)                 # descending on [-1, 1]
    bary = (-1.0) ** np.arange(count)
    bary[[0, -1]] *= 0.5
    return read_only(depth * (1.0 - x) / 2.0,       # ascending on [0, depth]
                     (depth / 2.0) * clenshaw_curtis_weights(count - 1),
                     -(2.0 / depth) * chebyshev_diff_matrix(count - 1), bary)


@dataclass(frozen=True)
class VerticalGrid:
    """Chebyshev-Gauss-Lobatto grid on [0, depth], nodes ascending; shared read-only
    tables: ``nodes``, Clenshaw-Curtis ``weights``, ``diff``, ``bary_weights``."""

    depth: float
    count: int
    # derived from depth and count, so equality and hashing leave them out
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    diff: np.ndarray = field(init=False, repr=False, compare=False)
    bary_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_real(self.depth) or not 0 < self.depth < np.inf:
            raise ValueError(f"depth must be a positive and finite number, got {self.depth!r}")
        if not _is_integer(self.count):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.count < 4:
            raise ValueError("need at least four vertical nodes")
        for f, table in zip(fields(self)[2:], _vertical_tables(float(self.depth), int(self.count))):
            object.__setattr__(self, f.name, table)

    def differentiate(self, values: np.ndarray) -> np.ndarray:
        """d/dx_n along the last axis."""
        return values @ self.diff.T

    def interp_weights(self, z) -> np.ndarray:
        """Barycentric interpolation rows for heights z in [0, depth].

        Returns shape z.shape + (count,): contracting node values with the
        row of a height gives their interpolant there.  A height within
        roundoff of a node gets the unit row of that node.
        """
        diffs = np.asarray(z, dtype=float)[..., None] - self.nodes
        hit = np.abs(diffs) < 1e-14 * max(1.0, self.depth)
        w = self.bary_weights / np.where(hit, 1.0, diffs)
        rows = w / w.sum(axis=-1, keepdims=True)
        on_node = hit.any(axis=-1)
        rows[on_node] = hit[on_node]
        return rows

    def interpolate(self, values: np.ndarray, z: float) -> np.ndarray:
        """Barycentric evaluation at a point z in [0, depth], last axis = node."""
        return values @ self.interp_weights(z)


@lru_cache(maxsize=16)
def _lattice_tables(dim_h: int, box_len: float, modes: int) -> tuple:
    """FrequencyGrid's tables, in the order of its fields."""
    half, j = modes // 2, np.arange(modes)
    # the signed lattice index j per stored axis
    index = (j[:half + 1],) + (np.where(j > half, j - modes, j),) * (dim_h - 1)
    keep = [np.abs(k) <= modes // 3 for k in index]
    xi_axes = read_only(*(k / box_len for k in index))
    xi_vectors = np.stack(np.meshgrid(*xi_axes, indexing="ij"), axis=-1)
    pair = np.where(index[0] % half, 2.0, 1.0).reshape((-1,) + (1,) * (dim_h - 1))
    return (xi_axes,) + read_only(xi_vectors, (xi_vectors ** 2).sum(axis=-1), pair,
                                  np.logical_and.outer(*keep) if dim_h == 2 else keep[0],
                                  # off the planes all, on them k2 = 0 .. modes/2 (all in dim_h 1)
                                  (pair == 2) | (index[-1] >= 0))


@dataclass(frozen=True)
class FrequencyGrid:
    """Periodic lattice {j/L} per horizontal direction, stored on its half:
    the fields are real, so, as in real-data FFTs, the first axis holds
    k1 = 0 .. modes/2 and every other axis all modes in FFT order.  Every
    per-lattice array of the package has shape ``freq_shape``.

    Its tables, built once per (dim_h, box_len, modes) and shared read-only:
    ``xi_axes``, j/L per stored axis (Nyquist at +modes/2); ``xi_vectors``,
    shape freq_shape + (dim_h,); ``xi2``, |xi|^2 as their sum of squares;
    ``pair_weight``, the lattice points each stored index stands for (1 on
    the planes k1 = 0 and modes/2, 2 elsewhere, broadcasting over
    freq_shape); ``dealias_mask``, the modes the 2/3 rule keeps (|j| <=
    modes//3 per axis); ``half_mask``, the half lattice, True at idx iff
    idx <= -idx (mod modes) in lexicographic order.  It holds one index of
    every +-xi pair and the self-paired ones (xi = 0 and the Nyquist
    indices): every stored index off the planes k1 = 0 and modes/2, and half
    of each plane, whose other half holds the conjugates.  The per-frequency
    solves visit these frequencies, in the order of np.nonzero."""

    dim_h: int
    box_len: float
    modes: int
    # derived from the three parameters, so equality and hashing leave them out
    xi_axes: tuple = field(init=False, repr=False, compare=False)
    xi_vectors: np.ndarray = field(init=False, repr=False, compare=False)
    xi2: np.ndarray = field(init=False, repr=False, compare=False)
    pair_weight: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    half_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not _is_integer(self.dim_h) or self.dim_h not in (1, 2):
            raise ValueError(f"dim_h must be the integer 1 or 2, got {self.dim_h!r}")
        if not _is_real(self.box_len) or not 0 < self.box_len < np.inf:
            raise ValueError(f"box_len must be a positive and finite number, got {self.box_len!r}")
        if not _is_integer(self.modes):
            raise ValueError(f"modes must be an integer, got {self.modes!r}")
        if self.modes < 4 or self.modes % 2:
            raise ValueError("modes must be even and at least 4")
        tables = _lattice_tables(int(self.dim_h), float(self.box_len), int(self.modes))
        for f, table in zip(fields(self)[3:], tables):
            object.__setattr__(self, f.name, table)

    @property
    def freq_shape(self) -> tuple:
        return (self.modes // 2 + 1,) + (self.modes,) * (self.dim_h - 1)

    @property
    def phys_shape(self) -> tuple:
        return (self.modes,) * self.dim_h

    @property
    def xi_max(self) -> float:
        return self.modes / (2.0 * self.box_len)

    def nodes_1d(self) -> np.ndarray:
        return self.box_len * np.arange(self.modes) / self.modes

    def phys_points(self) -> np.ndarray:
        """Collocation points, shape phys_shape + (dim_h,)."""
        x = self.nodes_1d()
        return np.stack(np.meshgrid(*[x] * self.dim_h, indexing="ij"), axis=-1)

    def box_volume(self) -> float:
        return self.box_len ** self.dim_h

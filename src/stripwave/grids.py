"""Horizontal frequency lattice and vertical Chebyshev grid.

The horizontal domain is a periodic box of side ``box_len`` standing in for
the whole plane; fields are Fourier series over the lattice xi = j/L with the
convention f(x) = sum_xi fhat(xi) exp(2 pi i xi . x), so d/dx_1 acts as
multiplication by 2 pi i xi_1.  The vertical interval [0, b] carries
Chebyshev-Gauss-Lobatto nodes (both endpoints included), the associated
spectral differentiation matrix, and Clenshaw-Curtis quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def barycentric_weights_lobatto(n: int) -> np.ndarray:
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class VerticalGrid:
    """Chebyshev-Gauss-Lobatto grid on [0, depth], nodes ascending."""

    depth: float
    count: int
    # derived from depth and count, so equality and hashing leave them out
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    diff: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.depth < np.inf:
            raise ValueError("depth must be positive and finite")
        if not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.count < 4:
            raise ValueError("need at least four vertical nodes")
        n = self.count - 1
        x = chebyshev_lobatto(n)                     # descending on [-1, 1]
        z = self.depth * (1.0 - x) / 2.0             # ascending on [0, depth]
        D = -(2.0 / self.depth) * chebyshev_diff_matrix(n)
        w = (self.depth / 2.0) * clenshaw_curtis_weights(n)
        object.__setattr__(self, "nodes", z)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "diff", D)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integral over [0, depth]; values indexed by node on the last axis."""
        return values @ self.weights

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
        w = barycentric_weights_lobatto(self.count - 1) / np.where(hit, 1.0, diffs)
        rows = w / w.sum(axis=-1, keepdims=True)
        on_node = hit.any(axis=-1)
        rows[on_node] = hit[on_node]
        return rows

    def interpolate(self, values: np.ndarray, z: float) -> np.ndarray:
        """Barycentric evaluation at a point z in [0, depth], last axis = node."""
        return values @ self.interp_weights(z)


@dataclass(frozen=True)
class FrequencyGrid:
    """Periodic lattice {j/L} per horizontal direction, FFT ordering."""

    dim_h: int
    box_len: float
    modes: int

    def __post_init__(self):
        if self.dim_h not in (1, 2):
            raise ValueError("dim_h must be 1 or 2")
        if not 0 < self.box_len < np.inf:
            raise ValueError("box_len must be positive and finite")
        if not isinstance(self.modes, (int, np.integer)):
            raise ValueError(f"modes must be an integer, got {self.modes!r}")
        if self.modes < 4 or self.modes % 2:
            raise ValueError("modes must be even and at least 4")

    @property
    def freq_shape(self) -> tuple:
        return (self.modes,) * self.dim_h

    @property
    def phys_shape(self) -> tuple:
        return (self.modes,) * self.dim_h

    @property
    def spacing(self) -> float:
        return 1.0 / self.box_len

    @property
    def xi_max(self) -> float:
        return self.modes / (2.0 * self.box_len)

    def xi_axis(self) -> np.ndarray:
        """1-D lattice values in FFT order (Nyquist at +modes/(2L))."""
        j = np.fft.fftfreq(self.modes, d=1.0 / self.modes)
        j[self.modes // 2] = self.modes // 2
        return j / self.box_len

    def xi_vectors(self) -> np.ndarray:
        """Array of shape freq_shape + (dim_h,) with the lattice vectors."""
        ax = self.xi_axis()
        if self.dim_h == 1:
            return ax[:, None]
        X1, X2 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([X1, X2], axis=-1)

    def xi_magnitude(self) -> np.ndarray:
        v = self.xi_vectors()
        return np.sqrt((v ** 2).sum(axis=-1))

    def nodes_1d(self) -> np.ndarray:
        return self.box_len * np.arange(self.modes) / self.modes

    def phys_points(self) -> np.ndarray:
        """Collocation points, shape phys_shape + (dim_h,)."""
        x = self.nodes_1d()
        if self.dim_h == 1:
            return x[:, None]
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return np.stack([X1, X2], axis=-1)

    def negate_index(self, idx: tuple) -> tuple:
        """Lattice index of -xi (Nyquist is its own negative, mod aliasing)."""
        return tuple((-i) % self.modes for i in idx)

    def half_mask(self) -> np.ndarray:
        """The half lattice: True at idx iff idx <= negate_index(idx) in
        lexicographic order.

        This picks one index of every +-xi pair, plus the self-paired ones
        (xi = 0 and the Nyquist indices).  For real fields the values on the
        other half are the complex conjugates of these.  The per-frequency
        solves visit these frequencies, in the order of np.nonzero.
        """
        j = np.arange(self.modes)
        neg = (-j) % self.modes
        if self.dim_h == 1:
            return j <= neg
        return (j < neg)[:, None] | ((j == neg)[:, None] & (j <= neg)[None, :])

    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the 2/3 rule (per axis |j| <= modes//3)."""
        j = np.rint(np.fft.fftfreq(self.modes, d=1.0 / self.modes)).astype(int)
        keep = np.abs(j) <= self.modes // 3
        if self.dim_h == 1:
            return keep
        return np.logical_and.outer(keep, keep)

    def cell_volume(self) -> float:
        return (self.box_len / self.modes) ** self.dim_h

    def box_volume(self) -> float:
        return self.box_len ** self.dim_h

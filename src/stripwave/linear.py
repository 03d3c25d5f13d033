"""The linearized operator about the flat quiescent state, and its inverse.

Forward map (all derivatives spectral horizontally, collocation vertically):

    f = -gamma d1 u + grad p - mu (lap u + grad div u) + grav (grad' eta, 0)
    g = div u
    l = -gamma d1 psi - kappa lap psi
    k = (p I - mu D u) e_n + (sigma1 grad' psi, sigma0 lap' eta)   on the top
    h = u_n + gamma d1 eta                                         on the top
    m = kappa dn psi                                               on the top

The inverse runs in two stages that never form a coupled global system.
First the free surface: the data pair against the adjoint response symbols,

    pairing(xi) = int_0^b fhat . conj(om_v) - ghat conj(om_q)
                  + lhat conj(om_temp) dx_n
                  - khat . conj(om_v|top) + mhat conj(om_temp|top) + hhat,

and etahat = pairing/rho away from the zero mode.  Second, the surface terms are
subtracted from the data and the remaining transported Stokes-heat problem
(transport speed -gamma, temperature-to-stress coupling sigma1 in the
tangential stress row) is solved frequency by frequency through the
six-component boundary value problem.  The vertical-velocity trace condition
is never imposed; it is recovered through the compatibility identity, which
is the content of the surjectivity construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RhoVanishing
from .fields import (FieldTuple, SpectralField, SurfaceSpectral, YData,
                     conjugate_mirror, reflect)
from .grids import FrequencyGrid, VerticalGrid
from .norms import sobolev_norm, x_norm
from .odesystem import (DEFAULT_COND_LIMIT, DEFAULT_SPLIT, FrequencySolver,
                        SymbolTable, forcing_rows, transverse_factor,
                        transverse_solve)
from .ops import horiz_deriv, on_lattice
from .params import PhysicalParams


@dataclass
class LinearState(FieldTuple):
    """Solution tuple (u, psi, p, eta) in spectral representation."""

    u: SpectralField
    psi: SpectralField
    pres: SpectralField
    eta: SurfaceSpectral
    vector_parts = ("u",)

    @classmethod
    def zeros(cls, grid, vgrid):
        n = grid.dim_h + 1
        return cls(SpectralField.zeros(grid, vgrid, n),
                   SpectralField.zeros(grid, vgrid, 1),
                   SpectralField.zeros(grid, vgrid, 1),
                   SurfaceSpectral.zeros(grid, 1))

    def bottom_trace_defect(self) -> float:
        return float(max(np.abs(self.u.data[..., 0]).max(),
                         np.abs(self.psi.data[..., 0]).max()))

    def enforce_real(self):
        for part in self.parts():
            part.enforce_real()
        self.eta.data[(slice(None),) + (0,) * self.grid.dim_h] = 0.0
        return self


def state_norm(state: LinearState) -> float:
    """Graph norm: bulk orders 2, 2, 1 and the anisotropic surface norm."""
    pieces = [
        sobolev_norm(state.u, 2),
        sobolev_norm(state.psi, 2),
        sobolev_norm(state.pres, 1),
        x_norm(state.eta, 2.5),
    ]
    return float(np.sqrt(sum(p * p for p in pieces)))


# ---------------------------------------------------------------------------
# Forward application
# ---------------------------------------------------------------------------

def _unit_xi(grid: FrequencyGrid):
    """xi/|xi| per lattice point; at xi = 0 the first horizontal axis."""
    mag = np.sqrt(grid.xi2)
    unit = grid.xi_vectors / np.where(mag > 0, mag, 1.0)[..., None]
    unit[(0,) * (grid.dim_h + 1)] = 1.0
    return unit, mag


def apply_linear_operator(state: LinearState, p: PhysicalParams) -> YData:
    grid, vgrid = state.grid, state.vgrid
    n = grid.dim_h + 1
    u, psi, pres, eta = state.u.data, state.psi.data, state.pres.data, state.eta.data

    def dh(arr, ax):
        return horiz_deriv(arr, grid, ax)

    du_n = vgrid.differentiate(u)
    g = du_n[n - 1:n].copy()
    for ax in range(grid.dim_h):
        g = g + dh(u[ax:ax + 1], ax)

    lap_u = vgrid.differentiate(du_n)
    # |2 pi xi|^2 as the squares of horiz_deriv's factors
    xi2 = sum(on_lattice((2.0 * np.pi * xi) ** 2, u.ndim, 1 + ax)
              for ax, xi in enumerate(grid.xi_axes))
    lap_u = lap_u - xi2 * u

    grad_g = np.concatenate([dh(g, ax) for ax in range(grid.dim_h)]
                            + [vgrid.differentiate(g)], axis=0)

    grad_p = np.concatenate([dh(pres, ax) for ax in range(grid.dim_h)]
                            + [vgrid.differentiate(pres)], axis=0)

    f = -p.gamma * dh(u, 0) + grad_p - p.mu * (lap_u + grad_g)
    for ax in range(grid.dim_h):
        f[ax] = f[ax] + p.grav * dh(eta, ax)[0][..., None]

    dpsi_n = vgrid.differentiate(psi)
    lap_psi = vgrid.differentiate(dpsi_n) - xi2 * psi
    l = -p.gamma * dh(psi, 0) - p.kappa * lap_psi

    # surface rows (top node is the last one)
    k = np.zeros((n,) + grid.freq_shape, dtype=complex)
    for ax in range(grid.dim_h):
        k[ax] = (-p.mu * (du_n[ax, ..., -1] + dh(u[n - 1:n], ax)[0, ..., -1])
                 + p.sigma1 * dh(psi, ax)[0, ..., -1])
    lap_eta = sum(dh(dh(eta, ax), ax) for ax in range(grid.dim_h))[0]
    k[n - 1] = (pres[0, ..., -1] - 2.0 * p.mu * du_n[n - 1, ..., -1]
                + p.sigma0 * lap_eta)

    h = u[n - 1:n, ..., -1] + p.gamma * dh(eta, 0)
    m = p.kappa * dpsi_n[0:1, ..., -1]

    return YData(*(SpectralField(grid, vgrid, a) for a in (f, g, l)),
                 *(SurfaceSpectral(grid, a) for a in (k, h, m)))


# ---------------------------------------------------------------------------
# Compatibility functional and the multiplier solve
# ---------------------------------------------------------------------------

def _long_amplitude(vec: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Contract the horizontal part of an n-vector field with i xi/|xi|."""
    unit, _ = _unit_xi(grid)
    out = np.zeros(vec.shape[1:], dtype=complex)
    for j in range(grid.dim_h):
        uj = unit[..., j]
        out = out + 1j * uj.reshape(uj.shape + (1,) * (vec.ndim - 1 - uj.ndim)) * vec[j]
    return out


def compatibility_functional(data: YData, table: SymbolTable) -> SurfaceSpectral:
    """Per-frequency pairing of the data against the adjoint response symbols."""
    grid, vgrid = data.grid, data.vgrid
    n = grid.dim_h + 1
    w = vgrid.weights
    y_long, y_vn, y_temp, y_q = (np.conj(table.y[..., row, :]) for row in range(4))

    f_long = _long_amplitude(data.f.data, grid)
    bulk = (f_long * y_long + data.f.data[n - 1] * y_vn
            - data.g.data[0] * y_q + data.l.data[0] * y_temp)
    xi_val = bulk @ w

    k_long = _long_amplitude(data.k.data, grid)
    xi_val -= k_long * y_long[..., -1] + data.k.data[n - 1] * y_vn[..., -1]
    xi_val += data.m.data[0] * y_temp[..., -1]
    xi_val += data.h.data[0]
    return SurfaceSpectral(grid, xi_val)


def solve_surface(pairing: SurfaceSpectral, table: SymbolTable) -> SurfaceSpectral:
    """etahat = pairing/rho at the table's solved frequencies off the zero
    mode; everywhere else etahat is zero.

    The zero-mode magnitude of the pairing is an incompatibility diagnostic
    available directly from its coefficients.  Raises RhoVanishing when a
    solved |rho| is at most 1e-13 times its certified lower-bound scale,
    which signals mis-assembled symbols, and ValueError when the pairing is
    nonzero off the zero mode where the table has no symbol.
    """
    grid = pairing.grid
    p = table.params
    rho = table.rho
    mag2 = grid.xi2
    scale = p.grav + p.sigma0 * 4.0 * np.pi ** 2 * mag2 \
        + 2.0 * np.pi * np.abs(p.gamma * grid.xi_vectors[..., 0])
    nz = (mag2 > 0) & table.solved
    for error, what, at in (
            (RhoVanishing, "|rho| ~ 0", (np.abs(rho) <= 1e-13 * scale) & nz),
            (ValueError, "no symbol for a nonzero pairing",
             (pairing.data[0] != 0) & (mag2 > 0) & ~table.solved)):
        if at.any():
            index = tuple(int(i) for i in np.argwhere(at)[0])
            raise error(f"{what} at lattice index {index}")
    eta = np.zeros(grid.freq_shape, dtype=complex)
    eta[nz] = pairing.data[0][nz] / rho[nz]
    return SurfaceSpectral(grid, eta)


# ---------------------------------------------------------------------------
# Full inverse
# ---------------------------------------------------------------------------

class LinearInverter:
    """Caches the per-frequency machinery for repeated inversions.

    An inversion first extends its symbol table to the half-lattice
    frequencies where some part of its data is nonzero at xi or -xi; the
    pairing is zero, and no symbol is needed, at every other one.  It then
    solves only the half-lattice frequencies where its data, less the
    surface terms, is nonzero (in dim_h = 2 the transverse forcing counts
    too) and writes zero at the others.  It prepares one FrequencyStack at
    exactly those frequencies and, in dim_h = 2, the transverse factors (a
    diagonal scaling each, no LU) where the transverse forcing is nonzero,
    each again at the union when its data reaches outside them.  At xi = 0
    the longitudinal direction is the first horizontal axis and, in
    dim_h = 2, the transverse one the second.  Each inversion fills
    ``backend`` and ``cond``, lattice arrays shaped like SymbolTable's: the
    backend of each solved frequency and its condition estimate, None and
    0 where no solve was made; a transverse bound beyond the limit raises.
    """

    def __init__(self, table: SymbolTable, split: float = DEFAULT_SPLIT,
                 cond_limit: float = DEFAULT_COND_LIMIT):
        self.table = table
        p = table.params
        self.solver = FrequencySolver(p, table.vgrid, -p.gamma, p.sigma1, 0.0,
                                      split=split, cond_limit=cond_limit)
        self.backend = None
        self.cond = None
        # the half-lattice frequencies of the stack and of the transverse factors
        self._prepared = np.zeros(int(table.grid.half_mask.sum()), dtype=bool)
        self._factored = self._prepared.copy()
        self._stack = self._factors = None

    def _solve_half(self, data: YData, fd, kd, out: LinearState):
        """The forced problems at the half-lattice frequencies with data as
        one FrequencyStack solve; writes u, psi and pres there into out."""
        p = self.table.params
        grid, vgrid = data.grid, data.vgrid
        n = grid.dim_h + 1
        unit, mag = _unit_xi(grid)
        f_long = _long_amplitude(fd, grid)
        k_long = _long_amplitude(kd, grid)

        half = np.nonzero(grid.half_mask)
        xis = grid.xi_vectors[half]
        unit = unit[half]                                 # (K, dim_h)
        z, d = forcing_rows(p, vgrid, 2.0 * np.pi * mag[half], f_long[half],
                            fd[n - 1][half], data.g.data[0][half],
                            data.l.data[0][half], k_long[half], kd[n - 1][half],
                            data.m.data[0][half])
        live = z.reshape(len(z), -1).any(axis=1) | d.any(axis=1)
        if grid.dim_h == 2:
            perp = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
            f_perp = perp[:, 0, None] * fd[0][half] + perp[:, 1, None] * fd[1][half]
            k_perp = perp[:, 0] * kd[0][half] + perp[:, 1] * kd[1][half]
            transverse = f_perp.any(axis=1) | (k_perp != 0)
            live |= transverse
            if (transverse & ~self._factored).any():
                factored = self._factored | transverse
                self._factors = transverse_factor(xis[factored], p, vgrid,
                                                  -p.gamma, self.solver.cond_limit)
                self._factored = factored
        if (live & ~self._prepared).any():
            prepared = self._prepared | live
            self._stack = self.solver.prepare(xis[prepared])
            self._prepared = prepared
        at = self._prepared
        z, d = z[at], d[at]                 # the full arrays are freed here
        Y = np.zeros((len(xis), 6, vgrid.count), dtype=complex)
        backend, cond = np.full(grid.freq_shape, None, dtype=object), np.zeros(grid.freq_shape)
        if live.any():
            Y[at], Y[~live] = self._stack.solve(z, d), 0.0
            solved, kept = tuple(h[live] for h in half), live[at]
            backend[solved], cond[solved] = self._stack.backend[kept], self._stack.cond[kept]
        self.backend, self.cond = (conjugate_mirror(a, grid, 0) for a in (backend, cond))

        u = out.u.data
        for j in range(grid.dim_h):
            u[(j,) + half] = -1j * Y[:, 0] * unit[:, j, None]
        u[(n - 1,) + half] = Y[:, 1]
        if grid.dim_h == 2 and transverse.any():
            # beta perp is added only where the transverse forcing is nonzero
            at = self._factored
            beta = transverse_solve(self._factors, f_perp[at], k_perp[at])[transverse[at]]
            u[(slice(0, 2),) + tuple(h[transverse] for h in half)] += \
                beta * perp[transverse].T[..., None]
        out.psi.data[(0,) + half] = Y[:, 2]
        out.pres.data[(0,) + half] = Y[:, 3]

    def invert(self, data: YData) -> LinearState:
        table = self.table
        p = table.params
        grid, vgrid = data.grid, data.vgrid
        if (grid, vgrid) != (table.grid, table.vgrid):
            raise ValueError(f"data on {grid}, {vgrid}; the symbol table "
                             f"is built for {table.grid}, {table.vgrid}")
        n = grid.dim_h + 1

        # the symbols where some part of the data is nonzero at xi or -xi,
        # which differs from xi only on the self-paired planes
        live = np.any([(part.data != 0).any(axis=0).reshape(grid.freq_shape + (-1,))
                       .any(axis=-1) for part in data.parts()], axis=0)
        live[[0, -1]] |= reflect(live[[0, -1]], grid, 0)
        table.solve(live)
        pairing = compatibility_functional(data, table)
        eta = solve_surface(pairing, table)

        # subtract the surface terms from the data
        fd = data.f.data.copy()
        for ax in range(grid.dim_h):
            fd[ax] = fd[ax] - p.grav * horiz_deriv(eta.data, grid, ax)[0][..., None]
        kd = data.k.data.copy()
        lap_eta = sum(horiz_deriv(horiz_deriv(eta.data, grid, ax), grid, ax)
                      for ax in range(grid.dim_h))[0]
        kd[n - 1] = kd[n - 1] - p.sigma0 * lap_eta

        out = LinearState.zeros(grid, vgrid)
        out.eta = eta
        self._solve_half(data, fd, kd, out)
        for part in (out.u, out.psi, out.pres):
            part.data = conjugate_mirror(part.data, grid)
        return out


def make_random_state(grid: FrequencyGrid, vgrid: VerticalGrid, seed: int = 0,
                      mode_decay: float = 0.7, kmax: int = 6,
                      jmax: int | None = None,
                      eta_scale: float = 1.0) -> LinearState:
    """Smooth random admissible state: bottom traces vanish, eta mean-zero."""
    rng = np.random.default_rng(seed)
    if jmax is None:
        jmax = min(grid.modes // 4, 8)
    st = LinearState.zeros(grid, vgrid)
    z = vgrid.nodes / vgrid.depth
    basis0 = np.stack([np.sin((k + 0.5) * np.pi * z) for k in range(kmax)])
    basisf = np.stack([np.cos(k * np.pi * z) for k in range(kmax)])

    if grid.dim_h == 1:
        j = np.arange(1, jmax + 1)
        idx, jm = (j,), j
    else:
        j1, j2 = np.meshgrid(np.arange(jmax + 1), np.arange(-jmax, jmax + 1),
                             indexing="ij")
        keep = (j1 > 0) | (j2 > 0)
        j1, j2 = j1[keep], j2[keep]
        idx, jm = (j1, j2 % grid.modes), np.hypot(j1, j2)

    def draw(count):
        # the (re, im) pairs of consecutive scalar draws
        return rng.standard_normal(2 * count).view(complex)

    def fill(arr, comps, basis):
        # amplitudes in the order of the loops comps > modes > k; the terms
        # are summed in the order k = 0, 1, ... from +0, as into arr
        amp = draw(comps * len(jm) * kmax).reshape(comps, len(jm), kmax)
        amp = amp * np.exp(-mode_decay * jm[:, None] - 0.5 * np.arange(kmax))
        total = np.zeros(amp.shape[:2] + basis.shape[1:], dtype=complex)
        for k in range(kmax):
            total += amp[..., k, None] * basis[k]
        np.add.at(arr, (np.arange(comps)[:, None],) + idx, total)

    fill(st.u.data, grid.dim_h + 1, basis0)
    fill(st.psi.data, 1, basis0)
    fill(st.pres.data, 1, basisf)
    st.eta.data[(0,) + idx] = eta_scale * np.exp(-mode_decay * jm) * draw(len(jm))
    # half of each draw at xi and its conjugate at -xi: enforce_real halves
    # the plane k1 = 0, and the other rows are halved here
    for part in st.parts():
        part.data[:, 1:] *= 0.5
    st.enforce_real()
    return st

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
                     conjugate_mirror, gather_index, support)
from .grids import FrequencyGrid, VerticalGrid
from .norms import sobolev_norm, x_norm
from .odesystem import FrequencySolver, SymbolTable, forcing_rows, transverse_solve
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

def _unit_xi(grid: FrequencyGrid, at):
    """xi/|xi| (L, dim_h) and |xi| at the flat lattice indices ``at``; at 0 the first axis."""
    mag = np.sqrt(grid.xi2.reshape(-1)[at])
    unit = grid.xi_vectors.reshape(-1, grid.dim_h)[at] / np.where(mag > 0, mag, 1.0)[:, None]
    unit[mag == 0, 0] = 1.0
    return unit, mag


def apply_linear_operator(state: LinearState, p: PhysicalParams) -> YData:
    """The data tuple L(state), computed only where some part of the state
    is nonzero (``fields.support``) and exactly zero at every other frequency."""
    grid, vgrid = state.grid, state.vgrid
    n = grid.dim_h + 1
    at = gather_index(support(state))
    u, psi, pres, eta = (part.rows(at) for part in state.parts())
    xi = grid.xi_vectors.reshape(-1, grid.dim_h)[at].T
    factors = [2j * np.pi * xi_ax for xi_ax in xi]

    def dh(arr, ax):
        return arr * factors[ax].reshape((-1,) + (1,) * (arr.ndim - 2))

    du_n = vgrid.differentiate(u)
    g = du_n[n - 1:n].copy()
    for ax in range(grid.dim_h):
        g += dh(u[ax:ax + 1], ax)
    # |2 pi xi|^2 as the squares of the factors 2 pi i xi_ax of horiz_deriv
    xi2 = sum((2.0 * np.pi * xi_ax) ** 2 for xi_ax in xi)[:, None]

    # surface rows (top node is the last one)
    k = np.zeros((n, eta.shape[1]), dtype=complex)
    for ax in range(grid.dim_h):
        k[ax] = (-p.mu * (du_n[ax, :, -1] + u[n - 1, :, -1] * factors[ax])
                 + p.sigma1 * (psi[0, :, -1] * factors[ax]))
    lap_eta = sum(dh(dh(eta, ax), ax) for ax in range(grid.dim_h))[0]
    k[n - 1] = (pres[0, :, -1] - 2.0 * p.mu * du_n[n - 1, :, -1]
                + p.sigma0 * lap_eta)
    h = u[n - 1:n, :, -1] + p.gamma * dh(eta, 0)

    # f = -gamma d1 u + grad p - mu (lap u + grad g) + grav grad' eta, summed
    # in place in that order, a gradient one component at a time
    lap_u = vgrid.differentiate(du_n)
    lap_u -= xi2 * u
    f = dh(u, 0)
    f *= -p.gamma
    for ax in range(grid.dim_h):
        f[ax] += dh(pres, ax)[0]
        lap_u[ax] += dh(g, ax)[0]
    f[n - 1] += vgrid.differentiate(pres[0])
    lap_u[n - 1] += vgrid.differentiate(g[0])
    lap_u *= p.mu
    f -= lap_u
    for ax in range(grid.dim_h):
        f[ax] += p.grav * dh(eta, ax)[0][:, None]

    dpsi_n = vgrid.differentiate(psi)
    lap_psi = vgrid.differentiate(dpsi_n) - xi2 * psi
    l = -p.gamma * dh(psi, 0) - p.kappa * lap_psi
    m = p.kappa * dpsi_n[0:1, :, -1]

    out = YData.zeros(grid, vgrid)
    for part, values in zip(out.parts(), (f, g, l, k, h, m)):
        part.rows()[:, at] = values
    return out


# ---------------------------------------------------------------------------
# Compatibility functional and the multiplier solve
# ---------------------------------------------------------------------------

def _long_amplitude(vec: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Contract the horizontal part of gathered n-vectors, shape (n, L, ...),
    with i xi/|xi|, given as ``unit`` (L, dim_h)."""
    out = np.zeros(vec.shape[1:], dtype=complex)
    for j in range(unit.shape[1]):
        out = out + 1j * unit[:, j].reshape((-1,) + (1,) * (vec.ndim - 2)) * vec[j]
    return out


def _check_grids(table: SymbolTable, *grids):
    """ValueError unless the data's lattice (and vertical grid) are the table's."""
    if grids != (table.grid, table.vgrid)[:len(grids)]:
        raise ValueError(f"data on {', '.join(map(str, grids))}; the symbol table "
                         f"is built for {table.grid}, {table.vgrid}")


def compatibility_functional(data: YData, table: SymbolTable) -> SurfaceSpectral:
    """Per-frequency pairing of the data against the adjoint response symbols
    at the half-lattice frequencies where some part of the data is nonzero,
    zero at the others, completed by ``conjugate_mirror``: the data is read
    on grid.half_mask alone.  ValueError if the table is on other grids."""
    grid, vgrid = data.grid, data.vgrid
    _check_grids(table, grid, vgrid)
    n = grid.dim_h + 1
    at = gather_index(support(data) & grid.half_mask)
    f, g, l, k, h, m = (part.rows(at) for part in data.parts())
    y = table.y.reshape((-1,) + table.y.shape[grid.dim_h:])
    y_long, y_vn, y_temp, y_q = (np.conj(y[at, row]) for row in range(4))
    unit, _ = _unit_xi(grid, at)

    f_long = _long_amplitude(f, unit)
    bulk = f_long * y_long + f[n - 1] * y_vn - g[0] * y_q + l[0] * y_temp
    xi_val = bulk @ vgrid.weights

    k_long = _long_amplitude(k, unit)
    xi_val -= k_long * y_long[..., -1] + k[n - 1] * y_vn[..., -1]
    xi_val += m[0] * y_temp[..., -1]
    xi_val += h[0]
    pairing = SurfaceSpectral.zeros(grid)
    pairing.rows()[0, at] = xi_val
    pairing.data = conjugate_mirror(pairing.data, grid)
    return pairing


def solve_surface(pairing: SurfaceSpectral, table: SymbolTable) -> SurfaceSpectral:
    """etahat = pairing/rho at the table's solved frequencies off the zero
    mode; everywhere else etahat is zero.

    The zero-mode magnitude of the pairing is an incompatibility diagnostic
    available directly from its coefficients.  Raises RhoVanishing when a
    solved |rho| is at most 1e-13 times its certified lower-bound scale,
    which signals mis-assembled symbols, and ValueError when the pairing is
    nonzero off the zero mode where the table has no symbol, or lies on
    another lattice than the table's.
    """
    grid = pairing.grid
    _check_grids(table, grid)
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

    An inversion reads its data on the half lattice alone and completes each
    part of its result by ``conjugate_mirror``.  It solves its symbol table
    at the half-lattice frequencies where some part of the data is nonzero,
    forms the data less the surface terms, and the forcing, there, solves
    those where the forcing is nonzero (in dim_h = 2 the transverse forcing
    counts too) and writes zero at the others.  In dim_h = 2 it first solves
    the transverse problems (a diagonal scaling each, no LU) where the
    transverse forcing is nonzero, so an ill-conditioned one raises before
    any preparation.  It keeps one FrequencyStack, prepared at exactly the
    frequencies the last inversion solved, in lattice order, and prepares it again when an inversion solves
    any other set.  At xi = 0 the longitudinal direction is the first
    horizontal axis and, in dim_h = 2, the transverse one the second.  Each
    inversion fills ``backend`` and ``cond``, lattice arrays shaped like
    SymbolTable's: the backend of each solved frequency and its condition
    estimate, None and 0 where no solve was made; a cond_1(K) or transverse
    bound beyond odesystem.COND_LIMIT raises.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        p = table.params
        self.solver = FrequencySolver(p, table.vgrid, -p.gamma, p.sigma1, 0.0)
        self.backend = None
        self.cond = None
        self._stack = None

    def _solve_half(self, data: YData, at, out: LinearState):
        """The forced problems, data less out.eta's surface terms, at the
        flat half-lattice indices ``at`` as one FrequencyStack solve; writes
        u, psi and pres there into out."""
        p, grid, vgrid = self.table.params, data.grid, data.vgrid
        n = grid.dim_h + 1
        # flat indices as an array: fd and kd are copies
        flat = np.arange(grid.xi2.size)[at]
        xis = grid.xi_vectors.reshape(-1, grid.dim_h)[flat]
        unit, mag = _unit_xi(grid, flat)
        fd, kd, g, l, m = (part.rows(flat) for part in (data.f, data.k, data.g, data.l, data.m))
        eta = out.eta.rows()[0, flat]
        dh = [2j * np.pi * xi_ax for xi_ax in xis.T]
        for ax in range(grid.dim_h):
            fd[ax] = fd[ax] - p.grav * (eta * dh[ax])[..., None]
        kd[n - 1] = kd[n - 1] - p.sigma0 * sum(eta * d * d for d in dh)
        z, d = forcing_rows(p, vgrid, 2.0 * np.pi * mag, _long_amplitude(fd, unit),
                            fd[n - 1], g[0], l[0], _long_amplitude(kd, unit), kd[n - 1], m[0])
        live = z.any(axis=(1, 2)) | d.any(axis=1)
        if grid.dim_h == 2:
            perp = np.stack([-unit[:, 1], unit[:, 0]], axis=1)
            f_perp = perp[:, 0, None] * fd[0] + perp[:, 1, None] * fd[1]
            k_perp = perp[:, 0] * kd[0] + perp[:, 1] * kd[1]
            transverse = f_perp.any(axis=1) | (k_perp != 0)
            live |= transverse
            if transverse.any():
                beta, _ = transverse_solve(xis[transverse], p, vgrid, -p.gamma,
                                           f_perp[transverse], k_perp[transverse])
        Y = np.zeros((len(flat), 6, vgrid.count), dtype=complex)
        backend, cond = np.full(grid.freq_shape, None, dtype=object), np.zeros(grid.freq_shape)
        if live.any():
            if self._stack is None or not np.array_equal(xis[live], self._stack.xis):
                self._stack = self.solver.prepare(xis[live])
            Y[live] = self._stack.solve(z[live], d[live])
            np.put(backend, flat[live], self._stack.backend)
            np.put(cond, flat[live], self._stack.cond)
        self.backend, self.cond = (conjugate_mirror(a, grid, 0) for a in (backend, cond))

        u = out.u.rows()
        for j in range(grid.dim_h):
            u[j, at] = -1j * Y[:, 0] * unit[:, j, None]
        u[n - 1, at] = Y[:, 1]
        if grid.dim_h == 2 and transverse.any():
            # beta perp is added only where the transverse forcing is nonzero
            u[:2, flat[transverse]] += beta * perp[transverse].T[..., None]
        out.psi.rows()[0, at] = Y[:, 2]
        out.pres.rows()[0, at] = Y[:, 3]

    def invert(self, data: YData) -> LinearState:
        table = self.table
        grid, vgrid = data.grid, data.vgrid
        _check_grids(table, grid, vgrid)
        live = support(data) & grid.half_mask
        table.solve(live)
        out = LinearState.zeros(grid, vgrid)
        out.eta = solve_surface(compatibility_functional(data, table), table)
        self._solve_half(data, gather_index(live), out)
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
        # are summed in the order k = 0, 1, ... from +0
        amp = draw(comps * len(jm) * kmax).reshape(comps, len(jm), kmax)
        amp = amp * np.exp(-mode_decay * jm[:, None] - 0.5 * np.arange(kmax))
        total = np.zeros(amp.shape[:2] + basis.shape[1:], dtype=complex)
        for k in range(kmax):
            total += amp[..., k, None] * basis[k]
        arr[(slice(None),) + idx] = np.where((idx[0] > 0)[:, None], 0.5 * total, total)

    # half of each draw at xi and its conjugate at -xi: enforce_real halves
    # the plane k1 = 0, and the rows k1 > 0 are halved here
    fill(st.u.data, grid.dim_h + 1, basis0)
    fill(st.psi.data, 1, basis0)
    fill(st.pres.data, 1, basisf)
    eta = eta_scale * np.exp(-mode_decay * jm) * draw(len(jm))
    st.eta.data[(0,) + idx] = np.where(idx[0] > 0, 0.5 * eta, eta)
    st.enforce_real()
    return st

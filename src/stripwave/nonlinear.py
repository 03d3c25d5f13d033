"""Full nonlinear residual of the flattened traveling-wave system and the
small-data fixed-point solve.

The residual stacks the flattened field equations and boundary conditions
against the composed forcing; its Frechet derivative at the rest state is
exactly the linear operator of :mod:`stripwave.linear`, which makes the
frozen-Jacobian iteration

    X_{k+1} = X_k - Upsilon^{-1} residual(X_k)

a contraction for small forcing.  Slot signs are normalized so that the
derivative identity holds in every component (the stress and heat-flux rows
are stated with the opposite orientation in some formulations; flipping them
changes neither the zero set nor the solution).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import AliasingWarning, ConfigError, Diverged, NotConverged, PointOutsideDomain
from .fields import SpectralField, SurfaceSpectral, YData
from .geometry import build_flattening, flattening_points, slope_curvature
from .grids import FrequencyGrid, VerticalGrid
from .linear import LinearState, LinearInverter
from .norms import ydata_norm
from .odesystem import SymbolTable
from .ops import (dealias, dealias_tail_fraction, horiz_deriv, lattice_sum,
                  to_coeff, to_phys)
from .params import ConstitutiveSet, PhysicalParams, validate_params


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

@dataclass
class ForcingData:
    """Traveling-frame sources at unit scale; ``amplitude`` multiplies all.

    Each is a callable of Eulerian points S + (n,): ``f``, returning (n,) + S, at
    the images F_eta(x) of the strip nodes, ``t`` ((n, n) + S) and ``h`` (S) at the
    free surface (x', b + eta).  F_eta fixes x': a source of pts[..., :-1] is flat.
    """

    f: object = None
    t: object = None
    h: object = None
    amplitude: float = 1.0

    def is_zero(self) -> bool:
        return self.amplitude == 0.0 or all(s is None for s in (self.f, self.t, self.h))

    def validate(self, grid: FrequencyGrid, vgrid: VerticalGrid):
        """Check each source at rest (eta = 0), ``f`` at (x', x_n), ``t`` and ``h`` at
        (x', b): ConfigError names the first whose values are not finite, not of its
        shape, or keep over 1e-10 of their energy beyond the 2/3 cutoff."""
        n = grid.dim_h + 1
        pts = flattening_points(np.zeros(grid.phys_shape), grid, vgrid)
        for name, at, comps in (("f", pts, (n,)), ("t", pts[..., -1, :], (n, n)),
                                ("h", pts[..., -1, :], ())):
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name)(at), dtype=float)
            if arr.shape != comps + at.shape[:-1] or not np.isfinite(arr).all():
                raise ConfigError(f"forcing source {name} must return finite values "
                                  f"of shape {comps + at.shape[:-1]}, got {arr.shape}")
            tail = dealias_tail_fraction(to_coeff(arr.reshape((-1,) + at.shape[:-1]), grid), grid)
            if tail > 1e-10:
                raise ConfigError(f"forcing source {name} has spectral tail {tail:.2e} "
                                  "beyond the 2/3 cutoff (limit 1.0e-10)")


def make_forcing_preset(name: str, amplitude: float, grid: FrequencyGrid,
                        depth: float, mode_index: int = 3) -> ForcingData:
    """Built-in forcing families used by the command line and the tests.

    The forced lattice mode must survive the 2/3 rule: 0 <= mode_index <=
    modes // 3.
    """
    if not 0 <= mode_index <= grid.modes // 3:
        raise ConfigError(f"forcing mode_index {mode_index} outside 0 .. the 2/3 "
                          f"cutoff {grid.modes // 3} of {grid.modes} modes")
    xi0 = mode_index / grid.box_len
    n = grid.dim_h + 1

    def cosine(pts):
        return np.cos(2.0 * np.pi * xi0 * pts[..., 0])

    def normal_stress(pts):
        out = np.zeros((n, n) + pts.shape[:-1])
        out[n - 1, n - 1] = cosine(pts)
        return out

    def bulk_force(pts):
        prof = np.exp(-((pts[..., -1] - depth / 2.0) / (depth / 4.0)) ** 2)
        out = np.zeros((n,) + pts.shape[:-1])
        out[0] = np.cos(2.0 * np.pi * xi0 * pts[..., 0]) * prof
        return out

    if name == "heat-only":
        return ForcingData(h=cosine, amplitude=amplitude)
    if name == "stress-only":
        return ForcingData(t=normal_stress, amplitude=amplitude)
    if name == "bulk-force":
        return ForcingData(f=bulk_force, amplitude=amplitude)
    if name == "mixed":
        return ForcingData(f=bulk_force, t=normal_stress, h=cosine,
                           amplitude=amplitude / 3.0)
    raise ConfigError(f"unknown forcing preset {name!r}")


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------

def nonlinear_residual(state: LinearState, forcing: ForcingData,
                       p: PhysicalParams, c: ConstitutiveSet) -> YData:
    """Residual slots at ``state``: bulk momentum ``f``, J div_A u ``g`` and
    heat ``l``; at the top node stress ``k`` (pressure, Gamma, curvature,
    Marangoni), kinematic ``h`` and heat flux ``m``.  The forcing sources
    are evaluated at the images of the strip nodes under the flattening map.

    Pseudospectral: derivatives act on dealiased coefficients, products on
    the collocation grid, and each slot is truncated by the 2/3 rule, with
    an AliasingWarning when over 1e-6 of its energy is cut.  Every
    derivative streams one real scalar field through ``grad_A`` and is
    summed into its slot at once.  Gamma must be symmetric (ConstitutiveSet),
    so each of its n(n+1)/2 distinct entries is differentiated once for both
    rows of div_A Gamma; a ``gamma_visc`` breaking this raises ConfigError.
    """
    grid, vgrid = state.grid, state.vgrid
    n = grid.dim_h + 1
    ff = build_flattening(state.eta, grid, vgrid)
    u = to_phys(state.u.data, grid)
    psi = to_phys(state.psi.data, grid)[0]
    pres = to_phys(state.pres.data, grid)[0]

    def grad_A(f):
        """d_i^A f = d_i f + A[i, n-1] d_n f, no d_i f at i = n-1, of a phys + (Nz,) field."""
        out = ff.a_last * vgrid.differentiate(f)
        coeff = dealias(to_coeff(f[None], grid), grid)
        for ax in range(n - 1):
            out[ax] += to_phys(horiz_deriv(coeff, grid, ax), grid)[0]
        return out

    grad_A_psi = grad_A(psi)
    du_A = np.stack([grad_A(u[comp]) for comp in range(n)], axis=1)
    # du_A[i, comp] = d_i^A u_comp; Gamma of the symmetrized twisted gradient
    gamma_p = np.asarray(c.gamma_visc(psi, du_A + np.swapaxes(du_A, 0, 1)))
    phi_p = np.asarray(c.phi_heat(psi, grad_A_psi))
    if not all(np.array_equal(gamma_p[i, j], gamma_p[j, i], equal_nan=True)
               for i in range(n) for j in range(i)):
        raise ConfigError("constitutive gamma_visc returned a non-symmetric Gamma")

    # div_A Gamma_j = d_i^A Gamma[i, j], div_A phi = d_j^A phi_j
    div_A_gamma = np.zeros((n,) + psi.shape)
    for i, j in ((i, j) for i in range(n) for j in range(i, n)):
        d = grad_A(gamma_p[i, j])
        div_A_gamma[j] += d[i]
        if i < j:
            div_A_gamma[i] += d[j]
    div_A_phi = sum(grad_A(phi_p[j])[j] for j in range(n))

    conv_u = np.einsum("j...,ji...->i...", u, du_A)           # u . grad_A u
    conv_psi = np.einsum("j...,j...->...", u, grad_A_psi)

    f_term = (-p.gamma * du_A[0] + conv_u + grad_A(pres) - div_A_gamma)
    grad_eta = ff.grad_eta_phys
    f_term[:n - 1] += p.grav * grad_eta[..., None]

    g_term = ff.j_field[..., None] * np.einsum("ii...->...", du_A)

    l_term = -p.gamma * grad_A_psi[0] + conv_psi + div_A_phi

    # surface rows (top node)
    Np = np.concatenate([-grad_eta, np.ones((1,) + grid.phys_shape)])
    normN = np.sqrt(1.0 + sum(g * g for g in grad_eta))
    curv = to_phys(slope_curvature(grad_eta, grid).data, grid)[0]
    psi_b = psi[..., -1]
    sigma_b = np.asarray(c.sigma_fn(psi_b))
    sigp_b = np.asarray(c.sigma_prime(psi_b))
    grad_sigma = sigp_b * grad_A_psi[..., -1]                  # (n, phys)
    nu = Np / normN
    sg_tan = grad_sigma - nu * np.einsum("i...,i...->...", nu, grad_sigma)

    gamma_b = gamma_p[..., -1]
    pres_b = pres[..., -1]
    k_term = (pres_b * Np - np.einsum("ij...,j...->i...", gamma_b, Np)
              + sigma_b * curv * Np + sg_tan * normN)

    h_term = np.einsum("i...,i...->...", u[..., -1], Np) \
        + p.gamma * grad_eta[0]

    m_term = -np.einsum("i...,i...->...", phi_p[..., -1], Np) / normN

    # composed forcing
    amp = forcing.amplitude
    if not forcing.is_zero():
        pts = flattening_points(ff.eta_phys, grid, vgrid)
        surf_pts = pts[..., -1, :]
        if forcing.f is not None:
            f_term -= amp * np.asarray(forcing.f(pts))
        if forcing.t is not None:
            k_term += amp * np.einsum("ij...,j...->i...", np.asarray(forcing.t(surf_pts)), Np)
        if forcing.h is not None:
            m_term -= amp * np.asarray(forcing.h(surf_pts))

    def pack(arr, ndim):
        """Dealiased coefficients of a slot with ``ndim`` axes counting its
        component axis; AliasingWarning when over 1e-6 of the energy is cut."""
        coeff = to_coeff(arr if arr.ndim == ndim else arr[None], grid)
        frac = dealias_tail_fraction(coeff, grid)
        # ignore roundoff-dominated slots: their spectra are white but tiny
        if frac > 1e-6 and float(np.abs(coeff).max()) * np.sqrt(frac) > 1e-12:
            warnings.warn(f"dealiased tail fraction {frac:.2e}", AliasingWarning)
        return dealias(coeff, grid)

    return YData(*(SpectralField(grid, vgrid, pack(t, n + 1)) for t in (f_term, g_term, l_term)),
                 *(SurfaceSpectral(grid, pack(t, n)) for t in (k_term, h_term, m_term)))


# ---------------------------------------------------------------------------
# Fixed-point solve
# ---------------------------------------------------------------------------

@dataclass
class SolveTrace:
    residuals: list = field(default_factory=list)
    contraction: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    state: LinearState | None = None
    amplitude_used: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "state"}


def suggested_amplitude_cap(p: PhysicalParams) -> float:
    return 1e-3 * min(1.0, p.depth, p.mu, p.kappa)


def picard_solve(forcing: ForcingData, p: PhysicalParams, c: ConstitutiveSet,
                 grid: FrequencyGrid, vgrid: VerticalGrid,
                 tol: float = 1e-9, maxiter: int = 50,
                 inverter: LinearInverter | None = None) -> SolveTrace:
    """Iterate X <- X - Upsilon^{-1} residual(X) from rest until the data-norm
    of the residual drops below ``tol``, with at most ``maxiter`` inversions
    by ``inverter`` (by default one on an empty SymbolTable).

    The forcing is solved at the amplitude given, or not at all: a contraction
    factor >= 1 three times in a row, or a residual norm that is not finite,
    raises Diverged (the latter naming the first slot whose coefficients are
    not finite, if one is), an exhausted budget NotConverged, each carrying
    the trace so far; ``trace.state`` is always the state whose residual is
    ``trace.residuals[-1]``.
    """
    bad = validate_params(p)
    if bad:
        raise ConfigError("; ".join(bad))
    forcing.validate(grid, vgrid)
    cap = suggested_amplitude_cap(p)
    trace = SolveTrace(amplitude_used=forcing.amplitude)
    if forcing.amplitude > cap:
        trace.diagnostics["amplitude_above_heuristic"] = cap
    if inverter is None:
        inverter = LinearInverter(SymbolTable(grid, vgrid, p))

    state = trace.state = LinearState.zeros(grid, vgrid)
    rising = 0
    for it in range(maxiter + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises Diverged below
            resid = nonlinear_residual(state, forcing, p, c)
            rn = ydata_norm(resid)
        trace.residuals.append(rn)
        trace.iterations = it
        if len(trace.residuals) > 1:
            prev = trace.residuals[-2]
            factor = rn / prev if prev > 0 else 0.0
            trace.contraction.append(factor)
            rising = rising + 1 if factor >= 1.0 else 0
        if not np.isfinite(rn):
            slots = [f.name for f, part in zip(fields(resid), resid.parts())
                     if not np.isfinite(part.data).all()]
            where = f", first not finite in slot {slots[0]}" if slots else ""
            raise Diverged(f"residual {rn} at iteration {it}{where}", trace=trace)
        if rn < tol:
            trace.converged = True
            return trace
        if rising >= 3:
            raise Diverged("contraction factor >= 1 for three consecutive steps",
                           trace=trace)
        if it < maxiter:
            state.axpy(-1.0, inverter.invert(resid))
            for part in state.parts():
                part.data = dealias(part.data, grid)
            state.enforce_real()
    raise NotConverged(f"residual {trace.residuals[-1]:.3e} after {maxiter} "
                       f"iterations (tol {tol:.1e})", trace=trace)


# ---------------------------------------------------------------------------
# Eulerian sampling
# ---------------------------------------------------------------------------

def _lattice_samples(state: LinearState, xp: np.ndarray, rows=None):
    """One lattice sum at the points ``xp`` (npts, dim_h) of eta (npts,) and
    of each field component's profile (npts, n + 2, levels), at the nodes
    or, with interpolation ``rows`` (levels, Nz), at their heights."""
    comps = np.concatenate([state.u.data, state.psi.data, state.pres.data])
    if rows is not None:
        comps = comps @ rows.T
    stacked = np.concatenate([state.eta.data[0, ..., None], np.moveaxis(comps, 0, -2)
                              .reshape(comps.shape[1:-1] + (-1,))], axis=-1)
    sums = lattice_sum(stacked, state.grid, xp)
    return sums[:, 0], sums[:, 1:].reshape(len(xp), len(comps), -1)


def pushforward_eulerian(state: LinearState, points: np.ndarray) -> dict:
    """Sample the solution fields at points of the physical wavy domain.

    ``points`` has shape (npts, n).  Raises PointOutsideDomain for samples
    above the free surface or below the bottom.
    """
    vgrid = state.vgrid
    n = state.grid.dim_h + 1
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n or not np.isfinite(points).all():
        raise ValueError(f"points must be a finite array of shape (npts, {n}), "
                         f"got shape {points.shape}")
    # one lattice sum per distinct horizontal point; ``where`` maps points to them
    xp, where = np.unique(points[:, :-1], axis=0, return_inverse=True)
    eta_at, profiles = (a[where] for a in _lattice_samples(state, xp))
    top = vgrid.depth + eta_at
    yn = points[:, -1]
    pad = 1e-12 * max(1.0, vgrid.depth)
    if np.any(yn > top + pad) or np.any(yn < -pad):
        raise PointOutsideDomain("sample point outside the fluid domain")
    rows = vgrid.interp_weights(yn * vgrid.depth / top)
    values = np.einsum("pcz,pz->cp", profiles, rows)
    return {"points": points, "eta": eta_at, "velocity": values[:n],
            "temperature": values[n], "pressure": values[n + 1]}


def eulerian_grid_samples(state: LinearState, nx: int = 32, nlevel: int = 8) -> dict:
    """Convenience sampler: uniform horizontal points, proportional levels.

    The level at fraction f of the local depth, f (b + eta(x')), pulls back
    to the strip height f b at every x', so each field component is
    interpolated to the nlevel strip heights first and then summed over the
    lattice, in one lattice sum with eta.
    Points are ordered level by level.
    """
    grid, vgrid = state.grid, state.vgrid
    n = grid.dim_h + 1
    xs = grid.box_len * np.arange(nx) / nx
    fracs = (np.arange(nlevel) + 0.5) / nlevel
    xp = np.stack(np.meshgrid(*[xs] * grid.dim_h, indexing="ij"),
                  axis=-1).reshape(-1, grid.dim_h)
    eta_at, profiles = _lattice_samples(state, xp, vgrid.interp_weights(fracs * vgrid.depth))
    top = vgrid.depth + eta_at
    if np.any(top < 0):
        raise PointOutsideDomain("sample point outside the fluid domain")
    yn = (fracs[:, None] * top).reshape(-1, 1)
    values = profiles.transpose(1, 2, 0).reshape(n + 2, -1)     # level by level
    return {"points": np.concatenate([np.tile(xp, (nlevel, 1)), yn], axis=1),
            "eta": np.tile(eta_at, nlevel), "velocity": values[:n],
            "temperature": values[n], "pressure": values[n + 1]}

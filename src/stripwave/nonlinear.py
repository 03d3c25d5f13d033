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

All nonlinear terms are evaluated pseudospectrally: derivatives act in
coefficient space, products on the collocation grid, with 2/3-rule
truncation after products.  The composed forcing is evaluated at the images
of the strip nodes under the flattening map each time the surface moves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingWarning, ConfigError, Diverged, NotConverged, PointOutsideDomain
from .fields import SpectralField, SurfaceSpectral, YData
from .geometry import (build_flattening, flattening_points, lattice_phases,
                       mean_curvature, surface_at)
from .grids import FrequencyGrid, VerticalGrid
from .linear import LinearState, LinearInverter
from .norms import ydata_norm
from .odesystem import SymbolTable
from .ops import dealias, dealias_tail_fraction, horiz_deriv, to_coeff, to_phys
from .params import ConstitutiveSet, PhysicalParams, validate_params


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

@dataclass
class ForcingData:
    """Traveling-frame sources at unit scale; ``amplitude`` multiplies all.

    Bulk callables take point arrays of shape S + (n,), flat callables take
    S + (n-1,); vector-valued callables return (n,) + S, matrix-valued
    (n, n) + S, scalars plain S.
    """

    f_bulk: object = None
    f_flat: object = None
    t_bulk: object = None
    t_flat: object = None
    h_bulk: object = None
    h_flat: object = None
    amplitude: float = 1.0

    def is_zero(self) -> bool:
        return self.amplitude == 0.0 or all(
            f is None for f in (self.f_bulk, self.f_flat, self.t_bulk,
                                self.t_flat, self.h_bulk, self.h_flat))

    def validate(self, grid: FrequencyGrid):
        """Flat parts must be spectrally resolved: at most 1e-10 of their
        energy beyond the 2/3 cutoff."""
        pts = grid.phys_points()
        n = grid.dim_h + 1
        checks = []
        if self.f_flat is not None:
            checks.append(np.asarray(self.f_flat(pts), dtype=float).reshape(n, *grid.phys_shape))
        if self.t_flat is not None:
            checks.append(np.asarray(self.t_flat(pts), dtype=float).reshape(n * n, *grid.phys_shape))
        if self.h_flat is not None:
            checks.append(np.asarray(self.h_flat(pts), dtype=float)[None])
        for arr in checks:
            tail = dealias_tail_fraction(to_coeff(arr, grid), grid)
            if tail > 1e-10:
                raise ConfigError(f"flat forcing has spectral tail {tail:.2e} "
                                  "beyond the 2/3 cutoff (limit 1.0e-10)")


def make_forcing_preset(name: str, amplitude: float, grid: FrequencyGrid,
                        depth: float, mode_index: int = 3) -> ForcingData:
    """Built-in forcing families used by the command line and the tests.

    The forced lattice mode must survive the 2/3 rule: |mode_index| <=
    modes // 3.
    """
    if abs(mode_index) > grid.modes // 3:
        raise ConfigError(f"forcing mode_index {mode_index} beyond the 2/3 "
                          f"cutoff {grid.modes // 3} of {grid.modes} modes")
    xi0 = mode_index / grid.box_len
    n = grid.dim_h + 1

    def cosine(xp):
        return np.cos(2.0 * np.pi * xi0 * xp[..., 0])

    def stress_flat(xp):
        out = np.zeros((n, n) + xp.shape[:-1])
        out[n - 1, n - 1] = cosine(xp)
        return out

    def bulk_force(pts):
        prof = np.exp(-((pts[..., -1] - depth / 2.0) / (depth / 4.0)) ** 2)
        out = np.zeros((n,) + pts.shape[:-1])
        out[0] = np.cos(2.0 * np.pi * xi0 * pts[..., 0]) * prof
        return out

    if name == "heat-only":
        return ForcingData(h_flat=cosine, amplitude=amplitude)
    if name == "stress-only":
        return ForcingData(t_flat=stress_flat, amplitude=amplitude)
    if name == "bulk-force":
        return ForcingData(f_bulk=bulk_force, amplitude=amplitude)
    if name == "mixed":
        return ForcingData(f_bulk=bulk_force, t_flat=stress_flat,
                           h_flat=cosine, amplitude=amplitude / 3.0)
    raise ConfigError(f"unknown forcing preset {name!r}")


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------

def nonlinear_residual(state: LinearState, forcing: ForcingData,
                       p: PhysicalParams, c: ConstitutiveSet) -> YData:
    grid, vgrid = state.grid, state.vgrid
    n = grid.dim_h + 1
    dim_h = grid.dim_h
    ff = build_flattening(state.eta, grid, vgrid)
    A = ff.a_field
    J = ff.j_field

    u = to_phys(state.u.data, grid)
    psi = to_phys(state.psi.data, grid)[0]
    pres = to_phys(state.pres.data, grid)[0]

    def partials(arr):
        """All n partial derivatives of a (comps,) + phys + (Nz,) stack."""
        coeff = dealias(to_coeff(arr, grid), grid)
        outs = [to_phys(horiz_deriv(coeff, grid, ax), grid) for ax in range(dim_h)]
        outs.append(vgrid.differentiate(arr))
        return np.stack(outs)

    du = partials(u)                     # (n, n, phys, Nz): direction, component
    dpsi = partials(psi[None])[:, 0]     # (n, phys, Nz)
    dpres = partials(pres[None])[:, 0]

    def twist(d_stack):
        """grad_A: contract direction j of partials with A[i, j]."""
        return np.einsum("ij...,j...->i...", A, d_stack)

    grad_A_psi = twist(dpsi)
    grad_A_pres = twist(dpres)
    du_A = np.stack([twist(du[:, comp]) for comp in range(n)], axis=1)
    # du_A[i, comp] = d_i^A u_comp
    DAu = du_A + np.swapaxes(du_A, 0, 1)   # symmetrized twisted gradient

    gamma_p = np.asarray(c.gamma_visc(psi, DAu))
    phi_p = np.asarray(c.phi_heat(psi, grad_A_psi))

    dgamma = partials(gamma_p.reshape((n * n,) + gamma_p.shape[2:]))
    dgamma = dgamma.reshape((n, n, n) + gamma_p.shape[2:])   # (k, j, i, ...)
    # div_A Gamma_i = A[j, k] d_k Gamma[j, i]
    div_A_gamma = np.einsum("jk...,kji...->i...", A, dgamma)

    dphi = partials(phi_p)                                    # (k, j, ...)
    div_A_phi = np.einsum("jk...,kj...->...", A, dphi)

    conv_u = np.einsum("j...,ji...->i...", u, du_A)           # u . grad_A u
    conv_psi = np.einsum("j...,j...->...", u, grad_A_psi)

    f_term = (-p.gamma * du_A[0] + conv_u + grad_A_pres - div_A_gamma)
    for i in range(dim_h):
        f_term[i] += p.grav * ff.grad_eta_phys[i][..., None]

    g_term = J[..., None] * np.einsum("ii...->...", du_A)

    l_term = -p.gamma * grad_A_psi[0] + conv_psi + div_A_phi

    # surface rows (top node)
    grad_eta = ff.grad_eta_phys
    Np = np.zeros((n,) + grid.phys_shape)
    for i in range(dim_h):
        Np[i] = -grad_eta[i]
    Np[n - 1] = 1.0
    normN = np.sqrt(1.0 + sum(g * g for g in grad_eta))
    curv = to_phys(mean_curvature(state.eta).data, grid)[0]
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
        pts = flattening_points(ff, grid, vgrid)
        surf_pts = pts[..., -1, :]
        xp = grid.phys_points()
        if forcing.f_bulk is not None:
            f_term -= amp * np.asarray(forcing.f_bulk(pts))
        if forcing.f_flat is not None:
            f_term -= amp * np.asarray(forcing.f_flat(xp))[..., None]
        tmat = 0.0
        if forcing.t_bulk is not None:
            tmat = tmat + np.asarray(forcing.t_bulk(surf_pts))
        if forcing.t_flat is not None:
            tmat = tmat + np.asarray(forcing.t_flat(xp))
        if forcing.t_bulk is not None or forcing.t_flat is not None:
            k_term += amp * np.einsum("ij...,j...->i...", tmat, Np)
        hsum = 0.0
        if forcing.h_bulk is not None:
            hsum = hsum + np.asarray(forcing.h_bulk(surf_pts))
        if forcing.h_flat is not None:
            hsum = hsum + np.asarray(forcing.h_flat(xp))
        if forcing.h_bulk is not None or forcing.h_flat is not None:
            m_term -= amp * hsum

    def pack(arr, ndim):
        """Dealiased coefficients of a slot with ``ndim`` axes counting its
        component axis; AliasingWarning when over 1e-6 of the energy is cut."""
        coeff = to_coeff(arr if arr.ndim == ndim else arr[None], grid)
        frac = dealias_tail_fraction(coeff, grid)
        # ignore roundoff-dominated slots: their spectra are white but tiny
        if frac > 1e-6 and float(np.abs(coeff).max()) * np.sqrt(frac) > 1e-12:
            warnings.warn(f"dealiased tail fraction {frac:.2e}", AliasingWarning)
        return dealias(coeff, grid)

    bulk, surf = dim_h + 2, dim_h + 1
    return YData(
        f=SpectralField(grid, vgrid, pack(f_term, bulk)),
        g=SpectralField(grid, vgrid, pack(g_term, bulk)),
        l=SpectralField(grid, vgrid, pack(l_term, bulk)),
        k=SurfaceSpectral(grid, pack(k_term, surf)),
        h=SurfaceSpectral(grid, pack(h_term, surf)),
        m=SurfaceSpectral(grid, pack(m_term, surf)),
    )


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
        return {
            "residuals": self.residuals,
            "contraction": self.contraction,
            "iterations": self.iterations,
            "converged": self.converged,
            "amplitude_used": self.amplitude_used,
            "diagnostics": self.diagnostics,
        }


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
    factor >= 1 three times in a row raises Diverged, an exhausted budget
    NotConverged, each carrying the trace so far; ``trace.state`` is always
    the state whose residual is ``trace.residuals[-1]``.
    """
    bad = validate_params(p)
    if bad:
        raise ConfigError("; ".join(bad))
    forcing.validate(grid)
    cap = suggested_amplitude_cap(p)
    trace = SolveTrace(amplitude_used=forcing.amplitude)
    if forcing.amplitude > cap:
        trace.diagnostics["amplitude_above_heuristic"] = cap
    if inverter is None:
        inverter = LinearInverter(SymbolTable(grid, vgrid, p))

    state = trace.state = LinearState.zeros(grid, vgrid)
    rising = 0
    for it in range(maxiter + 1):
        resid = nonlinear_residual(state, forcing, p, c)
        rn = ydata_norm(resid)
        trace.residuals.append(rn)
        trace.iterations = it
        if len(trace.residuals) > 1:
            prev = trace.residuals[-2]
            factor = rn / prev if prev > 0 else 0.0
            trace.contraction.append(factor)
            rising = rising + 1 if factor >= 1.0 else 0
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

def pushforward_eulerian(state: LinearState, points: np.ndarray) -> dict:
    """Sample the solution fields at points of the physical wavy domain.

    ``points`` has shape (npts, n).  Raises PointOutsideDomain for samples
    above the free surface or below the bottom.
    """
    n = state.grid.dim_h + 1
    points = np.asarray(points, dtype=float)
    # phases once per distinct horizontal point; ``where`` maps points to them
    xp, where = np.unique(points[:, :n - 1], axis=0, return_inverse=True)
    return _sample_at(state, points, lattice_phases(state.grid, xp), where)


def _sample_at(state: LinearState, points: np.ndarray, phases: np.ndarray,
               where: np.ndarray) -> dict:
    """pushforward_eulerian at ``points`` whose horizontal positions have the
    lattice_phases rows ``phases[where]``."""
    vgrid = state.vgrid
    eta_at = surface_at(state.eta, phases)[where]
    top = vgrid.depth + eta_at
    yn = points[:, -1]
    pad = 1e-12 * max(1.0, vgrid.depth)
    if np.any(yn > top + pad) or np.any(yn < -pad):
        raise PointOutsideDomain("sample point outside the fluid domain")
    xn = yn * vgrid.depth / top
    wvec = vgrid.interp_weights(xn)

    def sample_bulk(fieldarr):
        # sum over the lattice first: (comps, distinct, Nz) profiles
        coeffs = fieldarr.reshape(fieldarr.shape[0], -1, vgrid.count)
        prof = phases @ coeffs
        return np.real(np.einsum("cpz,pz->cp", prof[:, where], wvec))

    return {
        "points": points,
        "eta": eta_at,
        "velocity": sample_bulk(state.u.data),
        "temperature": sample_bulk(state.psi.data)[0],
        "pressure": sample_bulk(state.pres.data)[0],
    }


def eulerian_grid_samples(state: LinearState, nx: int = 32, nlevel: int = 8) -> dict:
    """Convenience sampler: uniform horizontal points, proportional levels.

    The lattice phases of the horizontal points are built once and serve
    both the surface heights that place the levels and the samples.
    """
    grid, vgrid = state.grid, state.vgrid
    xs = grid.box_len * np.arange(nx) / nx
    fracs = (np.arange(nlevel) + 0.5) / nlevel
    if grid.dim_h == 1:
        xp = xs[:, None]
    else:
        X1, X2 = np.meshgrid(xs, xs, indexing="ij")
        xp = np.stack([X1.ravel(), X2.ravel()], axis=-1)
    phases = lattice_phases(grid, xp)
    eta_at = surface_at(state.eta, phases)
    pts = []
    for frac in fracs:
        yn = frac * (vgrid.depth + eta_at)
        pts.append(np.concatenate([xp, yn[:, None]], axis=1))
    where = np.tile(np.arange(len(xp)), nlevel)
    return _sample_at(state, np.concatenate(pts, axis=0), phases, where)

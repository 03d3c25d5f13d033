"""Per-frequency two-point boundary value problems on the strip's fiber.

After a horizontal Fourier transform and a longitudinal/transverse split of
the horizontal velocity, each frequency xi carries a first-order system for
y = (phi, psi, delta, q, dn phi, dn delta):

    dn y = A(xi) y + z     in (0, b),       M y(0) + N y(b) = d,

where phi is the longitudinal velocity amplitude Fhat(w') . i xi/|xi|, psi
the vertical velocity, delta the temperature, q the pressure.  z is built
from bulk forcing (F1, F2, G, L) and d from boundary data (K1, K2, M_heat).
The general transport speed gamma_tilde and the coupling placement
(alpha1, alpha2) select the forward problem (-gamma, alpha1, 0) or the
adjoint/normal-stress problem (+gamma, 0, alpha2).

Three backends solve the system and validate each other:

* ``matexp``: the variation-of-constants representation
  y(x) = exp(xA) B^{-1} (d - N int_0^b exp((b-t)A) z dt) + int_0^x exp((x-t)A) z dt,
  B = M + N exp(bA), evaluated by forward marching with per-interval
  exponentials and composite Gauss-Legendre panels (an exact regrouping of
  the same integrals).  A(xi) splits into a Stokes and a heat block with
  known eigenvalues, so exp(tA) is six scalar coefficients times fixed
  matrices per frequency, a Taylor product where t times a block's largest
  eigenvalue is at most 1 and cosh/sinh divided differences beyond;
  ``matrix_exponential``, a checked wrapper of scipy's ``expm``, is the
  tests' oracle.  A FrequencyStack prepares and solves many frequencies at
  once: the boundary matrices and the step exponentials are stacks across
  frequencies, the quadrature stays in the propagator's coefficient basis,
  and the marches step every frequency at once, one product per node.  The
  panels are built once per vertical grid and shared read-only (``_gl_panels``).
  It degrades once exp(2 pi |xi| b) eats the floating point headroom, so
  it is gated by a configurable split.  The symbol at xi = 0, where A is
  nilpotent, is exp(xA) B^{-1} d at the nodes, with no march.

* ``twosided``: every symbol at xi != 0, by two decaying closed forms and a
  6x6 system, the exponential dichotomy of ``_twosided_profiles``.

* ``collocation``: direct Chebyshev collocation of the first-order system,
  valid at all frequencies (forced solves beyond the split, and fallback).
  Its interior rows never couple the Stokes unknowns (phi, psi, q, dn phi)
  with the heat unknowns (delta, dn delta); only the tangential stress
  (alpha1 delta(b)) and the heat flux (alpha2 phi(b)) reach across.  So
  each frequency factors a 4Nz Stokes block and a 2Nz heat block, and a
  solve joins them through a 2x2 system for (phi(b), delta(b)).

In 3D the transverse velocity solves a scalar problem whose boundary rows
do not depend on xi: ``transverse_factor`` diagonalizes it once per vertical
grid and viscosity, and each frequency is a diagonal scaling, with no LU.

The homogeneous solve with d = (0,0,0,0,1,0) yields the response symbols to
a unit normal stress on the top boundary; their top traces assemble the
surface multiplier rho(xi) = (sigma0 4 pi^2 |xi|^2 + grav) conj(psi(b))
+ 2 pi i gamma xi_1.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IllConditionedCollocation, NumericallySingular
from .fields import conjugate_mirror
from .grids import VerticalGrid, read_only
from .params import PhysicalParams

DEFAULT_SPLIT = 30.0
DEFAULT_COND_LIMIT = 1e12
BACKENDS = ("matexp", "twosided", "collocation")
_GL_NODES, _GL_WEIGHTS = leggauss(8)
# member-times per call of the closed forms and per block of the
# quadrature contraction: about 1 MiB of temporaries
_EXP_CHUNK = 6144
_STOKES = (0, 1, 3, 4)          # phi, psi, q, dn phi: the Stokes block


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------

def _xi_array(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return xi[None] if xi.ndim == 0 else xi


def assemble_bulk_matrix(xi, p: PhysicalParams, gamma_tilde: float) -> np.ndarray:
    """The 6x6 coefficient matrix A(xi) of the first-order system.

    ``xi`` of shape (dim_h,) gives one matrix, a stack (..., dim_h) one
    matrix per frequency, shape (..., 6, 6).
    """
    xi = _xi_array(xi)
    m = 2.0 * np.pi * np.linalg.norm(xi, axis=-1)
    t = 2j * np.pi * gamma_tilde * xi[..., 0]
    mu, kappa = p.mu, p.kappa
    A = np.zeros(xi.shape[:-1] + (6, 6), dtype=complex)
    A[..., 0, 4] = 1.0
    A[..., 1, 0] = -m
    A[..., 2, 5] = 1.0
    A[..., 3, 1] = -mu * m * m - t
    A[..., 3, 4] = -mu * m
    A[..., 4, 0] = m * m + t / mu
    A[..., 4, 3] = -m / mu
    A[..., 5, 2] = m * m + t / kappa
    return A


def assemble_boundary(xi, p: PhysicalParams, alpha1: float, alpha2: float):
    """Boundary matrices (M, N) with M y(0) + N y(b) = d, stacked like
    ``assemble_bulk_matrix``.

    Row 1 is the tangential stress (alpha1 couples the temperature into it),
    row 2 the normal stress, row 3 the heat flux (alpha2 couples the
    longitudinal velocity).  At (alpha1, alpha2) = (0, sigma1) this is the
    adjoint/normal-stress problem; at (sigma1, 0) the forward one.
    """
    xi = _xi_array(xi)
    m = 2.0 * np.pi * np.linalg.norm(xi, axis=-1)
    mu, kappa = p.mu, p.kappa
    shape = xi.shape[:-1] + (6, 6)
    Mmat = np.zeros(shape, dtype=complex)
    Mmat[..., :3, :3] = np.eye(3)
    Nmat = np.zeros(shape, dtype=complex)
    Nmat[..., 3, 1] = mu * m
    Nmat[..., 3, 2] = -alpha1 * m
    Nmat[..., 3, 4] = -mu
    Nmat[..., 4, 0] = 2.0 * mu * m
    Nmat[..., 4, 3] = 1.0
    Nmat[..., 5, 0] = alpha2 * m
    Nmat[..., 5, 5] = kappa
    return Mmat, Nmat


# ---------------------------------------------------------------------------
# Matrix exponential (the tests' oracle for the closed-form propagator)
# ---------------------------------------------------------------------------

def matrix_exponential(M: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(t M) by scipy's ``expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009).

    ``M`` is one matrix (n, n) or a stack (..., n, n); ``t`` is a scalar or an
    array broadcast against the stack shape.  ``expm`` treats each member on
    its own, so a stack equals one-at-a-time calls bit for bit.  A non-finite
    input or an overflowed result raises NumericallySingular.
    """
    A = np.asarray(t)[..., None, None] * np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise NumericallySingular("non-finite matrix handed to the exponential")
    from scipy.linalg import expm
    X = expm(A)
    if not np.all(np.isfinite(X)):
        raise NumericallySingular("matrix exponential overflowed")
    return X


# ---------------------------------------------------------------------------
# Closed-form block propagator exp(tA)
# ---------------------------------------------------------------------------

def _shc(z):
    """sinh(z)/z, by its Taylor series only where |z| < 1e-4."""
    out, small = np.empty_like(z), np.abs(z) < 1e-4
    out[small], out[~small] = 1.0 + z[small] ** 2 / 6.0, np.sinh(z[~small]) / z[~small]
    return out


def _propagator(xis, p: PhysicalParams, gamma_tilde: float) -> np.ndarray:
    """Per frequency of ``xis`` (k, dim_h), the row (52,) from which
    ``_member_coefficients`` and ``_member_basis`` build exp(tA):
    m = 2 pi |xi|, l, l_h, tau/mu, then P, A_s and A_s P (16 entries each).
    The Stokes block A_s (phi, psi, q, dn phi) has the eigenvalues +-m and
    +-l, l^2 = m^2 + tau/mu with tau = 2 pi i gamma_tilde xi_1, and the heat
    block A_h (delta, dn delta) +-l_h, l_h^2 = m^2 + tau/kappa.  Both are
    even in A, so exp(tA_s) = c0 I + c1 P + s0 A_s + s1 A_s P with
    P = A_s^2 - m^2 I, and exp(tA_h) = cosh(t l_h) I + t shc(t l_h) A_h.
    """
    A = assemble_bulk_matrix(xis, p, gamma_tilde)
    m = 2.0 * np.pi * np.linalg.norm(xis, axis=-1)
    r = 2j * np.pi * gamma_tilde * xis[:, 0] / p.mu
    As = A[:, _STOKES][:, :, _STOKES]
    P = As @ As - (m * m)[:, None, None] * np.eye(4)
    scalars = np.stack([m, np.sqrt(m * m + r), np.sqrt(A[:, 5, 2]), r], axis=-1)
    return np.concatenate([scalars] + [B.reshape(-1, 16) for B in (P, As, As @ P)], axis=-1)


def _stokes_forms(scalars: np.ndarray, t: np.ndarray) -> np.ndarray:
    """c0 = cosh(tm), c1 = (t^2/2) shc(u) shc(v), s0 = t shc(tm) and s1,
    (N, 4), where t max(|l|, m) > 1, from ``_propagator``'s m, l, l_h, tau/mu
    (N, 4); u = t (l + m)/2, v = t (l - m)/2 = t (tau/mu)/(2 (l + m)), and
    s1 = t (cosh(u) shc(v) - shc(u) cosh(v)) / (2 l m) when |v| <= 1/2, else
    the quotient of differences.  tau = 0 (l = m) is their confluent limit."""
    m, l, r = scalars[:, 0].real, scalars[:, 1], scalars[:, 3]
    tm, tl = t * m, t * l
    u, v = 0.5 * (tl + tm), 0.5 * t * r / (l + m)
    near, s1 = np.abs(v) <= 0.5, np.empty_like(u)
    s1[near] = t[near] * (np.cosh(u[near]) * _shc(v[near]) - _shc(u[near]) * np.cosh(v[near])) \
        / (2.0 * l[near] * m[near])
    s1[~near] = t[~near] * (_shc(tl[~near]) - _shc(tm[~near])) / r[~near]
    return np.stack([np.cosh(tm), 0.5 * t * t * _shc(u) * _shc(v), t * _shc(tm), s1], axis=-1)


def _heat_forms(scalars: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cosh(t l_h) and t shc(t l_h), (N, 2), where t |l_h| > 1, from the parts of t l_h."""
    tlh = t * scalars[:, 2]
    cx, sx, cy, sy = np.cosh(tlh.real), np.sinh(tlh.real), np.cos(tlh.imag), np.sin(tlh.imag)
    return np.stack([cx * cy + 1j * (sx * sy), t * ((sx * cy + 1j * (cx * sy)) / tlh)], axis=-1)


@np.errstate(all="ignore")      # overflow: the member falls back to collocation
def _member_coefficients(prop: np.ndarray, t) -> np.ndarray:
    """The coefficients of exp(tA) in the basis of ``_member_basis`` for
    every member of a stack with ``_propagator`` rows ``prop`` at every time
    of ``t`` (..., n), shape (k,) + t.shape[:-1] + (6, n): the layout of the
    quadrature cache.

    Where t max(|l|, m) <= 1 and t |l_h| <= 1 they are the Taylor method of
    Moler & Van Loan (SIAM Rev. 45, 2003), cut after t^19 (the first term
    left out is below 1e-17 of each; Higham, Functions of Matrices, SIAM
    2008, ch. 10): a Taylor row (6, 20) per member times the powers of t,
    two real products into the real and imaginary parts of the output.  c0
    and s0 take m^2j over (2j)! and (2j+1)!, the heat block l_h^2j, and c1
    and s1, the divided differences G[m^2, l^2] of cosh(t sqrt s) and
    sinh(t sqrt s)/sqrt s, the complete homogeneous h_{j-1}(m^2, l^2).
    Elsewhere ``_stokes_forms`` and ``_heat_forms`` replace the product, in
    calls of at most _EXP_CHUNK member-times.  xi = 0 gives I + tA.
    """
    t = np.asarray(t, dtype=float)
    m, l, lh = prop[:, 0].real, prop[:, 1], prop[:, 2]
    # per j: m^2j, h_{j-1}(m^2, l^2) with h_{-1} = 0, and l_h^2j
    terms = np.zeros((len(prop), 3, 10), dtype=complex)
    terms[:, 0::2, 0], squares, h = 1.0, np.stack([m * m, lh * lh], axis=-1), 1.0
    for j in range(1, 10):
        terms[:, 1, j], terms[:, 0::2, j] = h, terms[:, 0::2, j - 1] * squares
        h = l * l * h + terms[:, 0, j]
    taylor = np.zeros((len(prop), 6, 20), dtype=complex)
    taylor[:, [0, 1, 4], 0::2] = taylor[:, [2, 3, 5], 1::2] = terms
    taylor = np.expand_dims(taylor / [factorial(p) for p in range(20)], tuple(range(1, t.ndim)))
    powers = t[..., None, :] ** np.arange(20)[:, None]
    coef = np.empty((len(prop),) + t.shape[:-1] + (6, t.shape[-1]), dtype=complex)
    for part, out in ((taylor.real, coef.real), (taylor.imag, coef.imag)):
        np.matmul(np.ascontiguousarray(part), powers, out=out)
    for cols, scale, forms in ((slice(0, 4), np.maximum(np.abs(l), m), _stokes_forms),
                               (slice(4, 6), np.abs(lh), _heat_forms)):
        flat = np.flatnonzero(np.multiply.outer(scale, t) > 1.0)
        for lo in range(0, flat.size, _EXP_CHUNK):
            at = np.unravel_index(flat[lo:lo + _EXP_CHUNK], (len(prop),) + t.shape)
            coef[at[:-1] + (cols, at[-1])] = forms(prop[at[0], :4], t[at[1:]])
    return coef


def _member_basis(prop: np.ndarray) -> np.ndarray:
    """The basis I_s, P, A_s, A_s P, I_h, A_h of exp(tA) for every member
    of a stack with ``_propagator`` rows ``prop``, as 6x6 matrices
    flattened row-major, shape (k, 6, 36)."""
    basis = np.zeros((len(prop), 6, 6, 6), dtype=complex)
    stokes = np.array(_STOKES)
    basis[:, 0, stokes, stokes] = basis[:, 4, [2, 5], [2, 5]] = basis[:, 5, 2, 5] = 1.0
    basis[:, 1:4, stokes[:, None], stokes] = prop[:, 4:].reshape(-1, 3, 4, 4)
    basis[:, 5, 5, 2] = prop[:, 2] ** 2
    return basis.reshape(-1, 6, 36)


@np.errstate(all="ignore")
def _member_exponentials(prop: np.ndarray, t):
    """exp(tA), shape (k,) + t.shape + (6, 6), with a mask of the members
    whose exponential is finite: ``_member_coefficients`` times the basis."""
    coef = _member_coefficients(prop, np.ravel(t)).transpose(0, 2, 1)
    X = (coef @ _member_basis(prop)).reshape((len(prop),) + np.shape(t) + (6, 6))
    return X, np.isfinite(X).reshape(len(prop), -1).all(axis=1)


def _inverse_and_cond(B: np.ndarray):
    """B^-1 and cond_1(B) = ||B||_1 ||B^-1||_1 per member of (k, 6, 6), one LU
    each; cond is inf where B is not finite or exactly singular."""
    inv, ok = np.full_like(B, np.nan), np.isfinite(B).all(axis=(-2, -1))
    try:
        inv[ok] = np.linalg.inv(B[ok])
    except np.linalg.LinAlgError:           # an exactly singular member: one at a time
        for i in np.flatnonzero(ok):
            with suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(B[i])
    cond = np.linalg.norm(B, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    return inv, np.where(np.isnan(cond), np.inf, cond)


# ---------------------------------------------------------------------------
# Forced boundary value problems
# ---------------------------------------------------------------------------

def forcing_rows(p: PhysicalParams, vgrid: VerticalGrid, m, f_long, f_n, G, L,
                 k_long, k_n, M_heat):
    """z (K, 6, Nz) and d (K, 6) of K forced problems at 2 pi |xi| = ``m``
    from the longitudinal and normal momentum data f_long, f_n, which contain
    mu grad(div u): with F1 = f_long - mu m G and F2 = f_n + mu dG,
    z = (0, G, 0, F2 + mu dG, -F1/mu, -L/kappa) and
    d = (0, 0, 0, k_long, k_n + 2 mu G(b), M_heat)."""
    z = np.zeros(G.shape[:1] + (6, vgrid.count), dtype=complex)
    z[:, 1] = G
    z[:, 3] = f_n + 2.0 * p.mu * vgrid.differentiate(G)
    z[:, 4] = -f_long / p.mu + m[:, None] * G
    z[:, 5] = -L / p.kappa
    d = np.zeros((len(G), 6), dtype=complex)
    d[:, 3] = k_long
    d[:, 4] = k_n + 2.0 * p.mu * G[:, -1]
    d[:, 5] = M_heat
    return z, d


def lu_factor(a: np.ndarray, **options):
    """scipy's ``lu_factor``.  scipy.linalg is imported at the first LU (or
    ``expm``), so a run that makes neither never loads it."""
    from scipy.linalg import lu_factor as factor
    return factor(a, **options)


# The Stokes and heat blocks of the collocation system: their components,
# and the entry (row, column) of N by which the other block reaches each,
# held in the top row of q (tangential stress, -alpha1 m delta(b)) and of
# dn delta (heat flux, alpha2 m phi(b)).
_BLOCKS = ((_STOKES, (3, 2)), ((2, 5), (5, 0)))


def _boundary_rows(comps, nz: int) -> list:
    """Rows of a block's system that hold the boundary conditions: the bottom
    node of phi, psi and delta (M = [I 0]), the top node of the others."""
    return [r * nz + (0 if c < 3 else nz - 1) for r, c in enumerate(comps)]


@lru_cache(maxsize=8)
def _gl_panels(vgrid: VerticalGrid):
    """Composite Gauss-Legendre panels of the vertical grid, shared by every
    solver and frequency on it: per interval [a_j, c_j] and node t_q the
    offsets c_j - t_q, (Nz-1, 8), and the real interpolation rows at the t_q
    times their weights, (8 (Nz-1), Nz) interval-major."""
    nodes = vgrid.nodes
    a, c = nodes[:-1, None], nodes[1:, None]
    h = c - a
    tq = 0.5 * (c + a) + 0.5 * h * _GL_NODES
    rows = (0.5 * h * _GL_WEIGHTS)[..., None] * vgrid.interp_weights(tq)
    return read_only(c - tq, rows.reshape(-1, nodes.size))


class FrequencySolver:
    """Per-frequency solver for fixed coefficients.

    Fixed coefficients (params, transport speed gamma_tilde, coupling
    placement alpha1/alpha2, vertical grid); the backend is chosen per
    frequency by the size of 2 pi |xi| b against ``split``.  ``prepare``
    readies a set of frequencies as one FrequencyStack; ``solve`` is the
    stack of a single frequency.
    """

    def __init__(self, p: PhysicalParams, vgrid: VerticalGrid,
                 gamma_tilde: float, alpha1: float, alpha2: float,
                 split: float = DEFAULT_SPLIT,
                 cond_limit: float = DEFAULT_COND_LIMIT):
        self.p, self.vgrid, self.gamma_tilde = p, vgrid, gamma_tilde
        self.alpha1, self.alpha2 = alpha1, alpha2
        self.split, self.cond_limit = split, cond_limit

    # -- backend selection ---------------------------------------------------

    def _scale(self, xi) -> np.ndarray:
        """2 pi |xi| b per frequency (last axis of ``xi`` = dim_h)."""
        return 2.0 * np.pi * np.linalg.norm(xi, axis=-1) * self.vgrid.depth

    def backend_for(self, xi) -> str:
        return "matexp" if self._scale(_xi_array(xi)) <= self.split else "collocation"

    # -- collocation backend ---------------------------------------------------

    def _solve_collocation(self, xi, z_profile, d_vec):
        """Collocation solve at one frequency; returns (Y, cond_estimate).

        Factors the Stokes and heat blocks and solves each against the data
        and its coupling column: the other block's top value (delta(b) or
        phi(b)) times its entry of N, placed in its row.  The 2x2 system for
        phi(b) and delta(b), which lead their blocks (index nz-1), joins
        them; it is unit triangular for the forward and the adjoint problem.
        """
        from scipy.linalg import lapack, lu_solve
        nz = self.vgrid.count
        A = assemble_bulk_matrix(xi, self.p, self.gamma_tilde)
        Mmat, Nmat = assemble_boundary(xi, self.p, self.alpha1, self.alpha2)
        z = np.zeros((6, nz), dtype=complex) if z_profile is None \
            else np.asarray(z_profile, dtype=complex)
        d = np.asarray(d_vec, dtype=complex)
        # kron(I, D) - kron(A, I_nz) over the block's components, block by
        # block into the Fortran-ordered array that lu_factor overwrites.
        # Each block is computed as the kron difference computes it, so the
        # signed zeros off the block diagonals (which reach the solution,
        # e.g. phi(0) = -0) are kept.
        D = self.vgrid.diff
        kron_blocks = (0.0 * D, D)
        eye = np.eye(nz)
        sols, coupling, conds = [], [], []
        for comps, (row, col) in _BLOCKS:
            n = len(comps) * nz
            sys = np.empty((n, n), dtype=complex, order="F")
            for r, cr in enumerate(comps):
                for c, cc in enumerate(comps):
                    np.subtract(kron_blocks[cr == cc], A[cr, cc] * eye,
                                out=sys[r * nz:(r + 1) * nz, c * nz:(c + 1) * nz])
            rows = _boundary_rows(comps, nz)
            for cr, br in zip(comps, rows):
                sys[br] = 0.0
                # the bottom row of a component meets every component's
                # bottom node, the top row every top node
                sys[br, br % nz::nz] = (Mmat if cr < 3 else Nmat)[cr, list(comps)]
            # column sums over C-ordered magnitudes round as np.linalg.norm(sys, 1)
            # does on a C-ordered system
            anorm = float(np.abs(sys, order="C").sum(axis=0).max())
            lu = lu_factor(sys, overwrite_a=True)
            cond = 1.0 / max(lapack.zgecon(lu[0], anorm)[0], np.finfo(float).tiny)
            if cond > self.cond_limit:
                raise IllConditionedCollocation(
                    f"collocation condition estimate {cond:.3g} beyond "
                    f"{self.cond_limit:.3g}", cond_estimate=cond)
            e = np.zeros(n, dtype=complex)
            e[rows[comps.index(row)]] = Nmat[row, col]
            coupling.append(lu_solve(lu, e))
            rhs = z[list(comps)].reshape(-1)        # a copy (fancy index)
            rhs[rows] = d[list(comps)]
            sols.append(lu_solve(lu, rhs, overwrite_b=True))
            conds.append(cond)
        x, w = sols
        gs, gh = coupling
        t = nz - 1
        det = 1.0 - gs[t] * gh[t]
        phi_b = (x[t] - gs[t] * w[t]) / det
        delta_b = (w[t] - gh[t] * x[t]) / det
        Y = np.empty((6, nz), dtype=complex)
        Y[list(_BLOCKS[0][0])] = (x - delta_b * gs).reshape(-1, nz)
        Y[list(_BLOCKS[1][0])] = (w - phi_b * gh).reshape(-1, nz)
        return Y, max(conds)

    # -- public entry ----------------------------------------------------------

    def prepare(self, xis) -> "FrequencyStack":
        """Prepared solves at the frequencies ``xis`` (K, dim_h)."""
        return FrequencyStack(self, xis)

    def solve(self, xi, z_profile, d_vec):
        """Solve one forced problem; returns (Y, backend_used, cond_estimate)."""
        stack = self.prepare(_xi_array(xi)[None])
        z = None if z_profile is None else np.asarray(z_profile, dtype=complex)[None]
        Y = stack.solve(z, np.asarray(d_vec, dtype=complex)[None])
        return Y[0], stack.backend[0], float(stack.cond[0])


class FrequencyStack:
    """One FrequencySolver prepared at K frequencies.

    The matexp members are prepared together as stacks: ``prop`` holds their
    ``_propagator`` rows, ``Binv`` and ``Nmat`` are (k, 6, 6).  ``step``
    keeps the step exponentials exp(h_j A), (Nz-1, k, 6, 6), made when the
    stack is built.  ``quad`` keeps the Gauss-Legendre quadrature in the
    propagator's basis B_b (I_s, P, A_s, A_s P, I_h, A_h), made at the first
    solve with bulk forcing: the coefficients coef_b(c_j - t_q), written once
    and C-contiguous as (k, Nz-1, 6, 8), and each member's basis, (k, 36, 6),
    k (48 (Nz-1) + 216) complex numbers.  The local integral
    sum_q w_q exp((c_j - t_q) A) z(t_q) is then sum_b B_b (sum_q coef_b
    w_q z(t_q)), the weights in the rows of ``_gl_panels``.  Every solve solves
    every member: a caller leaves a frequency without data out of the stack.

    A member whose exponentials are not finite or whose cond_1(B) exceeds the
    solver's limit is solved by collocation instead; the other members are
    unaffected.  A collocation member's Stokes and heat blocks are factored
    at every solve and dropped after the member is solved, so one member's
    pair of factorisations is alive at a time.  ``backend`` and ``cond`` (K,)
    record what each member is solved with: cond_1(B), or for collocation
    the larger of its blocks' LAPACK estimates, set when it is solved.
    """

    def __init__(self, solver: FrequencySolver, xis):
        self.solver = solver
        self.xis = np.asarray(xis, dtype=float)
        matexp = solver._scale(self.xis) <= solver.split
        self.backend = np.where(matexp, "matexp", "collocation").astype(object)
        self.cond = np.zeros(len(self.xis))
        self.members = np.flatnonzero(matexp)
        if self.members.size:
            self._prepare_matexp()

    def _prepare_matexp(self):
        s = self.solver
        xis = self.xis[self.members]
        prop = _propagator(xis, s.p, s.gamma_tilde)
        Mmat, Nmat = assemble_boundary(xis, s.p, s.alpha1, s.alpha2)
        # B = M + N exp(bA); cond_1(B) is inf where B is not finite
        Binv, cond = _inverse_and_cond(Mmat + Nmat @ _member_exponentials(prop, s.vgrid.depth)[0])
        ok = cond <= s.cond_limit
        self.cond[self.members] = cond
        self.backend[self.members[~ok]] = "collocation"
        self.members = self.members[ok]
        self.prop, self.Binv, self.Nmat = prop[ok], Binv[ok], Nmat[ok]
        coef = self._exponential_rows(np.diff(s.vgrid.nodes)).transpose(2, 0, 1)
        self.step = (coef[:, :, None] @ _member_basis(self.prop)).reshape(coef.shape + (6,))
        self.quad = None

    def _exponential_rows(self, t) -> np.ndarray:
        """``_member_coefficients`` at ``t``; a non-finite member gets zero rows and collocation."""
        rows = _member_coefficients(self.prop, t)
        finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
        rows[~finite] = 0.0
        self.backend[self.members[~finite]] = "collocation"
        return rows

    def _local_integrals(self, z) -> np.ndarray:
        """Per interval [a_j, c_j] the integral of exp((c_j - t) A) z(t) dt
        for every member, (k, Nz-1, 6), from ``quad``."""
        offsets, rows = _gl_panels(self.solver.vgrid)
        k, nz = len(z), z.shape[-1]
        if self.quad is None:
            # basis rows (b, c) by output component i: B_b[i, c]
            basis = _member_basis(self.prop).reshape(k, 6, 6, 6).transpose(0, 1, 3, 2)
            self.quad = (self._exponential_rows(offsets), basis.reshape(k, 36, 6))
        coef, basis = self.quad
        # w_q z(t_q) (member, interval, node, component): the real rows times the
        # (re, im) columns, per member as in a lone solve, in blocks of about
        # _EXP_CHUNK member-times whose temporaries are reused, not fresh pages
        zt = np.ascontiguousarray(z.transpose(0, 2, 1), dtype=complex).view(float)
        local, width = np.empty((k, nz - 1, 6), dtype=complex), max(1, _EXP_CHUNK // len(rows))
        for b in (slice(lo, lo + width) for lo in range(0, k, width)):
            samples = (rows @ zt[b]).view(complex).reshape(-1, nz - 1, 8, 6)
            local[b] = (coef[b] @ samples).reshape(-1, nz - 1, 36) @ basis[b]
        return local

    def _march(self, z, d) -> np.ndarray:
        """Variation of constants for the matexp members, all marched at once,
        as a view (k, 6, Nz) of node-major profiles: a first pass marches the
        particular solution from y(0) = 0, whose value at b gives y(0); each
        step is one product into its node plus the local integrals (0 unforced)."""
        local = None
        if z is not None and z.any():
            local = np.ascontiguousarray(self._local_integrals(z).transpose(1, 0, 2))[..., None]
        Y = np.zeros((len(self.step) + 1, len(self.members), 6, 1), dtype=complex)

        def sweep():
            for j, step in enumerate(self.step):
                np.matmul(step, Y[j], out=Y[j + 1])
                if local is not None:
                    Y[j + 1] += local[j]

        if local is not None:
            sweep()
        Y[0] = self.Binv @ (d[:, :, None] - self.Nmat @ Y[-1])
        sweep()
        return Y[..., 0].transpose(1, 2, 0)

    def solve(self, z, d) -> np.ndarray:
        """Profiles Y (K, 6, Nz) for bulk forcing ``z`` (K, 6, Nz), or None
        for none, and boundary data ``d`` (K, 6)."""
        d = np.asarray(d, dtype=complex)
        Y = np.empty((len(self.backend), 6, self.solver.vgrid.count), dtype=complex)
        if self.members.size:
            Y[self.members] = self._march(
                None if z is None else z[self.members], d[self.members])
        for i in np.flatnonzero(self.backend == "collocation"):
            Y[i], self.cond[i] = self.solver._solve_collocation(
                self.xis[i], None if z is None else z[i], d[i])
        return Y


@lru_cache(maxsize=8)
def _transverse_basis(vgrid: VerticalGrid, mu: float):
    """The transverse operator with its boundary rows eliminated, diagonalized
    once per vertical grid and viscosity (fast diagonalization: Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).  beta(0) = 0 and the top row gives beta_T
    (T = Nz-1), so the interior solves (sigma I + Abar) beta_I = g = f_I -
    D2[I,T] k / D[T,T], D2 = D D, Abar = -mu (D2[I,I] - D2[I,T] D[T,I] / D[T,T])
    = V Lambda V^-1.  Returns Lambda, the real rows from (f_I, k) to V^-1 g,
    those from (sigma + Lambda)^-1 V^-1 g to beta_I and beta_T + k / (mu D[T,T]),
    mu D[T,T] and cond2(V)^2; an eigenvalue not real and positive raises."""
    D, T, inner = vgrid.diff, vgrid.count - 1, slice(1, -1)
    D2, top = D @ D, D[T, inner] / D[T, T]
    lam, V = np.linalg.eig(-mu * (D2[inner, inner] - np.outer(D2[inner, T], top)))
    if np.iscomplexobj(lam) or lam.min() <= 0.0:
        raise NumericallySingular("a transverse eigenvalue lies off the positive axis")
    Vinv = np.linalg.inv(V)
    return read_only(lam, np.hstack([Vinv, -(Vinv @ D2[inner, T:]) / D[T, T]]),
                     np.vstack([V, -top @ V])) + (mu * D[T, T], np.linalg.cond(V) ** 2)


def transverse_factor(xis, p: PhysicalParams, vgrid: VerticalGrid,
                      gamma_tilde: float, cond_limit: float = DEFAULT_COND_LIMIT):
    """The scalar transverse velocity problems at the frequencies ``xis``
    (K, 2) (horizontal dimension two only),

    gamma_tilde 2 pi i xi_1 beta - mu (dn^2 - 4 pi^2 |xi|^2) beta = f,
    beta(0) = 0, -mu dn beta(b) = k,

    readied for ``transverse_solve`` with no LU: ``_transverse_basis``,
    1 / (sigma + Lambda) (K, Nz-2) with sigma = gamma_tilde 2 pi i xi_1 +
    mu 4 pi^2 |xi|^2, and the bound cond2(V)^2 max|sigma + lambda| /
    min|sigma + lambda| on cond2(sigma I + Abar), (K,).  A bound beyond
    cond_limit raises IllConditionedCollocation naming the worst frequency.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.shape[-1] != 2:
        raise ValueError("transverse problems only arise for dim_h = 2")
    basis = _transverse_basis(vgrid, float(p.mu))
    m = 2.0 * np.pi * np.sqrt(np.vecdot(xis, xis))
    shift = (2j * np.pi * gamma_tilde * xis[:, 0] + p.mu * m * m)[:, None] + basis[0]
    size = np.abs(shift)
    cond = basis[-1] * size.max(axis=1) / size.min(axis=1)
    if cond.size and cond.max() > cond_limit:
        worst = int(np.argmax(cond))
        raise IllConditionedCollocation(
            f"transverse system condition bound {cond[worst]:.3g} beyond {cond_limit:.3g} "
            f"at xi = {tuple(xis[worst].tolist())}", cond_estimate=float(cond[worst]))
    return basis, 1.0 / shift, cond


def transverse_solve(factors, f_transverse, k_transverse) -> np.ndarray:
    """beta (K, Nz) from the factors of ``transverse_factor``, the forcing
    f (K, Nz) and the top data k (K,).  The shared real rows act on each
    frequency's (re, im) columns, one product per frequency, so a
    frequency's beta does not depend on the batch around it."""
    (_, left, right, top, _), scale, _ = factors
    rhs = np.concatenate([np.asarray(f_transverse)[:, 1:-1],
                          np.asarray(k_transverse)[:, None]], axis=1, dtype=complex)
    k, n = rhs.shape[0], rhs.shape[1] - 1
    y = (left @ rhs.view(float).reshape(k, n + 1, 2)).view(complex)[..., 0] * scale
    beta = np.zeros((k, n + 2), dtype=complex)
    beta[:, 1:] = (right @ y.view(float).reshape(k, n, 2)).view(complex)[..., 0]
    beta[:, -1] -= rhs[:, -1] / top
    return beta


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

# boundary data of the symbol solves: a unit normal stress on the top
UNIT_NORMAL_STRESS, = read_only(np.array([0, 0, 0, 0, 1, 0], dtype=complex))


@dataclass
class SymbolEntry:
    """Response profiles to a unit normal stress at one frequency."""

    y: np.ndarray                  # (6, Nz); y[1, -1] is psi(b), y[2, -1] delta(b)
    rho: complex
    backend: str
    cond: float


def rho_of(p: PhysicalParams, xi, om_vn_surf):
    """rho at one frequency, or per frequency for a stack xi (..., dim_h)."""
    xi = _xi_array(xi)
    mag2 = (xi * xi).sum(axis=-1)
    return ((p.sigma0 * 4.0 * np.pi ** 2 * mag2 + p.grav) * np.conj(om_vn_surf)
            + 2j * np.pi * p.gamma * xi[..., 0])


def _dichotomy(prop: np.ndarray, t: np.ndarray):
    """E, O (k, 6, n) with exp(tA) P- = E + O, exp(-tA) P+ = E - O in the basis of
    ``_member_basis`` (P+- = (I +- sign A)/2, xi != 0) at times t (n,) >= 0:
    the even and odd parts of e^{-t|z|} over the eigenvalues +-m, +-l, +-l_h,
    bounded as Re l, Re l_h >= m; delta = l - m = (tau/mu)/(l + m)."""
    m, l, lh, r = (prop[:, i, None] for i in range(4))
    z = t * (r / (l + m))           # t delta; psi(z) = (1 - e^{-z})/z, by its series near 0
    small, zs = np.abs(z) < 1e-3, np.where(np.abs(z) < 1e-3, 1.0, z)
    em, eh, zero = np.exp(-t * m.real), np.exp(-t * lh), np.zeros_like(z)
    tp = em * t * np.where(small, 1 - z / 2 * (1 - z / 3 * (1 - z / 4 * (1 - z / 5))),
                           -np.expm1(-zs) / zs)
    return (np.stack([em / 2, -tp / (2 * (l + m)), zero, zero, eh / 2, zero], axis=1),
            np.stack([zero, zero, -em / (2 * m), (em + m * tp) / (2 * l * m * (l + m)), zero,
                      -eh / (2 * lh)], axis=1))


@np.errstate(all="ignore")      # a non-finite K: the member falls back to collocation
def _twosided_profiles(solver: FrequencySolver, xis: np.ndarray):
    """Unit normal stress profiles (k, 6, Nz) at ``xis`` (k, dim_h), xi != 0,
    and cond_1(K) by the exponential dichotomy (Ascher, Mattheij & Russell 1995,
    ch. 6): y(x) = C(x) v, C(x) = exp(xA) P- + exp((x-b)A) P+, K = M C(0) + N C(b)."""
    s, nodes, n = solver, solver.vgrid.nodes, solver.vgrid.count
    prop = _propagator(xis, s.p, s.gamma_tilde)
    E, O = _dichotomy(prop, np.concatenate([nodes, nodes[-1] - nodes]))
    coef = E[..., :n] + O[..., :n] + E[..., n:] - O[..., n:]
    basis = _member_basis(prop)
    ends = (coef[..., [0, -1]].transpose(0, 2, 1) @ basis).reshape(-1, 2, 6, 6)
    Mmat, Nmat = assemble_boundary(xis, s.p, s.alpha1, s.alpha2)
    Kinv, cond = _inverse_and_cond(Mmat @ ends[:, 0] + Nmat @ ends[:, 1])
    # the basis matrices times v (k, 6, 6) weight the coefficient rows
    w = basis.reshape(-1, 6, 6, 6) @ (Kinv @ UNIT_NORMAL_STRESS)[:, None, :, None]
    return w[..., 0].transpose(0, 2, 1) @ coef, cond


def symbol_profiles(xis, p: PhysicalParams, vgrid: VerticalGrid,
                    cond_limit: float = DEFAULT_COND_LIMIT):
    """Response profiles Y (K, 6, Nz) to a unit normal stress on the top at
    the frequencies ``xis`` (K, dim_h), with the backend and condition
    estimate of each: the adjoint problem (gamma, 0, sigma1), in closed form.
    At xi = 0, A is nilpotent (q = 1 and rho = 0) and y(x) = exp(xA) B^-1 d,
    B = M + N exp(bA) (matexp, cond_1(B)); every other xi is two-sided
    (cond_1(K)).  Where the condition exceeds ``cond_limit``, collocation
    (its LAPACK estimate).
    """
    xis = np.asarray(xis, dtype=float)
    solver = FrequencySolver(p, vgrid, p.gamma, 0.0, p.sigma1, cond_limit=cond_limit)
    zero = ~xis.any(axis=-1)
    Y = np.empty((len(xis), 6, vgrid.count), dtype=complex)
    backend = np.where(zero, BACKENDS[0], BACKENDS[1]).astype(object)
    cond = np.empty(len(xis))
    if zero.any():
        X, _ = _member_exponentials(_propagator(xis[zero], p, p.gamma), vgrid.nodes)
        Mmat, Nmat = assemble_boundary(xis[zero], p, 0.0, p.sigma1)
        Binv, cond[zero] = _inverse_and_cond(Mmat + Nmat @ X[:, -1])
        Y[zero] = (X @ (Binv @ UNIT_NORMAL_STRESS)[:, None, :, None])[..., 0].transpose(0, 2, 1)
    if not zero.all():
        Y[~zero], cond[~zero] = _twosided_profiles(solver, xis[~zero])
    for i in np.flatnonzero(cond > cond_limit):
        backend[i] = BACKENDS[2]
        Y[i], cond[i] = solver._solve_collocation(xis[i], None, UNIT_NORMAL_STRESS)
    return Y, backend, cond


def solve_symbol(xi, p: PhysicalParams, vgrid: VerticalGrid) -> SymbolEntry:
    """``symbol_profiles`` at one frequency, as a table row."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    Y, backend, cond = symbol_profiles(xi[None], p, vgrid)
    return SymbolEntry(Y[0], rho_of(p, xi, Y[0, 1, -1]), backend[0], float(cond[0]))


class SymbolTable:
    """Response symbols over a frequency lattice, stored as lattice arrays
    and solved on demand.

    ``y`` has shape freq_shape + (6, Nz); ``rho``, ``backend``, ``cond`` and
    the mask ``solved`` have shape freq_shape.  ``solve`` adds half-lattice
    frequencies and their mirrors on the self-paired planes; where none is
    solved, ``y`` and ``rho`` are 0, ``backend`` None and ``cond`` 0.
    ``build`` solves them all.
    """

    def __init__(self, grid, vgrid, p: PhysicalParams,
                 cond_limit: float = DEFAULT_COND_LIMIT):
        self.grid, self.vgrid, self.params, self.cond_limit = grid, vgrid, p, cond_limit
        self.y = np.zeros(grid.freq_shape + (6, vgrid.count), dtype=complex)
        self.rho = np.zeros(grid.freq_shape, dtype=complex)
        self.backend = np.full(grid.freq_shape, None, dtype=object)
        self.cond = np.zeros(grid.freq_shape)
        self.solved = np.zeros(grid.freq_shape, dtype=bool)

    @classmethod
    def build(cls, grid, vgrid, p: PhysicalParams,
              cond_limit: float = DEFAULT_COND_LIMIT) -> "SymbolTable":
        return cls(grid, vgrid, p, cond_limit).solve(grid.half_mask)

    def solve(self, mask: np.ndarray) -> "SymbolTable":
        """Solve the half-lattice frequencies of the lattice mask ``mask``
        not solved yet, as one ``symbol_profiles`` call, and mirror them."""
        grid, p = self.grid, self.params
        new = mask & grid.half_mask & ~self.solved
        if new.any():
            xis = grid.xi_vectors[new]
            Y, self.backend[new], self.cond[new] = symbol_profiles(
                xis, p, self.vgrid, self.cond_limit)
            self.y[new], self.rho[new] = Y, rho_of(p, xis, Y[:, 1, -1])
            self.y, self.rho, self.backend, self.cond = (conjugate_mirror(a, grid, 0) for a in (
                self.y, self.rho, self.backend, self.cond))
            self.solved = np.not_equal(self.backend, None)
        return self

    def entry(self, idx) -> SymbolEntry:
        """View of one lattice point as a SymbolEntry."""
        idx = tuple(idx)
        return SymbolEntry(self.y[idx], complex(self.rho[idx]), self.backend[idx],
                           float(self.cond[idx]))

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

Two backends solve the system and validate each other:

* ``matexp``: the variation-of-constants representation
  y(x) = exp(xA) B^{-1} (d - N int_0^b exp((b-t)A) z dt) + int_0^x exp((x-t)A) z dt,
  B = M + N exp(bA), evaluated by forward marching with per-interval
  exponentials and composite Gauss-Legendre panels (an exact regrouping of
  the same integrals).  The exponentials are closed-form: A(xi) splits into
  a Stokes and a heat block with known eigenvalues, so exp(tA) is a few
  cosh/sinh divided differences times fixed matrices per frequency;
  ``matrix_exponential``, a checked wrapper of scipy's ``expm``, is the
  tests' oracle.  A FrequencyStack prepares and solves many frequencies at
  once: the boundary matrices and the step exponentials are stacks across
  frequencies, the quadrature stays in the propagator's coefficient basis,
  and the marches run over the intervals with every frequency at once.
  The panels' nodes, weights and interpolation rows are built once per
  solver.  It degrades once exp(2 pi |xi| b) eats the floating point
  headroom, so it is gated by a configurable split.

* ``collocation``: direct Chebyshev collocation of the first-order system,
  valid at all frequencies.  Its interior rows never couple the Stokes
  unknowns (phi, psi, q, dn phi) with the heat unknowns (delta, dn delta);
  only the tangential stress (alpha1 delta(b)) and the heat flux
  (alpha2 phi(b)) reach across.  So each frequency factors a 4Nz Stokes
  block and a 2Nz heat block, and a solve joins them through a 2x2 system
  for (phi(b), delta(b)).

The homogeneous solve with d = (0,0,0,0,1,0) yields the response symbols to
a unit normal stress on the top boundary; their top traces assemble the
surface multiplier rho(xi) = (sigma0 4 pi^2 |xi|^2 + grav) conj(psi(b))
+ 2 pi i gamma xi_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import IllConditionedCollocation, NumericallySingular
from .fields import conjugate_mirror
from .grids import VerticalGrid
from .params import PhysicalParams

DEFAULT_SPLIT = 30.0
SYMBOL_SPLIT = 10.0
DEFAULT_COND_LIMIT = 1e12
_GL_NODES, _GL_WEIGHTS = leggauss(8)
# member-times per coefficient call of a FrequencyStack: 2 MiB of temporaries
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

def _shc(z, sinh=None):
    """sinh(z)/z, by its Taylor series where |z| < 1e-4, else from ``sinh``
    (sinh(z), by default np.sinh): each branch only where it is taken."""
    out, small = np.empty_like(z), np.abs(z) < 1e-4
    large = np.sinh(z[~small]) if sinh is None else sinh[~small]
    out[small], out[~small] = 1.0 + z[small] ** 2 / 6.0, large / z[~small]
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


@np.errstate(all="ignore")      # overflow: the member falls back to collocation
def _member_coefficients(prop: np.ndarray, t):
    """The coefficients of exp(tA) in the basis of ``_member_basis`` for
    every member of a stack with ``_propagator`` rows ``prop`` and every
    time of ``t``, shape (k,) + t.shape + (6,).

    c0 = cosh(tm) and s0 = t shc(tm), real.  c1 and s1 are the divided
    differences G[m^2, l^2] of G(s) = cosh(t sqrt s) and sinh(t sqrt s)/sqrt s
    (Moler & Van Loan, SIAM Rev. 45, 2003), each formula evaluated only on
    the member-times that select it: one Taylor series for both when
    t max(|l|, m) <= 1; else c1 = (t^2/2) shc(u) shc(v) with u = t (l + m)/2,
    v = t (l - m)/2 = t (tau/mu)/(2 (l + m)), and s1 = t (cosh(u) shc(v) -
    shc(u) cosh(v)) / (2 l m) when |v| <= 1/2, else the quotient of
    differences.  l = m (tau = 0) is their confluent limit, xi = 0 gives
    I + tA.  The heat block takes cosh(t l_h) and t shc(t l_h).
    """
    tf = np.ravel(np.asarray(t, dtype=float))
    m, l, lh, r = prop[:, 0].real[:, None], prop[:, 1, None], prop[:, 2, None], prop[:, 3, None]
    tm, tl, tlh = tf * m, tf * l, tf * lh
    coef = np.empty(tm.shape + (6,), dtype=complex)
    # c1 = t^2 sum_{k=1}^9 h_{k-1}/(2k)!, s1 = t^3 sum_{k=1}^9 h_{k-1}/(2k+1)!
    # (the tail is below 1e-17 of each sum while |a|, |b| <= 1) in the complete
    # homogeneous polynomials h_j = b h_{j-1} + a^j of a = (tm)^2 and b = (tl)^2
    series = tf * np.maximum(np.abs(l), m) <= 1.0
    ts, tms, tls = (np.broadcast_to(x, tm.shape)[series] for x in (tf, tm, tl))
    a, b = (tms * tms).astype(complex), tls * tls
    h, ak, even, odd = 1.0, 1.0, 0.0, 0.0
    for ce, co in ((1.0 / factorial(2 * k), 1.0 / factorial(2 * k + 1)) for k in range(1, 10)):
        even, odd, ak = even + h * ce, odd + h * co, ak * a
        h = b * h + ak
    coef[series, 1], coef[series, 3] = ts * ts * even, ts ** 3 * odd
    # the rest, where l + m != 0 (it vanishes only at xi = 0, in the series)
    rest = ~series
    tr, tmr, tlr, lr, mr, rr = (np.broadcast_to(x, tm.shape)[rest] for x in (tf, tm, tl, l, m, r))
    u, v = 0.5 * (tlr + tmr), 0.5 * tr * rr / (lr + mr)
    coef[rest, 1] = 0.5 * tr * tr * _shc(u) * _shc(v)
    near, s1 = np.abs(v) <= 0.5, np.empty_like(u)
    s1[near] = tr[near] * (np.cosh(u[near]) * _shc(v[near]) - _shc(u[near]) * np.cosh(v[near])) \
        / (2.0 * lr[near] * mr[near])
    s1[~near] = tr[~near] * (_shc(tlr[~near]) - _shc(tmr[~near])) / rr[~near]
    coef[rest, 3] = s1
    # cosh and sinh of t l_h from the real cosh, sinh, cos and sin of its parts
    cx, sx, cy, sy = np.cosh(tlh.real), np.sinh(tlh.real), np.cos(tlh.imag), np.sin(tlh.imag)
    coef[..., 0], coef[..., 2], coef[..., 4] = np.cosh(tm), tf * _shc(tm), cx * cy + 1j * (sx * sy)
    coef[..., 5] = tf * _shc(tlh, sx * cy + 1j * (cx * sy))
    return coef.reshape(prop.shape[:1] + np.shape(t) + (6,))


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
    coef = _member_coefficients(prop, t)
    X = (coef.reshape(len(prop), -1, 6) @ _member_basis(prop)).reshape(coef.shape[:-1] + (6, 6))
    return X, np.isfinite(X).reshape(len(prop), -1).all(axis=1)


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


def _factor_checked(sys: np.ndarray, cond_limit: float, what: str):
    """LU factors of ``sys`` (overwritten when Fortran-ordered) and its 1-norm
    condition estimate; raises IllConditionedCollocation beyond cond_limit."""
    # column sums over C-ordered magnitudes round as np.linalg.norm(sys, 1)
    # does on a C-ordered system
    anorm = float(np.abs(sys, order="C").sum(axis=0).max())
    lu = lu_factor(sys, overwrite_a=True)
    from scipy.linalg import lapack
    gecon = lapack.zgecon if sys.dtype == np.complex128 else lapack.cgecon
    rcond, _ = gecon(lu[0], anorm)
    cond_estimate = 1.0 / max(rcond, np.finfo(float).tiny)
    if cond_estimate > cond_limit:
        raise IllConditionedCollocation(
            f"{what} condition estimate {cond_estimate:.3g} beyond "
            f"{cond_limit:.3g}", cond_estimate=cond_estimate)
    return lu, cond_estimate


# The Stokes and heat blocks of the collocation system: their components,
# and the entry (row, column) of N by which the other block reaches each,
# held in the top row of q (tangential stress, -alpha1 m delta(b)) and of
# dn delta (heat flux, alpha2 m phi(b)).
_BLOCKS = ((_STOKES, (3, 2)), ((2, 5), (5, 0)))


def _boundary_rows(comps, nz: int) -> list:
    """Rows of a block's system that hold the boundary conditions: the bottom
    node of phi, psi and delta (M = [I 0]), the top node of the others."""
    return [r * nz + (0 if c < 3 else nz - 1) for r, c in enumerate(comps)]


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
        self._quad = None

    # -- backend selection ---------------------------------------------------

    def _scale(self, xi) -> np.ndarray:
        """2 pi |xi| b per frequency (last axis of ``xi`` = dim_h)."""
        return 2.0 * np.pi * np.linalg.norm(xi, axis=-1) * self.vgrid.depth

    def backend_for(self, xi) -> str:
        return "matexp" if self._scale(_xi_array(xi)) <= self.split else "collocation"

    def _quadrature(self):
        """Composite Gauss-Legendre panels of the vertical grid, shared by every
        frequency: per interval [a_j, c_j] and node t_q the offsets c_j - t_q
        and the weights, both (Nz-1, 8), and the real interpolation rows at
        the t_q, (8 (Nz-1), Nz) interval-major."""
        if self._quad is None:
            nodes = self.vgrid.nodes
            a, c = nodes[:-1, None], nodes[1:, None]
            h = c - a
            tq = 0.5 * (c + a) + 0.5 * h * _GL_NODES
            rows = self.vgrid.interp_weights(tq).reshape(-1, nodes.size)
            self._quad = (c - tq, 0.5 * h * _GL_WEIGHTS, rows)
        return self._quad

    # -- collocation backend ---------------------------------------------------

    def _solve_collocation(self, xi, z_profile, d_vec):
        """Collocation solve at one frequency; returns (Y, cond_estimate).

        Factors the Stokes and heat blocks and solves each against the data
        and its coupling column: the other block's top value (delta(b) or
        phi(b)) times its entry of N, placed in its row.  The 2x2 system for
        phi(b) and delta(b), which lead their blocks (index nz-1), joins
        them; it is unit triangular for the forward and the adjoint problem.
        """
        from scipy.linalg import lu_solve
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
            lu, cond = _factor_checked(sys, self.cond_limit, "collocation")
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
    solve with bulk forcing: the weighted coefficients w_q coef_b(c_j - t_q),
    (k, Nz-1, 6, 8), and each member's basis, (k, 36, 6), k (48 (Nz-1) + 216)
    complex numbers.  The local integral sum_q w_q exp((c_j - t_q) A) z(t_q)
    is then sum_b B_b (sum_q w_q coef_b z(t_q)).  ``_member_coefficients``
    makes them branch by branch in calls of at most _EXP_CHUNK member-times,
    so no temporary grows with members times intervals.  Every solve solves
    every member: a caller leaves a frequency without data out of the stack.

    A member whose exponentials are not finite or whose cond(B) exceeds the
    solver's limit is solved by collocation instead; the other members are
    unaffected.  ``colloc`` lists the collocation members.  Their Stokes and
    heat blocks are factored at every solve and dropped after the member is
    solved, so one member's pair of factorisations is alive at a time.
    ``backend`` and ``cond`` (K,) record what each member is solved with;
    the cond of a collocation member, the larger of its blocks' estimates,
    is set when it is solved.
    """

    def __init__(self, solver: FrequencySolver, xis):
        self.solver = solver
        self.xis = np.asarray(xis, dtype=float)
        matexp = solver._scale(self.xis) <= solver.split
        self.backend = np.where(matexp, "matexp", "collocation").astype(object)
        self.cond = np.zeros(len(self.xis))
        self.members = np.flatnonzero(matexp)
        self.colloc = []                # collocation members
        if self.members.size:
            self._prepare_matexp()
        for i in np.flatnonzero(~matexp):
            self._to_collocation(i)

    def _to_collocation(self, i: int):
        self.colloc.append(int(i))
        self.backend[i] = "collocation"

    def _prepare_matexp(self):
        s = self.solver
        xis = self.xis[self.members]
        prop = _propagator(xis, s.p, s.gamma_tilde)
        Mmat, Nmat = assemble_boundary(xis, s.p, s.alpha1, s.alpha2)
        # B = M + N exp(bA); cond(B) is inf where B is not finite
        expb, ok = _member_exponentials(prop, s.vgrid.depth)
        B = Mmat + Nmat @ expb
        ok &= np.isfinite(B).all(axis=(-2, -1))
        cond = np.full(len(B), np.inf)
        cond[ok] = np.linalg.cond(B[ok])
        ok &= cond <= s.cond_limit
        self.cond[self.members] = cond
        for i in self.members[~ok]:
            self._to_collocation(i)
        self.members = self.members[ok]
        self.prop, self.Binv, self.Nmat = prop[ok], np.linalg.inv(B[ok]), Nmat[ok]
        coef = self._exponential_rows(np.diff(s.vgrid.nodes)).transpose(1, 0, 2)
        self.step = (coef[:, :, None] @ _member_basis(self.prop)).reshape(coef.shape + (6,))
        self.quad = None

    def _exponential_rows(self, t) -> np.ndarray:
        """The coefficients of exp(tA) of every member at every time of
        ``t``, (k,) + t.shape + (6,), in calls that hold all times of a
        member.  A member whose coefficients fail gets zero rows, which the
        march carries, and is solved by collocation instead."""
        t = np.asarray(t)
        rows = np.empty((len(self.members),) + t.shape + (6,), dtype=complex)
        width = max(1, _EXP_CHUNK // t.size)
        for lo in range(0, len(rows), width):
            rows[lo:lo + width] = _member_coefficients(self.prop[lo:lo + width], t)
        finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
        rows[~finite] = 0.0
        for i in self.members[~finite]:
            self._to_collocation(i)
        return rows

    def _local_integrals(self, z) -> np.ndarray:
        """Per interval [a_j, c_j] the integral of exp((c_j - t) A) z(t) dt
        for every member, (k, Nz-1, 6), from ``quad``."""
        offsets, weights, rows = self.solver._quadrature()
        k, nz = len(z), z.shape[-1]
        if self.quad is None:
            coef = self._exponential_rows(offsets)
            coef *= weights[..., None]
            # basis rows (b, c) by output component i: B_b[i, c]
            basis = _member_basis(self.prop).reshape(k, 6, 6, 6).transpose(0, 1, 3, 2)
            self.quad = (np.ascontiguousarray(coef.transpose(0, 1, 3, 2)), basis.reshape(k, 36, 6))
        coef, basis = self.quad
        # samples z(t_q) (member, interval, node, component): real rows times
        # the (re, im) columns, one product per member as in a lone solve
        zt = np.ascontiguousarray(z.transpose(0, 2, 1), dtype=complex).view(float)
        samples = (rows @ zt).view(complex).reshape(k, nz - 1, 8, 6)
        return (coef @ samples).reshape(k, nz - 1, 36) @ basis

    def _march(self, z, d) -> np.ndarray:
        """Variation of constants for the matexp members, marched over the
        intervals with every member at once; the local integrals are added
        to the members with bulk forcing."""
        step = self.step
        nz = len(step) + 1
        forced = None if z is None else z.reshape(len(z), -1).any(axis=1)
        local = self._local_integrals(z)[..., None] if forced is not None and forced.any() else None
        integral = np.zeros((len(self.members), 6, 1), dtype=complex)
        if local is not None:
            for j in range(nz - 1):
                integral = step[j] @ integral
                integral[forced] += local[forced, j]
        y = self.Binv @ (d[:, :, None] - self.Nmat @ integral)
        Y = np.empty((len(self.members), 6, nz), dtype=complex)
        Y[..., 0] = y[..., 0]
        for j in range(nz - 1):
            y = step[j] @ y
            if local is not None:
                y[forced] += local[forced, j]
            Y[..., j + 1] = y[..., 0]
        return Y

    def solve(self, z, d) -> np.ndarray:
        """Profiles Y (K, 6, Nz) for bulk forcing ``z`` (K, 6, Nz), or None
        for none, and boundary data ``d`` (K, 6)."""
        d = np.asarray(d, dtype=complex)
        Y = np.empty((len(self.backend), 6, self.solver.vgrid.count), dtype=complex)
        if self.members.size:
            Y[self.members] = self._march(
                None if z is None else z[self.members], d[self.members])
        for i in self.colloc:
            Y[i], self.cond[i] = self.solver._solve_collocation(
                self.xis[i], None if z is None else z[i], d[i])
        return Y


def transverse_factor(xis, p: PhysicalParams, vgrid: VerticalGrid,
                      gamma_tilde: float, cond_limit: float = DEFAULT_COND_LIMIT):
    """LU factors of the scalar transverse velocity problems at the
    frequencies ``xis`` (K, 2) (horizontal dimension two only), each checked
    against cond_limit, stacked as (K, Nz, Nz) and (K, Nz):

    gamma_tilde 2 pi i xi_1 beta - mu (dn^2 - 4 pi^2 |xi|^2) beta = f,
    beta(0) = 0, -mu dn beta(b) = k.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.shape[-1] != 2:
        raise ValueError("transverse problems only arise for dim_h = 2")
    nz = vgrid.count
    m = 2.0 * np.pi * np.sqrt(np.vecdot(xis, xis))
    t = 2j * np.pi * gamma_tilde * xis[:, 0]
    D = vgrid.diff
    eye = np.eye(nz)
    L = t[:, None, None] * eye - p.mu * (D @ D - (m * m)[:, None, None] * eye)
    L[:, 0] = 0.0
    L[:, 0, 0] = 1.0
    L[:, -1] = -p.mu * D[-1]
    piv = np.empty((len(L), nz), dtype=np.int32)
    for i in range(len(L)):
        (L[i], piv[i]), _ = _factor_checked(L[i], cond_limit, "transverse system")
    return L, piv


def transverse_solve(factors, f_transverse, k_transverse) -> np.ndarray:
    """beta (K, Nz) from the factors of ``transverse_factor``, the forcing
    f (K, Nz) and the top data k (K,), one LAPACK getrs per frequency."""
    rhs = np.array(f_transverse, dtype=complex)
    rhs[:, 0] = 0.0
    rhs[:, -1] = k_transverse
    from scipy.linalg.lapack import zgetrs
    for lu, piv, b in zip(*factors, rhs):
        b[:], _ = zgetrs(lu, piv, b)
    return rhs


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

# boundary data of the symbol solves: a unit normal stress on the top
UNIT_NORMAL_STRESS = np.array([0, 0, 0, 0, 1, 0], dtype=complex)
UNIT_NORMAL_STRESS.flags.writeable = False


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


def symbol_profiles(xis, p: PhysicalParams, vgrid: VerticalGrid,
                    split: float = SYMBOL_SPLIT,
                    cond_limit: float = DEFAULT_COND_LIMIT):
    """Response profiles Y (K, 6, Nz) to a unit normal stress on the top at
    the frequencies ``xis`` (K, dim_h), with the backend and condition
    estimate of each: the adjoint problem (gamma, 0, sigma1), solved as one
    FrequencyStack, which is freed on return.

    xi = 0 is no special case: A(0) is nilpotent, the pressure symbol comes
    out identically one and every other response zero, so rho(0) = 0.
    """
    stack = FrequencySolver(p, vgrid, p.gamma, 0.0, p.sigma1, split=split,
                            cond_limit=cond_limit).prepare(xis)
    Y = stack.solve(None, np.broadcast_to(UNIT_NORMAL_STRESS, (len(xis), 6)))
    return Y, stack.backend, stack.cond


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

    def __init__(self, grid, vgrid, p: PhysicalParams, split: float = SYMBOL_SPLIT,
                 cond_limit: float = DEFAULT_COND_LIMIT):
        self.grid, self.vgrid, self.params = grid, vgrid, p
        self.split, self.cond_limit = split, cond_limit
        self.y = np.zeros(grid.freq_shape + (6, vgrid.count), dtype=complex)
        self.rho = np.zeros(grid.freq_shape, dtype=complex)
        self.backend = np.full(grid.freq_shape, None, dtype=object)
        self.cond = np.zeros(grid.freq_shape)
        self.solved = np.zeros(grid.freq_shape, dtype=bool)

    @classmethod
    def build(cls, grid, vgrid, p: PhysicalParams, split: float = SYMBOL_SPLIT,
              cond_limit: float = DEFAULT_COND_LIMIT) -> "SymbolTable":
        return cls(grid, vgrid, p, split, cond_limit).solve(grid.half_mask())

    def solve(self, mask: np.ndarray) -> "SymbolTable":
        """Solve the half-lattice frequencies of the lattice mask ``mask``
        not solved yet, as one ``symbol_profiles`` call, and mirror them."""
        grid, p = self.grid, self.params
        new = mask & grid.half_mask() & ~self.solved
        if new.any():
            xis = grid.xi_vectors()[new]
            Y, self.backend[new], self.cond[new] = symbol_profiles(
                xis, p, self.vgrid, self.split, self.cond_limit)
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

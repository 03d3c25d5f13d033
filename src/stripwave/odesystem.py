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
  once: the boundary matrices, the step and quadrature exponentials are
  stacks across frequencies, and the marches run over the intervals with
  every frequency at once.  The panels' nodes, weights and interpolation
  rows are built once per solver.  It degrades once exp(2 pi |xi| b) eats
  the floating point headroom, so it is gated by a configurable split.

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
from scipy.linalg import expm, lu_factor, lu_solve
from scipy.linalg import lapack as _lapack

from .errors import IllConditionedCollocation, NumericallySingular
from .fields import conjugate_mirror, reflect
from .grids import VerticalGrid
from .params import PhysicalParams

DEFAULT_SPLIT = 30.0
SYMBOL_SPLIT = 10.0
DEFAULT_COND_LIMIT = 1e12
_GL_NODES, _GL_WEIGHTS = leggauss(8)
# matrices per propagator call of a FrequencyStack: bounds its temporaries
_EXP_CHUNK = 2048
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
    X = expm(A)
    if not np.all(np.isfinite(X)):
        raise NumericallySingular("matrix exponential overflowed")
    return X


# ---------------------------------------------------------------------------
# Closed-form block propagator exp(tA)
# ---------------------------------------------------------------------------

def _shc(z):
    """sinh(z)/z, by its Taylor series near 0."""
    return np.where(np.abs(z) < 1e-4, 1.0 + z * z / 6.0, np.sinh(z) / z)


def _propagator(xis, p: PhysicalParams, gamma_tilde: float) -> np.ndarray:
    """Per frequency of ``xis`` (k, dim_h), the row (52,) from which
    ``_member_exponentials`` builds exp(tA): m = 2 pi |xi|, l, l_h, tau/mu,
    then P, A_s and A_s P (16 entries each).  The Stokes block A_s (phi,
    psi, q, dn phi) has the eigenvalues +-m and +-l, l^2 = m^2 + tau/mu with
    tau = 2 pi i gamma_tilde xi_1, and the heat block A_h (delta, dn delta)
    +-l_h, l_h^2 = m^2 + tau/kappa.  Both are even in A, so
    exp(tA_s) = c0 I + c1 P + s0 A_s + s1 A_s P with P = A_s^2 - m^2 I, and
    exp(tA_h) = cosh(t l_h) I + t shc(t l_h) A_h.
    """
    A = assemble_bulk_matrix(xis, p, gamma_tilde)
    m = 2.0 * np.pi * np.linalg.norm(xis, axis=-1)
    r = 2j * np.pi * gamma_tilde * xis[:, 0] / p.mu
    As = A[:, _STOKES][:, :, _STOKES]
    P = As @ As - (m * m)[:, None, None] * np.eye(4)
    scalars = np.stack([m, np.sqrt(m * m + r), np.sqrt(A[:, 5, 2]), r], axis=-1)
    return np.concatenate([scalars] + [B.reshape(-1, 16) for B in (P, As, As @ P)], axis=-1)


@np.errstate(all="ignore")      # overflow, and 0/0 in the branches not taken
def _member_exponentials(prop: np.ndarray, t):
    """exp(tA) for every member of a stack with ``_propagator`` rows
    ``prop`` and every time of ``t``, shape (k,) + t.shape + (6, 6), with a
    mask of the members whose exponential is finite.

    c0 = cosh(tm), s0 = t shc(tm), c1 = (t^2/2) shc(u) shc(v) with
    u = t (l + m)/2, v = t (l - m)/2 and l - m = (tau/mu)/(l + m).  s1 is
    the divided difference G[m^2, l^2] of G(s) = sinh(t sqrt s)/sqrt s
    (Moler & Van Loan, SIAM Rev. 45, 2003): its Taylor series when
    t max(|l|, m) <= 1, t (cosh(u) shc(v) - shc(u) cosh(v)) / (2 l m) when
    |v| <= 1/2, else the quotient of differences.  l = m (tau = 0) is the
    confluent limit of the same formulas, and xi = 0 gives I + tA.
    """
    tf = np.ravel(t)
    m, l, lh, r = (prop[:, i, None] for i in range(4))
    tm, tl, tlh = tf * m, tf * l, tf * lh
    u = 0.5 * (tl + tm)
    v = 0.5 * tf * r / np.where(l + m == 0, 1.0, l + m)
    # t^3 sum_{k>=1} h_{k-1}((tm)^2, (tl)^2) / (2k+1)!, with the complete
    # homogeneous polynomials h_j(a, b) = b h_{j-1}(a, b) + a^j
    a, b = tm * tm, tl * tl
    h, ak, series = 1.0, 1.0, 0.0
    for k in range(1, 11):
        series, ak = series + h / factorial(2 * k + 1), ak * a
        h = b * h + ak
    shc_u, shc_v, shc_tm = _shc(u), _shc(v), _shc(tm)
    s1 = np.where(tf * np.maximum(np.abs(l), m.real) <= 1.0, tf ** 3 * series,
                  np.where(np.abs(v) <= 0.5,
                           tf * (np.cosh(u) * shc_v - shc_u * np.cosh(v)) / (2.0 * l * m),
                           tf * (_shc(tl) - shc_tm) / r))
    coef = np.stack([np.cosh(tm), 0.5 * tf * tf * shc_u * shc_v, tf * shc_tm, s1,
                     np.cosh(tlh), tf * _shc(tlh)], axis=-1)
    # the basis I, P, A_s, A_s P, I, A_h of the blocks as 6x6 matrices
    basis = np.zeros((len(prop), 6, 6, 6), dtype=complex)
    stokes = np.array(_STOKES)
    basis[:, 0, stokes, stokes] = basis[:, 4, [2, 5], [2, 5]] = basis[:, 5, 2, 5] = 1.0
    basis[:, 1:4, stokes[:, None], stokes] = prop[:, 4:].reshape(-1, 3, 4, 4)
    basis[:, 5, 5, 2] = prop[:, 2] ** 2
    X = (coef @ basis.reshape(-1, 6, 36)).reshape(prop.shape[:1] + np.shape(t) + (6, 6))
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


def _factor_checked(sys: np.ndarray, cond_limit: float, what: str):
    """LU factors of ``sys`` (overwritten when Fortran-ordered) and its 1-norm
    condition estimate; raises IllConditionedCollocation beyond cond_limit."""
    # column sums over C-ordered magnitudes round as np.linalg.norm(sys, 1)
    # does on a C-ordered system
    anorm = float(np.abs(sys, order="C").sum(axis=0).max())
    lu = lu_factor(sys, overwrite_a=True)
    gecon = _lapack.zgecon if sys.dtype == np.complex128 else _lapack.cgecon
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
        self.p = p
        self.vgrid = vgrid
        self.gamma_tilde = gamma_tilde
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.split = split
        self.cond_limit = cond_limit
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
        and the weights, both (Nz-1, 8), and the interpolation rows at the
        t_q, (8 (Nz-1), Nz) interval-major."""
        if self._quad is None:
            nodes = self.vgrid.nodes
            a, c = nodes[:-1, None], nodes[1:, None]
            h = c - a
            tq = 0.5 * (c + a) + 0.5 * h * _GL_NODES
            rows = self.vgrid.interp_weights(tq).reshape(-1, nodes.size)
            self._quad = (c - tq, 0.5 * h * _GL_WEIGHTS, rows.astype(complex))
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
    keeps the step exponentials exp(h_j A) of every member as one (k, 6, 6)
    array per interval j, made when the stack is built.  ``quad`` keeps the
    weighted Gauss-Legendre exponentials w_q exp((c_j - t_q) A) as one
    (k, 6, 8*6) array per interval, made at the first solve with bulk
    forcing, so that the quadrature of an interval is one matrix-vector
    product per member.  The exponentials are computed in calls of at most
    _EXP_CHUNK matrices (one member's exponentials stay in one call) and
    written in place into the arrays per interval, so no allocation grows
    with the product of frequencies and intervals.  Every solve solves every
    member: a caller leaves a frequency without data out of the stack.

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
        self.step = self._exponential_rows(np.diff(s.vgrid.nodes), (6, 6),
                                           lambda j, X: X)
        self.quad = None

    def _exponential_rows(self, t, shape, rows_of) -> list:
        """Per interval j, the rows rows_of(j, exp(t_j A)) of every member as
        one array (k,) + ``shape``.  A call holds all times of its members
        and at most _EXP_CHUNK matrices when it holds more than one member.
        A member whose exponential fails gets zero rows, which the march
        carries, and is solved by collocation instead."""
        t = np.asarray(t)
        finite = np.ones(len(self.members), dtype=bool)
        arrays = [np.empty((len(finite),) + shape, dtype=complex) for _ in range(len(t))]
        width = max(1, _EXP_CHUNK // t.size)
        for lo in range(0, len(finite), width):
            blk = slice(lo, lo + width)
            X, finite[blk] = _member_exponentials(self.prop[blk], t)
            X[~finite[blk]] = 0.0
            for j, rows in enumerate(arrays):
                rows[blk] = rows_of(j, X[:, j])
        for i in self.members[~finite]:
            self._to_collocation(i)
        return arrays

    def _local_integrals(self, z) -> list:
        """Per interval [a_j, c_j] the integral of exp((c_j - t) A) z(t) dt
        for every member, (k, 6, 1) each."""
        offsets, weights, rows = self.solver._quadrature()
        if self.quad is None:
            self.quad = self._exponential_rows(offsets, (6, 48), lambda j, X: (
                weights[j, :, None, None] * X).transpose(0, 2, 1, 3).reshape(-1, 6, 48))
        zt = z.transpose(0, 2, 1)
        # samples (member, node, component): the column order of quad
        return [q @ (r @ zt).reshape(-1, 48, 1)
                for q, r in zip(self.quad, rows.reshape(len(self.quad), 8, -1))]

    def _march(self, z, d) -> np.ndarray:
        """Variation of constants for the matexp members, marched over the
        intervals with every member at once; the local integrals are added
        to the members with bulk forcing."""
        step = self.step
        nz = len(step) + 1
        forced = None if z is None else z.reshape(len(z), -1).any(axis=1)
        local = self._local_integrals(z) if forced is not None and forced.any() else None
        integral = np.zeros((len(self.members), 6, 1), dtype=complex)
        if local is not None:
            for j in range(nz - 1):
                integral = step[j] @ integral
                integral[forced] += local[j][forced]
        y = self.Binv @ (d[:, :, None] - self.Nmat @ integral)
        Y = np.empty((len(self.members), 6, nz), dtype=complex)
        Y[..., 0] = y[..., 0]
        for j in range(nz - 1):
            y = step[j] @ y
            if local is not None:
                y[forced] += local[j][forced]
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


def lattice_record(grid, backend, cond):
    """``backend`` and ``cond`` of the half lattice, in the order of
    grid.xi_vectors()[grid.half_mask()], as lattice arrays: the mirror on
    the other half."""
    half = grid.half_mask()
    full_backend = np.empty(grid.freq_shape, dtype=object)
    full_cond = np.zeros(grid.freq_shape)
    full_backend[half], full_cond[half] = backend, cond
    return (np.where(half, full_backend, reflect(full_backend, grid, 0)),
            conjugate_mirror(full_cond, grid, 0))


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
    f (K, Nz) and the top data k (K,), as one batched solve."""
    rhs = np.array(f_transverse, dtype=complex)
    rhs[:, 0] = 0.0
    rhs[:, -1] = k_transverse
    return lu_solve(factors, rhs[..., None])[..., 0]


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
    """Response symbols over a frequency lattice, stored as lattice arrays.

    ``y`` has shape freq_shape + (6, Nz); ``rho``, ``backend`` and ``cond``
    have shape freq_shape.  ``build`` solves the half lattice, xi = 0
    included, with ``symbol_profiles`` and fills the rest with the conjugate
    mirror.
    """

    def __init__(self, grid, vgrid, p: PhysicalParams, y: np.ndarray,
                 rho: np.ndarray, backend: np.ndarray, cond: np.ndarray):
        self.grid = grid
        self.vgrid = vgrid
        self.params = p
        self.y = y
        self.rho = rho
        self.backend = backend
        self.cond = cond

    @classmethod
    def build(cls, grid, vgrid, p: PhysicalParams,
              split: float = SYMBOL_SPLIT,
              cond_limit: float = DEFAULT_COND_LIMIT) -> "SymbolTable":
        half = grid.half_mask()
        xis = grid.xi_vectors()[half]
        Y, backend, cond = symbol_profiles(xis, p, vgrid, split, cond_limit)
        backend, cond = lattice_record(grid, backend, cond)
        y = np.zeros(grid.freq_shape + (6, vgrid.count), dtype=complex)
        y[half] = Y
        rho = np.zeros(grid.freq_shape, dtype=complex)
        rho[half] = rho_of(p, xis, Y[:, 1, -1])
        return cls(grid, vgrid, p, conjugate_mirror(y, grid, 0),
                   conjugate_mirror(rho, grid, 0), backend, cond)

    def entry(self, idx) -> SymbolEntry:
        """View of one lattice point as a SymbolEntry."""
        idx = tuple(idx)
        return SymbolEntry(self.y[idx], complex(self.rho[idx]), self.backend[idx],
                           float(self.cond[idx]))

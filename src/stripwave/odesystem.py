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

Every frequency is solved in closed form through the exponential dichotomy
of A(xi) (Ascher, Mattheij & Russell, SIAM 1995, ch. 6): y = C v + y_p,
C(x) = exp(xA) P- + exp((x-b)A) P+ with P+- = (I +- sign A)/2,
K v = d - M y_p(0) - N y_p(b), K = M C(0) + N C(b), and
y_p(x) = int_0^x exp((x-t)A) P- z dt - int_x^b exp((x-t)A) P+ z dt.  A(xi)
splits into a Stokes and a heat block whose eigenvalues have real parts at
least m = 2 pi |xi|, so both halves decay and each is six closed-form
coefficients times fixed matrices (``_dichotomy``); y_p is one forward and
one backward sweep of bounded steps over composite Gauss-Legendre panels,
each Chebyshev interval split into as many equal subpanels as keep every
step within _PANEL_LIMIT, and cond_1(K) grows like (2 pi |xi| b)^2; beyond
COND_LIMIT it raises IllConditionedCollocation.  A FrequencyStack solves
many frequencies at once.  The backends:

* ``matexp``: 2 pi |xi| b below _DICHOTOMY_FROM (on a lattice, xi = 0 alone),
  where P- = I, C(x) = exp(xA) and K = B = M + N exp(bA).

* ``twosided``: every other frequency.

In 3D the transverse velocity solves a scalar problem whose boundary rows
do not depend on xi: it is diagonalized once per vertical grid and
viscosity, and ``transverse_solve`` solves each frequency by a diagonal
scaling, with no LU.

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

# the largest cond_1(K), or transverse condition bound, that a solve accepts;
# read at each check, so a test may substitute it
COND_LIMIT = 1e12
BACKENDS = ("matexp", "twosided")
# a forced sweep's widest panel times a member's largest rate max(m, |l|,
# |l_h|) up to which the 8-point panels integrate exp((c_j - t) A) z to about
# 1e-12; a member beyond it splits every panel into subpanels
_PANEL_LIMIT = 3.0
# D = diag(_MIRROR): D A D = -A, so D exp(tA) P- D = exp(-tA) P+, whose rows
# are those of exp(tA) P- with the odd basis members' signs changed (_FLIP)
_MIRROR = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
_FLIP = np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
# 2 pi |xi| b from which the dichotomy splits exp(tA): its 1/m terms cancel to
# about eps / (2 pi |xi| b), while below it exp(bA) is bounded and P- = I
_DICHOTOMY_FROM = 1e-3
_GL_NODES, _GL_WEIGHTS = leggauss(8)
# member-times per call of the closed forms and per block of the quadrature
# contraction: about 1 MiB of temporaries, the samples and then Cr s over Ci s
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


def _member_coefficients(prop: np.ndarray, t, split: bool = False) -> np.ndarray:
    """The coefficients of exp(tA) in the basis of ``_member_basis`` for
    every member of a stack with ``_propagator`` rows ``prop`` at every time
    of ``t`` (..., n), shape (k,) + t.shape[:-1] + (6, n), or with ``split``
    real rows [Re; Im], (12, n): the layout of the quadrature cache.

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
    coef = np.empty((len(prop),) + t.shape[:-1] + (12 if split else 6, t.shape[-1]),
                    dtype=float if split else complex)
    parts = (coef[..., :6, :], coef[..., 6:, :]) if split else (coef.real, coef.imag)
    for part, out in zip((taylor.real, taylor.imag), parts):
        np.matmul(np.ascontiguousarray(part), powers, out=out)
    for cols, scale, forms in ((slice(0, 4), np.maximum(np.abs(l), m), _stokes_forms),
                               (slice(4, 6), np.abs(lh), _heat_forms)):
        flat = np.flatnonzero(np.multiply.outer(scale, t) > 1.0)
        for lo in range(0, flat.size, _EXP_CHUNK):
            at = np.unravel_index(flat[lo:lo + _EXP_CHUNK], (len(prop),) + t.shape)
            idx, form = at[:-1] + (cols, at[-1]), forms(prop[at[0], :4], t[at[1:]])
            parts[0][idx], parts[1][idx] = form.real, form.imag
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


def _dichotomy(prop: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(tA) P- (k, 6, n) in the basis of ``_member_basis`` (P+- = (I +- sign A)/2,
    xi != 0) at times t (n,) >= 0; exp(-tA) P+ is _FLIP times it.  Its rows
    are the even and odd parts of e^{-t|z|} over the eigenvalues +-m, +-l,
    +-l_h, bounded as Re l, Re l_h >= m; delta = l - m = (tau/mu)/(l + m)."""
    m, l, lh, r = (prop[:, i, None] for i in range(4))
    z = t * (r / (l + m))           # t delta; psi(z) = (1 - e^{-z})/z, by its series near 0
    small = np.abs(z) < 1e-3
    zs, zk = np.where(small, 1.0, z), z[small]
    psi = -np.expm1(-zs) / zs
    psi[small] = 1 - zk / 2 * (1 - zk / 3 * (1 - zk / 4 * (1 - zk / 5)))
    em, eh = np.exp(-t * m.real), np.exp(-t * lh)
    tp = em * t * psi
    return np.stack([0.5 * em, tp * (-0.5 / (l + m)), em * (-0.5 / m),
                     (em + m * tp) * (0.5 / (l * m * (l + m))), 0.5 * eh, eh * (-0.5 / lh)], axis=1)


def _minus_rows(prop: np.ndarray, t: np.ndarray, plain: np.ndarray) -> np.ndarray:
    """exp(tA) P- (k, 6, n) per member at times t (n,): ``_dichotomy``, and
    where ``plain`` (P- = I) exp(tA) itself from ``_member_coefficients``."""
    if not plain.any():
        return _dichotomy(prop, t)
    rows = np.empty((len(prop), 6, len(t)), dtype=complex)
    rows[plain] = _member_coefficients(prop[plain], t)
    rows[~plain] = _dichotomy(prop[~plain], t)
    return rows


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


@lru_cache(maxsize=8)
def _gl_panels(vgrid: VerticalGrid, r: int):
    """Composite Gauss-Legendre panels of the sweep that splits every
    interval of the vertical grid into ``r`` equal subpanels, shared by every
    solver and frequency on the grid: the sweep's r (Nz-1) + 1 nodes,
    mirror-symmetric as the Lobatto nodes are; per subpanel [a_j, c_j] and
    node t_q the offsets c_j - t_q, (r (Nz-1), 8); and the real
    interpolation rows from the Nz node values at the t_q times their
    weights, (8 r (Nz-1), Nz) subpanel-major."""
    nodes = vgrid.nodes
    if r > 1:
        fine = nodes[:-1, None] + np.diff(nodes)[:, None] * (np.arange(r) / r)
        nodes = np.append(fine, nodes[-1])
    a, c = nodes[:-1, None], nodes[1:, None]
    h = c - a
    tq = 0.5 * (c + a) + 0.5 * h * _GL_NODES
    rows = (0.5 * h * _GL_WEIGHTS)[..., None] * vgrid.interp_weights(tq)
    return read_only(nodes, c - tq, rows.reshape(-1, vgrid.count))


class FrequencySolver:
    """Per-frequency solver for fixed coefficients (params, transport speed
    gamma_tilde, coupling placement alpha1/alpha2, vertical grid).
    ``prepare`` readies a set of frequencies as one FrequencyStack; ``solve``
    is the stack of a single frequency.
    """

    def __init__(self, p: PhysicalParams, vgrid: VerticalGrid,
                 gamma_tilde: float, alpha1: float, alpha2: float):
        self.p, self.vgrid, self.gamma_tilde = p, vgrid, gamma_tilde
        self.alpha1, self.alpha2 = alpha1, alpha2

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
    """One FrequencySolver prepared at K frequencies, in closed form.

    ``backend`` and ``cond`` (K,) give each frequency's backend and
    cond_1(K); a K that is not finite or whose cond_1(K) exceeds
    COND_LIMIT raises IllConditionedCollocation naming its frequency.
    The stack keeps its members in the order ``members`` (into ``xis``):
    ``prop``, their ``_propagator`` rows; ``coef``, C(x_j) at the nodes in
    the propagator's basis B_b (I_s, P, A_s, A_s P, I_h, A_h), (k, 6, Nz);
    ``basis``, (k, 6, 36); ``Kinv`` and the boundary matrices, (k, 6, 6).
    An unforced solve is Y = C K^-1 d at the nodes.  A forced one is solved
    by ``sweeps``, one ``_Sweep`` per number r = max(1, ceil(h max(m, |l|,
    |l_h|) / _PANEL_LIMIT)) of subpanels, h the widest interval; its members
    are a slice of the stack, and its ``short`` members lead it.  Every
    solve solves every member: a caller leaves a frequency without data out
    of the stack.
    """

    @np.errstate(all="ignore")      # a non-finite member's K raises below
    def __init__(self, solver: FrequencySolver, xis):
        s, nodes = solver, solver.vgrid.nodes
        self.solver, self.xis = solver, np.asarray(xis, dtype=float)
        prop = _propagator(self.xis, s.p, s.gamma_tilde)
        rate = np.abs(prop[:, :3]).max(axis=1)
        plain = prop[:, 0].real * nodes[-1] < _DICHOTOMY_FROM
        short = plain | (rate * nodes[-1] <= 1.0)
        panels = np.maximum(1.0, np.ceil(np.diff(nodes).max() * rate / _PANEL_LIMIT))
        self.backend = np.where(plain, *BACKENDS).astype(object)
        self.members = m = np.lexsort((~short, panels))
        self.prop, self.short, plain, panels = prop[m], short[m], plain[m], panels[m]
        rows = _minus_rows(self.prop, nodes, plain)
        # the Lobatto nodes are symmetric: b - x_j is x_{Nz-1-j} to rounding
        self.coef = np.where(plain[:, None], 0.0, _FLIP)[..., None] * rows[..., ::-1]
        self.coef += rows
        del rows
        self.basis = _member_basis(self.prop)
        ends = (self.coef[..., [0, -1]].transpose(0, 2, 1) @ self.basis).reshape(-1, 2, 6, 6)
        self.Mmat, self.Nmat = assemble_boundary(self.xis[m], s.p, s.alpha1, s.alpha2)
        self.Kinv, cond = _inverse_and_cond(self.Mmat @ ends[:, 0] + self.Nmat @ ends[:, 1])
        if not (cond <= COND_LIMIT).all():
            worst = int(np.argmax(cond))
            raise IllConditionedCollocation(
                f"cond_1(K) {cond[worst]:.3g} beyond {COND_LIMIT:.3g} at xi = "
                f"{tuple(self.xis[m[worst]].tolist())}", cond_estimate=float(cond[worst]))
        self.cond = np.empty_like(cond)
        self.cond[m] = cond
        starts = np.flatnonzero(np.diff(panels, prepend=0.0)).tolist()
        self.sweeps = [_Sweep(self, slice(lo, hi), int(panels[lo]))
                       for lo, hi in zip(starts, starts[1:] + [len(m)])]

    def solve(self, z, d) -> np.ndarray:
        """Profiles Y (K, 6, Nz) for bulk forcing ``z`` (K, 6, Nz), or None
        for none, and boundary data ``d`` (K, 6)."""
        d, m = np.asarray(d, dtype=complex), self.members
        Y = np.empty((len(self.xis), 6, self.solver.vgrid.count), dtype=complex)
        if z is not None and z.any():
            z, d = z[m], d[m, :, None]
            for sweep in self.sweeps:
                Y[m[sweep.at]] = sweep.solve(z[sweep.at], d[sweep.at])
        else:
            # the basis matrices times v, (k, b, 6), weight the coefficient rows
            v = self.Kinv @ d[m, :, None]
            w = (self.basis.reshape(-1, 36, 6) @ v).reshape(-1, 6, 6)
            Y[m] = w.transpose(0, 2, 1) @ self.coef
        return Y


class _Sweep:
    """The forced solves of the stack members ``at`` (a slice), on the sweep
    that splits every interval into ``r`` subpanels (``_gl_panels``, N
    nodes), each at most _PANEL_LIMIT over the members' largest rate
    max(m, |l|, |l_h|), so that the 8-point panels integrate
    exp((c_j - t) A) z to about 1e-12.

    y_p splits by Q = P-, or by Q = I at the ``short`` members, where
    exp(bA) is bounded (max(m, |l|, |l_h|) b <= 1): there the dichotomy's
    1/m terms would only add rounding.  They lead, so the two-sided members
    are a tail slice.  Made at the first solve, once per pair of mirrored
    subpanels (h_j = h_{N-2-j}: subpanel j reads entry min(j, N-2-j)):
    ``steps``, the bounded steps S_j = exp(h_j A) Q, (N // 2, k, 6, 6), and
    per member the maps to the sweeps' starts, the projected L_j and the ends
    of y_p, from Q, C(0) and exp(x_j A) Q at the sweep's nodes, those of the
    I - Q part for the tail alone; and ``quad``, the Gauss-Legendre
    quadrature in the basis B_b: the coefficients coef_b(c_j - t_q) as real
    rows [Re; Im], C-contiguous (k, N // 2, 12, 8), 16 k 48 (N // 2) bytes;
    the basis itself is the stack's ``basis``.  The local integral L_j =
    sum_q w_q exp((c_j - t_q) A) z(t_q) is sum_b B_b (sum_q coef_b w_q
    z(t_q)), the weights and the interpolation from the Nz nodes in the rows
    of ``_gl_panels``.  y_p(b) = sum_j exp((b - x_{j+1}) A) Q L_j and y_p(0)
    = -sum_j exp(-x_{j+1} A) (I - Q) L_j give v, and y = w- + w+ from
    w-_{j+1} = S_j w-_j + Q L_j forward from Q C(0) v and w+_j =
    exp(-h_j A) (I - Q) (w+_{j+1} - L_j) backward from (I - Q) v on the tail
    (on the head Q = I, w+ = 0).  With D = diag(_MIRROR), D A D = -A, so
    exp(-h_j A) P+ = D S_j D and the backward sweep runs on D w+ with the
    same steps.  The profiles are every r-th node's.
    """

    def __init__(self, stack: FrequencyStack, at: slice, r: int):
        self.at, self.r, self.vgrid = at, r, stack.solver.vgrid
        self.prop, self.coef, self.basis, self.short, self.Kinv, self.Mmat, self.Nmat = (
            a[at] for a in (stack.prop, stack.coef, stack.basis, stack.short, stack.Kinv,
                            stack.Mmat, stack.Nmat))
        self._tail = slice(np.count_nonzero(self.short), None)
        self.steps = self.quad = self.rows = None

    def _tables(self):
        """``steps``, ``quad`` and the panels' ``rows``, made at the first
        solve; the rows are kept, since a stack of more sweeps than the
        panels' cache holds would rebuild them at every solve."""
        if self.quad is None:
            (nodes, offsets, self.rows), k = _gl_panels(self.vgrid, self.r), len(self.prop)
            n = len(nodes) // 2 + 1
            # exp(tA) Q at t = 0 and the widths h_j, j < N // 2, node-major, and at the nodes
            t = np.concatenate([[0.0], np.diff(nodes)[:n - 1], nodes])
            rows, steps = _minus_rows(self.prop, t, self.short), np.empty((n, k, 36), dtype=complex)
            np.matmul(rows[..., :n].transpose(0, 2, 1), self.basis, out=steps.transpose(1, 0, 2))
            steps, rows = steps.reshape(n, k, 6, 6), rows[..., n:]
            Q, C0 = steps[0, self._tail], (self.coef[:, None, :, 0] @ self.basis).reshape(k, 6, 6)
            C0[self._tail], D = Q @ C0[self._tail], np.diag(_MIRROR)
            # v to w-_0 = Q C(0) v and, on the tail, D w+_{N-1} = D (I - Q) v, L_j^T to (Q L_j)^T,
            # (D L_j)^T; L to y_p(b) by b - x_{j+1} = x_{N-2-j} and, on the tail, -y_p(0) by x_{j+1}
            right = np.concatenate([Q.transpose(0, 2, 1), np.broadcast_to(D, Q.shape)], axis=2)
            self.steps = (steps[1:], C0, D - D @ Q, right, np.ascontiguousarray(rows[..., -2::-1]),
                          _FLIP[:, None] * rows[self._tail, :, 1:])
            self.quad = _member_coefficients(self.prop, offsets[:n - 1], split=True)
        return self.steps, self.quad

    def _local_integrals(self, z) -> np.ndarray:
        """Per subpanel [a_j, c_j] the integral of exp((c_j - t) A) z(t) dt
        for every member, (k, N-1, 6), from ``quad``."""
        coef = self._tables()[1]
        rows, k = self.rows, len(z)
        n = len(rows) // 8 + 1
        h = n // 2
        # only the forced components enter (forcing_rows leaves phi and delta 0); the
        # basis rows (b, c) of those c by output component i: B_b[i, c]
        cols = np.flatnonzero(z.any(axis=(0, 2)))
        basis = self.basis.reshape(k, 6, 6, 6).transpose(0, 1, 3, 2)[:, :, cols].reshape(k, -1, 6)
        # s = w_q z(t_q) (member, subpanel, node, component (re, im)): the real rows times the
        # (re, im) columns per member as in a lone solve; coef_b's real rows [Re; Im] times s,
        # combined as C s = Cr s + i (Ci s), meet the basis in blocks of _EXP_CHUNK member-times
        zt = np.ascontiguousarray(z.transpose(0, 2, 1)[..., cols], dtype=complex).view(float)
        local, width = np.empty((k, n - 1, 6), dtype=complex), max(1, _EXP_CHUNK // len(rows))
        for b in (slice(lo, lo + width) for lo in range(0, k, width)):
            s = (rows @ zt[b]).reshape(-1, n - 1, 8, 2 * cols.size)
            parts = np.empty(s.shape[:2] + (12, cols.size), dtype=complex)
            np.matmul(coef[b], s[:, :h], out=parts.view(float)[:, :h])
            np.matmul(coef[b, n - 2 - h::-1], s[:, h:], out=parts.view(float)[:, h:])
            del s       # before C s is made, so that it reuses the freed memory
            cs = np.multiply(parts[:, :, 6:], 1j)
            cs += parts[:, :, :6]
            local[b] = cs.reshape(-1, n - 1, 6 * cols.size) @ basis[b]
            del parts, cs
        return local

    def solve(self, z, d) -> np.ndarray:
        """Profiles (k, 6, Nz) for bulk forcing ``z`` (k, 6, Nz) and data
        ``d`` (k, 6, 1), as a view: v from the ends of y_p, then the forward
        sweep of the Q part over every member and the backward one of the
        I - Q part on D w+ over the two-sided tail alone."""
        S, starts, back_start, right, to_b, to_0 = self._tables()[0]
        L = self._local_integrals(z)
        k, n, tail = len(z), L.shape[1] + 1, self._tail
        ends = np.zeros((k, 2, 36), dtype=complex)     # y_p(b), and on the tail -y_p(0)
        ends[:, 0], ends[tail, 1] = (to_b @ L).reshape(k, 36), (to_0 @ L[tail]).reshape(-1, 36)
        basis = self.basis.reshape(k, 6, 6, 6).transpose(0, 1, 3, 2).reshape(k, 36, 6)
        ends = (ends @ basis)[..., None]
        v = self.Kinv @ (d + self.Mmat @ ends[:, 1] - self.Nmat @ ends[:, 0])
        local = L[tail] @ right
        L[tail] = local[..., :6]
        Y, back = np.zeros((n, k, 6), dtype=complex), np.zeros((n, len(local), 6), dtype=complex)
        Y[0], back[-1] = (starts @ v)[..., 0], (back_start @ v[tail])[..., 0]
        S = [S[min(j, n - 2 - j)] for j in range(n - 1)]     # h_j = h_{n-2-j}
        for j in range(n - 1):
            np.matmul(S[j], Y[j, ..., None], out=Y[j + 1, ..., None])
            Y[j + 1] += L[:, j]
        for j in range(n - 2, -1, -1):
            np.matmul(S[j][tail], (back[j + 1] - local[:, j, 6:])[..., None], out=back[j, ..., None])
        back *= _MIRROR
        Y[:, tail] += back
        return Y[::self.r].transpose(1, 2, 0)


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


def transverse_solve(xis, p: PhysicalParams, vgrid: VerticalGrid, gamma_tilde: float,
                     f_transverse, k_transverse):
    """The scalar transverse velocity problems at the frequencies ``xis``
    (K, 2) (horizontal dimension two only),

    gamma_tilde 2 pi i xi_1 beta - mu (dn^2 - 4 pi^2 |xi|^2) beta = f,
    beta(0) = 0, -mu dn beta(b) = k,

    f (K, Nz), k (K,), with no LU: on ``_transverse_basis`` each frequency is
    the scaling 1 / (sigma + Lambda), sigma = gamma_tilde 2 pi i xi_1 +
    mu 4 pi^2 |xi|^2, and the shared real rows act on its (re, im) columns,
    so its beta does not depend on the batch.  Returns beta (K, Nz) and the
    bound cond2(V)^2 max|sigma + lambda| / min|sigma + lambda| on
    cond2(sigma I + Abar), (K,); a bound beyond COND_LIMIT raises
    IllConditionedCollocation naming the worst frequency, before any solve.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.shape[-1] != 2:
        raise ValueError("transverse problems only arise for dim_h = 2")
    lam, left, right, top, vcond = _transverse_basis(vgrid, float(p.mu))
    m = 2.0 * np.pi * np.sqrt(np.vecdot(xis, xis))
    shift = (2j * np.pi * gamma_tilde * xis[:, 0] + p.mu * m * m)[:, None] + lam
    size = np.abs(shift)
    cond = vcond * size.max(axis=1) / size.min(axis=1)
    if cond.size and cond.max() > COND_LIMIT:
        worst = int(np.argmax(cond))
        raise IllConditionedCollocation(
            f"transverse system condition bound {cond[worst]:.3g} beyond {COND_LIMIT:.3g} "
            f"at xi = {tuple(xis[worst].tolist())}", cond_estimate=float(cond[worst]))
    rhs = np.concatenate([np.asarray(f_transverse)[:, 1:-1],
                          np.asarray(k_transverse)[:, None]], axis=1, dtype=complex)
    k, n = rhs.shape[0], rhs.shape[1] - 1
    y = (left @ rhs.view(float).reshape(k, n + 1, 2)).view(complex)[..., 0] * (1.0 / shift)
    beta = np.zeros((k, n + 2), dtype=complex)
    beta[:, 1:] = (right @ y.view(float).reshape(k, n, 2)).view(complex)[..., 0]
    beta[:, -1] -= rhs[:, -1] / top
    return beta, cond


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


def symbol_profiles(xis, p: PhysicalParams, vgrid: VerticalGrid):
    """Response profiles Y (K, 6, Nz) to a unit normal stress on the top at
    the frequencies ``xis`` (K, dim_h), with the backend and condition
    estimate of each: the unforced solve of the adjoint problem
    (gamma, 0, sigma1) as one FrequencyStack.  At xi = 0, A is nilpotent,
    and q = 1 and rho = 0 come out exactly."""
    xis = np.asarray(xis, dtype=float)
    stack = FrequencySolver(p, vgrid, p.gamma, 0.0, p.sigma1).prepare(xis)
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

    def __init__(self, grid, vgrid, p: PhysicalParams):
        self.grid, self.vgrid, self.params = grid, vgrid, p
        self.y = np.zeros(grid.freq_shape + (6, vgrid.count), dtype=complex)
        self.rho = np.zeros(grid.freq_shape, dtype=complex)
        self.backend = np.full(grid.freq_shape, None, dtype=object)
        self.cond = np.zeros(grid.freq_shape)
        self.solved = np.zeros(grid.freq_shape, dtype=bool)

    @classmethod
    def build(cls, grid, vgrid, p: PhysicalParams) -> "SymbolTable":
        return cls(grid, vgrid, p).solve(grid.half_mask)

    def solve(self, mask: np.ndarray) -> "SymbolTable":
        """Solve the half-lattice frequencies of the lattice mask ``mask``
        not solved yet, as one ``symbol_profiles`` call, and mirror them."""
        grid, p = self.grid, self.params
        new = mask & grid.half_mask & ~self.solved
        if new.any():
            xis = grid.xi_vectors[new]
            Y, self.backend[new], self.cond[new] = symbol_profiles(xis, p, self.vgrid)
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

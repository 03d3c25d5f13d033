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
  the same integrals).  The preparation of a frequency is batched: one
  stacked ``matrix_exponential`` call gives all step exponentials and one
  all quadrature exponentials, and the panels' nodes, weights and
  interpolation rows are built once per solver.  It degrades once
  exp(2 pi |xi| b) eats the floating point headroom, so it is gated by a
  configurable split.

* ``collocation``: direct Chebyshev collocation of the first-order system,
  a dense linear solve per frequency, valid at all frequencies.

The homogeneous solve with d = (0,0,0,0,1,0) yields the response symbols to
a unit normal stress on the top boundary; their top traces assemble the
surface multiplier rho(xi) = (sigma0 4 pi^2 |xi|^2 + grav) conj(psi(b))
+ 2 pi i gamma xi_1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg import lapack as _lapack

from .errors import IllConditionedCollocation, NumericallySingular
from .fields import conjugate_mirror, reflect
from .grids import VerticalGrid
from .params import PhysicalParams

DEFAULT_SPLIT = 30.0
SYMBOL_SPLIT = 10.0
DEFAULT_COND_LIMIT = 1e12
_GL_NODES, _GL_WEIGHTS = leggauss(8)


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------

def assemble_bulk_matrix(xi, p: PhysicalParams, gamma_tilde: float) -> np.ndarray:
    """The 6x6 coefficient matrix A(xi) of the first-order system."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    m = 2.0 * np.pi * float(np.linalg.norm(xi))
    t = 2j * np.pi * gamma_tilde * xi[0]
    mu, kappa = p.mu, p.kappa
    A = np.zeros((6, 6), dtype=complex)
    A[0, 4] = 1.0
    A[1, 0] = -m
    A[2, 5] = 1.0
    A[3, 1] = -mu * m * m - t
    A[3, 4] = -mu * m
    A[4, 0] = m * m + t / mu
    A[4, 3] = -m / mu
    A[5, 2] = m * m + t / kappa
    return A


def assemble_boundary(xi, p: PhysicalParams, alpha1: float, alpha2: float):
    """Boundary matrices (M, N) with M y(0) + N y(b) = d.

    Row 1 is the tangential stress (alpha1 couples the temperature into it),
    row 2 the normal stress, row 3 the heat flux (alpha2 couples the
    longitudinal velocity).  At (alpha1, alpha2) = (0, sigma1) this is the
    adjoint/normal-stress problem; at (sigma1, 0) the forward one.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    m = 2.0 * np.pi * float(np.linalg.norm(xi))
    mu, kappa = p.mu, p.kappa
    Mmat = np.zeros((6, 6), dtype=complex)
    Mmat[:3, :3] = np.eye(3)
    N1 = np.array([
        [0.0, mu * m, -alpha1 * m],
        [2.0 * mu * m, 0.0, 0.0],
        [alpha2 * m, 0.0, 0.0],
    ], dtype=complex)
    N2 = np.array([
        [0.0, -mu, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, kappa],
    ], dtype=complex)
    Nmat = np.zeros((6, 6), dtype=complex)
    Nmat[3:, :3] = N1
    Nmat[3:, 3:] = N2
    return Mmat, Nmat


def assemble_B(xi, p: PhysicalParams, gamma_tilde: float, alpha1: float,
               alpha2: float, depth: float, cond_limit: float = DEFAULT_COND_LIMIT):
    """B = M + N exp(bA), its inverse, and a condition estimate."""
    A = assemble_bulk_matrix(xi, p, gamma_tilde)
    Mmat, Nmat = assemble_boundary(xi, p, alpha1, alpha2)
    expb = matrix_exponential(A, depth)
    B = Mmat + Nmat @ expb
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > cond_limit:
        raise NumericallySingular(
            f"cond(B) = {cond:.3g} beyond {cond_limit:.3g} at 2pi|xi|b = "
            f"{2 * np.pi * np.linalg.norm(xi) * depth:.3g}")
    return B, np.linalg.inv(B), cond


# ---------------------------------------------------------------------------
# Matrix exponential (scaling and squaring with diagonal Pade approximants)
# ---------------------------------------------------------------------------

_PADE_B = {
    3: [120.0, 60.0, 12.0, 1.0],
    5: [30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0],
    7: [17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0],
    9: [17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0],
    13: [64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0],
}
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}


def _pade_uv(A, order):
    """Odd and even parts (U, V) of the degree-``order`` diagonal Pade
    approximant of exp at a stack A of shape (k, n, n)."""
    b = _PADE_B[order]
    I = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    if order == 13:
        A4 = A2 @ A2
        A6 = A2 @ A4
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
        return U, V
    powers = {0: I, 2: A2}
    top = order - 1
    k = 4
    while k <= top:
        powers[k] = powers[k - 2] @ A2
        k += 2
    U = np.zeros_like(A)
    V = np.zeros_like(A)
    for k in range(0, order + 1, 2):
        V = V + b[k] * powers[k]
    for k in range(1, order + 1, 2):
        U = U + b[k] * powers[k - 1]
    U = A @ U
    return U, V


def matrix_exponential(M: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(t M) by scaling and squaring with diagonal Pade approximants.

    ``M`` is one matrix (n, n) or a stack (..., n, n); ``t`` is a scalar or an
    array broadcast against the stack shape.  Each member picks its own Pade
    order from its 1-norm and, at order 13, its own number of squarings s
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005); members sharing
    (order, s) are evaluated together.
    """
    A = np.asarray(t)[..., None, None] * np.asarray(M, dtype=complex)
    stack = A.reshape(-1, *A.shape[-2:])
    nrm = np.linalg.norm(stack, 1, axis=(-2, -1))
    if not np.all(np.isfinite(nrm)):
        raise NumericallySingular("non-finite matrix handed to the exponential")
    order = np.full(nrm.shape, 13)
    for o in (9, 7, 5, 3):
        order[nrm <= _PADE_THETA[o]] = o
    theta = _PADE_THETA[13]
    squarings = np.where(order == 13,
                         np.ceil(np.log2(np.maximum(nrm, theta) / theta)), 0)
    X = np.empty_like(stack)
    for o, s in sorted(set(zip(order.tolist(), squarings.astype(int).tolist()))):
        members = np.flatnonzero((order == o) & (squarings == s))
        U, V = _pade_uv(stack[members] / 2.0 ** s, o)
        Y = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            Y = Y @ Y
        X[members] = Y
    if not np.all(np.isfinite(X)):
        raise NumericallySingular("matrix exponential overflowed")
    return X.reshape(A.shape)


# ---------------------------------------------------------------------------
# Forced boundary value problems
# ---------------------------------------------------------------------------

@dataclass
class BVPSpec:
    """One per-frequency problem: coefficients plus forcing."""

    xi: np.ndarray
    gamma_tilde: float
    alpha1: float
    alpha2: float
    z_profile: np.ndarray          # (6, Nz); rows 1 and 3 identically zero
    d_vec: np.ndarray              # (6,)

    @classmethod
    def from_rhs(cls, xi, p: PhysicalParams, vgrid: VerticalGrid,
                 gamma_tilde: float, alpha1: float, alpha2: float,
                 F1=None, F2=None, G=None, L=None, K1=0.0, K2=0.0, M_heat=0.0):
        """Assemble z = (0, G, 0, F2 + mu dG, -F1/mu, -L/kappa) and
        d = (0, 0, 0, K1, K2 + 2 mu G(b), M_heat)."""
        nz = vgrid.count
        zero = np.zeros(nz, dtype=complex)
        F1 = zero if F1 is None else np.asarray(F1, dtype=complex)
        F2 = zero if F2 is None else np.asarray(F2, dtype=complex)
        G = zero if G is None else np.asarray(G, dtype=complex)
        L = zero if L is None else np.asarray(L, dtype=complex)
        dG = vgrid.differentiate(G)
        z = np.zeros((6, nz), dtype=complex)
        z[1] = G
        z[3] = F2 + p.mu * dG
        z[4] = -F1 / p.mu
        z[5] = -L / p.kappa
        d = np.zeros(6, dtype=complex)
        d[3] = K1
        d[4] = K2 + 2.0 * p.mu * G[-1]
        d[5] = M_heat
        return cls(np.atleast_1d(np.asarray(xi, dtype=float)), gamma_tilde,
                   alpha1, alpha2, z, d)


@dataclass
class _MatexpPrep:
    A: np.ndarray
    step_exp: np.ndarray           # (Nz-1, 6, 6): exp(h_j A) per interval
    Binv: np.ndarray
    Nmat: np.ndarray
    cond: float
    quad_exp: np.ndarray | None = None  # (Nz-1, 8, 6, 6) weighted exponentials

    def ensure_quad(self, offsets: np.ndarray, weights: np.ndarray):
        """Weighted exp((c_j - t_q) A) at the Gauss-Legendre nodes t_q of every
        interval [a_j, c_j], from the solver's shared offsets c_j - t_q and
        weights, both (Nz-1, 8)."""
        if self.quad_exp is None:
            self.quad_exp = weights[..., None, None] * matrix_exponential(self.A, offsets)


@dataclass
class _CollocationPrep:
    lu: tuple
    rows_replaced: tuple
    Nmat: np.ndarray
    cond_estimate: float


class FrequencySolver:
    """Per-frequency solver with cached preparations.

    Fixed coefficients (params, transport speed gamma_tilde, coupling
    placement alpha1/alpha2, vertical grid); the backend is chosen per
    frequency by the size of 2 pi |xi| b against ``split``.
    """

    def __init__(self, p: PhysicalParams, vgrid: VerticalGrid,
                 gamma_tilde: float, alpha1: float, alpha2: float,
                 split: float = DEFAULT_SPLIT,
                 cond_limit: float = DEFAULT_COND_LIMIT,
                 reuse: bool = True):
        self.p = p
        self.vgrid = vgrid
        self.gamma_tilde = gamma_tilde
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.split = split
        self.cond_limit = cond_limit
        self.reuse = reuse
        self._matexp_cache = {}
        self._coll_cache = {}
        self._quad = None

    # -- backend selection ---------------------------------------------------

    def backend_for(self, xi) -> str:
        scale = 2.0 * np.pi * float(np.linalg.norm(xi)) * self.vgrid.depth
        return "matexp" if scale <= self.split else "collocation"

    def _key(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return tuple(np.round(xi, 12))

    # -- matexp backend -------------------------------------------------------

    def _prep_matexp(self, xi) -> _MatexpPrep:
        key = self._key(xi)
        if self.reuse and key in self._matexp_cache:
            return self._matexp_cache[key]
        p, vgrid = self.p, self.vgrid
        A = assemble_bulk_matrix(xi, p, self.gamma_tilde)
        _, Binv, cond = assemble_B(xi, p, self.gamma_tilde, self.alpha1,
                                   self.alpha2, vgrid.depth, self.cond_limit)
        _, Nmat = assemble_boundary(xi, p, self.alpha1, self.alpha2)
        step_exp = matrix_exponential(A, np.diff(vgrid.nodes))
        prep = _MatexpPrep(A, step_exp, Binv, Nmat, cond)
        if self.reuse:
            self._matexp_cache[key] = prep
        return prep

    def _quadrature(self):
        """Composite Gauss-Legendre panels of the vertical grid, shared by every
        frequency: per interval [a_j, c_j] and node t_q the offsets c_j - t_q,
        the weights and the interpolation rows at t_q, shapes (Nz-1, 8),
        (Nz-1, 8) and (Nz-1, 8, Nz)."""
        if self._quad is None:
            nodes = self.vgrid.nodes
            a, c = nodes[:-1, None], nodes[1:, None]
            h = c - a
            tq = 0.5 * (c + a) + 0.5 * h * _GL_NODES
            self._quad = (c - tq, 0.5 * h * _GL_WEIGHTS,
                          self.vgrid.interp_weights(tq))
        return self._quad

    def _solve_matexp(self, xi, z_profile, d_vec):
        prep = self._prep_matexp(xi)
        vgrid = self.vgrid
        nz = vgrid.count
        homogeneous = z_profile is None or not np.any(z_profile)
        local = []
        if not homogeneous:
            offsets, weights, rows = self._quadrature()
            prep.ensure_quad(offsets, weights)
            for j in range(nz - 1):
                zq = z_profile @ rows[j].T                    # (6, 8)
                local.append(np.einsum("qij,jq->i", prep.quad_exp[j], zq))
        else:
            local = [np.zeros(6, dtype=complex)] * (nz - 1)
        integral = np.zeros(6, dtype=complex)
        for j in range(nz - 1):
            integral = prep.step_exp[j] @ integral + local[j]
        y0 = prep.Binv @ (np.asarray(d_vec, dtype=complex) - prep.Nmat @ integral)
        Y = np.empty((6, nz), dtype=complex)
        Y[:, 0] = y0
        for j in range(nz - 1):
            Y[:, j + 1] = prep.step_exp[j] @ Y[:, j] + local[j]
        return Y, prep.cond

    # -- collocation backend ---------------------------------------------------

    def _prep_collocation(self, xi) -> _CollocationPrep:
        key = self._key(xi)
        if self.reuse and key in self._coll_cache:
            return self._coll_cache[key]
        p, vgrid = self.p, self.vgrid
        nz = vgrid.count
        A = assemble_bulk_matrix(xi, p, self.gamma_tilde)
        _, Nmat = assemble_boundary(xi, p, self.alpha1, self.alpha2)
        # kron(I6, D) - kron(A, I_nz), block by block into the Fortran-ordered
        # array that lu_factor overwrites.  Each block is computed as the
        # kron difference computes it, so the signed zeros off the block
        # diagonals (which reach the solution, e.g. phi(0) = -0) are kept.
        D = vgrid.diff
        kron_blocks = (0.0 * D, D)
        eye = np.eye(nz)
        sys = np.empty((6 * nz, 6 * nz), dtype=complex, order="F")
        for r in range(6):
            for c in range(6):
                np.subtract(kron_blocks[r == c], A[r, c] * eye,
                            out=sys[r * nz:(r + 1) * nz, c * nz:(c + 1) * nz])
        bottom_rows = tuple(c * nz for c in range(3))
        top_rows = tuple((3 + r) * nz + (nz - 1) for r in range(3))
        for c, row in enumerate(bottom_rows):
            sys[row] = 0.0
            sys[row, c * nz] = 1.0
        for r, row in enumerate(top_rows):
            sys[row] = 0.0
            for c in range(3):
                sys[row, c * nz + (nz - 1)] = Nmat[3 + r, c]
                sys[row, (3 + c) * nz + (nz - 1)] = Nmat[3 + r, 3 + c]
        # column sums over C-ordered magnitudes round as np.linalg.norm(sys, 1)
        # does on a C-ordered system
        anorm = float(np.abs(sys, order="C").sum(axis=0).max())
        lu = lu_factor(sys, overwrite_a=True)
        gecon = _lapack.zgecon if sys.dtype == np.complex128 else _lapack.cgecon
        rcond, _ = gecon(lu[0], anorm)
        cond_estimate = 1.0 / max(rcond, np.finfo(float).tiny)
        if cond_estimate > self.cond_limit:
            raise IllConditionedCollocation(
                f"collocation condition estimate {cond_estimate:.3g} beyond "
                f"{self.cond_limit:.3g}", cond_estimate=cond_estimate)
        prep = _CollocationPrep(lu, bottom_rows + top_rows, Nmat, cond_estimate)
        if self.reuse:
            self._coll_cache[key] = prep
        return prep

    def _solve_collocation(self, xi, z_profile, d_vec):
        prep = self._prep_collocation(xi)
        nz = self.vgrid.count
        rhs = np.zeros(6 * nz, dtype=complex) if z_profile is None \
            else np.asarray(z_profile, dtype=complex).reshape(6 * nz).copy()
        d = np.asarray(d_vec, dtype=complex)
        for c, row in enumerate(prep.rows_replaced[:3]):
            rhs[row] = d[c]
        for r, row in enumerate(prep.rows_replaced[3:]):
            rhs[row] = d[3 + r]
        Y = lu_solve(prep.lu, rhs).reshape(6, nz)
        return Y, prep.cond_estimate

    # -- public entry ----------------------------------------------------------

    def solve(self, xi, z_profile, d_vec, backend: str | None = None):
        """Solve one forced problem; returns (Y, backend_used, cond_estimate)."""
        choice = backend or self.backend_for(xi)
        if choice == "matexp":
            try:
                Y, cond = self._solve_matexp(xi, z_profile, d_vec)
                return Y, "matexp", cond
            except NumericallySingular:
                if backend == "matexp":
                    raise
                choice = "collocation"
        Y, cond = self._solve_collocation(xi, z_profile, d_vec)
        return Y, "collocation", cond


def solve_forced_bvp(spec: BVPSpec, p: PhysicalParams, vgrid: VerticalGrid,
                     backend: str = "auto", split: float = DEFAULT_SPLIT,
                     cond_limit: float = DEFAULT_COND_LIMIT) -> np.ndarray:
    """One-shot forced solve; returns the (6, Nz) state profile."""
    solver = FrequencySolver(p, vgrid, spec.gamma_tilde, spec.alpha1,
                             spec.alpha2, split=split, cond_limit=cond_limit,
                             reuse=False)
    Y, _, _ = solver.solve(spec.xi, spec.z_profile, spec.d_vec,
                           backend=None if backend == "auto" else backend)
    return Y


def solve_transverse(xi, p: PhysicalParams, vgrid: VerticalGrid,
                     gamma_tilde: float, f_transverse=None, k_transverse=0.0,
                     cond_limit: float = DEFAULT_COND_LIMIT) -> np.ndarray:
    """Scalar transverse velocity problem (horizontal dimension two only).

    gamma_tilde 2 pi i xi_1 beta - mu (dn^2 - 4 pi^2 |xi|^2) beta = f,
    beta(0) = 0, -mu dn beta(b) = k.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != 2:
        raise ValueError("transverse problems only arise for dim_h = 2")
    nz = vgrid.count
    m = 2.0 * np.pi * float(np.linalg.norm(xi))
    t = 2j * np.pi * gamma_tilde * xi[0]
    D = vgrid.diff
    L = t * np.eye(nz) - p.mu * (D @ D - m * m * np.eye(nz))
    L = L.astype(complex)
    rhs = np.zeros(nz, dtype=complex) if f_transverse is None \
        else np.asarray(f_transverse, dtype=complex).copy()
    L[0] = 0.0
    L[0, 0] = 1.0
    rhs[0] = 0.0
    L[-1] = -p.mu * D[-1]
    rhs[-1] = k_transverse
    cond = float(abs(np.linalg.cond(L, 1)))
    if cond > cond_limit:
        raise IllConditionedCollocation("transverse system ill-conditioned",
                                        cond_estimate=cond)
    return np.linalg.solve(L, rhs)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

@dataclass
class SymbolEntry:
    """Response profiles to a unit normal stress at one frequency."""

    xi: np.ndarray
    y: np.ndarray                  # (6, Nz)
    rho: complex
    backend: str
    cond: float

    @property
    def om_long(self) -> np.ndarray:
        """Longitudinal velocity amplitude profile (phi)."""
        return self.y[0]

    @property
    def om_vn(self) -> np.ndarray:
        return self.y[1]

    @property
    def om_temp(self) -> np.ndarray:
        return self.y[2]

    @property
    def om_q(self) -> np.ndarray:
        return self.y[3]

    @property
    def om_vn_surf(self) -> complex:
        return complex(self.y[1, -1])

    @property
    def om_temp_surf(self) -> complex:
        return complex(self.y[2, -1])

    @property
    def om_long_surf(self) -> complex:
        return complex(self.y[0, -1])

    def om_v_surf(self) -> np.ndarray:
        """n-component velocity trace (longitudinal direction restored)."""
        xi = self.xi
        mag = np.linalg.norm(xi)
        out = np.zeros(xi.size + 1, dtype=complex)
        if mag > 0:
            out[:-1] = -1j * self.y[0, -1] * xi / mag
        out[-1] = self.y[1, -1]
        return out


def rho_of(p: PhysicalParams, xi, om_vn_surf: complex) -> complex:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    mag2 = float(xi @ xi)
    return ((p.sigma0 * 4.0 * np.pi ** 2 * mag2 + p.grav) * np.conj(om_vn_surf)
            + 2j * np.pi * p.gamma * xi[0])


def solve_symbol(xi, p: PhysicalParams, vgrid: VerticalGrid,
                 solver: FrequencySolver | None = None,
                 backend: str | None = None,
                 split: float = SYMBOL_SPLIT,
                 cond_limit: float = DEFAULT_COND_LIMIT) -> SymbolEntry:
    """Homogeneous adjoint solve with unit normal stress; populates a table row.

    xi = 0 is closed form: the pressure symbol is identically one and every
    other response vanishes, so rho(0) = 0.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nz = vgrid.count
    if float(np.linalg.norm(xi)) == 0.0:
        y = np.zeros((6, nz), dtype=complex)
        y[3] = 1.0
        return SymbolEntry(xi, y, 0.0 + 0.0j, "closed-form", 1.0)
    if solver is None:
        solver = FrequencySolver(p, vgrid, p.gamma, 0.0, p.sigma1,
                                 split=split, cond_limit=cond_limit, reuse=False)
    d = np.zeros(6, dtype=complex)
    d[4] = 1.0
    Y, used, cond = solver.solve(xi, None, d, backend=backend)
    return SymbolEntry(xi, Y, rho_of(p, xi, Y[1, -1]), used, cond)


class SymbolTable:
    """Response symbols over a frequency lattice, stored as lattice arrays.

    ``y`` has shape freq_shape + (6, Nz); ``rho``, ``backend`` and ``cond``
    have shape freq_shape.  ``build`` solves on the half lattice and fills the
    rest with the conjugate mirror.
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
        solver = FrequencySolver(p, vgrid, p.gamma, 0.0, p.sigma1,
                                 split=split, cond_limit=cond_limit, reuse=False)
        shape = grid.freq_shape
        vecs = grid.xi_vectors()
        y = np.zeros(shape + (6, vgrid.count), dtype=complex)
        rho = np.zeros(shape, dtype=complex)
        backend = np.empty(shape, dtype=object)
        cond = np.zeros(shape)
        for idx in grid.half_indices():
            e = solve_symbol(vecs[idx], p, vgrid, solver=solver)
            y[idx], rho[idx], backend[idx], cond[idx] = e.y, e.rho, e.backend, e.cond
        backend = np.where(grid.half_mask(), backend, reflect(backend, grid, 0))
        return cls(grid, vgrid, p, conjugate_mirror(y, grid, 0),
                   conjugate_mirror(rho, grid, 0), backend,
                   conjugate_mirror(cond, grid, 0))

    def entry(self, idx) -> SymbolEntry:
        """View of one lattice point as a SymbolEntry."""
        idx = tuple(idx)
        return SymbolEntry(self.grid.xi_axis()[list(idx)], self.y[idx],
                           complex(self.rho[idx]), self.backend[idx],
                           float(self.cond[idx]))

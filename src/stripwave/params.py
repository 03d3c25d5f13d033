"""Physical parameters, constitutive closures, and admissibility gates.

The coupling gate compares max{|Q1|^2/4, |Q2|^2/4} * sigma1^2 against
2*mu*kappa, where Q1 and Q2 are the boundary pairings between the velocity
trace and the temperature trace.  The two norms coincide, and they are never
available in closed form; ``estimate_q_norms`` computes per-frequency fiber
norms on [0, depth] and takes the supremum over sampled |xi|, which is a
lower bound on the true constant.  The gate compensates with a fixed safety
factor of 2 on the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .grids import VerticalGrid


@dataclass(frozen=True)
class PhysicalParams:
    mu: float            # viscosity
    kappa: float         # thermal conductivity
    grav: float          # gravity
    depth: float         # equilibrium depth b
    gamma: float         # wave speed, nonzero
    sigma0: float        # surface tension at the reference temperature
    sigma1: float        # surface-tension slope (thermocapillary coupling)
    dim: int = 2         # total spatial dimension n in {2, 3}

    @property
    def dim_h(self) -> int:
        return self.dim - 1


def validate_params(p: PhysicalParams) -> list:
    """Return the list of violated invariants; empty means admissible."""
    violations = [f"{name} must be finite" for name in
                  ("mu", "kappa", "grav", "depth", "gamma", "sigma0", "sigma1")
                  if not math.isfinite(getattr(p, name))]
    for name in ("mu", "kappa", "grav", "depth", "sigma0"):
        if getattr(p, name) <= 0:
            violations.append(f"{name} must be positive")
    if p.gamma == 0:
        violations.append("gamma must be nonzero")
    if type(p.dim) is not int or p.dim not in (2, 3):
        violations.append("dim must be 2 or 3")
    return violations


# ---------------------------------------------------------------------------
# Constitutive closures
# ---------------------------------------------------------------------------

@dataclass
class ConstitutiveSet:
    """Viscous stress, heat flux, and surface tension closures.

    gamma_visc(r, M): symmetric matrix -> symmetric matrix, gamma_visc(r, 0) = 0
    phi_heat(r, z):   n-vector -> n-vector
    sigma_fn(r):      positive scalar with sigma_fn(0) = sigma0, slope sigma1
    sigma_prime(r):   the derivative of sigma_fn, elementwise
    """

    gamma_visc: object
    phi_heat: object
    sigma_fn: object
    sigma_prime: object
    names: dict = field(default_factory=dict)


def _tempdep_factor(r):
    # smooth, bounded in [1, 2), flat at r = 0
    return 1.0 + r * r / (1.0 + r * r)


def make_constitutive(p: PhysicalParams, visc="newtonian", heat="fourier",
                      sigma="smooth") -> ConstitutiveSet:
    mu, kappa, s0, s1 = p.mu, p.kappa, p.sigma0, p.sigma1

    if visc == "newtonian":
        def gamma_visc(r, M):
            return mu * M
    elif visc == "tempdep":
        def gamma_visc(r, M):
            return mu * _tempdep_factor(r) * M
    else:
        raise ValueError(f"unknown viscous closure visc={visc!r}")

    if heat == "fourier":
        def phi_heat(r, z):
            return -kappa * np.asarray(z)
    elif heat == "tempdep":
        def phi_heat(r, z):
            return -kappa * _tempdep_factor(r) * np.asarray(z)
    else:
        raise ValueError(f"unknown heat closure heat={heat!r}")

    if sigma == "linear":
        def sigma_fn(r):
            return s0 + s1 * r

        def sigma_prime(r):
            return np.full(np.shape(r), s1)
    elif sigma == "smooth":
        def sigma_fn(r):
            return s0 + s1 * np.tanh(r)

        def sigma_prime(r):
            return s1 * (1.0 - np.tanh(r) ** 2)
    else:
        raise ValueError(f"unknown sigma closure sigma={sigma!r}")

    return ConstitutiveSet(gamma_visc, phi_heat, sigma_fn, sigma_prime,
                           names={"visc": visc, "heat": heat, "sigma": sigma})


def verify_constitutive_linearization(c: ConstitutiveSet, p: PhysicalParams,
                                      h: float = 1e-4) -> float:
    """Worst relative deviation of central differences from the linearized laws.

    Checks D gamma_visc(0,0)(r, M) = mu M, D phi_heat(0,0)(r, z) = -kappa z
    in 8 seeded directions, sigma(0) = sigma0 and sigma'(0) = sigma1, the last
    both by central difference and from sigma_prime.  O(h^2) for smooth closures.
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError("step h must lie in [1e-6, 1e-2]")
    rng = np.random.default_rng(0)
    n = p.dim
    worst = 0.0
    for _ in range(8):
        M = rng.standard_normal((n, n))
        M = M + M.T
        M /= np.linalg.norm(M)
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        r = rng.standard_normal()
        scale = np.hypot(r, 1.0)
        r, Md, zd = r / scale, M / scale, z / scale

        dG = (c.gamma_visc(h * r, h * Md) - c.gamma_visc(-h * r, -h * Md)) / (2 * h)
        dev = np.linalg.norm(dG - p.mu * Md) / (p.mu * np.linalg.norm(Md))
        worst = max(worst, float(dev))

        dP = (np.asarray(c.phi_heat(h * r, h * zd)) - np.asarray(c.phi_heat(-h * r, -h * zd))) / (2 * h)
        dev = np.linalg.norm(dP + p.kappa * zd) / (p.kappa * np.linalg.norm(zd))
        worst = max(worst, float(dev))

    ds = (c.sigma_fn(h) - c.sigma_fn(-h)) / (2 * h)
    ref = max(abs(p.sigma1), abs(p.sigma0), 1.0)
    worst = max(worst, abs(ds - p.sigma1) / ref)
    worst = max(worst, abs(c.sigma_prime(0.0) - p.sigma1) / ref)
    worst = max(worst, abs(c.sigma_fn(0.0) - p.sigma0) / ref)
    return worst


# ---------------------------------------------------------------------------
# Boundary-pairing norm estimation and the parameter gate
# ---------------------------------------------------------------------------

def _fiber_trace_norms(a: float, vgrid: VerticalGrid):
    """Trace-evaluation norms on the frequency-|xi| fiber, a = 2*pi*|xi|.

    Scalar fiber: full H^1 inner product with twisted gradient.  Vector
    fiber: half the squared Frobenius norm of the twisted symmetric
    gradient (the natural inner product for fields vanishing at the
    bottom), on the longitudinal and vertical components.  Both restricted
    to trace zero at x_n = 0.  In dim 3 the transverse component has zero
    cross blocks with both and the longitudinal trace functional does not
    reach it, so the same norms hold there.
    """
    D = vgrid.diff
    W = np.diag(vgrid.weights)
    DtWD = D.T @ W @ D
    keep = slice(1, vgrid.count)       # drop the bottom node
    m = vgrid.count - 1

    G_th = ((1.0 + a * a) * W + DtWD)[keep, keep]
    try:
        ch = cho_factor(G_th)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("degenerate scalar fiber Gram matrix; refine the vertical grid") from exc
    e = np.zeros(m)
    e[-1] = 1.0
    m_theta = float(np.sqrt(e @ cho_solve(ch, e)))

    cross = 1j * a * (D.T @ W)
    blocks = [
        [2 * a * a * W + DtWD, cross],
        [cross.conj().T, a * a * W + 2 * DtWD],
    ]
    G_v = np.block([[blk[keep, keep] for blk in row] for row in blocks])
    try:
        chv = cho_factor(G_v)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("degenerate vector fiber Gram matrix; refine the vertical grid") from exc
    E = np.zeros(2 * m, dtype=complex)
    E[m - 1] = 1.0                     # the longitudinal trace
    m_v = float(np.sqrt(np.real(E.conj() @ cho_solve(chv, E))))
    return m_theta, m_v


def estimate_q_norms(vgrid: VerticalGrid, freq_samples) -> float:
    """Supremum over sampled |xi| of the per-fiber boundary-pairing norm q1,
    the common norm of Q1 and Q2.

    For each |xi| the pairing factorizes through the two trace functionals,
    so its fiber norm is 2*pi*|xi| times the product of their representer
    norms.  Transposing the arguments leaves that value unchanged, so one
    number bounds both pairings.
    """
    freq_samples = np.atleast_1d(np.asarray(freq_samples, dtype=float))
    if freq_samples.size == 0:
        raise ValueError("freq_samples must be nonempty")
    if np.any(freq_samples < 0):
        raise ValueError("freq_samples must be nonnegative")
    best = 0.0
    for xi in freq_samples:
        if xi == 0.0:
            continue
        a = 2.0 * np.pi * xi
        m_theta, m_v = _fiber_trace_norms(a, vgrid)
        best = max(best, a * m_theta * m_v)
    return best


def check_parameter_gate(p: PhysicalParams, q1: float):
    """Gate q1^2/4 * sigma1^2 < 2*mu*kappa, with safety margin.

    Returns (ok, margin) where margin = 2*mu*kappa - lhs after inflating the
    norm estimate by the safety factor 2.
    """
    q = 2.0 * q1
    lhs = 0.25 * q * q * p.sigma1 ** 2
    rhs = 2.0 * p.mu * p.kappa
    return lhs < rhs, rhs - lhs

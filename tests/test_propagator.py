"""The closed-form block propagator exp(tA) and the dichotomy's decaying
halves against scipy's ``expm`` and 50-digit references, and the closed-form
profiles against a 6x6 reference built from the public assembly and against
collocation."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stripwave.odesystem as ode
from oracles import matrix_exponential, solve_collocation, solve_one
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearInverter, apply_linear_operator, make_random_state,
                              state_norm)
from stripwave.odesystem import (FrequencyStack, SymbolTable, assemble_boundary,
                                 assemble_bulk_matrix)
from stripwave.params import PhysicalParams

SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def parameter_sets(draw):
    """mu and kappa in [0.5, 2], gamma and sigma1 of either sign, dim 2 or 3."""
    return PhysicalParams(mu=draw(st.floats(0.5, 2.0)), kappa=draw(st.floats(0.5, 2.0)),
                          grav=draw(st.floats(0.5, 10.0)), depth=draw(st.floats(0.6, 1.4)),
                          gamma=draw(SIGNS) * draw(st.floats(0.2, 2.0)),
                          sigma0=draw(st.floats(0.2, 2.0)),
                          sigma1=draw(SIGNS) * draw(st.floats(0.05, 0.5)),
                          dim=draw(st.sampled_from([2, 3])))


@st.composite
def frequencies(draw, p, count, top=30.0):
    """``count`` frequencies (count, dim_h) with 2 pi |xi| b in [0, top]."""
    scale = np.array(draw(st.lists(st.floats(0.0, top), min_size=count,
                                   max_size=count)))
    angle = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=count,
                                   max_size=count)))
    direction = (np.stack([np.cos(angle), np.sin(angle)], axis=-1) if p.dim_h == 2
                 else np.sign(np.cos(angle))[:, None])
    return direction * (scale / (2 * np.pi * p.depth))[:, None]


@np.errstate(all="ignore")
def _member_exponentials(prop, t):
    """exp(tA), shape (k,) + t.shape + (6, 6), for the ``_propagator`` rows
    ``prop``, with a mask of the members whose exponential is finite:
    ``_member_coefficients`` times the basis."""
    coef = ode._member_coefficients(prop, np.ravel(t)).transpose(0, 2, 1)
    X = (coef @ ode._member_basis(prop)).reshape((len(prop),) + np.shape(t) + (6, 6))
    return X, np.isfinite(X).reshape(len(prop), -1).all(axis=1)


def _exponentials(xi, p, gamma_tilde, t):
    """The propagator at one frequency, with its finite mask."""
    return _member_exponentials(ode._propagator(np.atleast_2d(xi), p, gamma_tilde), t)


def _closed_backend(xi, p):
    """The closed form's label: exp(tA) itself (P- = I) below 2 pi |xi| b =
    _DICHOTOMY_FROM, the dichotomy from there."""
    low = 2 * np.pi * np.linalg.norm(xi) * p.depth < ode._DICHOTOMY_FROM
    return "matexp" if low else "twosided"


def _collocation(p, vg, coefs, xi, z, d):
    """Profiles of one problem by collocation, the oracle."""
    return solve_collocation(p, vg, coefs, np.asarray(xi, dtype=float), z, d)[0]


def _assert_matches_references(X, xi, p, gamma_tilde, ts):
    """exp(tA) within 1e-12 of each matrix's largest entry of
    ``matrix_exponential``, scipy's expm."""
    A = assemble_bulk_matrix(xi, p, gamma_tilde)
    ref = matrix_exponential(A, np.ravel(ts))
    err = np.abs(X.reshape(-1, 6, 6) - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(1, 2)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_propagator_matches_expm(data):
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1))[0]
    gamma_tilde = data.draw(SIGNS) * p.gamma
    # times in [0, b], so that 2 pi |xi| t is in [0, 30]
    ts = p.depth * np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=6,
                                               max_size=6))).reshape(3, 2)
    X, ok = _exponentials(xi, p, gamma_tilde, ts)
    assert X.shape == (1, 3, 2, 6, 6) and ok.all()
    _assert_matches_references(X, xi, p, gamma_tilde, ts)


def _check_regime_thresholds(xi, p, gamma_tilde) -> int:
    """Check exp(tA) on both sides of each regime threshold of s1 in (0, b]:
    its Taylor series ends at t max(|l|, m) = 1, and the cosh/shc form gives
    way to the quotient of differences at |t (l - m)/2| = 1/2.  Returns the
    number of thresholds checked."""
    m, l, _, r = ode._propagator(xi[None], p, gamma_tilde)[0, :4]
    with np.errstate(divide="ignore", invalid="ignore"):    # xi = 0, tau = 0
        thresholds = [1.0 / max(abs(l), m.real), abs(l + m) / abs(r)]
    checked = 0
    for theta in thresholds:
        if theta <= p.depth:
            ts = theta * np.array([1.0 - 1e-9, 1.0 + 1e-9])
            _assert_matches_references(_exponentials(xi, p, gamma_tilde, ts)[0],
                                       xi, p, gamma_tilde, ts)
            checked += 1
    return checked


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_propagator_continuous_across_regime_thresholds(data):
    p = data.draw(parameter_sets())
    _check_regime_thresholds(data.draw(frequencies(p, 1))[0], p,
                             data.draw(SIGNS) * p.gamma)


@pytest.mark.parametrize("mu,gamma,direction,scale", [
    (0.5, 2.0, [1.0], 1.0), (0.5, 2.0, [1.0], 30.0),
    (0.5, -1.8, [0.8, 0.6], 2.0), (0.6, 2.0, [-1.0], 16.0)])
def test_propagator_continuous_across_both_thresholds(mu, gamma, direction, scale):
    # transport fast against viscosity: both thresholds fall in (0, b]
    p = PhysicalParams(mu, 1.0, 1.0, 1.0, gamma, 1.0, 0.1, len(direction) + 1)
    xi = np.array(direction) * scale / (2 * np.pi * p.depth)
    assert _check_regime_thresholds(xi, p, gamma) == 2


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(mu=_log_uniform(0.01, 10.0), gamma=_log_uniform(0.1, 50.0), sign=SIGNS,
       depth=st.floats(0.6, 1.4), tl=_log_uniform(1.001, 40.0),
       angle=st.floats(0.0, 2 * np.pi), tfrac=st.floats(0.05, 1.0),
       dim=st.sampled_from([2, 3]))
# t m = 1.5e-4 at t |l| = 1.01: there the cosh/shc form of s1 loses 1.3e-12
# to cancellation, and the quotient of differences keeps 2e-16
@example(mu=0.01, gamma=50.0, sign=1.0, depth=1.4, tl=1.01, angle=0.0, tfrac=1.0,
         dim=2)
def test_propagator_matches_mpmath_beyond_series(mu, gamma, sign, depth, tl, angle,
                                                 tfrac, dim):
    # where s1 leaves its Taylor series (t |l| > 1) and |v| > 1/2, against
    # exp(tA) at 50 digits of the same double-precision A, to 1e-12 of its
    # largest entry.  |xi| is set by t |l| = tl: with g = gamma_tilde
    # xi_1/(mu |xi|), (2 pi |xi|)^2 solves S^2 + g^2 S = (tl/t)^4.
    p = PhysicalParams(mu, 1.0, 1.0, depth, sign * gamma, 1.0, 0.1, dim)
    direction = np.array([np.cos(angle), np.sin(angle)] if dim == 3
                         else [np.sign(np.cos(angle))])
    t = tfrac * depth
    g2 = (p.gamma * direction[0] / mu) ** 2
    S = 2.0 * (tl / t) ** 4 / (np.sqrt(g2 * g2 + 4.0 * (tl / t) ** 4) + g2)
    xi = np.sqrt(S) / (2 * np.pi) * direction
    m, l, _, r = ode._propagator(xi[None], p, p.gamma)[0, :4]
    assume(t * max(abs(l), m.real) > 1.0 and abs(0.5 * t * r / (l + m)) > 0.5)
    with mpmath.workdps(50):
        exact = mpmath.expm(mpmath.matrix(assemble_bulk_matrix(xi, p, p.gamma).tolist()) * t)
    ref = np.array(exact.tolist(), dtype=complex)
    X = _exponentials(xi, p, p.gamma, t)[0][0]
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()


def _reference_coefficients(row, t):
    """c0, c1, s0, s1, cosh(t l_h) and t shc(t l_h) at 50 digits from the
    scalars of one ``_propagator`` row: m, tau/mu and l_h as stored.  With
    F(c, s) = 0F1(; c; t^2 s/4), cosh(t sqrt s) = F(1/2, s) and
    sinh(t sqrt s)/sqrt s = t F(3/2, s); c1 and s1 are their divided
    differences at m^2 and l^2 = m^2 + tau/mu, carried with the digits their
    cancellation costs, and their derivatives at m^2 when tau = 0."""
    m, _, lh, r = row[:4]
    a = m.real ** 2
    # F(c, a + tau/mu) - F(c, a) is about t^2 tau/mu against F's size
    extra = 0 if r == 0 or t == 0 else max(0, int(
        np.log10(max(1.0, a, abs(a + r))) - np.log10(abs(r)) - 2 * min(0.0, np.log10(t))))
    with mpmath.workdps(50 + extra):
        m, r, lh, t = mpmath.mpf(m.real), mpmath.mpc(r), mpmath.mpc(lh), mpmath.mpf(t)
        a = m * m

        def F(c, s):
            return mpmath.hyp0f1(c, t * t * s / 4)

        if r == 0:
            c1 = t * t / 2 * F(1.5, a)
            s1 = t ** 3 / 6 * F(2.5, a)
        else:
            c1 = (F(0.5, a + r) - F(0.5, a)) / r
            s1 = t * (F(1.5, a + r) - F(1.5, a)) / r
        coef = [F(0.5, a), c1, t * F(1.5, a), s1, F(0.5, lh * lh), t * F(1.5, lh * lh)]
        return np.array([complex(c) for c in coef])


def _switch_times(row, depth):
    """Times in (0, b] just below and above each switch of the coefficient
    formulas: t max(|l|, m) = 1 and t |l_h| = 1 (the Taylor product of the
    Stokes and of the heat coefficients against their closed forms),
    |v| = 1/2 (the cosh/shc form against the quotient of differences of s1)
    and the argument 1e-4 of ``_shc`` at tm, tl and u = t (l + m)/2."""
    m, l, lh, r = row[:4]
    with np.errstate(divide="ignore", invalid="ignore"):    # xi = 0, tau = 0
        switches = [1.0 / max(abs(l), m.real), 1.0 / abs(lh), abs(l + m) / abs(r),
                    1e-4 / m.real, 1e-4 / abs(l), 2e-4 / abs(l + m)]
    return [s * f for s in switches if s <= depth for f in (1.0 - 1e-9, 1.0 + 1e-9)]


def _assert_coefficients_match(row, times):
    """Each coefficient within 1e-13 of its own magnitude, or of the
    smallest normal double where it underflows (t^2 at t = 1e-200)."""
    got = ode._member_coefficients(row[None], np.array(times))[0]
    for t, coef in zip(times, got.T):
        ref = _reference_coefficients(row, t)
        tol = np.maximum(1e-13 * np.abs(ref), np.finfo(float).tiny)
        assert np.all(np.abs(coef - ref) <= tol), (t, coef, ref)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_each_coefficient_matches_mpmath(data):
    # each of the six coefficients of exp(tA), from the double-precision
    # propagator row, within 1e-13 of its own 50-digit value, on both sides
    # of every switch of its formulas in (0, b], at a random time, at xi = 0
    # and at tau = 0
    p = data.draw(parameter_sets())
    xi = data.draw(st.one_of(st.just(np.zeros(p.dim_h)), frequencies(p, 1).map(lambda x: x[0])))
    row = ode._propagator(xi[None], p, data.draw(st.sampled_from([-1.0, 0.0, 1.0])) * p.gamma)[0]
    _assert_coefficients_match(row, [0.0, data.draw(st.floats(0.0, 1.0)) * p.depth]
                               + _switch_times(row, p.depth))


@pytest.mark.parametrize("mu,gamma,direction,scale", [
    (0.5, 2.0, [1.0], 16.0), (0.5, -1.8, [0.8, 0.6], 2.0)])
def test_each_coefficient_matches_mpmath_at_every_switch(mu, gamma, direction, scale):
    # transport fast against viscosity puts every switch in (0, b], the
    # |v| = 1/2 one too, which the random parameter sets seldom reach
    p = PhysicalParams(mu, 1.0, 1.0, 1.0, gamma, 1.0, 0.1, len(direction) + 1)
    row = ode._propagator(np.array([direction]) * scale / (2 * np.pi * p.depth), p, gamma)[0]
    times = _switch_times(row, p.depth)
    assert len(times) == 12
    _assert_coefficients_match(row, times + [p.depth])


P2D = PhysicalParams(mu=0.8, kappa=1.7, grav=1, depth=1.1, gamma=1.3, sigma0=1,
                     sigma1=0.2, dim=2)
P3D = PhysicalParams(mu=1.6, kappa=0.6, grav=1, depth=0.9, gamma=-0.7, sigma0=1,
                     sigma1=-0.3, dim=3)
TIMES = np.array([0.0, 1e-3, 0.05, 0.3, 0.7, 1.0])


@pytest.mark.parametrize("p", [P2D, P3D], ids=["dim2", "dim3"])
def test_propagator_at_xi_zero_is_I_plus_tA(p):
    xi = np.zeros(p.dim_h)
    A = assemble_bulk_matrix(xi, p, p.gamma)
    X, ok = _exponentials(xi, p, p.gamma, p.depth * TIMES)
    assert ok.all()
    for Xt, t in zip(X[0], p.depth * TIMES):
        assert np.array_equal(Xt, np.eye(6) + t * A)


@pytest.mark.parametrize("p,gamma_tilde,direction", [
    (P3D, P3D.gamma, [0.0, 1.0]),           # xi_1 = 0 in 3D
    (P2D, 0.0, [1.0]),                      # gamma_tilde = 0
    (P3D, 0.0, [0.6, -0.8])])
def test_propagator_confluent_spectrum(p, gamma_tilde, direction):
    # tau = 0: l = m, and the Stokes block has a Jordan block at +-m
    for scale in (0.0, 0.3, 2.0, 9.0, 30.0):
        xi = np.array(direction) * scale / (2 * np.pi * p.depth)
        ts = p.depth * TIMES
        X, ok = _exponentials(xi, p, gamma_tilde, ts)
        assert ok.all()
        _assert_matches_references(X, xi, p, gamma_tilde, ts)


# exp(tA) from 50-digit exponentials of the same double-precision A, rounded
# to double: (params, gamma_tilde, xi, t, the 16 entries of the Stokes block
# (phi, psi, q, dn phi) row by row, then the 4 of the heat block)
REFERENCE_EXPONENTIALS = [
    # t m = 0.50
    (PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2), 1.0, [0.08], 1.0, [
        1.1182189816036503+0.26186580912131774j, 0.020622658836795947+0.04371268741339664j,
        -0.26186580912131774-0.010794375659381647j, 1.0836729833376293+0.0869636284709119j,
        -0.5230133015087457-0.043171080363520395j, 0.9973852449171312-0.005425845003456299j,
        0.043171080363520395+0.001077492990015291j, -0.26186580912131774-0.010794375659381647j,
        5.0699186270469345e-58+1.1473657235394109e-57j, -0.2634367663698153-0.524090794498761j,
        1.1290133572630319-2.7975226710416925e-59j, -0.524090794498761+2.8225289393846177e-58j,
        0.21972407895641863+0.5447134533355569j, 0.060737660716827443+0.13435543951428067j,
        -0.5447134533355569-0.04371268741339664j, 1.249847093949551+0.26729165412477407j,
        1.1182189816036503+0.26186580912131774j, 1.040501902974109+0.0858861354808966j,
        0.21972407895641863+0.5447134533355569j, 1.1182189816036503+0.26186580912131774j,
    ]),
    # t m = 9.68
    (PhysicalParams(2.0, 0.5, 9.8, 0.7, -1.0, 0.5, -0.2, 2), 1.0, [2.2], 0.7, [
        7856.950331807584+1388.9447432798797j, 34366.73577430577+3678.1372638418734j,
        -1388.9447432798797-109.21243669996544j, 3062.4954765940893+266.0880576867877j,
        -7878.198622296778-1246.2808625247058j, -30432.624926718494-3019.2887015918154j,
        1246.2808625247058+87.96408344529436j, -2777.8894865597595-218.42487339993087j,
        -1.7620649760932297e-54-1.888132387582475e-55j, -220232.65645621053-7966.162705742072j,
        7966.162768507549+9.800167027765617e-57j, -15932.325411484144-2.5784207681149304e-56j,
        108277.25959618433+21166.44924002392j, 529277.0927015397+60935.044745158084j,
        -21166.44924002392-1839.0686319209367j, 46255.73802703363+4408.233444871696j,
        6257.61734651908+5251.3310017983595j, 476.3245652989524+344.6324062877933j,
        81486.26130888877+79019.29979284693j, 6257.61734651908+5251.3310017983595j,
    ]),
    # t m = 27.2, the member of the linear-deep grid (box 2.5 pi) at index 34
    (PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2), -1.0, [34 / (2.5 * np.pi)], 1.0, [
        286472489550.2542-156469231218.76575j, 4074971318055.505-1122748299785.8677j,
        -156469231218.7658+38450104722.39657j, 161760805600.29984-41277511021.53925j,
        -289201274640.7193+151128405797.33215j, -3931040494877.7783+1045842848449.1866j,
        151128405797.3322-35721319631.93145j, -156469231218.7658+38450104722.39657j,
        -1.7333851541348804e-46+4.775864254554965e-47j, -8837894564216.107+324922594272.651j,
        324922594272.651-7.721076412291976e-48j, -324922594272.651+8.568443226221708e-48j,
        7715146264430.232-4399893912328.154j, 114716353176442.48-32702888566968.305j,
        -4399893912328.155+1122748299785.8677j, 4542435578700.684-1202312079667.9524j,
        286472489550.2542-156469231218.76575j, 10632399802.967623-5556191389.6078005j,
        7715146264430.232-4399893912328.154j, 286472489550.2542-156469231218.76575j,
    ]),
    # confluent: xi_1 = 0 in 3D, t m = 8.29
    (PhysicalParams(0.7, 1.3, 1, 1.2, 1.5, 1, 0.3, 3), 1.5, [0.0, 1.1], 1.2, [
        1999.510115817751+0.0j, 7292.018170755367+0.0j,
        -1713.8655992198437+0.0j, 1344.3569235343577+0.0j,
        -1999.509865756485+0.0j, -6292.261950836218+0.0j,
        1507.2217363527755+0.0j, -1199.7059194538906+0.0j,
        -1.4323674513609411e-12+0.0j, -9673.734077762963+0.0j,
        1999.5101158177508+0.0j, -1399.6569060295392+0.0j,
        13819.620111089953+0.0j, 57308.61446165056+0.0j,
        -13273.611480731217+0.0j, 10291.28218247172+0.0j,
        1999.5101158177506+0.0j, 289.301708087415+0.0j,
        13819.62011108995+0.0j, 1999.5101158177506+0.0j,
    ]),
]


@pytest.mark.parametrize("case", REFERENCE_EXPONENTIALS,
                         ids=["tm0.5", "tm9.7", "tm27", "confluent"])
def test_propagator_matches_50_digit_references(case):
    p, gamma_tilde, xi, t, entries = case
    ref = np.zeros((6, 6), dtype=complex)
    stokes = np.array([0, 1, 3, 4])
    ref[stokes[:, None], stokes] = np.reshape(entries[:16], (4, 4))
    ref[np.ix_([2, 5], [2, 5])] = np.reshape(entries[16:], (2, 2))
    X = _exponentials(np.array(xi), p, gamma_tilde, t)[0][0]
    assert np.linalg.norm(X - ref, 2) <= 1e-15 * np.linalg.norm(ref, 2)


def _reference_profiles(p, vg, coefs, xi, d, v, lam):
    """Y (6, Nz) of dn y = A y + v exp(lam x), M y(0) + N y(b) = d with
    coefficients ``coefs`` from the public assembly and
    ``matrix_exponential``: exp(x Aug) of the augmented 7x7 system
    (y, exp(lam x)) carries exp(xA) and the particular solution
    int_0^x exp((x-s)A) v exp(lam s) ds."""
    aug = np.zeros((7, 7), dtype=complex)
    aug[:6, :6] = assemble_bulk_matrix(xi, p, coefs[0])
    aug[:6, 6] = v
    aug[6, 6] = lam
    Mmat, Nmat = assemble_boundary(xi, p, *coefs[1:])
    Eb = matrix_exponential(aug, p.depth)
    y0 = np.linalg.solve(Mmat + Nmat @ Eb[:6, :6], d - Nmat @ Eb[:6, 6])
    E = matrix_exponential(aug, vg.nodes)
    return (E[:, :6, :6] @ y0 + E[:, :6, 6]).T


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_matexp_profiles_match_6x6_reference(data):
    # Within 1e-12 of each profile's largest value while cond(B) <= 1e3,
    # and 1e-15 cond(B) beyond: the reference solves B y(0) = d - N y_p(b),
    # B = M + N exp(bA), and loses digits like cond(B) eps.
    p = data.draw(parameter_sets())
    k = 4
    xis = data.draw(frequencies(p, k))
    adjoint = data.draw(st.booleans())
    vg = VerticalGrid(p.depth, data.draw(st.sampled_from([16, 24])))
    coefs = (p.gamma, 0.0, p.sigma1) if adjoint else (-p.gamma, p.sigma1, 0.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.standard_normal((k, 6)) + 1j * rng.standard_normal((k, 6))
    v = np.zeros((k, 6), dtype=complex)
    if data.draw(st.booleans()):
        v[:, [1, 3, 4, 5]] = rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
    lam = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    z = v[:, :, None] * np.exp(lam[:, None] * vg.nodes)[:, None]
    stack = FrequencyStack(p, vg, *coefs, xis)
    Y = stack.solve(z if v.any() else None, d)
    for i in range(k):
        ref = _reference_profiles(p, vg, coefs, xis[i], d[i], v[i], lam[i])
        # the 2-norm cond(B) of the B the reference solves with
        Mmat, Nmat = assemble_boundary(xis[i], p, *coefs[1:])
        A = assemble_bulk_matrix(xis[i], p, coefs[0])
        B = Mmat + Nmat @ matrix_exponential(A, p.depth)
        tol = 1e-12 * max(1.0, np.linalg.cond(B) / 1e3)
        assert np.all(np.abs(Y[i] - ref).max(axis=1) <= tol * np.abs(ref).max(axis=1))


def _smooth_forcing(rng, vg, p):
    """Smooth random bulk forcing of the forced components (6, Nz) and
    random boundary data (6,)."""
    k = np.arange(6)[:, None]
    modes = np.exp(-0.6 * k) * np.cos(k * np.pi * vg.nodes / p.depth)
    z = np.zeros((6, vg.count), dtype=complex)
    z[[1, 3, 4, 5]] = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))) @ modes
    return z, rng.standard_normal(6) + 1j * rng.standard_normal(6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_matexp_matches_collocation(data):
    # criterion 5's dual-backend check over random parameters: smooth random
    # forcing of the forced components and boundary data, 2 pi |xi| b <= 10;
    # the closed form is matexp below 2 pi |xi| b = 1e-3 and two-sided above
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1, top=10.0))[0]
    adjoint = data.draw(st.booleans())
    vg = VerticalGrid(p.depth, 48)
    coefs = (p.gamma, 0.0, p.sigma1) if adjoint else (-p.gamma, p.sigma1, 0.0)
    z, d = _smooth_forcing(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), vg, p)
    Y1, backend1, _ = solve_one(p, vg, coefs, xi, z, d)
    Y2 = _collocation(p, vg, coefs, xi, z, d)
    assert backend1 == _closed_backend(xi, p)
    assert np.abs(Y1 - Y2).max() <= 1e-8 * np.abs(Y1).max()


@pytest.mark.parametrize("nz", [24, 80])
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_coefficient_quadrature_matches_matrix_form(dim, nz, data):
    # the local integrals from the cached coefficients and basis against the
    # 6x6 form sum_q w_q exp((c_j - t_q) A) z(t_q), with the exponentials of
    # _member_exponentials, within 1e-10 of each member's largest integral
    p = replace(data.draw(parameter_sets()), dim=dim)
    k = 5
    xis = data.draw(frequencies(p, k, top=10.0))
    coefs = (p.gamma, 0.0, p.sigma1) if data.draw(st.booleans()) else (-p.gamma, p.sigma1, 0.0)
    vg = VerticalGrid(p.depth, nz)
    [sweep] = FrequencyStack(p, vg, *coefs, xis).sweeps
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.standard_normal((k, 6, nz)) + 1j * rng.standard_normal((k, 6, nz))
    got = sweep._local_integrals(z)
    _, offsets, rows = ode._gl_panels(vg, 1)
    # the rows carry the Gauss-Legendre weights: they integrate x^3 over each interval
    nodes = vg.nodes
    cubes = np.diff(nodes ** 4) / 4
    assert np.abs((rows @ nodes ** 3).reshape(nz - 1, 8).sum(axis=1) - cubes).max() \
        <= 1e-13 * cubes.max()
    X, ok = _member_exponentials(sweep.prop, offsets)
    assert ok.all()
    samples = (z @ rows.T).reshape(k, 6, nz - 1, 8)     # w_q z(t_q)
    want = np.einsum("kjqic,kcjq->kji", X, samples)
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-10 * np.abs(want).max(axis=(1, 2)))


def test_nonfinite_member_fails_alone():
    # NaN input, and 2 pi |xi| b = 2765, where cosh overflows
    xis = np.array([[np.nan], [1.0], [400.0]])
    X, ok = _member_exponentials(ode._propagator(xis, P2D, P2D.gamma), P2D.depth * TIMES)
    assert list(ok) == [False, True, False] and np.isfinite(X[1]).all()
    # the dichotomy has no growing half: at 2765 the member is two-sided
    # with a finite cond_1(K), and its forced sweep splits each interval
    # into subpanels on which no exponential overflows; each forced member
    # is solved as alone
    vg = VerticalGrid(P2D.depth, 16)
    coefs = (P2D.gamma, 0.0, P2D.sigma1)
    stack = FrequencyStack(P2D, vg, *coefs, xis[1:])
    assert list(stack.backend) == ["twosided", "twosided"] and len(stack.sweeps) == 2
    assert np.isfinite(stack.cond).all() and np.isfinite(stack.solve(None, np.ones((2, 6)))).all()
    z = np.ones((2, 6, vg.count), dtype=complex)
    z[:, [0, 2]] = 0.0
    Y = stack.solve(z, np.ones((2, 6)))
    assert np.isfinite(Y).all()
    for i in range(2):
        lone, _, _ = solve_one(P2D, vg, coefs, xis[1 + i], z[i], np.ones(6))
        assert np.abs(Y[i] - lone).max() <= 1e-13 * np.abs(lone).max()


@pytest.mark.parametrize("dim", [2, 3])
def test_production_makes_no_pade_calls(dim):
    # the Pade exponential is the tests' oracle alone
    assert not hasattr(ode, "matrix_exponential")
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid = FrequencyGrid(dim - 1, 2 * np.pi * 2, 8)
    vg = VerticalGrid(p.depth, 16)
    table = SymbolTable.build(grid, vg, p)
    inverter = LinearInverter(table)
    inverter.invert(apply_linear_operator(make_random_state(grid, vg, seed=1), p))
    z = np.zeros((6, vg.count), dtype=complex)
    z[4] = np.cos(vg.nodes)
    Y, backend, _ = solve_one(p, vg, (-p.gamma, p.sigma1, 0.0), np.full(dim - 1, 0.4), z,
                              np.ones(6))
    assert backend == "twosided" and np.abs(Y).max() > 0
    solved = np.not_equal(inverter.backend, None)
    expect = np.where(grid.xi2 == 0, "matexp", "twosided").astype(object)
    assert np.array_equal(table.backend, expect) and solved.any()
    assert np.array_equal(inverter.backend[solved], expect[solved])


# ---------------------------------------------------------------------------
# the two-sided symbols: the decaying halves of exp(tA)
# ---------------------------------------------------------------------------

def _dichotomy_references(xi, p, times):
    """exp(tA) P- and exp(-tA) P+ at 50 digits of the double-precision A,
    P+- = (I +- sign A)/2 with sign A = sqrtm(A^2)^-1 A.  Each is e^{-tm}
    expm(t (+-A + m) P-+) P-+, an exponent with no growing eigenvalue, so
    the 50 digits are not spent on cancellation."""
    A = assemble_bulk_matrix(xi, p, p.gamma)
    m = float(2 * np.pi * np.linalg.norm(xi))
    with mpmath.workdps(50):
        A, eye = mpmath.matrix(A.tolist()), mpmath.eye(6)
        sign = mpmath.inverse(mpmath.sqrtm(A * A)) * A
        halves = []
        for s in (1, -1):
            P = (eye - s * sign) / 2
            halves.append([np.array((mpmath.expm(float(t) * (s * A + m * eye) * P) * P
                                     * mpmath.exp(-float(t) * m)).tolist(), dtype=complex)
                           for t in times])
    return halves


def _assert_dichotomy_matches(xi, p, times):
    """``_dichotomy``'s rows and _FLIP times them, times the basis, finite and
    within 1e-12 of each matrix's largest entry of its 50-digit reference."""
    prop = ode._propagator(np.atleast_2d(xi), p, p.gamma)
    minus = ode._dichotomy(prop, np.array(times))
    basis = ode._member_basis(prop)[0]
    for rows, refs in zip((minus, ode._FLIP[:, None] * minus),
                          _dichotomy_references(xi, p, times)):
        got = (rows[0].T @ basis).reshape(-1, 6, 6)
        assert np.isfinite(got).all()
        for X, ref in zip(got, refs):
            assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max(), (X, ref)


def _psi_switch_times(xi, p):
    """Times in [0, b] on both sides of psi's series threshold, |t delta| = 1e-3."""
    m, l, _, r = ode._propagator(np.atleast_2d(xi), p, p.gamma)[0, :4]
    delta = abs(r / (l + m))
    return [] if delta == 0 else [
        t for t in (1e-3 / delta * (1 - 1e-9), 1e-3 / delta * (1 + 1e-9)) if t <= p.depth]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_dichotomy_matches_mpmath(data):
    # exp(tA) P- and exp(-tA) P+ at 2 pi |xi| b in [10, 500], at t = 0,
    # interior nodes, b and both sides of psi's series threshold
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1, top=500.0))[0]
    assume(2 * np.pi * np.linalg.norm(xi) * p.depth >= 10.0)
    nodes = VerticalGrid(p.depth, 24).nodes
    _assert_dichotomy_matches(xi, p, [0.0, nodes[1], nodes[7], nodes[16], p.depth]
                              + _psi_switch_times(xi, p))


@pytest.mark.parametrize("scale", [10.0, 120.0, 500.0])
@pytest.mark.parametrize("p,direction", [(P2D, [1.0]), (P3D, [0.6, -0.8]), (P3D, [0.0, 1.0])],
                         ids=["dim2", "dim3", "dim3-xi1-zero"])
def test_dichotomy_matches_mpmath_at_fixed_frequencies(p, direction, scale):
    # both dimensions, tau = 0 (xi_1 = 0, psi(0) = 1 at every t), and
    # 2 pi |xi| b = 500, where exp(bA) overflows double precision
    xi = np.array(direction) * scale / (2 * np.pi * p.depth)
    times = [0.0, 1e-3 * p.depth, 0.5 * p.depth, p.depth] + _psi_switch_times(xi, p)
    assert len(times) == (4 if direction[0] == 0.0 else 6)
    _assert_dichotomy_matches(xi, p, times)


def _assert_symbol_matches_collocation(nz, data, low, top):
    """A drawn symbol at 2 pi |xi| b in (low, top] is in closed form and
    within 1e-10 of each profile's largest entry of collocation."""
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1, top=top))[0]
    assume(2 * np.pi * np.linalg.norm(xi) * p.depth > low)
    vg = VerticalGrid(p.depth, nz)
    Y, backend, _ = ode.symbol_profiles(xi[None], p, vg)
    Yc = _collocation(p, vg, (p.gamma, 0.0, p.sigma1), xi, None, ode.UNIT_NORMAL_STRESS)
    assert backend[0] == _closed_backend(xi, p)
    assert np.abs(Y[0] - Yc).max() <= 1e-10 * np.abs(Yc).max()


@pytest.mark.parametrize("nz", [80, 120])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_twosided_symbols_match_collocation(nz, data):
    # at 2 pi |xi| b in (10, 100]
    _assert_symbol_matches_collocation(nz, data, 10.0, 100.0)


@pytest.mark.parametrize("nz", [48, 80])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_low_twosided_symbols_match_collocation(nz, data):
    # at 2 pi |xi| b in (1e-6, 10], which the forward march solved before;
    # below 1e-3 the closed form is exp(tA) itself
    _assert_symbol_matches_collocation(nz, data, 1e-6, 10.0)


@pytest.mark.parametrize("nz", [80, 120])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_forced_matches_collocation(nz, data):
    # forced solves at 2 pi |xi| b in (10, 100], both couplings: two-sided
    # (the panels resolve them at these nz) and within 1e-10 of each
    # profile's largest entry of collocation
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1, top=100.0))[0]
    assume(2 * np.pi * np.linalg.norm(xi) * p.depth > 10.0)
    coefs = (p.gamma, 0.0, p.sigma1) if data.draw(st.booleans()) else (-p.gamma, p.sigma1, 0.0)
    vg = VerticalGrid(p.depth, nz)
    z, d = _smooth_forcing(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), vg, p)
    Y, backend, _ = solve_one(p, vg, coefs, xi, z, d)
    Yc = _collocation(p, vg, coefs, xi, z, d)
    assert backend == "twosided"
    assert np.abs(Y - Yc).max() <= 1e-10 * np.abs(Yc).max()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_forced_beyond_the_panels_matches_fine_collocation(data):
    # smooth forced solves at 2 pi |xi| b in (100, 500], both couplings, at
    # nz 24, 48 and 80, on sweeps of up to 12 subpanels per interval: within
    # 1e-10 of each profile's largest entry of collocation at nz 320, the
    # forcing evaluated on that grid and the reference read at the nodes by
    # its interpolant.  Collocation at the run's own nz is no oracle here: at
    # nz 80 and 2 pi |xi| b = 377 it is 4.7e-7 off
    p = data.draw(parameter_sets())
    xi = data.draw(frequencies(p, 1, top=500.0))[0]
    assume(2 * np.pi * np.linalg.norm(xi) * p.depth > 100.0)
    coefs = (p.gamma, 0.0, p.sigma1) if data.draw(st.booleans()) else (-p.gamma, p.sigma1, 0.0)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    fine = VerticalGrid(p.depth, 320)
    z, d = _smooth_forcing(np.random.default_rng(seed), fine, p)
    Yf = _collocation(p, fine, coefs, xi, z, d)
    for nz in (24, 48, 80):
        vg = VerticalGrid(p.depth, nz)
        z, d = _smooth_forcing(np.random.default_rng(seed), vg, p)
        Y, backend, _ = solve_one(p, vg, coefs, xi, z, d)
        ref = Yf @ fine.interp_weights(vg.nodes).T
        assert backend == "twosided"
        assert np.abs(Y - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("nz", [24, 48])
@pytest.mark.parametrize("band", [(0.0, 2.0, 1e-11), (3.01, 6.0, 1e-11), (6.0, 40.0, 1e-9)],
                         ids=["inside", "beyond", "far"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_manufactured_solutions_across_the_panel_limit(nz, band, data):
    # y* a random polynomial of degree 8, which the nodes differentiate and
    # interpolate exactly, and z = D y* - A y*, with the widest panel h times
    # 2 pi |xi| in each band: where h max(m, |l|, |l_h|) is at most
    # _PANEL_LIMIT the closed form is within 1e-11 of y*, and beyond it, on a
    # sweep of subpanels, within 1e-11 up to 6 and 1e-9 up to 40
    low, top, tol = band
    p = data.draw(parameter_sets())
    vg = VerticalGrid(p.depth, nz)
    h = np.diff(vg.nodes).max()
    mh = data.draw(st.floats(low, top))
    angle = data.draw(st.floats(0.0, 2 * np.pi))
    direction = (np.array([np.cos(angle), np.sin(angle)]) if p.dim_h == 2
                 else np.array([np.sign(np.cos(angle))]))
    xi = direction * mh / (2 * np.pi * h)
    coefs = (p.gamma, 0.0, p.sigma1) if data.draw(st.booleans()) else (-p.gamma, p.sigma1, 0.0)
    rate = np.abs(ode._propagator(xi[None], p, coefs[0])[0, :3]).max()
    assume((rate * h <= ode._PANEL_LIMIT) == (top <= ode._PANEL_LIMIT))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    cheb = np.polynomial.chebyshev.chebvander(2 * vg.nodes / p.depth - 1, 8)
    ystar = (rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))) @ cheb.T
    A = assemble_bulk_matrix(xi, p, coefs[0])
    Mm, Nm = assemble_boundary(xi, p, *coefs[1:])
    z, d = vg.differentiate(ystar) - A @ ystar, Mm @ ystar[:, 0] + Nm @ ystar[:, -1]
    Y, backend, _ = solve_one(p, vg, coefs, xi, z, d)
    assert backend == _closed_backend(xi, p)
    assert np.abs(Y - ystar).max() / np.abs(ystar).max() <= tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=parameter_sets(), cutoff=st.floats(10.0, 30.0), seed=st.integers(0, 2 ** 16))
def test_roundtrip_near_the_cutoff(p, cutoff, seed):
    # content up to the dealiasing cutoff (mode_decay 0.1) at nz 24: dim 2 at
    # modes 48 and dim 3 at modes 24, the box set so that the content's
    # largest 2 pi |xi| b (the corner (8, 8) in dim 3) is the cutoff; the
    # state comes back within 1e-8
    modes = 48 if p.dim == 2 else 24
    jmax = modes // 3
    top = jmax * (np.sqrt(2) if p.dim == 3 else 1.0)
    grid = FrequencyGrid(p.dim_h, 2 * np.pi * top * p.depth / cutoff, modes)
    vg = VerticalGrid(p.depth, 24)
    st_in = make_random_state(grid, vg, seed=seed, jmax=jmax, mode_decay=0.1)
    out = LinearInverter(SymbolTable(grid, vg, p)).invert(apply_linear_operator(st_in, p))
    out.axpy(-1.0, st_in)
    assert state_norm(out) <= 1e-8 * state_norm(st_in)

import re
from math import factorial

import numpy as np
import pytest

from oracles import matrix_exponential, solve_collocation, solve_one, solve_symbol
from stripwave.errors import IllConditionedCollocation, NumericallySingular
from stripwave.grids import VerticalGrid
from stripwave.odesystem import (UNIT_NORMAL_STRESS, FrequencyStack, SymbolTable,
                                 assemble_boundary, assemble_bulk_matrix, forcing_rows,
                                 symbol_profiles, transverse_solve)
from stripwave.params import PhysicalParams
from stripwave.grids import FrequencyGrid

P1 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1, sigma0=1,
                    sigma1=0.1, dim=2)
P2 = PhysicalParams(mu=2, kappa=0.5, grav=9.8, depth=0.7, gamma=-1,
                    sigma0=0.5, sigma1=-0.2, dim=2)
VG = VerticalGrid(1.0, 40)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_bulk_matrix_xi_zero():
    A = assemble_bulk_matrix([0.0], P1, P1.gamma)
    expect = np.zeros((6, 6))
    expect[0, 4] = 1.0
    expect[2, 5] = 1.0
    assert np.abs(A - expect).max() == 0.0


def test_bulk_matrix_entries():
    # at mu = kappa = gamma_tilde = 1 and xi = (1,): row five carries
    # 4 pi^2 + 2 pi i on the first state and -2 pi on the pressure
    A = assemble_bulk_matrix([1.0], P1, 1.0)
    assert A[4, 0] == pytest.approx(4 * np.pi ** 2 + 2j * np.pi)
    assert A[4, 3] == pytest.approx(-2 * np.pi)
    assert A[3, 1] == pytest.approx(-4 * np.pi ** 2 - 2j * np.pi)
    assert A[3, 4] == pytest.approx(-2 * np.pi)
    assert A[1, 0] == pytest.approx(-2 * np.pi)
    assert A[5, 2] == pytest.approx(4 * np.pi ** 2 + 2j * np.pi)


def test_bulk_matrix_conjugate_symmetry():
    for xi in ([0.37], [-1.2]):
        A = assemble_bulk_matrix(xi, P2, P2.gamma)
        Am = assemble_bulk_matrix([-xi[0]], P2, P2.gamma)
        assert np.abs(Am - np.conj(A)).max() < 1e-14


def test_boundary_displayed_blocks():
    # at (alpha1, alpha2) = (0, sigma1) the displayed blocks are reproduced
    xi = [0.8]
    m = 2 * np.pi * 0.8
    Mm, Nm = assemble_boundary(xi, P1, 0.0, P1.sigma1)
    assert np.abs(Mm[:3, :3] - np.eye(3)).max() == 0.0
    assert np.abs(Mm[3:, :]).max() == 0.0
    N1 = Nm[3:, :3]
    N2 = Nm[3:, 3:]
    assert N1[2, 0] == pytest.approx(P1.sigma1 * m)
    assert N1[0, 1] == pytest.approx(P1.mu * m)
    assert N1[1, 0] == pytest.approx(2 * P1.mu * m)
    assert N1[0, 2] == 0.0 and N1[2, 1] == 0.0
    expect_N2 = np.array([[0, -P1.mu, 0], [1, 0, 0], [0, 0, P1.kappa]])
    assert np.abs(N2 - expect_N2).max() == 0.0


def test_boundary_xi_zero_decouples():
    _, Nm = assemble_boundary([0.0], P1, 0.0, P1.sigma1)
    assert np.abs(Nm[3:, :3]).max() == 0.0


def test_boundary_alpha1_placement():
    # forward problem (alpha1, alpha2) = (sigma1, 0): no velocity coupling in
    # the heat row, temperature coupling in the tangential stress row
    xi = [0.8]
    m = 2 * np.pi * 0.8
    _, Nm = assemble_boundary(xi, P1, P1.sigma1, 0.0)
    N1 = Nm[3:, :3]
    assert N1[2, 0] == 0.0
    assert N1[0, 2] == pytest.approx(-P1.sigma1 * m)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_exp_zero():
    A = assemble_bulk_matrix([0.9], P1, 1.0)
    assert np.abs(matrix_exponential(A, 0.0) - np.eye(6)).max() < 1e-15


def test_exp_nilpotent_terminates():
    A0 = assemble_bulk_matrix([0.0], P1, P1.gamma)
    E = matrix_exponential(A0, P1.depth)
    assert np.abs(E - (np.eye(6) + P1.depth * A0)).max() < 1e-13


def test_exp_taylor_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        M /= np.linalg.norm(M, 1)
        X = matrix_exponential(M)
        T = np.zeros((6, 6), dtype=complex)
        Pk = np.eye(6)
        for k in range(30):
            T = T + Pk / factorial(k)
            Pk = Pk @ M
        assert np.abs(X - T).max() < 1e-13


def test_exp_conjugation_commutes():
    A = assemble_bulk_matrix([0.6], P2, P2.gamma)
    assert np.abs(matrix_exponential(np.conj(A)) - np.conj(matrix_exponential(A))).max() < 1e-12


def test_exp_stack_matches_single_calls():
    # t spans expm's Pade orders 3, 5, 7, 9 and 13 with 0 to 6 squarings
    rng = np.random.default_rng(4)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M /= np.linalg.norm(M, 1)
    ts = np.array([0.0, 0.01, 0.2, 0.9, 2.0, 5.0, 11.0, 40.0, 300.0])
    stacked = matrix_exponential(M, ts)
    for t, X in zip(ts, stacked):
        assert np.array_equal(X, matrix_exponential(M, t))
    Ms = ts[:, None, None] * M
    assert np.array_equal(matrix_exponential(Ms), stacked)


def test_exp_broadcast_shapes():
    A = assemble_bulk_matrix([0.7], P1, P1.gamma)
    assert matrix_exponential(A, 0.5).shape == (6, 6)
    assert matrix_exponential(A, np.array([0.1, 0.5, 2.0])).shape == (3, 6, 6)
    stack = np.stack([A, 2.0 * A, np.conj(A), -A]).reshape(2, 2, 6, 6)
    X = matrix_exponential(stack, 0.3)
    assert X.shape == (2, 2, 6, 6)
    assert np.array_equal(X[1, 0], matrix_exponential(np.conj(A), 0.3))
    assert matrix_exponential(stack, np.array([[0.1], [0.2]])).shape == (2, 2, 6, 6)


def test_exp_stack_nan_member_raises():
    A = assemble_bulk_matrix([0.7], P1, P1.gamma)
    stack = np.stack([A, A, A])
    stack[1, 2, 3] = np.nan
    with pytest.raises(NumericallySingular):
        matrix_exponential(stack, 0.5)


def test_forced_matexp_prep_calls_independent_of_nz(monkeypatch):
    # counts the calls of the dichotomy's halves and of the propagator's
    # coefficients (the panels' quadrature), which make every exponential of
    # a closed-form forced solve
    import stripwave.odesystem as ode
    counts = {}
    for nz in (16, 48):
        calls = []
        for name in ("_dichotomy", "_member_coefficients"):
            def counting(*args, real=getattr(ode, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(ode, name, counting)
        vg = VerticalGrid(P1.depth, nz)
        z = np.zeros((6, nz), dtype=complex)
        z[4] = np.cos(vg.nodes)
        assert solve_one(P1, vg, (-P1.gamma, P1.sigma1, 0.0), [0.4], z, np.zeros(6))[1] \
            == "twosided"
        counts[nz] = calls
        monkeypatch.undo()
    assert counts[16] == counts[48] == ["_dichotomy", "_dichotomy", "_member_coefficients"]


# ---------------------------------------------------------------------------
# boundary matrix B
# ---------------------------------------------------------------------------

def _boundary_B(xi, p):
    """B = M + N exp(bA) of the adjoint problem and its inverse."""
    A = assemble_bulk_matrix(xi, p, p.gamma)
    Mm, Nm = assemble_boundary(xi, p, 0.0, p.sigma1)
    B = Mm + Nm @ matrix_exponential(A, p.depth)
    return B, np.linalg.inv(B)


def test_B_xi_zero_block_det():
    B, Binv = _boundary_B([0.0], P1)
    lower = B[3:, 3:]
    assert np.linalg.det(lower) == pytest.approx(P1.mu * P1.kappa)
    assert np.abs(B @ Binv - np.eye(6)).max() < 1e-12


def test_B_xi_zero_hand_solve():
    # with d = (0,0,0,0,chi,0) the solved initial state is a constant
    # pressure chi and nothing else
    chi = 2.5
    B, Binv = _boundary_B([0.0], P2)
    d = np.zeros(6, dtype=complex)
    d[4] = chi
    y0 = Binv @ d
    expect = np.zeros(6, dtype=complex)
    expect[3] = chi
    assert np.abs(y0 - expect).max() < 1e-13


def test_B_inverse_contract_moderate_xi():
    for ximag in (0.3, 1.0, 10.0 / (2 * np.pi)):
        B, Binv = _boundary_B([ximag], P2)
        assert np.abs(B @ Binv - np.eye(6)).max() < 1e-10


def test_B_ill_conditioned_falls_back(monkeypatch):
    # at xi = 0, K is B = M + N exp(bA), with cond_1(B) = 4 at P2: beyond a
    # limit of 2 the preparation raises the typed error, which names the
    # frequency and carries cond_1(B); at a limit of 4, and within the
    # default one, the member keeps it
    import stripwave.odesystem as ode
    vg = VerticalGrid(P2.depth, 40)
    args = (P2, vg, P2.gamma, 0.0, P2.sigma1, np.zeros((1, 1)))
    stack = FrequencyStack(*args)
    assert list(stack.backend) == ["matexp"] and stack.cond[0] == 4.0
    monkeypatch.setattr(ode, "COND_LIMIT", 2.0)
    with pytest.raises(IllConditionedCollocation,
                       match=r"cond_1\(K\) 4 beyond 2 at xi = \(0\.0,\)") as raised:
        FrequencyStack(*args)
    assert raised.value.cond_estimate == 4.0
    monkeypatch.setattr(ode, "COND_LIMIT", 4.0)
    assert FrequencyStack(*args).cond[0] == 4.0


def test_inverse_and_cond_singular_member_alone():
    # one LU per member: an exactly singular and a NaN member get cond inf,
    # and the others their inverse bit for bit and cond_1 = ||B||_1 ||B^-1||_1
    import stripwave.odesystem as ode
    rng = np.random.default_rng(5)
    B = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    B[1, 3] = 0.0
    B[2, 0, 0] = np.nan
    inv, cond = ode._inverse_and_cond(B)
    assert np.isinf(cond[[1, 2]]).all()
    for i in (0, 3):
        assert np.array_equal(inv[i], np.linalg.inv(B[i]))
        assert cond[i] == np.linalg.norm(B[i], 1) * np.linalg.norm(inv[i], 1)
        assert np.linalg.cond(B[i], 1) == pytest.approx(cond[i], rel=1e-12)


def test_singular_B_member_falls_back_alone(monkeypatch):
    # zero halves make C = 0 and K = 0, exactly singular: the preparation
    # raises the typed error naming that member's frequency, with cond inf
    import stripwave.odesystem as ode
    xis = np.array([[0.3], [0.9], [1.4]])
    coefs = (P1.gamma, 0.0, P1.sigma1)
    real = ode._dichotomy

    def singular(prop, t):
        rows = real(prop, t)
        rows[1] = 0.0
        return rows

    monkeypatch.setattr(ode, "_dichotomy", singular)
    with pytest.raises(IllConditionedCollocation,
                       match=r"cond_1\(K\) inf beyond 1e\+12 at xi = \(0\.9,\)") as raised:
        FrequencyStack(P1, VG, *coefs, xis)
    assert raised.value.cond_estimate == np.inf


def test_twosided_member_beyond_cond_limit_falls_back_alone(monkeypatch):
    # 2 pi |xi| b = 2, 12 and 100, all two-sided: cond_1(K) 38, 1.3e3, and
    # 8.3e4, beyond a limit of 2e4: the solve raises the typed error naming
    # the last frequency, with its cond_1(K)
    import stripwave.odesystem as ode
    xis = np.array([[2.0], [12.0], [100.0]]) / (2 * np.pi)
    _, backend0, cond0 = symbol_profiles(xis, P1, VG)
    assert list(backend0) == ["twosided"] * 3 and 2e4 < cond0[2] < 1e5
    monkeypatch.setattr(ode, "COND_LIMIT", 2e4)
    with pytest.raises(IllConditionedCollocation,
                       match=re.escape(f"beyond 2e+04 at xi = ({float(xis[2, 0])!r},)")) as raised:
        symbol_profiles(xis, P1, VG)
    assert raised.value.cond_estimate == cond0[2]


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_xi_zero_closed_form():
    # exp(xA) B^-1 d at the nilpotent A(0) reproduces the closed form
    # exactly: q = 1, every other response 0, rho(0) = 0
    e = solve_symbol([0.0], P1, VG)
    assert np.abs(e.y[3] - 1.0).max() == 0.0
    assert np.abs(e.y[[0, 1, 2, 4, 5]]).max() == 0.0
    assert e.rho == 0.0
    assert e.backend == "matexp" and e.cond == 1.0


@pytest.mark.parametrize("p", [P1, P2])
def test_symbol_richardson_leading_coefficient(p):
    vg = VerticalGrid(p.depth, 40)
    vals = []
    for ximag in (1e-2, 5e-3, 2.5e-3):
        e = solve_symbol([ximag], p, vg)
        vals.append(e.y[1, -1] / ximag ** 2)
    # one Richardson step removes the linear-in-|xi| correction
    extrap = 2 * vals[1] - vals[0]
    target = -4 * np.pi ** 2 * p.depth ** 3 / (3 * p.mu)
    assert extrap.real == pytest.approx(target, rel=0.01)


def _dense_symbol(p, vg, xi):
    """exp(x_j A) B^-1 d at the nodes from ``matrix_exponential``, B = M + N exp(bA)."""
    A = assemble_bulk_matrix(xi, p, p.gamma)
    Mm, Nm = assemble_boundary(xi, p, 0.0, p.sigma1)
    y0 = np.linalg.solve(Mm + Nm @ matrix_exponential(A, p.depth), UNIT_NORMAL_STRESS)
    return (matrix_exponential(A, vg.nodes) @ y0).T


def test_symbol_dual_backend_agreement():
    # a dense reference, the two-sided symbols and collocation, pairwise
    for p in (P1, P2):
        vg = VerticalGrid(p.depth, 48)
        for ximag in (0.2, 0.7, 10.0 / (2 * np.pi * p.depth)):
            xis = np.array([[ximag]])
            Ym = _dense_symbol(p, vg, xis[0])
            Yt, bt, _ = symbol_profiles(xis, p, vg)
            Yc, _ = solve_collocation(p, vg, (p.gamma, 0.0, p.sigma1), xis[0], None,
                                      UNIT_NORMAL_STRESS)
            assert bt[0] == "twosided"
            for Y1, Y2 in ((Ym, Yt[0]), (Ym, Yc), (Yt[0], Yc)):
                assert np.abs(Y1 - Y2).max() / np.abs(Y1).max() < 1e-8


def test_stiff_symbols_match_collocation():
    # mu 0.01, gamma 50 and depth 1.4 (the stiff example of the propagator
    # tests): l^2 = m^2 + 2 pi i gamma xi_1 / mu makes exp(bA) grow like
    # exp(b Re l) at small |xi|, so a forward march lost up to 2.6e-8 here
    # and fell back to collocation at 5e-2; the two-sided symbols stay
    # within 1e-12 of collocation
    p = PhysicalParams(0.01, 1, 1, 1.4, 50, 1, 0.1, 2)
    vg = VerticalGrid(p.depth, 80)
    xis = np.array([[2.5e-3], [5e-3], [1e-2], [5e-2]])
    Y, backend, _ = symbol_profiles(xis, p, vg)
    assert "collocation" not in backend
    for xi, y in zip(xis, Y):
        Yc, _ = solve_collocation(p, vg, (p.gamma, 0.0, p.sigma1), xi, None, UNIT_NORMAL_STRESS)
        assert np.abs(y - Yc).max() <= 1e-12 * np.abs(y).max()


def test_symbol_conjugate_symmetry():
    e_pos = solve_symbol([0.55], P2, VG)
    e_neg = solve_symbol([-0.55], P2, VG)
    assert np.abs(e_neg.y - np.conj(e_pos.y)).max() < 1e-12
    assert e_neg.rho == pytest.approx(np.conj(e_pos.rho))


def test_symbol_incompressibility_and_bottom():
    for ximag in (0.1, 0.8, 1.6):
        e = solve_symbol([ximag], P1, VG)
        resid = 2 * np.pi * ximag * e.y[0] + VG.differentiate(e.y[1])
        assert np.abs(resid).max() < 1e-8
        assert np.abs(e.y[:3, 0]).max() < 1e-10


def test_symbol_energy_sign_and_lower_bound():
    # -Re psi(b) >= c min(|xi|^2, 1/|xi|) with a stable positive c
    mags = np.geomspace(0.03, 6.0, 25)
    for vg in (VerticalGrid(1.0, 40), VerticalGrid(1.0, 56)):
        ratios = []
        for ximag in mags:
            e = solve_symbol([ximag], P1, vg)
            assert e.y[1, -1].real < 0.0
            env = min(ximag ** 2, 1.0 / ximag)
            ratios.append(-e.y[1, -1].real / env)
        c = min(ratios)
        assert c > 0
        if vg.count == 40:
            c_coarse = c
    assert c == pytest.approx(c_coarse, rel=1e-6)


# ---------------------------------------------------------------------------
# forced problems
# ---------------------------------------------------------------------------

def _forced_rows(xi, G=None, k_n=0.0):
    """z (6, Nz) and d (6,) of one forced problem with normal stress k_n and
    divergence G, no other forcing."""
    zero = np.zeros((1, VG.count), dtype=complex)
    G = zero if G is None else np.asarray(G, dtype=complex)[None]
    z, d = forcing_rows(P1, VG, np.array([2 * np.pi * xi]), zero, zero, G,
                        zero, 0.0, k_n, 0.0)
    return z[0], d[0]


def test_forced_zero_data():
    Y, _, _ = solve_one(P1, VG, (P1.gamma, 0.0, P1.sigma1), [0.5], *_forced_rows(0.5))
    assert np.abs(Y).max() < 1e-14


def test_forced_unit_stress_matches_symbol():
    Y, _, _ = solve_one(P1, VG, (P1.gamma, 0.0, P1.sigma1), [0.5], *_forced_rows(0.5, k_n=1.0))
    e = solve_symbol([0.5], P1, VG)
    assert np.abs(Y - e.y).max() < 1e-12


def test_z_profile_rows():
    rng = np.random.default_rng(3)
    G = rng.standard_normal(VG.count) + 1j * rng.standard_normal(VG.count)
    z, d = _forced_rows(0.5, G=G, k_n=0.3)
    assert np.abs(z[0]).max() == 0.0
    assert np.abs(z[2]).max() == 0.0
    assert d[4] == pytest.approx(0.3 + 2 * P1.mu * G[-1])


def _manufactured(p, vg, xi, gt, a1, a2, seed=0):
    from stripwave.odesystem import assemble_boundary, assemble_bulk_matrix
    rng = np.random.default_rng(seed)
    A = assemble_bulk_matrix(xi, p, gt)
    Mm, Nm = assemble_boundary(xi, p, a1, a2)
    coef = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    ystar = sum(coef[:, k][:, None] * np.cos(k * np.pi * vg.nodes / p.depth)[None]
                for k in range(5))
    z = vg.differentiate(ystar) - A @ ystar
    d = Mm @ ystar[:, 0] + Nm @ ystar[:, -1]
    return ystar, z, d


@pytest.mark.parametrize("backend", ["matexp", "twosided", "collocation"])
def test_manufactured_solution(backend):
    # the closed form at xi = 0 (matexp) and at 0.9 (two-sided), and
    # collocation at 0.9
    for p, seed in ((P1, 0), (P2, 1)):
        vg = VerticalGrid(p.depth, 48)
        xi = [0.0 if backend == "matexp" else 0.9]
        coefs = (-p.gamma, p.sigma1, 0.0)
        ystar, z, d = _manufactured(p, vg, xi, *coefs, seed)
        if backend == "collocation":
            Y, _ = solve_collocation(p, vg, coefs, np.array(xi), z, d)
        else:
            Y, used, _ = solve_one(p, vg, coefs, xi, z, d)
            assert used == backend
        assert np.abs(Y - ystar).max() / np.abs(ystar).max() < 1e-9


def test_forced_conjugate_symmetry():
    rng = np.random.default_rng(9)
    vg = VerticalGrid(P1.depth, 32)
    z = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
    z[0] = 0.0
    z[2] = 0.0
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coefs = (P1.gamma, 0.0, P1.sigma1)
    Yp, _, _ = solve_one(P1, vg, coefs, [0.45], z, d)
    Ym, _, _ = solve_one(P1, vg, coefs, [-0.45], np.conj(z), np.conj(d))
    assert np.abs(Ym - np.conj(Yp)).max() < 1e-12


def test_forced_fallback_beyond_panel_resolution():
    # at nz 40 the widest panel is 0.0403 b: at 2 pi |xi| b = 94 the widest
    # panel times the member's largest rate passes _PANEL_LIMIT, so its
    # forced sweep splits each interval in two; with bulk forcing or
    # without, the member is two-sided
    coefs = (P1.gamma, 0.0, P1.sigma1)
    assert [s.r for s in FrequencyStack(P1, VG, *coefs, np.array([[15.0]])).sweeps] == [2]
    z, d = _forced_rows(15.0, G=np.cos(VG.nodes), k_n=1.0)
    Y, used, _ = solve_one(P1, VG, coefs, [15.0], z, d)
    assert used == "twosided"
    assert np.isfinite(np.abs(Y).max())
    assert solve_one(P1, VG, coefs, [15.0], None, d)[1] == "twosided"


# ---------------------------------------------------------------------------
# transverse problems (dim_h = 2)
# ---------------------------------------------------------------------------

P3 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1, sigma0=1,
                    sigma1=0.1, dim=3)


def test_transverse_zero():
    beta, _ = transverse_solve([[0.4, -0.3]], P3, VG, P3.gamma, np.zeros((1, VG.count)),
                               np.zeros(1))
    assert np.abs(beta).max() == 0.0


def test_transverse_manufactured():
    vg = VerticalGrid(1.0, 40)
    xi = np.array([0.4, -0.3])
    bstar = np.sin(1.7 * vg.nodes) * (1 + 0.5j)
    m = 2 * np.pi * np.linalg.norm(xi)
    t = 2j * np.pi * P3.gamma * xi[0]
    f = t * bstar - P3.mu * (vg.differentiate(vg.differentiate(bstar)) - m * m * bstar)
    k = -P3.mu * vg.differentiate(bstar)[-1]
    beta, _ = transverse_solve([xi], P3, vg, P3.gamma, [f], [k])
    assert np.abs(beta[0] - bstar).max() < 1e-9


def test_transverse_nonsingular_scan():
    # homogeneous problem has only the trivial solution across frequencies
    rng = np.random.default_rng(2)
    ximag = np.array([0.05, 0.3, 1.1, 3.0])
    xis = np.stack([ximag, 0.5 * ximag], axis=1)
    k = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    beta, _ = transverse_solve(xis, P3, VG, P3.gamma, np.zeros((4, VG.count)), k)
    assert np.isfinite(np.abs(beta).max())
    beta0, _ = transverse_solve(xis, P3, VG, P3.gamma, np.zeros((4, VG.count)), np.zeros(4))
    assert np.abs(beta0).max() == 0.0


def test_transverse_batch_matches_single_systems():
    # the batched solve agrees bit for bit with a solve per frequency: every
    # frequency shares the one cached basis and is solved by its own products
    import stripwave.odesystem as ode
    rng = np.random.default_rng(5)
    xis = rng.uniform(-2.0, 2.0, (12, 2))
    f = rng.standard_normal((12, VG.count)) + 1j * rng.standard_normal((12, VG.count))
    k = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    beta, cond = transverse_solve(xis, P3, VG, P3.gamma, f, k)
    misses = ode._transverse_basis.cache_info().misses
    for i, xi in enumerate(xis):
        beta1, cond1 = transverse_solve(xi[None], P3, VG, P3.gamma, f[i:i + 1], k[i:i + 1])
        assert cond1[0] == cond[i] and np.array_equal(beta1[0], beta[i])
    assert ode._transverse_basis.cache_info().misses == misses


def _bordered_transverse(p, vg, gamma_tilde, xi):
    """The dense transverse system at one frequency: the interior equation at
    every node, its first row replaced by beta(0) = 0 and its last by
    -mu dn beta(b) = k."""
    D, nz = vg.diff, vg.count
    m2 = 4 * np.pi ** 2 * (xi @ xi)
    L = (2j * np.pi * gamma_tilde * xi[0] + p.mu * m2) * np.eye(nz) - p.mu * D @ D
    L[0], L[0, 0], L[-1] = 0.0, 1.0, -p.mu * D[-1]
    return L


@pytest.mark.parametrize("nz", [16, 24, 48, 80])
def test_transverse_solve_matches_manufactured_discrete_solution(nz):
    # f = L beta* and k from the dense bordered system, four parameter sets,
    # frequencies from 0 to 2 pi |xi| b = 80: the diagonalized solve returns
    # beta* to 1e-11 of its largest value, and its condition bound is at
    # least the 2-norm condition number of the eliminated system
    # sigma I + Abar.  Its worst error at this nz is no larger than a dense
    # solve's; at the rounding floor (errors near 1e-13, small sigma) a
    # single parameter set can go either way
    rng = np.random.default_rng(nz)
    worst, worst_dense = 0.0, 0.0
    for mu, depth, gamma in ((2.0, 0.7, -1.0), (1.0, 1.0, 1.0), (0.3, 3.0, 4.0),
                             (5.0, 0.4, 0.5)):
        p = PhysicalParams(mu=mu, kappa=1, grav=1, depth=depth, gamma=gamma, sigma0=1,
                           sigma1=0.1, dim=3)
        vg = VerticalGrid(depth, nz)
        direction = rng.standard_normal((8, 2))
        xis = direction / np.linalg.norm(direction, axis=1, keepdims=True) \
            * np.array([0.0, 0.02, 0.3, 1.0, 3.0, 10.0, 30.0, 80.0])[:, None] \
            / (2 * np.pi * depth)
        z = vg.nodes
        bstar = np.sin(1.7 * z / depth) * (1 + 0.5j) + z * z * np.exp(-z) * (0.3 - 1j)
        systems = [_bordered_transverse(p, vg, gamma, xi) for xi in xis]
        rhs = np.stack([L @ bstar for L in systems])
        beta, conds = transverse_solve(xis, p, vg, gamma, rhs, rhs[:, -1])
        rhs[:, 0] = 0.0
        dense = np.stack([np.linalg.solve(L, r) for L, r in zip(systems, rhs)])
        peak = np.abs(bstar).max()
        err = np.abs(beta - bstar).max() / peak
        assert err <= 1e-11
        worst = max(worst, err)
        worst_dense = max(worst_dense, np.abs(dense - bstar).max() / peak)
        D = vg.diff
        D2, inner = D @ D, slice(1, -1)
        Abar = -mu * (D2[inner, inner] - np.outer(D2[inner, -1], D[-1, inner]) / D[-1, -1])
        for xi, cond in zip(xis, conds):
            sigma = 2j * np.pi * gamma * xi[0] + mu * 4 * np.pi ** 2 * (xi @ xi)
            assert cond >= np.linalg.cond(sigma * np.eye(nz - 2) + Abar)
    assert worst <= worst_dense


def test_transverse_cond_limit_names_the_worst_frequency(monkeypatch):
    # a larger |sigma| lifts the smallest |sigma + lambda| most, so the
    # lowest frequency has the largest bound; a limit just below it raises
    # and names that frequency and the limit, a limit at it passes
    import stripwave.odesystem as ode
    xis = np.array([[3.0, -2.0], [0.1, 0.0], [0.5, 0.5]])
    f, k = np.zeros((3, VG.count)), np.zeros(3)
    cond = transverse_solve(xis, P3, VG, P3.gamma, f, k)[1]
    assert np.argmax(cond) == 1
    monkeypatch.setattr(ode, "COND_LIMIT", 0.999 * cond[1])
    with pytest.raises(IllConditionedCollocation,
                       match=r"transverse system condition bound .* beyond "
                             + re.escape(f"{0.999 * cond[1]:.3g} at xi = (0.1, 0.0)")) as raised:
        transverse_solve(xis, P3, VG, P3.gamma, f, k)
    assert raised.value.cond_estimate == cond[1]
    monkeypatch.setattr(ode, "COND_LIMIT", cond[1])
    assert np.array_equal(transverse_solve(xis, P3, VG, P3.gamma, f, k)[1], cond)


@pytest.mark.parametrize("lam", [[1.0, -2.0, 3.0], [1.0, 2.0 + 1e-3j, 2.0 - 1e-3j]],
                         ids=["negative", "complex"])
def test_transverse_eigenvalues_off_the_positive_axis_raise(monkeypatch, lam):
    # the eliminated operator's eigenvalues are real and positive on every
    # grid; a decomposition that says otherwise is refused, not solved
    import stripwave.odesystem as ode
    ode._transverse_basis.cache_clear()
    vg = VerticalGrid(1.3, 5)
    monkeypatch.setattr(np.linalg, "eig", lambda a: (np.array(lam), np.eye(3, dtype=np.array(lam).dtype)))
    with pytest.raises(NumericallySingular, match="off the positive axis"):
        transverse_solve([[0.4, -0.3]], P3, vg, P3.gamma, np.zeros((1, 5)), np.zeros(1))


def test_transverse_requires_dim3():
    with pytest.raises(ValueError):
        transverse_solve([[0.4]], P1, VG, P1.gamma, np.zeros((1, VG.count)), np.zeros(1))


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

def test_table_mirror_consistency():
    # the table stores xi >= 0; the symbols at -xi are their conjugates
    grid = FrequencyGrid(1, 10.0, 16)
    table = SymbolTable.build(grid, VG, P1)
    assert table.rho.shape == (9,) and table.y.shape == (9, 6, VG.count)
    for j in (1, 5):
        direct = solve_symbol([-grid.xi_axes[0][j]], P1, VG)
        assert np.abs(np.conj(table.y[j]) - direct.y).max() < 1e-12
        assert np.conj(table.rho[j]) == pytest.approx(direct.rho)


def test_table_2d_small():
    grid = FrequencyGrid(2, 6.0, 8)
    vg = VerticalGrid(1.0, 24)
    table = SymbolTable.build(grid, vg, P3)
    assert table.rho.shape == (5, 8) and table.y.shape == (5, 8, 6, 24)
    rho, vecs = table.rho, grid.xi_vectors
    # conjugate symmetry of the lattice (skip Nyquist row/col): the plane
    # k1 = 0 stores both xi and -xi, the other rows xi alone
    for i in range(0, 4):
        for j in range(1, 4):
            minus = rho[0, -j] if i == 0 else solve_symbol(-vecs[i, j], P3, vg).rho
            assert minus == pytest.approx(np.conj(rho[i, j]))
    # at xi_1 = 0 the symbols are real and rho is gamma-independent
    assert abs(table.rho[0, 2].imag) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_table_solved_on_demand_matches_build(dim, monkeypatch):
    # 2 pi |xi| b = 0.8 |j| on this lattice: both masks hold xi = 0 (in
    # closed form) and two-sided members
    import stripwave.odesystem as ode
    from stripwave.fields import reflect
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, 2.5 * np.pi, 32), VerticalGrid(1.0, 12)
    full = SymbolTable.build(grid, vg, p)
    scale, half = 2 * np.pi * np.sqrt(grid.xi2), grid.half_mask
    first = half & ((scale < 3) | ((scale > 9) & (scale < 12)))
    second = half & ((scale == 0) | ((scale > 2) & (scale < 5)) | (scale > 11))
    assert (first & second).any() and (second & ~first).any()
    calls = []
    real = ode.symbol_profiles

    def spy(xis, *args):
        calls.append(xis)
        return real(xis, *args)

    monkeypatch.setattr(ode, "symbol_profiles", spy)
    table = SymbolTable(grid, vg, p)
    assert table.solve(first) is table
    table.solve(second)
    vecs = grid.xi_vectors
    assert len(calls) == 2
    assert np.array_equal(calls[1], vecs[second & ~first])
    union = first | second
    solved = union | reflect(union, grid, 0)
    assert np.array_equal(table.solved, solved)
    assert set(table.backend[first]) == {"matexp", "twosided"}
    for name in ("y", "rho", "cond"):
        got, expect = getattr(table, name), getattr(full, name)
        assert got[solved].tobytes() == expect[solved].tobytes()
        assert (got[~solved] == 0).all()
    assert np.array_equal(table.backend[solved], full.backend[solved])
    assert (table.backend[~solved] == None).all()  # noqa: E711
    table.solve(first)
    assert len(calls) == 2


def test_rho_gamma_flip_invariance_at_zero_xi1():
    # dim_h = 2, xi = (0, xi2): |rho| does not see the sign of gamma
    vg = VerticalGrid(1.0, 24)
    pa = PhysicalParams(1, 1, 1, 1, 1.0, 1, 0.1, 3)
    pb = PhysicalParams(1, 1, 1, 1, -1.0, 1, 0.1, 3)
    ea = solve_symbol([0.0, 0.7], pa, vg)
    eb = solve_symbol([0.0, 0.7], pb, vg)
    assert abs(ea.rho) == pytest.approx(abs(eb.rho), rel=1e-12)

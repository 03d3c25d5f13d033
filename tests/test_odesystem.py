from math import factorial

import numpy as np
import pytest
from scipy.linalg import lu_solve

from stripwave.errors import NumericallySingular
from stripwave.grids import VerticalGrid
from stripwave.odesystem import (FrequencySolver, SymbolTable,
                                 assemble_boundary,
                                 assemble_bulk_matrix, forcing_rows,
                                 matrix_exponential, solve_symbol, symbol_profiles,
                                 transverse_factor, transverse_solve)
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
    # counts the calls of the closed-form propagator, which makes every
    # exponential of a matexp solve
    import stripwave.odesystem as ode
    real = ode._member_exponentials
    counts = {}
    for nz in (16, 48):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ode, "_member_exponentials", counting)
        vg = VerticalGrid(P1.depth, nz)
        z = np.zeros((6, nz), dtype=complex)
        z[4] = np.cos(vg.nodes)
        solver = FrequencySolver(P1, vg, -P1.gamma, P1.sigma1, 0.0, split=np.inf)
        assert solver.solve([0.4], z, np.zeros(6))[1] == "matexp"
        counts[nz] = len(calls)
    assert counts[16] == counts[48] > 0


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


def test_B_ill_conditioned_falls_back():
    # 2 pi |xi| b = 251: cond(B) is far beyond the limit, so a member the
    # split sends to matexp is solved by collocation instead
    stack = FrequencySolver(P1, VG, P1.gamma, 0.0, P1.sigma1,
                            split=np.inf).prepare(np.array([[40.0]]))
    assert list(stack.backend) == ["collocation"]
    assert stack.cond[0] > stack.solver.cond_limit
    d = np.zeros((1, 6), dtype=complex)
    d[0, 4] = 1.0
    Y, _, _ = symbol_profiles(np.array([[40.0]]), P1, VG, split=-1.0)
    assert np.array_equal(stack.solve(None, d), Y)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_xi_zero_closed_form():
    # the matexp solve at the nilpotent A(0) reproduces the closed form
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


def test_symbol_dual_backend_agreement():
    for p in (P1, P2):
        vg = VerticalGrid(p.depth, 48)
        for ximag in (0.2, 0.7, 10.0 / (2 * np.pi * p.depth)):
            xis = np.array([[ximag]])
            Ym, bm, _ = symbol_profiles(xis, p, vg, split=np.inf)
            Yc, bc, _ = symbol_profiles(xis, p, vg, split=-1.0)
            assert (bm[0], bc[0]) == ("matexp", "collocation")
            assert np.abs(Ym - Yc).max() / np.abs(Ym).max() < 1e-8


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
    solver = FrequencySolver(P1, VG, P1.gamma, 0.0, P1.sigma1)
    Y, _, _ = solver.solve([0.5], *_forced_rows(0.5))
    assert np.abs(Y).max() < 1e-14


def test_forced_unit_stress_matches_symbol():
    solver = FrequencySolver(P1, VG, P1.gamma, 0.0, P1.sigma1)
    Y, _, _ = solver.solve([0.5], *_forced_rows(0.5, k_n=1.0))
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


@pytest.mark.parametrize("backend", ["matexp", "collocation"])
def test_manufactured_solution(backend):
    for p, seed in ((P1, 0), (P2, 1)):
        vg = VerticalGrid(p.depth, 48)
        xi = [0.9]
        gt, a1, a2 = -p.gamma, p.sigma1, 0.0
        ystar, z, d = _manufactured(p, vg, xi, gt, a1, a2, seed)
        split = {"matexp": np.inf, "collocation": -1.0}[backend]
        Y, used, _ = FrequencySolver(p, vg, gt, a1, a2, split=split).solve(xi, z, d)
        assert used == backend
        assert np.abs(Y - ystar).max() / np.abs(ystar).max() < 1e-9


def test_forced_conjugate_symmetry():
    rng = np.random.default_rng(9)
    vg = VerticalGrid(P1.depth, 32)
    z = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
    z[0] = 0.0
    z[2] = 0.0
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    solver = FrequencySolver(P1, vg, P1.gamma, 0.0, P1.sigma1)
    Yp, _, _ = solver.solve([0.45], z, d)
    Ym, _, _ = solver.solve([-0.45], np.conj(z), np.conj(d))
    assert np.abs(Ym - np.conj(Yp)).max() < 1e-12


def test_backend_fallback_above_split():
    # beyond the matexp validity the solver silently switches to collocation
    solver = FrequencySolver(P1, VG, P1.gamma, 0.0, P1.sigma1, split=30.0)
    d = np.zeros(6, dtype=complex)
    d[4] = 1.0
    ximag = 10.0  # 2 pi |xi| b = 62.8 > 30
    Y, used, _ = solver.solve([ximag], None, d)
    assert used == "collocation"
    assert np.isfinite(np.abs(Y).max())


# ---------------------------------------------------------------------------
# transverse problems (dim_h = 2)
# ---------------------------------------------------------------------------

P3 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1, sigma0=1,
                    sigma1=0.1, dim=3)


def test_transverse_zero():
    lu = transverse_factor([[0.4, -0.3]], P3, VG, P3.gamma)
    beta = transverse_solve(lu, np.zeros((1, VG.count)), np.zeros(1))
    assert np.abs(beta).max() == 0.0


def test_transverse_manufactured():
    vg = VerticalGrid(1.0, 40)
    xi = np.array([0.4, -0.3])
    bstar = np.sin(1.7 * vg.nodes) * (1 + 0.5j)
    m = 2 * np.pi * np.linalg.norm(xi)
    t = 2j * np.pi * P3.gamma * xi[0]
    f = t * bstar - P3.mu * (vg.differentiate(vg.differentiate(bstar)) - m * m * bstar)
    k = -P3.mu * vg.differentiate(bstar)[-1]
    beta = transverse_solve(transverse_factor([xi], P3, vg, P3.gamma), [f], [k])
    assert np.abs(beta[0] - bstar).max() < 1e-9


def test_transverse_nonsingular_scan():
    # homogeneous problem has only the trivial solution across frequencies
    rng = np.random.default_rng(2)
    ximag = np.array([0.05, 0.3, 1.1, 3.0])
    lu = transverse_factor(np.stack([ximag, 0.5 * ximag], axis=1), P3, VG, P3.gamma)
    k = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    beta = transverse_solve(lu, np.zeros((4, VG.count)), k)
    assert np.isfinite(np.abs(beta).max())
    beta0 = transverse_solve(lu, np.zeros((4, VG.count)), np.zeros(4))
    assert np.abs(beta0).max() == 0.0


def test_transverse_batch_matches_single_systems():
    # the stacked factors and the batched solve agree bit for bit with a
    # factorisation and a solve per frequency
    rng = np.random.default_rng(5)
    xis = rng.uniform(-2.0, 2.0, (12, 2))
    lu, piv = transverse_factor(xis, P3, VG, P3.gamma)
    f = rng.standard_normal((12, VG.count)) + 1j * rng.standard_normal((12, VG.count))
    k = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    beta = transverse_solve((lu, piv), f, k)
    for i, xi in enumerate(xis):
        lu1, piv1 = transverse_factor(xi[None], P3, VG, P3.gamma)
        assert np.array_equal(lu1[0], lu[i]) and np.array_equal(piv1[0], piv[i])
        rhs = f[i].copy()
        rhs[0], rhs[-1] = 0.0, k[i]
        assert np.array_equal(lu_solve((lu1[0], piv1[0]), rhs), beta[i])


def test_transverse_requires_dim3():
    with pytest.raises(ValueError):
        transverse_factor([[0.4]], P1, VG, P1.gamma)


# ---------------------------------------------------------------------------
# symbol table
# ---------------------------------------------------------------------------

def test_table_mirror_consistency():
    grid = FrequencyGrid(1, 10.0, 16)
    table = SymbolTable.build(grid, VG, P1)
    assert table.rho.shape == (16,) and table.y.shape == (16, 6, VG.count)
    for j in (1, 5):
        direct = solve_symbol([grid.xi_axis()[-j]], P1, VG)
        stored = table.entry((16 - j,))
        assert np.abs(stored.y - direct.y).max() < 1e-12
        assert stored.rho == pytest.approx(direct.rho)


def test_table_2d_small():
    grid = FrequencyGrid(2, 6.0, 8)
    vg = VerticalGrid(1.0, 24)
    table = SymbolTable.build(grid, vg, P3)
    assert table.rho.shape == (8, 8) and table.y.shape == (8, 8, 6, 24)
    rho = table.rho
    # conjugate symmetry of the lattice (skip Nyquist row/col)
    for i in range(1, 4):
        for j in range(1, 4):
            assert rho[-i, -j] == pytest.approx(np.conj(rho[i, j]))
    # at xi_1 = 0 the symbols are real and rho is gamma-independent
    e = table.entry((0, 2))
    assert abs(e.rho.imag) < 1e-12


def test_rho_gamma_flip_invariance_at_zero_xi1():
    # dim_h = 2, xi = (0, xi2): |rho| does not see the sign of gamma
    vg = VerticalGrid(1.0, 24)
    pa = PhysicalParams(1, 1, 1, 1, 1.0, 1, 0.1, 3)
    pb = PhysicalParams(1, 1, 1, 1, -1.0, 1, 0.1, 3)
    ea = solve_symbol([0.0, 0.7], pa, vg)
    eb = solve_symbol([0.0, 0.7], pb, vg)
    assert abs(ea.rho) == pytest.approx(abs(eb.rho), rel=1e-12)

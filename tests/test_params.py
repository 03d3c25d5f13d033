import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from stripwave.grids import VerticalGrid
from stripwave.params import (PhysicalParams, _fiber_trace_norms,
                              check_parameter_gate, estimate_q_norms,
                              make_constitutive, validate_params,
                              verify_constitutive_linearization)

P1 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1, sigma0=1,
                    sigma1=0.1, dim=2)


def test_validate_ok():
    assert validate_params(P1) == []


def test_validate_gamma_zero():
    p = PhysicalParams(1, 1, 1, 1, 0.0, 1, 0.1, 2)
    assert "gamma must be nonzero" in validate_params(p)


def test_validate_negative_mu():
    p = PhysicalParams(-1, 1, 1, 1, 1, 1, 0.1, 2)
    assert "mu must be positive" in validate_params(p)


def test_validate_dim():
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 4)
    assert any("dim" in v for v in validate_params(p))


def test_gate_vanishing_coupling():
    est = 123.0
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.0, 2)
    ok, margin = check_parameter_gate(p, est)
    assert ok
    assert margin == pytest.approx(2.0 * p.mu * p.kappa)


def test_gate_violated():
    # q1 = 1/2 inflated by the safety factor 2: max{1/4, 1/4} * 100 = 25 > 2
    est = 0.5
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 10.0, 2)
    ok, margin = check_parameter_gate(p, est)
    assert not ok
    assert margin == pytest.approx(2.0 - 25.0)


def test_gate_default_params_pass():
    vg = VerticalGrid(P1.depth, 64)
    est = estimate_q_norms(vg, [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
    ok, margin = check_parameter_gate(P1, est)
    assert ok and margin > 0


def test_gate_monotone_in_sigma1():
    est = 2.3
    prev_ok = True
    for s1 in np.linspace(0.0, 5.0, 40):
        p = PhysicalParams(1, 1, 1, 1, 1, 1, s1, 2)
        ok, _ = check_parameter_gate(p, est)
        assert prev_ok or not ok  # once false, never true again
        prev_ok = ok


def test_qnorm_zero_frequency():
    vg = VerticalGrid(1.0, 32)
    est = estimate_q_norms(vg, [0.0])
    assert est == 0.0


def test_qnorm_grid_refinement():
    est64 = estimate_q_norms(VerticalGrid(1.0, 64), [1.0])
    est128 = estimate_q_norms(VerticalGrid(1.0, 128), [1.0])
    assert abs(est64 - est128) <= 1e-3 * est128


def test_qnorm_sweep_saturates():
    # per-fiber norms vanish at xi -> 0 and saturate at a finite plateau for
    # large xi, which is the boundedness evidence for the pairing constant
    vg = VerticalGrid(1.0, 64)
    samples = np.geomspace(0.1, 10.0, 21)
    vals = np.array([estimate_q_norms(vg, [x]) for x in samples])
    assert vals[0] < 0.6 * vals[-1]
    assert (vals[-1] - vals[-2]) / vals[-1] < 1e-3
    assert vals[-1] < 10.0


def test_qnorm_dim3():
    # dim 3 adds the transverse component to the vector fiber.  Its cross
    # blocks are zero and the longitudinal trace never reaches it, so the
    # 3-block Gram matrix gives the estimate the gate makes for every dim
    for nz in (16, 48, 80):
        vg = VerticalGrid(1.0, nz)
        D, W = vg.diff, np.diag(vg.weights)
        DtWD = D.T @ W @ D
        keep, m = slice(1, nz), nz - 1
        for xi in np.array([0.05, 0.5, 2.0, 20.0]) / (2.0 * np.pi):
            a = 2.0 * np.pi * xi
            cross, Z = 1j * a * (D.T @ W), np.zeros_like(W)
            G_v = np.block([[blk[keep, keep] for blk in row] for row in (
                [2 * a * a * W + DtWD, Z, cross],
                [Z, a * a * W + DtWD, Z],
                [cross.conj().T, Z, a * a * W + 2 * DtWD])])
            E = np.zeros(3 * m)
            E[m - 1] = 1.0
            m_v = np.sqrt(np.real(E @ cho_solve(cho_factor(G_v), E)))
            e = np.eye(m)[-1]
            G_th = ((1.0 + a * a) * W + DtWD)[keep, keep]
            m_theta = np.sqrt(e @ cho_solve(cho_factor(G_th), e))
            est = estimate_q_norms(vg, [xi])
            assert est == pytest.approx(a * m_theta * m_v, rel=1e-12, abs=0)


@pytest.mark.parametrize("weights, diff, a, fiber", [
    (0.0, 1.0, 1.0, "scalar"),      # G_th = 0
    (1.0, 0.0, 0.0, "vector"),      # G_th = W, G_v = 0
], ids=["scalar", "vector"])
def test_degenerate_fiber_gram_raises(weights, diff, a, fiber):
    # a Gram matrix that is not positive definite names its fiber
    vg = VerticalGrid(1.0, 8)
    grid = SimpleNamespace(count=8, weights=weights * vg.weights, diff=diff * vg.diff)
    with pytest.raises(np.linalg.LinAlgError, match=f"degenerate {fiber} fiber"):
        _fiber_trace_norms(a, grid)


def test_linearization_newtonian_exact():
    c = make_constitutive(P1, visc="newtonian", heat="fourier", sigma="linear")
    dev = verify_constitutive_linearization(c, P1, h=1e-3)
    assert dev < 1e-12


def test_linearization_second_order():
    c = make_constitutive(P1, visc="tempdep", heat="tempdep", sigma="smooth")
    d1 = verify_constitutive_linearization(c, P1, h=1e-3)
    d2 = verify_constitutive_linearization(c, P1, h=5e-4)
    assert d1 > 0
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_linearization_step_bounds():
    c = make_constitutive(P1)
    with pytest.raises(ValueError):
        verify_constitutive_linearization(c, P1, h=1.0)


@pytest.mark.parametrize("sigma", ["linear", "smooth"])
@pytest.mark.parametrize("sigma1", [0.1, -0.35])
def test_sigma_prime_matches_complex_step(sigma, sigma1):
    p = dataclasses.replace(P1, sigma1=sigma1)
    c = make_constitutive(p, sigma=sigma)
    r = np.linspace(-2.0, 2.0, 401)
    h = 1e-30
    # the complex step Im sigma(r + ih) / h has no cancellation
    ref = np.imag(c.sigma_fn(r + 1j * h)) / h
    assert np.abs(c.sigma_prime(r) - ref).max() <= 1e-13 * abs(sigma1)
    assert c.sigma_prime(0.0) == sigma1


def test_linearization_checks_sigma_prime():
    c = make_constitutive(P1, visc="newtonian", heat="fourier", sigma="linear")
    wrong = dataclasses.replace(c, sigma_prime=lambda r: 1.1 * c.sigma_prime(r))
    dev = verify_constitutive_linearization(wrong, P1, h=1e-3)
    assert dev == pytest.approx(0.1 * P1.sigma1 / max(P1.sigma1, P1.sigma0, 1.0))


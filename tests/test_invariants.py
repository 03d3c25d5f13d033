"""Cross-module invariants that do not belong to a single unit file."""

import numpy as np
import pytest

from oracles import matrix_exponential, solve_collocation
from stripwave.errors import NotConverged, SurfaceTooLarge
from stripwave.fields import SurfaceSpectral
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import LinearInverter, LinearState
from stripwave.nonlinear import (ForcingData, make_forcing_preset, nonlinear_residual,
                                 picard_solve)
from stripwave.norms import ydata_norm
from stripwave.odesystem import (COND_LIMIT, UNIT_NORMAL_STRESS, FrequencyStack,
                                 assemble_boundary, assemble_bulk_matrix)
from stripwave.params import PhysicalParams, estimate_q_norms, make_constitutive

P1 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)


def test_collocation_self_convergence_beyond_matexp():
    # the tests' collocation oracle at 2 pi |xi| b = 150: its error against a
    # fine reference drops much faster than any fixed algebraic order
    ximag = 150.0 / (2 * np.pi)

    def vn_surf(nz):
        Y, _ = solve_collocation(P1, VerticalGrid(1.0, nz), (P1.gamma, 0.0, P1.sigma1),
                                 np.array([ximag]), None, UNIT_NORMAL_STRESS)
        return Y[1, -1]

    ref = vn_surf(160)
    errs = []
    for nz in (24, 32, 40):
        errs.append(abs(vn_surf(nz) - ref) / abs(ref))
    assert errs[0] > errs[1] > errs[2]
    # spectral: each +8 nodes gains far more than second-order would
    assert errs[0] / errs[1] > (32 / 24) ** 2
    assert errs[1] / errs[2] > (40 / 32) ** 2


def test_twosided_solves_far_beyond_cond_B_limit():
    # at 2 pi |xi| b = 50, cond_1(B) of the forward march's B = M + N exp(bA)
    # is far beyond the limit, while cond_1(K) of the dichotomy is about
    # 2.1e4: the member is two-sided and within 1e-10 of collocation
    vg = VerticalGrid(1.0, 40)
    coefs = (P1.gamma, 0.0, P1.sigma1)
    A = assemble_bulk_matrix([8.0], P1, P1.gamma)
    Mm, Nm = assemble_boundary([8.0], P1, *coefs[1:])
    assert np.linalg.cond(Mm + Nm @ matrix_exponential(A, 1.0), 1) > COND_LIMIT
    stack = FrequencyStack(P1, vg, *coefs, np.array([[8.0]]))
    assert list(stack.backend) == ["twosided"] and stack.cond[0] < 3e4
    Y = stack.solve(None, UNIT_NORMAL_STRESS[None])
    Yc, _ = solve_collocation(P1, vg, coefs, np.array([8.0]), None, UNIT_NORMAL_STRESS)
    assert np.abs(Y[0] - Yc).max() <= 1e-10 * np.abs(Yc).max()


@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_picard_propagates_surface_too_large():
    grid = FrequencyGrid(1, 2 * np.pi * 10, 48)
    vg = VerticalGrid(1.0, 32)
    c = make_constitutive(P1)
    forcing = make_forcing_preset("heat-only", 50.0, grid, 1.0, mode_index=2)
    with pytest.raises(SurfaceTooLarge):
        picard_solve(forcing, P1, c, grid, vg)


def test_picard_not_converged_budget(monkeypatch):
    # an exhausted budget stops before inverting: the trace's state is the
    # one whose residual the trace records last
    grid = FrequencyGrid(1, 2 * np.pi * 10, 16)
    vg = VerticalGrid(1.0, 24)
    c = make_constitutive(P1)
    forcing = make_forcing_preset("heat-only", 1e-3, grid, 1.0, mode_index=2)
    inverts = []
    real = LinearInverter.invert
    monkeypatch.setattr(LinearInverter, "invert",
                        lambda self, data: inverts.append(1) or real(self, data))
    with pytest.raises(NotConverged) as err:
        picard_solve(forcing, P1, c, grid, vg, maxiter=0)
    trace = err.value.trace
    assert trace is not None
    assert len(trace.residuals) >= 1
    assert inverts == []
    assert ydata_norm(nonlinear_residual(trace.state, forcing, P1, c)) == trace.residuals[-1]


class _NullInverter:
    """Stalls the iteration: updates are zero, so the residual never moves."""

    def invert(self, data):
        from stripwave.linear import LinearState
        return LinearState.zeros(data.grid, data.vgrid)


def _stalled_solve_trace():
    from stripwave.errors import Diverged
    grid = FrequencyGrid(1, 2 * np.pi * 10, 48)
    vg = VerticalGrid(1.0, 32)
    c = make_constitutive(P1)
    forcing = make_forcing_preset("heat-only", 1e-3, grid, 1.0, mode_index=2)
    with pytest.raises(Diverged) as err:
        picard_solve(forcing, P1, c, grid, vg, inverter=_NullInverter())
    return err.value.trace


def test_picard_divergence_detector():
    trace = _stalled_solve_trace()
    # three non-contracting steps after the first residual, then the raise
    assert len(trace.residuals) == 4
    assert trace.contraction == [1.0, 1.0, 1.0]


def test_picard_stall_fails_at_requested_amplitude():
    # a stalled solve fails once, at the forcing asked: no retry at a smaller one
    trace = _stalled_solve_trace()
    assert trace.amplitude_used == 1e-3
    assert "retried_after_divergence" not in trace.diagnostics


def test_qnorm_sup_monotone_in_sample_set():
    vg = VerticalGrid(1.0, 48)
    small = estimate_q_norms(vg, [0.5, 1.0])
    large = estimate_q_norms(vg, [0.25, 0.5, 1.0, 2.0, 4.0])
    assert large >= small


def test_flattening_accepts_just_below_threshold():
    from stripwave.geometry import build_flattening
    grid = FrequencyGrid(1, 2 * np.pi, 32)
    vg = VerticalGrid(1.0, 16)
    eta = SurfaceSpectral.zeros(grid)
    eta.data[0, 0] = 0.4999
    ff = build_flattening(eta, grid, vg)
    assert np.abs(ff.eta_phys).max() == pytest.approx(0.4999)


def test_linear_state_axpy_and_copy():
    grid = FrequencyGrid(1, 5.0, 16)
    vg = VerticalGrid(1.0, 12)
    a = LinearState.zeros(grid, vg)
    a.eta.data[0, 1] = 1.0
    b = a.copy()
    b.axpy(2.0, a)
    assert b.eta.data[0, 1] == pytest.approx(3.0)
    assert a.eta.data[0, 1] == pytest.approx(1.0)


def test_forcing_is_zero_logic():
    assert ForcingData().is_zero()
    assert ForcingData(h=lambda xp: 0 * xp[..., 0], amplitude=0.0).is_zero()
    assert not ForcingData(h=lambda xp: 0 * xp[..., 0],
                           amplitude=1.0).is_zero()

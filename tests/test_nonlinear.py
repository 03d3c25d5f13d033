import warnings

import numpy as np
import pytest

from oracles import traced_peak
from stripwave.errors import AliasingWarning, ConfigError, Diverged, PointOutsideDomain
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearState, LinearInverter, apply_linear_operator,
                              make_random_state, state_norm)
from stripwave.nonlinear import (ForcingData, eulerian_grid_samples,
                                 make_forcing_preset, nonlinear_residual,
                                 picard_solve, pushforward_eulerian,
                                 suggested_amplitude_cap)
from stripwave.norms import ydata_norm
from stripwave.odesystem import SymbolTable
from stripwave.ops import dealias, lattice_sum, to_coeff, to_phys
from stripwave.params import ConstitutiveSet, PhysicalParams, make_constitutive

P1 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
GRID = FrequencyGrid(1, 2 * np.pi * 10, 96)
VG = VerticalGrid(1.0, 40)
C_SMOOTH = make_constitutive(P1, visc="tempdep", heat="tempdep", sigma="smooth")
C_NEWT = make_constitutive(P1, visc="newtonian", heat="fourier", sigma="smooth")


@pytest.fixture(scope="module")
def table():
    return SymbolTable.build(GRID, VG, P1)


@pytest.fixture(scope="module")
def inverter(table):
    return LinearInverter(table)


def _scaled(state, eps):
    out = state.copy()
    out.u.data *= eps
    out.psi.data *= eps
    out.pres.data *= eps
    out.eta.data *= eps
    return out


def test_residual_zero_state_zero_forcing():
    st = LinearState.zeros(GRID, VG)
    r = nonlinear_residual(st, ForcingData(), P1, C_SMOOTH)
    assert ydata_norm(r) == 0.0


@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
@pytest.mark.parametrize("jmax", [40, 5])
def test_residual_transforms_each_array_once(monkeypatch, jmax):
    # every physical-space array of one residual is synthesized once: no
    # two to_phys calls get equal coefficients.  At jmax 40 the state
    # reaches beyond the 2/3 cutoff; at jmax 5 it stays inside, as every
    # Picard iterate does, so dealiasing the surface slopes changes nothing
    # and a curvature that made them again would repeat a call.
    import stripwave.geometry as geo
    import stripwave.nonlinear as nl
    real, inputs = nl.to_phys, []

    def spy(coeffs, grid):
        inputs.append(np.array(coeffs))
        return real(coeffs, grid)

    for module in (geo, nl):
        monkeypatch.setattr(module, "to_phys", spy)
    st = _scaled(make_random_state(GRID, VG, seed=5, jmax=jmax, eta_scale=0.5), 1e-2)
    nonlinear_residual(st, make_forcing_preset("mixed", 1e-3, GRID, 1.0), P1, C_SMOOTH)
    repeats = [i for i, a in enumerate(inputs)
               if any(a.shape == b.shape and np.array_equal(a, b) for b in inputs[:i])]
    assert len(inputs) > 10 and repeats == []


def test_residual_rejects_nonsymmetric_gamma():
    # each distinct entry of Gamma is differentiated once for both rows of
    # div_A Gamma, which holds only for the symmetric stress that
    # ConstitutiveSet promises
    def skewed(r, M):
        out = C_SMOOTH.gamma_visc(r, M)
        out[0, 1] += 0.5 * r
        return out

    c = ConstitutiveSet(skewed, C_SMOOTH.phi_heat, C_SMOOTH.sigma_fn, C_SMOOTH.sigma_prime)
    st = _scaled(make_random_state(GRID, VG, seed=5, jmax=5), 1e-2)
    with pytest.raises(ConfigError, match="gamma_visc"):
        nonlinear_residual(st, ForcingData(), P1, c)


@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
@pytest.mark.parametrize("grid, vg, guard", [
    (GRID, VG, 48),
    (FrequencyGrid(2, 2 * np.pi * 3, 24), VerticalGrid(1.0, 28), 63),
], ids=["2d", "3d"])
def test_residual_peak_memory(grid, vg, guard):
    # the residual differentiates one scalar field at a time and twists it
    # with the last column of A alone: its traced peak, in real fields of
    # phys_shape + (Nz,), is 43.2 in 2D and 59.5 in 3D; holding every
    # partial of every component at once, or all n x n entries of A, breaks
    # the guard
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, grid.dim_h + 1)
    c = make_constitutive(p, visc="tempdep", heat="tempdep", sigma="smooth")
    st = _scaled(make_random_state(grid, vg, seed=5, jmax=5, eta_scale=0.5), 1e-2)
    forcing = make_forcing_preset("mixed", 1e-3, grid, 1.0)
    _, _, peak = traced_peak(nonlinear_residual, st, forcing, p, c)
    assert peak / (np.prod(grid.phys_shape) * vg.count * 8) <= guard


def test_derivative_at_zero_is_linear_operator():
    st = make_random_state(GRID, VG, seed=5, jmax=5, eta_scale=0.5)
    lin = apply_linear_operator(st, P1)
    denom = ydata_norm(lin)
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        r = nonlinear_residual(_scaled(st, eps), ForcingData(), P1, C_SMOOTH)
        for part in r.parts():
            part.data *= 1.0 / eps
        r.axpy(-1.0, lin)
        errs.append(ydata_norm(r) / denom)
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.1)


def test_flat_surface_newtonian_bulk_term():
    # with eta = 0 and the Newtonian closure the bulk slot reduces to
    # -gamma d1 u + u.grad u + grad p - mu(lap u + grad div u) - forcing,
    # checked against an independently coded pseudospectral evaluation
    st = make_random_state(GRID, VG, seed=11, jmax=4)
    st.eta.data[:] = 0.0
    for f in (st.u, st.psi, st.pres):
        f.data *= 1e-2
    r = nonlinear_residual(st, ForcingData(), P1, C_NEWT)

    xi = GRID.xi_axes[0]
    tw = (2j * np.pi * xi)[None, :, None]
    D = VG.diff

    def phys(cf):
        # expects a leading component axis; transforms the stored mode axis
        return np.fft.irfft(cf, GRID.modes, axis=1) * GRID.modes

    def coeff(ph):
        return np.fft.rfft(ph, axis=1) / GRID.modes

    u = st.u.data
    du1 = tw * u
    dun = u @ D.T
    lap = tw * du1 + dun @ D.T
    div = du1[0:1] + dun[1:2]
    grad_div = np.concatenate([tw * div, div @ D.T], axis=0)
    grad_p = np.concatenate([tw * st.pres.data, st.pres.data @ D.T], axis=0)
    up, d1p, dnp = phys(u), phys(du1), phys(dun)
    conv = np.stack([up[0] * d1p[c] + up[1] * dnp[c] for c in range(2)])
    oracle = (-P1.gamma * du1 + coeff(conv) + grad_p
              - P1.mu * (lap + grad_div))
    # compare on the dealiased band
    mask = GRID.dealias_mask[None, :, None]
    diff = np.abs((r.f.data - oracle) * mask).max()
    assert diff < 1e-12 * max(1.0, np.abs(oracle).max())


def test_residual_catches_large_surface():
    from stripwave.errors import SurfaceTooLarge
    st = LinearState.zeros(GRID, VG)
    st.eta.data[0, 0] = 0.6
    with pytest.raises(SurfaceTooLarge):
        nonlinear_residual(st, ForcingData(), P1, C_SMOOTH)


def test_aliasing_warning_on_rough_state():
    st = LinearState.zeros(GRID, VG)
    # energy right at the cutoff boundary produces a visible tail after products
    j = GRID.modes // 3 + 4
    st.eta.data[0, j] = 0.05        # and at -j, the mirror
    st.u.data[0, j, :] = 0.5
    with pytest.warns(AliasingWarning):
        nonlinear_residual(st, ForcingData(), P1, C_SMOOTH)


def test_forcing_validation():
    make_forcing_preset("mixed", 1e-3, GRID, 1.0).validate(GRID, VG)
    # at rest f is checked at the strip points and t, h at the surface x_n = b
    seen = {}

    def heat(pts):
        seen["h"] = pts[..., -1]
        return np.cos(pts[..., 0])

    ForcingData(f=lambda pts: np.stack([pts[..., -1]] * 2), h=heat).validate(GRID, VG)
    assert seen["h"].shape == GRID.phys_shape and np.all(seen["h"] == VG.depth)


def _sharp(pts):
    return np.sign(np.cos(pts[..., 0]))


@pytest.mark.parametrize("forcing, name", [
    (ForcingData(h=_sharp), "h"),
    (ForcingData(t=lambda pts: np.stack([np.stack([_sharp(pts)] * 2)] * 2)), "t"),
    (ForcingData(f=lambda pts: np.stack([_sharp(pts)] * 2)), "f"),
    (ForcingData(h=lambda pts: np.cos(pts[..., 0])[None]), "h"),
    (ForcingData(t=lambda pts: np.stack([np.cos(pts[..., 0])] * 2)), "t"),
    (ForcingData(f=lambda pts: np.cos(pts[..., 0])), "f"),
    (ForcingData(h=lambda pts: np.cos(pts[..., 0]) / 0.0), "h"),
], ids=["sharp-h", "sharp-t", "sharp-f", "shape-h", "shape-t", "shape-f", "inf-h"])
def test_forcing_validation_names_the_source(forcing, name):
    with np.errstate(divide="ignore"), pytest.raises(ConfigError, match=f"source {name} "):
        forcing.validate(GRID, VG)


@pytest.mark.parametrize("dim", [2, 3])
def test_each_source_changes_residual(dim):
    # at a state with a nonzero surface each source moves the residual, and
    # a heat flux that reads y_n is taken at the free surface y_n = b + eta
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid = FrequencyGrid(dim - 1, 2 * np.pi * 3, 32 if dim == 2 else 16)
    vg = VerticalGrid(1.0, 12)
    c = make_constitutive(p, visc="tempdep", heat="tempdep", sigma="smooth")
    st = _scaled(make_random_state(grid, vg, seed=7, jmax=2), 1e-2)
    assert np.abs(st.eta.data).max() > 0
    n = dim
    phase = 2 * np.pi / grid.box_len

    def angle(pts):
        return phase * (pts[..., 0] + (pts[..., 1] if dim == 3 else 0.0))

    def vec(pts):
        return np.stack([np.cos(angle(pts) + i) for i in range(n)])

    def mat(pts):
        return np.stack([np.stack([np.sin(angle(pts) + i + 2 * j) for j in range(n)])
                         for i in range(n)])

    def heat(pts):
        return np.cos(angle(pts) - 0.5) * pts[..., -1]

    amp = 1e-3
    unforced = nonlinear_residual(st, ForcingData(), p, c)
    for forcing in (ForcingData(f=vec), ForcingData(t=mat), ForcingData(h=heat)):
        forcing.amplitude = amp
        moved = nonlinear_residual(st, forcing, p, c).axpy(-1.0, unforced)
        assert ydata_norm(moved) > 0
    # the heat flux moves the m slot alone, by its samples at b + eta
    surf = np.concatenate([grid.phys_points(),
                           (vg.depth + to_phys(st.eta.data, grid)[0])[..., None]], axis=-1)
    expect = dealias(to_coeff(-amp * heat(surf)[None], grid), grid)
    assert np.abs(moved.m.data - expect).max() <= 1e-14 * np.abs(unforced.m.data).max()
    for part in moved.parts()[:-1]:
        assert np.abs(part.data).max() == 0.0


def test_unknown_preset():
    with pytest.raises(ConfigError):
        make_forcing_preset("volcano", 1e-3, GRID, 1.0)


def test_picard_zero_forcing(inverter):
    tr = picard_solve(ForcingData(), P1, C_SMOOTH, GRID, VG,
                      inverter=inverter)
    assert tr.converged
    assert tr.iterations == 0
    assert state_norm(tr.state) == 0.0


def test_picard_heat_driven(table, inverter):
    amp = 1e-3
    forcing = make_forcing_preset("heat-only", amp, GRID, 1.0, mode_index=3)
    tr = picard_solve(forcing, P1, C_SMOOTH, GRID, VG,
                      inverter=inverter)
    assert tr.converged
    assert tr.residuals[-1] <= 1e-9
    assert max(tr.contraction) <= 0.5
    # the wave is real and its surface amplitude matches the linear response
    linear_amp = abs(np.conj(table.y[3, 2, -1]) * (amp / 2) / table.rho[3])
    got = abs(tr.state.eta.data[0, 3])
    assert got == pytest.approx(linear_amp, rel=1e-3)
    assert got > 0


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt:RuntimeWarning")
def test_picard_names_the_first_nonfinite_slot():
    # a heat-flux source finite at rest (x_n = b) and NaN above it: the first
    # update raises the surface somewhere, so the second residual's heat-flux
    # slot m is NaN, and the solve stops there, naming it
    grid, vg = FrequencyGrid(1, 2 * np.pi * 10, 32), VerticalGrid(1.0, 16)
    forcing = ForcingData(h=lambda pts: np.cos(0.3 * pts[..., 0])
                          + np.sqrt(vg.depth - pts[..., -1]), amplitude=1e-3)
    with pytest.raises(Diverged, match=r"^residual nan at iteration 1, first not finite "
                                       r"in slot m$") as raised:
        picard_solve(forcing, P1, C_SMOOTH, grid, vg)
    trace = raised.value.trace
    assert len(trace.residuals) == 2 and np.isfinite(trace.residuals[0])
    assert np.isnan(trace.residuals[1]) and trace.iterations == 1


def test_picard_amplitude_scaling(inverter):
    # final state norm halves to within O(amplitude^2) when forcing halves
    forcing_a = make_forcing_preset("heat-only", 1e-3, GRID, 1.0)
    forcing_b = make_forcing_preset("heat-only", 5e-4, GRID, 1.0)
    tr_a = picard_solve(forcing_a, P1, C_SMOOTH, GRID, VG,
                        inverter=inverter)
    tr_b = picard_solve(forcing_b, P1, C_SMOOTH, GRID, VG,
                        inverter=inverter)
    na, nb = state_norm(tr_a.state), state_norm(tr_b.state)
    assert abs(na - 2 * nb) <= 50.0 * na * na


def test_picard_contraction_scales_with_amplitude():
    # the small-data fixed-point argument: the first contraction factor is
    # O(amplitude), with an O(1) ratio (0.168 and 0.170 here) across two
    # decades of amplitude
    grid, vg = FrequencyGrid(1, 2 * np.pi * 10, 64), VerticalGrid(1.0, 32)
    inv = LinearInverter(SymbolTable(grid, vg, P1))
    ratios = []
    for amp in (1e-3, 1e-1):
        forcing = make_forcing_preset("mixed", amp, grid, 1.0, mode_index=3)
        tr = picard_solve(forcing, P1, C_SMOOTH, grid, vg, inverter=inv)
        assert tr.converged
        ratios.append(tr.contraction[0] / tr.amplitude_used)
    assert max(ratios) <= 1.5 * min(ratios)


def test_picard_translation_symmetry(inverter):
    # shifting the forcing shifts the solution by the same phase
    amp, j0 = 1e-3, 3
    xi0 = j0 / GRID.box_len
    shift = GRID.box_len / 8

    forcing = make_forcing_preset("heat-only", amp, GRID, 1.0, mode_index=j0)
    shifted = ForcingData(
        h=lambda pts: np.cos(2 * np.pi * xi0 * (pts[..., 0] - shift)),
        amplitude=amp)
    tr = picard_solve(forcing, P1, C_SMOOTH, GRID, VG,
                      inverter=inverter)
    tr_s = picard_solve(shifted, P1, C_SMOOTH, GRID, VG,
                        inverter=inverter)
    xi = GRID.xi_axes[0]
    phase = np.exp(-2j * np.pi * xi * shift)
    moved = tr.state.copy()
    moved.u.data *= phase[None, :, None]
    moved.psi.data *= phase[None, :, None]
    moved.pres.data *= phase[None, :, None]
    moved.eta.data *= phase[None, :]
    moved.axpy(-1.0, tr_s.state)
    assert state_norm(moved) <= 1e-9 + 1e-6 * state_norm(tr.state)


def test_picard_reflection_symmetry():
    # gamma -> -gamma with reflected forcing gives the reflected solution
    amp, j0 = 1e-3, 3
    p_minus = PhysicalParams(1, 1, 1, 1, -1, 1, 0.1, 2)
    forcing = make_forcing_preset("heat-only", amp, GRID, 1.0, mode_index=j0)
    tr_plus = picard_solve(forcing, P1, C_SMOOTH, GRID, VG)
    tr_minus = picard_solve(forcing, p_minus, C_SMOOTH, GRID, VG)
    # reflection x1 -> -x1 conjugates coefficients (cosine forcing is even)
    for fplus, fminus, sgn in (
        (tr_plus.state.eta, tr_minus.state.eta, 1.0),
        (tr_plus.state.psi, tr_minus.state.psi, 1.0),
        (tr_plus.state.pres, tr_minus.state.pres, 1.0),
    ):
        refl = np.conj(fplus.data)
        assert np.abs(refl - fminus.data).max() <= 1e-9
    # horizontal velocity flips sign under reflection, vertical does not
    assert np.abs(-np.conj(tr_plus.state.u.data[0]) - tr_minus.state.u.data[0]).max() <= 1e-9
    assert np.abs(np.conj(tr_plus.state.u.data[1]) - tr_minus.state.u.data[1]).max() <= 1e-9


def test_amplitude_cap_heuristic():
    assert suggested_amplitude_cap(P1) == pytest.approx(1e-3)
    p = PhysicalParams(0.5, 2.0, 1, 0.25, 1, 1, 0.1, 2)
    assert suggested_amplitude_cap(p) == pytest.approx(1e-3 * 0.25)


def test_pushforward_flat_identity(table, inverter):
    st = make_random_state(GRID, VG, seed=2, jmax=4)
    st.eta.data[:] = 0.0
    pts = np.stack([np.linspace(0, GRID.box_len, 9, endpoint=False),
                    np.full(9, 0.375)], axis=-1)
    out = pushforward_eulerian(st, pts)
    # with a flat surface this is plain evaluation of the flattened fields
    prof = np.array([VG.interpolate(st.psi.data[0, k, :], 0.375)
                     for k in range(GRID.freq_shape[0])])
    expect = lattice_sum(prof, GRID, pts[:, :1])
    assert np.abs(out["temperature"] - expect).max() < 1e-10


def test_pushforward_vertical_stretch():
    # constant-in-x' profile maps to itself with stretched vertical coordinate
    st = LinearState.zeros(GRID, VG)
    st.eta.data[0, 0] = 0.25
    st.psi.data[0, 0, :] = np.sin(2.0 * VG.nodes)
    yn = 0.8
    pts = np.array([[1.0, yn], [3.0, yn]])
    out = pushforward_eulerian(st, pts)
    xn = yn * 1.0 / 1.25
    assert np.abs(out["temperature"] - np.sin(2.0 * xn)).max() < 1e-12


def test_pushforward_rejects_outside():
    st = LinearState.zeros(GRID, VG)
    with pytest.raises(PointOutsideDomain):
        pushforward_eulerian(st, np.array([[0.0, 1.5]]))
    st.eta.data[0, 0] = -1.5        # b + eta < 0: no fluid to sample
    with pytest.raises(PointOutsideDomain):
        eulerian_grid_samples(st, nx=4, nlevel=2)


@pytest.mark.parametrize("points", [np.array([[0.5], [0.7]]), np.zeros((2, 3)),
                                    np.array([0.5, 0.7]), np.array([[np.inf, 0.5]])],
                         ids=["no-height", "extra-column", "1d", "inf"])
def test_pushforward_rejects_malformed_points(points):
    st = LinearState.zeros(GRID, VG)
    with pytest.raises(ValueError, match=r"\(npts, 2\)"):
        pushforward_eulerian(st, points)


def test_pushforward_pullback_roundtrip(inverter):
    # push forward, then pull values back through the flattening map
    amp = 1e-3
    forcing = make_forcing_preset("heat-only", amp, GRID, 1.0)
    tr = picard_solve(forcing, P1, C_SMOOTH, GRID, VG,
                      inverter=inverter)
    st = tr.state
    xs = np.linspace(0, GRID.box_len, 11, endpoint=False)
    eta_at = lattice_sum(st.eta.data[0], GRID, xs[:, None])
    frac = 0.6
    pts = np.stack([xs, frac * (1.0 + eta_at)], axis=-1)
    out = pushforward_eulerian(st, pts)
    # pullback: the flattened temperature at x_n = frac * b
    prof = np.array([VG.interpolate(st.psi.data[0, k, :], frac * VG.depth)
                     for k in range(GRID.freq_shape[0])])
    expect = lattice_sum(prof, GRID, xs[:, None])
    assert np.abs(out["temperature"] - expect).max() < 1e-8


def test_eulerian_grid_sampler(table, inverter):
    st = make_random_state(GRID, VG, seed=6, jmax=3, eta_scale=0.1)
    out = eulerian_grid_samples(st, nx=8, nlevel=3)
    assert out["points"].shape[0] == 24
    assert out["velocity"].shape == (2, 24)

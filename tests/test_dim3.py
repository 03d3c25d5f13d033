"""Three-dimensional (two horizontal directions) end-to-end coverage."""

import json

import numpy as np
import pytest

from oracles import traced_peak
from stripwave.cli import main
from stripwave.errors import IllConditionedCollocation
from stripwave.fields import read_field_csv
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearState, LinearInverter,
                              apply_linear_operator, make_random_state,
                              state_norm)
from stripwave.nonlinear import (ForcingData, eulerian_grid_samples,
                                 make_forcing_preset, nonlinear_residual,
                                 picard_solve, pushforward_eulerian)
from stripwave.norms import ydata_norm
from stripwave.odesystem import FrequencyStack, SymbolTable
from stripwave.ops import to_phys
from stripwave.params import PhysicalParams, make_constitutive

P3 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1, sigma0=1,
                    sigma1=0.1, dim=3)
GRID = FrequencyGrid(2, 2 * np.pi * 3, 24)
VG = VerticalGrid(1.0, 28)
C3 = make_constitutive(P3, visc="tempdep", heat="tempdep", sigma="smooth")
C3_LINEAR = make_constitutive(P3, visc="newtonian", heat="fourier", sigma="linear")


@pytest.fixture(scope="module")
def setup3():
    table = SymbolTable.build(GRID, VG, P3)
    return table, LinearInverter(table)


def test_residual_zero_3d():
    st = LinearState.zeros(GRID, VG)
    r = nonlinear_residual(st, ForcingData(), P3, C3)
    assert ydata_norm(r) == 0.0


@pytest.mark.parametrize("c", [C3, C3_LINEAR], ids=["tempdep", "linear"])
def test_derivative_matches_linear_operator_3d(c):
    st = make_random_state(GRID, VG, seed=1, jmax=3, eta_scale=0.4)
    lin = apply_linear_operator(st, P3)
    denom = ydata_norm(lin)
    errs = []
    for eps in (1e-3, 1e-4):
        scaled = st.copy()
        for f in (scaled.u, scaled.psi, scaled.pres):
            f.data *= eps
        scaled.eta.data *= eps
        r = nonlinear_residual(scaled, ForcingData(), P3, c)
        for part in r.parts():
            part.data *= 1.0 / eps
        r.axpy(-1.0, lin)
        errs.append(ydata_norm(r) / denom)
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.15)


def test_heat_driven_wave_3d(setup3):
    _, inv = setup3
    forcing = make_forcing_preset("heat-only", 1e-3, GRID, P3.depth,
                                  mode_index=2)
    trace = picard_solve(forcing, P3, C3, GRID, VG, inverter=inv)
    assert trace.converged
    assert trace.residuals[-1] <= 1e-9
    st = trace.state
    assert st.eta.hermitian_defect() < 1e-11
    assert abs(st.eta.data[0, 2, 0]) > 0
    # transverse-velocity machinery engaged: both horizontal components live
    assert np.abs(st.u.data[0]).max() > 0
    assert max(np.abs(st.u.data[..., 0]).max(), np.abs(st.psi.data[..., 0]).max()) < 1e-12


def test_oblique_forcing_3d(setup3):
    # forcing with diagonal wavevector exercises the longitudinal/transverse
    # split off the coordinate axes
    _, inv = setup3
    xi0 = 2 / GRID.box_len

    def heat(pts):
        return np.cos(2 * np.pi * xi0 * (pts[..., 0] + pts[..., 1]))

    forcing = ForcingData(h=heat, amplitude=1e-3)
    trace = picard_solve(forcing, P3, C3, GRID, VG, inverter=inv)
    assert trace.converged
    assert abs(trace.state.eta.data[0, 2, 2]) > 0
    back = nonlinear_residual(trace.state, forcing, P3, C3)
    assert ydata_norm(back) <= 1e-9


def _oblique_forcing(j, box_len, amplitude):
    # f along x_1 with a Gaussian depth profile, a normal-normal stress and
    # a sine heat flux, all at the wavevector j
    def phase(pts):
        return 2 * np.pi * (j[0] * pts[..., 0] + j[1] * pts[..., 1]) / box_len

    def force(pts):
        out = np.zeros((3,) + pts.shape[:-1])
        out[0] = np.cos(phase(pts)) * np.exp(-((pts[..., -1] - 0.5) / 0.25) ** 2)
        return out

    def stress(pts):
        out = np.zeros((3, 3) + pts.shape[:-1])
        out[2, 2] = np.cos(phase(pts))
        return out

    return ForcingData(f=force, t=stress, h=lambda pts: np.sin(phase(pts)),
                       amplitude=amplitude)


# at modes 16 the products reach beyond the 2/3 cutoff: the l slot cuts a
# fixed 2.6e-10 while the residual falls to 5.7e-11, so the warnings flag a
# coarse grid, not roundoff, and are expected here
@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_mirror_in_x2_3d():
    # the forcings at (2, 1) and (2, -1) are mirrors under x_2 -> -x_2, and
    # the transport acts along x_1 alone, so their solutions are mirrors
    # (k2 -> -k2) with u_2 negated; u_2 is nonzero, so the transverse solve
    # runs inside the Picard iteration
    grid, vg = FrequencyGrid(2, 6 * np.pi, 16), VerticalGrid(1.0, 24)
    states = []
    for j in ((2, 1), (2, -1)):
        inv = LinearInverter(SymbolTable(grid, vg, P3))
        trace = picard_solve(_oblique_forcing(j, grid.box_len, 1e-3), P3, C3, grid, vg,
                             inverter=inv)
        assert trace.converged
        states.append(trace.state)
    plus, minus = states
    assert np.abs(plus.u.data[1]).max() > 0
    for a, b in zip(plus.parts(), minus.parts()):
        mirror = np.roll(np.flip(a.data, axis=2), 1, axis=2)
        if a is plus.u:
            mirror[1] *= -1
        assert np.abs(mirror - b.data).max() <= 1e-13 * np.abs(b.data).max()


def test_eulerian_sampler_3d(setup3):
    table, inv = setup3
    st = make_random_state(GRID, VG, seed=3, jmax=2, eta_scale=0.05)
    out = eulerian_grid_samples(st, nx=4, nlevel=2)
    assert out["points"].shape == (32, 3)
    assert out["velocity"].shape == (3, 32)
    assert np.isfinite(out["velocity"]).all()


def test_pushforward_matches_direct_sum_3d():
    grid = FrequencyGrid(2, 2 * np.pi * 3, 8)
    vg = VerticalGrid(1.0, 12)
    st = make_random_state(grid, vg, seed=5, jmax=2, eta_scale=0.05)
    # the whole lattice, Nyquist at +modes/2, and the coefficients on it of
    # the real fields the stored halves stand for
    j = np.fft.fftfreq(grid.modes, 1.0 / grid.modes)
    j[grid.modes // 2] = grid.modes // 2
    xi = np.stack(np.meshgrid(j, j, indexing="ij"), axis=-1).reshape(-1, 2) / grid.box_len

    def whole(data):
        return np.fft.fftn(to_phys(data, grid), axes=(1, 2)) / grid.modes ** 2
    xp = np.random.default_rng(0).uniform(0, grid.box_len, size=(4, 2))
    xp = np.concatenate([xp, xp[:2]])       # repeated horizontal points
    points, expect = [], {"eta": [], "velocity": [], "temperature": [],
                          "pressure": []}
    for x, frac in zip(xp, (0.1, 0.5, 0.9, 0.3, 0.6, 0.95)):
        e = np.array([np.exp(2j * np.pi * (x[0] * k[0] + x[1] * k[1])) for k in xi])
        eta = np.real(np.sum(whole(st.eta.data)[0].ravel() * e))
        yn = frac * (vg.depth + eta)
        w = vg.interp_weights(yn * vg.depth / (vg.depth + eta))
        points.append([x[0], x[1], yn])
        expect["eta"].append(eta)
        for name, data in (("velocity", st.u.data), ("temperature", st.psi.data),
                           ("pressure", st.pres.data)):
            coeffs = whole(data).reshape(data.shape[0], -1, vg.count)
            expect[name].append([np.real(np.sum(coeffs[c] * e[:, None] * w[None, :]))
                                 for c in range(coeffs.shape[0])])
    out = pushforward_eulerian(st, np.array(points))
    for name, vals in expect.items():
        vals = np.array(vals).T
        vals = vals[0] if name in ("temperature", "pressure") else vals
        assert np.abs(out[name] - vals).max() <= 1e-12 * np.abs(vals).max()


def test_invert_one_solve_per_pair_3d(monkeypatch):
    # modes 8: 64 lattice points, 4 self-paired (zero and the Nyquist
    # indices), so 30 +-xi pairs and 4 self-paired frequencies; the Nyquist
    # row (4, j) and (4, 8 - j) is one pair and must be solved once
    import stripwave.linear as linear
    grid = FrequencyGrid(2, 2 * np.pi, 8)
    vg = VerticalGrid(1.0, 16)
    inv = LinearInverter(SymbolTable.build(grid, vg, P3))
    prepared = []

    def counting(*args):
        prepared.append([tuple(np.round(xi, 12)) for xi in args[-1]])
        return FrequencyStack(*args)

    monkeypatch.setattr(linear, "FrequencyStack", counting)
    st = make_random_state(grid, vg, seed=2, jmax=2)
    data = apply_linear_operator(st, P3)
    out = inv.invert(data)
    inv.invert(data)                # warm: reuses the prepared frequencies
    # the 12 half-lattice frequencies that carry this state's data
    assert len(prepared) == 1 and len(prepared[0]) == len(set(prepared[0])) == 12
    back = apply_linear_operator(out, P3)
    back.axpy(-1.0, data)
    assert ydata_norm(back) / ydata_norm(data) < 1e-6
    # temperature forcing at every lattice point: prepared again, at all 34
    data.l.data[0] += 1.0
    inv.invert(data)
    assert len(prepared) == 2 and len(prepared[1]) == len(set(prepared[1])) == 34


def test_grid_samples_match_pushforward():
    # nx = 5 does not divide modes, so the horizontal points are off the grid
    grid = FrequencyGrid(2, 2 * np.pi * 3, 8)
    vg = VerticalGrid(1.0, 12)
    st = make_random_state(grid, vg, seed=4, jmax=2, eta_scale=0.05)
    out = eulerian_grid_samples(st, nx=5, nlevel=3)
    direct = pushforward_eulerian(st, out["points"])
    for name in ("eta", "velocity", "temperature", "pressure"):
        assert np.abs(out[name] - direct[name]).max() \
            <= 1e-12 * np.abs(direct[name]).max()


def test_grid_samples_peak_memory():
    # the lattice is summed one axis at a time: the 1024 x 4096 complex
    # table of all phases (64 MiB) would break the guard on its own
    grid = FrequencyGrid(2, 20 * np.pi, 64)
    vg = VerticalGrid(1.0, 16)
    st = make_random_state(grid, vg, seed=3, jmax=4, eta_scale=0.05)
    _, _, peak = traced_peak(eulerian_grid_samples, st)
    assert peak <= 40 * 2 ** 20


@pytest.mark.parametrize("points", [np.zeros((3, 2)), np.zeros((3, 4)), np.zeros(3),
                                    np.array([[1.0, 1.0, np.nan]])],
                         ids=["no-height", "extra-column", "1d", "nan"])
def test_pushforward_rejects_malformed_points_3d(points):
    st = LinearState.zeros(GRID, VG)
    with pytest.raises(ValueError, match=r"\(npts, 3\)"):
        pushforward_eulerian(st, points)


def test_inverter_cond_limit_reaches_transverse_systems(monkeypatch):
    # at a limit of 1e5 every stack member of this grid passes (matexp at
    # xi = 0 and two-sided elsewhere, with cond_1(K) below 40), while the
    # transverse systems' condition bound reaches about 1.26e5: the
    # inversion must stop there, and stop again when retried
    import stripwave.odesystem as ode
    monkeypatch.setattr(ode, "COND_LIMIT", 1e5)
    grid, vg = FrequencyGrid(2, 20 * np.pi, 16), VerticalGrid(1.0, 24)
    inv = LinearInverter(SymbolTable.build(grid, vg, P3))
    data = apply_linear_operator(make_random_state(grid, vg, seed=1), P3)
    for _ in range(2):
        with pytest.raises(IllConditionedCollocation, match="transverse system"):
            inv.invert(data)
    stack = FrequencyStack(P3, vg, -P3.gamma, P3.sigma1, 0.0, grid.xi_vectors[grid.half_mask])
    assert set(stack.backend) == {"matexp", "twosided"}
    assert stack.cond.max() < 40.0


# the wave-2d preset on a small lattice: x_2-free forcing, so the dim-3 solve
# is the dim-2 solve on the plane k2 = 0
WAVE = {"grid": {"box_len": 20 * np.pi, "modes": 16, "nz": 24},
        "closure": {"visc": "tempdep", "heat": "tempdep", "sigma": "smooth"},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 3}}


def _assert_dim3_reduces_to_dim2(fields2, fields3, residuals2, residuals3):
    """Every field of the dim-3 solve equals the dim-2 one at k2 = 0 to 1e-13
    of that field's largest value and is 0 at k2 != 0, u_2 is 0, and the
    residual norms are in the ratio sqrt(box_len) of the L^2 norms over one
    more horizontal period."""
    for name, f2 in fields2.items():
        f3 = fields3[name]
        # u is (u_1, u_3) in dim 2 and (u_1, u_2, u_3) in dim 3
        on_plane = f3[[0, 2], :, 0] if name == "u" else f3[:, :, 0]
        assert np.abs(on_plane - f2).max() <= 1e-13 * np.abs(f2).max(), name
        assert not f3[:, :, 1:].any(), name
    assert not fields3["u"][1].any()
    assert len(residuals3) == len(residuals2)
    ratio = np.array(residuals3) / np.array(residuals2)
    assert np.allclose(ratio, np.sqrt(WAVE["grid"]["box_len"]), rtol=1e-12, atol=0)


# 16 modes resolve the preset coarsely, so the residual warns of its tail
@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_x2_free_solve_reduces_to_dim2_cli(tmp_path):
    fields, residuals = {}, {}
    for dim in (2, 3):
        out = tmp_path / f"dim{dim}"
        cfg = tmp_path / f"dim{dim}.json"
        cfg.write_text(json.dumps({"mode": "nonlinear-solve", "out": str(out),
                                   "params": {"dim": dim}, **WAVE}))
        assert main(["--config", str(cfg)]) == 0
        fields[dim] = {name: read_field_csv(str(out / f"{name}.csv")).data
                       for name in ("u", "psi", "pres", "eta")}
        residuals[dim] = json.loads((out / "solve_trace.json").read_text())["residuals"]
    _assert_dim3_reduces_to_dim2(fields[2], fields[3], residuals[2], residuals[3])


# 16 modes resolve the preset coarsely, so the residual warns of its tail
@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_x2_free_solve_reduces_to_dim2_library():
    fields, residuals = {}, {}
    for dim in (2, 3):
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
        grid = FrequencyGrid(dim - 1, WAVE["grid"]["box_len"], WAVE["grid"]["modes"])
        vg = VerticalGrid(p.depth, WAVE["grid"]["nz"])
        forcing = make_forcing_preset("mixed", 1e-3, grid, p.depth, mode_index=3)
        trace = picard_solve(forcing, p, make_constitutive(p, **WAVE["closure"]), grid, vg)
        assert trace.converged
        st = trace.state
        fields[dim] = {"u": st.u.data, "psi": st.psi.data, "pres": st.pres.data,
                       "eta": st.eta.data}
        residuals[dim] = trace.residuals
    _assert_dim3_reduces_to_dim2(fields[2], fields[3], residuals[2], residuals[3])

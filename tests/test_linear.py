import re

import numpy as np
import pytest

from stripwave.errors import RhoVanishing
from stripwave.fields import SpectralField, SurfaceSpectral, YData, support
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearState, LinearInverter, apply_linear_operator,
                              make_random_state, solve_surface, state_norm)
from stripwave.norms import check_divergence_trace, sobolev_norm, ydata_norm
from stripwave.odesystem import SymbolTable
from stripwave.params import PhysicalParams

P1 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
GRID = FrequencyGrid(1, 2 * np.pi * 10, 64)
VG = VerticalGrid(1.0, 40)


@pytest.fixture(scope="module")
def table():
    return SymbolTable.build(GRID, VG, P1)


@pytest.fixture(scope="module")
def inverter(table):
    return LinearInverter(table)


def test_apply_zero():
    st = LinearState.zeros(GRID, VG)
    data = apply_linear_operator(st, P1)
    assert ydata_norm(data) == 0.0


def test_apply_eta_only_closed_form():
    st = LinearState.zeros(GRID, VG)
    st.eta.data[0, 2] = 0.4         # and 0.4 at -2, its mirror
    data = apply_linear_operator(st, P1)
    xi = GRID.xi_axes[0][2]
    tw = 2j * np.pi * xi
    # f = grav (grad' eta, 0), vertically constant
    assert np.abs(data.f.data[0, 2] - P1.grav * tw * 0.4).max() < 1e-13
    assert np.abs(data.f.data[1]).max() < 1e-13
    assert np.abs(data.g.data).max() == 0.0
    assert np.abs(data.l.data).max() == 0.0
    # k = (0, sigma0 lap' eta), h = gamma d1 eta, m = 0
    assert data.k.data[1, 2] == pytest.approx(P1.sigma0 * tw * tw * 0.4)
    assert np.abs(data.k.data[0]).max() < 1e-13
    assert data.h.data[0, 2] == pytest.approx(P1.gamma * tw * 0.4)
    assert np.abs(data.m.data).max() == 0.0


def test_apply_divergence_trace_bound():
    # the bound controls the (div u, u_n|top) pair, so drop the surface
    for seed in range(8):
        st = make_random_state(GRID, VG, seed=seed)
        st.eta.data[:] = 0.0
        data = apply_linear_operator(st, P1)
        rep = check_divergence_trace(data)
        bound = 2 * np.pi * np.sqrt(VG.depth) * sobolev_norm(st.u, 0)
        assert rep.residual_hneg1 <= bound * (1 + 1e-9)
        assert rep.zero_mode_abs < 1e-12


def test_apply_divergence_trace_finite_with_surface():
    # with the transport term the functional stays finite (mean-zero eta)
    st = make_random_state(GRID, VG, seed=3)
    data = apply_linear_operator(st, P1)
    rep = check_divergence_trace(data)
    assert np.isfinite(rep.residual_hneg1)
    assert rep.zero_mode_abs < 1e-12


def test_xi_of_zero_data(table):
    data = YData.zeros(GRID, VG)
    eta = solve_surface(data, table)
    assert np.abs(eta.data * table.rho).max() == 0.0


def test_xi_h_only(table):
    # h enters the pairing alone and unweighted: eta = h/rho there, 0 elsewhere
    data = YData.zeros(GRID, VG)
    data.h.data[0, 3] = 1.5 - 0.5j
    eta = solve_surface(data, table)
    assert eta.data[0, 3] == (1.5 - 0.5j) / table.rho[3]
    others = np.abs(eta.data[0] * table.rho)
    others[3] = 0.0
    assert others.max() == 0.0


def test_xi_vanishes_on_images_without_surface(table):
    # the compatibility pairing annihilates images of surface-free states
    st = make_random_state(GRID, VG, seed=42)
    st.eta.data[:] = 0.0
    data = apply_linear_operator(st, P1)
    eta = solve_surface(data, table)
    assert np.abs(eta.data * table.rho).max() < 1e-10 * ydata_norm(data)


def test_solve_surface_trivial_and_unit(table):
    eta = solve_surface(YData.zeros(GRID, VG), table)
    assert np.abs(eta.data).max() == 0.0

    # h = rho pairs to rho, so eta is 1 off the zero mode
    data = YData.zeros(GRID, VG)
    data.h.data[0] = table.rho
    zero = (0,) * GRID.dim_h
    eta = solve_surface(data, table)
    expect = np.ones(GRID.freq_shape, dtype=complex)
    expect[zero] = 0.0
    assert np.abs(eta.data[0] - expect).max() < 1e-12


def test_solve_surface_realness(table):
    st = make_random_state(GRID, VG, seed=17)
    data = apply_linear_operator(st, P1)
    eta = solve_surface(data, table)
    assert eta.hermitian_defect() < 1e-10


def test_solve_surface_rho_floor(table):
    import copy
    broken = copy.copy(table)
    broken.rho = table.rho.copy()
    broken.rho[5] = 0.0
    with pytest.raises(RhoVanishing):
        solve_surface(YData.zeros(GRID, VG), broken)


def test_solve_surface_extends_a_partial_table(table):
    # the table knows |j| <= 2 only: the surface stage solves it where the
    # data reaches (|j| <= 8 here) before it pairs, so the eta there is a
    # built table's bit for bit, and zero beyond
    partial = SymbolTable(GRID, VG, P1).solve(np.abs(GRID.xi_axes[0]) < 2.5 / GRID.box_len)
    assert not partial.solved[3]
    data = apply_linear_operator(make_random_state(GRID, VG, seed=17), P1)
    eta, expect = solve_surface(data, partial).data[0], solve_surface(data, table).data[0]
    live = support(data)
    assert eta[live].tobytes() == expect[live].tobytes() and not eta[~live].any()
    assert partial.solved[3] and eta[3] != 0


def test_invert_zero(inverter):
    data = YData.zeros(GRID, VG)
    st = inverter.invert(data)
    assert state_norm(st) == 0.0


def test_roundtrip_both_ways(inverter):
    for seed in (1, 2):
        st = make_random_state(GRID, VG, seed=seed)
        data = apply_linear_operator(st, P1)
        st2 = inverter.invert(data)
        diff = st2.copy()
        diff.axpy(-1.0, st)
        assert state_norm(diff) / state_norm(st) < 1e-6
        back = apply_linear_operator(st2, P1)
        back.axpy(-1.0, data)
        assert ydata_norm(back) / ydata_norm(data) < 1e-6


def test_invert_heat_only_formula(table, inverter):
    # single-mode heat data: the surface is conj(delta(b)) m / rho there
    data = YData.zeros(GRID, VG)
    data.m.data[0, 4] = 0.7         # and 0.7 at -4, its mirror
    st = inverter.invert(data)
    expect = np.conj(table.y[4, 2, -1]) * 0.7 / table.rho[4]
    assert st.eta.data[0, 4] == pytest.approx(expect, rel=1e-12)
    assert np.abs(st.eta.data[0, 4]) > 0
    # the recovered state reproduces the data, h included (never imposed)
    back = apply_linear_operator(st, P1)
    back.axpy(-1.0, data)
    assert ydata_norm(back) / ydata_norm(data) < 1e-8


def test_invert_linearity(inverter):
    d1 = apply_linear_operator(make_random_state(GRID, VG, seed=5), P1)
    d2 = apply_linear_operator(make_random_state(GRID, VG, seed=6), P1)
    x1 = inverter.invert(d1)
    x2 = inverter.invert(d2)
    combo = d1.copy()
    for part in combo.parts():
        part.data *= 0.7
    combo.axpy(-1.3, d2)
    xc = inverter.invert(combo)
    expect = x1.copy()
    expect.u.data *= 0.7
    expect.psi.data *= 0.7
    expect.pres.data *= 0.7
    expect.eta.data *= 0.7
    expect.axpy(-1.3, x2)
    expect.axpy(-1.0, xc)
    assert state_norm(expect) < 1e-10 * state_norm(x1)


def test_invert_realness(inverter):
    st = make_random_state(GRID, VG, seed=9)
    data = apply_linear_operator(st, P1)
    out = inverter.invert(data)
    assert out.u.hermitian_defect() < 1e-10
    assert out.psi.hermitian_defect() < 1e-10
    assert out.pres.hermitian_defect() < 1e-10
    assert out.eta.hermitian_defect() < 1e-10


def test_bottom_traces_of_inverse(inverter):
    data = apply_linear_operator(make_random_state(GRID, VG, seed=12), P1)
    st = inverter.invert(data)
    # u and psi vanish on the bottom
    assert max(np.abs(st.u.data[..., 0]).max(), np.abs(st.psi.data[..., 0]).max()) < 1e-10


@pytest.mark.parametrize("seed,fresh", [(3, False), (8, True)],
                         ids=["cached", "fresh"])
def test_invert_data_misfit(table, inverter, seed, fresh):
    # a cached inverter and one built on the spot reproduce the data
    data = apply_linear_operator(make_random_state(GRID, VG, seed=seed), P1)
    st = (LinearInverter(table) if fresh else inverter).invert(data)
    back = apply_linear_operator(st, P1)
    back.axpy(-1.0, data)
    assert ydata_norm(back) / ydata_norm(data) < 1e-6


@pytest.mark.parametrize("grid,vgrid", [
    (FrequencyGrid(1, 2 * np.pi * 5, 16), VerticalGrid(1.0, 16)),
    (FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(1.0, 20)),
    (FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(2.0, 16)),
], ids=["box", "nz", "depth"])
def test_invert_rejects_data_on_another_grid(grid, vgrid):
    # a 20 pi table used to invert data on a 10 pi box without complaint, to a
    # data misfit of 0.16 (0.012 for the same state on its own grid), the
    # surface stage alone paired data on another box and depth 0.107 off the
    # right pairing, and divided a pairing by the rho of a table at another
    # depth, an eta 0.22 off.  The inverse and the surface stage refuse a
    # table on another lattice or vertical grid, naming both
    table = SymbolTable.build(FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(1.0, 16), P1)
    data = apply_linear_operator(make_random_state(grid, vgrid, seed=1), P1)
    with pytest.raises(ValueError, match="symbol table"):
        LinearInverter(table).invert(data)
    with pytest.raises(ValueError, match=re.escape(f"data on {grid}, {vgrid}; the symbol table "
                                                   f"is built for {table.grid}, {table.vgrid}")):
        solve_surface(data, table)


def test_inverse_reads_the_data_on_the_half_lattice_alone():
    # noise at every entry off grid.half_mask, each part's: the pairing and
    # every part of the inverse are bit for bit those of the clean data, and
    # eta is exactly Hermitian (an inverse that read those entries gave eta a
    # Hermitian defect of 43 here)
    p3 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 3)
    grid, vg = FrequencyGrid(2, 2 * np.pi * 3, 16), VerticalGrid(1.0, 20)
    table = SymbolTable.build(grid, vg, p3)
    clean = apply_linear_operator(make_random_state(grid, vg, seed=4, jmax=3), p3)
    noisy = clean.copy()
    rng = np.random.default_rng(8)
    for part in noisy.parts():
        shape = part.data[:, ~grid.half_mask].shape
        part.data[:, ~grid.half_mask] += rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out, expect = LinearInverter(table).invert(noisy), LinearInverter(table).invert(clean)
    for part, ref in zip(out.parts(), expect.parts()):
        assert part.data.tobytes() == ref.data.tobytes()
    assert out.eta.hermitian_defect() == 0.0 and np.abs(out.eta.data).max() > 0
    assert (solve_surface(noisy, table).data.tobytes()
            == solve_surface(clean, table).data.tobytes())


def test_roundtrip_dim3():
    p3 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 3)
    grid = FrequencyGrid(2, 2 * np.pi * 3, 16)
    vg = VerticalGrid(1.0, 28)
    table3 = SymbolTable.build(grid, vg, p3)
    inv = LinearInverter(table3)
    st = make_random_state(grid, vg, seed=4, jmax=3)
    data = apply_linear_operator(st, p3)
    st2 = inv.invert(data)
    diff = st2.copy()
    diff.axpy(-1.0, st)
    assert state_norm(diff) / state_norm(st) < 1e-6
    back = apply_linear_operator(st2, p3)
    back.axpy(-1.0, data)
    assert ydata_norm(back) / ydata_norm(data) < 1e-6


@pytest.mark.parametrize("dim,nz,gamma,sigma1,mu,kappa", [
    (2, 16, 1.0, 0.1, 1.0, 1.0),
    (2, 48, -1.0, -0.2, 2.0, 0.5),
    (3, 24, -0.5, 0.3, 1.0, 1.0),
    (3, 40, 1.0, -0.1, 0.5, 2.0),
])
def test_roundtrip_zero_mode(dim, nz, gamma, sigma1, mu, kappa):
    # u, psi and pres are smooth real profiles at xi = 0 only
    p = PhysicalParams(mu, kappa, 1.0, 1.0, gamma, 1.0, sigma1, dim)
    grid = FrequencyGrid(dim - 1, 2 * np.pi, 8)
    vg = VerticalGrid(1.0, nz)
    rng = np.random.default_rng(nz)
    z = vg.nodes / vg.depth
    sines = np.stack([np.sin((k + 0.5) * np.pi * z) for k in range(4)])
    zero = (0,) * grid.dim_h
    st = LinearState.zeros(grid, vg)
    for j in range(dim):
        st.u.data[(j,) + zero] = rng.standard_normal(4) @ sines
    st.psi.data[(0,) + zero] = rng.standard_normal(4) @ sines
    st.pres.data[(0,) + zero] = rng.standard_normal(4) @ np.cos(np.outer(range(4), np.pi * z))
    data = apply_linear_operator(st, p)
    st2 = LinearInverter(SymbolTable.build(grid, vg, p)).invert(data)
    diff = st2.copy()
    diff.axpy(-1.0, st)
    assert state_norm(diff) / state_norm(st) <= 1e-12
    back = apply_linear_operator(st2, p)
    back.axpy(-1.0, data)
    assert ydata_norm(back) / ydata_norm(data) <= 1e-12


def _random_state_loop(grid, vgrid, seed, mode_decay=0.7, kmax=6, jmax=None,
                       eta_scale=1.0):
    """make_random_state as one scalar draw per amplitude (the reference),
    drawn onto the whole lattice and projected as a whole lattice:
    averaged with the conjugate at -xi, the Nyquist indices and the zero
    mode of eta zeroed, then cut to the stored half."""
    rng = np.random.default_rng(seed)
    if jmax is None:
        jmax = min(grid.modes // 4, 8)
    n = grid.dim_h + 1
    whole = (grid.modes,) * grid.dim_h
    u, psi, pres = (np.zeros((c,) + whole + (vgrid.count,), dtype=complex)
                    for c in (n, 1, 1))
    eta = np.zeros((1,) + whole, dtype=complex)
    z = vgrid.nodes / vgrid.depth
    basis0 = np.stack([np.sin((k + 0.5) * np.pi * z) for k in range(kmax)])
    basisf = np.stack([np.cos(k * np.pi * z) for k in range(kmax)])

    def modes_iter():
        if grid.dim_h == 1:
            for j in range(1, jmax + 1):
                yield (j,), j
        else:
            for j1 in range(0, jmax + 1):
                for j2 in range(-jmax, jmax + 1):
                    if j1 == 0 and j2 <= 0:
                        continue
                    yield (j1, j2 % grid.modes), np.hypot(j1, j2)

    def fill(arr, comps, basis):
        for c in range(comps):
            for idx, jm in modes_iter():
                for k in range(kmax):
                    amp = (rng.standard_normal() + 1j * rng.standard_normal())
                    amp *= np.exp(-mode_decay * jm - 0.5 * k)
                    arr[(c,) + idx] += amp * basis[k]

    fill(u, n, basis0)
    fill(psi, 1, basis0)
    fill(pres, 1, basisf)
    for idx, jm in modes_iter():
        eta[(0,) + idx] = eta_scale * np.exp(-mode_decay * jm) * (
            rng.standard_normal() + 1j * rng.standard_normal())
    parts = []
    for arr in (u, psi, pres, eta):
        mirror = arr
        for ax in range(1, 1 + grid.dim_h):
            mirror = np.flip(np.roll(mirror, -1, axis=ax), axis=ax)
        arr = 0.5 * (arr + np.conj(mirror))
        for ax in range(1, 1 + grid.dim_h):
            arr[(slice(None),) * ax + (grid.modes // 2,)] = 0.0
        parts.append(arr[:, :grid.modes // 2 + 1])
    parts[3][(0,) * (1 + grid.dim_h)] = 0.0
    return LinearState(SpectralField(grid, vgrid, parts[0]), SpectralField(grid, vgrid, parts[1]),
                       SpectralField(grid, vgrid, parts[2]), SurfaceSpectral(grid, parts[3]))


@pytest.mark.parametrize("dim_h,modes,nz,kwargs", [
    (1, 64, 24, {}), (1, 128, 20, {"jmax": 20, "eta_scale": 0.3}),
    (2, 32, 16, {}), (2, 16, 12, {"jmax": 3, "kmax": 4, "mode_decay": 0.4})])
@pytest.mark.parametrize("seed", [0, 5])
def test_random_state_bit_identical_to_loop(dim_h, modes, nz, kwargs, seed):
    grid = FrequencyGrid(dim_h, 7.0, modes)
    vg = VerticalGrid(1.0, nz)
    got = make_random_state(grid, vg, seed=seed, **kwargs)
    want = _random_state_loop(grid, vg, seed, **kwargs)
    for a, b in ((got.u, want.u), (got.psi, want.psi), (got.pres, want.pres),
                 (got.eta, want.eta)):
        assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


@pytest.mark.parametrize("dim", [2, 3])
def test_warm_path_builds_no_lattice_table(monkeypatch, dim):
    # the grid builds its xi and mask tables once: after a first inversion
    # the forward operator, a second inversion and both norms build none
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, 2 * np.pi * 3, 16), VerticalGrid(1.0, 24)
    inv = LinearInverter(SymbolTable(grid, vg, p))
    state = make_random_state(grid, vg, seed=4, jmax=3)
    data = apply_linear_operator(state, p)
    inv.invert(data)
    calls = []
    meshgrid = np.meshgrid
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: calls.append(1) or meshgrid(*a, **k))
    data = apply_linear_operator(state, p)
    back = inv.invert(data)
    state_norm(back), ydata_norm(data)
    assert len(calls) == 0


# state_norm of make_random_state as the whole-lattice code drew it, before
# the fields were stored on the half lattice: linear-deep's grid (dim 2, box
# 2.5 pi, modes 128, nz 80, jmax 20) at seeds 0-3, and a dim-3 grid
RANDOM_STATE_NORMS = [
    ((1, 2.5 * np.pi, 128, 80, 20), 0, 99.29418752619728),
    ((1, 2.5 * np.pi, 128, 80, 20), 1, 96.27968907204139),
    ((1, 2.5 * np.pi, 128, 80, 20), 2, 91.91984262653217),
    ((1, 2.5 * np.pi, 128, 80, 20), 3, 108.59717860867832),
    ((2, 6 * np.pi, 24, 28, None), 0, 1608.867426641998),
    ((2, 6 * np.pi, 24, 28, None), 5, 1535.7366345429234),
]


@pytest.mark.parametrize("grids, seed, expect", RANDOM_STATE_NORMS)
def test_random_state_norm_pinned(grids, seed, expect):
    dim_h, box, modes, nz, jmax = grids
    st = make_random_state(FrequencyGrid(dim_h, box, modes), VerticalGrid(1.0, nz),
                           seed=seed, jmax=jmax)
    assert state_norm(st) == pytest.approx(expect, rel=1e-12)

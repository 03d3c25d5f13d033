"""The batched per-frequency layer: a FrequencyStack solves K frequencies as
stacks and must agree with K single-frequency solves of the same solver."""

import math
import tracemalloc

import numpy as np
import pytest

from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearInverter, LinearState, apply_linear_operator,
                              make_random_state)
from stripwave.odesystem import (FrequencySolver, FrequencyStack, SymbolTable,
                                 assemble_boundary, assemble_bulk_matrix)
from stripwave.norms import ydata_norm
from stripwave.params import PhysicalParams


def _random_params(rng, dim):
    """Parameter set with gamma and sigma1 of either sign."""
    return PhysicalParams(mu=rng.uniform(0.5, 2.0), kappa=rng.uniform(0.5, 2.0),
                          grav=rng.uniform(0.5, 10.0), depth=rng.uniform(0.6, 1.4),
                          gamma=rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0),
                          sigma0=rng.uniform(0.2, 2.0),
                          sigma1=rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5),
                          dim=dim)


def _forcing(rng, k, nz, vg, depth):
    """Smooth z (rows 1, 3, 4, 5) and random d per frequency; every third
    frequency is left unforced in the bulk."""
    z = np.zeros((k, 6, nz), dtype=complex)
    for comp in (1, 3, 4, 5):
        for m in range(5):
            c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            z[:, comp] += (c * np.exp(-0.6 * m))[:, None] \
                * np.cos(m * np.pi * vg.nodes / depth)
    z[::3] = 0.0
    d = rng.standard_normal((k, 6)) + 1j * rng.standard_normal((k, 6))
    return z, d


def _assert_rows_agree(Y, singles, tol=1e-13):
    for Yk, (Ys, _, _) in zip(Y, singles):
        scale = np.abs(Ys).max(axis=1)
        assert np.all(np.abs(Yk - Ys).max(axis=1) <= tol * scale)


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
@pytest.mark.parametrize("forced", [False, True])
def test_stack_matches_single_solves(dim, seed, forced):
    rng = np.random.default_rng(seed)
    p = _random_params(rng, dim)
    nz = 16
    vg = VerticalGrid(p.depth, nz)
    # split 80: the matexp band reaches 2 pi |xi| b = 80, where cond(B)
    # exceeds its limit and those members fall back to collocation
    couplings = ((p.gamma, 0.0, p.sigma1), (-p.gamma, p.sigma1, 0.0))
    solver = FrequencySolver(p, vg, *couplings[seed % 2], split=80.0)
    k = 24
    scale = np.concatenate([rng.uniform(0.05, 30.0, k - 4),
                            [45.0, 60.0, 75.0, 90.0]])
    direction = rng.standard_normal((k, dim - 1))
    xis = direction / np.linalg.norm(direction, axis=1, keepdims=True) \
        * (scale / (2 * np.pi * p.depth))[:, None]
    z, d = _forcing(rng, k, nz, vg, p.depth)
    if not forced:
        z = None
    stack = solver.prepare(xis)
    Y = stack.solve(z, d)
    singles = [solver.solve(xi, None if z is None else z[i], d[i])
               for i, xi in enumerate(xis)]
    _assert_rows_agree(Y, singles)
    assert list(stack.backend) == [s[1] for s in singles]
    assert np.allclose(stack.cond, [s[2] for s in singles], rtol=1e-12)
    # three fallbacks inside the matexp band, one frequency beyond it
    assert list(stack.backend[-4:]) == ["collocation"] * 4


def test_stack_reuses_preparation_across_solves(monkeypatch):
    # the coefficients of the step exponentials are made with the stack and
    # those of the quadrature ones at its first solve with bulk forcing, for
    # every member at once
    import stripwave.odesystem as ode
    calls = []
    real = ode._member_coefficients

    def counting(prop, t):
        calls.append(len(prop))
        return real(prop, t)

    monkeypatch.setattr(ode, "_member_coefficients", counting)
    rng = np.random.default_rng(7)
    p = _random_params(rng, 2)
    vg = VerticalGrid(p.depth, 20)
    solver = FrequencySolver(p, vg, -p.gamma, p.sigma1, 0.0)
    xis = rng.uniform(-3.0, 3.0, (12, 1))
    stack = solver.prepare(xis)
    assert calls == [12, 12]            # B, then the step exponentials
    for trial in range(4):
        z, d = _forcing(rng, 12, vg.count, vg, p.depth)
        if trial < 2:
            z[::4] = 0.0                # no data at all: Y = 0
            d[::4] = 0.0
        if trial == 2:
            z[::3] = z[1]               # bulk forcing at new frequencies
        Y = stack.solve(z, d)
        assert calls == [12, 12, 12]    # the quadrature ones, at trial 0
        singles = [solver.solve(xi, z[i], d[i]) for i, xi in enumerate(xis)]
        del calls[3:]
        _assert_rows_agree(Y, singles)
        if trial < 2:
            assert np.abs(Y[::4]).max() == 0.0


@pytest.mark.parametrize("dim, nz", [(2, 48), (3, 24)])
def test_stack_quadrature_cache_is_bounded(dim, nz):
    # the cached quadrature is the weighted coefficients (k, Nz-1, 6, 8) and
    # each member's basis (k, 36, 6): at most k (48 (Nz-1) + 216) complex
    # numbers, against k (Nz-1) 288 for 6x6 exponentials per node
    rng = np.random.default_rng(dim)
    p = _random_params(rng, dim)
    vg = VerticalGrid(p.depth, nz)
    solver = FrequencySolver(p, vg, -p.gamma, p.sigma1, 0.0)
    xis = rng.uniform(-1.0, 1.0, (20, dim - 1))
    stack = solver.prepare(xis)
    assert stack.quad is None
    z, d = _forcing(rng, len(xis), nz, vg, p.depth)
    stack.solve(z, d)
    k = len(stack.members)
    assert k == len(xis)
    assert all(a.dtype == complex and a.flags.c_contiguous for a in stack.quad)
    assert sum(a.size for a in stack.quad) <= k * (48 * (nz - 1) + 216)


def test_cold_forced_solve_peak_memory(monkeypatch):
    # a cold preparation and first forced solve keeps the steps and the
    # quadrature cache (5.4 MB together at wave-2d's forced stack, 86
    # members at nz 48); the Taylor product writes the cache itself, and
    # neither the closed forms nor the contraction, in calls and blocks of
    # at most _EXP_CHUNK member-times, may add a temporary that grows with
    # members times intervals.  The second stack (nz 12, 2 pi |xi| b in
    # [10, 18]) sends 65% of its step and 26% of its quadrature member-times
    # to the closed forms, more than one call.  Every member marches: its
    # last 12 have cond_1(B) 1.0e12-1.4e12, so no cond_limit applies
    import stripwave.odesystem as ode
    calls = []
    for name in ("_stokes_forms", "_heat_forms"):
        def counting(scalars, t, real=getattr(ode, name)):
            calls.append(len(t))
            return real(scalars, t)
        monkeypatch.setattr(ode, name, counting)
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    for nz, xis in ((48, np.arange(86) / (20 * np.pi)),
                    (12, np.linspace(10.0, 18.0, 300) / (2 * np.pi))):
        vg = VerticalGrid(p.depth, nz)
        rng = np.random.default_rng(0)
        z, d = _forcing(rng, len(xis), vg.count, vg, p.depth)
        tracemalloc.start()
        try:
            stack = FrequencySolver(p, vg, -p.gamma, p.sigma1, 0.0,
                                    cond_limit=np.inf).prepare(xis[:, None])
            stack.solve(z, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stack.members) == len(xis)
        assert peak <= 14 * 2 ** 20
    assert max(calls) == ode._EXP_CHUNK        # a full call, and none larger


# the three benchmark grids: (dim, box_len, modes, nz)
BENCH_GRIDS = {
    "wave-2d": (2, 2 * math.pi * 10, 256, 48),
    "roundtrip-3d": (3, 2 * math.pi * 10, 32, 24),
    "linear-deep": (2, 2.5 * math.pi, 128, 80),
}
# SymbolTable.backend counts (matexp, twosided, collocation): xi = 0 in
# closed form (matexp), every other symbol two-sided
BENCH_BACKENDS = {"wave-2d": (1, 255, 0), "roundtrip-3d": (1, 1023, 0),
                  "linear-deep": (1, 127, 0)}


@pytest.mark.parametrize("name", sorted(BENCH_GRIDS))
def test_table_backend_at_bench_grids(name, monkeypatch):
    dim, box, modes, nz = BENCH_GRIDS[name]
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid = FrequencyGrid(dim - 1, box, modes)
    stacks = []
    real = FrequencyStack.__init__

    def spy(self, *args, **kwargs):
        stacks.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FrequencyStack, "__init__", spy)
    table = SymbolTable.build(grid, VerticalGrid(1.0, nz), p)
    assert stacks == []             # no symbol marches
    expect = np.where(grid.xi2 == 0, "matexp", "twosided").astype(object)
    assert np.array_equal(table.backend, expect)
    # over the whole lattice: a stored index stands for pair_weight points
    counts = tuple(int(((table.backend == b) * grid.pair_weight).sum())
                   for b in ("matexp", "twosided", "collocation"))
    assert counts == BENCH_BACKENDS[name]


def _counting(monkeypatch, name):
    """Record the calls of ``odesystem.<name>`` from now on."""
    import stripwave.odesystem as ode
    calls = []
    real = getattr(ode, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ode, name, counting)
    return calls


def test_inverter_makes_no_lu_at_linear_deep(monkeypatch):
    # linear-deep's job: its data reaches 2 pi |xi| b = 16, inside the
    # matexp band, so the 42 collocation members above split 30, which had
    # no data, are no longer factored (84 LUs); the table's 64 members at
    # xi != 0 are two-sided, with no LU either
    dim, box, modes, nz = BENCH_GRIDS["linear-deep"]
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, box, modes), VerticalGrid(1.0, nz)
    data = apply_linear_operator(make_random_state(grid, vg, seed=3, jmax=20), p)
    lus = _counting(monkeypatch, "lu_factor")
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    assert len(lus) == 0 and list(inv.table.backend[grid.half_mask]).count("twosided") == 64
    inv.invert(data)
    assert len(lus) == 0
    solved = list(inv.backend[grid.half_mask])
    assert solved.count("matexp") == 20 and solved.count(None) == 45


def test_linear_solve_makes_no_lu_at_linear_deep(tmp_path, monkeypatch):
    # linear-deep's job through the CLI: its data stops at |j| = 20
    # (2 pi |xi| b = 16) and has no mean, so its symbol table solves
    # j = 1 .. 20 only, all two-sided; as collocation members they would
    # make two LUs (Stokes and heat block) each
    import json
    from stripwave.cli import run
    from stripwave.config import RunConfig
    from stripwave.fields import write_ydata_csv
    dim, box, modes, nz = BENCH_GRIDS["linear-deep"]
    cfg = RunConfig.from_dict({
        "mode": "linear-solve", "out": str(tmp_path / "out"),
        "input": str(tmp_path / "ydata"), "params": {"dim": dim},
        "grid": {"box_len": box, "modes": modes, "nz": nz}})
    state = make_random_state(cfg.frequency_grid(), cfg.vertical_grid(),
                              seed=3, jmax=20)
    write_ydata_csv(str(tmp_path / "ydata"), apply_linear_operator(state, cfg.params()))
    lus = _counting(monkeypatch, "lu_factor")
    assert run(cfg) == 0
    assert len(lus) == 0
    summary = json.load(open(tmp_path / "out" / "manifest.json"))["summary"]
    assert summary["table_solved"] == {"matexp": 0, "twosided": 20, "collocation": 0}
    assert summary["inverter_solved"] == {"matexp": 20, "twosided": 0, "collocation": 0}


def _without_low_modes(state, jmin):
    """``state`` with every lattice mode of index magnitude below ``jmin``
    set to zero."""
    grid = state.grid
    low = np.ones(grid.freq_shape, dtype=bool)
    for ax, xi in enumerate(grid.xi_axes):
        j = np.rint(xi * grid.box_len)
        low &= np.abs(j.reshape((-1,) + (1,) * (grid.dim_h - 1 - ax))) < jmin
    for part in state.parts():
        part.data[:, low] = 0.0
    return state


@pytest.mark.parametrize("dim", [2, 3])
def test_inverter_prepares_again_at_the_union(dim, monkeypatch):
    # data on S1 (indices up to 2), then on S2 (2 to 4): the second inversion
    # prepares at the union and returns, bit for bit, what a fresh inverter
    # returns for S2, with exact zeros where S2 has no data
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, 2 * np.pi * 2, 16), VerticalGrid(1.0, 16)
    table = SymbolTable.build(grid, vg, p)
    data1 = apply_linear_operator(make_random_state(grid, vg, seed=1, jmax=2), p)
    data2 = apply_linear_operator(
        _without_low_modes(make_random_state(grid, vg, seed=2, jmax=4), 2), p)
    support = [np.any([np.abs(part.data).reshape(len(part.data), *grid.freq_shape, -1)
                       .max(axis=(0, -1)) > 0 for part in data.parts()], axis=0)
               for data in (data1, data2)]
    assert (support[0] & support[1]).any() and (support[1] & ~support[0]).any()
    inv = LinearInverter(table)
    prepared = []
    prepare = inv.solver.prepare

    def counting(xis, *args, **kwargs):
        prepared.append(len(xis))
        return prepare(xis, *args, **kwargs)

    inv.solver.prepare = counting
    inv.invert(data1)
    out = inv.invert(data2)
    half = grid.half_mask
    assert prepared == [(support[0] & half).sum(), ((support[0] | support[1]) & half).sum()]
    fresh = LinearInverter(table)
    expect = fresh.invert(data2)
    for part, ref in zip(out.parts(), expect.parts()):
        assert part.data.tobytes() == ref.data.tobytes()
        assert (part.data[(slice(None),) + np.nonzero(~support[1])] == 0).all()
    assert np.array_equal(inv.backend, fresh.backend)
    assert inv.cond.tobytes() == fresh.cond.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_invert_zero_data_makes_no_solve(dim, monkeypatch):
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, 2.5 * math.pi, 16), VerticalGrid(1.0, 16)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    data = apply_linear_operator(LinearState.zeros(grid, vg), p)
    exps = _counting(monkeypatch, "_member_coefficients")
    lus = _counting(monkeypatch, "lu_factor")
    out = inv.invert(data)
    assert exps == [] and lus == []
    assert all(np.abs(part.data).max() == 0.0 for part in out.parts())
    assert set(inv.backend.ravel()) == {None} and inv.cond.max() == 0.0


def _data_everywhere(data):
    """``data`` with a constant temperature forcing added at every lattice
    point, so that the inverter solves every frequency."""
    data.l.data[0] += 1.0
    return data


def test_inverter_backend_and_cond_match_single_solves():
    # the linear-deep lattice on a coarser vertical grid, with data at every
    # frequency: matexp below 2 pi |xi| b = 30, 15 fallbacks inside that
    # band, collocation above
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid = FrequencyGrid(1, 2.5 * math.pi, 128)
    vg = VerticalGrid(1.0, 24)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    assert inv.backend is None
    st = make_random_state(grid, vg, seed=3, jmax=20)
    inv.invert(_data_everywhere(apply_linear_operator(st, p)))
    assert inv.backend.shape == inv.cond.shape == grid.freq_shape
    z = np.ones((6, vg.count), dtype=complex)
    z[[0, 2]] = 0.0
    vecs = grid.xi_vectors
    for idx in np.ndindex(grid.freq_shape):
        _, used, cond = inv.solver.solve(vecs[idx], z, np.ones(6))
        assert inv.backend[idx] == used
        assert inv.cond[idx] == pytest.approx(cond, rel=1e-12)
    scale = 2 * np.pi * np.sqrt(grid.xi2)
    fallbacks = (inv.backend == "collocation") & (scale <= inv.solver.split)
    assert int(fallbacks[grid.half_mask].sum()) == 15


# LinearInverter.cond on the half lattice of the grid below (index order),
# measured when the inverter kept its collocation factorisations, with the
# matexp members' cond_1(B) (the first five); at xi = 0, cond_1(B) = 1
# since mu = kappa = 1
LIFETIME_COND = [1.0, 9.516480e3, 5.151365e6, 1.004727e9, 1.335769e11,
                 2.707794e5, 3.503076e5, 4.469473e5, 5.649699e5, 7.036378e5,
                 8.647102e5, 1.049932e6, 1.261102e6, 1.506056e6, 1.781545e6,
                 2.088663e6, 2.429065e6]


def test_collocation_factors_live_only_inside_a_solve(monkeypatch):
    # data at every frequency, 2 pi |xi| b = 4, 8, ..., 64: matexp up to 16,
    # three fallbacks inside the inverter's band (20, 24, 28) and collocation
    # above 30, so twelve collocation members; the table has sixteen
    # two-sided members (every xi != 0), and no LU
    import stripwave.odesystem as ode
    sizes = []
    real = ode.lu_factor

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(ode, "lu_factor", counting)
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid = FrequencyGrid(1, 0.5 * math.pi, 32)
    vg = VerticalGrid(1.0, 24)
    table = SymbolTable.build(grid, vg, p)
    assert len(sizes) == 0 and list(table.backend[grid.half_mask]).count("twosided") == 16
    inv = LinearInverter(table)
    data = _data_everywhere(apply_linear_operator(make_random_state(grid, vg, seed=1), p))
    records = []
    for _ in ("cold", "warm"):
        sizes.clear()
        inv.invert(data)
        # every inversion factors each member's Stokes and heat blocks anew
        assert len(sizes) == 24 and sorted(set(sizes)) == [2 * 24, 4 * 24]
        records.append((inv.backend.copy(), inv.cond.copy()))
    (b_cold, c_cold), (b_warm, c_warm) = records
    assert np.array_equal(b_cold, b_warm) and np.array_equal(c_cold, c_warm)
    half = grid.half_mask
    assert list(inv.backend[half]) == ["matexp"] * 5 + ["collocation"] * 12
    assert np.allclose(inv.cond[half], LIFETIME_COND, rtol=1e-6, atol=0.0)


def test_transverse_factored_once_per_frequency(monkeypatch):
    import stripwave.linear as linear
    p = PhysicalParams(1, 1, 1, 1, -1.0, 1, -0.2, 3)
    grid = FrequencyGrid(2, 2 * np.pi, 8)
    vg = VerticalGrid(1.0, 16)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    factored = []
    real = linear.transverse_factor

    def counting(xis, *args, **kwargs):
        factored.extend(tuple(np.round(xi, 12)) for xi in xis)
        return real(xis, *args, **kwargs)

    monkeypatch.setattr(linear, "transverse_factor", counting)
    for seed in (1, 2):
        st = make_random_state(grid, vg, seed=seed, jmax=2)
        data = apply_linear_operator(st, p)
        out = inv.invert(data)
        assert np.abs(out.u.data[0]).max() > 0
        back = apply_linear_operator(out, p)
        back.axpy(-1.0, data)
        assert ydata_norm(back) / ydata_norm(data) <= 1e-6
    assert factored and len(factored) == len(set(factored))


def _dense_collocation(solver, xi, z, d):
    """The whole 6Nz collocation system, assembled as kron(I6, D) - kron(A, I)
    with the boundary rows replaced, and its dense solution."""
    nz = solver.vgrid.count
    A = assemble_bulk_matrix(xi, solver.p, solver.gamma_tilde)
    _, Nmat = assemble_boundary(xi, solver.p, solver.alpha1, solver.alpha2)
    full = np.kron(np.eye(6), solver.vgrid.diff) - np.kron(A, np.eye(nz))
    bottom_rows = [c * nz for c in range(3)]
    top_rows = [(3 + r) * nz + nz - 1 for r in range(3)]
    for c, row in enumerate(bottom_rows):
        full[row] = 0.0
        full[row, c * nz] = 1.0
    for r, row in enumerate(top_rows):
        full[row] = 0.0
        full[row, nz - 1::nz] = Nmat[3 + r]
    rhs = z.reshape(-1).copy()
    rhs[bottom_rows + top_rows] = d
    return full, np.linalg.solve(full, rhs).reshape(6, nz)


@pytest.mark.parametrize("nz", [16, 24, 48])
@pytest.mark.parametrize("dim", [2, 3])
def test_collocation_blocks_match_dense_system(monkeypatch, dim, nz):
    # six parameter sets per case, 36 in all, each with the adjoint, the
    # forward and a two-sided coupling
    import stripwave.odesystem as ode
    sizes = []
    real = ode.lu_factor

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(ode, "lu_factor", recording)
    rng = np.random.default_rng(100 * dim + nz)
    for _ in range(6):
        p = _random_params(rng, dim)
        vg = VerticalGrid(p.depth, nz)
        for gt, a1, a2 in ((p.gamma, 0.0, p.sigma1), (-p.gamma, p.sigma1, 0.0),
                           (p.gamma, p.sigma1, p.sigma1)):
            solver = FrequencySolver(p, vg, gt, a1, a2, split=-1.0)
            direction = rng.standard_normal(dim - 1)
            for scale in (rng.uniform(0.05, 5.0), rng.uniform(5.0, 60.0)):
                xi = direction / np.linalg.norm(direction) \
                    * scale / (2 * np.pi * p.depth)
                z, d = _forcing(rng, 1, nz, vg, p.depth)
                Y, used, cond = solver.solve(xi, z[0], d[0])
                full, Yd = _dense_collocation(solver, xi, z[0], d[0])
                assert used == "collocation"
                peak = np.abs(Yd).max(axis=1)
                assert np.all(np.abs(Y - Yd).max(axis=1) <= 1e-10 * peak)
                assert 0.5 <= cond / np.linalg.cond(full, 1) <= 1.0 + 1e-9
    # every collocation solve factors the Stokes (4 Nz) and heat (2 Nz) blocks
    assert sizes and set(sizes) == {4 * nz, 2 * nz}
    assert sizes.count(4 * nz) == sizes.count(2 * nz)


@pytest.mark.parametrize("mode, frequencies", [("nonlinear-solve", 0), ("roundtrip-test", 144)])
def test_transverse_factors_only_where_transverse_data(tmp_path, monkeypatch, mode, frequencies):
    # box 20 pi, modes 32, nz 24: every symbol and stack member is matexp and
    # the transverse solves are diagonalized, so neither mode makes an LU.
    # Every forcing preset depends on x_1 alone, so the 3D nonlinear solve is
    # x_2-invariant, has no transverse forcing and hands no frequency to
    # transverse_factor; roundtrip-3d hands it each of the 144 half-lattice
    # frequencies of its states once
    import stripwave.linear as linear
    from stripwave.cli import run
    from stripwave.config import RunConfig
    counted = _counting(monkeypatch, "lu_factor")
    handed = []
    real = linear.transverse_factor

    def recording(xis, *args, **kwargs):
        handed.append(len(xis))
        return real(xis, *args, **kwargs)

    monkeypatch.setattr(linear, "transverse_factor", recording)
    assert run(RunConfig.from_dict({
        "mode": mode, "out": str(tmp_path / "out"), "params": {"dim": 3},
        "grid": {"box_len": 2 * math.pi * 10, "modes": 32, "nz": 24},
        "closure": {"visc": "tempdep", "heat": "tempdep", "sigma": "smooth"},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 3},
        "roundtrip": {"count": 12}, "seed": 3})) == 0
    assert len(counted) == 0
    assert sum(handed) == frequencies

"""The batched per-frequency layer: a FrequencyStack solves K frequencies as
stacks and must agree with K one-member stacks of the same problem."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import solve_collocation, solve_one
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearInverter, LinearState, apply_linear_operator,
                              make_random_state, state_norm)
from stripwave.odesystem import (_MIRROR, BACKENDS, FrequencyStack,
                                 SymbolTable, _Sweep, _gl_panels, _member_coefficients,
                                 _minus_rows, assemble_boundary,
                                 assemble_bulk_matrix)
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
    # at nz 16 the widest panel is 0.1045 b, so from 2 pi |xi| b near 29
    # a member's sweep splits each interval into subpanels
    couplings = ((p.gamma, 0.0, p.sigma1), (-p.gamma, p.sigma1, 0.0))
    coefs = couplings[seed % 2]
    k = 24
    scale = np.concatenate([rng.uniform(0.05, 30.0, k - 4),
                            [45.0, 60.0, 75.0, 90.0]])
    direction = rng.standard_normal((k, dim - 1))
    xis = direction / np.linalg.norm(direction, axis=1, keepdims=True) \
        * (scale / (2 * np.pi * p.depth))[:, None]
    z, d = _forcing(rng, k, nz, vg, p.depth)
    if not forced:
        z = None
    stack = FrequencyStack(p, vg, *coefs, xis)
    Y = stack.solve(z, d)
    singles = [solve_one(p, vg, coefs, xi, None if z is None else z[i], d[i])
               for i, xi in enumerate(xis)]
    _assert_rows_agree(Y, singles)
    assert list(stack.backend) == [s[1] for s in singles]
    assert np.allclose(stack.cond, [s[2] for s in singles], rtol=1e-12)
    # the last four lie beyond the panels' resolution, on sweeps of 2 to 4
    # subpanels per interval
    assert list(stack.backend[-4:]) == ["twosided"] * 4
    assert [s.r for s in stack.sweeps] == [1, 2, 3, 4]


def test_stack_reuses_preparation_across_solves(monkeypatch):
    # the dichotomy's halves at the nodes are made with the stack, and the
    # steps' halves and the quadrature's coefficients at its first solve
    # with bulk forcing, for every member at once: exp(tA) itself for the
    # members marched alone (max(m, |l|, |l_h|) b <= 1), the dichotomy for
    # the others
    import stripwave.odesystem as ode
    calls = []
    for name in ("_dichotomy", "_member_coefficients"):
        def counting(prop, *args, real=getattr(ode, name), name=name, **kwargs):
            calls.append((name, len(prop)))
            return real(prop, *args, **kwargs)

        monkeypatch.setattr(ode, name, counting)
    rng = np.random.default_rng(7)
    p = _random_params(rng, 2)
    vg = VerticalGrid(p.depth, 20)
    coefs = (-p.gamma, p.sigma1, 0.0)
    xis = rng.uniform(-3.0, 3.0, (12, 1))
    stack = FrequencyStack(p, vg, *coefs, xis)
    assert calls == [("_dichotomy", 12)]
    short = int(stack.short.sum())
    assert 0 < short < 12
    tables = [("_member_coefficients", short), ("_dichotomy", 12 - short),
              ("_member_coefficients", 12)]
    for trial in range(4):
        z, d = _forcing(rng, 12, vg.count, vg, p.depth)
        if trial < 2:
            z[::4] = 0.0                # no data at all: Y = 0
            d[::4] = 0.0
        if trial == 2:
            z[::3] = z[1]               # bulk forcing at new frequencies
        Y = stack.solve(z, d)
        # the steps and the quadrature, at trial 0
        assert calls == [("_dichotomy", 12)] + tables
        singles = [solve_one(p, vg, coefs, xi, z[i], d[i]) for i, xi in enumerate(xis)]
        del calls[4:]
        _assert_rows_agree(Y, singles)
        if trial < 2:
            assert np.abs(Y[::4]).max() == 0.0


@pytest.mark.parametrize("dim, nz", [(2, 48), (3, 24)])
def test_stack_quadrature_cache_is_bounded(dim, nz):
    # the cached quadrature is the weighted coefficients as real rows
    # [Re; Im] of the lower half of the mirror-symmetric panels,
    # (k, Nz // 2, 12, 8), with the basis read from the stack's: at most
    # 16 k 48 (Nz // 2) bytes, against 16 k (Nz-1) 288 for 6x6 exponentials
    # per node; the steps are kept for the same panels
    rng = np.random.default_rng(dim)
    p = _random_params(rng, dim)
    vg = VerticalGrid(p.depth, nz)
    xis = rng.uniform(-1.0, 1.0, (20, dim - 1))
    [sweep] = FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis).sweeps
    assert sweep.quad is None and sweep.r == 1
    z, d = _forcing(rng, len(xis), nz, vg, p.depth)
    sweep.solve(z, d[..., None])
    k = len(sweep.prop)
    assert k == len(xis)
    coef = sweep.quad
    assert coef.dtype == float and coef.shape == (k, nz // 2, 12, 8)
    assert coef.flags.c_contiguous
    assert coef.nbytes <= 16 * k * 48 * (nz // 2)
    assert sweep.steps[0].shape == (nz // 2, k, 6, 6)


def test_cold_forced_solve_peak_memory(monkeypatch):
    # a cold preparation and first forced solve keeps the steps and the
    # quadrature cache of the lower half of the mirrored panels (3.7 MB
    # together at wave-2d's forced stack, 86 members at nz 48; peak 7.7 MiB);
    # the Taylor product writes the cache itself, the closed forms write its
    # real and imaginary rows, and neither they nor the contraction, in calls
    # and blocks of at most _EXP_CHUNK member-times, may add a temporary that
    # grows with members times intervals.  The second stack (600 members at
    # nz 12, 2 pi |xi| b in [10, 18]) sends 27% of its quadrature
    # member-times to the closed forms, more than one full call, and every
    # member is two-sided (7.5 MB kept, peak 18.4 MiB).  The third is
    # roundtrip-3d's inverter stack, 144 members at nz 24, 113 of them swept
    # forward alone (2.9 MB kept, peak 6.4 MiB).  Each bound is the least
    # whole MiB at least 1.17 times its stack's peak
    import stripwave.odesystem as ode
    calls = []
    for name in ("_stokes_forms", "_heat_forms"):
        def counting(scalars, t, real=getattr(ode, name)):
            calls.append(len(t))
            return real(scalars, t)
        monkeypatch.setattr(ode, name, counting)
    j1, j2 = np.meshgrid(np.arange(9), np.arange(-8, 9), indexing="ij")
    half = (j1 > 0) | (j2 > 0)
    for dim, nz, xis, bound in ((2, 48, np.arange(86)[:, None] / (20 * np.pi), 9),
                                (2, 12, np.linspace(10.0, 18.0, 600)[:, None] / (2 * np.pi), 22),
                                (3, 24, np.stack([j1[half], j2[half]], axis=1) / (20 * np.pi), 8)):
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
        vg = VerticalGrid(p.depth, nz)
        rng = np.random.default_rng(0)
        z, d = _forcing(rng, len(xis), vg.count, vg, p.depth)
        tracemalloc.start()
        try:
            stack = FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis)
            stack.solve(z, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stack.members) == len(xis)
        assert peak <= bound * 2 ** 20
    assert int(stack.short.sum()) == 113
    assert max(calls) == ode._EXP_CHUNK        # a full call, and none larger


def test_stack_preparation_peak_memory():
    # the stack orders its members first and builds every kept table in that
    # order, so its preparation traces at most 1.6 times what it keeps: 600
    # members at nz 12 (4.2 MiB kept, peak 6.3 MiB) and the dealiased half
    # lattice of a modes-96 3D job, 2112 members at nz 32 (18.5 MiB kept,
    # peak 26.0 MiB)
    j1, j2 = np.meshgrid(np.arange(33), np.arange(-32, 33), indexing="ij")
    half = (j1 > 0) | (j2 > 0)
    for dim, nz, xis in ((2, 12, np.linspace(10.0, 18.0, 600)[:, None] / (2 * np.pi)),
                         (3, 32, np.stack([j1[half], j2[half]], axis=1) / (20 * np.pi))):
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
        args = (p, VerticalGrid(p.depth, nz), -p.gamma, p.sigma1, 0.0)
        FrequencyStack(*args, xis[:3])      # the grid's tables, outside the trace
        tracemalloc.start()
        try:
            stack = FrequencyStack(*args, xis)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stack.members) == len(xis)
        assert peak <= 1.6 * kept


def test_far_member_sweeps_apart():
    # 600 forced members at nz 24 and one at 2 pi |xi| b = 500, whose sweep
    # splits each interval into 12 subpanels: its own sweep keeps the others'
    # tables at the grid's panels, so the preparation and first solve trace
    # at most 1.25 times what the stack without it traces (29.6 MiB both);
    # with the grid's panels built outside the trace.  The members stay bit
    # for bit what the smaller stack gives
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    vg = VerticalGrid(p.depth, 24)
    xis = np.vstack([np.linspace(10.0, 18.0, 600)[:, None], [[500.0]]]) / (2 * np.pi)
    z, d = _forcing(np.random.default_rng(0), len(xis), vg.count, vg, p.depth)
    z[::3] = z[1]
    FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis[[0, -1]]).solve(z[[0, -1]], d[[0, -1]])
    peaks, profiles = [], []
    for k in (600, 601):
        tracemalloc.start()
        try:
            stack = FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis[:k])
            profiles.append(stack.solve(z[:k], d[:k]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert [(s.r, s.at) for s in stack.sweeps] == [(1, slice(0, 600)), (12, slice(600, 601))]
    assert peaks[1] <= 1.25 * peaks[0]
    assert np.array_equal(profiles[1][:600], profiles[0]) and np.isfinite(profiles[1]).all()


def test_warm_solve_builds_no_panels():
    # 2 pi |xi| b up to 500 at nz 24 makes 12 sweeps, more than the panels'
    # cache holds; each sweep keeps its panels' rows, so a warm solve
    # builds none
    import stripwave.odesystem as ode
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    vg = VerticalGrid(p.depth, 24)
    xis = np.linspace(1.0, 500.0, 40)[:, None] / (2 * np.pi)
    stack = FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis)
    assert len(stack.sweeps) == 12 > ode._gl_panels.cache_info().maxsize
    z, d = _forcing(np.random.default_rng(1), len(xis), vg.count, vg, p.depth)
    Y = stack.solve(z, d)
    built = ode._gl_panels.cache_info().misses
    assert np.array_equal(stack.solve(z, d), Y)
    assert ode._gl_panels.cache_info().misses == built


@pytest.mark.parametrize("depth", [0.5, 1.0, 1.4])
def test_panels_are_mirror_symmetric(depth):
    # a forced sweep keeps its steps and quadrature for subpanels j < N // 2
    # and reads subpanel j from entry min(j, N-2-j): the Chebyshev-Lobatto
    # panels j and N-2-j, whole or split into r equal subpanels, have the
    # same Gauss-Legendre offsets, to a few ulps of the depth (at most 3, at
    # depth 1.4 and nz 56), and widths
    for nz, r in [(nz, 1) for nz in range(4, 121)] + [(nz, 5) for nz in range(4, 41)]:
        vg = VerticalGrid(depth, nz)
        nodes, offsets, _ = _gl_panels(vg, r)
        h = np.diff(nodes)
        assert len(h) == r * (nz - 1)
        assert np.abs(offsets - offsets[::-1]).max() <= 4 * np.spacing(depth)
        assert np.all(np.abs(h - h[::-1]) <= 1e-12 * h)


def _full_table_profiles(stack, z, d):
    """The forced profiles of ``stack``'s members, (k, 6, Nz) in stack order,
    from a step exp(h_j A) Q and quadrature coefficients for every panel at
    its own width and offsets: the ends of y_p give v, then w- is swept
    forward from Q C(0) v and, on the two-sided members, D w+ backward from
    D (I - Q) v."""
    vg = stack.vgrid
    nodes, nz, k = vg.nodes, vg.count, len(stack.prop)
    _, offsets, rows = _gl_panels(vg, 1)
    z, d = z[stack.members], d[stack.members]
    basis = stack.basis.reshape(k, 6, 6, 6)

    def matrices(coef):             # coefficients (k, 6, ...) to (k, ..., 6, 6)
        return np.einsum("kb...,kbic->k...ic", coef, basis)

    E = matrices(_minus_rows(stack.prop, np.concatenate([[0.0], np.diff(nodes), nodes]),
                             stack.short))
    Q, S, X = E[:, 0], E[:, 1:nz], E[:, nz:]
    quad = matrices(_member_coefficients(stack.prop, offsets).transpose(0, 2, 1, 3))
    samples = np.einsum("pn,kcn->kpc", rows, z).reshape(k, nz - 1, 8, 6)
    L = np.einsum("kjqic,kjqc->kji", quad, samples)
    # y_p(b) = sum_j exp(x_{Nz-2-j} A) Q L_j and, on the two-sided members,
    # y_p(0) = -sum_j D exp(x_{j+1} A) P- D L_j
    two = ~stack.short
    yb = np.einsum("kjic,kjc->ki", X[:, nz - 2::-1], L)
    y0 = -_MIRROR * np.einsum("kjic,kjc->ki", X[:, 1:], L * _MIRROR) * two[:, None]
    v = (stack.Kinv @ (d - (stack.Mmat @ y0[..., None])[..., 0]
                       - (stack.Nmat @ yb[..., None])[..., 0])[..., None])[..., 0]
    Y = np.zeros((k, nz, 6), dtype=complex)
    Y[:, 0] = (Q @ matrices(stack.coef[..., 0]) @ v[..., None])[..., 0]
    for j in range(nz - 1):
        Y[:, j + 1] = (S[:, j] @ Y[:, j, :, None])[..., 0] + (Q @ L[:, j, :, None])[..., 0]
    back = np.zeros((k, nz, 6), dtype=complex)
    back[:, -1] = _MIRROR * ((np.eye(6) - Q) @ v[..., None])[..., 0]
    for j in range(nz - 2, -1, -1):
        back[:, j] = (S[:, j] @ (back[:, j + 1] - L[:, j] * _MIRROR)[..., None])[..., 0]
    Y += back * _MIRROR * two[:, None, None]
    return Y.transpose(0, 2, 1)


def test_forced_profiles_match_full_table_reference():
    # the three workloads' inverter stacks (wave-2d: 86 members at nz 48;
    # roundtrip-3d: 144 at nz 24, 113 swept forward alone; linear-deep: 20
    # at nz 80, 2 pi |xi| b up to 16) and stacks at nz 12 and, with no
    # self-mirrored middle panel, nz 25 over the band where the quadrature
    # uses the closed forms (2 pi |xi| b in [10, 18]): the profiles from the
    # half tables agree with a full-table forced solve within 1e-13 of each
    # frequency's largest value
    j1, j2 = np.meshgrid(np.arange(9), np.arange(-8, 9), indexing="ij")
    half = (j1 > 0) | (j2 > 0)
    for dim, nz, xis in ((2, 48, np.arange(86)[:, None] / (20 * np.pi)),
                         (3, 24, np.stack([j1[half], j2[half]], axis=1) / (20 * np.pi)),
                         (2, 80, np.arange(1, 21)[:, None] / (2.5 * np.pi)),
                         (2, 12, np.linspace(10.0, 18.0, 40)[:, None] / (2 * np.pi)),
                         (2, 25, np.linspace(10.0, 18.0, 40)[:, None] / (2 * np.pi))):
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
        vg = VerticalGrid(p.depth, nz)
        z, d = _forcing(np.random.default_rng(nz), len(xis), nz, vg, p.depth)
        stack = FrequencyStack(p, vg, -p.gamma, p.sigma1, 0.0, xis)
        Y = stack.solve(z, d)[stack.members]
        [sweep] = stack.sweeps
        assert sweep.steps[0].shape[0] == nz // 2 and sweep.quad.shape[1] == nz // 2
        ref = _full_table_profiles(stack, z, d)
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(Y - ref).max(axis=(1, 2)) <= 1e-13 * scale)


def test_two_sided_members_form_the_stack_tail():
    # the members swept forward alone (Q = I) lead the stack and the two-sided
    # ones form its tail, where alone the backward sweep runs; forward-alone
    # and two-sided frequencies interleave in xis, over several quadrature
    # blocks, and every row still matches a lone solve in xis order
    import stripwave.odesystem as ode
    rng = np.random.default_rng(11)
    p = _random_params(rng, 3)
    nz = 24
    vg = VerticalGrid(p.depth, nz)
    coefs = (-p.gamma, p.sigma1, 0.0)
    k = 100
    direction = rng.standard_normal((k, 2))
    xis = direction / np.linalg.norm(direction, axis=1, keepdims=True) \
        * (rng.uniform(0.05, 3.0, k) / (2 * np.pi * p.depth))[:, None]
    z, d = _forcing(rng, k, nz, vg, p.depth)
    stack = FrequencyStack(p, vg, *coefs, xis)
    assert len(stack.members) == k > ode._EXP_CHUNK // (8 * (nz - 1))
    short = np.zeros(k, dtype=bool)
    short[stack.members] = stack.short
    head = int(short.sum())
    assert 0 < head < k and not short[:head].all()     # interleaved in xis
    assert stack.short[:head].all() and not stack.short[head:].any()
    for forcing in (z, None):
        Y = stack.solve(forcing, d)
        singles = [solve_one(p, vg, coefs, xi, None if forcing is None else forcing[i], d[i])
                   for i, xi in enumerate(xis)]
        _assert_rows_agree(Y, singles)
        assert list(stack.backend) == [s[1] for s in singles]
        assert np.allclose(stack.cond, [s[2] for s in singles], rtol=1e-12)


# the three benchmark grids: (dim, box_len, modes, nz)
BENCH_GRIDS = {
    "wave-2d": (2, 2 * math.pi * 10, 256, 48),
    "roundtrip-3d": (3, 2 * math.pi * 10, 32, 24),
    "linear-deep": (2, 2.5 * math.pi, 128, 80),
}
# SymbolTable.backend counts (matexp, twosided): xi = 0 in closed form
# (matexp), every other symbol two-sided
BENCH_BACKENDS = {"wave-2d": (1, 255), "roundtrip-3d": (1, 1023), "linear-deep": (1, 127)}


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
    sweeps = []
    monkeypatch.setattr(_Sweep, "solve", lambda *args: sweeps.append(1))
    table = SymbolTable.build(grid, VerticalGrid(1.0, nz), p)
    assert stacks == [1] and sweeps == []       # one unforced stack, no sweep
    expect = np.where(grid.xi2 == 0, "matexp", "twosided").astype(object)
    assert np.array_equal(table.backend, expect)
    # over the whole lattice: a stored index stands for pair_weight points
    counts = tuple(int(((table.backend == b) * grid.pair_weight).sum())
                   for b in BACKENDS)
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
    # linear-deep's job: its data reaches 2 pi |xi| b = 16, and its 20
    # forced members and the table's 64 members at xi != 0 are two-sided;
    # so is the same grid with content up to its cutoff, index 42
    # (2 pi |xi| b = 33.6), where the forward march had sent 20 members to
    # collocation; both round-trip to 1e-10
    dim, box, modes, nz = BENCH_GRIDS["linear-deep"]
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, box, modes), VerticalGrid(1.0, nz)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    assert list(inv.table.backend[grid.half_mask]).count("twosided") == 64
    for jmax in (20, 42):
        state = make_random_state(grid, vg, seed=3, jmax=jmax)
        out = inv.invert(apply_linear_operator(state, p))
        solved = list(inv.backend[grid.half_mask])
        assert solved.count("twosided") == jmax and solved.count(None) == 65 - jmax
        out.axpy(-1.0, state)
        assert state_norm(out) <= 1e-10 * state_norm(state)


def test_inverter_forced_profiles_match_collocation_at_linear_deep(monkeypatch):
    # linear-deep's job at lattice indices 18-20 (2 pi |xi| b = 14.4-16),
    # where the forward march lost 6-7 digits: the inverter's forced
    # profiles agree with collocation within 5e-12 of each frequency's
    # largest profile value; collocation's own error here is about 1.5e-12
    dim, box, modes, nz = BENCH_GRIDS["linear-deep"]
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, box, modes), VerticalGrid(1.0, nz)
    data = apply_linear_operator(make_random_state(grid, vg, seed=3, jmax=20), p)
    solves = []
    real = FrequencyStack.solve

    def recording(self, z, d):
        Y = real(self, z, d)
        solves.append((self, z, d, Y))
        return Y

    monkeypatch.setattr(FrequencyStack, "solve", recording)
    LinearInverter(SymbolTable.build(grid, vg, p)).invert(data)
    [(stack, z, d, Y)] = [s for s in solves if s[1] is not None]
    for j in (18, 19, 20):
        [i] = np.flatnonzero(np.isclose(stack.xis[:, 0], j / box, rtol=1e-14))
        Yc, _ = solve_collocation(p, vg, (-p.gamma, p.sigma1, 0.0), stack.xis[i], z[i], d[i])
        assert stack.backend[i] == "twosided"
        assert np.abs(Y[i] - Yc).max() <= 5e-12 * np.abs(Yc).max()


def test_linear_solve_makes_no_lu_at_linear_deep(tmp_path, monkeypatch):
    # linear-deep's job through the CLI: its data stops at |j| = 20
    # (2 pi |xi| b = 16) and has no mean, so its symbol table solves
    # j = 1 .. 20 only, all two-sided
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
    assert run(cfg) == 0
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["table_solved"] == {"matexp": 0, "twosided": 20}
    assert summary["inverter_solved"] == {"matexp": 0, "twosided": 20}


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
def test_inverter_prepares_again_at_the_new_support(dim, monkeypatch):
    # data on S1 (indices up to 2), then on S2 (2 to 4): the second inversion
    # prepares at S2 alone and returns, bit for bit, what a fresh inverter
    # returns for S2, with exact zeros where S2 has no data
    import stripwave.linear as linear
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

    def counting(*args):
        prepared.append(len(args[-1]))
        return FrequencyStack(*args)

    monkeypatch.setattr(linear, "FrequencyStack", counting)
    half = grid.half_mask
    inv.invert(data1)
    assert np.array_equal(inv._stack.xis, grid.xi_vectors[support[0] & half])
    out = inv.invert(data2)
    assert np.array_equal(inv._stack.xis, grid.xi_vectors[support[1] & half])
    assert prepared == [(support[0] & half).sum(), (support[1] & half).sum()]
    fresh = LinearInverter(table)
    expect = fresh.invert(data2)
    for part, ref in zip(out.parts(), expect.parts()):
        assert part.data.tobytes() == ref.data.tobytes()
        assert (part.data[(slice(None),) + np.nonzero(~support[1])] == 0).all()
    assert np.array_equal(inv.backend, fresh.backend)
    assert inv.cond.tobytes() == fresh.cond.tobytes()


def test_inverter_hands_its_stack_the_forcing_rows_as_they_are(monkeypatch):
    # forcing rows that are all live go to the stack unchanged; of two
    # rows with one live (data at one frequency, so the rows gain xi = 0),
    # the one-member stack gets the live row alone.  After the support
    # shrinks, the stack is prepared again at the one live row, and every
    # output is bit for bit what a fresh inverter gives
    import stripwave.linear as linear
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid, vg = FrequencyGrid(1, 2 * np.pi * 2, 16), VerticalGrid(1.0, 16)
    table = SymbolTable.build(grid, vg, p)
    made, handed = [], []
    forcing, solve = linear.forcing_rows, FrequencyStack.solve

    def making(*args):
        made.append(forcing(*args))
        return made[-1]

    def handing(stack, z, d):
        handed.append((len(stack.xis), z, d))
        return solve(stack, z, d)

    monkeypatch.setattr(linear, "forcing_rows", making)
    monkeypatch.setattr(FrequencyStack, "solve", handing)
    state = make_random_state(grid, vg, seed=4, jmax=3)
    inv = LinearInverter(table)
    inv.invert(apply_linear_operator(state, p))
    (k, z, d), = handed
    assert k == 3 and np.array_equal(z, made[-1][0]) and np.array_equal(d, made[-1][1])
    for part in state.parts():
        part.data[:, np.arange(grid.freq_shape[0]) != 2] = 0.0
    data = apply_linear_operator(state, p)
    expect = LinearInverter(table).invert(data)
    (k, z, d), rows = handed[-1], made[-1][0]
    assert k == len(z) == len(d) == 1 and len(rows) == 2 and not rows[0].any()
    out = inv.invert(data)
    (k, z, d) = handed[-1]
    assert k == len(z) == len(d) == 1
    for part, ref in zip(out.parts(), expect.parts()):
        assert part.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("dim, mode_index, grid", [(2, 2, {"modes": 32, "nz": 24}),
                                                   (3, 1, {"modes": 16, "nz": 24})])
def test_picard_prepares_its_inverter_stack_once(tmp_path, monkeypatch, dim, mode_index, grid):
    # every Picard step inverts a residual on the same half-lattice support,
    # so the inverter prepares its stack at the first step and solves every
    # later one on it
    import stripwave.linear as linear
    from stripwave import cli
    prepared, inverted = [], []

    def counting(*args):
        prepared.append(len(args[-1]))
        return FrequencyStack(*args)

    class Counting(cli.LinearInverter):
        def invert(self, data):
            inverted.append(self)
            return super().invert(data)

    monkeypatch.setattr(linear, "FrequencyStack", counting)
    monkeypatch.setattr(cli, "LinearInverter", Counting)
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "mode": "nonlinear-solve", "out": str(out), "params": {"dim": dim}, "grid": grid,
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": mode_index}}))
    assert cli.main(["--config", str(path)]) == 0
    iterations = json.loads((out / "solve_trace.json").read_text())["iterations"]
    assert len(inverted) == iterations >= 2 and len(set(inverted)) == 1
    assert len(prepared) == 1 and prepared[0] == len(inverted[0]._stack.xis) > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_invert_zero_data_makes_no_solve(dim, monkeypatch):
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)
    grid, vg = FrequencyGrid(dim - 1, 2.5 * math.pi, 16), VerticalGrid(1.0, 16)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    data = apply_linear_operator(LinearState.zeros(grid, vg), p)
    exps = _counting(monkeypatch, "_member_coefficients")
    out = inv.invert(data)
    assert exps == []
    assert all(np.abs(part.data).max() == 0.0 for part in out.parts())
    assert set(inv.backend.ravel()) == {None} and inv.cond.max() == 0.0


def _data_everywhere(data):
    """``data`` with a constant temperature forcing added at every lattice
    point, so that the inverter solves every frequency."""
    data.l.data[0] += 1.0
    return data


def test_inverter_backend_and_cond_match_single_solves():
    # the linear-deep lattice on a coarser vertical grid, with data at every
    # frequency: matexp at xi = 0 and two-sided elsewhere, beyond the
    # panels' resolution (at nz 24 the widest panel is 0.068 b, so about
    # 2 pi |xi| b = 44) on sweeps of subpanels
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
        _, used, cond = solve_one(p, vg, (-p.gamma, p.sigma1, 0.0), vecs[idx], z, np.ones(6))
        assert inv.backend[idx] == used
        assert inv.cond[idx] == pytest.approx(cond, rel=1e-12)
    assert list(inv.backend[grid.half_mask]) == ["matexp"] + ["twosided"] * 64


def test_transverse_factored_once_per_frequency(monkeypatch):
    import stripwave.linear as linear
    p = PhysicalParams(1, 1, 1, 1, -1.0, 1, -0.2, 3)
    grid = FrequencyGrid(2, 2 * np.pi, 8)
    vg = VerticalGrid(1.0, 16)
    inv = LinearInverter(SymbolTable.build(grid, vg, p))
    factored = []
    real = linear.transverse_solve

    def counting(xis, *args, **kwargs):
        factored.extend(tuple(np.round(xi, 12)) for xi in xis)
        return real(xis, *args, **kwargs)

    monkeypatch.setattr(linear, "transverse_solve", counting)
    for seed in (1, 2):
        st = make_random_state(grid, vg, seed=seed, jmax=2)
        data = apply_linear_operator(st, p)
        factored.clear()
        out = inv.invert(data)
        # each inversion solves each of its transverse frequencies once
        assert factored and len(factored) == len(set(factored))
        assert np.abs(out.u.data[0]).max() > 0
        back = apply_linear_operator(out, p)
        back.axpy(-1.0, data)
        assert ydata_norm(back) / ydata_norm(data) <= 1e-6


def _dense_collocation(p, vg, coefs, xi, z, d):
    """The whole 6Nz collocation system of the problem with coefficients
    ``coefs``, assembled as kron(I6, D) - kron(A, I) with the boundary rows
    replaced, and its dense solution."""
    nz, (gamma_tilde, alpha1, alpha2) = vg.count, coefs
    A = assemble_bulk_matrix(xi, p, gamma_tilde)
    _, Nmat = assemble_boundary(xi, p, alpha1, alpha2)
    full = np.kron(np.eye(6), vg.diff) - np.kron(A, np.eye(nz))
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
    # the tests' collocation oracle against the dense system: six parameter
    # sets per case, 36 in all, each with the adjoint, the forward and a
    # two-sided coupling
    import oracles
    sizes = []
    real = oracles.lu_factor

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(oracles, "lu_factor", recording)
    rng = np.random.default_rng(100 * dim + nz)
    for _ in range(6):
        p = _random_params(rng, dim)
        vg = VerticalGrid(p.depth, nz)
        for coefs in ((p.gamma, 0.0, p.sigma1), (-p.gamma, p.sigma1, 0.0),
                      (p.gamma, p.sigma1, p.sigma1)):
            direction = rng.standard_normal(dim - 1)
            for scale in (rng.uniform(0.05, 5.0), rng.uniform(5.0, 60.0)):
                xi = direction / np.linalg.norm(direction) \
                    * scale / (2 * np.pi * p.depth)
                z, d = _forcing(rng, 1, nz, vg, p.depth)
                Y, cond = solve_collocation(p, vg, coefs, xi, z[0], d[0])
                full, Yd = _dense_collocation(p, vg, coefs, xi, z[0], d[0])
                peak = np.abs(Yd).max(axis=1)
                assert np.all(np.abs(Y - Yd).max(axis=1) <= 1e-10 * peak)
                assert 0.5 <= cond / np.linalg.cond(full, 1) <= 1.0 + 1e-9
    # every collocation solve factors one 6 Nz system
    assert sizes == [6 * nz] * 36


@pytest.mark.parametrize("mode, frequencies", [("nonlinear-solve", []),
                                               ("roundtrip-test", [144] * 12)],
                         ids=["nonlinear-solve-0", "roundtrip-test-144"])
def test_transverse_factors_only_where_transverse_data(tmp_path, monkeypatch, mode, frequencies):
    # box 20 pi, modes 32, nz 24, with the transverse solves diagonalized.
    # Every forcing preset depends on x_1 alone, so the 3D nonlinear solve is
    # x_2-invariant, has no transverse forcing and hands no frequency to
    # transverse_solve; each of roundtrip-3d's 12 inversions hands it the 144
    # half-lattice frequencies of its state
    import stripwave.linear as linear
    from stripwave.cli import run
    from stripwave.config import RunConfig
    handed = []
    real = linear.transverse_solve

    def recording(xis, *args, **kwargs):
        handed.append(len(xis))
        return real(xis, *args, **kwargs)

    monkeypatch.setattr(linear, "transverse_solve", recording)
    assert run(RunConfig.from_dict({
        "mode": mode, "out": str(tmp_path / "out"), "params": {"dim": 3},
        "grid": {"box_len": 2 * math.pi * 10, "modes": 32, "nz": 24},
        "closure": {"visc": "tempdep", "heat": "tempdep", "sigma": "smooth"},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 3},
        "roundtrip": {"count": 12}, "seed": 3})) == 0
    assert handed == frequencies

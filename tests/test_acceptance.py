"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import os

import numpy as np
import pytest

import stripwave.odesystem as ode
from oracles import matrix_exponential, solve_collocation
from stripwave.asymptotics import (check_highfreq_decay, check_rho_bounds,
                                   fit_lf_coefficient, LF_COEFFICIENTS)
from stripwave.cli import run
from stripwave.config import RunConfig
from stripwave.fields import SurfaceSpectral, write_ydata_csv
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import (LinearState, LinearInverter, apply_linear_operator,
                              make_random_state, state_norm)
from stripwave.nonlinear import (ForcingData, make_forcing_preset,
                                 nonlinear_residual, picard_solve)
from stripwave.norms import x_norm, ydata_norm
from stripwave.odesystem import (FrequencySolver, SymbolTable,
                                 assemble_boundary, assemble_bulk_matrix, solve_symbol)
from stripwave.params import PhysicalParams, make_constitutive

PSET1 = PhysicalParams(mu=1, kappa=1, grav=1, depth=1, gamma=1,
                       sigma0=1, sigma1=0.1, dim=2)
PSET2 = PhysicalParams(mu=2, kappa=0.5, grav=9.8, depth=0.7, gamma=-1,
                       sigma0=0.5, sigma1=-0.2, dim=2)
BOX = 2 * np.pi * 10


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_nilpotent_exponential():
    # the oracle and the production propagator
    worst = 0.0
    for p in (PSET1, PSET2):
        xi0 = np.zeros(p.dim_h)
        A0 = assemble_bulk_matrix(xi0, p, p.gamma)
        prop = ode._propagator(xi0[None], p, p.gamma)
        E = (ode._member_coefficients(prop, np.array([p.depth]))[0].T
             @ ode._member_basis(prop)[0]).reshape(6, 6)
        for X in (matrix_exponential(A0, p.depth), E):
            worst = max(worst, np.abs(X - (np.eye(6) + p.depth * A0)).max())
    _report("1 nilpotent exponential", worst < 1e-13, f"defect {worst:.2e}")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_lowfreq_coefficients():
    worst = 0.0
    rows = []
    for p in (PSET1, PSET2):
        vg = VerticalGrid(p.depth, 48)
        b = p.depth
        jobs = [("vn_surf", None), ("temp_surf", None)]
        jobs += [("q_minus_1_at", x) for x in (b / 4, b / 2, b)]
        jobs += [("long_sq_at", x) for x in (b / 4, b / 2)]
        for selector, x in jobs:
            fit = fit_lf_coefficient(selector, p, vg, x=x)
            pred = LF_COEFFICIENTS[selector][1](p, x)
            rel = abs(fit.value - pred) / abs(pred)
            worst = max(worst, rel)
            rows.append((selector, rel))
    _report("2 low-frequency coefficients", worst <= 0.01,
            f"worst relative error {worst:.2e} over {len(rows)} fits")


# -- criteria 3 and 4 share their tables -------------------------------------

@pytest.fixture(scope="module")
def rho_tables():
    vg = VerticalGrid(PSET1.depth, 48)
    coarse = SymbolTable.build(FrequencyGrid(1, BOX, 512), vg, PSET1)
    fine = SymbolTable.build(FrequencyGrid(1, 2 * BOX, 1024), vg, PSET1)
    return coarse, fine


def test_criterion_3_rho_lower_bounds(rho_tables):
    coarse, fine = rho_tables
    rows = check_rho_bounds(coarse, fine, stability_tol=0.10)
    ok = all(r.verdict == "pass" for r in rows)
    detail = "; ".join(f"{r.claim}: inf {r.fitted:.3e} drift {r.detail['drift']:.2%}"
                       for r in rows)
    _report("3 rho lower bounds", ok, detail)


def test_criterion_4_highfreq_decay(rho_tables):
    coarse, fine = rho_tables
    rows = check_highfreq_decay(coarse, fine, stability_tol=0.10)
    ok = all(r.verdict == "pass" for r in rows)
    detail = "; ".join(f"sup {r.fitted:.3e} drift {r.detail['drift']:.2%}"
                       for r in rows)
    _report("4 high-frequency decay", ok, detail)


# -- criterion 5 -------------------------------------------------------------

def _dense_reference(p, vg, xi, gt, a1, a2, amps, d):
    """Y (6, Nz) of dn y = A y + sum_k amps[:, k] cos(w_k x), w_k = k pi / b,
    M y(0) + N y(b) = d, from the public assembly and ``matrix_exponential``:
    exp(x Aug) of the augmented system (y, cos(w_k x), sin(w_k x)) carries
    exp(xA) and the particular solution from y(0) = 0, and
    B = M + N exp(bA) gives y(0)."""
    n = amps.shape[1]
    w, rows = np.arange(n) * np.pi / p.depth, 6 + np.arange(n)
    aug = np.zeros((6 + 2 * n, 6 + 2 * n), dtype=complex)
    aug[:6, :6] = assemble_bulk_matrix(xi, p, gt)
    aug[:6, rows] = amps
    aug[rows, rows + n], aug[rows + n, rows] = -w, w
    Mm, Nm = assemble_boundary(xi, p, a1, a2)
    start = np.zeros(6 + 2 * n, dtype=complex)
    start[rows] = 1.0
    Eb = matrix_exponential(aug, p.depth)
    start[:6] = np.linalg.solve(Mm + Nm @ Eb[:6, :6], d - Nm @ (Eb[:6] @ start))
    return (matrix_exponential(aug, vg.nodes)[:, :6] @ start).T


def test_criterion_5_dual_backend():
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    for trial in range(50):
        p = PSET1 if trial % 2 == 0 else PSET2
        vg = VerticalGrid(p.depth, 48)
        if trial % 3 == 0:
            gt, a1, a2 = p.gamma, 0.0, p.sigma1
        else:
            gt, a1, a2 = -p.gamma, p.sigma1, 0.0
        ximag = rng.uniform(0.02, 10.0 / (2 * np.pi * p.depth))
        xi = [ximag * rng.choice([-1.0, 1.0])]
        z = np.zeros((6, vg.count), dtype=complex)
        coefs = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        for comp in (1, 3, 4, 5):
            for k in range(6):
                z[comp] += coefs[comp, k] * np.exp(-0.6 * k) * \
                    np.cos(k * np.pi * vg.nodes / p.depth)
        d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        # the production solve, collocation and a dense reference, pairwise
        solver = FrequencySolver(p, vg, gt, a1, a2)
        Y1, b1, _ = solver.solve(xi, z, d)
        Y2, _ = solve_collocation(solver, np.array(xi), z, d)
        amps = coefs * np.exp(-0.6 * np.arange(6))
        amps[[0, 2]] = 0.0
        Y3 = _dense_reference(p, vg, xi, gt, a1, a2, amps, d)
        assert b1 == "twosided"
        for Ya, Yb in ((Y1, Y2), (Y1, Y3), (Y3, Y2)):
            worst_pair = max(worst_pair, np.abs(Ya - Yb).max() / np.abs(Ya).max())

    worst_manu = 0.0
    for p, seed in ((PSET1, 0), (PSET2, 1)):
        vg = VerticalGrid(p.depth, 48)
        rngm = np.random.default_rng(seed)
        xi = [0.8]
        gt, a1, a2 = -p.gamma, p.sigma1, 0.0
        A = assemble_bulk_matrix(xi, p, gt)
        Mm, Nm = assemble_boundary(xi, p, a1, a2)
        coef = rngm.standard_normal((6, 5)) + 1j * rngm.standard_normal((6, 5))
        ystar = sum(coef[:, k][:, None]
                    * np.cos(k * np.pi * vg.nodes / p.depth)[None]
                    for k in range(5))
        z = vg.differentiate(ystar) - A @ ystar
        d = Mm @ ystar[:, 0] + Nm @ ystar[:, -1]
        solver = FrequencySolver(p, vg, gt, a1, a2)
        Y, used, _ = solver.solve(xi, z, d)
        assert used == "twosided"
        for Y in (Y, solve_collocation(solver, np.array(xi), z, d)[0]):
            worst_manu = max(worst_manu,
                             np.abs(Y - ystar).max() / np.abs(ystar).max())
    ok = worst_pair <= 1e-8 and worst_manu <= 1e-9
    _report("5 dual-backend oracle", ok,
            f"pair {worst_pair:.2e} (tol 1e-8), manufactured {worst_manu:.2e} (tol 1e-9)")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_roundtrip_isomorphism():
    grid = FrequencyGrid(1, BOX, 256)
    vg = VerticalGrid(PSET1.depth, 64)
    table = SymbolTable.build(grid, vg, PSET1)
    inv = LinearInverter(table)
    worst_data, worst_state = 0.0, 0.0
    for seed in range(20):
        st = make_random_state(grid, vg, seed=seed)
        data = apply_linear_operator(st, PSET1)
        st2 = inv.invert(data)
        back = apply_linear_operator(st2, PSET1)
        back.axpy(-1.0, data)
        worst_data = max(worst_data, ydata_norm(back) / ydata_norm(data))
        st2.axpy(-1.0, st)
        worst_state = max(worst_state, state_norm(st2) / state_norm(st))
    ok = worst_data <= 1e-6 and worst_state <= 1e-6
    _report("6 round-trip isomorphism", ok,
            f"data {worst_data:.2e}, state {worst_state:.2e} (tol 1e-6, 20 states)")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_linearization_consistency():
    grid = FrequencyGrid(1, BOX, 96)
    vg = VerticalGrid(PSET1.depth, 40)
    c = make_constitutive(PSET1, visc="tempdep", heat="tempdep", sigma="smooth")
    st = make_random_state(grid, vg, seed=77, jmax=5, eta_scale=0.5)
    lin = apply_linear_operator(st, PSET1)
    denom = ydata_norm(lin)
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        scaled = st.copy()
        for f in (scaled.u, scaled.psi, scaled.pres):
            f.data *= eps
        scaled.eta.data *= eps
        r = nonlinear_residual(scaled, ForcingData(), PSET1, c)
        for part in r.parts():
            part.data *= 1.0 / eps
        r.axpy(-1.0, lin)
        errs.append(ydata_norm(r) / denom)
    slopes = [np.log10(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(abs(s - 1.0) <= 0.1 for s in slopes) and errs[-1] < 1e-4
    _report("7 linearization consistency", ok,
            f"errors {['%.3e' % e for e in errs]}, slopes {['%.3f' % s for s in slopes]}")


# -- criteria 8 and 9 share the solver setup ---------------------------------

@pytest.fixture(scope="module")
def picard_setup():
    grid = FrequencyGrid(1, BOX, 128)
    vg = VerticalGrid(PSET1.depth, 48)
    table = SymbolTable.build(grid, vg, PSET1)
    inv = LinearInverter(table)
    c = make_constitutive(PSET1, visc="tempdep", heat="tempdep", sigma="smooth")
    return grid, vg, table, inv, c


def test_criterion_8_heat_driven_wave(picard_setup):
    grid, vg, table, inv, c = picard_setup
    amp, j0 = 1e-3, 3
    forcing = make_forcing_preset("heat-only", amp, grid, PSET1.depth,
                                  mode_index=j0)
    trace = picard_solve(forcing, PSET1, c, grid, vg, tol=1e-9,
                         inverter=inv)
    e = table.entry((j0,))
    floor = 0.1 * amp * abs(np.conj(e.y[2, -1]) / e.rho)
    eta_norm = x_norm(trace.state.eta, 2.5)
    ok = (trace.converged and trace.residuals[-1] <= 1e-9
          and max(trace.contraction) <= 0.5 and eta_norm >= floor)
    _report("8 heat-driven wave", ok,
            f"iters {trace.iterations}, residual {trace.residuals[-1]:.2e}, "
            f"max contraction {max(trace.contraction):.2e}, "
            f"|eta|_X {eta_norm:.3e} >= floor {floor:.3e}")


def test_criterion_9_lipschitz_dependence(picard_setup):
    grid, vg, _, inv, c = picard_setup
    j0 = 3
    states = {}
    for amp in (1e-3, 5e-4, 2.5e-4):
        forcing = make_forcing_preset("heat-only", amp, grid, PSET1.depth,
                                      mode_index=j0)
        tr = picard_solve(forcing, PSET1, c, grid, vg, tol=1e-11,
                          inverter=inv)
        states[amp] = tr.state
    cs = []
    for eps in (1e-3, 5e-4):
        diff = states[eps].copy()
        diff.axpy(-2.0, states[eps / 2])
        cs.append(state_norm(diff) / eps ** 2)
    ratio = cs[0] / cs[1]
    ok = all(np.isfinite(cv) and cv > 0 for cv in cs) and 0.5 <= ratio <= 2.0
    _report("9 Lipschitz dependence", ok,
            f"C(1e-3) {cs[0]:.3e}, C(5e-4) {cs[1]:.3e}, ratio {ratio:.3f}")


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"det_{tag}")
        cfg = RunConfig.from_dict({
            "mode": "symbols", "out": out, "seed": 11,
            "grid": {"modes": 64, "nz": 32},
        })
        assert run(cfg) == 0
        blobs.append(open(os.path.join(out, "symbols.csv"), "rb").read())
    same_symbols = blobs[0] == blobs[1]

    reports = []
    for tag in ("c", "d"):
        out = str(tmp_path / f"det_{tag}")
        cfg = RunConfig.from_dict({
            "mode": "roundtrip-test", "out": out, "seed": 5,
            "grid": {"modes": 32, "nz": 32},
            "roundtrip": {"count": 2},
        })
        assert run(cfg) == 0
        reports.append(open(os.path.join(out, "roundtrip_report.json"), "rb").read())
    same_reports = reports[0] == reports[1]

    # linear-solve at a grid of two-sided members (2 pi |xi| b up to 12.8)
    box, modes, nz = 2.5 * np.pi, 32, 32
    indir = str(tmp_path / "det_input")
    state = make_random_state(FrequencyGrid(1, box, modes), VerticalGrid(1.0, nz),
                              seed=7)
    write_ydata_csv(indir, apply_linear_operator(state, PSET1))
    linear = []
    for tag in ("e", "f"):
        out = str(tmp_path / f"det_{tag}")
        cfg = RunConfig.from_dict({
            "mode": "linear-solve", "out": out, "input": indir,
            "grid": {"box_len": box, "modes": modes, "nz": nz},
        })
        assert run(cfg) == 0
        linear.append([open(os.path.join(out, name), "rb").read()
                       for name in ("u.csv", "psi.csv", "pres.csv", "eta.csv",
                                    "linear_report.json")])
    same_linear = linear[0] == linear[1]

    # nonlinear-solve, in 2D and in 3D (where the Eulerian lattice sums run
    # over two axes), and asym-check: every data artifact and report.  The
    # 3D forcing sits at mode 1: at mode 2 its products alias on 16 modes.
    solve_names = ("eulerian.csv", "solve_trace.json", "u.csv", "psi.csv", "pres.csv",
                   "eta.csv", "u.csv.json", "eta.csv.json")
    reruns = {"nonlinear-solve": [], "nonlinear-solve-3d": [], "asym-check": []}
    for tag in ("g", "h"):
        for key, mode, dim, mode_index, grid, names in (
                ("nonlinear-solve", "nonlinear-solve", 2, 2, {"modes": 32, "nz": 24},
                 solve_names),
                ("nonlinear-solve-3d", "nonlinear-solve", 3, 1, {"modes": 16, "nz": 24},
                 solve_names),
                ("asym-check", "asym-check", 2, 2,
                 {"box_len": 2 * np.pi * 5, "modes": 64, "nz": 32},
                 ("asym_report.json",))):
            out = str(tmp_path / f"det_{tag}_{key}")
            cfg = RunConfig.from_dict({
                "mode": mode, "out": out, "grid": grid, "params": {"dim": dim},
                "forcing": {"preset": "mixed", "amplitude": 1e-3,
                            "mode_index": mode_index},
                "fit": {"refine": False},
            })
            assert run(cfg) == 0
            reruns[key].append([open(os.path.join(out, name), "rb").read()
                                for name in names])
    same_nonlinear = all(reruns[key][0] == reruns[key][1]
                         for key in ("nonlinear-solve", "nonlinear-solve-3d"))
    same_asym = reruns["asym-check"][0] == reruns["asym-check"][1]
    ok = same_symbols and same_reports and same_linear and same_nonlinear and same_asym
    _report("10 determinism", ok,
            f"symbols byte-identical {same_symbols}, reports byte-identical "
            f"{same_reports}, linear-solve artifacts byte-identical {same_linear}, "
            f"nonlinear-solve artifacts byte-identical {same_nonlinear}, "
            f"asym-check report byte-identical {same_asym}")

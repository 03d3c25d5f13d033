from types import SimpleNamespace

import numpy as np
import pytest

from oracles import solve_symbol
from stripwave.asymptotics import (check_highfreq_decay, check_rho_bounds,
                                   fit_lf_coefficient, full_report,
                                   LF_COEFFICIENTS, richardson_limit,
                                   theorem_fit_rows)
from stripwave.errors import NonConvergent
from stripwave.fields import write_json
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.odesystem import SymbolTable
from stripwave.params import PhysicalParams

P1 = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
P2 = PhysicalParams(2, 0.5, 9.8, 0.7, -1, 0.5, -0.2, 2)


def test_richardson_synthetic():
    # s(x) = 3 - 2x + 5x^2 at x = 0.1, 0.05, 0.025
    xs = np.array([0.1, 0.05, 0.025])
    vals = 3.0 - 2.0 * xs + 5.0 * xs ** 2
    fit = richardson_limit(vals, xs[:-1] / xs[1:])
    assert fit.value == pytest.approx(3.0, abs=1e-12)


def test_richardson_complex_series():
    xs = np.array([0.1, 0.05, 0.025])
    vals = (1.5 + 0j) + 2j * xs + (0.3 - 0.1j) * xs ** 2
    fit = richardson_limit(vals, xs[:-1] / xs[1:])
    assert fit.value == pytest.approx(1.5, abs=1e-12)


def test_richardson_rejects_nongeometric():
    with pytest.raises(ValueError):
        richardson_limit([1.0, 2.0, 3.0], [2.0, 3.0])


def test_richardson_nonconvergent():
    # wildly growing tail across four levels trips the divergence guard
    vals = [1.0, 2.0, -4.0, 8.0, -16.0]
    with pytest.raises(NonConvergent):
        richardson_limit(vals, [2.0, 2.0, 2.0, 2.0])


@pytest.mark.parametrize("p", [P1, P2])
def test_fit_vn_surface(p):
    vg = VerticalGrid(p.depth, 40)
    fit = fit_lf_coefficient("vn_surf", p, vg)
    assert fit.value == pytest.approx(LF_COEFFICIENTS["vn_surf"][1](p, None), rel=0.01)
    assert fit.error_bar < 0.01 * abs(fit.value)


@pytest.mark.parametrize("p", [P1, P2])
def test_all_theorem_rows_pass(p):
    vg = VerticalGrid(p.depth, 40)
    rows = theorem_fit_rows(p, vg)
    assert len(rows) >= 8
    for row in rows:
        assert row.verdict == "pass", f"{row.claim}: {row.fitted} vs {row.predicted}"
        assert row.margin <= 0.01


def test_fit_requires_decreasing_sequence():
    vg = VerticalGrid(1.0, 32)
    with pytest.raises(ValueError):
        fit_lf_coefficient("vn_surf", P1, vg, xi_seq=(1e-3, 1e-2))


@pytest.fixture(scope="module")
def tables():
    grid = FrequencyGrid(1, 2 * np.pi * 10, 128)
    vg = VerticalGrid(1.0, 40)
    coarse = SymbolTable.build(grid, vg, P1)
    fine_grid = FrequencyGrid(1, 4 * np.pi * 10, 256)
    fine = SymbolTable.build(fine_grid, vg, P1)
    return coarse, fine


def test_rho_bounds(tables):
    coarse, fine = tables
    rows = check_rho_bounds(coarse, fine)
    assert [r.verdict for r in rows] == ["pass", "pass"]
    for r in rows:
        assert r.fitted > 0
        assert r.detail["drift"] <= 0.10


def test_rho_conjugate_symmetry(tables):
    # the table stores xi >= 0; rho at -xi, solved directly, is its conjugate
    coarse, _ = tables
    rho, xi = coarse.rho, coarse.grid.xi_axes[0]
    for j in (1, 7, 40):
        minus = solve_symbol([-xi[j]], P1, coarse.vgrid).rho
        assert minus == pytest.approx(np.conj(rho[j]), rel=1e-12)


def test_highfreq_decay(tables):
    coarse, fine = tables
    rows = check_highfreq_decay(coarse, fine)
    assert len(rows) == 5
    for r in rows:
        assert r.verdict == "pass", r.claim
        assert np.isfinite(r.fitted) and r.fitted > 0


def test_decay_empty_regime_flagged():
    grid = FrequencyGrid(1, 2 * np.pi * 10, 32)   # xi_max ~ 0.25 < 1
    vg = VerticalGrid(1.0, 32)
    table = SymbolTable.build(grid, vg, P1)
    rows = check_highfreq_decay(table)
    assert all(r.verdict == "fail" for r in rows)
    assert all("note" in r.detail for r in rows)
    assert all(r.fitted is None and r.margin is None for r in rows)


def _scaled(table, s):
    """Stand-in for a refined table: ``table`` with s times its profiles and
    its rho."""
    return SimpleNamespace(grid=table.grid, vgrid=table.vgrid, y=s * table.y,
                           rho=s * table.rho)


@pytest.mark.parametrize("case", ["stable", "drift", "empty", "non-positive"])
@pytest.mark.parametrize("check", [check_rho_bounds, check_highfreq_decay],
                         ids=["rho", "decay"])
def test_claim_rule(tables, check, case):
    # one rule for both families: a row passes when its regime has points,
    # its value is finite and positive, and the refined value is positive
    # and within stability_tol of it
    coarse, _ = tables
    if case == "empty":
        # xi_max ~ 0.25: nothing above |xi| = 1, even with a stable refinement
        small = SymbolTable.build(FrequencyGrid(1, 2 * np.pi * 10, 32),
                                  VerticalGrid(1.0, 32), P1)
        noted = [r for r in check(small, small) if "note" in r.detail]
        assert noted and all(r.verdict == "fail" for r in noted)
        return
    # a refined value of 0 drifts by 1, inside a stability_tol of 10
    refined, tol = {"stable": (coarse, 0.10), "drift": (_scaled(coarse, 2.0), 0.10),
                    "non-positive": (_scaled(coarse, 0.0), 10.0)}[case]
    rows = check(coarse, refined, stability_tol=tol)
    assert all(r.fitted > 0 for r in rows)
    assert all((r.detail["drift"] > tol) == (case == "drift") for r in rows)
    assert [r.verdict for r in rows] == ["pass" if case == "stable" else "fail"] * len(rows)


def test_full_report_json(tmp_path):
    grid = FrequencyGrid(1, 2 * np.pi * 5, 64)
    vg = VerticalGrid(1.0, 36)
    report = full_report(P1, grid, vg, refine=False)
    write_json(tmp_path / "asym_report.json", report.to_jsonable())
    payload = (tmp_path / "asym_report.json").read_text()
    assert "lf-coefficient" in payload
    assert len(report.rows) >= 11


@pytest.mark.parametrize("p", [P1, P2])
def test_fit_rows_equal_single_fits(p):
    # theorem_fit_rows solves xi_seq once for all nine fits; each fitted
    # value is bit for bit the standalone fit_lf_coefficient
    vg = VerticalGrid(p.depth, 32)
    rows = theorem_fit_rows(p, vg)
    assert len(rows) == 9
    b = p.depth
    jobs = [("vn_surf", None), ("temp_surf", None)]
    jobs += [("q_minus_1_at", x) for x in (b / 4, b / 2, b)]
    jobs += [("long_sq_at", x) for x in (b / 4, b / 2)]
    jobs += [("vn_at", b / 2), ("temp_at", b / 2)]
    for row, (selector, x) in zip(rows, jobs):
        assert row.fitted == fit_lf_coefficient(selector, p, vg, x=x).value


def test_continuity_across_unit_circle(tables):
    # rho is continuous through |xi| = 1: neighboring lattice values agree
    coarse, _ = tables
    grid = coarse.grid
    xi = grid.xi_axes[0]
    spacing = 1.0 / grid.box_len
    below = np.argmin(np.abs(xi - (1.0 - spacing)))
    above = np.argmin(np.abs(xi - (1.0 + spacing)))
    r1 = coarse.rho[below]
    r2 = coarse.rho[above]
    assert abs(r1 - r2) < 0.2 * abs(r1)

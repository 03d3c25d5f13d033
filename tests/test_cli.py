import json
import os

import numpy as np
import pytest

from stripwave import cli
from stripwave.cli import main, run
from stripwave.config import RunConfig
from stripwave.errors import ConfigError
from stripwave.fields import write_ydata_csv
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import apply_linear_operator, make_random_state
from stripwave.odesystem import SymbolTable
from stripwave.params import PhysicalParams


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def test_config_defaults_valid():
    cfg = RunConfig.from_dict({})
    assert cfg.raw["mode"] == "symbols"
    assert cfg.params().mu == 1.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"turbo": True})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"params": {"mu": 1.0, "viscosity": 2.0}})


def test_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mode": "dance"})


def test_config_rejects_odd_modes():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"grid": {"modes": 33}})


def test_config_defaults_are_copied():
    # a fit section without xi_seq gets a copy of the default list
    from stripwave import config
    cfg = RunConfig.from_dict({"fit": {"refine": False}})
    cfg.raw["fit"]["xi_seq"].append(1e-4)
    assert config._DEFAULTS["fit"]["xi_seq"] == [1e-2, 5e-3, 2.5e-3]
    later = RunConfig.from_dict({"fit": {"refine": False}})
    assert later.raw["fit"]["xi_seq"] == [1e-2, 5e-3, 2.5e-3]


def test_config_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_cli_bad_config_exit_code(tmp_path):
    path = _write_cfg(tmp_path, {"mode": "dance"})
    assert main(["--config", path]) == 2


def test_bad_params_write_failed_manifest(tmp_path):
    # a run rejected for its physical parameters still explains itself
    out = tmp_path / "bad"
    path = _write_cfg(tmp_path, {"params": {"mu": -1}, "out": str(out)})
    assert main(["--config", path]) == 2
    summary = json.load(open(out / "manifest.json"))["summary"]
    assert summary["ok"] is False
    assert summary["error"] == "ConfigError: mu must be positive"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("params, error", [
    ({"depth": -1.0}, "depth must be positive"),
    ({"dim": 4}, "dim must be 2 or 3"),
    ({"depth": INF}, "depth must be finite"),
    ({"gamma": NAN}, "gamma must be finite"),
    ({"sigma1": NAN}, "sigma1 must be finite"),
    ({"sigma1": INF}, "sigma1 must be finite"),
    ({"mu": INF}, "mu must be finite"),
], ids=["depth", "dim", "depth-inf", "gamma-nan", "sigma1-nan", "sigma1-inf", "mu-inf"])
def test_bad_grid_params_write_failed_manifest(tmp_path, params, error):
    # depth and dim also shape the grids, and every parameter reaches the
    # solvers, but each is reported as a parameter
    out = tmp_path / "bad"
    path = _write_cfg(tmp_path, {"params": params, "out": str(out)})
    assert main(["--config", path]) == 2
    summary = json.load(open(out / "manifest.json"))["summary"]
    assert summary["ok"] is False
    assert summary["error"] == f"ConfigError: {error}"


def test_symbols_mode(tmp_path):
    out = str(tmp_path / "sym")
    cfg = RunConfig.from_dict({"mode": "symbols",
                               "grid": {"modes": 16, "nz": 24}, "out": out})
    assert run(cfg) == 0
    rows = open(os.path.join(out, "symbols.csv")).read().strip().splitlines()
    assert len(rows) == 17  # header + one per lattice point
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["summary"]["ok"] is True
    # manifest echoes every tolerance and threshold
    assert "tol" in manifest["config"] and "backend" in manifest["config"]
    assert manifest["config"]["backend"]["cond_limit"] == 1e12


def test_asym_check_mode(tmp_path):
    out = str(tmp_path / "asym")
    cfg = RunConfig.from_dict({
        "mode": "asym-check", "out": out,
        "grid": {"modes": 128, "nz": 40},
        "fit": {"refine": False, "xi_seq": [1e-2, 5e-3, 2.5e-3]},
    })
    assert run(cfg) == 0
    rep = json.load(open(os.path.join(out, "asym_report.json")))
    assert len(rep) >= 8
    assert all(row["verdict"] == "pass" for row in rep)


def test_linear_solve_mode(tmp_path):
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid = FrequencyGrid(1, 2 * np.pi * 10, 32)
    vg = VerticalGrid(1.0, 32)
    data = apply_linear_operator(make_random_state(grid, vg, seed=1), p)
    indir = str(tmp_path / "ydata")
    write_ydata_csv(indir, data)
    out = str(tmp_path / "lin")
    cfg = RunConfig.from_dict({"mode": "linear-solve", "input": indir,
                               "out": out,
                               "grid": {"modes": 32, "nz": 32}})
    assert run(cfg) == 0
    rep = json.load(open(os.path.join(out, "linear_report.json")))
    assert rep["roundtrip_misfit"] < 1e-6
    assert os.path.exists(os.path.join(out, "eta.csv"))


def test_linear_solve_records_inverter_work(tmp_path):
    # linear-deep's lattice and input state: its data reaches 2 pi |xi| b = 16,
    # so the 20 frequencies with data are solved by matexp and none by
    # collocation, though 42 frequencies lie above split 30
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid, vg = FrequencyGrid(1, 2.5 * np.pi, 128), VerticalGrid(1.0, 32)
    indir = str(tmp_path / "ydata")
    data = apply_linear_operator(make_random_state(grid, vg, seed=3, jmax=20), p)
    write_ydata_csv(indir, data)
    out = tmp_path / "lin"
    path = _write_cfg(tmp_path, {"mode": "linear-solve", "input": indir, "out": str(out),
                                 "grid": {"box_len": 2.5 * np.pi, "modes": 128, "nz": 32}})
    assert main(["--config", path]) == 0
    summary = json.load(open(out / "manifest.json"))["summary"]
    assert summary["inverter_solved"] == {"matexp": 20, "collocation": 0}
    inv = cli.LinearInverter(SymbolTable.build(grid, vg, p))
    inv.invert(data)
    at = tuple(summary["inverter_max_cond_at"])
    assert summary["inverter_max_cond"] == inv.cond[at] == inv.cond.max()
    assert inv.backend[at] == "matexp"


@pytest.mark.parametrize("mode", ["linear-solve", "nonlinear-solve",
                                  "roundtrip-test", "asym-check", "symbols"])
def test_backend_cond_limit_reaches_solve_modes(tmp_path, mode):
    # this grid has a collocation band (2 pi |xi| b up to 12.8), and every
    # collocation system there has a condition estimate far above 1e3
    box = 2.5 * np.pi
    cfg = {"mode": mode, "out": str(tmp_path / "out"),
           "grid": {"box_len": box, "modes": 32, "nz": 32},
           "backend": {"cond_limit": 1e3}, "fit": {"refine": False}}
    if mode == "linear-solve":
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
        grid, vg = FrequencyGrid(1, box, 32), VerticalGrid(1.0, 32)
        cfg["input"] = str(tmp_path / "ydata")
        write_ydata_csv(cfg["input"],
                        apply_linear_operator(make_random_state(grid, vg, seed=1), p))
    assert main(["--config", _write_cfg(tmp_path, cfg)]) == 1
    summary = json.load(open(tmp_path / "out" / "manifest.json"))["summary"]
    assert summary["ok"] is False
    assert summary["error"].startswith("IllConditionedCollocation:")


@pytest.mark.parametrize("mode", ["linear-solve", "nonlinear-solve",
                                  "roundtrip-test"])
def test_backend_section_reaches_table_and_inverter(tmp_path, monkeypatch, mode):
    seen = []

    class Recording(cli.LinearInverter):
        def __init__(self, table, **kwargs):
            super().__init__(table, **kwargs)
            seen.append((table, kwargs))

    monkeypatch.setattr(cli, "LinearInverter", Recording)
    box, modes, nz = 2 * np.pi * 10, 48, 32
    cfg = {"mode": mode, "out": str(tmp_path / "out"),
           "grid": {"box_len": box, "modes": modes, "nz": nz},
           "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2},
           "roundtrip": {"count": 1},
           "backend": {"split": 0.3, "symbol_split": 0.5, "cond_limit": 1e11}}
    grid = FrequencyGrid(1, box, modes)
    if mode == "linear-solve":
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
        cfg["input"] = str(tmp_path / "ydata")
        write_ydata_csv(cfg["input"], apply_linear_operator(
            make_random_state(grid, VerticalGrid(1.0, nz), seed=1), p))
    assert main(["--config", _write_cfg(tmp_path, cfg)]) == 0
    [(table, kwargs)] = seen
    assert kwargs == {"split": 0.3, "cond_limit": 1e11}
    scale = 2 * np.pi * grid.xi_magnitude()
    assert np.array_equal(table.backend == "collocation", scale > 0.5)
    # the manifest records the table's half lattice and its worst cond
    summary = json.load(open(tmp_path / "out" / "manifest.json"))["summary"]
    half = table.backend[grid.half_mask()]
    assert summary["table_solved"] == {b: int((half == b).sum())
                                       for b in ("matexp", "collocation")}
    assert summary["table_max_cond"] == table.cond[tuple(summary["table_max_cond_at"])] \
        == table.cond.max()


def test_symbols_mode_records_table_solves(tmp_path):
    # the default grid (box 20 pi, 256 modes, nz 48): 2 pi |xi| b reaches
    # the symbol split 10 at |j| = 100
    out = tmp_path / "sym"
    assert run(RunConfig.from_dict({"mode": "symbols", "out": str(out)})) == 0
    summary = json.load(open(out / "manifest.json"))["summary"]
    assert summary["table_solved"] == {"matexp": 101, "collocation": 28}
    assert summary["table_max_cond_at"] == [100]


def test_linear_solve_requires_input(tmp_path):
    cfg = RunConfig.from_dict({"mode": "linear-solve",
                               "out": str(tmp_path / "x")})
    with pytest.raises(ConfigError):
        run(cfg)


def test_nonlinear_solve_mode(tmp_path):
    out = str(tmp_path / "nl")
    cfg = RunConfig.from_dict({
        "mode": "nonlinear-solve", "out": out,
        "grid": {"modes": 48, "nz": 32},
        "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2},
    })
    assert run(cfg) == 0
    trace = json.load(open(os.path.join(out, "solve_trace.json")))
    assert trace["converged"] is True
    assert trace["residuals"][-1] <= 1e-9
    assert os.path.exists(os.path.join(out, "eulerian.csv"))
    summary = json.load(open(os.path.join(out, "manifest.json")))["summary"]
    assert summary["amplitude_requested"] == summary["amplitude_used"] == 1e-3


def _failed_solve(tmp_path, cfg):
    """Run a nonlinear-solve that must fail; its summary and trace."""
    out = tmp_path / "nl"
    path = _write_cfg(tmp_path, dict(cfg, mode="nonlinear-solve", out=str(out)))
    assert main(["--config", path]) == 1
    summary = json.load(open(out / "manifest.json"))["summary"]
    assert summary["ok"] is False
    trace = json.load(open(out / "solve_trace.json"))
    assert trace["converged"] is False
    return summary, trace


def test_stalled_solve_writes_trace(tmp_path):
    # the mixed preset stalls at nz 16 (the vertical floor); the trace of the
    # failed solve is kept, at the amplitude asked and with no retry
    summary, trace = _failed_solve(tmp_path, {
        "grid": {"modes": 16, "nz": 16},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 2}})
    assert trace["amplitude_used"] == 1e-3 / 3
    assert "retried_after_divergence" not in trace["diagnostics"]
    assert summary["inverter_solved"]["matexp"] > 0
    assert summary["table_solved"] == {"matexp": 9, "collocation": 0}
    assert summary["error"].startswith(("Diverged", "NotConverged"))


def test_exhausted_budget_writes_trace(tmp_path):
    _, trace = _failed_solve(tmp_path, {
        "grid": {"modes": 16, "nz": 24}, "maxiter": 0,
        "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2}})
    assert len(trace["residuals"]) == 1


SMALL = {"grid": {"modes": 16, "nz": 24}}


@pytest.mark.parametrize("cfg, key", [
    ({"mode": "roundtrip-test", "roundtrip": {"count": 0}}, "roundtrip.count"),
    ({"mode": "nonlinear-solve", "maxiter": -1}, "maxiter"),
    ({"grid": {"box_len": -1}}, "grid.box_len"),
    ({"grid": {"modes": 16.0}}, "grid.modes"),
    ({"mode": "nonlinear-solve", "closure": {"visc": "foo"}, **SMALL}, "closure.visc"),
    ({"mode": "nonlinear-solve", "tol": {"picard": "x"}, **SMALL}, "tol.picard"),
    ({"mode": "roundtrip-test", "tol": {"roundtrip": "x"}, **SMALL}, "tol.roundtrip"),
    ({"mode": "nonlinear-solve", "backend": {"split": "x"}, **SMALL}, "backend.split"),
    ({"backend": {"cond_limit": -1}, **SMALL}, "backend.cond_limit"),
    ({"mode": "roundtrip-test", "seed": "x", **SMALL}, "seed"),
    ({"out": 5, **SMALL}, "out"),
    ({"params": {"mu": "x"}, **SMALL}, "params.mu"),
    ({"params": {"dim": 2.0}, **SMALL}, "params.dim"),
    ({"mode": "nonlinear-solve", "forcing": {"amplitude": "x"}, **SMALL},
     "forcing.amplitude"),
    ({"mode": "asym-check", "fit": {"xi_seq": [], "refine": False}, **SMALL},
     "fit.xi_seq"),
    ({"mode": "asym-check", "fit": {"xi_seq": [1e-3, 2e-3], "refine": False}, **SMALL},
     "fit.xi_seq"),
    ({"mode": "nonlinear-solve", "forcing": {"mode_index": 100}, **SMALL},
     "forcing.mode_index"),
    ({"mode": "roundtrip-test", "tol": {"roundtrip": -1}, **SMALL}, "tol.roundtrip"),
    ({"mode": "nonlinear-solve", "tol": {"picard": -1}, **SMALL}, "tol.picard"),
    ({"mode": "asym-check", "tol": {"fit_rel": 0}, "fit": {"refine": False}, **SMALL},
     "tol.fit_rel"),
    ({"tol": {"stability": float("nan")}, **SMALL}, "tol.stability"),
    ({"mode": "roundtrip-test", "seed": -1, **SMALL}, "seed"),
    ({"grid": {"box_len": NAN, "modes": 16, "nz": 24}}, "grid.box_len"),
    ({"grid": {"box_len": INF, "modes": 16, "nz": 24}}, "grid.box_len"),
    ({"mode": "nonlinear-solve", "forcing": {"amplitude": NAN}, **SMALL},
     "forcing.amplitude"),
    ({"backend": {"split": NAN}, **SMALL}, "backend.split"),
    ({"backend": {"symbol_split": NAN}, **SMALL}, "backend.symbol_split"),
], ids=["count-0", "maxiter-negative", "box-negative", "modes-float", "visc-unknown",
        "picard-tol-string", "roundtrip-tol-string", "split-string",
        "cond-limit-negative", "seed-string", "out-number", "mu-string", "dim-float",
        "amplitude-string", "xi-seq-empty", "xi-seq-increasing", "mode-index-aliased",
        "roundtrip-tol-negative", "picard-tol-negative", "fit-rel-zero",
        "stability-nan", "seed-negative", "box-nan", "box-inf", "amplitude-nan",
        "split-nan", "symbol-split-nan"])
def test_out_of_range_config_exits_2(tmp_path, capsys, cfg, key):
    # rejected at load, before any output, by a message naming the key
    path = _write_cfg(tmp_path, {"out": str(tmp_path / "out"), **cfg})
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(part in err for part in key.split("."))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", [{"modes": 48}, {"box_len": 2.0, "modes": 64}])
def test_parameter_gate_samples_up_to_xi_max(tmp_path, monkeypatch, grid):
    # five geometric samples ending at the grid's xi_max, whatever the grid;
    # a failed gate stops the run before any solve
    samples = []
    real = cli.estimate_q_norms

    def recording(vgrid, freq_samples):
        samples.extend(freq_samples)
        return real(vgrid, freq_samples)

    monkeypatch.setattr(cli, "estimate_q_norms", recording)
    monkeypatch.setattr(cli, "check_parameter_gate", lambda p, est: (False, -1.0))
    cfg = RunConfig.from_dict({"mode": "nonlinear-solve", "grid": grid,
                               "out": str(tmp_path / "gate")})
    with pytest.raises(ConfigError, match="parameter gate"):
        run(cfg)
    xi_max = cfg.frequency_grid().xi_max
    assert samples == pytest.approx(xi_max * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1]),
                                    rel=1e-15)
    assert samples[-1] == xi_max


def test_roundtrip_mode_and_exit(tmp_path):
    out = str(tmp_path / "rt")
    cfg = RunConfig.from_dict({
        "mode": "roundtrip-test", "out": out,
        "grid": {"modes": 32, "nz": 32},
        "roundtrip": {"count": 2},
    })
    assert run(cfg) == 0
    rep = json.load(open(os.path.join(out, "roundtrip_report.json")))
    assert rep["max_data_misfit"] < 1e-6


def test_norms_mode(tmp_path):
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid = FrequencyGrid(1, 2 * np.pi * 10, 16)
    vg = VerticalGrid(1.0, 24)
    data = apply_linear_operator(make_random_state(grid, vg, seed=2, jmax=3), p)
    indir = str(tmp_path / "yd")
    write_ydata_csv(indir, data)
    out = str(tmp_path / "norms")
    cfg = RunConfig.from_dict({"mode": "norms", "input": indir, "out": out,
                               "grid": {"modes": 16, "nz": 24}})
    assert run(cfg) == 0
    rep = json.load(open(os.path.join(out, "norms_report.json")))
    assert rep["ydata_norm"] > 0


def test_cli_overrides(tmp_path):
    path = _write_cfg(tmp_path, {"mode": "symbols",
                                 "grid": {"modes": 16, "nz": 24},
                                 "out": str(tmp_path / "a")})
    rc = main(["--config", path, "--out", str(tmp_path / "b"), "--seed", "3"])
    assert rc == 0
    manifest = json.load(open(tmp_path / "b" / "manifest.json"))
    assert manifest["config"]["seed"] == 3

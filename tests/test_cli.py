import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import traced_peak
from stripwave import cli, config, fields
from stripwave.cli import main, run
from stripwave.config import RunConfig
from stripwave.errors import ConfigError
from stripwave.fields import read_field_csv, write_field_csv, write_ydata_csv
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import apply_linear_operator, make_random_state
from stripwave.odesystem import SymbolTable
from stripwave.ops import on_lattice
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
    summary = json.loads((out / "manifest.json").read_text())["summary"]
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
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False
    assert summary["error"] == f"ConfigError: {error}"


def test_symbols_mode(tmp_path):
    out = str(tmp_path / "sym")
    cfg = RunConfig.from_dict({"mode": "symbols",
                               "grid": {"modes": 16, "nz": 24}, "out": out})
    assert run(cfg) == 0
    rows = Path(out, "symbols.csv").read_text().strip().splitlines()
    assert len(rows) == 10  # header + one per half-lattice point
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["summary"]["ok"] is True
    # manifest echoes every tolerance and threshold; the conditioning limit
    # is no setting, so there is no backend section
    assert manifest["config"]["tol"] == cfg.raw["tol"]
    assert "backend" not in manifest["config"]


def test_asym_check_mode(tmp_path):
    out = str(tmp_path / "asym")
    cfg = RunConfig.from_dict({
        "mode": "asym-check", "out": out,
        "grid": {"modes": 128, "nz": 40},
        "fit": {"refine": False, "xi_seq": [1e-2, 5e-3, 2.5e-3]},
    })
    assert run(cfg) == 0
    rep = json.loads(Path(out, "asym_report.json").read_text())
    assert len(rep) >= 8
    assert all(row["verdict"] == "pass" for row in rep)


def test_asym_report_is_standard_json_without_high_frequencies(tmp_path):
    # at modes 32 on the default box no lattice point lies above |xi| = 1:
    # that regime's values are null, not NaN, and its rows fail with a note
    out = str(tmp_path / "asym")
    cfg = RunConfig.from_dict({"mode": "asym-check", "out": out,
                               "grid": {"modes": 32, "nz": 24}})
    assert run(cfg) == 1

    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")
    rep = json.loads(Path(out, "asym_report.json").read_text(), parse_constant=refuse)
    row = next(r for r in rep if r["claim"] == "rho lower bound |xi|>1")
    assert row["verdict"] == "fail" and "no lattice points" in row["detail"]["note"]
    assert [row["fitted"], row["margin"], row["detail"]["refined"],
            row["detail"]["drift"]] == [None] * 4


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
    rep = json.loads(Path(out, "linear_report.json").read_text())
    assert rep["roundtrip_misfit"] < 1e-6
    assert os.path.exists(os.path.join(out, "eta.csv"))


def test_linear_solve_rejects_bad_input_rows(tmp_path, capsys):
    # the input CSVs come from outside the program: a repeated lattice index
    # is refused with the file and row named, and the run exits 2
    grid, vg = FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(1.0, 24)
    indir = tmp_path / "ydata"
    write_ydata_csv(str(indir), apply_linear_operator(make_random_state(grid, vg, seed=1),
                                                      PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    # h.csv holds the data rows k1 = 1 .. 4, its nonzero entries; the
    # second, k1 = 2, is repeated
    rows = (indir / "h.csv").read_bytes().split(b"\r\n")
    (indir / "h.csv").write_bytes(b"\r\n".join(rows[:3] + rows[2:]))
    path = _write_cfg(tmp_path, {"mode": "linear-solve", "input": str(indir),
                                 "out": str(tmp_path / "lin"),
                                 "grid": {"modes": 16, "nz": 24}})
    assert main(["--config", path]) == 2
    assert "h.csv: data row 3 (0, 2) has a repeated index" in capsys.readouterr().err


def _non_numeric_cell(indir):
    rows = (indir / "h.csv").read_bytes().split(b"\r\n")
    rows[1] = b",".join(rows[1].split(b",")[:-2] + [b"abc", b"0"])
    (indir / "h.csv").write_bytes(b"\r\n".join(rows))


def _cut_at_a_line(indir):
    # h.csv, whose 4 data rows are its nonzero entries, cut after its second
    # data row, at a line boundary
    rows = (indir / "h.csv").read_bytes().split(b"\r\n")
    (indir / "h.csv").write_bytes(b"\r\n".join(rows[:3]) + b"\r\n")


@pytest.mark.parametrize("defect, message", [
    (_non_numeric_cell, "h.csv: could not convert string 'abc'"),
    (lambda indir: (indir / "h.csv.json").unlink(), "h.csv.json'"),
    (lambda indir: (indir / "h.csv").unlink(), "h.csv not found"),
    (_cut_at_a_line, "h.csv: 2 data rows, the sidecar says 4"),
], ids=["non-numeric cell", "missing sidecar", "missing csv", "truncated csv"])
def test_linear_solve_rejects_malformed_input_files(tmp_path, capsys, defect, message):
    # a malformed or missing input file is a config error naming the file:
    # exit 2, not a traceback with exit 1
    grid, vg = FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(1.0, 24)
    indir = tmp_path / "ydata"
    write_ydata_csv(str(indir), apply_linear_operator(make_random_state(grid, vg, seed=1),
                                                      PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    defect(indir)
    path = _write_cfg(tmp_path, {"mode": "linear-solve", "input": str(indir),
                                 "out": str(tmp_path / "lin"),
                                 "grid": {"modes": 16, "nz": 24}})
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {indir / 'h.csv'}: ") and message in err
    assert "Traceback" not in err


def _edit_sidecar(edit):
    def defect(indir):
        path = indir / "g.csv.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return defect


def _foreign_h(box_len, modes):
    # h.csv of data on another grid
    def defect(indir):
        grid, vg = FrequencyGrid(1, box_len, modes), VerticalGrid(1.0, 24)
        write_field_csv(str(indir / "h.csv"), apply_linear_operator(
            make_random_state(grid, vg, seed=2), PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)).h)
    return defect


def _nan_in_g(indir):
    # a NaN in the re column of g.csv's first data row
    path = indir / "g.csv"
    header, first, *rest = path.read_text().splitlines()
    first = first.split(",")
    first[-2] = "nan"
    path.write_text("\n".join([header, ",".join(first), *rest]) + "\n")


@pytest.mark.parametrize("mode, defect, name", [
    ("linear-solve", _edit_sidecar(lambda m: {k: v for k, v in m.items() if k != "dim_h"}), "g"),
    ("linear-solve", _edit_sidecar(lambda m: {k: v for k, v in m.items() if k != "depth"}), "g"),
    ("linear-solve", _edit_sidecar(lambda m: {**m, "modes": 5}), "g"),
    ("linear-solve", _edit_sidecar(lambda m: {**m, "nz": 2}), "g"),
    ("linear-solve", _edit_sidecar(lambda m: list(m)), "g"),
    ("linear-solve", _edit_sidecar(lambda m: {**m, "comps": 7}), "g"),
    ("norms", _foreign_h(8 * np.pi, 16), "h"),
    ("linear-solve", _foreign_h(8 * np.pi, 16), "h"),
    ("linear-solve", _foreign_h(6 * np.pi, 32), "h"),
    ("norms", _nan_in_g, "g"),
], ids=["no-dim_h", "no-depth", "modes-5", "nz-2", "json-list", "comps-7",
        "norms-box", "linear-box", "linear-modes", "norms-nan"])
def test_malformed_or_mixed_grid_input_exits_2(tmp_path, capsys, mode, defect, name):
    # a sidecar that lacks a key, holds a rejected grid or count or is no
    # object, a data file from another grid and a value that is not finite
    # are config errors naming the file: exit 2, not a traceback, a silent
    # failure or a mixed report
    grid, vg = FrequencyGrid(1, 6 * np.pi, 16), VerticalGrid(1.0, 24)
    indir = tmp_path / "ydata"
    write_ydata_csv(str(indir), apply_linear_operator(make_random_state(grid, vg, seed=1),
                                                      PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    defect(indir)
    path = _write_cfg(tmp_path, {"mode": mode, "input": str(indir), "out": str(tmp_path / "out"),
                                 "grid": {"box_len": 6 * np.pi, "modes": 16, "nz": 24}})
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {indir / name}.csv: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("dim, mode_index, grid", [(2, 2, {"modes": 32, "nz": 24}),
                                                   (3, 1, {"modes": 16, "nz": 24})])
def test_solver_fields_are_written_on_the_half_lattice(tmp_path, monkeypatch, dim,
                                                       mode_index, grid):
    # every field CSV that nonlinear-solve and linear-solve write is exactly
    # Hermitian, so it takes the half layout, holds one row per nonzero
    # half-lattice entry and reads back equal, each nonzero entry bit for bit
    written = []

    def record(path, field):
        written.append((path, field.copy()))
        return write_field_csv(path, field)

    fgrid = FrequencyGrid(dim - 1, 2 * np.pi * 10, grid["modes"])
    vg = VerticalGrid(1.0, grid["nz"])
    indir = str(tmp_path / "ydata")
    write_ydata_csv(indir, apply_linear_operator(
        make_random_state(fgrid, vg, seed=4, jmax=3), PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, dim)))
    monkeypatch.setattr(fields, "write_field_csv", record)
    nl = str(tmp_path / "nl")
    assert run(RunConfig.from_dict({
        "mode": "nonlinear-solve", "out": nl, "grid": grid, "params": {"dim": dim},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": mode_index}})) == 0
    assert run(RunConfig.from_dict({
        "mode": "linear-solve", "out": str(tmp_path / "lin"), "input": indir,
        "grid": grid, "params": {"dim": dim}})) == 0
    assert len(written) == 8
    for path, field in written:
        meta = json.loads(Path(path + ".json").read_text())
        assert meta["layout"] == "half"
        rows = len(Path(path).read_bytes().split(b"\r\n")) - 2
        nonzero = field.data != 0
        assert rows == meta["rows"] == np.count_nonzero(_half_entries(field) & nonzero)
        back = read_field_csv(path).data
        assert np.array_equal(back, field.data)
        assert np.array_equal(back[nonzero].view(np.uint64), field.data[nonzero].view(np.uint64))


def _half_entries(field):
    """The entries of ``field`` on its grid's half lattice, as a mask."""
    return np.broadcast_to(on_lattice(field.grid.half_mask, field.data.ndim), field.data.shape)


@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_x2_invariant_3d_solve_writes_only_its_nonzero_rows(tmp_path, monkeypatch):
    # forcing at (2, 0) leaves the state on the axis k2 = 0: u.csv holds
    # exactly the state's nonzero half-lattice entries, a small part of the
    # half lattice, and reads back to the state
    written = {}

    def record(path, field):
        written[os.path.basename(path)] = field.copy()
        return write_field_csv(path, field)

    monkeypatch.setattr(fields, "write_field_csv", record)
    out = tmp_path / "nl"
    path = _write_cfg(tmp_path, {
        "mode": "nonlinear-solve", "out": str(out), "params": {"dim": 3},
        "grid": {"box_len": 2 * np.pi * 10, "modes": 16, "nz": 24},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 2}})
    assert main(["--config", path]) == 0
    u = written["u.csv"]
    half, nonzero = _half_entries(u), u.data != 0
    assert not nonzero[:, :, 1:].any()
    table = np.loadtxt(out / "u.csv", delimiter=",", skiprows=1, ndmin=2)
    want = np.argwhere(half & nonzero)
    assert np.array_equal(table[:, :-2], want)
    assert 0 < len(want) < np.count_nonzero(half) // 10
    assert json.loads((out / "u.csv.json").read_text())["rows"] == len(want)
    assert np.array_equal(read_field_csv(out / "u.csv").data, u.data)


def test_perfbench_wave_gate_finds_the_forced_row(tmp_path):
    # the wave gate reads |eta hat| from eta.csv's row at the forced mode:
    # eta is nonzero there, so its row is written and the gate passes
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cfg = workloads._wave(2, 32, 24, 3)
    cfg["out"] = str(tmp_path / "wave")
    assert run(RunConfig.from_dict(cfg)) == 0
    values = workloads.wave_values(cfg["out"], 3)
    assert values["abs_eta_hat"] > 0
    assert workloads._check_wave(cfg, cfg["out"], None) is None
    eta = read_field_csv(tmp_path / "wave" / "eta.csv").data
    assert values["abs_eta_hat"] == abs(eta[0, 3])


def test_linear_solve_records_inverter_work(tmp_path):
    # linear-deep's lattice and input state: its data reaches 2 pi |xi| b = 16,
    # and the 20 frequencies with data are two-sided
    p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
    grid, vg = FrequencyGrid(1, 2.5 * np.pi, 128), VerticalGrid(1.0, 32)
    indir = str(tmp_path / "ydata")
    data = apply_linear_operator(make_random_state(grid, vg, seed=3, jmax=20), p)
    write_ydata_csv(indir, data)
    out = tmp_path / "lin"
    path = _write_cfg(tmp_path, {"mode": "linear-solve", "input": indir, "out": str(out),
                                 "grid": {"box_len": 2.5 * np.pi, "modes": 128, "nz": 32}})
    assert main(["--config", path]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["inverter_solved"] == {"matexp": 0, "twosided": 20}
    inv = cli.LinearInverter(SymbolTable.build(grid, vg, p))
    inv.invert(data)
    at = tuple(summary["inverter_max_cond_at"])
    assert summary["inverter_max_cond"] == inv.cond[at] == inv.cond.max()
    assert inv.backend[at] == "twosided"


@pytest.mark.parametrize("mode", ["linear-solve", "nonlinear-solve",
                                  "roundtrip-test", "asym-check", "symbols"])
def test_backend_cond_limit_reaches_solve_modes(tmp_path, monkeypatch, mode):
    # on this grid (2 pi |xi| b up to 12.8) every mode solves a member whose
    # cond_1(K) passes 1e2 (the inversions' largest are 366 and 561, the
    # table's 1.4e3): under a limit of 1e2 the run exits 1 and its summary
    # names the frequency and the limit
    import stripwave.odesystem as ode
    monkeypatch.setattr(ode, "COND_LIMIT", 1e2)
    box = 2.5 * np.pi
    cfg = {"mode": mode, "out": str(tmp_path / "out"),
           "grid": {"box_len": box, "modes": 32, "nz": 32},
           "fit": {"refine": False}}
    if mode == "linear-solve":
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
        grid, vg = FrequencyGrid(1, box, 32), VerticalGrid(1.0, 32)
        cfg["input"] = str(tmp_path / "ydata")
        write_ydata_csv(cfg["input"],
                        apply_linear_operator(make_random_state(grid, vg, seed=1), p))
    assert main(["--config", _write_cfg(tmp_path, cfg)]) == 1
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False
    assert summary["error"].startswith("IllConditionedCollocation: cond_1(K) ")
    assert "beyond 100 at xi = (" in summary["error"]


@pytest.mark.parametrize("mode", ["linear-solve", "nonlinear-solve",
                                  "roundtrip-test"])
def test_backend_section_reaches_table_and_inverter(tmp_path, monkeypatch, mode):
    seen = []
    box, modes, nz = 2 * np.pi * 10, 48, 32
    grid = FrequencyGrid(1, box, modes)
    live = np.zeros(grid.freq_shape, dtype=bool)

    class Recording(cli.LinearInverter):
        def __init__(self, table, **kwargs):
            super().__init__(table, **kwargs)
            seen.append((table, kwargs, self))

        def invert(self, data):
            # every lattice point where some part of some inverted data is nonzero
            for part in data.parts():
                live[...] |= (part.data != 0).any(axis=0).reshape(len(live), -1).any(axis=1)
            return super().invert(data)

    monkeypatch.setattr(cli, "LinearInverter", Recording)
    cfg = {"mode": mode, "out": str(tmp_path / "out"),
           "grid": {"box_len": box, "modes": modes, "nz": nz},
           "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2},
           "roundtrip": {"count": 1}}
    if mode == "linear-solve":
        p = PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)
        cfg["input"] = str(tmp_path / "ydata")
        write_ydata_csv(cfg["input"], apply_linear_operator(
            make_random_state(grid, VerticalGrid(1.0, nz), seed=1), p))
    assert main(["--config", _write_cfg(tmp_path, cfg)]) == 0
    [(table, kwargs, inverter)] = seen
    # the inverter is built on the table alone
    assert kwargs == {} and inverter.table is table
    # the table solved exactly the frequencies whose data, at xi or -xi,
    # is nonzero, each two-sided but xi = 0; in dim_h 1 the lattice stores
    # xi >= 0, and the data at -xi is the conjugate
    solved, half = table.solved, grid.half_mask
    assert np.array_equal(solved[half], live[half])
    assert solved.any() and not solved.all()
    assert np.array_equal((table.backend == "twosided")[solved], (grid.xi2 > 0)[solved])
    assert (table.backend[~solved] == None).all()  # noqa: E711
    # the manifest records the table's half lattice and its worst cond
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    half = table.backend[grid.half_mask]
    assert summary["table_solved"] == {b: int((half == b).sum())
                                       for b in ("matexp", "twosided")}
    assert summary["table_max_cond"] == table.cond[tuple(summary["table_max_cond_at"])] \
        == table.cond.max()


def test_symbols_mode_records_table_solves(tmp_path):
    # the default grid (box 20 pi, 256 modes, nz 48): xi = 0 in closed form,
    # every other symbol two-sided, with cond_1(K) ~ (2 pi |xi| b)^2 largest
    # at the highest frequency
    out = tmp_path / "sym"
    assert run(RunConfig.from_dict({"mode": "symbols", "out": str(out)})) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["table_solved"] == {"matexp": 1, "twosided": 128}
    assert summary["table_max_cond_at"] == [128]
    assert summary["table_max_cond"] < 1e4


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
    trace = json.loads(Path(out, "solve_trace.json").read_text())
    assert trace["converged"] is True
    assert trace["residuals"][-1] <= 1e-9
    assert os.path.exists(os.path.join(out, "eulerian.csv"))
    summary = json.loads(Path(out, "manifest.json").read_text())["summary"]
    assert summary["amplitude_requested"] == summary["amplitude_used"] == 1e-3
    assert summary["contraction_per_amplitude"] == trace["contraction"][0] / 1e-3
    assert summary["gate_q1"] > 0 and summary["gate_margin"] > 0


def test_failed_gate_records_q1_and_margin(tmp_path, capsys):
    # sigma1 = 10 breaks the coupling condition: the run exits 2 before any
    # solve, and its manifest keeps the estimate and the (negative) margin
    out = tmp_path / "gate"
    path = _write_cfg(tmp_path, {"mode": "nonlinear-solve", "out": str(out),
                                 "params": {"sigma1": 10.0}, **SMALL})
    assert main(["--config", path]) == 2
    assert "parameter gate failed" in capsys.readouterr().err
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False
    q1 = summary["gate_q1"]
    assert q1 > 0
    assert summary["gate_margin"] == pytest.approx(2.0 - 100.0 * q1 * q1, rel=1e-12)
    assert summary["gate_margin"] < 0
    assert not (out / "solve_trace.json").exists()


def _failed_solve(tmp_path, cfg):
    """Run a nonlinear-solve that must fail; its summary and trace."""
    out = tmp_path / "nl"
    path = _write_cfg(tmp_path, dict(cfg, mode="nonlinear-solve", out=str(out)))
    assert main(["--config", path]) == 1
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False
    trace = json.loads((out / "solve_trace.json").read_text())
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
    # the table solved xi = 0 and the 5 modes inside the 2/3 cutoff of 16,
    # where the residuals live, not all 9 of the half lattice
    assert summary["table_solved"] == {"matexp": 1, "twosided": 5}
    assert summary["error"].startswith(("Diverged", "NotConverged"))


def test_exhausted_budget_writes_trace(tmp_path):
    _, trace = _failed_solve(tmp_path, {
        "grid": {"modes": 16, "nz": 24}, "maxiter": 0,
        "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2}})
    assert len(trace["residuals"]) == 1


@pytest.mark.filterwarnings("ignore::stripwave.errors.AliasingWarning")
def test_nonfinite_residual_diverges_at_once(tmp_path):
    # at depth 1e-300 the first update makes the residual's norm overflow
    # (its coefficients stay finite): the solve stops there as Diverged with
    # both residuals in its trace, instead of inverting non-finite data until
    # the budget of 50 runs out, and raises no numpy overflow warning.  The
    # trace is strict JSON: inf is written as the string "inf"
    summary, trace = _failed_solve(tmp_path, {
        "params": {"depth": 1e-300}, "grid": {"modes": 8, "nz": 8},
        "forcing": {"mode_index": 2}})
    assert len(trace["residuals"]) == 2 and np.isfinite(trace["residuals"][0])
    assert float(trace["residuals"][1]) == np.inf and trace["iterations"] == 1
    assert trace["contraction"] == ["inf"]
    assert summary["error"] == "Diverged: residual inf at iteration 1"

    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")
    json.loads((tmp_path / "nl" / "solve_trace.json").read_text(), parse_constant=refuse)


def test_forcing_is_validated_only_by_nonlinear_solve(tmp_path, capsys):
    # the default forcing's mode_index 3 lies beyond the cutoff 2 of 8 modes:
    # symbols reads no forcing and runs, nonlinear-solve refuses it
    cfg = {"grid": {"modes": 8, "nz": 8}, "out": str(tmp_path / "out")}
    assert main(["--config", _write_cfg(tmp_path, dict(cfg, mode="symbols"))]) == 0
    capsys.readouterr()
    assert main(["--config", _write_cfg(tmp_path, dict(cfg, mode="nonlinear-solve"))]) == 2
    assert capsys.readouterr().err == ("config error: forcing mode_index 3 outside 0 .. the "
                                       "2/3 cutoff 2 of 8 modes\n")


def test_negative_mode_index_is_refused(tmp_path, capsys):
    # -1 would solve the +1 problem and record -1: refused at load
    path = _write_cfg(tmp_path, {"mode": "nonlinear-solve", "out": str(tmp_path / "out"),
                                 "grid": {"modes": 16, "nz": 24},
                                 "forcing": {"mode_index": -1}})
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: forcing mode_index -1 outside 0")
    assert not (tmp_path / "out").exists()


SMALL = {"grid": {"modes": 16, "nz": 24}}


@pytest.mark.parametrize("cfg, key", [
    ({"mode": "roundtrip-test", "roundtrip": {"count": 0}}, "roundtrip.count"),
    ({"mode": "nonlinear-solve", "maxiter": -1}, "maxiter"),
    ({"grid": {"box_len": -1}}, "grid.box_len"),
    ({"grid": {"modes": 16.0}}, "grid.modes"),
    ({"mode": "nonlinear-solve", "closure": {"visc": "foo"}, **SMALL}, "closure.visc"),
    ({"mode": "nonlinear-solve", "tol": {"picard": "x"}, **SMALL}, "tol.picard"),
    ({"mode": "roundtrip-test", "tol": {"roundtrip": "x"}, **SMALL}, "tol.roundtrip"),
    # the retired backend section is an unknown key, whatever it holds
    ({"mode": "nonlinear-solve", "backend": {"split": "x"}, **SMALL},
     "unknown config keys: ['backend']"),
    ({"backend": {"cond_limit": -1}, **SMALL}, "unknown config keys: ['backend']"),
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
    ({"backend": {"split": NAN}, **SMALL}, "unknown config keys: ['backend']"),
    ({"backend": {"symbol_split": NAN}, **SMALL}, "unknown config keys: ['backend']"),
    ({"backend": {"cond_limit": 1e12}, **SMALL}, "unknown config keys: ['backend']"),
], ids=["count-0", "maxiter-negative", "box-negative", "modes-float", "visc-unknown",
        "picard-tol-string", "roundtrip-tol-string", "split-string",
        "cond-limit-negative", "seed-string", "out-number", "mu-string", "dim-float",
        "amplitude-string", "xi-seq-empty", "xi-seq-increasing", "mode-index-aliased",
        "roundtrip-tol-negative", "picard-tol-negative", "fit-rel-zero",
        "stability-nan", "seed-negative", "box-nan", "box-inf", "amplitude-nan",
        "split-nan", "symbol-split-nan", "cond-limit-default"])
def test_out_of_range_config_exits_2(tmp_path, capsys, cfg, key):
    # rejected at load, before any output, by a message naming the key
    path = _write_cfg(tmp_path, {"out": str(tmp_path / "out"), **cfg})
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(part in err for part in key.split("."))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["", "file", "file/sub"], ids=["empty", "file", "below-file"])
def test_bad_output_path_exits_2(tmp_path, capsys, out):
    # an empty output path in the config, and an existing file or a path
    # below one given by --out, cannot be made a directory: a config error
    # naming the path (exit 2), not a numerical failure with a traceback
    (tmp_path / "file").write_text("")
    path = str(tmp_path / out) if out else ""
    cfg = {"mode": "symbols", **SMALL}
    argv = (["--config", _write_cfg(tmp_path, cfg), "--out", path] if out
            else ["--config", _write_cfg(tmp_path, {**cfg, "out": path})])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {path!r}: ")
    assert "Traceback" not in err


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
    rep = json.loads(Path(out, "roundtrip_report.json").read_text())
    assert rep["max_data_misfit"] < 1e-6


def test_roundtrip_peak_does_not_grow_with_count(tmp_path):
    # each trial's state, data, inverse and misfit tuple are released before
    # the next trial draws, so after a warm-up run that builds the grid's
    # shared tables four trials trace within 64 KiB of one at 3D modes 16,
    # nz 12, a quarter of one state there: a trial that outlives its loop
    # step breaks it.  The peak is what is checked: at nz 12 the round trip
    # may miss its tolerance (ROADMAP item 2) and exit 1
    def job(name, count):
        cfg = {"mode": "roundtrip-test", "params": {"dim": 3}, "roundtrip": {"count": count},
               "grid": {"modes": 16, "nz": 12}, "out": str(tmp_path / name)}
        return ["--config", _write_cfg(tmp_path, cfg, f"{name}.json")]

    assert main(job("warm", 1)) in (0, 1)
    peaks = {}
    for count in (1, 4):
        rc, _, peaks[count] = traced_peak(main, job(f"count{count}", count))
        assert rc in (0, 1)
        assert json.loads((tmp_path / f"count{count}" / "roundtrip_report.json")
                          .read_text())["count"] == count
    assert peaks[4] <= peaks[1] + 64 * 2 ** 10


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 8.00 EiB")


OUT_OF_MEMORY = "config error: out of memory for this grid (dim 3, modes 16, nz 12)\n"


def test_out_of_memory_while_validating_exits_2(tmp_path, capsys, monkeypatch):
    # validation builds the grids: a grid too large for memory is refused
    # with one line naming it, no traceback and no output
    monkeypatch.setattr(config, "FrequencyGrid", _out_of_memory)
    path = _write_cfg(tmp_path, {"params": {"dim": 3}, "grid": {"modes": 16, "nz": 12},
                                 "out": str(tmp_path / "out")})
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err == OUT_OF_MEMORY
    assert not (tmp_path / "out").exists()


def test_out_of_memory_while_running_exits_2(tmp_path, capsys, monkeypatch):
    # out of memory in a run: the same line, and a failed manifest that
    # records the MemoryError
    monkeypatch.setattr(cli, "SymbolTable", _out_of_memory)
    path = _write_cfg(tmp_path, {"mode": "roundtrip-test", "params": {"dim": 3},
                                 "grid": {"modes": 16, "nz": 12}, "out": str(tmp_path / "out")})
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err == OUT_OF_MEMORY
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False
    assert summary["error"] == "MemoryError: Unable to allocate 8.00 EiB"


def test_out_of_memory_while_reading_names_the_file(tmp_path, capsys, monkeypatch):
    # a sidecar whose grid is too large for memory is the input file's error:
    # one line naming the CSV, not the config's grid, and a failed manifest
    grid, vg = FrequencyGrid(1, 2 * np.pi * 10, 16), VerticalGrid(1.0, 24)
    indir = tmp_path / "ydata"
    write_ydata_csv(str(indir), apply_linear_operator(make_random_state(grid, vg, seed=1),
                                                      PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    monkeypatch.setattr(fields, "FrequencyGrid", _out_of_memory)
    path = _write_cfg(tmp_path, {"mode": "linear-solve", "input": str(indir),
                                 "out": str(tmp_path / "out"), "grid": {"modes": 16, "nz": 24}})
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err == (f"config error: {indir / 'f.csv'}: bad sidecar "
                                       "(MemoryError: Unable to allocate 8.00 EiB)\n")
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    assert summary["ok"] is False


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
    rep = json.loads(Path(out, "norms_report.json").read_text())
    assert rep["ydata_norm"] > 0


def test_cli_overrides(tmp_path):
    path = _write_cfg(tmp_path, {"mode": "symbols",
                                 "grid": {"modes": 16, "nz": 24},
                                 "out": str(tmp_path / "a")})
    rc = main(["--config", path, "--out", str(tmp_path / "b"), "--seed", "3"])
    assert rc == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


SCIPY_PROBE = """
import json, sys
loaded = lambda: "scipy.linalg" in sys.modules
steps = {}
import stripwave
steps["import stripwave"] = loaded()
import stripwave.cli
from stripwave.config import RunConfig
RunConfig.from_file(sys.argv[1])
steps["cli and wave-2d config"] = loaded()
assert stripwave.cli.main(["--config", sys.argv[2]]) == 0
steps["nonlinear-solve"] = loaded()
assert stripwave.cli.main(["--config", sys.argv[3]]) == 0
steps["3D roundtrip-test"] = loaded()
assert stripwave.cli.main(["--config", sys.argv[4]]) == 0
steps["linear-solve"] = loaded()
assert stripwave.cli.main(["--config", sys.argv[5]]) == 0
steps["linear-solve, forced beyond the panels"] = loaded()
print(json.dumps(steps))
"""


def test_scipy_linalg_never_loads(tmp_path):
    # a fresh interpreter: importing the package, loading the wave-2d config,
    # a small 2D nonlinear-solve, a small 3D roundtrip-test (diagonalized
    # transverse solves), a linear-solve whose table is two-sided
    # (j = 1 .. 14) and a linear-solve at nz 24 whose data reach
    # 2 pi |xi| b = 6.4 |j| = 64, beyond the panels' resolution from 44
    # (its four forced problems there are solved on sweeps of subpanels),
    # all leave scipy.linalg unloaded
    wave = _write_cfg(tmp_path, {
        "mode": "nonlinear-solve", "params": {"dim": 2},
        "grid": {"box_len": 2 * np.pi * 10, "modes": 256, "nz": 48},
        "closure": {"visc": "tempdep", "heat": "tempdep", "sigma": "smooth"},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 3}}, "wave.json")
    small = _write_cfg(tmp_path, {
        "mode": "nonlinear-solve", "out": str(tmp_path / "nl"), **SMALL,
        "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 2}}, "nl.json")
    roundtrip = _write_cfg(tmp_path, {
        "mode": "roundtrip-test", "out": str(tmp_path / "rt"), "params": {"dim": 3},
        "grid": {"box_len": 2 * np.pi * 10, "modes": 16, "nz": 24},
        "roundtrip": {"count": 2}}, "rt.json")
    grid, vg = FrequencyGrid(1, 2.5 * np.pi, 32), VerticalGrid(1.0, 24)
    write_ydata_csv(str(tmp_path / "ydata"), apply_linear_operator(
        make_random_state(grid, vg, seed=3, jmax=14), PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    linear = _write_cfg(tmp_path, {
        "mode": "linear-solve", "out": str(tmp_path / "lin"), "input": str(tmp_path / "ydata"),
        "grid": {"box_len": 2.5 * np.pi, "modes": 32, "nz": 24}}, "lin.json")
    high = FrequencyGrid(1, 2.5 * np.pi / 8, 32)
    write_ydata_csv(str(tmp_path / "high"), apply_linear_operator(
        make_random_state(high, vg, seed=3, jmax=10), PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    beyond = _write_cfg(tmp_path, {
        "mode": "linear-solve", "out": str(tmp_path / "beyond"), "input": str(tmp_path / "high"),
        "grid": {"box_len": 2.5 * np.pi / 8, "modes": 32, "nz": 24}}, "beyond.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, wave, small, roundtrip, linear,
                           beyond],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import stripwave": False, "cli and wave-2d config": False,
        "nonlinear-solve": False, "3D roundtrip-test": False, "linear-solve": False,
        "linear-solve, forced beyond the panels": False}
    summary = json.loads((tmp_path / "lin" / "manifest.json").read_text())["summary"]
    assert summary["table_solved"] == {"matexp": 0, "twosided": 14}
    summary = json.loads((tmp_path / "beyond" / "manifest.json").read_text())["summary"]
    assert summary["inverter_solved"] == {"matexp": 0, "twosided": 10}

"""Command line entry point: run one verification or solve mode.

Every run writes a manifest echoing the fully resolved configuration next to
its data artifacts.  Exit code 0 means all checks in the mode passed, 1 a
numerical failure, 2 a configuration problem.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .asymptotics import full_report
from .config import RunConfig
from .errors import ConfigError, SolverFailure, StripwaveError
from .fields import read_ydata_csv, write_csv, write_json, write_ydata_csv
from .linear import (LinearInverter, apply_linear_operator, make_random_state,
                     state_norm)
from .nonlinear import eulerian_grid_samples, picard_solve
from .norms import check_divergence_trace, ydata_norm
from .odesystem import BACKENDS, SymbolTable
from .params import estimate_q_norms, check_parameter_gate, validate_params


def _record_solves(summary: dict, grid, **solved_by):
    """Into the summary under each name of ``solved_by``: the half-lattice
    frequencies that its value (a symbol table so far, or an inverter in its
    last inversion) solved per backend, and its largest condition estimate
    with the lattice index where it occurs.  An inverter records nothing
    before it inverts."""
    for name, solved in solved_by.items():
        if solved.backend is None:
            continue
        half = list(solved.backend[grid.half_mask])
        worst = np.unravel_index(np.argmax(solved.cond), solved.cond.shape)
        summary[f"{name}_solved"] = {b: half.count(b) for b in BACKENDS}
        summary[f"{name}_max_cond"] = float(solved.cond[worst])
        summary[f"{name}_max_cond_at"] = [int(i) for i in worst]


def run(config: RunConfig) -> int:
    r = config.raw
    outdir = r["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir!r}: {exc.strerror}") from exc
    summary = {"mode": r["mode"], "ok": True}
    try:
        bad = validate_params(config.params())
        if bad:
            raise ConfigError("; ".join(bad))
        return _dispatch(config, summary)
    except Exception as exc:
        summary["ok"] = False
        summary["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        write_json(os.path.join(outdir, "manifest.json"),
                   {"config": config.manifest(), "summary": summary})


def _dispatch(config: RunConfig, summary: dict) -> int:
    r = config.raw
    outdir = r["out"]
    p = config.params()
    grid = config.frequency_grid()
    vgrid = config.vertical_grid()
    mode = r["mode"]

    if mode == "symbols":
        table = SymbolTable.build(grid, vgrid, p)
        _record_solves(summary, grid, table=table)
        # one row per half-lattice frequency in the field CSVs' order: xi,
        # the surface traces of psi, delta and q, rho, `backend` and `cond`
        half = grid.half_mask
        header = [f"xi{i+1}" for i in range(grid.dim_h)]
        columns = list(grid.xi_vectors[half].T)
        surf = table.y[half][..., -1]
        for name, val in (("om_vn_surf", surf[:, 1]), ("om_temp_surf", surf[:, 2]),
                          ("om_q_surf", surf[:, 3]), ("rho", table.rho[half])):
            header += [f"re_{name}", f"im_{name}"]
            columns += [val.real, val.imag]
        write_csv(os.path.join(outdir, "symbols.csv"), header + ["backend", "cond"],
                  columns + [table.backend[half], table.cond[half]])
        neg = (grid.xi2 > 0) & (table.y[..., 1, -1].real >= 0)
        summary["rows"] = int(half.sum())
        summary["re_om_vn_negative"] = not neg.any()
        summary["ok"] = not neg.any()

    elif mode == "asym-check":
        report = full_report(p, grid, vgrid, refine=r["fit"]["refine"],
                             xi_seq=tuple(r["fit"]["xi_seq"]),
                             rel_tol=r["tol"]["fit_rel"],
                             stability_tol=r["tol"]["stability"])
        write_json(os.path.join(outdir, "asym_report.json"), report.to_jsonable())
        summary["claims"] = len(report.rows)
        summary["ok"] = report.passed()

    elif mode == "linear-solve":
        if not r["input"]:
            raise ConfigError("linear-solve requires input: directory of data CSVs")
        data = read_ydata_csv(r["input"])
        inv = LinearInverter(SymbolTable(data.grid, data.vgrid, p))
        state = inv.invert(data)
        _record_solves(summary, data.grid, table=inv.table, inverter=inv)
        back = apply_linear_operator(state, p)
        back.axpy(-1.0, data)
        data_norm = ydata_norm(data)
        misfit = ydata_norm(back) / max(data_norm, 1e-300)
        write_ydata_csv(outdir, state)
        dt = check_divergence_trace(data)
        write_json(os.path.join(outdir, "linear_report.json"), {
            "roundtrip_misfit": misfit,
            "state_norm": state_norm(state),
            "data_norm": data_norm,
            "divergence_trace_residual": dt.residual_hneg1,
            "divergence_trace_zero_mode": dt.zero_mode_abs,
        })
        summary["roundtrip_misfit"] = misfit
        summary["ok"] = misfit <= r["tol"]["roundtrip"]

    elif mode == "nonlinear-solve":
        c = config.constitutive()
        # the pairing-norm sup over the grid's own frequency range
        q1 = estimate_q_norms(vgrid, grid.xi_max * np.geomspace(1 / 16, 1, 5))
        ok_gate, margin = check_parameter_gate(p, q1)
        summary["gate_q1"], summary["gate_margin"] = q1, margin
        if not ok_gate:
            raise ConfigError(f"parameter gate failed (margin {margin:.3e})")
        forcing = config.forcing()
        inv = LinearInverter(SymbolTable(grid, vgrid, p))
        trace_path = os.path.join(outdir, "solve_trace.json")
        try:
            trace = picard_solve(forcing, p, c, grid, vgrid, tol=r["tol"]["picard"],
                                 maxiter=r["maxiter"], inverter=inv)
        except SolverFailure as exc:
            # the trace is the only record of a failed solve
            write_json(trace_path, exc.trace.to_jsonable())
            raise
        finally:
            _record_solves(summary, grid, table=inv.table, inverter=inv)
        write_json(trace_path, trace.to_jsonable())
        write_ydata_csv(outdir, trace.state)
        samples = eulerian_grid_samples(trace.state)
        n = grid.dim_h + 1
        write_csv(os.path.join(outdir, "eulerian.csv"),
                  [f"y{i+1}" for i in range(n)] + ["eta"]
                  + [f"w{i+1}" for i in range(n)] + ["temperature", "pressure"],
                  [*samples["points"].T, samples["eta"], *samples["velocity"],
                   samples["temperature"], samples["pressure"]])
        summary["iterations"] = trace.iterations
        summary["final_residual"] = trace.residuals[-1]
        summary["amplitude_requested"] = forcing.amplitude
        summary["amplitude_used"] = trace.amplitude_used
        if trace.contraction:       # empty when the rest state solves
            summary["contraction_per_amplitude"] = trace.contraction[0] / trace.amplitude_used

    elif mode == "roundtrip-test":
        inv = LinearInverter(SymbolTable(grid, vgrid, p))
        rng_seed = r["seed"]
        worst_data, worst_state = 0.0, 0.0
        for trial in range(r["roundtrip"]["count"]):
            st = make_random_state(grid, vgrid, seed=rng_seed + trial)
            data = apply_linear_operator(st, p)
            st2 = inv.invert(data)
            back = apply_linear_operator(st2, p)
            back.axpy(-1.0, data)
            worst_data = max(worst_data, ydata_norm(back) / ydata_norm(data))
            st2.axpy(-1.0, st)
            worst_state = max(worst_state, state_norm(st2) / state_norm(st))
        _record_solves(summary, grid, table=inv.table, inverter=inv)
        write_json(os.path.join(outdir, "roundtrip_report.json"), {
            "count": r["roundtrip"]["count"],
            "max_data_misfit": worst_data,
            "max_state_misfit": worst_state,
            "tolerance": r["tol"]["roundtrip"],
        })
        summary["max_data_misfit"] = worst_data
        summary["max_state_misfit"] = worst_state
        summary["ok"] = max(worst_data, worst_state) <= r["tol"]["roundtrip"]

    elif mode == "norms":
        if not r["input"]:
            raise ConfigError("norms mode requires input: directory of data CSVs")
        data = read_ydata_csv(r["input"])
        dt = check_divergence_trace(data)
        write_json(os.path.join(outdir, "norms_report.json"), {
            "ydata_norm": ydata_norm(data),
            "divergence_trace_residual": dt.residual_hneg1,
            "divergence_trace_zero_mode": dt.zero_mode_abs,
        })

    return 0 if summary["ok"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="stripwave",
                                 description="spectral traveling-wave solver "
                                             "and verification suite")
    ap.add_argument("--config", help="path to a JSON config file")
    ap.add_argument("--mode", help="override the config mode")
    ap.add_argument("--out", help="override the output directory")
    ap.add_argument("--seed", type=int, help="seed for randomized suites")
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig.from_dict({})
        overrides = {}
        if args.mode:
            overrides["mode"] = args.mode
        if args.out:
            overrides["out"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            merged = cfg.manifest()
            merged.update(overrides)
            cfg = RunConfig.from_dict(merged)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, StripwaveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

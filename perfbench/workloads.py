"""Workload definitions: seeded inputs, CLI configs and per-job correctness gates.

Every workload is one ``stripwave`` CLI job that a closed-loop client repeats.
The stripwave package is imported lazily, after ``run.py`` has put ``src/`` on
the path and fixed the BLAS thread settings.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

PICARD_TOL = 1e-9
ROUNDTRIP_TOL = 1e-6
REF_RTOL = 1e-6
# floor for columns whose reference norm is zero or round-off, relative to the
# largest field column of the same reference
REF_FLOOR = 1e-12

WAVE_CLOSURE = {"visc": "tempdep", "heat": "tempdep", "sigma": "smooth"}
WAVE_AMPLITUDE = 1e-3
WAVE_MODE_INDICES = (2, 3, 4, 5)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Why each workload exists (printed with every result).
WHY = {
    "wave-2d": "cold forced-solve preparation (GL quadrature exponentials) "
               "dominates a 2D nonlinear solve on the CLI default grid",
    "roundtrip-3d": "12 inversions reuse cached per-frequency preparation; "
                    "no nonlinear layer",
    "linear-deep": "forced solves on the dense collocation path (nz 80), "
                   "CSV input, no preparation reuse",
}
NAMES = tuple(WHY)

# Kernels of run.host_probe whose time follows each workload's job time
# through the slow phases of a shared host.  In runs across such phases
# wave-2d slowed down with the whole probe; the other two slowed less, like
# the dense LU and the Python loop, and the small-solve kernel over-corrected
# them.
PROBE_KERNELS = {
    "wave-2d": ("small", "dense", "python"),
    "roundtrip-3d": ("dense", "python"),
    "linear-deep": ("dense", "python"),
}


def _grid(dim, box_len, modes, nz):
    return {"params": {"dim": dim},
            "grid": {"box_len": box_len, "modes": modes, "nz": nz},
            "tol": {"picard": PICARD_TOL, "roundtrip": ROUNDTRIP_TOL}}


def _wave(dim, modes, nz, mode_index):
    cfg = _grid(dim, 2.0 * math.pi * 10.0, modes, nz)
    cfg.update(mode="nonlinear-solve", closure=dict(WAVE_CLOSURE),
               forcing={"preset": "mixed", "amplitude": WAVE_AMPLITUDE,
                        "mode_index": mode_index})
    return cfg


def _roundtrip(modes, nz, count, seed):
    cfg = _grid(3, 2.0 * math.pi * 10.0, modes, nz)
    cfg.update(mode="roundtrip-test", roundtrip={"count": count}, seed=seed)
    return cfg


def _linear(modes, nz, input_dir):
    cfg = _grid(2, 2.5 * math.pi, modes, nz)
    cfg.update(mode="linear-solve", input=input_dir)
    return cfg


def mode_index_for(seed: int) -> int:
    """Wave forcing mode drawn from 2-5 by the workload seed."""
    return WAVE_MODE_INDICES[int(np.random.default_rng(seed).integers(4))]


class Workload:
    """One workload at one seed: its job config, a warm-up config and the gate
    every job's outputs must pass.

    The warm-up runs the job's own grid, because the first full-size job of a
    process measured 20-40% slower than later ones.  roundtrip-3d warms up with
    a single inversion on its own grid.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WHY:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.mode_index = mode_index_for(seed)
        self.probe_kernels = PROBE_KERNELS[name]
        self.expected_state_norm = None
        if name == "wave-2d":
            self.config = self.warmup = _wave(2, 256, 48, self.mode_index)
        elif name == "roundtrip-3d":
            self.config = _roundtrip(32, 24, 12, seed)
            self.warmup = _roundtrip(32, 24, 1, seed)
        else:
            self.config = self.warmup = _linear(128, 80, os.path.join(workdir, "input"))

    def prepare(self) -> dict:
        """Write the config files (and, for linear-deep, the CSV data
        directory) before any timing.  Returns {"job": path, "warmup": path}."""
        os.makedirs(self.workdir, exist_ok=True)
        if self.config["mode"] == "linear-solve":
            self.expected_state_norm = _write_linear_input(self.config, self.seed)
        paths = {}
        for key, cfg in (("job", self.config), ("warmup", self.warmup)):
            path = os.path.join(self.workdir, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
            paths[key] = path
        return paths

    # -- correctness gate ------------------------------------------------------

    def check(self, cfg: dict, outdir: str, rc, reference: dict | None) -> str | None:
        """Return None when the job passed, else the reason it failed."""
        if rc != 0:
            return f"exit status {rc!r}"
        manifest = _load(outdir, "manifest.json")
        if manifest["summary"].get("ok") is not True:
            return f"summary not ok: {manifest['summary']}"
        mode = cfg["mode"]
        if mode == "nonlinear-solve":
            return _check_wave(cfg, outdir, reference)
        if mode == "roundtrip-test":
            rep = _load(outdir, "roundtrip_report.json")
            if rep["count"] != cfg["roundtrip"]["count"]:
                return f"round trip count {rep['count']}"
            worst = max(rep["max_data_misfit"], rep["max_state_misfit"])
            if not worst <= ROUNDTRIP_TOL:
                return f"round trip misfit {worst:.3e}"
            return None
        rep = _load(outdir, "linear_report.json")
        _require(outdir, ("u.csv", "psi.csv", "pres.csv", "eta.csv"))
        if not rep["roundtrip_misfit"] <= ROUNDTRIP_TOL:
            return f"roundtrip_misfit {rep['roundtrip_misfit']:.3e}"
        expect = self.expected_state_norm
        if not _close(rep["state_norm"], expect):
            return f"state_norm {rep['state_norm']!r} != generated {expect!r}"
        if reference is not None and not _close(rep["state_norm"], reference["state_norm"]):
            return f"state_norm {rep['state_norm']!r} != reference {reference['state_norm']!r}"
        return None

    def reference(self, table: dict) -> dict | None:
        """Stored reference for this workload's job inputs, if any."""
        by_name = table.get(self.name, {})
        if self.name.startswith("wave"):
            return by_name.get(f"mode_index={self.mode_index}")
        return by_name.get(f"seed={self.seed}")


def _write_linear_input(cfg: dict, seed: int) -> float:
    """Seeded admissible state -> data tuple -> CSV directory.  Returns the
    generated state's norm, which the inverse must reproduce."""
    from stripwave.config import RunConfig
    from stripwave.fields import write_ydata_csv
    from stripwave.linear import apply_linear_operator, make_random_state, state_norm

    rc = RunConfig.from_dict(cfg)
    state = make_random_state(rc.frequency_grid(), rc.vertical_grid(),
                              seed=seed, jmax=20)
    write_ydata_csv(cfg["input"], apply_linear_operator(state, rc.params()))
    return state_norm(state)


def _check_wave(cfg: dict, outdir: str, reference: dict | None) -> str | None:
    _require(outdir, ("u.csv", "psi.csv", "pres.csv", "eta.csv"))
    tr = _load(outdir, "solve_trace.json")
    if tr["converged"] is not True:
        return "not converged"
    if not tr["residuals"][-1] <= PICARD_TOL:
        return f"final residual {tr['residuals'][-1]:.3e}"
    if not all(c <= 0.5 for c in tr["contraction"]):
        return f"contraction {max(tr['contraction']):.3f} > 0.5"
    want = cfg["forcing"]["amplitude"] / 3.0
    if tr["amplitude_used"] != want:
        return f"amplitude_used {tr['amplitude_used']!r} != requested {want!r}"
    if "retried_after_divergence" in tr["diagnostics"]:
        return "retried after divergence"
    values = wave_values(outdir, cfg["forcing"]["mode_index"])
    if reference is None:
        return None
    floor = REF_FLOOR * max(abs(v) for k, v in reference.items()
                            if not k.startswith("norm_y"))
    for key, ref in reference.items():
        got = values.get(key)
        if got is None or not abs(got - ref) <= REF_RTOL * abs(ref) + floor:
            return f"{key} = {got!r}, reference {ref!r}"
    return None


def wave_values(outdir: str, mode_index: int) -> dict:
    """|eta hat| at the forced mode and the 2-norm of every eulerian.csv column."""
    with open(os.path.join(outdir, "eta.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    want = [str(mode_index)] + ["0"] * (len(rows[0]) - 4)
    hit = [r for r in rows[1:] if r[0] == "0" and r[1:-2] == want]
    if len(hit) != 1:
        raise ValueError(f"forced mode {mode_index} not found once in eta.csv")
    out = {"abs_eta_hat": math.hypot(float(hit[0][-2]), float(hit[0][-1]))}
    with open(os.path.join(outdir, "eulerian.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float)
    if cols.ndim != 2 or cols.shape[1] != len(rows[0]) or not np.all(np.isfinite(cols)):
        raise ValueError("eulerian.csv is ragged or holds non-finite values")
    for j, head in enumerate(rows[0]):
        out[f"norm_{head}"] = float(np.linalg.norm(cols[:, j]))
    return out


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _require(outdir: str, names) -> None:
    missing = [n for n in names if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        raise FileNotFoundError(f"missing artifacts {missing}")


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REF_RTOL * abs(ref)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)

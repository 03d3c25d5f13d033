"""Run configuration: JSON file with strictly validated keys."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .asymptotics import checked_xi_seq
from .errors import ConfigError
from .grids import FrequencyGrid, VerticalGrid
from .nonlinear import ForcingData, make_forcing_preset
from .params import PhysicalParams, make_constitutive, validate_params

MODES = ("symbols", "asym-check", "linear-solve", "nonlinear-solve",
         "roundtrip-test", "norms")

_DEFAULTS = {
    "mode": "symbols",
    "params": {"mu": 1.0, "kappa": 1.0, "grav": 1.0, "depth": 1.0,
               "gamma": 1.0, "sigma0": 1.0, "sigma1": 0.1, "dim": 2},
    "closure": {"visc": "newtonian", "heat": "fourier", "sigma": "smooth"},
    "grid": {"box_len": 2.0 * math.pi * 10.0, "modes": 256, "nz": 48},
    "tol": {"picard": 1e-9, "roundtrip": 1e-6, "fit_rel": 0.01,
            "stability": 0.10},
    "forcing": {"preset": "heat-only", "amplitude": 1e-3, "mode_index": 3},
    "roundtrip": {"count": 5},
    "fit": {"xi_seq": [1e-2, 5e-3, 2.5e-3], "refine": True},
    "input": None,
    "out": "out",
    "seed": 0,
    "maxiter": 50,
}


# per type of default: the types a value given in its place may have
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               list: ((list,), "a list"),
               type(None): ((str, type(None)), "a string or null")}


def _merge_strict(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"section {path or 'top level'} must be an object")
    out = {}
    for key, base in defaults.items():
        if key in given:
            val = given[key]
            if isinstance(base, dict) and base:
                out[key] = _merge_strict(base, val, f"{path}{key}.")
            else:
                kinds, name = _JSON_TYPES[type(base)]
                if type(val) not in kinds:      # a bool is no int in JSON
                    raise ConfigError(f"{path}{key} must be {name}, got {val!r}")
                out[key] = val
        else:
            out[key] = json.loads(json.dumps(base))     # a copy: callers may mutate it
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


@dataclass
class RunConfig:
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, given: dict) -> "RunConfig":
        merged = _merge_strict(_DEFAULTS, given or {})
        cfg = cls(raw=merged)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                given = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(given)

    def validate(self):
        r = self.raw
        if r["mode"] not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {r['mode']!r}")
        for key, val, low in (("maxiter", r["maxiter"], 0), ("seed", r["seed"], 0),
                              ("roundtrip.count", r["roundtrip"]["count"], 1)):
            if val < low:
                raise ConfigError(f"{key} must be an integer >= {low}, got {val!r}")
        # "not > 0" also rejects the NaN that json reads
        for key, val in r["tol"].items():
            if not val > 0:
                raise ConfigError(f"tol.{key} must be positive, got {val!r}")
        amplitude = r["forcing"]["amplitude"]
        if not math.isfinite(amplitude):
            raise ConfigError(f"forcing.amplitude must be finite, got {amplitude!r}")
        try:
            checked_xi_seq(r["fit"]["xi_seq"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"fit.xi_seq: {exc}") from exc
        # bad physical parameters are left to run(), which records them in a
        # failed manifest; the grids, closures and forcing read them, so
        # wait for those; nonlinear-solve alone reads the forcing
        if not validate_params(self.params()):
            for section, build in (("grid", self.frequency_grid),
                                   ("grid", self.vertical_grid),
                                   ("closure", self.constitutive)):
                try:
                    build()
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{section}: {exc}") from exc
            if r["mode"] == "nonlinear-solve":
                self.forcing()

    # -- constructors for the working objects ---------------------------------

    def params(self) -> PhysicalParams:
        return PhysicalParams(**self.raw["params"])

    def constitutive(self):
        cl = self.raw["closure"]
        return make_constitutive(self.params(), visc=cl["visc"],
                                 heat=cl["heat"], sigma=cl["sigma"])

    def forcing(self) -> ForcingData:
        f = self.raw["forcing"]
        return make_forcing_preset(f["preset"], f["amplitude"], self.frequency_grid(),
                                   self.raw["params"]["depth"], f["mode_index"])

    def frequency_grid(self) -> FrequencyGrid:
        p = self.params()
        g = self.raw["grid"]
        return FrequencyGrid(p.dim_h, g["box_len"], g["modes"])

    def vertical_grid(self) -> VerticalGrid:
        return VerticalGrid(self.raw["params"]["depth"], self.raw["grid"]["nz"])

    def manifest(self) -> dict:
        return json.loads(json.dumps(self.raw))

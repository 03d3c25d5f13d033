"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions listed in ``TARGETS`` with
timing wrappers, in every ``stripwave`` module that binds them (so names
brought in with ``from .x import f`` are covered), and ``uninstall()`` puts
the originals back.  Each wrapper is a span: its self time is its duration
minus the durations of the wrapped calls made inside it, so the self times of
all spans of one job add up to the duration of the root span, ``cli.main``.

Short leaf calls (``LEAVES``) are aggregated as count and total only; every
other span is also kept individually (name, start, end, parent) so that the
run can write them out.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (bucket, module, qualified name).  The bucket is the layer the self time of
# the call is charged to; functions with no per-layer metric of their own
# (picard_solve, make_random_state) get a bucket so that nothing is lost.
TARGETS = (
    ("cli.self", "stripwave.cli", "main"),
    ("odesystem.matexp", "stripwave.odesystem", "matrix_exponential"),
    ("odesystem.lu", "stripwave.odesystem", "lu_factor"),
    ("odesystem.solve", "stripwave.odesystem", "FrequencySolver.solve"),
    ("odesystem.table_build", "stripwave.odesystem", "SymbolTable.build"),
    ("odesystem.transverse", "stripwave.odesystem", "solve_transverse"),
    ("linear.invert", "stripwave.linear", "LinearInverter.invert"),
    ("linear.apply", "stripwave.linear", "apply_linear_operator"),
    ("linear.surface", "stripwave.linear", "compatibility_functional"),
    ("linear.surface", "stripwave.linear", "solve_surface"),
    ("linear.random_state", "stripwave.linear", "make_random_state"),
    ("norms.eval", "stripwave.linear", "state_norm"),
    ("norms.eval", "stripwave.norms", "sobolev_norm"),
    ("norms.eval", "stripwave.norms", "surface_sobolev_norm"),
    ("norms.eval", "stripwave.norms", "x_norm"),
    ("norms.eval", "stripwave.norms", "hdot_neg1"),
    ("norms.eval", "stripwave.norms", "check_divergence_trace"),
    ("norms.eval", "stripwave.norms", "ydata_norm"),
    ("nonlinear.picard", "stripwave.nonlinear", "picard_solve"),
    ("nonlinear.residual", "stripwave.nonlinear", "nonlinear_residual"),
    ("nonlinear.eulerian", "stripwave.nonlinear", "pushforward_eulerian"),
    ("nonlinear.eulerian", "stripwave.nonlinear", "eulerian_grid_samples"),
    ("geometry.eval_surface", "stripwave.geometry", "eval_surface"),
    ("geometry.flattening", "stripwave.geometry", "build_flattening"),
    ("geometry.flattening", "stripwave.geometry", "flattening_points"),
    ("ops.fft", "stripwave.ops", "to_phys"),
    ("ops.fft", "stripwave.ops", "to_coeff"),
    ("ops.fft", "stripwave.fields", "transform_forward"),
    ("ops.fft", "stripwave.fields", "transform_inverse"),
    ("fields.csv_write", "stripwave.fields", "write_field_csv"),
    ("fields.csv_write", "stripwave.fields", "write_ydata_csv"),
    ("fields.csv_read", "stripwave.fields", "read_field_csv"),
    ("fields.csv_read", "stripwave.fields", "read_ydata_csv"),
    ("params.gate", "stripwave.params", "estimate_q_norms"),
    ("params.gate", "stripwave.params", "check_parameter_gate"),
)

LEAVES = frozenset({"odesystem.matexp", "odesystem.lu", "ops.fft", "norms.eval"})


class Tracer:
    def __init__(self):
        self._patches = []          # (namespace, attribute, original)
        self._stack = []            # open spans: [span index or None, child seconds]
        self.missing = []
        self.reset()

    # -- per-job state -----------------------------------------------------------

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack.clear()
        self._solver_ids = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._prep_keys = set()
        self._inverters = weakref.WeakSet()
        self._picard_depth = 0

    # -- installation ----------------------------------------------------------

    def install(self):
        for bucket, modname, qualname in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(bucket, fn, qualname)
                self._set(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            wrapped = self._wrap(bucket, fn, qualname)
            for mod in [m for n, m in list(sys.modules.items())
                        if n == "stripwave" or n.startswith("stripwave.")]:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, bucket, fn, qualname):
        keep = bucket not in LEAVES
        before = getattr(self, "_before_" + qualname.replace(".", "_"), None)
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        frames = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = before(args) if before else bucket
            idx = None
            if keep:
                idx = len(self.spans)
                parent = frames[-1][0] if frames else None
                self.spans.append([name, 0.0, 0.0, parent])
            frames.append([idx, 0.0])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = frames.pop()[1]
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - child
                self.total_s[name] += dur
                if frames:
                    frames[-1][1] += dur
                if keep:
                    self.spans[idx][1:3] = [t0, t1]
                if name == "nonlinear.picard":
                    self._picard_depth -= 1
            if after:
                after(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    # -- hooks that derive counts ------------------------------------------------

    def _before_picard_solve(self, args):
        if self._picard_depth:
            self.counts["picard_retries"] += 1
        self._picard_depth += 1
        return "nonlinear.picard"

    def _before_LinearInverter_invert(self, args):
        if self._picard_depth:
            self.counts["picard_iters"] += 1
        inverter = args[0]
        if inverter in self._inverters:
            return "linear.invert_warm"
        self._inverters.add(inverter)
        return "linear.invert_cold"

    def _after_FrequencySolver_solve(self, fn, args, kwargs, result):
        solver, xi = args[0], args[1]
        if result[1] == "collocation":
            self.counts["collocation"] += 1
            backend = args[4] if len(args) > 4 else kwargs.get("backend")
            if (backend or solver.backend_for(xi)) == "matexp":
                self.counts["fallbacks"] += 1
        serial = self._solver_ids.get(solver)
        if serial is None:
            serial = self._solver_ids[solver] = next(self._serials)
        key = tuple(np.asarray(xi, dtype=float).ravel().round(12))
        self._prep_keys.add((serial, key))

    def _after_pushforward_eulerian(self, fn, args, kwargs, result):
        self.counts["eulerian_points"] += len(result["points"])

    def _after_write_field_csv(self, fn, args, kwargs, result):
        """Bytes of the CSV file and its JSON sidecar."""
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        path = bound["path"]
        for p in (path, bound.get("sidecar_path") or str(path) + ".json"):
            self.counts["csv_bytes"] += os.path.getsize(p)

    _after_read_field_csv = _after_write_field_csv

    # -- results -----------------------------------------------------------------

    def job_metrics(self) -> dict:
        """Per-layer metrics of the job traced since the last reset."""
        c, s, n = self.calls, self.self_s, self.counts
        solves = c["odesystem.solve"]
        inverts = c["linear.invert_cold"] + c["linear.invert_warm"]
        return {
            "odesystem.matexp_calls": c["odesystem.matexp"],
            "odesystem.matexp_s": s["odesystem.matexp"],
            "odesystem.lu_calls": c["odesystem.lu"],
            "odesystem.lu_s": s["odesystem.lu"],
            "odesystem.collocation_frac": n["collocation"] / solves if solves else 0.0,
            "odesystem.solve_calls": solves,
            "odesystem.solve_self_s": s["odesystem.solve"],
            "odesystem.prep_reuse_frac":
                1.0 - len(self._prep_keys) / solves if solves else 0.0,
            "odesystem.fallbacks": n["fallbacks"],
            "odesystem.table_build_s": s["odesystem.table_build"],
            "odesystem.transverse_calls": c["odesystem.transverse"],
            "odesystem.transverse_s": s["odesystem.transverse"],
            "linear.invert_calls": inverts,
            "linear.invert_cold_s": s["linear.invert_cold"],
            "linear.invert_warm_s": s["linear.invert_warm"],
            "linear.apply_calls": c["linear.apply"],
            "linear.apply_s": s["linear.apply"],
            "linear.surface_s": s["linear.surface"],
            "linear.random_state_s": s["linear.random_state"],
            "nonlinear.picard_iters": n["picard_iters"],
            "nonlinear.picard_retries": n["picard_retries"],
            "nonlinear.picard_self_s": s["nonlinear.picard"],
            "nonlinear.residual_calls": c["nonlinear.residual"],
            "nonlinear.residual_s": s["nonlinear.residual"],
            "nonlinear.eulerian_points": n["eulerian_points"],
            "nonlinear.eulerian_s": s["nonlinear.eulerian"],
            "geometry.eval_surface_s": s["geometry.eval_surface"],
            "geometry.flattening_s": s["geometry.flattening"],
            "ops.fft_calls": c["ops.fft"],
            "ops.fft_s": s["ops.fft"],
            "fields.csv_write_s": s["fields.csv_write"],
            "fields.csv_read_s": s["fields.csv_read"],
            "fields.csv_bytes": n["csv_bytes"],
            "norms.eval_s": s["norms.eval"],
            "params.gate_s": s["params.gate"],
            "cli.self_s": s["cli.self"],
        }

    def aggregates(self) -> dict:
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "total_s": self.total_s[name]} for name in sorted(self.calls)}

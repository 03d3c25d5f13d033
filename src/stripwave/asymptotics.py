"""Numerical certification of symbol asymptotics and multiplier bounds.

Three families of claims are checked:

* low-frequency expansions of the response symbols, whose leading |xi|^2
  coefficients have closed forms (Richardson-extrapolated fits, one order
  beyond the fitted term since the remainders are cubic);
* two-sided lower bounds for the surface multiplier,
  xi_1^2 + |xi|^4 <~ |rho|^2 below |xi| = 1 and 1 + |xi|^2 <~ |rho|^2 above;
* high-frequency decay of the symbol profiles and traces.

The "<~" claims carry unknown constants, so they are certified as bounded
sampled ratios whose extrema are stable under lattice refinement, never as
proofs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonConvergent
from .grids import FrequencyGrid, VerticalGrid
from .odesystem import DEFAULT_COND_LIMIT, SymbolTable, symbol_profiles
from .params import PhysicalParams


# ---------------------------------------------------------------------------
# Richardson fits of the low-frequency coefficients
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    value: float
    error_bar: float


def richardson_limit(values, ratios) -> FitResult:
    """Extrapolate a sequence s(xi_i) = c + c1 xi + c2 xi^2 + ... to xi -> 0.

    ``values`` are ordered from the largest xi down; ``ratios`` are
    xi_i/xi_{i+1} (usually all 2).  Raises NonConvergent when successive
    differences grow instead of shrinking.
    """
    col = [complex(v) for v in values]
    if len(col) < 2:
        raise ValueError("need at least two samples")
    ratios = np.atleast_1d(np.asarray(ratios, dtype=float))
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        raise ValueError("sample sequence must be geometric")
    diffs = []
    level = 1
    while len(col) > 1:
        r = float(np.mean(ratios)) ** level
        col = [(r * col[i + 1] - col[i]) / (r - 1.0) for i in range(len(col) - 1)]
        diffs.append(abs(col[-1] - col[0]) if len(col) > 1 else None)
        level += 1
    # error bar: spread of the last two extrapolation levels
    meaningful = [d for d in diffs if d is not None]
    err = meaningful[-1] if meaningful else abs(values[-1] - values[0])
    floor = 1e-10 * max(abs(v) for v in values)
    if len(meaningful) >= 2 and meaningful[-1] > 2.0 * meaningful[-2] \
            and meaningful[-1] > floor:
        raise NonConvergent("Richardson level spreads are growing")
    return FitResult(value=float(np.real(col[0])), error_bar=float(err))


_PI2 = np.pi ** 2

# per selector: the sample it takes of the profiles y at height x, and the
# closed form of that sample's |xi|^2 coefficient
LF_COEFFICIENTS = {
    "vn_surf": (lambda y, vg, x: y[1, -1],
                lambda p, x: -4.0 * _PI2 * p.depth ** 3 / (3.0 * p.mu)),
    "temp_surf": (lambda y, vg, x: y[2, -1],
                  lambda p, x: -2.0 * p.sigma1 * _PI2 * p.depth ** 3 / (p.mu * p.kappa)),
    "q_minus_1_at": (lambda y, vg, x: vg.interpolate(y[3], x) - 1.0,
                     lambda p, x: (-2.0 * p.depth * p.depth * _PI2
                                   - 4.0 * p.depth * _PI2 * x + 2.0 * _PI2 * x * x)),
    "vn_at": (lambda y, vg, x: vg.interpolate(y[1], x),
              lambda p, x: -2.0 * (-x + 3.0 * p.depth) * x * x * _PI2 / (3.0 * p.mu)),
    "temp_at": (lambda y, vg, x: vg.interpolate(y[2], x),
                lambda p, x: -2.0 * _PI2 * p.depth * p.depth * p.sigma1 * x / (p.kappa * p.mu)),
    "long_sq_at": (lambda y, vg, x: abs(vg.interpolate(y[0], x)) ** 2,
                   lambda p, x: 4.0 * _PI2 * (p.depth - x / 2.0) ** 2 * x * x / p.mu ** 2),
}


def checked_xi_seq(xi_seq) -> np.ndarray:
    """``xi_seq`` as an array after checking that it fits a Richardson
    table: at least two positive values, decreasing geometrically."""
    xi_seq = np.asarray(xi_seq, dtype=float)
    if xi_seq.ndim != 1 or len(xi_seq) < 2 or not np.all(xi_seq > 0):
        raise ValueError("need at least two positive values")
    ratios = xi_seq[:-1] / xi_seq[1:]
    if not (np.all(ratios > 1) and np.allclose(ratios, ratios[0], rtol=1e-9)):
        raise ValueError("values must decrease geometrically")
    return xi_seq


def _lf_fits(p: PhysicalParams, vgrid: VerticalGrid, xi_seq, jobs,
             cond_limit: float = DEFAULT_COND_LIMIT) -> list:
    """``fit_lf_coefficient`` of each (selector, x) in jobs, from one
    ``symbol_profiles`` solve along xi_seq."""
    xi_seq = checked_xi_seq(xi_seq)
    xis = np.zeros((len(xi_seq), p.dim_h))
    xis[:, 0] = xi_seq
    Y, _, _ = symbol_profiles(xis, p, vgrid, cond_limit)
    return [richardson_limit([LF_COEFFICIENTS[sel][0](y, vgrid, x) / ximag ** 2
                              for y, ximag in zip(Y, xi_seq)],
                             xi_seq[:-1] / xi_seq[1:]) for sel, x in jobs]


def fit_lf_coefficient(selector: str, p: PhysicalParams, vgrid: VerticalGrid,
                       xi_seq=(1e-2, 5e-3, 2.5e-3), x: float | None = None) -> FitResult:
    """Richardson-extrapolated limit of selector(xi)/|xi|^2 along xi_seq,
    whose symbols are solved as one stack."""
    return _lf_fits(p, vgrid, xi_seq, [(selector, x)])[0]


# ---------------------------------------------------------------------------
# Claim rows and the report container
# ---------------------------------------------------------------------------

@dataclass
class ClaimRow:
    claim: str
    predicted: float | None
    fitted: float | None
    margin: float | None
    verdict: str
    detail: dict = field(default_factory=dict)


@dataclass
class AsymptoticReport:
    rows: list

    def passed(self) -> bool:
        return all(r.verdict == "pass" for r in self.rows)

    def to_jsonable(self) -> list:
        return [asdict(r) for r in self.rows]


def theorem_fit_rows(p: PhysicalParams, vgrid: VerticalGrid,
                     xi_seq=(1e-2, 5e-3, 2.5e-3), rel_tol: float = 0.01,
                     cond_limit: float = DEFAULT_COND_LIMIT) -> list:
    """Fit every closed-form low-frequency coefficient and compare; the
    symbols along xi_seq are solved once for all fits."""
    b = p.depth
    jobs = [("vn_surf", None), ("temp_surf", None)]
    jobs += [("q_minus_1_at", x) for x in (b / 4, b / 2, b)]
    jobs += [("long_sq_at", x) for x in (b / 4, b / 2)]
    jobs += [("vn_at", b / 2), ("temp_at", b / 2)]
    rows = []
    for (selector, x), fit in zip(jobs, _lf_fits(p, vgrid, xi_seq, jobs, cond_limit)):
        pred = LF_COEFFICIENTS[selector][1](p, x)
        scale = max(abs(pred), 1e-12)
        rel = abs(fit.value - pred) / scale
        name = selector if x is None else f"{selector[:-3]}_x={x:.4g}"
        rows.append(ClaimRow(
            claim=f"lf-coefficient {name}",
            predicted=pred, fitted=fit.value, margin=rel,
            verdict="pass" if rel <= rel_tol else "fail",
            detail={"rel_tol": rel_tol, "error_bar": fit.error_bar,
                    "xi_seq": list(np.asarray(xi_seq, float))},
        ))
    return rows


def _claim_rows(names, measure, table: SymbolTable, refined: SymbolTable | None,
                stability_tol: float, note: str) -> list:
    """One row per claim of ``names``; measure(t) gives each claim's value on
    table t and whether its regime has lattice points.  A row passes when
    its regime has points and its value is finite and positive, and, with a
    refined table, when the refined value is positive and drifts from it by
    at most stability_tol relative.  A value on a table with no lattice
    points in its regime is None, null in the JSON report."""
    values, hits = measure(table)
    fine = None if refined is None else measure(refined)
    rows = []
    for i, name in enumerate(names):
        val = float(values[i]) if hits[i] else None
        ok = val is not None and np.isfinite(val) and val > 0
        detail = {} if hits[i] else {"note": note}
        if fine is not None:
            refined_val = float(fine[0][i]) if fine[1][i] else None
            drift = None if None in (val, refined_val) \
                else abs(refined_val - val) / max(abs(val), 1e-300)
            detail.update(refined=refined_val, drift=drift)
            ok = ok and drift is not None and np.isfinite(drift) \
                and drift <= stability_tol and refined_val > 0
        rows.append(ClaimRow(name, None, val, val, "pass" if ok else "fail", detail))
    return rows


def check_rho_bounds(table: SymbolTable, refined: SymbolTable | None = None,
                     stability_tol: float = 0.10) -> list:
    """Infima of |rho|^2 over its two lower-bound envelopes."""

    def infima(t):
        vecs, mag2 = t.grid.xi_vectors, t.grid.xi2
        rho2 = np.abs(t.rho) ** 2
        low = (mag2 > 0) & (mag2 <= 1.0)
        high = mag2 > 1.0
        env_low = vecs[..., 0] ** 2 + mag2 ** 2
        env_high = 1.0 + mag2
        inf_low = float((rho2[low] / env_low[low]).min()) if low.any() else np.nan
        inf_high = float((rho2[high] / env_high[high]).min()) if high.any() else np.nan
        return (inf_low, inf_high), (low.any(), high.any())

    return _claim_rows(("rho lower bound |xi|<=1", "rho lower bound |xi|>1"),
                       infima, table, refined, stability_tol,
                       "no lattice points in this regime; enlarge the grid")


_DECAY_CHECKS = (
    ("int |om_v|^2 * |xi|^3",
     lambda y, w, m2: ((np.abs(y[:, 0]) ** 2 + np.abs(y[:, 1]) ** 2) @ w)
     * np.sqrt(m2) ** 3),
    ("|om_vn_surf| * |xi|",
     lambda y, w, m2: np.abs(y[:, 1, -1]) * np.sqrt(m2)),
    ("int |om_temp|^2 * |xi|^3",
     lambda y, w, m2: (np.abs(y[:, 2]) ** 2 @ w) * np.sqrt(m2) ** 3),
    ("|om_temp_surf| * (1+|xi|^2)^(1/2)",
     lambda y, w, m2: np.abs(y[:, 2, -1]) * np.sqrt(1.0 + m2)),
    ("int |om_q|^2 * (1+|xi|^2)^(1/2)",
     lambda y, w, m2: (np.abs(y[:, 3]) ** 2 @ w) * np.sqrt(1.0 + m2)),
)


def check_highfreq_decay(table: SymbolTable, refined: SymbolTable | None = None,
                         stability_tol: float = 0.10) -> list:
    """Suprema of the five decay ratios over 1 < |xi| <= xi_max."""

    def suprema(t):
        high = t.grid.xi2 > 1.0
        y, m2 = t.y[high], t.grid.xi2[high]
        sups = [np.max(fn(y, t.vgrid.weights, m2), initial=0.0) for _, fn in _DECAY_CHECKS]
        return sups, [high.any()] * len(sups)

    return _claim_rows([f"hf-decay {name}" for name, _ in _DECAY_CHECKS], suprema,
                       table, refined, stability_tol,
                       "no lattice points above |xi| = 1; enlarge the grid")


def full_report(p: PhysicalParams, grid, vgrid, refine: bool = True,
                xi_seq=(1e-2, 5e-3, 2.5e-3), rel_tol: float = 0.01,
                stability_tol: float = 0.10,
                cond_limit: float = DEFAULT_COND_LIMIT) -> AsymptoticReport:
    """Every claim; the fits and both tables fall back to collocation beyond
    ``cond_limit``."""
    rows = theorem_fit_rows(p, vgrid, xi_seq=xi_seq, rel_tol=rel_tol, cond_limit=cond_limit)
    table = SymbolTable.build(grid, vgrid, p, cond_limit=cond_limit)
    refined = None
    if refine:
        fine_grid = FrequencyGrid(grid.dim_h, 2.0 * grid.box_len, 2 * grid.modes)
        refined = SymbolTable.build(fine_grid, vgrid, p, cond_limit=cond_limit)
    rows += check_rho_bounds(table, refined, stability_tol)
    rows += check_highfreq_decay(table, refined, stability_tol)
    return AsymptoticReport(rows)

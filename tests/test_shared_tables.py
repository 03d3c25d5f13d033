"""Grid tables built once per parameter set and shared read-only: the vertical
grid's, the lattice's, the Gauss-Legendre panels and the transverse basis.
Shared tables equal a fresh computation bit for bit, a grid that fails
validation reaches no cache, every cache stays within its size, and a run in a
process with warm caches writes the bytes of a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from stripwave import grids
from stripwave import odesystem as ode
from stripwave.cli import run
from stripwave.config import RunConfig
from stripwave.fields import write_ydata_csv
from stripwave.grids import (FrequencyGrid, VerticalGrid, chebyshev_diff_matrix,
                             chebyshev_lobatto, clenshaw_curtis_weights)
from stripwave.linear import apply_linear_operator, make_random_state
from stripwave.params import PhysicalParams

VERTICAL = ("nodes", "weights", "diff", "bary_weights")
LATTICE = ("xi_vectors", "xi2", "pair_weight", "dealias_mask", "half_mask")


def _bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _lattice_arrays(grid: FrequencyGrid) -> list:
    return list(grid.xi_axes) + [getattr(grid, name) for name in LATTICE]


def _cached_arrays() -> list:
    """Every array of the four caches, from one grid of each kind."""
    vg = VerticalGrid(1.0, 12)
    return ([getattr(vg, name) for name in VERTICAL] + _lattice_arrays(FrequencyGrid(2, 3.0, 8))
            + list(ode._gl_panels(vg, 1)) + list(ode._transverse_basis(vg, 1.0)[:3]))


def test_equal_grids_share_their_tables():
    a, b = VerticalGrid(1, 24), VerticalGrid(1.0, 24)
    assert all(getattr(a, name) is getattr(b, name) for name in VERTICAL)
    assert VerticalGrid(1.0, 25).diff is not a.diff
    f, g = FrequencyGrid(2, 3, 8), FrequencyGrid(2, 3.0, 8)
    assert f.xi_axes is g.xi_axes
    assert all(getattr(f, name) is getattr(g, name) for name in LATTICE)
    assert FrequencyGrid(1, 3.0, 8).xi2 is not f.xi2
    # the panels and the transverse basis are keyed by the (equal) grid
    assert all(x is y for x, y in zip(ode._gl_panels(a, 1), ode._gl_panels(b, 1)))
    assert all(x is y for x, y in zip(ode._transverse_basis(a, 1.0)[:3],
                                      ode._transverse_basis(b, 1.0)[:3]))
    # equality and hashing read the parameters only, as before
    assert a == b and hash(a) == hash(b) and f == g and hash(f) == hash(g)


def test_every_cached_array_is_read_only():
    arrays = _cached_arrays()
    assert len(arrays) == 4 + 7 + 3 + 3
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


@pytest.mark.parametrize("depth, count", [(1, 4), (0.7, 24), (1.4, 80)])
def test_vertical_tables_equal_a_fresh_computation(depth, count):
    vg, n = VerticalGrid(depth, count), count - 1
    assert _bits(vg.nodes, depth * (1.0 - chebyshev_lobatto(n)) / 2.0)
    assert _bits(vg.weights, (depth / 2.0) * clenshaw_curtis_weights(n))
    assert _bits(vg.diff, -(2.0 / depth) * chebyshev_diff_matrix(n))
    bary = (-1.0) ** np.arange(n + 1)
    bary[0] *= 0.5
    bary[-1] *= 0.5
    assert _bits(vg.bary_weights, bary)


@pytest.mark.parametrize("modes", [4, 6, 32])
@pytest.mark.parametrize("dim_h", [1, 2])
def test_lattice_tables_equal_a_fresh_computation(dim_h, modes):
    box_len = 2.5 * np.pi
    grid = FrequencyGrid(dim_h, box_len, modes)
    half, j = modes // 2, np.arange(modes)
    index = (j[:half + 1],) + (np.where(j > half, j - modes, j),) * (dim_h - 1)
    keep = [np.abs(k) <= modes // 3 for k in index]
    xi_axes = tuple(k / box_len for k in index)
    xi_vectors = np.stack(np.meshgrid(*xi_axes, indexing="ij"), axis=-1)
    pair = np.where(index[0] % half, 2.0, 1.0).reshape((-1,) + (1,) * (dim_h - 1))
    want = list(xi_axes) + [xi_vectors, (xi_vectors ** 2).sum(axis=-1), pair,
                            np.logical_and.outer(*keep) if dim_h == 2 else keep[0],
                            (pair == 2) | (index[-1] >= 0)]
    got = _lattice_arrays(grid)
    assert len(got) == len(want)
    assert all(_bits(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("depth, count", [(1, 4), (0.7, 24), (1.4, 80)])
def test_panels_equal_a_fresh_computation(depth, count):
    vg = VerticalGrid(depth, count)
    gl_nodes, gl_weights = leggauss(8)
    nodes = vg.nodes
    a, c = nodes[:-1, None], nodes[1:, None]
    h = c - a
    tq = 0.5 * (c + a) + 0.5 * h * gl_nodes
    rows = (0.5 * h * gl_weights)[..., None] * vg.interp_weights(tq)
    same, offsets, got = ode._gl_panels(vg, 1)
    assert same is vg.nodes and _bits(offsets, c - tq)
    assert _bits(got, rows.reshape(-1, nodes.size))


@pytest.mark.parametrize("build", [lambda: VerticalGrid(-1, 24), lambda: VerticalGrid(1.0, 3),
                                   lambda: VerticalGrid(True, 24),
                                   lambda: FrequencyGrid(2, 3.0, 7), lambda: FrequencyGrid(3, 3.0, 8),
                                   lambda: FrequencyGrid(1, -1.0, 8)])
def test_a_grid_that_fails_validation_reaches_no_cache(build):
    caches = (grids._vertical_tables, grids._lattice_tables)
    before = [c.cache_info() for c in caches]
    with pytest.raises(ValueError):
        build()
    after = [c.cache_info() for c in caches]
    assert [(i.currsize, i.misses, i.hits) for i in after] == \
        [(i.currsize, i.misses, i.hits) for i in before]


def test_every_cache_stays_within_its_size():
    caches = {grids._vertical_tables: 16, grids._lattice_tables: 16,
              ode._gl_panels: 8, ode._transverse_basis: 8}
    for cache, maxsize in caches.items():
        assert cache.cache_info().maxsize == maxsize
    for i in range(16 + 4):
        vg = VerticalGrid(1.0 + i / 64, 6)
        FrequencyGrid(1, 1.0 + i / 64, 4)
        ode._gl_panels(vg, 1)
        ode._transverse_basis(vg, 1.0)
        for cache, maxsize in caches.items():
            assert cache.cache_info().currsize <= maxsize
    assert all(cache.cache_info().currsize == maxsize for cache, maxsize in caches.items())


# -- warm caches change no byte -------------------------------------------------

_ARTIFACTS = {
    "linear-solve": ("u.csv", "u.csv.json", "psi.csv", "psi.csv.json", "pres.csv",
                     "pres.csv.json", "eta.csv", "eta.csv.json", "linear_report.json"),
    "nonlinear-solve": ("eulerian.csv", "solve_trace.json", "u.csv", "u.csv.json", "psi.csv",
                        "psi.csv.json", "pres.csv", "pres.csv.json", "eta.csv",
                        "eta.csv.json"),
}


def _outputs(out: str, mode: str) -> dict:
    """Every data artifact and report of a run, and its manifest's summary."""
    blobs = {name: Path(out, name).read_bytes() for name in _ARTIFACTS[mode]}
    blobs["summary"] = json.loads(Path(out, "manifest.json").read_text())["summary"]
    return blobs


def test_warm_caches_write_the_bytes_of_a_fresh_process(tmp_path):
    # criterion 10 reruns in one process, where the second run finds the
    # tables of the first; here a warm in-process run is held against a
    # fresh interpreter, whose caches start empty
    box, modes, nz = 2.5 * np.pi, 32, 24
    indir = str(tmp_path / "ydata")
    state = make_random_state(FrequencyGrid(1, box, modes), VerticalGrid(1.0, nz), seed=3)
    write_ydata_csv(indir, apply_linear_operator(state, PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    configs = {
        "linear-solve": {"mode": "linear-solve", "input": indir,
                         "grid": {"box_len": box, "modes": modes, "nz": nz}},
        "nonlinear-solve": {"mode": "nonlinear-solve", "grid": {"modes": 32, "nz": 24},
                            "forcing": {"preset": "mixed", "amplitude": 1e-3,
                                        "mode_index": 2}},
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for mode, cfg in configs.items():
        fresh, warm = str(tmp_path / f"{mode}-fresh"), str(tmp_path / f"{mode}-warm")
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(dict(cfg, out=fresh)))
        done = subprocess.run([sys.executable, "-m", "stripwave.cli", "--config", str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert run(RunConfig.from_dict(dict(cfg, out=str(tmp_path / f"{mode}-first")))) == 0
        hits = grids._vertical_tables.cache_info().hits
        assert run(RunConfig.from_dict(dict(cfg, out=warm))) == 0
        assert grids._vertical_tables.cache_info().hits > hits
        assert _outputs(warm, mode) == _outputs(fresh, mode)

"""``fields.write_csv`` against the reference writer of ``oracles``, which
formats every row with Python's ``%`` operator: the numpy writer must match
it byte for byte on every kind of column, on the floats where its fast path
is hardest to certify and on the artifacts of every CLI mode that writes a
CSV; and it must stay small in memory and build nothing at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stripwave import cli, fields
from stripwave.fields import _CSV_BLOCK, write_csv, write_ydata_csv
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.linear import apply_linear_operator, make_random_state
from stripwave.params import PhysicalParams


def assert_same_bytes(tmp_path, header, columns):
    """write_csv and the reference write the same file, or raise the same
    exception type (text the locale's encoding cannot hold)."""
    try:
        oracles.write_csv(tmp_path / "want.csv", header, columns)
    except Exception as exc:          # noqa: BLE001 -- the writers must agree on it
        with pytest.raises(type(exc)):
            write_csv(tmp_path / "got.csv", header, columns)
        return
    write_csv(tmp_path / "got.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
           1e-280, 1e280, 1.7976931348623157e308, 1.0, 0.1, 1e15 + 0.25]
_INTS = {"int32": np.int32, "int64": np.int64, "uint64": np.uint64}


@st.composite
def columns(draw, rows):
    """One column of ``rows`` entries of a drawn kind."""
    kind = draw(st.sampled_from(["float64", "float32", "int32", "int64", "uint64",
                                 "small", "bool", "object", "complex"]))
    if kind == "float64":
        bits = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=rows, max_size=rows))
        col = np.array(bits, dtype=np.uint64).view(np.float64)
        special = draw(st.lists(st.sampled_from(SPECIAL), min_size=rows, max_size=rows))
        return np.where(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                        special, col) if rows else col
    if kind == "float32":
        bits = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=rows, max_size=rows))
        return np.array(bits, dtype=np.uint32).view(np.float32)
    if kind in _INTS:
        info = np.iinfo(_INTS[kind])
        values = st.one_of(st.integers(int(info.min), int(info.max)),
                           st.sampled_from([int(info.min), int(info.max), 0]))
        return np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=_INTS[kind])
    if kind == "small":         # the table of small integers and its edge
        return np.array(draw(st.lists(st.integers(0, 10 ** 4), min_size=rows,
                                      max_size=rows)), dtype=np.intp)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
    if kind == "complex":
        return np.array(draw(st.lists(st.complex_numbers(), min_size=rows, max_size=rows)),
                        dtype=complex)
    entry = st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.none(),
                      st.tuples(st.integers()))
    col = np.empty(rows, dtype=object)
    col[:] = draw(st.lists(entry, min_size=rows, max_size=rows))
    return col


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_write_csv_matches_the_reference_on_every_kind_of_column(tmp_path_factory, data):
    rows = data.draw(st.integers(0, 40))
    cols = data.draw(st.lists(columns(rows), min_size=1, max_size=4))
    assert_same_bytes(tmp_path_factory.mktemp("csv"), [f"c{i}" for i in range(len(cols))], cols)


def test_write_csv_matches_the_reference_on_hard_floats(tmp_path):
    # every power of ten and both its neighbours (where log10 misses E and
    # where P = |x| 10^k meets 1e16 or 1e17), the neighbours of %g's switch
    # points, 2^53 and its neighbours, exact ties of the 17th digit, the
    # ties of an inexact product (3 2^-24 = 1.78..e-7 times 10^23) and the
    # edges of the fast path's range
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = lambda x: np.concatenate([np.nextafter(x, 0), x, np.nextafter(x, np.inf)])
    x = np.concatenate([near(tens), near(switch), near(np.array([2.0 ** 53])),
                        [1e15 + 0.25, 2251799813685247.75, 3 * 2.0 ** -24, 5 * 2.0 ** -24],
                        near(np.array([1e-280, 1e280]))])
    assert_same_bytes(tmp_path, ["x", "minus"], [x, -x])


def test_write_csv_rounds_exact_ties_half_even(tmp_path):
    write_csv(tmp_path / "t.csv", ["x"], [np.array([1e15 + 0.25, 2251799813685247.75])])
    assert (tmp_path / "t.csv").read_bytes() == b"x\r\n1000000000000000.2\r\n2251799813685247.8\r\n"


def near_ties():
    """Doubles x = m 2^e beyond 1e38 whose P = x 10^(16-E) = m 2^s / 5^j lies
    1 / (2 5^j) < 1e-15 from a half-integer: inexact ties closer than the
    kernel can certify."""
    out = []
    for j in range(22, 40):
        E = 16 + j
        for e in range(3 * E - 60, 4 * E):
            s = e - j
            for r in ((5 ** j - 1) // 2, (5 ** j + 1) // 2) if s >= 0 else ():
                m = r * pow(2, -s, 5 ** j) % 5 ** j        # m 2^s = r mod 5^j
                m += -(-(2 ** 52 - m) // 5 ** j) * 5 ** j  # the least such m >= 2^52
                if m < 2 ** 53 and 10 ** E <= m * 2 ** e < 10 ** (E + 1):
                    out.append(float(m * 2 ** e))
    return np.array(out)


def test_write_csv_hands_near_ties_to_python(tmp_path):
    x = near_ties()
    assert len(x) >= 8
    x = np.concatenate([x, -x])
    assert fields._float_cells(x)[1].tolist() == list(range(len(x)))
    assert_same_bytes(tmp_path, ["x"], [x])


@pytest.mark.parametrize("rows", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_write_csv_matches_the_reference_at_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    assert_same_bytes(tmp_path, ["n", "x", "tag"],
                      [np.arange(rows), x, np.array(["a", "bc"] * rows, dtype=object)[:rows]])


SMALL = {"box_len": 2 * np.pi * 10, "nz": 24}
CLI_CONFIGS = {
    "symbols": {"mode": "symbols", "grid": {**SMALL, "modes": 16}},
    "linear-solve": {"mode": "linear-solve", "grid": {**SMALL, "modes": 32}},
    "nonlinear-solve 2D": {
        "mode": "nonlinear-solve", "grid": {**SMALL, "modes": 32}, "params": {"dim": 2},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 2}},
    "nonlinear-solve 3D": {
        "mode": "nonlinear-solve", "grid": {**SMALL, "modes": 16}, "params": {"dim": 3},
        "forcing": {"preset": "mixed", "amplitude": 1e-3, "mode_index": 1}},
}


@pytest.mark.parametrize("name", CLI_CONFIGS)
def test_cli_artifacts_match_the_reference_writer(tmp_path, monkeypatch, name):
    cfg = dict(CLI_CONFIGS[name])
    if cfg["mode"] == "linear-solve":
        grid, vg = FrequencyGrid(1, SMALL["box_len"], 32), VerticalGrid(1.0, SMALL["nz"])
        cfg["input"] = str(tmp_path / "ydata")
        write_ydata_csv(cfg["input"], apply_linear_operator(
            make_random_state(grid, vg, seed=2), PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2)))
    written = {}
    for which in ("numpy", "reference"):
        if which == "reference":
            monkeypatch.setattr(fields, "write_csv", oracles.write_csv)
            monkeypatch.setattr(cli, "write_csv", oracles.write_csv)
        out = tmp_path / which
        path = tmp_path / f"{which}.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}))
        assert cli.main(["--config", str(path)]) == 0
        written[which] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert written["numpy"] == written["reference"]
    assert len(written["numpy"]) == {"symbols": 1, "linear-solve": 4}.get(cfg["mode"], 5)


def test_write_csv_memory_stays_small(tmp_path):
    # 100k rows of a field CSV's shape: three index columns, one beyond the
    # table of small integers, and two float columns
    rng = np.random.default_rng(0)
    n = 100_000
    cols = [np.arange(n) % 3, np.arange(n), rng.integers(0, 80, n),
            rng.standard_normal(n) * 1e-5, rng.standard_normal(n)]
    _, _, peak = oracles.traced_peak(write_csv, tmp_path / "big.csv",
                                     ["comp", "k1", "node", "re", "im"], cols)
    assert peak <= 4 * 2 ** 20


IMPORT_PROBE = """
import json, sys
import stripwave.cli
from stripwave import fields
print(json.dumps({"modules": sorted({"fractions", "decimal"} & set(sys.modules)),
                  "cached": [f.cache_info().currsize for f in
                             (fields._decade, fields._digit_tables)]}))
"""


def test_import_builds_no_tables():
    # the CSV writer's powers of ten and digit tables are built at first use,
    # from Python integers: importing the CLI loads neither fractions nor
    # decimal and fills none of its caches
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"modules": [], "cached": [0, 0]}

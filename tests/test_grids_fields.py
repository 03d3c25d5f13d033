import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripwave.fields import (SpectralField, SurfaceSpectral, YData,
                              read_field_csv, read_ydata_csv, write_csv,
                              write_field_csv, write_json, write_ydata_csv)
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.ops import to_coeff, to_phys


def test_vertical_grid_invariants():
    vg = VerticalGrid(0.7, 33)
    assert vg.nodes[0] == 0.0
    assert vg.nodes[-1] == pytest.approx(0.7, abs=1e-15)
    assert np.all(np.diff(vg.nodes) > 0)
    assert vg.weights.sum() == pytest.approx(0.7, abs=1e-12)


def test_vertical_diff_and_quadrature():
    vg = VerticalGrid(2.0, 24)
    f = np.exp(vg.nodes)
    assert np.abs(vg.differentiate(f) - f).max() < 1e-10
    assert vg.integrate(f) == pytest.approx(np.exp(2.0) - 1.0, rel=1e-12)


def test_vertical_interpolation():
    vg = VerticalGrid(1.0, 30)
    f = np.cos(3.0 * vg.nodes)
    for z in (0.0, 0.123, 0.5, 1.0):
        assert vg.interpolate(f, z) == pytest.approx(np.cos(3.0 * z), abs=1e-12)
    # batched rows, with a node hit giving the unit row of that node
    z = np.array([[0.0, 0.123], [vg.nodes[7], 1.0]])
    rows = vg.interp_weights(z)
    assert rows.shape == (2, 2, 30)
    assert np.array_equal(rows[1, 0], np.eye(30)[7])
    assert np.abs(rows @ f - np.cos(3.0 * z)).max() < 1e-12


def test_vertical_grid_compares_by_its_parameters():
    # the derived node, weight and matrix arrays take no part in == or hash
    assert VerticalGrid(1.0, 16) == VerticalGrid(1.0, 16)
    assert VerticalGrid(1.0, 16) != VerticalGrid(1.0, 20)
    assert VerticalGrid(1.0, 16) != VerticalGrid(2.0, 16)
    assert len({VerticalGrid(1.0, 16), VerticalGrid(1.0, 16)}) == 1


@pytest.mark.parametrize("make", [lambda: FrequencyGrid(1, 5.0, 16.0),
                                  lambda: VerticalGrid(1.0, 16.0)],
                         ids=["modes", "count"])
def test_grids_reject_non_integer_sizes(make):
    with pytest.raises(ValueError, match="integer"):
        make()


@pytest.mark.parametrize("make", [lambda v: FrequencyGrid(1, v, 16),
                                  lambda v: VerticalGrid(v, 16)],
                         ids=["box_len", "depth"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_grids_reject_nonfinite_lengths(make, value):
    with pytest.raises(ValueError, match="positive and finite"):
        make(value)


def test_frequency_grid_lattice():
    grid = FrequencyGrid(1, 5.0, 16)
    xi = grid.xi_axis()
    assert 0.0 in xi
    assert grid.xi_max == pytest.approx(16 / (2 * 5.0))
    assert np.abs(xi).max() == pytest.approx(grid.xi_max)
    # closed under negation (Nyquist is self-paired mod aliasing)
    for j in range(16):
        neg = grid.negate_index((j,))[0]
        if j != 8:
            assert xi[neg] == pytest.approx(-xi[j])


def test_plane_wave_delta():
    grid = FrequencyGrid(1, 4.0, 16)
    vg = VerticalGrid(1.0, 8)
    x = grid.nodes_1d()
    phys = np.cos(2 * np.pi * (3 / 4.0) * x)[None, :, None] * np.ones((1, 1, 8))
    f = SpectralField(grid, vg, to_coeff(phys, grid))
    expect = np.zeros((16,), dtype=complex)
    expect[3] = 0.5
    expect[-3] = 0.5
    assert np.abs(f.data[0, :, 0] - expect).max() < 1e-12


def _direct_dft(phys, modes):
    out = np.zeros(modes, dtype=complex)
    for j in range(modes):
        for k in range(modes):
            out[j] += phys[k] * np.exp(-2j * np.pi * j * k / modes)
    return out / modes


def test_roundtrip_vs_direct_dft():
    rng = np.random.default_rng(0)
    grid = FrequencyGrid(1, 3.0, 16)
    phys = rng.standard_normal((1, 16))
    f = SurfaceSpectral(grid, to_coeff(phys, grid))
    oracle = _direct_dft(phys[0], 16)
    assert np.abs(f.data[0] - oracle).max() < 1e-12
    back = to_phys(f.data, grid)
    assert np.abs(back - phys).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_parseval_random(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(1, 7.0, 32)
    vg = VerticalGrid(1.3, 12)
    phys = rng.standard_normal((2, 32, 12))
    f = SpectralField(grid, vg, to_coeff(phys, grid))
    phys_l2 = (grid.box_len / grid.modes) * (np.abs(phys) ** 2 @ vg.weights).sum()
    spec_l2 = grid.box_volume() * (np.abs(f.data) ** 2 @ vg.weights).sum()
    assert spec_l2 == pytest.approx(phys_l2, rel=1e-10)


def test_parseval_2d():
    rng = np.random.default_rng(4)
    grid = FrequencyGrid(2, 5.0, 16)
    phys = rng.standard_normal((1, 16, 16))
    f = SurfaceSpectral(grid, to_coeff(phys, grid))
    phys_l2 = grid.cell_volume() * (np.abs(phys) ** 2).sum()
    spec_l2 = grid.box_volume() * (np.abs(f.data) ** 2).sum()
    assert spec_l2 == pytest.approx(phys_l2, rel=1e-10)


def test_hermitian_symmetry_of_real_transforms():
    rng = np.random.default_rng(1)
    for dim_h in (1, 2):
        grid = FrequencyGrid(dim_h, 2.0, 8)
        phys = rng.standard_normal((1,) + grid.phys_shape)
        f = SurfaceSpectral(grid, to_coeff(phys, grid))
        assert f.hermitian_defect() < 1e-12


def test_enforce_real_projects():
    grid = FrequencyGrid(1, 2.0, 8)
    rng = np.random.default_rng(2)
    f = SurfaceSpectral(grid, rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8)))
    f.enforce_real()
    assert f.hermitian_defect() < 1e-14
    assert np.abs(f.data[0, 4]) == 0.0  # Nyquist zeroed


def test_size_mismatch_rejected():
    grid = FrequencyGrid(1, 2.0, 8)
    vg = VerticalGrid(1.0, 6)
    with pytest.raises(ValueError):
        SpectralField(grid, vg, to_coeff(np.zeros((1, 9, 6)), grid))
    with pytest.raises(ValueError):
        SpectralField(grid, vg, np.zeros((1, 8, 7), dtype=complex))


def test_csv_roundtrip_bulk(tmp_path):
    grid = FrequencyGrid(1, 2.5, 8)
    vg = VerticalGrid(0.9, 6)
    rng = np.random.default_rng(3)
    f = SpectralField(grid, vg, rng.standard_normal((2, 8, 6))
                      + 1j * rng.standard_normal((2, 8, 6)))
    path = tmp_path / "field.csv"
    write_field_csv(path, f)
    g = read_field_csv(path)
    assert np.abs(g.data - f.data).max() == 0.0
    assert g.grid.box_len == grid.box_len and g.vgrid.depth == vg.depth


def test_csv_roundtrip_ydata(tmp_path):
    grid = FrequencyGrid(1, 2.5, 8)
    vg = VerticalGrid(0.9, 6)
    data = YData.zeros(grid, vg)
    data.f.data[0, 1, 2] = 0.25 - 1j
    data.h.data[0, 2] = 3.0
    write_ydata_csv(tmp_path / "y", data)
    back = read_ydata_csv(tmp_path / "y")
    assert np.abs(back.f.data - data.f.data).max() == 0.0
    assert np.abs(back.h.data - data.h.data).max() == 0.0


def test_ydata_shape_contracts():
    grid = FrequencyGrid(1, 2.5, 8)
    vg = VerticalGrid(0.9, 6)
    with pytest.raises(ValueError):
        YData(
            f=SpectralField.zeros(grid, vg, 1),  # needs n = 2 components
            g=SpectralField.zeros(grid, vg, 1),
            l=SpectralField.zeros(grid, vg, 1),
            k=SurfaceSpectral.zeros(grid, 2),
            h=SurfaceSpectral.zeros(grid, 1),
            m=SurfaceSpectral.zeros(grid, 1),
        )


@pytest.mark.parametrize("dim_h,modes", [(1, 16), (1, 256), (2, 8), (2, 32)])
def test_half_mask_rule(dim_h, modes):
    grid = FrequencyGrid(dim_h, 3.0, modes)
    half = grid.half_mask()
    for idx in np.ndindex(grid.freq_shape):
        neg = grid.negate_index(idx)
        assert half[idx] == (idx <= neg)
        # exactly one representative per +-xi pair
        assert half[idx] or half[neg]
        assert not (half[idx] and half[neg]) or idx == neg
    # one index per pair plus the 2^dim_h self-paired ones, xi = 0 among them
    assert half.sum() == (modes ** dim_h + 2 ** dim_h) // 2
    assert half[(0,) * dim_h]


def _write_field_csv_rows(path, field):
    """write_field_csv as one csv row per entry (the reference)."""
    import csv
    grid = field.grid
    bulk = isinstance(field, SpectralField)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        idx_cols = [f"k{i+1}" for i in range(grid.dim_h)]
        w.writerow(["comp"] + idx_cols + (["node"] if bulk else []) + ["re", "im"])
        for idx in np.ndindex(field.data.shape):
            val = field.data[idx]
            row = [idx[0]] + list(idx[1:1 + grid.dim_h])
            if bulk:
                row.append(idx[-1])
            row += [format(val.real, ".17g"), format(val.imag, ".17g")]
            w.writerow(row)


def _read_field_csv_rows(path, shape):
    import csv
    data = np.zeros(shape, dtype=complex)
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in rd:
            idx = tuple(int(v) for v in row[:len(shape)])
            data[idx] = float(row[-2]) + 1j * float(row[-1])
    return data


def _awkward_values(rng, shape):
    """Magnitudes across the double range plus -0, zeros and a subnormal."""
    vals = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            + 1j * rng.standard_normal(shape))
    flat = vals.reshape(-1)
    flat[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 1e300j]
    flat[4:9] = 0.0
    return vals


@pytest.mark.parametrize("kind", ["bulk-complex", "bulk-3d", "bulk-large", "surface",
                                  "surface-3d"])
def test_csv_bytes_match_row_writer(tmp_path, kind):
    rng = np.random.default_rng(11)
    vg = VerticalGrid(0.8, 5)
    if kind == "bulk-complex":
        grid = FrequencyGrid(1, 2.5, 8)
        f = SpectralField(grid, vg, _awkward_values(rng, (3, 8, 5)))
    elif kind == "bulk-large":             # more rows than one formatting block
        grid = FrequencyGrid(1, 2.5, 64)
        vg = VerticalGrid(0.8, 41)
        f = SpectralField(grid, vg, _awkward_values(rng, (2, 64, 41)))
    elif kind == "bulk-3d":
        grid = FrequencyGrid(2, 2.5, 4)
        f = SpectralField(grid, vg, _awkward_values(rng, (2, 4, 4, 5)))
    elif kind == "surface":
        grid = FrequencyGrid(1, 2.5, 16)
        f = SurfaceSpectral(grid, _awkward_values(rng, (2, 16)))
    else:
        grid = FrequencyGrid(2, 2.5, 6)
        f = SurfaceSpectral(grid, _awkward_values(rng, (1, 6, 6)))
    write_field_csv(tmp_path / "new.csv", f)
    _write_field_csv_rows(tmp_path / "old.csv", f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert b"-0," in (tmp_path / "new.csv").read_bytes()
    back = read_field_csv(tmp_path / "new.csv")
    assert type(back) is type(f)
    assert np.array_equal(back.data, f.data)
    ref = _read_field_csv_rows(tmp_path / "new.csv", f.data.shape)
    assert np.array_equal(back.data.view(np.uint64), ref.view(np.uint64))


def test_field_csv_and_sidecar_bytes_pinned(tmp_path):
    # the artifact byte format: %d indices, %.17g values (-0 kept), CRLF
    # rows, and a sorted 2-space-indented sidecar with a trailing newline
    grid = FrequencyGrid(1, 2.0, 4)
    data = [complex(0.1, -0.0), complex(-0.0, 1 / 3), complex(-2.5e10, 5e-324), 0.0]
    write_field_csv(tmp_path / "tiny.csv", SurfaceSpectral(grid, data))
    assert (tmp_path / "tiny.csv").read_bytes() == (
        b"comp,k1,re,im\r\n"
        b"0,0,0.10000000000000001,-0\r\n"
        b"0,1,-0,0.33333333333333331\r\n"
        b"0,2,-25000000000,4.9406564584124654e-324\r\n"
        b"0,3,0,0\r\n")
    assert (tmp_path / "tiny.csv.json").read_bytes() == (
        b'{\n  "box_len": 2.0,\n  "comps": 1,\n  "dim_h": 1,\n  "kind": "surface",\n'
        b'  "modes": 4,\n  "real_flag": true\n}\n')
    # every field is real, so the key is constant; a file that says false
    # loads all the same
    sidecar = tmp_path / "tiny.csv.json"
    sidecar.write_bytes(sidecar.read_bytes().replace(b"true", b"false"))
    assert np.array_equal(read_field_csv(tmp_path / "tiny.csv").data[0], data)


def test_write_json_and_write_csv_bytes(tmp_path):
    write_json(tmp_path / "p.json", {"zeta": np.float64(0.1),
                                     "alpha": [1, np.float32(0.1), None],
                                     "mid": {"b": True, "a": "x"}})
    assert (tmp_path / "p.json").read_bytes() == (
        b'{\n  "alpha": [\n    1,\n    0.10000000149011612,\n    null\n  ],\n'
        b'  "mid": {\n    "a": "x",\n    "b": true\n  },\n  "zeta": 0.1\n}\n')
    write_csv(tmp_path / "c.csv", ["n", "x", "tag"],
              [np.array([3, -1], dtype=np.int32), np.array([0.1, -0.0]),
               np.array(["matexp", "collocation"], dtype=object)])
    assert (tmp_path / "c.csv").read_bytes() == (
        b"n,x,tag\r\n3,0.10000000000000001,matexp\r\n-1,-0,collocation\r\n")
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])

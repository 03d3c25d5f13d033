import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripwave.errors import ConfigError
from stripwave.fields import (PartMismatch, SpectralField, SurfaceSpectral, YData,
                              conjugate_mirror, read_field_csv, read_ydata_csv, write_csv,
                              write_field_csv, write_json, write_ydata_csv)
from stripwave.grids import FrequencyGrid, VerticalGrid
from stripwave.ops import lattice_sum, to_coeff, to_phys


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
    assert f @ vg.weights == pytest.approx(np.exp(2.0) - 1.0, rel=1e-12)


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


@pytest.mark.parametrize("dim_h", [1, 2])
def test_frequency_grid_tables_are_read_only(dim_h):
    grid = FrequencyGrid(dim_h, 5.0, 8)
    tables = (*grid.xi_axes, grid.xi_vectors, grid.xi2, grid.half_mask,
              grid.pair_weight, grid.dealias_mask)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
    # |xi|^2 is the sum of the squares of the lattice vectors, bit for bit
    assert np.array_equal(grid.xi2, (grid.xi_vectors ** 2).sum(-1))


def test_frequency_grid_compares_by_its_parameters():
    # the derived lattice tables take no part in == or hash
    assert FrequencyGrid(2, 5.0, 16) == FrequencyGrid(2, 5.0, 16)
    assert FrequencyGrid(2, 5.0, 16) != FrequencyGrid(1, 5.0, 16)
    assert FrequencyGrid(2, 5.0, 16) != FrequencyGrid(2, 6.0, 16)
    assert FrequencyGrid(2, 5.0, 16) != FrequencyGrid(2, 5.0, 18)
    assert len({FrequencyGrid(2, 5.0, 16), FrequencyGrid(2, 5.0, 16)}) == 1
    assert repr(FrequencyGrid(2, 5.0, 16)) == "FrequencyGrid(dim_h=2, box_len=5.0, modes=16)"


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
    xi = grid.xi_axes[0]
    assert 0.0 in xi
    assert grid.xi_max == pytest.approx(16 / (2 * 5.0))
    assert np.abs(xi).max() == pytest.approx(grid.xi_max)
    # the stored half of the axis: k1 = 0 .. 8
    assert np.array_equal(xi, np.arange(9) / 5.0)
    # a whole axis, the second of dim_h 2, is closed under negation
    # (Nyquist is self-paired mod aliasing)
    xi = FrequencyGrid(2, 5.0, 16).xi_axes[1]
    for j in range(16):
        neg = (-j) % 16
        if j != 8:
            assert xi[neg] == pytest.approx(-xi[j])


def test_plane_wave_delta():
    grid = FrequencyGrid(1, 4.0, 16)
    vg = VerticalGrid(1.0, 8)
    x = grid.nodes_1d()
    phys = np.cos(2 * np.pi * (3 / 4.0) * x)[None, :, None] * np.ones((1, 1, 8))
    f = SpectralField(grid, vg, to_coeff(phys, grid))
    expect = np.zeros((9,), dtype=complex)
    expect[3] = 0.5                 # and 0.5 at -3, its mirror
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
    oracle = _direct_dft(phys[0], 16)[:9]       # the stored half
    assert np.abs(f.data[0] - oracle).max() < 1e-12
    back = to_phys(f.data, grid)
    assert np.abs(back - phys).max() < 1e-12


@pytest.mark.parametrize("dim_h", [1, 2])
@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
def test_lattice_sum_vs_direct_sum(dim_h, trailing):
    # the coefficients of real samples: the stored half for lattice_sum, the
    # whole lattice (Nyquist at +modes/2) for the direct sum
    rng = np.random.default_rng(7)
    grid = FrequencyGrid(dim_h, 4.5, 10)
    phys = rng.standard_normal(grid.phys_shape + trailing)
    coeffs = to_coeff(phys[None], grid)[0]
    points = rng.uniform(-grid.box_len, 2 * grid.box_len, size=(7, dim_h))
    j = np.fft.fftfreq(10, 1 / 10)
    j[5] = 5
    xi = np.stack(np.meshgrid(*[j / 4.5] * dim_h, indexing="ij"), axis=-1).reshape(-1, dim_h)
    flat = (np.fft.fftn(phys, axes=tuple(range(dim_h))) / 10 ** dim_h).reshape(
        (len(xi),) + trailing)
    expect = np.array([np.real(sum(c * np.exp(2j * np.pi * (k @ x))
                                   for k, c in zip(xi, flat))) for x in points])
    out = lattice_sum(coeffs, grid, points)
    assert out.shape == (len(points),) + trailing
    assert np.abs(out - expect).max() <= 1e-13 * np.abs(expect).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_parseval_random(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid(1, 7.0, 32)
    vg = VerticalGrid(1.3, 12)
    phys = rng.standard_normal((2, 32, 12))
    f = SpectralField(grid, vg, to_coeff(phys, grid))
    phys_l2 = (grid.box_len / grid.modes) * (np.abs(phys) ** 2 @ vg.weights).sum()
    spec_l2 = grid.box_volume() * (grid.pair_weight * (np.abs(f.data) ** 2 @ vg.weights)).sum()
    assert spec_l2 == pytest.approx(phys_l2, rel=1e-10)


def test_parseval_2d():
    rng = np.random.default_rng(4)
    grid = FrequencyGrid(2, 5.0, 16)
    phys = rng.standard_normal((1, 16, 16))
    f = SurfaceSpectral(grid, to_coeff(phys, grid))
    phys_l2 = (grid.box_len / grid.modes) ** 2 * (np.abs(phys) ** 2).sum()
    spec_l2 = grid.box_volume() * (grid.pair_weight * np.abs(f.data) ** 2).sum()
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
    f = SurfaceSpectral(grid, rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5)))
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
    f = SpectralField(grid, vg, rng.standard_normal((2, 5, 6))
                      + 1j * rng.standard_normal((2, 5, 6)))
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


def test_field_tuple_parts_share_grids():
    # every part on the first part's frequency grid, every bulk part on its
    # vertical grid; the error names the first part that is not
    from stripwave.linear import LinearState
    grid, vg = FrequencyGrid(1, 2.5, 8), VerticalGrid(0.9, 6)
    state = LinearState.zeros(grid, vg)
    with pytest.raises(PartMismatch, match="^eta: grids") as err:
        LinearState(state.u, state.psi, state.pres, SurfaceSpectral.zeros(FrequencyGrid(1, 3.0, 8)))
    assert err.value.part == "eta"
    with pytest.raises(PartMismatch, match="^psi: grids"):
        LinearState(state.u, SpectralField.zeros(grid, VerticalGrid(0.9, 8)), state.pres, state.eta)
    with pytest.raises(PartMismatch, match="^u: 1 components, expected 2"):
        LinearState(SpectralField.zeros(grid, vg), state.psi, state.pres, state.eta)


@pytest.mark.parametrize("dim_h,modes", [(1, 16), (1, 256), (2, 8), (2, 32)])
def test_half_mask_rule(dim_h, modes):
    grid = FrequencyGrid(dim_h, 3.0, modes)
    half = grid.half_mask
    for idx in np.ndindex(grid.freq_shape):
        neg = tuple((-i) % modes for i in idx)      # the index of -xi
        assert half[idx] == (idx <= neg)
        # exactly one representative per +-xi pair; -xi is stored only on
        # the self-paired planes k1 = 0 and k1 = modes/2
        if neg[0] > modes // 2:
            assert half[idx]
            continue
        assert half[idx] or half[neg]
        assert not (half[idx] and half[neg]) or idx == neg
    # one index per pair plus the 2^dim_h self-paired ones, xi = 0 among them
    assert half.sum() == (modes ** dim_h + 2 ** dim_h) // 2
    assert half[(0,) * dim_h]


def _whole_lattice(field):
    """The coefficients of a real field on the whole lattice: its stored
    half, then at k1 = modes/2 + 1 .. modes - 1 the conjugates at -xi."""
    data, modes = field.data, field.grid.modes
    rest = np.conj(data[:, modes // 2 - 1:0:-1])
    for ax in range(2, 1 + field.grid.dim_h):
        rest = np.flip(np.roll(rest, -1, axis=ax), axis=ax)
    return np.concatenate([data, rest], axis=1)


def _write_field_csv_rows(path, field, whole=False, dense=False):
    """write_field_csv as one csv row per nonzero half-lattice entry (the
    reference); with ``dense`` per half-lattice entry, zeros included (the
    format before zero rows were left out); with ``whole`` per entry of the
    whole lattice (the full layout)."""
    import csv
    grid = field.grid
    bulk = isinstance(field, SpectralField)
    data = _whole_lattice(field) if whole else field.data
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        idx_cols = [f"k{i+1}" for i in range(grid.dim_h)]
        w.writerow(["comp"] + idx_cols + (["node"] if bulk else []) + ["re", "im"])
        for idx in np.ndindex(data.shape):
            val = data[idx]
            if not (whole or grid.half_mask[idx[1:1 + grid.dim_h]] and (dense or val != 0)):
                continue
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
            data[idx] = complex(float(row[-2]), float(row[-1]))
    return data


def test_full_layout_directory_reads_as_before(tmp_path):
    # a data directory in the full layout with sidecars that have no layout
    # key, as files were written before the half layout, gives linear-solve
    # the same report as the half-layout directory write_ydata_csv writes
    from stripwave.cli import run
    from stripwave.config import RunConfig
    from stripwave.linear import apply_linear_operator, make_random_state
    from stripwave.params import PhysicalParams
    grid, vg = FrequencyGrid(1, 2.5 * np.pi, 16), VerticalGrid(1.0, 24)
    data = apply_linear_operator(make_random_state(grid, vg, seed=2, jmax=5),
                                 PhysicalParams(1, 1, 1, 1, 1, 1, 0.1, 2))
    write_ydata_csv(tmp_path / "half", data)
    os.makedirs(tmp_path / "full")
    for name, part in zip("fglkhm", data.parts()):
        _write_field_csv_rows(tmp_path / "full" / f"{name}.csv", part, whole=True)
        meta = {"dim_h": 1, "box_len": grid.box_len, "modes": 16, "comps": part.comps,
                "real_flag": True}
        if isinstance(part, SpectralField):
            meta.update(kind="bulk", depth=1.0, nz=24)
        else:
            meta.update(kind="surface")
        write_json(tmp_path / "full" / f"{name}.csv.json", meta)
        half_meta = json.loads((tmp_path / "half" / f"{name}.csv.json").read_text())
        # the half file holds the nonzero entries: f has 240 of its 432
        rows = np.count_nonzero(part.data)
        assert half_meta == dict(meta, layout="half", rows=rows)
        assert name != "f" or rows == 240
    reports = []
    for src in ("half", "full"):
        out = tmp_path / f"lin_{src}"
        assert run(RunConfig.from_dict({
            "mode": "linear-solve", "input": str(tmp_path / src), "out": str(out),
            "grid": {"box_len": 2.5 * np.pi, "modes": 16, "nz": 24}})) == 0
        reports.append((out / "linear_report.json").read_bytes())
    assert reports[0] == reports[1]


def _awkward_values(rng, shape):
    """Magnitudes across the double range plus signed zeros, in zero entries
    and in nonzero ones, zeros and a subnormal."""
    vals = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            + 1j * rng.standard_normal(shape))
    flat = vals.reshape(-1)
    flat[:4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 1e300j]
    flat[4:9] = 0.0
    flat[9:11] = [complex(0.5, -0.0), complex(-0.0, 0.25)]
    return vals


_AWKWARD_KINDS = ["bulk-complex", "bulk-3d", "bulk-large", "surface", "surface-3d"]


def _awkward_field(kind):
    """A field of ``_awkward_values`` in 1D and 2D, bulk and surface, whose
    self-paired planes are Hermitian, as the field a half file stands for."""
    rng = np.random.default_rng(11)
    vg = VerticalGrid(0.8, 5)
    if kind == "bulk-complex":
        grid = FrequencyGrid(1, 2.5, 8)
        f = SpectralField(grid, vg, _awkward_values(rng, (3, 5, 5)))
    elif kind == "bulk-large":             # more rows than one formatting block
        grid = FrequencyGrid(1, 2.5, 64)
        vg = VerticalGrid(0.8, 41)
        f = SpectralField(grid, vg, _awkward_values(rng, (2, 33, 41)))
    elif kind == "bulk-3d":
        grid = FrequencyGrid(2, 2.5, 4)
        f = SpectralField(grid, vg, _awkward_values(rng, (2, 3, 4, 5)))
    elif kind == "surface":
        grid = FrequencyGrid(1, 2.5, 16)
        f = SurfaceSpectral(grid, _awkward_values(rng, (2, 9)))
    else:
        grid = FrequencyGrid(2, 2.5, 6)
        f = SurfaceSpectral(grid, _awkward_values(rng, (1, 4, 6)))
    f.data = conjugate_mirror(f.data, grid)
    return f


def _half_entries(field):
    """The entries of ``field`` on its grid's half lattice, as a mask."""
    mask = field.grid.half_mask[(None, ...) + (None,) * (field.data.ndim - 1 - field.grid.dim_h)]
    return np.broadcast_to(mask, field.data.shape)


@pytest.mark.parametrize("kind", _AWKWARD_KINDS)
def test_csv_bytes_match_row_writer(tmp_path, kind):
    # the file is the reference writer's rows of the nonzero half-lattice
    # entries; a nonzero entry keeps the -0 of a zero part
    f = _awkward_field(kind)
    write_field_csv(tmp_path / "new.csv", f)
    _write_field_csv_rows(tmp_path / "old.csv", f)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert b"-0," in (tmp_path / "new.csv").read_bytes()
    half, nonzero = _half_entries(f), f.data != 0
    meta = json.loads((tmp_path / "new.csv.json").read_text())
    assert meta["rows"] == np.count_nonzero(half & nonzero) < np.count_nonzero(half)
    back = read_field_csv(tmp_path / "new.csv")
    assert type(back) is type(f)
    assert np.array_equal(back.data, f.data)
    # every nonzero entry reads back bit for bit, signed zero parts kept,
    # and every half-lattice entry equal to 0 reads as +0
    assert np.array_equal(back.data[nonzero].view(np.uint64), f.data[nonzero].view(np.uint64))
    assert not back.data[half & ~nonzero].view(np.uint64).any()
    ref = conjugate_mirror(_read_field_csv_rows(tmp_path / "new.csv", f.data.shape), f.grid)
    assert np.array_equal(back.data.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("kind", _AWKWARD_KINDS)
def test_dense_half_file_reads_bit_for_bit(tmp_path, kind):
    # a half file in the format that still wrote its zero rows, -0 ones
    # among them, reads to the field it was written from bit for bit, and
    # in value to the same field as the file of nonzero rows
    f = _awkward_field(kind)
    write_field_csv(tmp_path / "new.csv", f)
    _write_field_csv_rows(tmp_path / "dense.csv", f, dense=True)
    meta = json.loads((tmp_path / "new.csv.json").read_text())
    write_json(tmp_path / "dense.csv.json", dict(meta, rows=np.count_nonzero(_half_entries(f))))
    assert b"-0,-0\r\n" in (tmp_path / "dense.csv").read_bytes()
    dense = read_field_csv(tmp_path / "dense.csv")
    assert np.array_equal(dense.data.view(np.uint64), f.data.view(np.uint64))
    assert np.array_equal(dense.data, read_field_csv(tmp_path / "new.csv").data)


def test_field_csv_and_sidecar_bytes_pinned(tmp_path):
    # the artifact byte format: %d indices, %.17g values (-0 kept), CRLF
    # rows, and a sorted 2-space-indented sidecar with a trailing newline
    grid = FrequencyGrid(1, 2.0, 4)
    data = [complex(0.1, -0.0), complex(-0.0, 1 / 3), complex(-2.5e10, 5e-324)]
    write_field_csv(tmp_path / "tiny.csv", SurfaceSpectral(grid, data))
    assert (tmp_path / "tiny.csv").read_bytes() == (
        b"comp,k1,re,im\r\n"
        b"0,0,0.10000000000000001,-0\r\n"
        b"0,1,-0,0.33333333333333331\r\n"
        b"0,2,-25000000000,4.9406564584124654e-324\r\n")
    assert (tmp_path / "tiny.csv.json").read_bytes() == (
        b'{\n  "box_len": 2.0,\n  "comps": 1,\n  "dim_h": 1,\n  "kind": "surface",\n'
        b'  "layout": "half",\n  "modes": 4,\n  "real_flag": true,\n  "rows": 3\n}\n')
    # every field is real, so the key is constant; a file that says false
    # loads all the same
    sidecar = tmp_path / "tiny.csv.json"
    sidecar.write_bytes(sidecar.read_bytes().replace(b"true", b"false"))
    assert np.array_equal(read_field_csv(tmp_path / "tiny.csv").data[0], data)


def test_hermitian_surface_csv_bytes_pinned(tmp_path):
    # a Hermitian field keeps its half lattice, xi indices 0, 1 and the
    # Nyquist 2 (with -0 kept), and its sidecar says so; the read mirrors it
    grid = FrequencyGrid(1, 2.0, 4)
    data = [complex(0.1, -0.0), complex(-0.0, 1 / 3), complex(-2.5e10, 0.0)]
    write_field_csv(tmp_path / "tiny.csv", SurfaceSpectral(grid, data))
    assert (tmp_path / "tiny.csv").read_bytes() == (
        b"comp,k1,re,im\r\n"
        b"0,0,0.10000000000000001,-0\r\n"
        b"0,1,-0,0.33333333333333331\r\n"
        b"0,2,-25000000000,0\r\n")
    assert (tmp_path / "tiny.csv.json").read_bytes() == (
        b'{\n  "box_len": 2.0,\n  "comps": 1,\n  "dim_h": 1,\n  "kind": "surface",\n'
        b'  "layout": "half",\n  "modes": 4,\n  "real_flag": true,\n  "rows": 3\n}\n')
    back = read_field_csv(tmp_path / "tiny.csv")
    assert np.array_equal(back.data[0], data)


def test_hermitian_bulk_csv_bytes_pinned(tmp_path):
    # dim_h 2, modes 4: the half lattice is k1 = 1 whole plus k2 <= 2 on the
    # self-paired rows k1 = 0 and 2, ten of the 16 indices, each with 4 nodes
    grid, vg = FrequencyGrid(2, 2.0, 4), VerticalGrid(1.5, 4)
    k1, k2, node = np.indices((3, 4, 4))
    data = conjugate_mirror((4 * k1 + k2 + 0.5 + 0.25j * node)[None], grid)
    write_field_csv(tmp_path / "tiny.csv", SpectralField(grid, vg, data))
    half = [(b"0,0", b"0.5"), (b"0,1", b"1.5"), (b"0,2", b"2.5"),
            (b"1,0", b"4.5"), (b"1,1", b"5.5"), (b"1,2", b"6.5"), (b"1,3", b"7.5"),
            (b"2,0", b"8.5"), (b"2,1", b"9.5"), (b"2,2", b"10.5")]
    assert (tmp_path / "tiny.csv").read_bytes() == b"comp,k1,k2,node,re,im\r\n" + b"".join(
        b"0,%s,%d,%s,%s\r\n" % (k, node, re, im)
        for k, re in half for node, im in enumerate([b"0", b"0.25", b"0.5", b"0.75"]))
    assert (tmp_path / "tiny.csv.json").read_bytes() == (
        b'{\n  "box_len": 2.0,\n  "comps": 1,\n  "depth": 1.5,\n  "dim_h": 2,\n'
        b'  "kind": "bulk",\n  "layout": "half",\n  "modes": 4,\n  "nz": 4,\n'
        b'  "real_flag": true,\n  "rows": 40\n}\n')
    assert np.array_equal(read_field_csv(tmp_path / "tiny.csv").data, data)


def test_truncated_field_csv_is_refused(tmp_path):
    # a bulk field cut at a line boundary no longer reads as if whole, with
    # its missing rows as zeros: the sidecar's row count names the cut.  A
    # sidecar without the count, as written before it, is not checked
    grid, vg = FrequencyGrid(1, 2.0, 8), VerticalGrid(1.0, 6)
    field = SpectralField(grid, vg, np.arange(2 * 5 * 6).reshape(2, 5, 6) + 0.5j)
    path = tmp_path / "u.csv"
    write_field_csv(path, field)
    whole = path.read_bytes()
    path.write_bytes(b"".join(whole.splitlines(keepends=True)[:20]))
    with pytest.raises(ConfigError, match=r"u\.csv: 19 data rows, the sidecar says 60"):
        read_field_csv(path)
    sidecar = tmp_path / "u.csv.json"
    meta = json.loads(sidecar.read_text())
    del meta["rows"]
    sidecar.write_text(json.dumps(meta))
    assert np.array_equal(read_field_csv(path).data[0, :3], field.data[0, :3])
    path.write_bytes(whole)
    assert np.array_equal(read_field_csv(path).data, field.data)


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "surface"])
def test_field_of_zeros_is_a_header_that_counts_its_rows(tmp_path, bulk):
    # a field of zeros, -0 ones among them, writes no data rows and says
    # "rows": 0; it reads back as +0 with no warning from the empty table,
    # and the count still refuses a file that disagrees with it either way
    grid, vg = FrequencyGrid(2, 2.0, 4), VerticalGrid(1.0, 4)
    shape = (3,) + grid.freq_shape + ((4,) if bulk else ())
    zeros = np.full(shape, complex(-0.0, -0.0))
    field = SpectralField(grid, vg, zeros) if bulk else SurfaceSpectral(grid, zeros)
    path, sidecar = tmp_path / "u.csv", tmp_path / "u.csv.json"
    write_field_csv(path, field)
    header = path.read_bytes()
    assert header == (b"comp,k1,k2,node,re,im\r\n" if bulk else b"comp,k1,k2,re,im\r\n")
    meta = json.loads(sidecar.read_text())
    assert meta["rows"] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_field_csv(path)
    assert type(back) is type(field) and back.data.shape == shape
    assert not back.data[_half_entries(back)].view(np.uint64).any()
    assert not np.abs(back.data).any()
    write_json(sidecar, dict(meta, rows=3))
    with pytest.raises(ConfigError, match=r"u\.csv: 0 data rows, the sidecar says 3"):
        read_field_csv(path)
    write_json(sidecar, dict(meta, rows=0))
    field.data[0, 1, 2] = 0.5
    write_field_csv(tmp_path / "one.csv", field)
    path.write_bytes((tmp_path / "one.csv").read_bytes())
    with pytest.raises(ConfigError, match=r"u\.csv: \d+ data rows, the sidecar says 0"):
        read_field_csv(path)


def _surface_file(tmp_path, rows, layout=None):
    """A modes-4 surface field CSV with the given data rows."""
    meta = {"box_len": 2.0, "comps": 1, "dim_h": 1, "kind": "surface", "modes": 4,
            "real_flag": True}
    if layout is not None:
        meta["layout"] = layout
    write_json(tmp_path / "s.csv.json", meta)
    (tmp_path / "s.csv").write_text("comp,k1,re,im\n" + "".join(r + "\n" for r in rows))
    return tmp_path / "s.csv"


@pytest.mark.parametrize("rows, layout, message", [
    (["0,0,1,0", "0,-1,1,0"], None, "data row 2 (0, -1) has an index off the lattice"),
    (["0,1.7,1,0"], None, "data row 1 (0, 1.7) has a non-integer index"),
    (["0,1,1,0", "0,2,1,0", "0,1,2,0"], None, "data row 3 (0, 1) has a repeated index"),
    (["0,9,1,0"], None, "data row 1 (0, 9) has an index off the lattice"),
    (["1,0,1,0"], None, "data row 1 (1, 0) has an index off the lattice"),
    (["0,nan,1,0"], None, "data row 1 (0, nan) has a non-integer index"),
    (["0,1,1,0", "0,3,1,0"], "half", "data row 2 (0, 3) has an index off the half lattice"),
    (["0,1,1"], None, "rows have 3 columns, expected 4"),
    (["0,1,1,0"], "quarter", "unknown layout 'quarter'"),
    (["0,1,nan,0"], None, "data row 1 (0, 1) has a value that is not finite"),
    (["0,0,1,0", "0,1,1,inf"], None, "data row 2 (0, 1) has a value that is not finite"),
])
def test_field_csv_rejects_bad_rows(tmp_path, rows, layout, message):
    path = _surface_file(tmp_path, rows, layout)
    with pytest.raises(ConfigError, match=r"s\.csv: ") as err:
        read_field_csv(path)
    assert message in str(err.value)


@pytest.mark.parametrize("bulk, key, value", [
    (False, "dim_h", True), (False, "box_len", True), (True, "depth", True),
    (False, "dim_h", 1.0), (False, "box_len", "5"), (True, "kind", "Bulk"),
], ids=["dim_h-true", "box_len-true", "depth-true", "dim_h-float", "box_len-string",
        "kind-capitalised"])
def test_field_csv_refuses_sidecar_values_of_the_wrong_type(tmp_path, bulk, key, value):
    # JSON's true is no number, 1.0 no dimension, "5" no length and "Bulk" no
    # kind: each is a ConfigError naming the file and the key
    grid, vg = FrequencyGrid(1, 2.0, 8), VerticalGrid(1.0, 6)
    field = SpectralField(grid, vg, np.ones((1, 5, 6))) if bulk \
        else SurfaceSpectral(grid, np.ones((1, 5)))
    path = tmp_path / "f.csv"
    write_field_csv(path, field)
    sidecar = tmp_path / "f.csv.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    with pytest.raises(ConfigError, match=r"f\.csv: .*\b" + key + r"\b"):
        read_field_csv(path)


def test_field_csv_layouts_read_the_same(tmp_path):
    # a full file may list its rows in any order; a half file with the same
    # half-lattice rows reads to the same stored half of the Hermitian field
    full = _surface_file(tmp_path, ["0,3,0.5,0.25", "0,0,1,0", "0,2,-2,0", "0,1,0.5,-0.25"])
    want = [1.0, 0.5 - 0.25j, -2.0]
    assert np.array_equal(read_field_csv(full).data[0], want)
    half = _surface_file(tmp_path, ["0,1,0.5,-0.25", "0,0,1,0"], "half")
    assert np.array_equal(read_field_csv(half).data[0], [1.0, 0.5 - 0.25j, 0.0])


def test_full_file_must_be_hermitian(tmp_path):
    # a full file keeps its stored half only if the rest mirrors it
    path = _surface_file(tmp_path, ["0,0,1,0", "0,1,0.5,-0.25", "0,2,-2,0", "0,3,0.5,0.5"])
    with pytest.raises(ConfigError, match=r"s\.csv: the field is not Hermitian"):
        read_field_csv(path)


def test_half_file_rejects_rows_off_the_half_lattice(tmp_path):
    # dim_h 2, modes 4: on the plane k1 = 0, k2 = 3 is the mirror of k2 = 1
    write_json(tmp_path / "s.csv.json", {"box_len": 2.0, "comps": 1, "dim_h": 2,
                                         "kind": "surface", "layout": "half",
                                         "modes": 4, "real_flag": True})
    (tmp_path / "s.csv").write_text("comp,k1,k2,re,im\n0,1,3,1,0\n0,0,3,1,0\n")
    with pytest.raises(ConfigError, match=r"data row 2 \(0, 0, 3\) has an index "
                                          r"off the half lattice"):
        read_field_csv(tmp_path / "s.csv")


def test_write_json_and_write_csv_bytes(tmp_path):
    write_json(tmp_path / "p.json", {"zeta": np.float64(0.1),
                                     "alpha": [1, np.float32(0.1), None],
                                     "mid": {"b": True, "a": "x"}})
    assert (tmp_path / "p.json").read_bytes() == (
        b'{\n  "alpha": [\n    1,\n    0.10000000149011612,\n    null\n  ],\n'
        b'  "mid": {\n    "a": "x",\n    "b": true\n  },\n  "zeta": 0.1\n}\n')
    # strict RFC 8259: a non-finite float is the string float() reads back
    write_json(tmp_path / "n.json", {"r": (np.inf, -np.inf, np.nan, np.float32("inf"), 1.5)})
    assert (tmp_path / "n.json").read_bytes() == (
        b'{\n  "r": [\n    "inf",\n    "-inf",\n    "nan",\n    "inf",\n    1.5\n  ]\n}\n')
    write_csv(tmp_path / "c.csv", ["n", "x", "tag"],
              [np.array([3, -1], dtype=np.int32), np.array([0.1, -0.0]),
               np.array(["matexp", "collocation"], dtype=object)])
    assert (tmp_path / "c.csv").read_bytes() == (
        b"n,x,tag\r\n3,0.10000000000000001,matexp\r\n-1,-0,collocation\r\n")
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])
    # a header must name every column, and a table has at least one
    with pytest.raises(ValueError, match="header of 1 names for 2 columns"):
        write_csv(tmp_path / "bad.csv", ["a"], [np.arange(2), np.arange(2.0)])
    with pytest.raises(ValueError, match="header of 1 names for 0 columns"):
        write_csv(tmp_path / "bad.csv", ["a"], [])
    assert not (tmp_path / "bad.csv").exists()

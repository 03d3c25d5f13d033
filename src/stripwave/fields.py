"""Spectral field containers and the artifact file formats.

``SpectralField`` holds Fourier coefficients indexed (component, xi..., node);
``SurfaceSpectral`` drops the vertical index.  Coefficients follow the series
convention f(x) = sum_xi fhat(xi, x_n) exp(2 pi i xi . x'), so the forward
transform of samples on the collocation grid, ``ops.to_coeff``, is
rfftn/modes^dim_h, and ``ops.to_phys`` is its inverse.  The solver's fields
are real, so fhat(-xi) = conj(fhat(xi)) and a field stores the half lattice
k1 = 0 .. modes/2 of ``FrequencyGrid.freq_shape``.  Only its self-paired
planes k1 = 0 and modes/2 hold both xi and -xi: ``conjugate_mirror``
completes them, ``enforce_real`` makes them Hermitian and zeroes Nyquist.

Every artifact file is written by ``write_csv`` or ``write_json``, the one
CSV and the one JSON format of the package; a field CSV holds the rows of
the half lattice.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .grids import FrequencyGrid, VerticalGrid
from .ops import on_lattice


def reflect(data: np.ndarray, grid: FrequencyGrid, first: int = 1) -> np.ndarray:
    """``data`` reflected through xi = 0 on the horizontal axes after
    ``first``: the value at -xi on the planes k1 = 0 and modes/2."""
    for ax in range(first + 1, first + grid.dim_h):
        data = np.flip(np.roll(data, -1, axis=ax), axis=ax)
    return data


def conjugate_mirror(data: np.ndarray, grid: FrequencyGrid, first: int = 1) -> np.ndarray:
    """Keep ``data`` on grid.half_mask() and put conj(data(-xi)) (data(-xi)
    for an object array) at the other indices of the self-paired planes."""
    half = on_lattice(grid.half_mask(), data.ndim, first)
    mirror = reflect(data, grid, first)
    return np.where(half, data, mirror if data.dtype == object else np.conj(mirror))


class _LatticeField:
    """Methods shared by bulk and surface fields, whose ``data`` carries the
    lattice on axes 1 .. dim_h after a leading component axis."""

    def __post_init__(self):
        expect = self._lattice_shape()
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim == len(expect):
            self.data = self.data[None]
        if self.data.shape[1:] != expect:
            raise ValueError(f"data shape {self.data.shape} does not match grids {expect}")

    @property
    def comps(self) -> int:
        return self.data.shape[0]

    def copy(self):
        return replace(self, data=self.data.copy())

    def hermitian_defect(self) -> float:
        """max |fhat(-xi) - conj(fhat(xi))| over the self-paired planes."""
        planes = self.data[:, [0, -1]]
        return float(np.abs(reflect(planes, self.grid) - np.conj(planes)).max())

    def enforce_real(self):
        """Project the plane k1 = 0 onto Hermitian symmetry and zero the
        Nyquist indices, the plane k1 = modes/2 among them."""
        plane = self.data[:, :1]
        self.data[:, :1] = 0.5 * (plane + np.conj(reflect(plane, self.grid)))
        for ax in range(1, 1 + self.grid.dim_h):
            self.data[(slice(None),) * ax + (self.grid.modes // 2,)] = 0.0
        return self


@dataclass
class SpectralField(_LatticeField):
    """Bulk field: complex coefficients, shape (comps,) + freq_shape + (Nz,)."""

    grid: FrequencyGrid
    vgrid: VerticalGrid
    data: np.ndarray

    def _lattice_shape(self) -> tuple:
        return self.grid.freq_shape + (self.vgrid.count,)

    @classmethod
    def zeros(cls, grid, vgrid, comps=1):
        shape = (comps,) + grid.freq_shape + (vgrid.count,)
        return cls(grid, vgrid, np.zeros(shape, dtype=complex))


@dataclass
class SurfaceSpectral(_LatticeField):
    """Surface field: complex coefficients, shape (comps,) + freq_shape."""

    grid: FrequencyGrid
    data: np.ndarray

    def _lattice_shape(self) -> tuple:
        return self.grid.freq_shape

    @classmethod
    def zeros(cls, grid, comps=1):
        return cls(grid, np.zeros((comps,) + grid.freq_shape, dtype=complex))


class PartMismatch(ValueError):
    """A part of a FieldTuple, the field named ``part``, that does not fit."""

    def __init__(self, part: str, message: str):
        super().__init__(f"{part}: {message}")
        self.part = part


class FieldTuple:
    """A dataclass whose fields are the lattice fields of one problem on one
    pair of grids: the state (u, psi, pres, eta) or the data (f, g, l, k, h,
    m), with n components in its ``vector_parts`` and one in every other;
    PartMismatch names the first part that breaks this.  Arithmetic acts on
    every part in place."""

    def __post_init__(self):
        first = self.parts()[0]
        for f, part in zip(fields(self), self.parts()):
            grids = (part.grid, getattr(part, "vgrid", first.vgrid))
            if grids != (first.grid, first.vgrid):
                raise PartMismatch(f.name, f"grids {grids} differ from {(first.grid, first.vgrid)}")
            want = first.grid.dim_h + 1 if f.name in self.vector_parts else 1
            if part.comps != want:
                raise PartMismatch(f.name, f"{part.comps} components, expected {want}")

    def parts(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def grid(self) -> FrequencyGrid:
        return self.parts()[0].grid

    @property
    def vgrid(self) -> VerticalGrid:
        return self.parts()[0].vgrid

    def copy(self):
        return type(self)(*(part.copy() for part in self.parts()))

    def axpy(self, a: float, other):
        for mine, theirs in zip(self.parts(), other.parts()):
            mine.data += a * theirs.data
        return self

    def scale(self, a: float):
        for part in self.parts():
            part.data *= a
        return self


@dataclass
class YData(FieldTuple):
    """Right-hand-side tuple (f, g, l, k, h, m) in spectral form.

    f: bulk n-vector, g and l bulk scalars, k surface n-vector, h and m
    surface scalars.
    """

    f: SpectralField
    g: SpectralField
    l: SpectralField
    k: SurfaceSpectral
    h: SurfaceSpectral
    m: SurfaceSpectral
    vector_parts = ("f", "k")

    @classmethod
    def zeros(cls, grid, vgrid):
        n = grid.dim_h + 1
        return cls(
            f=SpectralField.zeros(grid, vgrid, n),
            g=SpectralField.zeros(grid, vgrid, 1),
            l=SpectralField.zeros(grid, vgrid, 1),
            k=SurfaceSpectral.zeros(grid, n),
            h=SurfaceSpectral.zeros(grid, 1),
            m=SurfaceSpectral.zeros(grid, 1),
        )


# ---------------------------------------------------------------------------
# The artifact formats: CSV (fields, symbols, samples) and JSON
# ---------------------------------------------------------------------------

_CSV_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}
# CSV rows formatted per block: bounds the Python objects alive at a time
_CSV_BLOCK = 4096


def write_csv(path, header, columns):
    """The one CSV format: a header line, then one row per entry of the
    equal-length 1-D ``columns``, formatted %d for integer columns, %.17g
    for float columns and %s otherwise, with CRLF line ends."""
    size = len(columns[0])
    if any(len(col) != size for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    row = ",".join(_CSV_FORMATS.get(col.dtype.kind, "%s") for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, size, _CSV_BLOCK):
            block = [col[lo:lo + _CSV_BLOCK].tolist() for col in columns]
            # one format call per block, row-major through the columns
            fh.write(row * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


def write_json(path, payload):
    """The one JSON format: 2-space indent, sorted keys, numpy scalars as
    floats and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def write_field_csv(path, field):
    """Write a lattice field as CSV rows of (component, xi indices, node
    index) with re/im columns, one per index of the half lattice
    grid.half_mask() in C order, and its grids to the JSON sidecar
    path + ".json", which says ``"layout": "half"``; its ``real_flag`` is
    always true (every field is real)."""
    grid = field.grid
    bulk = isinstance(field, SpectralField)
    header = (["comp"] + [f"k{i+1}" for i in range(grid.dim_h)]
              + (["node"] if bulk else []) + ["re", "im"])
    meta = {"dim_h": grid.dim_h, "box_len": grid.box_len, "modes": grid.modes,
            "comps": field.comps, "real_flag": True, "layout": "half",
            "kind": "bulk" if bulk else "surface"}
    if bulk:
        meta.update(depth=field.vgrid.depth, nz=field.vgrid.count)
    half = on_lattice(grid.half_mask(), field.data.ndim)
    index = np.nonzero(np.broadcast_to(half, field.data.shape))
    values = field.data[index]
    write_csv(path, header, [*index, values.real, values.imag])
    write_json(str(path) + ".json", meta)


def write_ydata_csv(dirpath, data: FieldTuple):
    """Each part of a state or data tuple to dirpath/<field name>.csv."""
    os.makedirs(dirpath, exist_ok=True)
    for f, part in zip(fields(data), data.parts()):
        write_field_csv(os.path.join(dirpath, f"{f.name}.csv"), part)


def read_ydata_csv(dirpath) -> YData:
    """The data tuple in ``dirpath``; ConfigError names a file that does not fit f.csv."""
    try:
        return YData(*(read_field_csv(os.path.join(dirpath, f"{f.name}.csv"))
                       for f in fields(YData)))
    except PartMismatch as exc:
        raise ConfigError(f"{os.path.join(dirpath, exc.part)}.csv: {exc}") from exc


def read_field_csv(path):
    """The field that ``write_field_csv`` wrote to ``path``: its half-lattice
    rows, completed by ``conjugate_mirror``.  A sidecar with no ``layout``
    key reads as the full layout, whose rows must be Hermitian to rounding.
    A missing or unreadable file, a bad sidecar, a non-numeric cell, a bad
    row or layout, or a full file that is not Hermitian raises ConfigError
    naming the file."""
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:      # missing, not JSON, not numbers
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: the sidecar is not a JSON object")
    layout = meta.get("layout", "full")
    if layout not in ("full", "half"):
        raise ConfigError(f"{path}: unknown layout {layout!r}")
    try:
        grid = FrequencyGrid(meta["dim_h"], meta["box_len"], meta["modes"])
        bulk = meta["kind"] == "bulk"
        vgrid = VerticalGrid(meta["depth"], meta["nz"]) if bulk else None
        # rows index the whole lattice; a half file's lie on its half
        shape = (meta["comps"],) + grid.phys_shape + ((vgrid.count,) if bulk else ())
        data = np.zeros(shape, dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:     # a key, grid or count missing or bad
        raise ConfigError(f"{path}: bad sidecar ({type(exc).__name__}: {exc})") from exc
    if table.size:
        if table.shape[1] != len(shape) + 2:
            raise ConfigError(f"{path}: rows have {table.shape[1]} columns, "
                              f"expected {len(shape) + 2}")
        half = np.zeros(grid.phys_shape, dtype=bool)
        half[:grid.modes // 2 + 1] = grid.half_mask()
        rows = on_lattice(half, len(shape)) if layout == "half" else True
        index = _row_index(path, table[:, :len(shape)], np.broadcast_to(rows, shape))
        data[index] = table[:, -2] + 1j * table[:, -1]
    if layout == "full":        # the lattice reflected through xi = 0 is its conjugate
        defect = np.abs(reflect(np.flip(np.roll(data, -1, axis=1), axis=1), grid)
                        - np.conj(data)).max(initial=0.0)
        if defect > 1e-12 * np.abs(data).max(initial=0.0):
            raise ConfigError(f"{path}: the field is not Hermitian (defect {defect:.3g})")
    data = conjugate_mirror(data[:, :grid.modes // 2 + 1], grid)
    return SpectralField(grid, vgrid, data) if bulk else SurfaceSpectral(grid, data)


def _row_index(path, raw, rows):
    """The lattice index of every row of a field CSV, from its float index
    columns ``raw``.  ConfigError names the first row whose index is not an
    integer, lies off the lattice, repeats an earlier row's or lies off the
    entries that ``rows``, a boolean array of the field's shape, allows."""
    whole = np.all(raw == np.floor(raw), axis=1)
    inside = np.all((raw >= 0) & (raw < rows.shape), axis=1)
    index = tuple(np.where((whole & inside)[:, None], raw, 0).astype(np.intp).T)
    repeated = np.ones(len(raw), dtype=bool)
    repeated[np.unique(np.ravel_multi_index(index, rows.shape), return_index=True)[1]] = False
    problems = (("a non-integer index", ~whole), ("an index off the lattice", ~inside),
                ("a repeated index", repeated), ("an index off the half lattice", ~rows[index]))
    bad = np.logical_or.reduce([flags for _, flags in problems])
    if bad.any():
        row = int(np.argmax(bad))
        what = next(name for name, flags in problems if flags[row])
        shown = ", ".join(f"{v:g}" for v in raw[row])
        raise ConfigError(f"{path}: data row {row + 1} ({shown}) has {what}")
    return index

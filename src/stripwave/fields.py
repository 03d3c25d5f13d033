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
CSV and the one JSON format of the package; a field CSV holds the nonzero
rows of the half lattice.  ``write_csv``'s text, from a numpy kernel, is
byte-identical to %d / %.17g / %s; an entry it cannot certify takes %.17g.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .grids import FrequencyGrid, VerticalGrid
from .ops import on_lattice


def reflect(data: np.ndarray, grid: FrequencyGrid, first: int = 1) -> np.ndarray:
    """``data`` reflected through xi = 0 on the horizontal axes after
    ``first``: the value at -xi on the planes k1 = 0 and modes/2."""
    return np.take(data, grid.mirror, axis=first + 1) if grid.dim_h == 2 else data


def conjugate_mirror(data: np.ndarray, grid: FrequencyGrid, first: int = 1) -> np.ndarray:
    """A copy of ``data`` with conj(data(-xi)) (data(-xi) for an object
    array) off grid.half_mask: only the self-paired planes change."""
    out, planes = data.copy(), (slice(None),) * first + ([0, -1],)
    mirror = reflect(data[planes], grid, first)
    out[planes] = np.where(on_lattice(grid.half_mask[[0, -1]], data.ndim, first),
                           data[planes], mirror if data.dtype == object else np.conj(mirror))
    return out


def support(tup: "FieldTuple") -> np.ndarray:
    """The freq_shape mask where some part of the field tuple is nonzero."""
    shape = tup.grid.freq_shape
    return np.logical_or.reduce([part.data.reshape((len(part.data),) + shape + (-1,))
                                 .any(axis=(0, -1)) for part in tup.parts()])


def gather_index(mask: np.ndarray):
    """np.flatnonzero(mask), as a slice when it has no gap; a lone index gets
    a second one, as numpy multiplies one row by another BLAS kernel."""
    flat = np.flatnonzero(mask)
    flat = np.union1d(flat, [flat[0] == 0]) if len(flat) == 1 else flat
    run = len(flat) and flat[-1] - flat[0] == len(flat) - 1
    return slice(flat[0], flat[-1] + 1) if run else flat


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

    def rows(self, at=slice(None)) -> np.ndarray:
        """``data`` as (comps, lattice size[, nodes]) at the gather_index ``at``:
        for a slice a view of contiguous data, else an np.take copy (fast)."""
        rows = self.data.reshape((self.comps, -1) + self.data.shape[1 + self.grid.dim_h:])
        return rows[:, at] if isinstance(at, slice) else rows.take(at, axis=1)

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

_CSV_BLOCK = 4096   # CSV rows formatted per block: bounds the arrays alive at a time
_GAP = 0xFF         # fills the bytes a cell leaves unused; no UTF-8 text holds it


def write_csv(path, header, columns):
    """The one CSV format: a header line, then one row per entry of the
    equal-length 1-D ``columns``, formatted %d for integer columns, %.17g
    for float columns and %s otherwise, with CRLF line ends, from blocks of
    byte cells; ValueError when ``header`` names more or fewer, or none."""
    if not columns or len(header) != len(columns):
        raise ValueError(f"a CSV header of {len(header)} names for {len(columns)} columns")
    size = len(columns[0])
    if any(len(col) != size for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, size, _CSV_BLOCK):
            cells = [_cells(col[lo:lo + _CSV_BLOCK]) for col in columns]
            comma, end = (np.broadcast_to(np.frombuffer(s, np.uint8), (len(cells[0]), len(s)))
                          for s in (b",", b"\r\n"))
            row = np.hstack([part for cell in cells for part in (cell, comma)][:-1] + [end])
            fh.write(row.tobytes().translate(None, bytes([_GAP])).decode())


def _cells(col):
    """The entries of the 1-D array ``col`` as rows of byte cells: integers
    below 10^4 from a table, floats by _float_cells, and each entry it cannot
    certify, or of another kind, by Python's own format."""
    kind = col.dtype.kind
    if kind in "iu" and col.min() >= 0 and col.max() < 10 ** 4:
        return _digit_tables()[0].take(col, axis=0)
    out, slow = (_float_cells(col.astype(np.float64)) if kind == "f" and col.itemsize <= 8
                 else (np.empty((len(col), 0), np.uint8), slice(None)))
    form = "%.17g" if kind == "f" else "%d" if kind in "iu" else "%s"
    raw = [(form % (v,)).encode() for v in col[slow].tolist()]
    width = max([out.shape[1], *map(len, raw)])
    out = np.pad(out, ((0, 0), (0, width - out.shape[1])), constant_values=_GAP)
    out[slow] = np.frombuffer(b"".join(b.ljust(width, b"\xff") for b in raw),
                              np.uint8).reshape(len(raw), width)
    return out


def _split(v):
    """Veltkamp's split of ``v`` into two halves of 26 bits each (hi, lo)."""
    c = v * 134217729.0
    hi = c - (c - v)
    return hi, v - hi


@functools.lru_cache(maxsize=1024)
def _decade(E):
    """For the decimal exponent E: hi, its _split and lo, where 10^(16-E) = hi + lo
    and each is correctly rounded; and the 48 bytes of a cell for a + and a -
    value: sign, a small value's lead "0.0..", per digit a 0 and the point or a gap, exponent."""
    num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
    hi = num / den
    n, d = hi.as_integer_ratio()
    fixed, small = -4 <= E < 17, -4 <= E < 0
    at = -1 if small else E if fixed else 0         # the digit the point follows
    text = ((b"0." + b"0" * (-E - 1) if small else b"").ljust(5, b"\xff")
            + b"".join(b"\0." if i == at else b"\0\xff" for i in range(17))
            + (b"" if fixed else b"e%+03d" % E).ljust(8, b"\xff"))
    return (hi, *_split(hi), (num * d - n * den) / (den * d)), b"\xff" + text + b"-" + text


@functools.lru_cache(maxsize=1)
def _digit_tables():
    """Built at first use: the cells of the integers 0 .. 9999; their four digits,
    zero-padded, as (digit, 0) byte pairs in one '<u8'; at g 10^4 + v, the digits
    a value shows through v's last nonzero digit when v is its group g = 0 .. 3
    after the first digit (1 if v = 0); per m = 0 .. 17, the gaps past m digits."""
    quads = (np.arange(10 ** 4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1])) % 10 + 48
    lead = np.logical_or.accumulate(quads > 48, axis=1) | (np.arange(4) == 3)
    last = np.where(quads > 48, np.arange(2, 18, dtype=np.uint8).reshape(4, 1, 4), 1).max(axis=2)
    j = np.arange(48) - 6
    gaps = (j >= 0) & (j < 34) & (j // 2 + j % 2 >= np.arange(18)[:, None])
    return (np.where(lead, quads, _GAP).astype(np.uint8), quads.astype("<u2").view("<u8").ravel(),
            last.ravel(), (gaps * _GAP).astype(np.uint8).view("<u8"))


def _float_cells(x):
    """'%.17g' % v for each entry v of the float64 array ``x``, as rows of 48
    byte cells, and the entries it cannot certify (Grisu's design: Loitsch,
    PLDI 2010).  With E = floor(log10 |v|), P = |v| 10^(16-E) rounds to the 17
    digits D = p + rint(q): p = fl(|v| hi), q its error by Dekker's exact
    product plus |v| lo, off P by < 2^-53 (|v lo| + 2^5) + 2^-106 1e17 < 1e-14.
    Uncertified: |v| outside [1e-280, 1e280] (where a step could overflow or
    underflow; nan, inf), P outside [1e16, 1e17 - 1/2) or within 2^-40 of a tie."""
    a, zero = np.abs(x), x == 0
    fast = zero | ((a >= 1e-280) & (a <= 1e280))
    a[~fast | zero] = 2.0                   # any finite value: these cells are replaced
    E = np.floor(np.log10(a)).astype(np.int64)
    consts, rows = zip(*map(_decade, range(E.min(), E.max() + 1)))
    hi, hh, hl, lo = np.array(consts).T.take(E - E.min(), axis=1)
    (ah, al), p = _split(a), a * hi
    q = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    D = np.where(zero, 0, p.astype(np.int64) + np.rint(q).astype(np.int64))
    fast &= (((p - 1e16) + q >= 2.0 ** -40) & (D < 10 ** 17)
             & (np.abs(q - np.floor(q) - 0.5) >= 2.0 ** -40))
    G = D // np.array([10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1])[:, None]
    Q = G[1:] - G[:-1] * 10 ** 4            # the digits after the first in groups of 4
    _, pairs, last, gaps = _digit_tables()
    keep = np.where(E > 16, 0, E + 1)       # %g's integer digits
    m = np.maximum(last.take(Q + 10 ** 4 * np.arange(4)[:, None]).max(axis=0), keep)
    table = (np.frombuffer(b"".join(rows), "<u8").reshape(-1, 1, 6) | gaps).reshape(-1, 6)
    out = table.take(((E - E.min()) * 2 + np.signbit(x)) * 18 + m, axis=0)
    out[:, 0] |= (G[0].astype("<u8") + 48) << 48
    out[:, 1:5] |= pairs.take(Q.T)
    return out.view(np.uint8), np.flatnonzero(~fast)


def _strict_json(obj):
    """``obj`` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return str(float(obj)) if isinstance(obj, (float, np.floating)) and not np.isfinite(obj) else obj


def write_json(path, payload):
    """The one JSON format, strict RFC 8259: 2-space indent, sorted keys,
    numpy scalars as floats, a non-finite float as the string that float()
    reads back ("inf", "-inf", "nan"), and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)
        fh.write("\n")


def write_field_csv(path, field):
    """Write a lattice field as CSV rows of (component, xi indices, node
    index) with re/im columns, one per nonzero index of the half lattice
    grid.half_mask in C order (an entry equal to 0, -0 too, has no row), and
    its grids and row count ``rows`` to the JSON sidecar path + ".json",
    which says ``"layout": "half"``; ``real_flag`` is always true (fields are real)."""
    grid = field.grid
    bulk = isinstance(field, SpectralField)
    header = (["comp"] + [f"k{i+1}" for i in range(grid.dim_h)]
              + (["node"] if bulk else []) + ["re", "im"])
    meta = {"dim_h": grid.dim_h, "box_len": grid.box_len, "modes": grid.modes,
            "comps": field.comps, "real_flag": True, "layout": "half",
            "kind": "bulk" if bulk else "surface"}
    if bulk:
        meta.update(depth=field.vgrid.depth, nz=field.vgrid.count)
    index = np.nonzero(on_lattice(grid.half_mask, field.data.ndim) & (field.data != 0))
    values = field.data[index]
    write_csv(path, header, [*index, values.real, values.imag])
    write_json(str(path) + ".json", {**meta, "rows": len(values)})


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
    """The field that ``write_field_csv`` wrote to ``path``: its rows' values
    bit for bit, +0 where a row is absent, completed by ``conjugate_mirror``.
    A sidecar with no ``layout`` key reads as the full layout, whose rows
    must be Hermitian to rounding.  A missing or unreadable file, a bad
    sidecar, a non-numeric cell, a bad row (its index, or a value that is
    not finite) or layout, a row count other than the sidecar's ``rows`` (a
    sidecar without it is not checked), or a full file that is not
    Hermitian raises ConfigError naming the file."""
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        with warnings.catch_warnings():     # a field of zeros has no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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
        if meta["kind"] not in ("bulk", "surface"):
            raise ValueError(f"kind must be 'bulk' or 'surface', got {meta['kind']!r}")
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
        half[:grid.modes // 2 + 1] = grid.half_mask
        rows = on_lattice(half, len(shape)) if layout == "half" else True
        index = _row_index(path, table, np.broadcast_to(rows, shape))
        data.real[index], data.imag[index] = table[:, -2], table[:, -1]
    if meta.get("rows", len(table)) != len(table):
        raise ConfigError(f"{path}: {len(table)} data rows, the sidecar says {meta['rows']!r}")
    if layout == "full":        # the lattice reflected through xi = 0 is its conjugate
        defect = np.abs(reflect(np.flip(np.roll(data, -1, axis=1), axis=1), grid)
                        - np.conj(data)).max(initial=0.0)
        if defect > 1e-12 * np.abs(data).max(initial=0.0):
            raise ConfigError(f"{path}: the field is not Hermitian (defect {defect:.3g})")
    data = conjugate_mirror(data[:, :grid.modes // 2 + 1], grid)
    return SpectralField(grid, vgrid, data) if bulk else SurfaceSpectral(grid, data)


def _row_index(path, table, rows):
    """The lattice index of every row of a field CSV, from the float index
    columns that lead each row of ``table``.  ConfigError names the first
    row whose index is not an integer, lies off the lattice, repeats an
    earlier row's or lies off the entries that ``rows``, a boolean array of
    the field's shape, allows, or whose re or im value is not finite."""
    raw = table[:, :rows.ndim]
    whole = np.all(raw == np.floor(raw), axis=1)
    inside = np.all((raw >= 0) & (raw < rows.shape), axis=1)
    index = tuple(np.where((whole & inside)[:, None], raw, 0).astype(np.intp).T)
    repeated = np.ones(len(raw), dtype=bool)
    repeated[np.unique(np.ravel_multi_index(index, rows.shape), return_index=True)[1]] = False
    problems = (("a non-integer index", ~whole), ("an index off the lattice", ~inside),
                ("a repeated index", repeated), ("an index off the half lattice", ~rows[index]),
                ("a value that is not finite", ~np.isfinite(table[:, rows.ndim:]).all(axis=1)))
    bad = np.logical_or.reduce([flags for _, flags in problems])
    if bad.any():
        row = int(np.argmax(bad))
        what = next(name for name, flags in problems if flags[row])
        shown = ", ".join(f"{v:g}" for v in raw[row])
        raise ConfigError(f"{path}: data row {row + 1} ({shown}) has {what}")
    return index

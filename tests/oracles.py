"""The tests' oracles: for the closed-form solves of ``stripwave.odesystem``,
scipy's matrix exponential and dense Chebyshev collocation of the
first-order system, and one-frequency solves as one-member stacks; for
``stripwave.fields.write_csv``, a writer that formats every row with
Python's ``%`` operator; and ``traced_peak``, the memory tests' one use of
tracemalloc.  None of them is on a production path, so scipy is needed by
the tests alone.

A problem's coefficients ``coefs`` are (gamma_tilde, alpha1, alpha2), as
``FrequencyStack`` takes them after the params and the vertical grid."""

import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm, lapack
from scipy.linalg import lu_factor as _lu_factor
from scipy.linalg import lu_solve

from stripwave import odesystem
from stripwave.errors import IllConditionedCollocation, NumericallySingular
from stripwave.odesystem import (FrequencyStack, assemble_boundary, assemble_bulk_matrix,
                                 rho_of, symbol_profiles)


def one_frequency(xi) -> np.ndarray:
    """The frequency ``xi`` (a scalar or (dim_h,)) as a stack of one, (1, dim_h)."""
    return np.atleast_1d(np.asarray(xi, dtype=float))[None]


def solve_one(p, vgrid, coefs, xi, z_profile, d_vec):
    """One forced problem at ``xi`` as a one-member FrequencyStack, bulk
    forcing ``z_profile`` (6, Nz) or None; returns (Y, backend, cond)."""
    stack = FrequencyStack(p, vgrid, *coefs, one_frequency(xi))
    z = None if z_profile is None else np.asarray(z_profile, dtype=complex)[None]
    Y = stack.solve(z, np.asarray(d_vec, dtype=complex)[None])
    return Y[0], stack.backend[0], float(stack.cond[0])


class Symbol(NamedTuple):
    """Response profiles to a unit normal stress at one frequency."""

    y: np.ndarray                  # (6, Nz); y[1, -1] is psi(b), y[2, -1] delta(b)
    rho: complex
    backend: str
    cond: float


def solve_symbol(xi, p, vgrid) -> Symbol:
    """``symbol_profiles`` at the one frequency ``xi``."""
    xis = one_frequency(xi)
    Y, backend, cond = symbol_profiles(xis, p, vgrid)
    return Symbol(Y[0], rho_of(p, xis[0], Y[0, 1, -1]), backend[0], float(cond[0]))


def matrix_exponential(M: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """exp(t M) by scipy's ``expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009).

    ``M`` is one matrix (n, n) or a stack (..., n, n); ``t`` is a scalar or an
    array broadcast against the stack shape.  ``expm`` treats each member on
    its own, so a stack equals one-at-a-time calls bit for bit.  A non-finite
    input or an overflowed result raises NumericallySingular.
    """
    A = np.asarray(t)[..., None, None] * np.asarray(M, dtype=complex)
    if not np.all(np.isfinite(A)):
        raise NumericallySingular("non-finite matrix handed to the exponential")
    X = expm(A)
    if not np.all(np.isfinite(X)):
        raise NumericallySingular("matrix exponential overflowed")
    return X


def lu_factor(a: np.ndarray, **options):
    """scipy's ``lu_factor``, by this name so that a test can count it."""
    return _lu_factor(a, **options)


def solve_collocation(p, vgrid, coefs, xi, z_profile, d_vec):
    """Collocation solve of the problem with coefficients ``coefs`` at one
    frequency; returns (Y, cond_estimate).

    The system kron(I6, D) - kron(A, I_nz) (Trefethen, Spectral Methods in
    MATLAB, SIAM 2000, ch. 6 and 13) with the boundary rows in place of
    the interior equation: the bottom node of phi, psi and delta takes
    its row of M, the top node of the others its row of N, in one
    Fortran-ordered buffer that the LU overwrites.  One LU, its LAPACK
    1-norm condition estimate checked against odesystem.COND_LIMIT, and
    one solve.
    """
    nz, D = vgrid.count, vgrid.diff.T
    gamma_tilde, alpha1, alpha2 = coefs
    A = assemble_bulk_matrix(xi, p, gamma_tilde)
    Mmat, Nmat = assemble_boundary(xi, p, alpha1, alpha2)
    # the system's transpose, C-ordered: kron(A^T, I), each block subtracted in place from
    # D^T or 0.0 D^T as kron(I6, D) - kron(A, I) computes it (signed zeros reach Y)
    blocks = np.kron(np.ascontiguousarray(A.T), np.eye(nz)).reshape(6, nz, 6, nz)
    for i, j in np.ndindex(6, 6):
        np.subtract(D if i == j else 0.0 * D, blocks[i, :, j], out=blocks[i, :, j])
    sys = blocks.reshape(6 * nz, 6 * nz).T         # the system, Fortran-ordered
    rows = [c * nz + (0 if c < 3 else nz - 1) for c in range(6)]
    for c, row in enumerate(rows):
        sys[row] = 0.0
        # a bottom row meets every component's bottom node, a top row every top node
        sys[row, row % nz::nz] = (Mmat if c < 3 else Nmat)[c]
    anorm = lapack.zlange("1", sys)
    lu = lu_factor(sys, overwrite_a=True)
    cond = 1.0 / max(lapack.zgecon(lu[0], anorm)[0], np.finfo(float).tiny)
    if cond > odesystem.COND_LIMIT:
        raise IllConditionedCollocation(
            f"collocation condition estimate {cond:.3g} beyond "
            f"{odesystem.COND_LIMIT:.3g}", cond_estimate=cond)
    rhs = np.zeros(6 * nz, dtype=complex) if z_profile is None \
        else np.array(z_profile, dtype=complex).reshape(-1)
    rhs[rows] = d_vec
    return lu_solve(lu, rhs, overwrite_b=True).reshape(6, nz), cond


_CSV_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g"}


def write_csv(path, header, columns):
    """The CSV that ``stripwave.fields.write_csv`` must write, byte for byte:
    a header line, then one row per entry of the equal-length 1-D
    ``columns``, formatted %d for integer columns, %.17g for float columns
    and %s otherwise, with CRLF line ends, by one ``%`` call per block of
    4096 rows."""
    size = len(columns[0])
    if any(len(col) != size for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    row = ",".join(_CSV_FORMATS.get(col.dtype.kind, "%s") for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, size, 4096):
            block = [col[lo:lo + 4096].tolist() for col in columns]
            fh.write(row * len(block[0])
                     % tuple(itertools.chain.from_iterable(zip(*block))))


def traced_peak(fn, *args):
    """``fn(*args)`` under tracemalloc: its result, the bytes still traced
    when it returns (kept) and the traced peak.  What was allocated before
    the call is not traced."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak

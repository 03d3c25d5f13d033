"""The tests' oracles for the closed-form solves of ``stripwave.odesystem``:
scipy's matrix exponential and dense Chebyshev collocation of the
first-order system.  Neither is on a production path, so scipy is needed
by the tests alone."""

import numpy as np
from scipy.linalg import expm, lapack
from scipy.linalg import lu_factor as _lu_factor
from scipy.linalg import lu_solve

from stripwave import odesystem
from stripwave.errors import IllConditionedCollocation, NumericallySingular
from stripwave.odesystem import assemble_boundary, assemble_bulk_matrix


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


def solve_collocation(solver, xi, z_profile, d_vec):
    """Collocation solve of ``solver``'s problem at one frequency; returns
    (Y, cond_estimate).

    The system kron(I6, D) - kron(A, I_nz) (Trefethen, Spectral Methods in
    MATLAB, SIAM 2000, ch. 6 and 13) with the boundary rows in place of
    the interior equation: the bottom node of phi, psi and delta takes
    its row of M, the top node of the others its row of N, in one
    Fortran-ordered buffer that the LU overwrites.  One LU, its LAPACK
    1-norm condition estimate checked against odesystem.COND_LIMIT, and
    one solve.
    """
    nz, D = solver.vgrid.count, solver.vgrid.diff.T
    A = assemble_bulk_matrix(xi, solver.p, solver.gamma_tilde)
    Mmat, Nmat = assemble_boundary(xi, solver.p, solver.alpha1, solver.alpha2)
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

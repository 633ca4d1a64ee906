"""Singular values, the spectral norm, and identities around s2.

For doubly regular matrices (all row and column sums equal to d) the second
singular value satisfies s2(A) = ||A - (d/n) 11^t||, which this module
exposes both as a computation and as a checkable identity.
"""

import numpy as np

from .core import SquareMatrix, as_entries, column_sums, row_sums

__all__ = [
    "RTOL",
    "singular_values",
    "singular_value",
    "spectral_norm",
    "second_singular",
    "s2_via_centering",
    "centered_offdiag",
    "perron_check",
    "spectral_radius",
]


# Relative accuracy of singular_value against singular_values. The tail
# comparisons count a statistic within RTOL |tau| below a threshold tau as
# reaching it, so no count depends on which of the two ran.
RTOL = 1e-10


def singular_values(M) -> np.ndarray:
    """All singular values in nonincreasing order, clipped at 0; one row per
    matrix for a (count, rows, cols) stack, each bit-identical to that
    matrix's own SVD."""
    return np.clip(np.linalg.svd(as_entries(M), compute_uv=False), 0.0, None)


def singular_value(stack, index: int) -> np.ndarray:
    """s_index of each matrix of a (count, rows, cols) stack, or 0.0 where a
    matrix has fewer singular values; within RTOL of singular_values.

    s_index is the square root of an eigenvalue lambda of the smaller Gram
    matrix G (E^t E or E E^t), from one batched matmul and one batched
    eigvalsh; accurate when s_index is not small against s1 (Golub & Van
    Loan, Matrix Computations, 8.6). Rounding in G moves lambda by about
    max(rows, cols) eps trace(G) at most, and eigvalsh's backward error by
    about min(rows, cols) eps ||G||, with ||G|| <= trace(G) = ||E||_F^2.
    So sqrt(lambda) is within RTOL when lambda >= (rows + cols) eps
    trace(G) / (2 RTOL). A matrix below that floor takes its s_index from
    singular_values instead; an all-zero matrix gives exactly 0.0.
    """
    E = np.asarray(stack, dtype=np.float64)
    count, rows, cols = E.shape
    k = min(rows, cols)
    if index >= k:
        return np.zeros(count)
    Et = np.swapaxes(E, 1, 2)
    G = Et @ E if cols <= rows else E @ Et
    lam = np.linalg.eigvalsh(G)[:, k - 1 - index]
    eps = np.finfo(np.float64).eps
    floor = (rows + cols) * eps * np.trace(G, axis1=1, axis2=2) / (2.0 * RTOL)
    s = np.sqrt(np.maximum(lam, 0.0))
    low = lam <= floor
    if np.any(low):
        s[low] = singular_values(E[low])[:, index]
    return s


# The tail engine takes its per-trial singular values from singular_value.
# The values a command writes out (analyze's s1 and s2, ||M||, the scaling
# and verify oracles) come from the full dense SVD: subspace iteration on the
# top pair stalls on the tiny s2/s3 gap at the bulk edge, and importing
# scipy's sparse Lanczos solver costs more time and memory than it saves on
# matrices of a few hundred rows.
def spectral_norm(M) -> float:
    return float(singular_values(M)[0])


def second_singular(M) -> float:
    """s2, or 0.0 when there is only one singular value (or none)."""
    s = singular_values(M)
    return float(s[1]) if s.size > 1 else 0.0


def s2_via_centering(A, d: float, tol: float = 1e-8) -> float:
    """s2 of a doubly regular matrix as ||A - (d/n) 11^t||.

    Requires all row and column sums to equal d (within tol * max(1, d));
    raises naming the first offending row or column otherwise.
    """
    E = as_entries(A)
    n = E.shape[0]
    atol = tol * max(1.0, abs(d))
    u = column_sums(E)
    v = row_sums(E)
    bad_v = np.nonzero(np.abs(v - d) > atol)[0]
    if bad_v.size:
        raise ValueError(f"row {bad_v[0] + 1} has sum {v[bad_v[0]]!r}, expected {d!r}")
    bad_u = np.nonzero(np.abs(u - d) > atol)[0]
    if bad_u.size:
        raise ValueError(f"column {bad_u[0] + 1} has sum {u[bad_u[0]]!r}, expected {d!r}")
    return spectral_norm(E - (d / n) * np.ones((n, n)))


def centered_offdiag(A, d: float) -> SquareMatrix:
    """B = A - (d/n) 11^t minus its own diagonal; always zero-diagonal."""
    E = as_entries(A)
    n = E.shape[0]
    B = E - (d / n) * np.ones((n, n))
    np.fill_diagonal(B, 0.0)
    return SquareMatrix(B, zero_diagonal=True)


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(as_entries(M)))))


def perron_check(M, x, tol: float = 1e-8) -> dict:
    """Positive-eigenvector check: for nonnegative M, an eigenvector with
    strictly positive coordinates must carry the spectral radius.

    rho is estimated as the median of the componentwise ratios (Mx)_i/x_i,
    robust to one noisy coordinate; the residual test is authoritative.
    """
    E = as_entries(M)
    x = np.asarray(x, dtype=np.float64)
    if np.any(E < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    if x.ndim != 1 or x.size != E.shape[0]:
        raise ValueError("x must be a vector matching the matrix dimension")
    if np.any(x <= 0):
        raise ValueError("x must have strictly positive coordinates")
    Mx = E @ x
    rho = float(np.median(Mx / x))
    is_eigen = bool(np.linalg.norm(Mx - rho * x) <= tol * np.linalg.norm(x))
    matches_radius = False
    if is_eigen:
        matches_radius = bool(abs(rho - spectral_radius(E)) <= tol * max(1.0, abs(rho)))
    return {"rho": rho, "is_eigen": is_eigen, "matches_radius": matches_radius}

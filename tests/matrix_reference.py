"""Reference relabelings, corners and blocks for the tests: the plain numpy
expressions that the engine's index arithmetic must agree with. Each takes
a SquareMatrix or an array.

``perron_vector`` is the one-matrix power iteration of ``verify perron``.

``derangement`` draws the derangements of the reference samplers by its
own rejection loop, so that a fault in the sampler's loop can show, and
``signed_regular`` sums three of them with one negated.

``centered_offdiag`` is the reference definition of the centered matrix
B = A - (d/n) 11^t (off the diagonal) of a d-regular A, whose norm varies
from sample to sample where ||A|| does not.

``_csv_rows_by_line`` is the reference CSV line parser: the values and
errors that ``core.matrix_from_csv_file`` must give on every regular file."""

import numpy as np

from exspec.core import SquareMatrix


def _entries(A) -> np.ndarray:
    return np.asarray(getattr(A, "entries", A))


def relabel(A, p) -> np.ndarray:
    """Simultaneous relabeling: result[i, j] = A[p[i], p[j]]."""
    return _entries(A)[np.ix_(p, p)]


def corner(A) -> np.ndarray:
    """Rows 1..floor(n/2) by the last floor(n/2) columns (1-based)."""
    E = _entries(A)
    m = len(E) // 2
    return E[:m, len(E) - m:]


def quadrants(A):
    """The blocks (M11, M12, M21, M22) of the split at m = floor(n/2)."""
    E = _entries(A)
    m = len(E) // 2
    return E[:m, :m], E[:m, m:], E[m:, :m], E[m:, m:]


def max_l2_reference(A) -> np.ndarray:
    """The largest row or column l2 norm of a matrix, or of each of a stack."""
    E = _entries(A)
    return np.maximum(np.linalg.norm(E, axis=-1).max(axis=-1),
                      np.linalg.norm(E, axis=-2).max(axis=-1))


def permutation_matrix(p) -> np.ndarray:
    """The matrix P with P[i, p[i]] = 1."""
    return np.eye(len(p))[p]


def derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform fixed-point-free permutation: ``rng.permutation(n)`` redrawn
    until no i maps to itself."""
    while True:
        p = rng.permutation(n)
        if np.all(p != np.arange(n)):
            return p


def signed_regular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Three edge-disjoint derangement matrices, the middle one negated: all
    its absolute row and column sums are 3, yet it is not nonnegative."""
    A = np.zeros((n, n))
    idx = np.arange(n)
    for sign in (1.0, -1.0, 1.0):
        p = derangement(n, rng)
        while A[idx, p].any():
            p = derangement(n, rng)
        A[idx, p] = sign
    return A


def centered_offdiag(A, d: float) -> SquareMatrix:
    """B = A - (d/n) 11^t minus its own diagonal; always zero-diagonal."""
    E = _entries(A)
    n = E.shape[0]
    B = E - (d / n) * np.ones((n, n))
    np.fill_diagonal(B, 0.0)
    return SquareMatrix(B, zero_diagonal=True)


def perron_vector(M) -> np.ndarray:
    """Power iteration from the all-ones vector on one positive matrix, one
    matrix-vector product at a time: it stops at the first step that moves
    x by less than 1e-14 and keeps the x that step started from, or after
    2000 steps."""
    E = _entries(M)
    x = np.ones(len(E))
    for _ in range(2000):
        y = E @ x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < 1e-14:
            break
        x = y
    return x


def _csv_rows_by_line(text: str) -> np.ndarray:
    """Reference parser: float() on every field, errors name the file line."""
    rows = []
    linenos = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as e:
            raise ValueError(f"parse error at line {lineno}: {e}") from None
        linenos.append(lineno)
    if not rows:
        raise ValueError("empty matrix file")
    width = len(rows[0])
    for lineno, r in zip(linenos, rows):
        if len(r) != width:
            raise ValueError(f"parse error at line {lineno}: expected {width} values, got {len(r)}")
    return np.array(rows)

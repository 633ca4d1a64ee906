"""Reference relabelings, corners and blocks for the tests: the plain numpy
expressions that the engine's index arithmetic must agree with. Each takes
a SquareMatrix or an array."""

import numpy as np


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


def permutation_matrix(p) -> np.ndarray:
    """The matrix P with P[i, p[i]] = 1."""
    return np.eye(len(p))[p]

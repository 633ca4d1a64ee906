"""Square matrices and sparse stacks of blocks.

Conventions: internally everything is 0-based numpy; error messages use
1-based indices. Entries are float64, including 0/1 adjacency matrices.
All objects are immutable after construction and safe to share. A
relabeling is an index array p (giving A[np.ix_(p, p)]), and a corner or
block is a range of rows by a range of columns. A stack of blocks is a
dense (count, rows, cols) array, or a ``SparseStack`` of its nonzeros.

A CSV matrix file is read in one pass into one n x n array
(``matrix_from_csv_file``): its lines, decoded as ASCII with universal
newlines, go straight to ``np.loadtxt``, and the matrix takes over the
parsed array without a copy. A file loadtxt does not take, or whose text
is not plain ASCII lines, is read again as a whole by the line parser
(``_csv_rows_by_line``), so every file parses as that parser parses it.
"""

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SquareMatrix",
    "as_entries",
    "SparseStack",
    "abs_sums",
    "column_sums",
    "row_sums",
    "matrix_to_json",
    "matrix_from_json",
    "matrix_to_csv",
    "matrix_from_csv_file",
]


@dataclass(frozen=True)
class SquareMatrix:
    """Real n x n matrix, optionally tagged as having zero diagonal."""

    entries: np.ndarray
    zero_diagonal: bool = False

    def __post_init__(self):
        # A copy, so that no caller holds a writeable alias of the entries.
        self._own(np.array(self.entries, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "SquareMatrix":
        """The untagged matrix over ``a`` itself, for a float64 array that
        nothing else refers to (one a parser has just built): the checks of
        the constructor without its n x n copy."""
        M = object.__new__(cls)
        object.__setattr__(M, "zero_diagonal", False)
        M._own(np.asarray(a, dtype=np.float64))
        return M

    def _own(self, a: np.ndarray) -> None:
        """Check ``a`` and make it the read-only entries."""
        if a.ndim != 2:
            raise ValueError("entries must be a 2-d array")
        if a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix with n >= 1, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if self.zero_diagonal and np.any(np.diag(a) != 0.0):
            i = int(np.nonzero(np.diag(a))[0][0])
            raise ValueError(f"zero-diagonal tag but entry ({i + 1},{i + 1}) is nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def nonzeros(self):
        """Rows, columns and values of the nonzero entries, in row-major
        order; found once per matrix, and read-only like the entries."""
        i, j = np.nonzero(self.entries)
        triples = (i, j, self.entries[i, j])
        for a in triples:
            a.setflags(write=False)
        return triples


def as_entries(M) -> np.ndarray:
    """The entries of a SquareMatrix; any other array as float64."""
    return M.entries if hasattr(M, "entries") else np.asarray(M, dtype=np.float64)


@dataclass(frozen=True)
class SparseStack:
    """A (count, rows, cols) stack of matrices by their nonzero entries:
    matrix t holds ``value[e]`` at (``row[e]``, ``col[e]``) for every e with
    ``member[e] == t``, and entries at one position add up."""

    shape: tuple
    member: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return self.shape[0]

    def dense(self) -> np.ndarray:
        """The (count, rows, cols) array, scattered with one bincount."""
        count, rows, cols = self.shape
        flat = (self.member * rows + self.row) * cols + self.col
        # With no entries at all, bincount returns integers even when weighted.
        counts = np.bincount(flat, self.value, count * rows * cols)
        return counts.astype(np.float64, copy=False).reshape(self.shape)

    def transpose(self) -> "SparseStack":
        count, rows, cols = self.shape
        return SparseStack((count, cols, rows), self.member, self.col, self.row, self.value)

    def take(self, mask: np.ndarray) -> "SparseStack":
        """The members where the boolean ``mask`` holds, in order."""
        keep = mask[self.member]
        renumber = np.cumsum(mask) - 1
        return SparseStack((int(np.count_nonzero(mask)),) + tuple(self.shape[1:]),
                           renumber[self.member[keep]], self.row[keep], self.col[keep],
                           self.value[keep])


def abs_sums(stack):
    """Column sums u and row sums v of |E| for each matrix E of a dense or
    sparse (count, rows, cols) stack: (count, cols) and (count, rows)."""
    if not isinstance(stack, SparseStack):
        A = np.abs(stack)
        return A.sum(axis=1), A.sum(axis=2)
    count, rows, cols = stack.shape
    a = np.abs(stack.value)
    u = np.bincount(stack.member * cols + stack.col, a, count * cols)
    v = np.bincount(stack.member * rows + stack.row, a, count * rows)
    return (u.astype(np.float64, copy=False).reshape(count, cols),
            v.astype(np.float64, copy=False).reshape(count, rows))


def column_sums(M) -> np.ndarray:
    """u_i = l1 norm of column i (plain sum for nonnegative matrices)."""
    return np.abs(as_entries(M)).sum(axis=0)


def row_sums(M) -> np.ndarray:
    """v_i = l1 norm of row i."""
    return np.abs(as_entries(M)).sum(axis=1)


# --- serialization -------------------------------------------------------
#
# JSON uses Python's shortest round-trip float repr, so dump -> load is
# bit-exact. CSV is one row per line, same float formatting.

def matrix_to_json(M: SquareMatrix) -> str:
    return json.dumps(
        {"n": M.n, "zero_diagonal": M.zero_diagonal, "entries": M.entries.tolist()}
    )


def matrix_from_json(text: str) -> SquareMatrix:
    """The matrix of a ``matrix_to_json`` object: ``entries``, an integer ``n``
    and an optional boolean ``zero_diagonal``; ValueError for any other JSON."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError('a JSON matrix must be an object with "entries"')
    n, zero_diagonal = obj.get("n"), obj.get("zero_diagonal", False)
    if type(n) is not int:  # json.loads makes true and false bools, not ints
        raise ValueError('a JSON matrix needs an integer "n"')
    if type(zero_diagonal) is not bool:
        raise ValueError('"zero_diagonal" must be true or false')
    try:
        M = SquareMatrix(obj["entries"], zero_diagonal=zero_diagonal)
    except (TypeError, OverflowError):  # e.g. an object, or an integer beyond float64
        raise ValueError("matrix entries must be numbers") from None
    if M.n != n:
        raise ValueError(f"declared n={n} but entries are {M.n}x{M.n}")
    return M


def matrix_to_csv(M: SquareMatrix) -> str:
    lines = [",".join(repr(float(x)) for x in row) for row in M.entries]
    return "\n".join(lines) + "\n"


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


# Line breaks of str.splitlines() that loadtxt reads as plain whitespace.
_SPLITLINES_ONLY_ASCII = "\x0b\x0c\x1c\x1d\x1e"


def _loadtxt_lines(lines):
    """``lines`` one by one; ValueError at the first that is not ASCII or
    holds a break that splitlines() sees and loadtxt does not, since on such
    text the two could split lines differently."""
    for line in lines:
        if not line.isascii() or any(c in line for c in _SPLITLINES_ONLY_ASCII):
            raise ValueError("not plain ASCII lines")
        yield line


def matrix_from_csv_file(path) -> SquareMatrix:
    """The matrix of a CSV file, read in one pass into one array: the file is
    decoded as ASCII with universal newlines, and its lines go to np.loadtxt.
    A file that loadtxt rejects or finds no data in, or that is not plain
    ASCII lines, is read again as a whole by the line parser, which accepts
    what float() accepts (e.g. ``1_0`` and whitespace-only lines) and names
    the offending line."""
    p = Path(path)
    a = np.empty((0, 0))
    try:
        with p.open(encoding="ascii") as f, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            a = np.loadtxt(_loadtxt_lines(f), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # so is the UnicodeDecodeError of a file that is not ASCII
        pass
    if not a.size:
        a = _csv_rows_by_line(p.read_text())
    return SquareMatrix._adopt(a)

"""Square matrices and sparse stacks of blocks.

Conventions: internally everything is 0-based numpy; error messages use
1-based indices. Entries are float64, including 0/1 adjacency matrices.
All objects are immutable after construction and safe to share. A
relabeling is an index array p (giving A[np.ix_(p, p)]), and a corner or
block is a range of rows by a range of columns. A stack of blocks is a
dense (count, rows, cols) array, or a ``SparseStack`` of its nonzeros;
``SparseStack.block`` cuts a block from such a stack, and ``max_l2`` reads
its largest row and column l2 norms.

Each row-and-column reduction has one definition here: ``abs_sums``, the
l1 margins of a matrix or a stack, ``SparseStack.sums``, the per-member
row and column totals that ``abs_sums``, ``max_l2`` and the Lanczos kernel
read from a sparse stack, and ``row_norms``, the l2 norm of each row of a
stack of vectors.

A CSV matrix file is read in one pass into one n x n array
(``matrix_from_csv_file``), and the matrix takes over that array without a
copy. A file in the layout ``csv_text`` writes for a matrix of integers 0
to 9 (every field ``D.0``, every line ended by ``\\n``; any 0/1 adjacency
matrix) is read as fixed-width bytes, in blocks of whole lines
(``_digit_grid``). Any other file, a pipe included, is streamed once
through the line parser (``_csv_rows``), which takes what float() takes
and names the offending file line.
"""

import json
import locale
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "SquareMatrix",
    "as_entries",
    "SparseStack",
    "max_l2",
    "abs_sums",
    "row_norms",
    "csv_text",
    "json_ready",
    "matrix_to_dict",
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
        # NaN propagates through min and max, so this builds no n x n mask.
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
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

    def sums(self, weights=None):
        """Each member's (rows,) row and (cols,) column totals of ``weights``,
        one per entry; without weights, its entries per row and column."""
        count, rows, cols = self.shape
        r = np.bincount(self.member * rows + self.row, weights, count * rows)
        c = np.bincount(self.member * cols + self.col, weights, count * cols)
        if weights is not None:  # weighted, and still integers when there are no entries
            r, c = r.astype(np.float64, copy=False), c.astype(np.float64, copy=False)
        return r.reshape(count, rows), c.reshape(count, cols)

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

    def block(self, rows: slice, cols: slice) -> "SparseStack":
        """The block [rows, cols] of each matrix, for ranges of rows and of
        columns (slices of step 1): the entries that land in it, in order."""
        count, h, w = self.shape
        rows, cols = range(h)[rows], range(w)[cols]
        # Indices rather than a mask: four gathers by a mask cost about three
        # times as much.
        keep = np.flatnonzero((self.row >= rows.start) & (self.row < rows.stop)
                              & (self.col >= cols.start) & (self.col < cols.stop))
        return SparseStack((count, len(rows), len(cols)), self.member[keep],
                           self.row[keep] - rows.start, self.col[keep] - cols.start,
                           self.value[keep])


def max_l2(stack: SparseStack) -> np.ndarray:
    """The largest row or column l2 norm of each matrix of a sparse stack.

    The entries at each position are summed first, so a repeated position
    counts once with its total. On integer values the sums of squares are
    exact, and so each maximum is that of the dense matrix bit for bit.
    """
    count, rows, cols = stack.shape
    flat = (stack.member * rows + stack.row) * cols + stack.col
    position, at = np.unique(flat, return_inverse=True)
    squares = np.bincount(at, stack.value, position.size) ** 2
    member, rest = np.divmod(position, rows * cols)
    r, c = SparseStack(stack.shape, member, *np.divmod(rest, cols), squares).sums(squares)
    return np.sqrt(np.maximum(r.max(axis=1), c.max(axis=1)))


def abs_sums(M):
    """Column sums u and row sums v of |E|: of one matrix E (a SquareMatrix
    or an array), or of each matrix of a dense or sparse (count, rows, cols)
    stack, then (count, cols) and (count, rows)."""
    if isinstance(M, SparseStack):
        v, u = M.sums(np.abs(M.value))
        return u, v
    A = np.abs(as_entries(M))
    return A.sum(axis=-2), A.sum(axis=-1)


def row_norms(X) -> np.ndarray:
    """The l2 norm of each row of X, each bit for bit the np.linalg.norm of
    that row alone: the square root of one BLAS dot per row, which a batched
    (count, 1, n) @ (count, n, 1) product calls."""
    X = np.asarray(X, dtype=np.float64)
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


# --- serialization -------------------------------------------------------
#
# JSON uses Python's shortest round-trip float repr, so dump -> load is
# bit-exact. CSV is one row per line, same float formatting (csv_text).

def csv_text(rows, header=()) -> str:
    """One line per row of numbers, each in the float repr above, under an
    optional header line of column names."""
    lines = [",".join(header)] if header else []
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_ready(obj: dict) -> dict:
    """``obj`` with every numpy array as a (nested) list, for json.dumps."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}


def matrix_to_dict(M: SquareMatrix) -> dict:
    """The JSON object of a matrix: ``n``, ``zero_diagonal`` and ``entries``."""
    return {"n": M.n, "zero_diagonal": M.zero_diagonal, "entries": M.entries.tolist()}


def matrix_to_json(M: SquareMatrix) -> str:
    return json.dumps(matrix_to_dict(M))


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
    rows = obj["entries"] if isinstance(obj["entries"], list) else []
    # numpy would read "1.5" and true as numbers; only JSON numbers are.
    if any(type(x) not in (int, float) for row in rows if isinstance(row, list) for x in row):
        raise ValueError("matrix entries must be numbers")
    try:
        M = SquareMatrix(obj["entries"], zero_diagonal=zero_diagonal)
    except (TypeError, OverflowError):  # e.g. an object, or an integer beyond float64
        raise ValueError("matrix entries must be numbers") from None
    if M.n != n:
        raise ValueError(f"declared n={n} but entries are {M.n}x{M.n}")
    return M


def matrix_to_csv(M: SquareMatrix) -> str:
    return csv_text(M.entries)


# Bytes of one block of the digit reader. With numpy's 32 KiB buffer for the
# broadcast subtraction, a load at n = 512 peaks within 5% of the array.
_DIGIT_BLOCK_BYTES = 1 << 15


def _digit_grid(p: Path):
    """The array of a file in which every field is ``D.0`` (D one digit),
    fields are split by ``,`` and every line ends in ``\\n``: the bytes
    ``csv_text`` writes for a matrix of integers 0 to 9. None at the first
    byte that breaks that layout, and for a file that cannot seek.

    The first line fixes the line width; the file is read in blocks of
    whole lines into one reused buffer. Each field with its separator is
    one 32-bit word, and that word less the same word of a line of zeros
    is at most 9 exactly when the field is a digit, ``.``, ``0`` and the
    right separator; it is then the value."""
    with p.open("rb") as f:
        if not f.seekable():  # a pipe: what is read here is lost to the line parser
            return None
        size = f.seek(0, 2)
        f.seek(0)
        first = f.readline(size)
        if not first.endswith(b"\n") or len(first) % 4 or size % len(first):
            return None
        width = len(first)
        rows, cols = size // width, width // 4
        zeros = np.frombuffer(b"0.0," * (cols - 1) + b"0.0\n", "<u4")
        a = np.empty((rows, cols))
        step = max(1, _DIGIT_BLOCK_BYTES // width)
        buf = bytearray(step * width)
        f.seek(0)
        for r in range(0, rows, step):
            k = min(step, rows - r)
            if f.readinto(memoryview(buf)[:k * width]) != k * width:
                return None
            digits = np.frombuffer(buf, "<u4", k * cols).reshape(k, cols)
            np.subtract(digits, zeros, out=digits)  # in place: no block-sized temporary
            if digits.max() > 9:
                return None
            a[r:r + k] = digits
    return a


def _csv_rows(pieces) -> np.ndarray:
    """The array of a CSV text in pieces (an open file's lines, or the whole
    text as one), each split by str.splitlines(): blank lines are skipped,
    every field goes through float(), and errors name the file line. The
    first field float() rejects comes before the first row of another
    width, and that before an empty file."""
    a, rows, lineno, ragged = None, 0, 0, None
    for piece in pieces:
        for line in piece.splitlines():
            lineno += 1
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as e:
                raise ValueError(f"parse error at line {lineno}: {e}") from None
            if a is None:
                a = np.empty((1, len(row)))
            width = a.shape[1]
            if len(row) != width:
                if ragged is None:
                    ragged = f"parse error at line {lineno}: expected {width} values, got {len(row)}"
                continue
            if rows == len(a):  # double, but at first no further than a square
                a.resize((2 * rows if rows >= width else min(2 * rows, width), width),
                         refcheck=False)
            a[rows] = row
            rows += 1
    if ragged is not None:
        raise ValueError(ragged)
    if a is None:
        raise ValueError("empty matrix file")
    a.resize((rows, a.shape[1]), refcheck=False)
    return a


def _decoded(lines):
    """Each of a binary file's lines as text, decoded as open() decodes text.
    A byte that does not decode is named by its position in the file, as
    when the whole text is decoded at once."""
    encoding = locale.getpreferredencoding(False)
    offset = 0
    for line in lines:
        try:
            yield line.decode(encoding)
        except UnicodeDecodeError as e:
            start, end = offset + e.start, offset + e.end
            where = (f"byte 0x{line[e.start]:02x} in position {start}" if end == start + 1
                     else f"bytes in position {start}-{end - 1}")
            raise ValueError(f"'{e.encoding}' codec can't decode {where}: {e.reason}") from None
        offset += len(line)


def matrix_from_csv_file(path) -> SquareMatrix:
    """The matrix of a CSV file, read in one pass into one array. A file of
    ``D.0`` fields (D one digit, as ``csv_text`` writes a matrix of integers
    0 to 9) with ``\\n`` line ends is read as fixed-width bytes. Any other
    file, or a pipe, is streamed once through the line parser, which takes
    what float() takes (e.g. ``1_0`` and whitespace-only lines) and names
    the offending line. A regular file that fails is parsed again whole, so
    that it names the fault its whole text names first: an undecodable
    byte, by its position in the file, before any parse error. A pipe
    cannot be read again, and names its first fault in file order, an
    undecodable byte by its position in the file too."""
    p = Path(path)
    a = _digit_grid(p)
    if a is None:
        try:
            with p.open("rb") as f:
                a = _csv_rows(_decoded(f))
        except ValueError:  # a parse error, or a byte that does not decode
            if not p.is_file():
                raise
            a = _csv_rows([p.read_text()])
    return SquareMatrix._adopt(a)

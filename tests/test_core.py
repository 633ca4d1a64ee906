import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrix_reference import (
    _csv_rows_by_line,
    corner,
    max_l2_reference,
    permutation_matrix,
    relabel,
)

from exspec import core
from exspec.core import (
    SparseStack,
    SquareMatrix,
    abs_sums,
    matrix_from_csv_file,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    max_l2,
)
from exspec.ensembles import EnsembleSpec, relabeled_entries, relabelings, sample
from exspec.rng import stream
from exspec.tails import _corner


def _relabeled(M: SquareMatrix, p: np.ndarray) -> np.ndarray:
    """M relabeled by p as the engine builds it from M's nonzero entries."""
    return relabeled_entries(M.nonzeros, p[None], p[None]).dense()[0]


def test_identity_permutation_is_noop():
    M = SquareMatrix(np.arange(9.0).reshape(3, 3))
    assert np.array_equal(_relabeled(M, np.arange(3)), M.entries)


def test_swap_permutation_forced_by_definition():
    M = SquareMatrix([[0.0, 1.0], [2.0, 0.0]])
    assert np.array_equal(_relabeled(M, np.array([1, 0])), [[0.0, 2.0], [1.0, 0.0]])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_permutation_inverse_roundtrip(n, seed):
    rng = stream(seed)
    M = SquareMatrix(rng.normal(size=(n, n)))
    p = rng.permutation(n)
    once = _relabeled(M, p)
    assert np.array_equal(once, relabel(M, p))
    assert np.array_equal(_relabeled(SquareMatrix(once), np.argsort(p)), M.entries)


def test_permutation_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        EnsembleSpec("permuted_base", 4, base=SquareMatrix(np.zeros((3, 3))))


def test_relabeling_preserves_entry_and_diagonal_multisets():
    rng = stream(11)
    M = SquareMatrix(rng.normal(size=(7, 7)))
    out = sample(EnsembleSpec("permuted_base", 7, seed=11, base=M), 0)
    assert sorted(out.entries.ravel()) == sorted(M.entries.ravel())
    assert sorted(np.diag(out.entries)) == sorted(np.diag(M.entries))


def test_zero_diagonal_preserved_by_relabeling():
    rng = stream(12)
    E = rng.normal(size=(6, 6))
    np.fill_diagonal(E, 0.0)
    spec = EnsembleSpec("permuted_base", 6, seed=12, base=SquareMatrix(E, zero_diagonal=True))
    out = sample(spec, 0)
    assert out.zero_diagonal
    assert np.all(np.diag(out.entries) == 0.0)
    assert np.all(np.diag(_relabeled(spec.base, relabelings(spec, [0])[0][0])) == 0.0)


def test_corner_n4_index_arithmetic():
    M = SquareMatrix(np.array([[4 * i + j + 1 for j in range(4)] for i in range(4)], dtype=float))
    T = M.entries[_corner(4)]
    assert np.array_equal(T, [[3.0, 4.0], [7.0, 8.0]])


def test_corner_odd_n_is_square_floor_half():
    M = SquareMatrix(np.arange(25.0).reshape(5, 5))
    T = M.entries[_corner(5)]
    assert T.shape == (2, 2)
    assert np.array_equal(T, M.entries[:2, 3:])
    # A read-only view of the parent's entries, not a copy.
    assert np.shares_memory(T, M.entries) and not T.flags.writeable


def test_corner_never_touches_the_diagonal():
    n = 8
    m = n // 2
    rows = set(range(m))
    cols = set(range(n - m, n))
    assert rows.isdisjoint(cols)
    E = np.zeros((n, n))
    np.fill_diagonal(E, np.arange(1, n + 1))
    T = SquareMatrix(E).entries[_corner(n)]
    assert np.all(T == 0.0)


def test_column_and_row_sums_basic():
    M = SquareMatrix([[0.0, 1.0], [-2.0, 0.0]])
    u, v = abs_sums(M)
    assert np.array_equal(u, [2.0, 1.0])
    assert np.array_equal(v, [1.0, 2.0])


def test_abs_sums_of_a_matrix_and_of_its_dense_and_sparse_stacks_agree():
    rng = stream(16)
    E = rng.integers(-3, 4, size=(3, 5, 7)) * (rng.random((3, 5, 7)) < 0.5)
    member, row, col = np.nonzero(E)
    S = SparseStack(E.shape, member, row, col, E[member, row, col].astype(np.float64))
    for t in range(3):
        want = abs_sums(E[t].astype(np.float64))
        for got in (abs_sums(E.astype(np.float64)), abs_sums(S)):
            assert got[0][t].tobytes() == want[0].tobytes()
            assert got[1][t].tobytes() == want[1].tobytes()
    rows, cols = S.sums()
    assert np.array_equal(rows, (E != 0).sum(axis=2))
    assert np.array_equal(cols, (E != 0).sum(axis=1))


def test_sum_of_permutation_matrices_has_flat_margins():
    rng = stream(14)
    A = sum(permutation_matrix(rng.permutation(10)) for _ in range(3))
    u, v = abs_sums(A)
    assert np.array_equal(u, np.full(10, 3.0))
    assert np.array_equal(v, np.full(10, 3.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_double_counting_identity(n, seed):
    E = np.abs(stream(seed).normal(size=(n, n)))
    total = E.sum()
    u, v = abs_sums(E)
    assert u.sum() == pytest.approx(total, rel=1e-12)
    assert v.sum() == pytest.approx(total, rel=1e-12)


def test_corner_of_relabeled_index_identity():
    rng = stream(15)
    n = 9
    m = n // 2
    spec = EnsembleSpec("permuted_base", n, seed=15, base=SquareMatrix(rng.normal(size=(n, n))))
    p = relabelings(spec, [0])[0][0]
    T = sample(spec, 0).entries[_corner(n)]
    assert np.array_equal(T, corner(relabel(spec.base, p)))
    for _ in range(20):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        assert T[i, j] == spec.base.entries[p[i], p[n - m + j]]


def _random_stack(seed, count, rows, cols, entries, integer):
    """A SparseStack of random entries: repeated positions, negative values
    and members with no entries included."""
    rng = stream(310, seed)
    value = rng.integers(-3, 4, entries) if integer else rng.normal(size=entries)
    member, row, col = (rng.integers(0, k, entries) for k in (count, rows, cols))
    return SparseStack((count, rows, cols), member, row, col, value.astype(np.float64))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.integers(0, 40),
       st.integers(0, 10**6), st.data())
def test_sparse_block_is_the_block_of_the_dense_stack(count, rows, cols, entries, seed, data):
    S = _random_stack(seed, count, rows, cols, entries, integer=False)
    # Ranges of indices, empty ones (start == stop) included.
    r0, r1 = data.draw(st.lists(st.integers(0, rows), min_size=2, max_size=2).map(sorted))
    c0, c1 = data.draw(st.lists(st.integers(0, cols), min_size=2, max_size=2).map(sorted))
    B = S.block(slice(r0, r1), slice(c0, c1))
    assert B.shape == (count, r1 - r0, c1 - c0)
    # Float entries at one position add up in the order they are kept.
    assert B.dense().tobytes() == S.dense()[:, r0:r1, c0:c1].tobytes()
    inside = (S.row >= r0) & (S.row < r1) & (S.col >= c0) & (S.col < c1)
    assert B.value.tobytes() == S.value[inside].tobytes()
    assert B.member.tolist() == S.member[inside].tolist()


def test_sparse_block_of_a_stack_with_no_entries():
    empty = SparseStack((2, 5, 6), *np.zeros((3, 0), dtype=np.int64), np.zeros(0))
    B = empty.block(slice(1, 4), slice(2, 6))
    assert B.shape == (2, 3, 4) and B.value.size == 0
    assert B.dense().tobytes() == np.zeros((2, 3, 4)).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.integers(0, 60),
       st.integers(0, 10**6))
def test_max_l2_of_integer_entries_is_the_dense_maximum(count, rows, cols, entries, seed):
    # Entries at one position add up first, so +1 and -1 there cancel.
    S = _random_stack(seed, count, rows, cols, entries, integer=True)
    assert max_l2(S).tobytes() == max_l2_reference(S.dense()).tobytes()


def test_max_l2_of_float_entries_is_within_rounding():
    # Both sum k <= 30 squares per line, in different orders: each sum is
    # within about k eps / 2 of the exact one, and the square root halves that.
    for seed in range(200):
        S = _random_stack(seed, 3, 20, 30, 900, integer=False)
        got, want = max_l2(S), max_l2_reference(S.dense())
        assert np.all(np.abs(got - want) <= 30 * np.finfo(np.float64).eps * want), seed
    empty = SparseStack((2, 5, 6), *np.zeros((3, 0), dtype=np.int64), np.zeros(0))
    assert max_l2(empty).tobytes() == np.zeros(2).tobytes()


def test_invalid_matrices_rejected():
    with pytest.raises(ValueError):
        SquareMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    # Every non-finite value, alone or beside another, first or last: the
    # check reads only the minimum and the maximum, through which NaN passes.
    for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [-np.inf, np.nan]):
        for start in (0, 9 - len(bad)):
            E = np.arange(9.0).reshape(3, 3)
            E.flat[start:start + len(bad)] = bad
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                SquareMatrix(E)
    with pytest.raises(ValueError):
        SquareMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        SquareMatrix([[0.0, 1.0], [1.0, 5.0]], zero_diagonal=True)


def test_json_roundtrip_is_bit_exact():
    rng = stream(16)
    M = SquareMatrix(rng.normal(size=(5, 5)) * 1e-7)
    text = matrix_to_json(M)
    back = matrix_from_json(text)
    assert np.array_equal(back.entries, M.entries)
    assert matrix_to_json(back) == text
    assert json.loads(text)["n"] == 5


def _read_csv(tmp_path, text: str) -> SquareMatrix:
    path = tmp_path / "m.csv"
    path.write_text(text)
    return matrix_from_csv_file(path)


def test_csv_roundtrip_and_parse_error_line(tmp_path):
    rng = stream(17)
    M = SquareMatrix(rng.normal(size=(4, 4)))
    back = _read_csv(tmp_path, matrix_to_csv(M))
    assert np.array_equal(back.entries, M.entries)
    with pytest.raises(ValueError, match="line 2"):
        _read_csv(tmp_path, "1.0,2.0\n3.0,oops\n")


def _load_outcome(load, source):
    try:
        M = load(source)
    except ValueError as e:
        return "error", type(e).__name__, str(e)
    return M.entries.shape, M.entries.dtype.str, M.entries.tobytes()


def _by_line(text: str) -> SquareMatrix:
    """The matrix of a CSV text by the reference line parser."""
    return SquareMatrix(_csv_rows_by_line(text))


def _file_outcome(data: bytes):
    """The outcome of reading ``data`` as a CSV matrix file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        path.write_bytes(data)
        return _load_outcome(matrix_from_csv_file, path)


_CSV_FIELDS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, width=32).map(lambda x: f" {x!r}\t"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "", " ", "1_0", "1__0", "_1", "nan", "-nan", "+NaN", "inf", "-Infinity",
        "infinity", "1e400", "-0", "0x10", "1d5", "oops", "1 2", "\u0661", "\x0c1",
        "1\x0b", "\x1c2", "1\x85", "\u20282", "\u00a01",
    ]),
    st.text(alphabet="0123456789.-+eE_ naif", max_size=6),
)
_CSV_LINES = st.one_of(
    st.lists(_CSV_FIELDS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "\t"]),
)


@st.composite
def _digit_grids(draw):
    """Grids of ``D.0`` fields with ``\\n`` line ends, the layout the digit
    reader takes, square or not; with at most one change it must decline:
    another field (``10.0``, ``-1.0``, `` 1.0``, ``1.00`` or ``-0.0``), a
    ``\\r\\n`` or ``\\r`` line end, no final newline, a short or long row, a
    blank line, or a byte order mark, a NUL or a non-ASCII character."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 5)))
    digit = st.integers(0, 9).map(lambda x: f"{x}.0")
    lines = [draw(st.lists(digit, min_size=cols, max_size=cols)) for _ in range(rows)]
    newline = end = "\n"
    change = draw(st.sampled_from([None, "field", "newline", "end", "row", "blank", "char"]))
    r = draw(st.integers(0, rows - 1))
    if change == "field":
        lines[r][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from(["10.0", "-1.0", " 1.0", "1.00", "-0.0"]))
    elif change == "newline":
        newline = end = draw(st.sampled_from(["\r\n", "\r"]))
    elif change == "end":
        end = ""
    elif change == "row":
        lines[r] = lines[r][:-1] if draw(st.booleans()) else lines[r] + ["1.0"]
    elif change == "blank":
        lines.insert(draw(st.integers(0, rows)), [])
    text = newline.join(map(",".join, lines)) + end
    if change == "char":
        c = draw(st.sampled_from(["\ufeff", "\x00", "\xe9"]))
        at = 0 if c == "\ufeff" else draw(st.integers(0, len(text)))
        text = text[:at] + c + text[at:]
    return text


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        return draw(_digit_grids())
    if draw(st.booleans()):
        # Rows of float reprs, mostly square: mostly a matrix.
        rows = draw(st.integers(1, 4))
        cols = draw(st.one_of(st.just(rows), st.integers(1, 4)))
        field = st.floats().map(repr)
        lines = [
            ",".join(draw(st.lists(field, min_size=cols, max_size=cols))) for _ in range(rows)
        ]
    else:
        lines = draw(st.lists(_CSV_LINES, max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(_csv_texts())
def test_csv_fast_path_matches_line_parser(text):
    assert _file_outcome(text.encode()) == _load_outcome(_by_line, text)


_FILE_FIELDS = st.one_of(
    st.floats().map(lambda x: repr(x).encode()),
    st.integers(-10**6, 10**6).map(lambda x: str(x).encode()),
    st.sampled_from([
        b"", b" ", b"1_0", b"nan", b"oops", b"1\xe9", "\u0661".encode(), "1\u2028".encode(),
        b"\x0c1", b"1\x0b", b"\x1c2", b"\x001",
    ]),
)


@st.composite
def _csv_files(draw):
    """CSV files as bytes: rows of float reprs, mostly square (mostly a
    matrix), or ragged and blank lines of odd fields; with any of the
    three line ends and maybe a UTF-8 byte order mark; or UTF-8 digit grids
    (the digit reader's layout, or one change from it)."""
    if draw(st.booleans()):
        return draw(_digit_grids()).encode()
    if draw(st.booleans()):
        cols = draw(st.integers(1, 4))
        row = st.lists(st.floats().map(lambda x: repr(x).encode()), min_size=cols, max_size=cols)
        rows = draw(st.one_of(st.just(cols), st.integers(0, 4)))
        lines = draw(st.lists(row.map(b",".join), min_size=rows, max_size=rows))
    else:
        line = st.one_of(st.lists(_FILE_FIELDS, min_size=1, max_size=4).map(b",".join),
                         st.sampled_from([b"", b"   "]))
        lines = draw(st.lists(line, max_size=5))
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + newline.join(lines) + draw(st.sampled_from([b"", newline]))


@settings(max_examples=300, deadline=None)
@given(_csv_files())
# Streamed alone, these would name the byte that does not decode by its
# place in the decoder's buffer, or the ragged row before it.
@example(b"1\xe9")
@example(b"0.0\n0.0,0.0\n1\xe9")
def test_csv_file_route_matches_reading_the_whole_text(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        path.write_bytes(data)
        whole = _load_outcome(lambda p: _by_line(Path(p).read_text()), path)
        assert _load_outcome(matrix_from_csv_file, path) == whole


def test_digit_reader_checks_every_block(tmp_path, monkeypatch):
    # Blocks of one line, and no change alters the file's length: only the
    # check of the last block can see it.
    monkeypatch.setattr(core, "_DIGIT_BLOCK_BYTES", 1)
    head = "1.0,0.0,2.0\n0.0,3.0,0.0\n"
    for last in ("4.0,0.0,5.0\n", "4.0,0.0,5.1\n", "4.0,0.0,5.0\r", "4.0;0.0,5.0\n",
                 "4.0\n0.0,5.0\n", "4.0,0.0,-5.\n", "4.0,0.0,a.0\n"):
        path = tmp_path / "m.csv"
        path.write_bytes((head + last).encode())
        assert _load_outcome(matrix_from_csv_file, path) == _load_outcome(_by_line, head + last)


def _pipe_outcome(data: bytes):
    """The outcome of reading ``data`` as a CSV matrix from a pipe."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return _load_outcome(matrix_from_csv_file, f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_csv_pipe_is_read_once():
    # A pipe cannot be read twice, so the digit reader must leave it alone.
    expected = _load_outcome(SquareMatrix, [[0.0, 1.0], [1.0, 0.0]])
    assert _pipe_outcome(b"0.0,1.0\n1.0,0.0\n") == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_csv_pipe_the_digit_reader_declines_is_parsed_as_a_file_is():
    # The line parser has the pipe's one pass, so a field only float() takes
    # and a ragged row load or fail as in a file, not as an empty file.
    expected = _load_outcome(SquareMatrix, [[0.0, 10.0], [1.0, 0.0]])
    assert _pipe_outcome(b"0,1_0\n1,0\n") == expected
    ragged = "parse error at line 2: expected 2 values, got 3"
    assert _pipe_outcome(b"1,2\n3,4,5\n") == ("error", "ValueError", ragged)


def test_csv_loader_edge_cases(tmp_path):
    # float() accepts underscores, and so does the line parser.
    assert _read_csv(tmp_path, "1_0,2\n3,4\n").entries[0, 0] == 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n\n", "  \n"):
            with pytest.raises(ValueError, match="^empty matrix file$"):
                _read_csv(tmp_path, text)
    with pytest.raises(ValueError, match="line 2: expected 2 values, got 3"):
        _read_csv(tmp_path, "1,2\n3,4,5\n")
    # Blank lines are skipped but still counted: the error names the file line.
    with pytest.raises(ValueError, match="line 3: expected 2 values, got 3"):
        _read_csv(tmp_path, "1,2\n\n3,4,5\n")
    # A well-formed file that is not a valid matrix fails in SquareMatrix, not
    # in a parser.
    with pytest.raises(ValueError, match="expected a square matrix"):
        _read_csv(tmp_path, "1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match="finite"):
        _read_csv(tmp_path, "nan\n")

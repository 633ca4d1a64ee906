import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspec.core import (
    Permutation,
    SquareMatrix,
    _csv_rows,
    _csv_rows_by_line,
    apply_permutation,
    block_decompose,
    column_sums,
    matrix_from_csv,
    matrix_from_csv_file,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    row_sums,
    top_right_corner,
)
from exspec.rng import stream


def test_identity_permutation_is_noop():
    M = SquareMatrix(np.arange(9.0).reshape(3, 3))
    out = apply_permutation(M, Permutation.identity(3))
    assert np.array_equal(out.entries, M.entries)


def test_swap_permutation_forced_by_definition():
    M = SquareMatrix([[0.0, 1.0], [2.0, 0.0]])
    swapped = apply_permutation(M, Permutation([1, 0]))
    assert np.array_equal(swapped.entries, [[0.0, 2.0], [1.0, 0.0]])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_permutation_inverse_roundtrip(n, seed):
    rng = stream(seed)
    M = SquareMatrix(rng.normal(size=(n, n)))
    sigma = Permutation(rng.permutation(n))
    back = apply_permutation(apply_permutation(M, sigma), sigma.inverse())
    assert np.array_equal(back.entries, M.entries)


def test_permutation_dimension_mismatch():
    M = SquareMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="mismatch"):
        apply_permutation(M, Permutation.identity(4))


def test_relabeling_preserves_entry_and_diagonal_multisets():
    rng = stream(11)
    M = SquareMatrix(rng.normal(size=(7, 7)))
    sigma = Permutation(rng.permutation(7))
    out = apply_permutation(M, sigma)
    assert sorted(out.entries.ravel()) == sorted(M.entries.ravel())
    assert sorted(np.diag(out.entries)) == sorted(np.diag(M.entries))


def test_zero_diagonal_preserved_by_relabeling():
    rng = stream(12)
    E = rng.normal(size=(6, 6))
    np.fill_diagonal(E, 0.0)
    M = SquareMatrix(E, zero_diagonal=True)
    out = apply_permutation(M, Permutation(rng.permutation(6)))
    assert out.zero_diagonal
    assert np.all(np.diag(out.entries) == 0.0)


def test_corner_n4_index_arithmetic():
    M = SquareMatrix(np.array([[4 * i + j + 1 for j in range(4)] for i in range(4)], dtype=float))
    T = top_right_corner(M)
    assert np.array_equal(T, [[3.0, 4.0], [7.0, 8.0]])


def test_corner_odd_n_is_square_floor_half():
    M = SquareMatrix(np.arange(25.0).reshape(5, 5))
    T = top_right_corner(M)
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
    T = top_right_corner(SquareMatrix(E))
    assert np.all(T == 0.0)


def test_corner_requires_n_at_least_2():
    with pytest.raises(ValueError):
        top_right_corner(SquareMatrix([[1.0]]))


def test_block_decompose_n2():
    M = SquareMatrix([[0.0, 1.0], [2.0, 0.0]])
    b11, b12, b21, b22 = block_decompose(M)
    assert b11 == [[0.0]] and b12 == [[1.0]] and b21 == [[2.0]] and b22 == [[0.0]]


def test_block_reassembly_and_corner_match():
    rng = stream(13)
    for n in (4, 6):
        M = SquareMatrix(rng.normal(size=(n, n)))
        b11, b12, b21, b22 = block_decompose(M)
        top = np.hstack([b11, b12])
        bottom = np.hstack([b21, b22])
        assert np.array_equal(np.vstack([top, bottom]), M.entries)
        assert np.array_equal(b12, top_right_corner(M))


def test_block_decompose_odd_shapes():
    M = SquareMatrix(np.arange(25.0).reshape(5, 5))
    b11, b12, b21, b22 = block_decompose(M)
    assert b11.shape == (2, 2) and b12.shape == (2, 3)
    assert b21.shape == (3, 2) and b22.shape == (3, 3)


def test_column_and_row_sums_basic():
    M = SquareMatrix([[0.0, 1.0], [2.0, 0.0]])
    assert np.array_equal(column_sums(M), [2.0, 1.0])
    assert np.array_equal(row_sums(M), [1.0, 2.0])


def test_sum_of_permutation_matrices_has_flat_margins():
    from exspec.ensembles import permutation_matrix

    rng = stream(14)
    A = sum(permutation_matrix(rng.permutation(10)) for _ in range(3))
    assert np.array_equal(column_sums(A), np.full(10, 3.0))
    assert np.array_equal(row_sums(A), np.full(10, 3.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_double_counting_identity(n, seed):
    E = np.abs(stream(seed).normal(size=(n, n)))
    total = E.sum()
    assert column_sums(E).sum() == pytest.approx(total, rel=1e-12)
    assert row_sums(E).sum() == pytest.approx(total, rel=1e-12)


def test_corner_of_relabeled_index_identity():
    rng = stream(15)
    n = 9
    m = n // 2
    M = SquareMatrix(rng.normal(size=(n, n)))
    sigma = Permutation(rng.permutation(n))
    T = top_right_corner(apply_permutation(M, sigma))
    for _ in range(20):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        assert T[i, j] == M.entries[sigma.map[i], sigma.map[n - m + j]]


def test_invalid_matrices_rejected():
    with pytest.raises(ValueError):
        SquareMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        SquareMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        SquareMatrix([[0.0, 1.0], [1.0, 5.0]], zero_diagonal=True)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_json_roundtrip_is_bit_exact():
    rng = stream(16)
    M = SquareMatrix(rng.normal(size=(5, 5)) * 1e-7)
    text = matrix_to_json(M)
    back = matrix_from_json(text)
    assert np.array_equal(back.entries, M.entries)
    assert matrix_to_json(back) == text
    assert json.loads(text)["n"] == 5


def test_csv_roundtrip_and_parse_error_line():
    rng = stream(17)
    M = SquareMatrix(rng.normal(size=(4, 4)))
    back = matrix_from_csv(matrix_to_csv(M))
    assert np.array_equal(back.entries, M.entries)
    with pytest.raises(ValueError, match="line 2"):
        matrix_from_csv("1.0,2.0\n3.0,oops\n")


def _parse_outcome(parse, text):
    try:
        a = parse(text)
    except ValueError as e:
        return "error", str(e)
    return a.shape, a.dtype.str, a.tobytes()


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
def _csv_texts(draw):
    if draw(st.booleans()):
        # Rectangular rows of float reprs: mostly the loadtxt path.
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
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
    assert _parse_outcome(_csv_rows, text) == _parse_outcome(_csv_rows_by_line, text)


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
    """CSV files as bytes: rows of float reprs, mostly square (mostly the
    loadtxt path), or ragged and blank lines of odd fields; with any of the
    three line ends and maybe a UTF-8 byte order mark."""
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


def _load_outcome(load, path):
    try:
        M = load(path)
    except ValueError as e:
        return "error", type(e).__name__, str(e)
    return M.entries.shape, M.entries.dtype.str, M.entries.tobytes()


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_csv_file_route_matches_reading_the_whole_text(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        path.write_bytes(data)
        whole = _load_outcome(lambda p: matrix_from_csv(Path(p).read_text()), path)
        assert _load_outcome(matrix_from_csv_file, path) == whole


def test_csv_loader_edge_cases():
    # float() accepts underscores and loadtxt does not: the line parser takes it.
    assert matrix_from_csv("1_0,2\n3,4\n").entries[0, 0] == 10.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n\n", "  \n"):
            with pytest.raises(ValueError, match="^empty matrix file$"):
                matrix_from_csv(text)
    with pytest.raises(ValueError, match="line 2: expected 2 values, got 3"):
        matrix_from_csv("1,2\n3,4,5\n")
    # Blank lines are skipped but still counted: the error names the file line.
    with pytest.raises(ValueError, match="line 3: expected 2 values, got 3"):
        matrix_from_csv("1,2\n\n3,4,5\n")
    # A well-formed file that is not a valid matrix fails in SquareMatrix, not
    # in a parser.
    with pytest.raises(ValueError, match="expected a square matrix"):
        matrix_from_csv("1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match="finite"):
        matrix_from_csv("nan\n")

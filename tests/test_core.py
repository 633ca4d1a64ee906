import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import corner, permutation_matrix, relabel

from exspec.core import (
    SquareMatrix,
    _csv_rows_by_line,
    column_sums,
    matrix_from_csv_file,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    row_sums,
)
from exspec.ensembles import EnsembleSpec, relabeled_entries, relabeling, sample
from exspec.rng import stream
from exspec.tails import _corner


def _relabeled(M: SquareMatrix, p: np.ndarray) -> np.ndarray:
    """M relabeled by p as the engine builds it from M's nonzero entries."""
    whole = slice(None)
    return relabeled_entries(M.nonzeros, p[None], p[None], whole, whole).dense()[0]


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
    assert np.all(np.diag(_relabeled(spec.base, relabeling(spec, 0)[0])) == 0.0)


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
    M = SquareMatrix([[0.0, 1.0], [2.0, 0.0]])
    assert np.array_equal(column_sums(M), [2.0, 1.0])
    assert np.array_equal(row_sums(M), [1.0, 2.0])


def test_sum_of_permutation_matrices_has_flat_margins():
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
    spec = EnsembleSpec("permuted_base", n, seed=15, base=SquareMatrix(rng.normal(size=(n, n))))
    p = relabeling(spec, 0)[0]
    T = sample(spec, 0).entries[_corner(n)]
    assert np.array_equal(T, corner(relabel(spec.base, p)))
    for _ in range(20):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        assert T[i, j] == spec.base.entries[p[i], p[n - m + j]]


def test_invalid_matrices_rejected():
    with pytest.raises(ValueError):
        SquareMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
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
def _csv_texts(draw):
    if draw(st.booleans()):
        # Rows of float reprs, mostly square: mostly the loadtxt path.
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


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_csv_file_route_matches_reading_the_whole_text(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.csv"
        path.write_bytes(data)
        whole = _load_outcome(lambda p: _by_line(Path(p).read_text()), path)
        assert _load_outcome(matrix_from_csv_file, path) == whole


def test_csv_loader_edge_cases(tmp_path):
    # float() accepts underscores and loadtxt does not: the line parser takes it.
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

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import derangement

from exspec import ensembles
from exspec.core import SquareMatrix, abs_sums, matrix_from_json
from exspec.ensembles import EnsembleSpec, sample, sample_tables, table_entries
from exspec.rng import stream


def test_perm_sum_regular_margins_exact():
    spec = EnsembleSpec(kind="perm_sum_regular", n=10, d=3, seed=1)
    A = sample(spec, 0)
    u, v = abs_sums(A)
    assert np.array_equal(u, np.full(10, 3.0))
    assert np.array_equal(v, np.full(10, 3.0))


def test_perm_sum_regular_zero_diagonal():
    spec = EnsembleSpec(kind="perm_sum_regular", n=12, d=4, zero_diagonal=True, seed=2)
    for i in range(5):
        A = sample(spec, i)
        assert np.all(np.diag(A.entries) == 0.0)
        assert np.array_equal(abs_sums(A)[0], np.full(12, 4.0))


def test_permuted_base_preserves_zero_diagonal():
    rng = stream(61)
    E = rng.normal(size=(8, 8))
    np.fill_diagonal(E, 0.0)
    base = SquareMatrix(E, zero_diagonal=True)
    spec = EnsembleSpec(kind="permuted_base", n=8, seed=3, base=base)
    A = sample(spec, 0)
    assert A.zero_diagonal
    assert sorted(A.entries.ravel()) == sorted(E.ravel())


def test_separately_exchangeable_entry_multiset():
    rng = stream(62)
    base = SquareMatrix(rng.normal(size=(6, 6)))
    spec = EnsembleSpec(kind="separately_exchangeable", n=6, seed=4, base=base)
    A = sample(spec, 0)
    assert sorted(A.entries.ravel()) == sorted(base.entries.ravel())


def test_regular_digraph_structure():
    spec = EnsembleSpec(kind="regular_digraph", n=50, d=5, seed=5)
    for i in range(50):
        A = sample(spec, i)
        vals = np.unique(A.entries)
        assert set(vals) <= {0.0, 1.0}
        assert np.trace(A.entries) == 0.0
        u, v = abs_sums(A)
        assert np.array_equal(u, np.full(50, 5.0))
        assert np.array_equal(v, np.full(50, 5.0))


def test_sampling_is_deterministic_in_seed_and_index():
    spec = EnsembleSpec(kind="perm_sum_regular", n=14, d=3, seed=9)
    a = sample(spec, 7).entries
    b = sample(spec, 7).entries
    c = sample(spec, 8).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derangement_has_no_fixed_points():
    # Every row of a zero-diagonal table is a derangement.
    rng = stream(63)
    for i in range(50):
        n = int(rng.integers(2, 30))
        for spec in (EnsembleSpec("perm_sum_regular", n, min(3, n - 1), True, seed=63),
                     EnsembleSpec("regular_digraph", n, max(1, min(3, n // 3)), seed=63)):
            Q = sample_tables(spec, [i])[0]
            assert not np.any(Q == np.arange(n)), (spec.kind, n)


def test_spec_validation():
    with pytest.raises(ValueError, match="1 <= d < n"):
        EnsembleSpec(kind="perm_sum_regular", n=5, d=7)
    with pytest.raises(ValueError, match="unknown ensemble kind"):
        EnsembleSpec(kind="bogus", n=5)
    with pytest.raises(ValueError, match="base"):
        EnsembleSpec(kind="permuted_base", n=5)
    with pytest.raises(ValueError, match="perm_sum_regular takes no base matrix"):
        EnsembleSpec(kind="perm_sum_regular", n=5, d=2, base=SquareMatrix(np.zeros((5, 5))))
    for kind in ("permuted_base", "separately_exchangeable"):
        with pytest.raises(ValueError, match=f"{kind} takes no zero_diagonal flag"):
            EnsembleSpec(kind=kind, n=5, zero_diagonal=True, base=SquareMatrix(np.eye(5)))
    # Its samples always have zero diagonal, so the flag is accepted and kept.
    assert EnsembleSpec(kind="regular_digraph", n=5, d=2, zero_diagonal=True).zero_diagonal


def test_spec_facts_agree_with_the_samples():
    # Every sample has zero diagonal exactly when the spec says so, and a
    # sample row holds row_nonzeros entries of its entry stack on average.
    off = SquareMatrix(np.eye(6, k=1) + 2 * np.eye(6, k=-2))
    specs = [EnsembleSpec("perm_sum_regular", 6, 2, seed=7),
             EnsembleSpec("perm_sum_regular", 6, 2, zero_diagonal=True, seed=7),
             EnsembleSpec("regular_digraph", 6, 2, seed=7),
             EnsembleSpec.permuted(off, 7), EnsembleSpec.permuted(SquareMatrix(np.eye(6)), 7),
             EnsembleSpec("separately_exchangeable", 6, seed=7, base=off),
             EnsembleSpec("separately_exchangeable", 6, seed=7, base=SquareMatrix(np.zeros((6, 6))))]
    for spec, zero_diagonal, per_row in zip(specs, (False, True, True, True, False, False, True),
                                            (2, 2, 2, 9 / 6, 1, 9 / 6, 0)):
        diagonals = [np.diag(sample(spec, i).entries) for i in range(40)]
        assert spec.zero_diagonal_samples == zero_diagonal == (not np.any(diagonals)), spec.kind
        assert spec.row_nonzeros == per_row, spec.kind
    assert EnsembleSpec.permuted(off, 7) == EnsembleSpec("permuted_base", 6, seed=7, base=off)


def test_rejection_cap_error():
    # d = n-1 derangements can never be pairwise disjoint twice over on a
    # tiny n without multi-edges only for the full rotation set; n=3, d=2
    # succeeds, but n=4 d=3 has very low acceptance -- use an impossible one.
    spec = EnsembleSpec(kind="regular_digraph", n=3, d=2, seed=6)
    A = sample(spec, 0)  # complete digraph minus diagonal is the only option
    assert np.array_equal(A.entries, np.ones((3, 3)) - np.eye(3))


def test_spec_json_roundtrip():
    rng = stream(64)
    base = SquareMatrix(rng.normal(size=(4, 4)))
    spec = EnsembleSpec(kind="separately_exchangeable", n=4, seed=12, base=base)
    obj = json.loads(json.dumps(spec.to_dict()))
    assert (obj["kind"], obj["n"], obj["d"], obj["seed"]) == ("separately_exchangeable", 4, 0, 12)
    # The base is matrix_to_json's object, and reads back bit-exact.
    assert np.array_equal(matrix_from_json(json.dumps(obj["base"])).entries, base.entries)
    plain = EnsembleSpec(kind="perm_sum_regular", n=10, d=2).to_dict()
    assert plain["d"] == 2 and plain["base"] is None


# --- permutation tables against the one-permutation-at-a-time loops ----------

def _reference_perm_sum(n, d, zero_diagonal, rng):
    """The table of d permutations, one candidate per draw."""
    return np.array([derangement(n, rng) if zero_diagonal else rng.permutation(n)
                     for _ in range(d)])


def _reference_regular_digraph(n, d, rng):
    """d edge-disjoint derangements by rejection, the j-th (from 0) given up
    after max(1000, ceil(20 e^min(j, 7))) tries, then a relabeling s, which
    turns row p into s^-1 p s."""
    A = np.zeros((n, n))
    idx = np.arange(n)
    rows = []
    for j in range(d):
        cap = max(1000, math.ceil(20 * math.exp(min(j, 7))))
        for _ in range(cap):
            p = derangement(n, rng)
            if not A[idx, p].any():
                A[idx, p] = 1.0
                rows.append(p)
                break
        else:
            raise ValueError(
                f"could not place {d} disjoint derangements on n={n}: derangement "
                f"{j + 1} found no room in {cap} attempts; increase the n/d gap"
            )
    s = rng.permutation(n)
    return np.array([np.argsort(s)[p[s]] for p in rows])


def _reference_table(spec, index):
    rng = stream(spec.seed, index)
    if spec.kind == "perm_sum_regular":
        return _reference_perm_sum(spec.n, spec.d, spec.zero_diagonal, rng)
    return _reference_regular_digraph(spec.n, spec.d, rng)


def _reference_dense(table):
    """Sum of the permutation matrices of the rows: A[i, q[i]] += 1."""
    n = table.shape[1]
    A = np.zeros((n, n))
    for q in table:
        A[np.arange(n), q] += 1.0
    return A


def _check_against_reference(spec, index):
    try:
        want = _reference_table(spec, index)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            sample(spec, index)
        return
    A = sample(spec, index)
    assert A.entries.tobytes() == _reference_dense(want).tobytes()
    table = sample_tables(spec, [index])
    assert table.shape == (1, spec.d, spec.n) and table.dtype == np.int64
    assert table[0].tobytes() == want.tobytes()
    assert A.zero_diagonal == (spec.zero_diagonal or spec.kind == "regular_digraph")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["perm_sum_regular", "regular_digraph"]), st.integers(2, 40),
       st.integers(1, 39), st.booleans(), st.integers(0, 10**6), st.integers(0, 50))
def test_tables_densify_to_the_reference_samples(kind, n, d, zero_diagonal, seed, index):
    # regular_digraph keeps d small enough that the reference loop stays
    # fast: the j-th derangement takes about e^j tries.
    d = min(d, n - 1 if kind == "perm_sum_regular" else max(1, n // 3))
    _check_against_reference(EnsembleSpec(kind, n, d, zero_diagonal, seed), index)


@pytest.mark.parametrize("kind, n, d, zero_diagonal", [
    ("perm_sum_regular", 64, 4, True), ("perm_sum_regular", 64, 4, False),
    ("perm_sum_regular", 9, 8, True), ("perm_sum_regular", 9, 8, False),
    ("regular_digraph", 64, 4, False), ("regular_digraph", 3, 2, True)])
def test_chunks_of_tables_are_the_reference_tables(kind, n, d, zero_diagonal):
    # 65 indices span a chunk boundary of the benchmark's 64-trial chunks;
    # a chunk's tables do not depend on where the chunk starts or ends.
    spec = EnsembleSpec(kind, n, d, zero_diagonal, seed=76)
    want = np.array([_reference_table(spec, i) for i in range(65)])
    tables = sample_tables(spec, range(65))
    assert tables.dtype == np.int64 and tables.tobytes() == want.tobytes()
    parts = [sample_tables(spec, range(0, 64)), sample_tables(spec, [64]),
             sample_tables(spec, range(65, 65))]
    assert np.concatenate(parts).tobytes() == want.tobytes()
    assert sample_tables(spec, [63, 1, 64]).tobytes() == want[[63, 1, 64]].tobytes()


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (4, 3), (5, 4), (7, 6)])
def test_short_first_batches_continue_on_the_same_generator(monkeypatch, n, d):
    # With d close to n the first batch often holds fewer than d
    # derangements. Such a trial, and only such a trial, draws its table
    # again through _derangements, whose later batches continue its stream.
    spec = EnsembleSpec("perm_sum_regular", n, d, True, 74)
    count = ensembles._first_batch(d)
    first = [ensembles._candidates(n, count, stream(74, i)) for i in range(40)]
    short = sum((batch != np.arange(n)).all(axis=1).sum() < d for batch in first)
    calls = []
    real = ensembles._derangements
    monkeypatch.setattr(ensembles, "_derangements",
                        lambda *args: calls.append(args) or real(*args))
    tables = sample_tables(spec, range(40))
    assert short > 0 and len(calls) == short
    want = np.array([_reference_table(spec, i) for i in range(40)])
    assert tables.tobytes() == want.tobytes()


def test_base_kinds_have_no_table():
    base = SquareMatrix(np.eye(4))
    for kind in ("permuted_base", "separately_exchangeable"):
        with pytest.raises(ValueError, match="not a sum of permutation matrices"):
            sample_tables(EnsembleSpec(kind, 4, base=base), [0])


def test_regular_digraph_rejection_cap_matches_the_reference():
    _check_against_reference(EnsembleSpec("regular_digraph", 10, 8, seed=75), 0)


def test_regular_digraph_without_room_gives_up_at_a_fixed_cap():
    # On n = 100 a derangement misses j placed ones with probability about
    # (1 - j/99)^100, under 1e-6 from j = 13; past j = 7 every derangement
    # has the same cap, however large d is.
    spec = EnsembleSpec("regular_digraph", 100, 60, seed=11)
    with pytest.raises(ValueError, match=r"derangement \d+ found no room in 21933 attempts"):
        sample_tables(spec, [0])
    _check_against_reference(spec, 0)


def test_regular_digraph_draws_at_moderate_d():
    # Samples 0-2 of seed 11 each need more than 1000 tries for one of their
    # eight derangements, and fewer than twenty times the e^j expected.
    spec = EnsembleSpec("regular_digraph", 40, 8, seed=11)
    tables = sample_tables(spec, range(3))
    assert tables.tobytes() == np.array([_reference_table(spec, i) for i in range(3)]).tobytes()
    A = table_entries(tables).dense()
    assert set(np.unique(A)) == {0.0, 1.0} and not A.diagonal(axis1=1, axis2=2).any()
    assert (A.sum(axis=1) == 8).all() and (A.sum(axis=2) == 8).all()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["perm_sum_regular", "regular_digraph"]), st.integers(2, 30),
       st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6), st.data())
def test_table_block_gathers_from_the_dense_samples(kind, n, d, trials, seed, data):
    d = min(d, n - 1 if kind == "perm_sum_regular" else max(1, n // 3))
    spec = EnsembleSpec(kind, n, d, zero_diagonal=False, seed=seed)
    tables = sample_tables(spec, range(trials))
    # Ranges of 0..n indices, empty ones (start == stop) included.
    bounds = st.lists(st.integers(0, n), min_size=2, max_size=2).map(sorted)
    r0, r1 = data.draw(bounds)
    c0, c1 = data.draw(bounds)
    rows, cols = slice(r0, r1), slice(c0, c1)
    blocks = table_entries(tables).block(rows, cols).dense()
    assert blocks.shape == (trials, r1 - r0, c1 - c0) and blocks.dtype == np.float64
    for t in range(trials):
        A = sample(spec, t).entries
        assert blocks[t].tobytes() == A[rows, cols].tobytes()

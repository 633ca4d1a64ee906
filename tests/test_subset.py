import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exspec import subset
from exspec.rng import stream
from exspec.subset import (
    ENUMERATION_CAP,
    SubsetSumProblem,
    _combinations,
    enumerate_exact,
    fourth_moment_bound,
    inclusion_probabilities,
    second_moment_exact,
)
from exspec.verify import _prefix_hits


def test_second_moment_two_singletons():
    p = SubsetSumProblem(a=np.array([1.0, 1.0]), k=1)
    assert second_moment_exact(p) == pytest.approx(1.0)


def test_second_moment_pairs_of_three():
    p = SubsetSumProblem(a=np.array([1.0, 2.0, 3.0]), k=2)
    assert second_moment_exact(p) == pytest.approx(50.0 / 3.0)
    assert enumerate_exact(p, "moment", 2) == pytest.approx(50.0 / 3.0)


def test_second_moment_full_subset():
    with pytest.warns(UserWarning):
        p = SubsetSumProblem(a=np.array([1.0, -2.0, 4.0]), k=3)
    assert second_moment_exact(p) == pytest.approx(9.0)


def test_second_moment_degenerate_m1():
    p = SubsetSumProblem(a=np.array([3.0]), k=1)
    assert second_moment_exact(p) == pytest.approx(9.0)


def test_fourth_moment_bound_zero_vector():
    p = SubsetSumProblem(a=np.zeros(5), k=2)
    assert fourth_moment_bound(p) == 0.0


def test_fourth_moment_bound_worked_example():
    p = SubsetSumProblem(a=np.ones(4), k=2)
    assert fourth_moment_bound(p) == pytest.approx(216.0)
    assert enumerate_exact(p, "moment", 4) == pytest.approx(16.0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10**6),
)
def test_closed_forms_match_enumeration(m, seed):
    rng = stream(seed)
    k = int(rng.integers(1, (m + 1) // 2 + 1))
    p = SubsetSumProblem(a=rng.normal(0, 3, size=m), k=k)
    exact2 = enumerate_exact(p, "moment", 2)
    assert second_moment_exact(p) == pytest.approx(exact2, rel=1e-12, abs=1e-12)
    assert enumerate_exact(p, "moment", 4) <= fourth_moment_bound(p) * (1 + 1e-12)


def test_inclusion_probabilities_by_counting():
    p = SubsetSumProblem(a=np.zeros(9), k=4)
    t = inclusion_probabilities(p)
    total = math.comb(9, 4)
    for u in range(1, 5):
        hits = sum(
            1 for comb in itertools.combinations(range(9), 4) if set(range(u)) <= set(comb)
        )
        assert t[u - 1] == pytest.approx(hits / total, abs=1e-15)
    assert t[0] >= t[1] >= t[2] >= t[3] >= 0.0


def test_table_prefix_count_matches_set_count():
    for m in range(1, 13):
        for k in range(1, m + 1):
            combs = list(itertools.combinations(range(m), k))
            for u in range(1, min(m, 4) + 1):
                expected = sum(1 for comb in combs if set(range(u)) <= set(comb))
                assert _prefix_hits(m, k, u) == expected


def test_inclusion_probabilities_vanish_beyond_k():
    p = SubsetSumProblem(a=np.zeros(6), k=2)
    t = inclusion_probabilities(p)
    assert t[2] == 0.0 and t[3] == 0.0


def test_enumerate_tail_at_zero_is_one():
    p = SubsetSumProblem(a=np.array([1.0, 2.0, -1.0, 0.5]), k=2)
    assert enumerate_exact(p, "tail", 0.0) == 1.0


def test_enumerate_anticonc_flat_vector():
    p = SubsetSumProblem(a=np.ones(10), k=3)
    for c in (0.1, 0.5, 1.0):
        assert enumerate_exact(p, "anticonc", c) == 1.0


def test_enumeration_cap():
    p = SubsetSumProblem(a=np.zeros(40), k=20)
    built = _combinations.cache_info().misses
    with pytest.raises(ValueError) as exc:
        enumerate_exact(p, "moment", 2)
    assert str(exc.value) == (
        f"C(40,20) = 137846528820 subsets exceed the enumeration cap "
        f"({ENUMERATION_CAP}); choose a smaller m or k"
    )
    assert _combinations.cache_info().misses == built  # no table was built


def test_combinations_table_is_lexicographic_and_read_only():
    for m, k in [(1, 1), (5, 2), (7, 7), (9, 4), (12, 6)]:
        table = _combinations(m, k)
        assert table.dtype == np.intp and table.shape == (math.comb(m, k), k)
        assert [tuple(row) for row in table.tolist()] == list(
            itertools.combinations(range(m), k)
        )
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert _combinations(m, k) is table


def _reference_sums(a, m, k):
    # The per-subset loop the table replaced; enumeration must match it bit for bit.
    out = np.empty(math.comb(m, k))
    for idx, comb in enumerate(itertools.combinations(range(m), k)):
        out[idx] = a[list(comb)].sum()
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumerate_exact_matches_per_subset_loop_bitwise(data):
    m = data.draw(st.integers(min_value=1, max_value=18), label="m")
    k = data.draw(st.integers(min_value=1, max_value=m), label="k")
    a = np.array(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=m, max_size=m,
    )))
    t = data.draw(st.floats(min_value=0.0, max_value=1e6), label="t")
    c = data.draw(st.floats(min_value=1e-3, max_value=2.0), label="c")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > ceil(m/2) is allowed here
        p = SubsetSumProblem(a=a, k=k)
    sums = _reference_sums(p.a, m, k)
    assert subset._subset_sums(p).tobytes() == sums.tobytes()
    for r in (1, 2, 4):
        assert enumerate_exact(p, "moment", r) == float(np.mean(sums**r))
    mean = (k / m) * float(np.sum(p.a))
    assert enumerate_exact(p, "tail", t) == float(np.mean(np.abs(sums - mean) >= t))
    thr = (c * k / m) * abs(float(np.sum(p.a)))
    assert enumerate_exact(p, "anticonc", c) == float(np.mean(np.abs(sums) >= thr))


@pytest.mark.parametrize("entries", [subset.TABLE_ENTRIES, 100, 7])
def test_enumerate_exact_matches_per_subset_loop_at_large_k(entries, monkeypatch):
    # Rows of 8 or more entries go through numpy's unrolled pairwise sum, and
    # tables above TABLE_ENTRIES (here (18, 9) by default) are summed in blocks.
    monkeypatch.setattr(subset, "TABLE_ENTRIES", entries)
    rng = stream(34)
    for m, k in [(16, 8), (17, 12), (18, 9), (18, 17)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = SubsetSumProblem(a=rng.normal(0, 1e3, size=m), k=k)
        sums = _reference_sums(p.a, m, k)
        assert subset._subset_sums(p).tobytes() == sums.tobytes()
        assert enumerate_exact(p, "moment", 2) == float(np.mean(sums**2))


def test_hoeffding_exact_tail_under_bound():
    rng = stream(32)
    p = SubsetSumProblem(a=rng.normal(size=12), k=6)
    norm = float(np.linalg.norm(p.a))
    exact = enumerate_exact(p, "tail", norm)
    assert exact <= 2 * math.exp(-2.0) + 1e-12


def test_problem_validation():
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([]), k=1)
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([1.0]), k=2)
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([np.nan]), k=1)

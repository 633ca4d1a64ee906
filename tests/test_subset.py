import itertools
import math
import runpy
import warnings
from pathlib import Path

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
    p = SubsetSumProblem(a=np.array([[1.0, 1.0]]), k=1)
    assert second_moment_exact(p).tolist() == [pytest.approx(1.0)]


def test_second_moment_pairs_of_three():
    p = SubsetSumProblem(a=np.array([[1.0, 2.0, 3.0]]), k=2)
    assert second_moment_exact(p).tolist() == [pytest.approx(50.0 / 3.0)]
    assert enumerate_exact(p, "moment", 2).tolist() == [[pytest.approx(50.0 / 3.0)]]


def test_second_moment_full_subset():
    with pytest.warns(UserWarning):
        p = SubsetSumProblem(a=np.array([[1.0, -2.0, 4.0]]), k=3)
    assert second_moment_exact(p).tolist() == [pytest.approx(9.0)]


def test_second_moment_degenerate_m1():
    p = SubsetSumProblem(a=np.array([[3.0]]), k=1)
    assert second_moment_exact(p).tolist() == [pytest.approx(9.0)]


def test_fourth_moment_bound_zero_vector():
    p = SubsetSumProblem(a=np.zeros((1, 5)), k=2)
    assert fourth_moment_bound(p).tolist() == [0.0]


def test_fourth_moment_bound_worked_example():
    p = SubsetSumProblem(a=np.ones((1, 4)), k=2)
    assert fourth_moment_bound(p).tolist() == [pytest.approx(216.0)]
    assert enumerate_exact(p, "moment", 4).tolist() == [[pytest.approx(16.0)]]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10**6),
)
def test_closed_forms_match_enumeration(m, seed):
    rng = stream(seed)
    k = int(rng.integers(1, (m + 1) // 2 + 1))
    p = SubsetSumProblem(a=rng.normal(0, 3, size=(1, m)), k=k)
    exact2 = enumerate_exact(p, "moment", 2)[:, 0]
    assert second_moment_exact(p) == pytest.approx(exact2, rel=1e-12, abs=1e-12)
    assert enumerate_exact(p, "moment", 4)[0, 0] <= fourth_moment_bound(p)[0] * (1 + 1e-12)


def test_inclusion_probabilities_by_counting():
    p = SubsetSumProblem(a=np.zeros((1, 9)), k=4)
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
    p = SubsetSumProblem(a=np.zeros((1, 6)), k=2)
    t = inclusion_probabilities(p)
    assert t[2] == 0.0 and t[3] == 0.0


def test_enumerate_tail_at_zero_is_one():
    p = SubsetSumProblem(a=np.array([[1.0, 2.0, -1.0, 0.5]]), k=2)
    assert enumerate_exact(p, "tail", 0.0).tolist() == [[1.0]]


def test_enumerate_anticonc_flat_vector():
    p = SubsetSumProblem(a=np.ones((1, 10)), k=3)
    for c in (0.1, 0.5, 1.0):
        assert enumerate_exact(p, "anticonc", c).tolist() == [[1.0]]


def test_enumeration_cap():
    p = SubsetSumProblem(a=np.zeros((1, 40)), k=20)
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
    # The per-subset loop the table replaced; enumeration must match it bit
    # for bit. One row, as the oracle gives for a stack of one.
    out = np.empty((1, math.comb(m, k)))
    for idx, comb in enumerate(itertools.combinations(range(m), k)):
        out[0, idx] = a[list(comb)].sum()
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_enumerate_exact_matches_per_subset_loop_bitwise(data):
    m = data.draw(st.integers(min_value=1, max_value=18), label="m")
    k = data.draw(st.integers(min_value=1, max_value=m), label="k")
    a = np.array([data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=m, max_size=m,
    ))])
    t = data.draw(st.floats(min_value=0.0, max_value=1e6), label="t")
    c = data.draw(st.floats(min_value=1e-3, max_value=2.0), label="c")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > ceil(m/2) is allowed here
        p = SubsetSumProblem(a=a, k=k)
    sums = _reference_sums(p.a[0], m, k)
    assert subset._subset_sums(p).tobytes() == sums.tobytes()
    for r in (1, 2, 4):
        assert enumerate_exact(p, "moment", r).tolist() == [[float(np.mean(sums**r))]]
    mean = (k / m) * float(np.sum(p.a))
    assert enumerate_exact(p, "tail", t).tolist() == [[float(np.mean(np.abs(sums - mean) >= t))]]
    thr = (c * k / m) * abs(float(np.sum(p.a)))
    assert enumerate_exact(p, "anticonc", c).tolist() == [[float(np.mean(np.abs(sums) >= thr))]]


@pytest.mark.parametrize("entries", [subset.TABLE_ENTRIES, 100, 7])
def test_enumerate_exact_matches_per_subset_loop_at_large_k(entries, monkeypatch):
    # Rows of 8 or more entries go through numpy's unrolled pairwise sum, and
    # tables above TABLE_ENTRIES (here (18, 9) by default) are summed in blocks.
    monkeypatch.setattr(subset, "TABLE_ENTRIES", entries)
    rng = stream(34)
    for m, k in [(16, 8), (17, 12), (18, 9), (18, 17)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = SubsetSumProblem(a=rng.normal(0, 1e3, size=(1, m)), k=k)
        sums = _reference_sums(p.a[0], m, k)
        assert subset._subset_sums(p).tobytes() == sums.tobytes()
        assert enumerate_exact(p, "moment", 2).tolist() == [[float(np.mean(sums**2))]]


def test_hoeffding_exact_tail_under_bound():
    rng = stream(32)
    p = SubsetSumProblem(a=rng.normal(size=(1, 12)), k=6)
    norm = float(np.linalg.norm(p.a))
    (exact,), = enumerate_exact(p, "tail", norm)
    assert exact <= 2 * math.exp(-2.0) + 1e-12


def test_problem_validation():
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([]), k=1)
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([1.0]), k=2)
    with pytest.raises(ValueError):
        SubsetSumProblem(a=np.array([np.nan]), k=1)
    for a in (np.float64(1.0), np.ones((2, 2, 3))):  # a 0-d or 3-d a is no stack
        with pytest.raises(ValueError, match="nonempty vector or a stack"):
            SubsetSumProblem(a=a, k=1)


# The whole stdout of demos/subset_sum_moments.py, whose every number is read
# from row 0 of a one-problem stack.
SUBSET_DEMO_STDOUT = """\
a = [-0.83, 0.1, 1.58, -0.35, -0.5, -0.94, 0.55, 0.43, 1.51, -1.59]
k = 4 of m = 10

second moment: closed form 2.599413, enumeration 2.599413
fourth moment: enumeration 17.2250 <= bound 268.3543

tail P{|S - ES| >= t} vs 2 exp(-2 t^2 / ||a||_2^2):
    t = 0.781: exact 0.6238 <= 1.7650
    t = 1.561: exact 0.3619 <= 1.2131
    t = 3.122: exact 0.0524 <= 0.2707
"""


def test_the_subset_demo_prints_its_pinned_numbers(capsys):
    runpy.run_path(str(Path(__file__).parents[1] / "demos" / "subset_sum_moments.py"))
    assert capsys.readouterr().out == SUBSET_DEMO_STDOUT

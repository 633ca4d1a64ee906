"""The stacked oracle kernels against their one-case forms, bit for bit.

``verify`` tests its subset-sum problems, Perron matrices and membership
profiles as stacks; every value a stack gives must be the one its case
gives alone, so that the records do not depend on how cases are grouped.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import perron_vector

from exspec import subset
from exspec.core import row_norms
from exspec.degrees import (
    RegularityParams,
    corner_degree_events,
    deg_membership,
    exceedance_rows,
)
from exspec.spectra import perron_check
from exspec.subset import (
    SubsetSumProblem,
    enumerate_exact,
    fourth_moment_bound,
    second_moment_exact,
)
from exspec.verify import _perron_vectors


def _problem(a, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > ceil(m/2) is allowed here
        return SubsetSumProblem(a=a, k=k)


@pytest.mark.parametrize("entries", [subset.TABLE_ENTRIES, 7])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 14), count=st.integers(1, 6),
       data=st.data())
def test_a_stack_of_problems_enumerates_as_each_problem_alone(entries, seed, m, count, data):
    # At 7 table entries every table is built and summed block by block.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subset, "TABLE_ENTRIES", entries)
        _check_stack_against_each_problem(seed, m, count, data)


def _check_stack_against_each_problem(seed, m, count, data):
    k = data.draw(st.integers(1, m), label="k")
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, float(rng.uniform(0.1, 1e3)), size=(count, m))
    stack = _problem(A, k)
    alone = [_problem(a, k) for a in A]
    assert subset._subset_sums(stack).tobytes() == np.stack(
        [subset._subset_sums(p) for p in alone]).tobytes()

    moments = enumerate_exact(stack, "moment", (1, 2, 4))
    assert moments.shape == (count, 3)
    assert moments.tolist() == [[enumerate_exact(p, "moment", r) for r in (1, 2, 4)]
                                for p in alone]
    assert enumerate_exact(stack, "moment", 2).tolist() == [
        enumerate_exact(p, "moment", 2) for p in alone]

    # Thresholds one row per problem, and levels shared by every problem.
    norms = row_norms(A)[:, None]
    t = np.array([0.0, 0.25, 0.5, 1.0, 2.0]) * norms
    assert enumerate_exact(stack, "tail", t).tolist() == [
        [enumerate_exact(p, "tail", float(x)) for x in row] for p, row in zip(alone, t)]
    levels = (0.05, 0.1, 0.25, 0.5, 1.0)
    assert enumerate_exact(stack, "anticonc", levels).tolist() == [
        [enumerate_exact(p, "anticonc", c) for c in levels] for p in alone]
    assert enumerate_exact(stack, "tail", 0.5).tolist() == [
        enumerate_exact(p, "tail", 0.5) for p in alone]

    assert second_moment_exact(stack).tolist() == [second_moment_exact(p) for p in alone]
    assert fourth_moment_bound(stack).tolist() == [fourth_moment_bound(p) for p in alone]


def test_enumerate_exact_rejects_params_that_do_not_fit():
    stack = SubsetSumProblem(a=np.ones((3, 6)), k=2)
    with pytest.raises(ValueError, match="does not fit"):
        enumerate_exact(stack, "tail", np.ones((2, 4)))
    with pytest.raises(ValueError, match="does not fit"):
        enumerate_exact(stack, "moment", np.full((3, 1), 2))
    with pytest.raises(ValueError, match="moment order"):
        enumerate_exact(stack, "moment", (2, 3))
    with pytest.raises(ValueError, match="threshold"):
        enumerate_exact(stack, "tail", (1.0, -1.0))
    with pytest.raises(ValueError, match="level"):
        enumerate_exact(stack, "anticonc", None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), count=st.integers(1, 8))
def test_a_stack_of_matrices_iterates_and_checks_as_each_matrix_alone(seed, n, count):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.0, size=(count, n, n))
    x = _perron_vectors(M)
    assert x.tobytes() == np.stack([perron_vector(E) for E in M]).tobytes()
    # The Perron vectors pass; the all-ones vector of a non-regular matrix
    # fails the residual test, and is not checked against the radius.
    for X in (x, np.ones((count, n))):
        r = perron_check(M, X, tol=1e-8)
        alone = [perron_check(E, v, tol=1e-8) for E, v in zip(M, X)]
        for key in ("rho", "is_eigen", "matches_radius"):
            assert r[key].tolist() == [a[key] for a in alone]


def test_perron_check_validates_a_stack():
    with pytest.raises(ValueError, match="matching"):
        perron_check(np.ones((2, 3, 3)), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        perron_check(np.ones((2, 3, 3)), np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30))
def test_rows_of_mixed_lengths_score_as_each_row_alone(seed, rows):
    rng = np.random.default_rng(seed)
    # Lengths 1 to 90 truncate at k = 1, 2 or 3, so most rows stop below the
    # batch's last k.
    lengths = rng.integers(1, 91, size=rows)
    target = rng.uniform(1.0, 6.0, size=rows)
    delta = rng.uniform(0.05, 2.0, size=rows)
    W = [t + rng.normal(0.0, float(rng.uniform(0.1, 3.0)), size=m)
         for t, m in zip(target, lengths)]
    ok, worst_k, k_max = exceedance_rows(W, target, delta)
    alone = [exceedance_rows(w[None, :], t, dl) for w, t, dl in zip(W, target, delta)]
    assert ok.tolist() == [bool(a[0][0]) for a in alone]
    assert worst_k.tolist() == [int(a[1][0]) for a in alone]
    assert k_max.tolist() == [int(a[2][0]) for a in alone]
    stops = [next(k for k in range(1, 10) if m * math.exp(-k * k) < 1.0) for m in lengths]
    assert [k for k, passed in zip(k_max.tolist(), ok) if passed] == [
        k for k, passed in zip(stops, ok) if passed]

    # Profiles (u, v) of those lengths, each with its own params, and corners
    # of one size, each with its own params.
    U = [np.abs(w) for w in W]
    V = [np.abs(np.flip(w)) * rng.choice([1.0, 1.0 + 1e-6]) for w in W]
    params = [RegularityParams(d=float(t), delta=float(dl)) for t, dl in zip(target, delta)]
    batch = deg_membership(U, V, params)
    for i, (u, v, p) in enumerate(zip(U, V, params)):
        one = deg_membership(u, v, p)
        assert {key: value[i].item() for key, value in batch.items()} == one
    shared = deg_membership(U, V, params[0])
    assert shared["member"].tolist() == [deg_membership(u, v, params[0])["member"]
                                         for u, v in zip(U, V)]
    T = rng.uniform(0.0, 2.0, size=(rows, 7, 7))
    assert corner_degree_events(T, params).tolist() == [
        bool(corner_degree_events(t[None], p)[0]) for t, p in zip(T, params)]


def test_a_batch_of_profiles_names_the_one_of_another_length():
    with pytest.raises(ValueError, match=r"profile 2: length mismatch: \|u\|=3, \|v\|=4"):
        deg_membership([np.ones(2), np.ones(3)], [np.ones(2), np.ones(4)],
                       RegularityParams(d=1.0, delta=1.0))


def test_one_params_per_profile_or_one_for_all():
    p = RegularityParams(d=1.0, delta=1.0)
    with pytest.raises(ValueError, match="^3 params for 2 profiles$"):
        deg_membership([np.ones(2), np.ones(3)], [np.ones(2), np.ones(3)], [p] * 3)
    with pytest.raises(ValueError, match="^1 params for 4 profiles$"):
        corner_degree_events(np.ones((4, 3, 3)), [p])

"""The stacked oracle kernels against stacks of one case, bit for bit.

Every exact oracle takes a stack, and ``verify`` tests its subset-sum
problems, Perron matrices and membership profiles as stacks; every value a
stack gives must be the one its case gives in a stack of its own, so that
the records do not depend on how cases are grouped.
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
    alone = [_problem(a[None], k) for a in A]
    assert subset._subset_sums(stack).tobytes() == np.concatenate(
        [subset._subset_sums(p) for p in alone]).tobytes()

    moments = enumerate_exact(stack, "moment", (1, 2, 4))
    assert moments.shape == (count, 3)
    assert moments.tolist() == [[enumerate_exact(p, "moment", r)[0, 0] for r in (1, 2, 4)]
                                for p in alone]
    assert enumerate_exact(stack, "moment", 2).tolist() == [
        [enumerate_exact(p, "moment", 2)[0, 0]] for p in alone]

    # Thresholds one row per problem, and levels shared by every problem.
    norms = row_norms(A)[:, None]
    t = np.array([0.0, 0.25, 0.5, 1.0, 2.0]) * norms
    assert enumerate_exact(stack, "tail", t).tolist() == [
        [enumerate_exact(p, "tail", float(x))[0, 0] for x in row] for p, row in zip(alone, t)]
    levels = (0.05, 0.1, 0.25, 0.5, 1.0)
    assert enumerate_exact(stack, "anticonc", levels).tolist() == [
        [enumerate_exact(p, "anticonc", c)[0, 0] for c in levels] for p in alone]
    assert enumerate_exact(stack, "tail", 0.5).tolist() == [
        [enumerate_exact(p, "tail", 0.5)[0, 0]] for p in alone]

    assert second_moment_exact(stack).tolist() == [second_moment_exact(p)[0] for p in alone]
    assert fourth_moment_bound(stack).tolist() == [fourth_moment_bound(p)[0] for p in alone]


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


def test_a_problem_is_a_stack_and_one_param_is_one_column():
    vector = SubsetSumProblem(a=np.array([1.0, 2.0, 3.0]), k=2)
    assert vector.a.shape == (1, 3) and vector.m == 3  # a stack of one
    stack = SubsetSumProblem(a=np.arange(12.0).reshape(4, 3), k=1)
    for statistic, param in (("moment", 2), ("tail", 0.5), ("anticonc", 1.0)):
        assert enumerate_exact(stack, statistic, param).shape == (4, 1)
    assert enumerate_exact(stack, "tail", np.full((4, 1), 0.5)).shape == (4, 1)
    assert second_moment_exact(stack).shape == fourth_moment_bound(stack).shape == (4,)


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
        alone = [perron_check(E[None], v[None], tol=1e-8) for E, v in zip(M, X)]
        for key in ("rho", "is_eigen", "matches_radius"):
            assert r[key].tolist() == [a[key][0] for a in alone]


def test_perron_check_validates_a_stack():
    with pytest.raises(ValueError, match="matching"):
        perron_check(np.ones((2, 3, 3)), np.ones(3))
    with pytest.raises(ValueError, match=r"x of shape \(3,\) must be a \(count, n\) stack"):
        perron_check(np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        perron_check(np.ones((2, 3, 3)), np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30))
def test_rows_of_mixed_lengths_score_as_each_row_alone(seed, rows):
    rng = np.random.default_rng(seed)
    # Lengths 1 to 90 truncate at k = 1, 2 or 3; the rows of each length are
    # scored as one stack.
    lengths = rng.integers(1, 91, size=rows)
    target = rng.uniform(1.0, 6.0, size=rows)
    delta = rng.uniform(0.05, 2.0, size=rows)
    W = [t + rng.normal(0.0, float(rng.uniform(0.1, 3.0)), size=m)
         for t, m in zip(target, lengths)]
    V = [np.abs(np.flip(w)) * rng.choice([1.0, 1.0 + 1e-6]) for w in W]
    params = [RegularityParams(d=float(t), delta=float(dl)) for t, dl in zip(target, delta)]
    for m in np.unique(lengths):
        i = np.flatnonzero(lengths == m)
        Wm = np.stack([W[j] for j in i])
        ok, worst_k, k_max = exceedance_rows(Wm, target[i], delta[i])
        alone = [exceedance_rows(W[j][None, :], target[j], delta[j]) for j in i]
        assert ok.tolist() == [bool(a[0][0]) for a in alone]
        assert worst_k.tolist() == [int(a[1][0]) for a in alone]
        assert k_max.tolist() == [int(a[2][0]) for a in alone]
        stop = next(k for k in range(1, 10) if m * math.exp(-k * k) < 1.0)
        assert all(k == stop for k, passed in zip(k_max.tolist(), ok) if passed)

        # Profiles (u, v) of that length, each with its own params.
        U, Vm, pm = np.abs(Wm), np.stack([V[j] for j in i]), [params[j] for j in i]
        batch = deg_membership(U, Vm, pm)
        for t, (u, v, p) in enumerate(zip(U, Vm, pm)):
            one = deg_membership(u[None], v[None], p)
            assert {key: value[t] for key, value in batch.items()} == {
                key: value[0] for key, value in one.items()}
        shared = deg_membership(U, Vm, params[0])
        assert shared["member"].tolist() == [
            deg_membership(u[None], v[None], params[0])["member"][0] for u, v in zip(U, Vm)]
    # Corners of one size, each with its own params.
    T = rng.uniform(0.0, 2.0, size=(rows, 7, 7))
    assert corner_degree_events(T, params).tolist() == [
        bool(corner_degree_events(t[None], p)[0]) for t, p in zip(T, params)]


def test_one_params_per_profile_or_one_for_all():
    p = RegularityParams(d=1.0, delta=1.0)
    with pytest.raises(ValueError, match="^3 params for 2 profiles$"):
        deg_membership(np.ones((2, 3)), np.ones((2, 3)), [p] * 3)
    with pytest.raises(ValueError, match="^1 params for 4 profiles$"):
        corner_degree_events(np.ones((4, 3, 3)), [p])

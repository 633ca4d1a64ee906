"""Exact statistics of a sum over a uniform random k-subset.

Given reals a_1..a_m and a uniform random subset S of [m] with |S| = k,
this module provides the closed-form second moment of sum_{i in S} a_i,
a four-term upper bound on its fourth moment, and an oracle that computes
moments, Hoeffding-type tails and anti-concentration probabilities exactly
by enumerating every k-subset (up to ENUMERATION_CAP of them).

A SubsetSumProblem is a stack of count problems with one m and one k: a
is a (count, m) array, one problem per row, and a single vector is a stack
of one. Every function below returns one entry (or row) per problem and
gives each problem the bits it gets alone: the oracle enumerates a whole
stack with one gather from the k-subset table, and reads any number of
moment orders, thresholds or levels from that one enumeration.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SubsetSumProblem",
    "inclusion_probabilities",
    "second_moment_exact",
    "fourth_moment_bound",
    "enumerate_exact",
]

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class SubsetSumProblem:
    """Reals a, a (count, m) stack of count vectors of length m (a vector is
    stored as a stack of one), and the subset size k."""

    a: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim not in (1, 2) or a.size < 1:
            raise ValueError("a must be a nonempty vector or a stack of them")
        a = np.atleast_2d(a).copy()
        if not np.all(np.isfinite(a)):
            raise ValueError("a must be finite")
        m = a.shape[1]
        if not 1 <= self.k <= m:
            raise ValueError(f"k must be in 1..{m}, got {self.k}")
        if self.k > math.ceil(m / 2):
            # The usual regime is k <= ceil(m/2); the formulas stay valid.
            warnings.warn(f"k={self.k} exceeds ceil(m/2) with m={m}", stacklevel=2)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.a.shape[1]


def _per_problem(formula, *columns):
    """formula applied to each problem's Python floats, one entry per
    problem. The closed forms stay in Python floats, whose powers (libm pow)
    differ from numpy's in the last bit."""
    return np.array([formula(*row) for row in zip(*(c.tolist() for c in columns))])


def inclusion_probabilities(p: SubsetSumProblem) -> np.ndarray:
    """t_u = P{[u] subset of S} = k(k-1)...(k-u+1) / (m(m-1)...(m-u+1)), u=1..4."""
    t = np.zeros(4)
    prod = 1.0
    for u in range(4):
        if p.k - u <= 0 or p.m - u <= 0:
            break
        prod *= (p.k - u) / (p.m - u)
        t[u] = prod
    return t


def second_moment_exact(p: SubsetSumProblem) -> np.ndarray:
    """Closed-form E(sum_{i in S} a_i)^2 of each problem.

    Equals t_2 (sum a)^2 + (k/m)(1 - (k-1)/(m-1)) sum a^2; the degenerate
    m = 1 case treats (k-1)/(m-1) as 0.
    """
    ratio = (p.k - 1) / (p.m - 1) if p.m > 1 else 0.0
    t2 = (p.k / p.m) * ratio
    return _per_problem(lambda s1, s2: t2 * s1**2 + (p.k / p.m) * (1.0 - ratio) * s2,
                        np.sum(p.a, axis=1), np.sum(p.a**2, axis=1))


def fourth_moment_bound(p: SubsetSumProblem) -> np.ndarray:
    """Four-term closed-form upper bound on E(sum_{i in S} a_i)^4 of each
    problem."""
    k, m = p.k, p.m
    return _per_problem(
        lambda s1, s2: (
            (k / m) ** 4 * s1**4
            + 6.0 * (k / m) ** 3 * s2 * s1**2
            + 7.0 * (k / m) * s2**2
            + 12.0 * (k / m) ** 2 * s2**1.5 * abs(s1)
        ),
        np.sum(p.a, axis=1), np.sum(p.a**2, axis=1),
    )


# Index entries (8 bytes each) in one table. A k-subset table up to this size
# (1 MiB) is built once and cached; a larger one, up to 38 x 962598 entries
# (279 MiB, for C(43,38)) under the cap, is built and summed block by block
# and not kept.
TABLE_ENTRIES = 2**17


def _table(combs, rows: int, k: int) -> np.ndarray:
    table = np.fromiter(
        itertools.chain.from_iterable(combs), dtype=np.intp, count=rows * k
    ).reshape(rows, k)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)
def _combinations(m: int, k: int) -> np.ndarray:
    """Read-only C(m,k) x k table of every k-subset of range(m), one sorted
    row each, in itertools.combinations (lexicographic) order.

    The cache holds 64 tables, more than the 41 (m, k) pairs that
    ``verify subset`` draws.
    """
    return _table(itertools.combinations(range(m), k), math.comb(m, k), k)


def _subset_sums(p: SubsetSumProblem) -> np.ndarray:
    """The C(m,k) subset sums of each problem, a C-contiguous (count, C)
    array."""
    count = math.comb(p.m, p.k)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"C({p.m},{p.k}) = {count} subsets exceed the enumeration cap "
            f"({ENUMERATION_CAP}); choose a smaller m or k"
        )
    # Each row is reduced exactly as the 1-D a[list(comb)].sum() was. np.take
    # gathers into a C-contiguous (count, C, k) array; a[:, table] may not,
    # and a row mean along a strided axis is summed in another order.
    if count * p.k <= TABLE_ENTRIES:
        return np.take(p.a, _combinations(p.m, p.k), axis=1).sum(axis=-1)
    out = np.empty((len(p.a), count))
    combs = itertools.combinations(range(p.m), p.k)
    rows = max(1, TABLE_ENTRIES // p.k)
    for start in range(0, count, rows):
        n = min(rows, count - start)
        block = _table(itertools.islice(combs, n), n, p.k)
        out[:, start:start + n] = np.take(p.a, block, axis=1).sum(axis=-1)
    return out


def enumerate_exact(p: SubsetSumProblem, statistic: str, param=None):
    """Exact value of a statistic by iterating all k-subsets of [m].

    statistic:
      "moment" (param r in {1, 2, 4}): E(sum_S)^r
      "tail" (param t): P{|sum_S - (k/m) sum a| >= t}
      "anticonc" (param c): P{|sum_S| >= (c k/m)|sum a|}

    param is one value or a sequence of values, all read from one
    enumeration; thresholds and levels may also come as a (count, values)
    array, one row per problem. The result is a (count, values) array, one
    row per problem and one column per value (one column for one value).
    """
    values = np.asarray(np.nan if param is None else param, dtype=np.float64)
    if statistic == "moment":
        valid, rule = (values == 1) | (values == 2) | (values == 4), "moment order must be 1, 2 or 4"
    elif statistic == "tail":
        valid, rule = values >= 0, "tail threshold t must be >= 0"
    elif statistic == "anticonc":
        valid, rule = values > 0, "anticoncentration level c must be > 0"
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    if not np.all(valid):
        raise ValueError(rule)
    if values.ndim > (1 if statistic == "moment" else 2) or (
            values.ndim == 2 and len(values) != len(p.a)):
        raise ValueError(f"{statistic} param of shape {values.shape} does not fit "
                         f"a of shape {p.a.shape}")
    sums = _subset_sums(p)
    columns = np.atleast_1d(values)  # one value is one column
    if statistic == "moment":
        # One power per order: sums ** 2 is a square, where an array of
        # orders would go through pow and move the last bit.
        return np.stack([np.mean(sums ** int(r), axis=1) for r in columns], axis=1)
    sums = sums[:, None, :]  # against one threshold per row of columns[..., None]
    s1 = np.sum(p.a, axis=1)[:, None, None]
    if statistic == "tail":
        hits = np.abs(sums - (p.k / p.m) * s1) >= columns[..., None]
    else:
        hits = np.abs(sums) >= (columns[..., None] * p.k / p.m) * np.abs(s1)
    return np.mean(hits, axis=2)

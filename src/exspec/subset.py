"""Exact statistics of a sum over a uniform random k-subset.

Given reals a_1..a_m and a uniform random subset S of [m] with |S| = k,
this module provides the closed-form second moment of sum_{i in S} a_i,
a four-term upper bound on its fourth moment, and an oracle that computes
moments, Hoeffding-type tails and anti-concentration probabilities exactly
by enumerating every k-subset (up to ENUMERATION_CAP of them).
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
    a: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64).copy()
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a must be a nonempty vector")
        if not np.all(np.isfinite(a)):
            raise ValueError("a must be finite")
        if not 1 <= self.k <= a.size:
            raise ValueError(f"k must be in 1..{a.size}, got {self.k}")
        if self.k > math.ceil(a.size / 2):
            # The usual regime is k <= ceil(m/2); the formulas stay valid.
            warnings.warn(f"k={self.k} exceeds ceil(m/2) with m={a.size}", stacklevel=2)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.a.size


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


def second_moment_exact(p: SubsetSumProblem) -> float:
    """Closed-form E(sum_{i in S} a_i)^2.

    Equals t_2 (sum a)^2 + (k/m)(1 - (k-1)/(m-1)) sum a^2; the degenerate
    m = 1 case treats (k-1)/(m-1) as 0.
    """
    s1 = float(np.sum(p.a))
    s2 = float(np.sum(p.a**2))
    ratio = (p.k - 1) / (p.m - 1) if p.m > 1 else 0.0
    t2 = (p.k / p.m) * ratio
    return t2 * s1**2 + (p.k / p.m) * (1.0 - ratio) * s2


def fourth_moment_bound(p: SubsetSumProblem) -> float:
    """Four-term closed-form upper bound on E(sum_{i in S} a_i)^4."""
    k, m = p.k, p.m
    s1 = float(np.sum(p.a))
    s2 = float(np.sum(p.a**2))
    return (
        (k / m) ** 4 * s1**4
        + 6.0 * (k / m) ** 3 * s2 * s1**2
        + 7.0 * (k / m) * s2**2
        + 12.0 * (k / m) ** 2 * s2**1.5 * abs(s1)
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
    count = math.comb(p.m, p.k)
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"C({p.m},{p.k}) = {count} subsets exceed the enumeration cap "
            f"({ENUMERATION_CAP}); choose a smaller m or k"
        )
    # Each row is reduced exactly as the 1-D a[list(comb)].sum() was.
    if count * p.k <= TABLE_ENTRIES:
        return p.a[_combinations(p.m, p.k)].sum(axis=1)
    out = np.empty(count)
    combs = itertools.combinations(range(p.m), p.k)
    rows = max(1, TABLE_ENTRIES // p.k)
    for start in range(0, count, rows):
        n = min(rows, count - start)
        out[start:start + n] = p.a[_table(itertools.islice(combs, n), n, p.k)].sum(axis=1)
    return out


def enumerate_exact(p: SubsetSumProblem, statistic: str, param: float | int | None = None) -> float:
    """Exact value of a statistic by iterating all k-subsets of [m].

    statistic:
      "moment" (param r in {1, 2, 4}): E(sum_S)^r
      "tail" (param t): P{|sum_S - (k/m) sum a| >= t}
      "anticonc" (param c): P{|sum_S| >= (c k/m)|sum a|}
    """
    sums = _subset_sums(p)
    if statistic == "moment":
        if param not in (1, 2, 4):
            raise ValueError("moment order must be 1, 2 or 4")
        return float(np.mean(sums ** int(param)))
    if statistic == "tail":
        if param is None or param < 0:
            raise ValueError("tail threshold t must be >= 0")
        mean = (p.k / p.m) * float(np.sum(p.a))
        return float(np.mean(np.abs(sums - mean) >= param))
    if statistic == "anticonc":
        if param is None or param <= 0:
            raise ValueError("anticoncentration level c must be > 0")
        thr = (param * p.k / p.m) * abs(float(np.sum(p.a)))
        return float(np.mean(np.abs(sums) >= thr))
    raise ValueError(f"unknown statistic {statistic!r}")

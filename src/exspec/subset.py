"""Exact and empirical statistics of a sum over a uniform random k-subset.

Given reals a_1..a_m and a uniform random subset S of [m] with |S| = k,
this module provides the closed-form second moment of sum_{i in S} a_i,
a four-term upper bound on its fourth moment, a brute-force enumeration
oracle, and seeded Monte Carlo estimators for anti-concentration and
Hoeffding-type tails.
"""

import functools
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rng import stream

__all__ = [
    "SubsetSumProblem",
    "SubsetMomentReport",
    "inclusion_probabilities",
    "second_moment_exact",
    "fourth_moment_bound",
    "moment_report",
    "enumerate_exact",
    "sample_k_subset",
    "anticoncentration_probability",
    "hoeffding_tail_check",
    "anticonc_constant_sweep",
    "report_json",
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


@dataclass(frozen=True)
class SubsetMomentReport:
    second_moment_exact: float
    fourth_moment_bound: float
    t_u: np.ndarray  # inclusion probabilities t_1..t_4
    mean: float
    fourth_moment_exact: float | None = None


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


def moment_report(p: SubsetSumProblem, enumerate_fourth: bool = False) -> SubsetMomentReport:
    exact4 = None
    if enumerate_fourth:
        exact4 = enumerate_exact(p, "moment", 4)
    return SubsetMomentReport(
        second_moment_exact=second_moment_exact(p),
        fourth_moment_bound=fourth_moment_bound(p),
        t_u=inclusion_probabilities(p),
        mean=(p.k / p.m) * float(np.sum(p.a)),
        fourth_moment_exact=exact4,
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
            f"({ENUMERATION_CAP}); use the Monte Carlo estimators instead"
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


def sample_k_subset(m: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform k-subset of {0..m-1} by partial Fisher-Yates."""
    idx = np.arange(m)
    for i in range(k):
        j = i + int(rng.integers(m - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def _ci_halfwidth(p_hat: float, trials: int) -> float:
    # Normal-approx 95% with a 1/trials continuity floor at p in {0, 1}.
    return max(1.959964 * math.sqrt(p_hat * (1.0 - p_hat) / trials), 1.0 / trials)


def _mc_probability(p: SubsetSumProblem, event, trials: int, seed: int) -> tuple[float, float]:
    hits = 0
    for j in range(trials):
        rng = stream(seed, j)
        s = float(p.a[sample_k_subset(p.m, p.k, rng)].sum())
        if event(s):
            hits += 1
    p_hat = hits / trials
    return p_hat, _ci_halfwidth(p_hat, trials)


def anticoncentration_probability(
    p: SubsetSumProblem, c: float, trials: int, seed: int = 0
) -> dict:
    """Monte Carlo estimate of P{|sum_S| >= (c k/m)|sum a|}."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    thr = (c * p.k / p.m) * abs(float(np.sum(p.a)))
    p_hat, ci = _mc_probability(p, lambda s: abs(s) >= thr, trials, seed)
    return {"p_hat": p_hat, "ci_halfwidth": ci}


def hoeffding_tail_check(p: SubsetSumProblem, t: float, trials: int, seed: int = 0) -> dict:
    """Estimated tail P{|sum_S - (k/m) sum a| >= t} against 2 exp(-2t^2/||a||_2^2)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    mean = (p.k / p.m) * float(np.sum(p.a))
    p_hat, ci = _mc_probability(p, lambda s: abs(s - mean) >= t, trials, seed)
    norm_sq = float(np.sum(p.a**2))
    if norm_sq == 0:
        bound = 2.0 if t == 0 else 0.0
    else:
        bound = 2.0 * math.exp(-2.0 * t**2 / norm_sq)
    return {"p_hat": p_hat, "bound": bound, "satisfied": bool(p_hat <= bound + 3 * ci)}


def anticonc_constant_sweep(
    problems: list[SubsetSumProblem], c_grid, trials: int, seed: int = 0
) -> dict:
    """Largest grid c with p_hat >= c*k/m across every problem.

    The anti-concentration constant is unspecified in closed form; this
    measures the best value supported by the given instances.
    """
    best = 0.0
    curves = []
    for c in c_grid:
        ok = True
        row = []
        for i, p in enumerate(problems):
            r = anticoncentration_probability(p, c, trials, seed + 7919 * i)
            row.append(r["p_hat"])
            if r["p_hat"] < c * p.k / p.m:
                ok = False
        curves.append({"c": float(c), "p_hat": row})
        if ok:
            best = max(best, float(c))
    return {"best_c": best, "curves": curves, "trials": trials, "seed": seed}


def report_json(p: SubsetSumProblem, statistic: str, value: float, exact: bool,
                trials: int = 0, seed: int = 0, ci: float = 0.0) -> str:
    a_hash = hashlib.sha256(p.a.tobytes()).hexdigest()[:16]
    return json.dumps(
        {
            "m": p.m,
            "k": p.k,
            "a_hash": a_hash,
            "statistic": statistic,
            "value": value,
            "exact": exact,
            "trials": trials,
            "seed": seed,
            "ci": ci,
        }
    )

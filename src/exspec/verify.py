"""Seeded invariant batteries behind the ``verify`` command.

Each suite returns a list of {"name", "passed", "detail"} records; a suite
passes iff every record does. Fixed seed gives a deterministic pass/fail
set.

The subset, perron and deg suites draw all their cases first, in the order
the stream gives them, then test the cases that share a shape as one stack
in one call, as every exact oracle takes a stack: one enumeration per
(m, k) group of subset-sum problems, one power iteration and one
``perron_check`` per matrix size, one ``deg_membership`` per profile
length, and one corner event per corner size. Each case gets the bits it
would get alone, so the records are those of testing the cases one by one.
The scaling suite stays case by case, since its 40 cases spread over 25
matrix sizes. A violated comparison, which ``scaling_reduction`` raises,
is a failed record.
"""

import math
from collections import defaultdict

import numpy as np

from . import degrees, ensembles, scaling, subset
from .core import abs_sums, row_norms
from .rng import stream
from .spectra import perron_check, spectral_norm

__all__ = ["run_suite", "SUITES"]


def _rec(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _random_problems(rng, count: int) -> list:
    """count random subset-sum problems, as one stack per (m, k) shape:
    a list of SubsetSumProblem with a (problems, m) array a each."""
    groups = defaultdict(list)
    for _ in range(count):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(1, max(2, (m + 1) // 2 + 1)))
        groups[m, k].append(rng.normal(0.0, 2.0, size=m))
    return [subset.SubsetSumProblem(a=np.stack(rows), k=k) for (_, k), rows in groups.items()]


def _prefix_hits(m: int, k: int, u: int) -> int:
    """Number of k-subsets of [m] that contain [u], counted over every
    enumerated subset. Rows are sorted, so a row contains {0..u-1} exactly
    when its u-th entry is u-1."""
    if u > k:
        return 0
    return int(np.count_nonzero(subset._combinations(m, k)[:, u - 1] == u - 1))


def verify_subset(seed: int = 0) -> list[dict]:
    rng = stream(seed, 1)
    moment_cases = _random_problems(rng, 200)
    tail_cases = _random_problems(rng, 40)
    level_cases = _random_problems(rng, 20)
    out = []
    worst2 = 0.0
    bound_ok = True
    tu_ok = True
    var_ok = True
    lower_ok = True
    for p in moment_cases:
        exact2, exact4 = subset.enumerate_exact(p, "moment", (2, 4)).T
        closed2 = subset.second_moment_exact(p)
        rel = np.abs(exact2 - closed2) / np.maximum(1.0, np.abs(exact2))
        worst2 = max(worst2, float(rel.max()))
        if np.any(exact4 > subset.fourth_moment_bound(p) * (1 + 1e-12)):
            bound_ok = False
        # Inclusion probabilities against direct counting.
        t = subset.inclusion_probabilities(p)
        for u in range(1, min(4, p.m) + 1):
            if abs(_prefix_hits(p.m, p.k, u) / math.comb(p.m, p.k) - t[u - 1]) > 1e-12:
                tu_ok = False
        # Centered second moment: E eta^2 = E(sum_S)^2 - (k/m sum a)^2 <= (k/m) sum a^2.
        s1 = np.sum(p.a, axis=-1)
        mean = (p.k / p.m) * s1
        eta2 = exact2 - mean**2
        if np.any(eta2 > (p.k / p.m) * np.sum(p.a**2, axis=-1) + 1e-10):
            var_ok = False
        # Second-moment lower bound E(sum_S)^2 >= k^2/(2m^2) (sum a)^2.
        if np.any(exact2 < 0.5 * (p.k / p.m) ** 2 * s1**2 - 1e-10):
            lower_ok = False
    out.append(_rec("second_moment_closed_form", worst2 <= 1e-12, f"worst rel err {worst2:.2e}"))
    out.append(_rec("fourth_moment_bound_sound", bound_ok))
    out.append(_rec("inclusion_probabilities_exact", tu_ok))
    out.append(_rec("centered_second_moment_bound", var_ok))
    out.append(_rec("second_moment_lower_bound", lower_ok))

    # Hoeffding bound on enumerable instances, exact tail, no sampling slack.
    hoeff_ok = True
    for p in tail_cases:
        norm = row_norms(p.a)[:, None]
        t = np.array([0.25, 0.5, 1.0, 2.0]) * norm
        exact_tail = subset.enumerate_exact(p, "tail", t)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero vector has no bound
            bound = 2.0 * np.exp(-2.0 * t**2 / norm**2) + 1e-12
        if np.any((exact_tail > bound) & (norm != 0)):
            hoeff_ok = False
    out.append(_rec("hoeffding_exact_tail_bound", hoeff_ok))

    # Anti-concentration probability is nonincreasing in c (enumeration).
    mono_ok = True
    for p in level_cases:
        vals = subset.enumerate_exact(p, "anticonc", (0.05, 0.1, 0.25, 0.5, 1.0))
        rising = (vals[:, 1:] > vals[:, :-1] + 1e-12).any(axis=1)
        if np.any(rising & (np.sum(p.a, axis=-1) != 0)):
            mono_ok = False
    out.append(_rec("anticoncentration_monotone_in_c", mono_ok))
    return out


def _perron_vectors(M: np.ndarray) -> np.ndarray:
    """Power iteration from the all-ones vector on each matrix of a
    (count, n, n) stack of positive matrices, in one batched product per
    step. A matrix stops at its own first step that moves x by less than
    1e-14 and keeps the x that step started from, or after 2000 steps."""
    x = np.ones(M.shape[:2])
    live = np.ones(len(M), dtype=bool)
    for _ in range(2000):
        y = (M @ x[..., None])[..., 0]
        y /= row_norms(y)[:, None]
        live &= ~(row_norms(y - x) < 1e-14)
        x[live] = y[live]
        if not live.any():
            break
    return x


def verify_perron(seed: int = 0) -> list[dict]:
    rng = stream(seed, 2)
    out = []
    by_size = defaultdict(list)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        by_size[n].append(rng.uniform(0.1, 1.0, size=(n, n)))
    # Perron vector by power iteration on a strictly positive matrix.
    ok = True
    for mats in by_size.values():
        M = np.stack(mats)
        r = perron_check(M, _perron_vectors(M), tol=1e-8)
        if not np.all(r["is_eigen"] & r["matches_radius"]):
            ok = False
    out.append(_rec("positive_perron_vector_matches_radius", ok))

    # Doubly regular: the all-ones vector carries eigenvalue d = radius.
    spec = ensembles.EnsembleSpec(kind="perm_sum_regular", n=20, d=4, seed=seed)
    A = ensembles.table_entries(ensembles.sample_tables(spec, range(10))).dense()
    r = perron_check(A, np.ones((10, 20)), tol=1e-8)
    reg_ok = np.all(r["is_eigen"] & r["matches_radius"] & (np.abs(r["rho"] - 4.0) < 1e-8))
    out.append(_rec("doubly_regular_ones_vector", reg_ok))
    return out


def verify_scaling(seed: int = 0) -> list[dict]:
    rng = stream(seed, 3)
    out = []
    concl_ok = True
    facts_ok = True
    chain_ok = True
    beta_ok = True
    for _ in range(40):
        m = int(rng.integers(8, 33))
        d = float(rng.uniform(2.0, 10.0))
        delta = float(rng.uniform(0.05, 0.4)) * d / 3.0
        A = scaling.sample_margin_perturbed(m, d, delta, rng)
        try:  # raises on a violated comparison, or beta beyond 6 delta
            rep = scaling.scaling_reduction(A, d, delta)
        except RuntimeError:
            rep = None
        if rep is None or not rep.hypotheses_ok:
            concl_ok = False
            continue
        if rep.beta > 6 * delta + 1e-8:
            concl_ok = False
        facts = scaling.unit_margin_svd_facts(A)
        if (
            abs(facts["top_singular"] - 1.0) > 1e-8
            or facts["right_vec_residual"] > 1e-8
            or facts["left_vec_residual"] > 1e-8
        ):
            facts_ok = False
        # Termwise triangle chain with the explicit diagonal prefactor.
        u, v = abs_sums(A)
        pref = np.sqrt(u.max() * v.max() / (u.min() * v.min()))
        if rep.lhs > pref * rep.s2 + rep.beta + 1e-8:
            chain_ok = False
        if u.min() >= 2 * d / 3 and u.max() <= 4 * d / 3 and pref > 2.0 + 1e-12:
            chain_ok = False
        # Rank-one building block of the beta decomposition.
        y = rng.normal(size=m)
        z = rng.normal(size=m)
        if abs(
            spectral_norm(np.outer(y, z)) - np.linalg.norm(y) * np.linalg.norm(z)
        ) > 1e-9 * max(1.0, np.linalg.norm(y) * np.linalg.norm(z)):
            beta_ok = False
        ones = np.ones(m)
        l1u = u.sum()
        decomp = (
            np.linalg.norm(v - d * ones) * np.linalg.norm(u) / l1u
            + d * np.sqrt(m) * np.linalg.norm(u - d * ones) / l1u
            + d * abs(m * d - l1u) / l1u
        )
        if rep.beta > decomp + 1e-8:
            beta_ok = False
    out.append(_rec("scaling_conclusion_and_beta", concl_ok))
    out.append(_rec("unit_margin_singular_facts", facts_ok))
    out.append(_rec("triangle_chain_termwise", chain_ok))
    out.append(_rec("beta_decomposition", beta_ok))
    return out


def verify_deg(seed: int = 0) -> list[dict]:
    rng = stream(seed, 4)
    out = []
    profiles = defaultdict(list)  # profile length -> [(u, params, doubled params)]
    corners = defaultdict(list)  # corner size -> [(T, T relabeled, params)]
    for _ in range(60):
        m = int(rng.integers(4, 40))
        d = float(rng.uniform(1.0, 10.0))
        u = np.abs(d + rng.normal(0.0, 0.5, size=m))
        delta = float(rng.uniform(0.1, 1.0))
        profiles[m].append((u, degrees.RegularityParams(d=d, delta=delta),
                            degrees.RegularityParams(d=d, delta=delta * 2.5)))
        k = int(rng.integers(4, 12))
        T = rng.uniform(0.0, 1.0, size=(k, k))
        event = degrees.RegularityParams(d=2 * float(T.sum(axis=0).mean()), delta=delta)
        p = rng.permutation(k)
        corners[k].append((T, T[np.ix_(p, p)], event))
    # Each profile (u, flip(u)) has one multiset and equal l1 mass, and is
    # tested at delta and at 2.5 delta.
    mono_ok = True
    for group in profiles.values():
        U, params, doubled = zip(*group)
        U = np.stack(U * 2)
        member = degrees.deg_membership(U, np.flip(U, axis=1), params + doubled)["member"]
        if np.any(member[:len(group)] & ~member[len(group):]):
            mono_ok = False
    # Permutation invariance of the corner event under identical relabeling.
    perm_ok = True
    for pairs in corners.values():
        T, relabeled, events = zip(*pairs)
        e = degrees.corner_degree_events(np.stack(T + relabeled), events * 2)
        if np.any(e[:len(T)] != e[len(T):]):
            perm_ok = False
    out.append(_rec("membership_monotone_in_delta", mono_ok))
    out.append(_rec("corner_event_permutation_invariant", perm_ok))

    # Cross-module: fitted margins are recovered exactly by the sum helpers.
    cross_ok = True
    for _ in range(10):
        m = int(rng.integers(5, 15))
        u = rng.uniform(1.0, 3.0, size=m)
        v = rng.uniform(1.0, 3.0, size=m)
        v *= u.sum() / v.sum()
        A = scaling.fit_margins(rng.uniform(0.5, 1.5, size=(m, m)), u, v)
        if np.abs(np.subtract(abs_sums(A), (u, v))).max() > 1e-9:
            cross_ok = False
    out.append(_rec("margins_roundtrip_through_sums", cross_ok))
    return out


SUITES = {
    "subset": verify_subset,
    "perron": verify_perron,
    "scaling": verify_scaling,
    "deg": verify_deg,
}


def run_suite(name: str, seed: int = 0) -> list[dict]:
    if name == "all":
        records = []
        for key in SUITES:
            for rec in SUITES[key](seed):
                records.append({**rec, "suite": key})
        return records
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [{**rec, "suite": name} for rec in SUITES[name](seed)]

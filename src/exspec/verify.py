"""Seeded invariant batteries behind the ``verify`` command.

Each suite returns a list of {"name", "passed", "detail"} records; a suite
passes iff every record does. Fixed seed gives a deterministic pass/fail
set.
"""

import math

import numpy as np

from . import ensembles, scaling, subset
from .core import column_sums, row_sums
from .degrees import RegularityParams, corner_degree_events, deg_membership
from .rng import stream
from .spectra import perron_check, spectral_norm

__all__ = ["run_suite", "SUITES"]


def _rec(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


def _random_problem(rng) -> subset.SubsetSumProblem:
    m = int(rng.integers(2, 13))
    k = int(rng.integers(1, max(2, (m + 1) // 2 + 1)))
    a = rng.normal(0.0, 2.0, size=m)
    return subset.SubsetSumProblem(a=a, k=k)


def _prefix_hits(m: int, k: int, u: int) -> int:
    """Number of k-subsets of [m] that contain [u], counted over every
    enumerated subset. Rows are sorted, so a row contains {0..u-1} exactly
    when its u-th entry is u-1."""
    if u > k:
        return 0
    return int(np.count_nonzero(subset._combinations(m, k)[:, u - 1] == u - 1))


def verify_subset(seed: int = 0) -> list[dict]:
    rng = stream(seed, 1)
    out = []
    worst2 = 0.0
    bound_ok = True
    tu_ok = True
    var_ok = True
    lower_ok = True
    for _ in range(200):
        p = _random_problem(rng)
        exact2 = subset.enumerate_exact(p, "moment", 2)
        closed2 = subset.second_moment_exact(p)
        rel = abs(exact2 - closed2) / max(1.0, abs(exact2))
        worst2 = max(worst2, rel)
        exact4 = subset.enumerate_exact(p, "moment", 4)
        if exact4 > subset.fourth_moment_bound(p) * (1 + 1e-12):
            bound_ok = False
        # Inclusion probabilities against direct counting.
        t = subset.inclusion_probabilities(p)
        for u in range(1, 5):
            if u > p.m:
                continue
            if abs(_prefix_hits(p.m, p.k, u) / math.comb(p.m, p.k) - t[u - 1]) > 1e-12:
                tu_ok = False
        # Centered second moment: E eta^2 = E(sum_S)^2 - (k/m sum a)^2 <= (k/m) sum a^2.
        mean = (p.k / p.m) * float(np.sum(p.a))
        eta2 = exact2 - mean**2
        if eta2 > (p.k / p.m) * float(np.sum(p.a**2)) + 1e-10:
            var_ok = False
        # Second-moment lower bound E(sum_S)^2 >= k^2/(2m^2) (sum a)^2.
        if exact2 < 0.5 * (p.k / p.m) ** 2 * float(np.sum(p.a)) ** 2 - 1e-10:
            lower_ok = False
    out.append(_rec("second_moment_closed_form", worst2 <= 1e-12, f"worst rel err {worst2:.2e}"))
    out.append(_rec("fourth_moment_bound_sound", bound_ok))
    out.append(_rec("inclusion_probabilities_exact", tu_ok))
    out.append(_rec("centered_second_moment_bound", var_ok))
    out.append(_rec("second_moment_lower_bound", lower_ok))

    # Hoeffding bound on enumerable instances, exact tail, no sampling slack.
    hoeff_ok = True
    for _ in range(40):
        p = _random_problem(rng)
        norm = float(np.linalg.norm(p.a))
        if norm == 0:
            continue
        for frac in (0.25, 0.5, 1.0, 2.0):
            t = frac * norm
            exact_tail = subset.enumerate_exact(p, "tail", t)
            if exact_tail > 2.0 * np.exp(-2.0 * t**2 / norm**2) + 1e-12:
                hoeff_ok = False
    out.append(_rec("hoeffding_exact_tail_bound", hoeff_ok))

    # Anti-concentration probability is nonincreasing in c (enumeration).
    mono_ok = True
    for _ in range(20):
        p = _random_problem(rng)
        if np.sum(p.a) == 0:
            continue
        vals = [subset.enumerate_exact(p, "anticonc", c) for c in (0.05, 0.1, 0.25, 0.5, 1.0)]
        if any(b > a + 1e-12 for a, b in zip(vals, vals[1:])):
            mono_ok = False
    out.append(_rec("anticoncentration_monotone_in_c", mono_ok))
    return out


def verify_perron(seed: int = 0) -> list[dict]:
    rng = stream(seed, 2)
    out = []
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 10))
        M = rng.uniform(0.1, 1.0, size=(n, n))
        # Perron vector by power iteration on a strictly positive matrix.
        x = np.ones(n)
        for _ in range(2000):
            y = M @ x
            y /= np.linalg.norm(y)
            if np.linalg.norm(y - x) < 1e-14:
                break
            x = y
        r = perron_check(M, x, tol=1e-8)
        if not (r["is_eigen"] and r["matches_radius"]):
            ok = False
    out.append(_rec("positive_perron_vector_matches_radius", ok))

    # Doubly regular: the all-ones vector carries eigenvalue d = radius.
    reg_ok = True
    spec = ensembles.EnsembleSpec(kind="perm_sum_regular", n=20, d=4, seed=seed)
    for i in range(10):
        A = ensembles.sample(spec, i)
        r = perron_check(A.entries, np.ones(20), tol=1e-8)
        if not (r["is_eigen"] and r["matches_radius"] and abs(r["rho"] - 4.0) < 1e-8):
            reg_ok = False
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
        rep = scaling.scaling_reduction(A, d, delta)
        if not rep.hypotheses_ok:
            concl_ok = False
            continue
        if rep.lhs > rep.bound + 1e-8 * max(1.0, d) or rep.beta > 6 * delta + 1e-8:
            concl_ok = False
        facts = scaling.unit_margin_svd_facts(A)
        if (
            abs(facts["top_singular"] - 1.0) > 1e-8
            or facts["right_vec_residual"] > 1e-8
            or facts["left_vec_residual"] > 1e-8
        ):
            facts_ok = False
        # Termwise triangle chain with the explicit diagonal prefactor.
        u = column_sums(A)
        v = row_sums(A)
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
    mono_ok = True
    perm_ok = True
    for _ in range(60):
        m = int(rng.integers(4, 40))
        d = float(rng.uniform(1.0, 10.0))
        u = np.abs(d + rng.normal(0.0, 0.5, size=m))
        v = np.flip(u)  # same multiset, equal l1 mass
        delta = float(rng.uniform(0.1, 1.0))
        r1 = deg_membership(u, v, RegularityParams(d=d, delta=delta))
        r2 = deg_membership(u, v, RegularityParams(d=d, delta=delta * 2.5))
        if r1["member"] and not r2["member"]:
            mono_ok = False
        # Permutation invariance of the corner event under identical relabeling.
        k = int(rng.integers(4, 12))
        T = rng.uniform(0.0, 1.0, size=(k, k))
        params = RegularityParams(d=2 * float(T.sum(axis=0).mean()), delta=delta)
        p = rng.permutation(k)
        e1, e2 = corner_degree_events(np.stack([T, T[np.ix_(p, p)]]), params, 2 * k)
        if e1 != e2:
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
        A = scaling.fit_margins(rng.uniform(0.5, 1.5, size=(m, m)), u, v, tol=1e-12)
        if np.max(np.abs(column_sums(A) - u)) > 1e-9 or np.max(np.abs(row_sums(A) - v)) > 1e-9:
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

"""Degree-profile regularity: the Deg_m(d, delta) membership test and the
corner-degree event.

Both tests share one kernel, ``exceedance_rows``: for a vector w of length
m, a target value and a deviation scale delta, require
|{i : |w_i - target| > k*delta}| <= m * e^{-k^2} for every natural k. The
quantifier over all k is truncated at the first k with m * e^{-k^2} < 1,
where the condition degenerates to "no exceedances at all" and stays
satisfied for every larger k because the exceedance sets shrink. The
kernel tests every row of a matrix at once, so a stack of corners is
tested in one call; rows of different lengths, each at its own scale m
and with its own target and delta, are tested in one call too.

Profiles are plain vectors: u holds the column sums and v the row sums.
``deg_membership(u, v, params)`` tests one profile at target d, and also
requires ||u||_1 = ||v||_1; given lists of profiles and one params per
profile, it tests them all in one kernel call.

``corner_degree_events(T, params)`` is the one corner event, shared by
``tail norm --delta``, ``tail s2`` and ``tail degree-event``: the profile
(u(T), v(T)) of the m x m corner lies in Deg_m(d/2, delta). The corollary
compares s2 of a matrix with constant sums d with s2 of its corner on the
event that the corner's own degree sequence is near-regular, so the test
runs at the corner's own scale m with target d/2, the corner's expected
degree. The l1 condition is left out: every matrix has ||u||_1 = ||v||_1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import abs_sums

__all__ = [
    "HYPOTHESIS_C",
    "RegularityParams",
    "deg_membership",
    "corner_degree_events",
    "exceedance_rows",
]

# The universal constant C of the sparsity and l2 hypotheses, which the
# paper does not give numerically.
HYPOTHESIS_C = 1.0


@dataclass(frozen=True)
class RegularityParams:
    """Target sum d and deviation scale delta (both finite and > 0)."""

    d: float
    delta: float

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.delta < math.inf):
            raise ValueError("d and delta must be positive and finite")

    def ratio_hypothesis_ok(self, n: int) -> bool:
        """d / sqrt(ln n) >= C * delta, the sparsity hypothesis of the
        second-singular-value comparison."""
        if n < 3:
            return True
        return self.d / math.sqrt(math.log(n)) >= HYPOTHESIS_C * self.delta


def _row_scales(params, profiles: int):
    """Target d and delta as arrays over the rows [u rows..., v rows...] of
    ``profiles`` profiles, from one RegularityParams for every profile or
    one per profile."""
    if isinstance(params, RegularityParams):
        params = [params] * profiles
    if len(params) != profiles:
        raise ValueError(f"{len(params)} params for {profiles} profiles")
    return np.array([p.d for p in params] * 2), np.array([p.delta for p in params] * 2)


def exceedance_rows(W, target, delta):
    """The truncated all-k exceedance test on each row of W, at the scale
    m of the row length.

    W is a (rows, m) array, or a list of rows of any lengths, each tested
    at the scale of its own length. target and delta are one value for
    every row or one per row.

    Returns (ok, worst_k, k_max), one entry per row: worst_k is the first
    failing k (0 for a passing row), and k_max is the k the test stopped at.
    """
    if isinstance(W, np.ndarray):
        lengths = np.array([W.shape[-1]])
        W = W.astype(np.float64, copy=False)
    else:  # NaN padding never exceeds a threshold
        lengths = np.array([len(w) for w in W])
        W, rows = np.full((len(W), lengths.max()), np.nan), W
        W[np.arange(W.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    dev = np.abs(W - np.reshape(target, (-1, 1)))
    # e^{-k^2} for k = 1, 2, ... up to the first k with m e^{-k^2} < 1 on the
    # longest row; a shorter row stops earlier, at its own k_max.
    tails = [math.exp(-1)]
    while lengths.max() * tails[-1] >= 1.0:
        tails.append(math.exp(-(len(tails) + 1) ** 2))
    limits = lengths[:, None] * np.array(tails)  # m e^{-k^2}, per row
    stops = 1 + np.count_nonzero(limits >= 1.0, axis=1)
    ks = np.arange(1, len(tails) + 1)
    with np.errstate(over="ignore"):  # a threshold beyond float64 is +inf: none exceeds it
        bounds = ks * np.reshape(delta, (-1, 1))
    # Past its own k_max a row's limit is below 1 and its exceedance set no
    # larger, so it cannot fail there first.
    failed = (dev[:, :, None] > bounds[:, None, :]).sum(axis=1) > limits
    ok = ~failed.any(axis=1)
    worst_k = np.where(ok, 0, failed.argmax(axis=1) + 1)
    return ok, worst_k, np.where(ok, stops, worst_k)


def deg_membership(u, v, params) -> dict:
    """Membership of the profile (u, v) in the set of profiles with
    near-constant sums; u and v are vectors of one length m.

    Requires ||u||_1 = ||v||_1 (relative tolerance, profiles come from
    floating-point matrices) and the exceedance condition at scale m and
    target d on both u and v. worst_k is the first k at which either side
    fails (0 for a member and for an l1 gap).

    u and v may also be lists of profiles, u[i] and v[i] of one length m_i,
    with params one RegularityParams for all or one per profile; then each
    value is an array with one entry per profile, each that of the profile
    alone, and one exceedance call tests every profile.
    """
    batch = isinstance(u, (list, tuple))
    us = [np.asarray(w, dtype=np.float64) for w in (u if batch else [u])]
    vs = [np.asarray(w, dtype=np.float64) for w in (v if batch else [v])]
    if len(us) != len(vs):
        raise ValueError(f"{len(us)} u profiles against {len(vs)} v profiles")
    for i, (a, b) in enumerate(zip(us, vs)):
        if a.size != b.size:
            where = f"profile {i + 1}: " if batch else ""
            raise ValueError(f"{where}length mismatch: |u|={a.size}, |v|={b.size}")
    m = np.array([a.size for a in us])
    d, delta = _row_scales(params, m.size)
    # Each l1 norm is summed on its own row: a zero-padded row would be
    # summed in another order, and its last bit could move.
    l1 = np.array([np.abs(w).sum() for w in us + vs]).reshape(2, -1)
    l1_gap = np.abs(l1[0] - l1[1])
    l1_ok = ~(l1_gap > 1e-8 * m * np.maximum(1.0, d[:m.size]))
    ok, worst, k_max = exceedance_rows(us + vs, d, delta)
    ok, worst, k_max = ok.reshape(2, -1), worst.reshape(2, -1), k_max.reshape(2, -1)
    member = l1_ok & ok.all(axis=0)
    first_failure = np.where(ok, np.iinfo(np.intp).max, worst).min(axis=0)
    worst_k = np.where(member | ~l1_ok, 0, first_failure)
    result = {"member": member, "worst_k": worst_k, "l1_gap": l1_gap, "k_max": k_max.max(axis=0)}
    if batch:
        return result
    return {"member": bool(member[0]), "worst_k": int(worst_k[0]),
            "l1_gap": float(l1_gap[0]), "k_max": int(result["k_max"][0])}


def corner_degree_events(T, params) -> np.ndarray:
    """The corner-degree event, for each corner of a dense or sparse
    (trials, m, m) stack: both u(T) and v(T) deviate from d/2 by more than
    k*delta for at most m * e^{-k^2} indices, all k. params is one
    RegularityParams for every corner or one per corner."""
    # Column sums u(T) and row sums v(T) of each corner, tested as rows at once.
    u, v = abs_sums(T)
    d, delta = _row_scales(params, len(u))
    ok = exceedance_rows(np.concatenate([u, v]), d / 2.0, delta)[0]
    return ok[:len(u)] & ok[len(u):]

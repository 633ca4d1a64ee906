"""Degree-profile regularity: the Deg_m(d, delta) membership test and the
corner-degree event.

Both tests share one kernel, ``exceedance_rows``: for a vector w of length
m, a target value and a deviation scale delta, require
|{i : |w_i - target| > k*delta}| <= m * e^{-k^2} for every natural k. The
quantifier over all k is truncated at the first k with m * e^{-k^2} < 1,
where the condition degenerates to "no exceedances at all" and stays
satisfied for every larger k because the exceedance sets shrink. The
kernel tests every row of a matrix at once, so a stack of corners is
tested in one call.

Profiles are plain vectors: u holds the column sums and v the row sums.
``deg_membership(u, v, params)`` tests one profile at target d, and also
requires ||u||_1 = ||v||_1.

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


def exceedance_rows(W: np.ndarray, target: float, delta: float):
    """The truncated all-k exceedance test on each row of W, at the scale
    m of the row length.

    Returns (ok, worst_k, k_max), one entry per row: worst_k is the first
    failing k (0 for a passing row), and k_max is the k the test stopped at.
    """
    dev = np.abs(np.asarray(W, dtype=np.float64) - target)
    m = dev.shape[1]
    limits = [m * math.exp(-1)]  # m * e^{-k^2} for k = 1, 2, ...
    while limits[-1] >= 1.0:
        limits.append(m * math.exp(-(len(limits) + 1) ** 2))
    ks = np.arange(1, len(limits) + 1)
    with np.errstate(over="ignore"):  # a threshold beyond float64 is +inf: none exceeds it
        bounds = ks * delta
    failed = (dev[:, :, None] > bounds).sum(axis=1) > np.array(limits)
    ok = ~failed.any(axis=1)
    worst_k = np.where(ok, 0, failed.argmax(axis=1) + 1)
    return ok, worst_k, np.where(ok, len(limits), worst_k)


def deg_membership(u, v, params: RegularityParams) -> dict:
    """Membership of the profile (u, v) in the set of profiles with
    near-constant sums; u and v are vectors of one length m.

    Requires ||u||_1 = ||v||_1 (relative tolerance, profiles come from
    floating-point matrices) and the exceedance condition at scale m and
    target d on both u and v. worst_k is the first k at which either side
    fails (0 for a member and for an l1 gap).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.size != v.size:
        raise ValueError(f"length mismatch: |u|={u.size}, |v|={v.size}")
    profile = np.stack([u, v])
    l1_u, l1_v = np.abs(profile).sum(axis=1)
    l1_gap = float(abs(l1_u - l1_v))
    l1_ok = not l1_gap > 1e-8 * u.size * max(1.0, params.d)
    ok, worst, k_max = exceedance_rows(profile, params.d, params.delta)
    member = l1_ok and bool(ok.all())
    worst_k = 0 if member or not l1_ok else int(min(k for k in worst if k > 0))
    return {"member": member, "worst_k": worst_k, "l1_gap": l1_gap, "k_max": int(k_max.max())}


def corner_degree_events(T, params: RegularityParams) -> np.ndarray:
    """The corner-degree event, for each corner of a dense or sparse
    (trials, m, m) stack: both u(T) and v(T) deviate from d/2 by more than
    k*delta for at most m * e^{-k^2} indices, all k."""
    # Column sums u(T) and row sums v(T) of each corner, tested as rows at once.
    u, v = abs_sums(T)
    ok = exceedance_rows(np.concatenate([u, v]), params.d / 2.0, params.delta)[0]
    return ok[:len(u)] & ok[len(u):]

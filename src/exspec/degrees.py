"""Degree-profile regularity: the Deg_m(d, delta) membership test and the
near-constant-corner-degree event.

Both tests share one kernel, ``exceedance_rows``: for a vector w, a target
value and a deviation scale delta, require
|{i : |w_i - target| > k*delta}| <= scale * e^{-k^2} for every natural k.
The membership test uses scale = m and target = d; the corner event uses
scale = n (the parent dimension) and target = d/2. The quantifier over all
k is truncated at the first k with scale * e^{-k^2} < 1, where the
condition degenerates to "no exceedances at all" and stays satisfied for
every larger k because the exceedance sets shrink. The kernel tests every
row of a matrix at once, so a stack of corners is tested in one call.

Profiles are plain vectors: u holds the column sums and v the row sums.
``deg_membership(u, v, params)`` tests one profile; a single corner T is
the one-corner stack ``T[None]`` of ``corner_degree_events``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import abs_sums

__all__ = [
    "RegularityParams",
    "deg_membership",
    "membership_rows",
    "corner_degree_events",
    "exceedance_rows",
]


@dataclass(frozen=True)
class RegularityParams:
    """Target sum d and deviation scale delta (both finite and > 0)."""

    d: float
    delta: float

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.delta < math.inf):
            raise ValueError("d and delta must be positive and finite")

    def ratio_hypothesis_ok(self, n: int, C: float) -> bool:
        """d / sqrt(ln n) >= C * delta, the sparsity hypothesis of the
        second-singular-value comparison."""
        if n < 3:
            return True
        return self.d / math.sqrt(math.log(n)) >= C * self.delta


def exceedance_rows(W: np.ndarray, target: float, delta: float, scale: float):
    """The truncated all-k exceedance test on each row of W.

    Returns (ok, worst_k, k_max), one entry per row: worst_k is the first
    failing k (0 for a passing row), and k_max is the k the test stopped at.
    """
    limits = [scale * math.exp(-1)]  # scale * e^{-k^2} for k = 1, 2, ...
    while limits[-1] >= 1.0:
        limits.append(scale * math.exp(-(len(limits) + 1) ** 2))
    dev = np.abs(np.asarray(W, dtype=np.float64) - target)
    ks = np.arange(1, len(limits) + 1)
    failed = (dev[:, :, None] > ks * delta).sum(axis=1) > np.array(limits)
    ok = ~failed.any(axis=1)
    worst_k = np.where(ok, 0, failed.argmax(axis=1) + 1)
    return ok, worst_k, np.where(ok, len(limits), worst_k)


def membership_rows(U: np.ndarray, V: np.ndarray, params: RegularityParams):
    """deg_membership for the profiles (U[t], V[t]) of each row t.

    Returns (member, worst_k, l1_gap, k_max), one entry per row.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    rows, m = U.shape
    l1_gap = np.abs(np.sum(np.abs(U), axis=1) - np.sum(np.abs(V), axis=1))
    l1_ok = ~(l1_gap > 1e-8 * m * max(1.0, params.d))
    ok, worst, k_max = exceedance_rows(np.concatenate([U, V]), params.d, params.delta, m)
    ok_u, ok_v = ok[:rows], ok[rows:]
    member = l1_ok & ok_u & ok_v
    # The first failing k on either side; 0 for members and for an l1 gap.
    first = np.minimum(np.where(ok_u, worst[rows:], worst[:rows]),
                       np.where(ok_v, worst[:rows], worst[rows:]))
    worst_k = np.where(member | ~l1_ok, 0, first)
    return member, worst_k, l1_gap, np.maximum(k_max[:rows], k_max[rows:])


def deg_membership(u, v, params: RegularityParams) -> dict:
    """Membership of the profile (u, v) in the set of profiles with
    near-constant sums; u and v are vectors of one length.

    Requires ||u||_1 = ||v||_1 (relative tolerance, profiles come from
    floating-point matrices) and the exceedance condition on both u and v.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.size != v.size:
        raise ValueError(f"length mismatch: |u|={u.size}, |v|={v.size}")
    member, worst_k, l1_gap, k_max = membership_rows(u[None, :], v[None, :], params)
    return {"member": bool(member[0]), "worst_k": int(worst_k[0]),
            "l1_gap": float(l1_gap[0]), "k_max": int(k_max[0])}


def corner_degree_events(T, params: RegularityParams, n_parent: int) -> np.ndarray:
    """Near-constant corner degrees, for each corner of a dense or sparse
    (trials, m, m) stack: both u(T) and v(T) deviate from d/2 by more than
    k*delta for at most n_parent * e^{-k^2} indices, all k.

    Note the asymmetry with deg_membership: the threshold scale is the
    parent dimension n and the target is d/2.
    """
    # Column sums u(T) and row sums v(T) of each corner, tested as rows at once.
    u, v = abs_sums(T)
    ok = exceedance_rows(np.concatenate([u, v]), params.d / 2.0, params.delta, n_parent)[0]
    return ok[:len(u)] & ok[len(u):]


import math

import numpy as np
import pytest
from matrix_reference import corner

from exspec.core import SquareMatrix
from exspec.degrees import (
    RegularityParams,
    corner_degree_events,
    deg_membership,
    exceedance_rows,
)
from exspec.rng import stream


def test_flat_profile_is_member_for_any_delta():
    for delta in (1e-6, 0.1, 10.0):
        r = deg_membership(np.full(12, 4.0), np.full(12, 4.0),
                           RegularityParams(d=4.0, delta=delta))
        assert r["member"] and r["worst_k"] == 0 and r["l1_gap"] == 0.0


def test_single_outlier_violates_at_first_small_threshold():
    # m=8, d=4, delta=1, one coordinate at d+10: the count threshold
    # m*e^{-k^2} drops below 1 already at k=2 (8e^-4 ~ 0.147), so a single
    # exceedance violates there first.
    u = np.full(8, 4.0)
    u[0] = 14.0
    r = deg_membership(u, u, RegularityParams(d=4.0, delta=1.0))
    assert not r["member"]
    assert r["worst_k"] == 2


def test_l1_mismatch_fails_regardless_of_counts():
    u = np.full(6, 3.0)
    v = u.copy()
    v[0] += 1.0
    r = deg_membership(u, v, RegularityParams(d=3.0, delta=0.5))
    assert not r["member"]
    assert r["worst_k"] == 0
    assert r["l1_gap"] == pytest.approx(1.0)


def test_membership_monotone_in_delta():
    rng = stream(41)
    for _ in range(50):
        m = int(rng.integers(4, 30))
        d = float(rng.uniform(1, 8))
        u = np.abs(d + rng.normal(0, 1, size=m))
        v = np.flip(u)
        delta = float(rng.uniform(0.05, 1.5))
        small = deg_membership(u, v, RegularityParams(d=d, delta=delta))
        large = deg_membership(u, v, RegularityParams(d=d, delta=2 * delta))
        assert large["member"] or not small["member"]


def test_exceedance_kernel_truncation_matches_direct_loop():
    rng = stream(42)
    for _ in range(30):
        m = int(rng.integers(3, 25))
        w = rng.normal(3.0, 2.0, size=m)
        delta = float(rng.uniform(0.2, 2.0))
        (ok,), _, (k_max,) = exceedance_rows(w[None, :], 3.0, delta)
        # Direct check over a generous range of k.
        direct_ok = all(
            np.count_nonzero(np.abs(w - 3.0) > k * delta) <= m * np.exp(-k * k)
            for k in range(1, 40)
        )
        assert ok == direct_ok
        if ok:
            # Truncation stops once the count threshold drops below one.
            assert m * np.exp(-k_max * k_max) < 1.0


def _corner_event(T, params) -> bool:
    """The corner event of one corner: a one-corner stack."""
    return bool(corner_degree_events(T[None], params)[0])


def test_corner_event_flat_corner():
    T = np.full((5, 5), 0.4)  # u=v=2 everywhere
    assert _corner_event(T, RegularityParams(d=4.0, delta=0.1))


def test_corner_event_of_flat_parent_matrix():
    n, d = 10, 3.0
    A = SquareMatrix((d / n) * np.ones((n, n)))
    T = corner(A)
    assert _corner_event(T, RegularityParams(d=d, delta=0.01))


def test_corner_event_fails_as_delta_shrinks():
    rng = stream(43)
    T = rng.uniform(0, 1, size=(8, 8))
    d = 2.0 * float(T.sum(axis=0).mean())
    held = [
        _corner_event(T, RegularityParams(d=d, delta=delta))
        for delta in (2.0, 0.5, 0.1, 1e-4, 1e-9)
    ]
    # Monotone in delta, and a nondegenerate corner must fail eventually.
    assert held == sorted(held, reverse=True)
    assert not held[-1]


def test_corner_event_invariant_under_joint_relabeling():
    rng = stream(44)
    T = rng.uniform(0, 1, size=(7, 7))
    params = RegularityParams(d=7.0, delta=0.6)
    p = rng.permutation(7)
    assert _corner_event(T, params) == _corner_event(T[np.ix_(p, p)], params)


def test_corner_event_counts_at_the_corners_own_scale():
    # An 8 x 8 corner, d/2 = 2, delta = 1: one column sum at 3.5 exceeds
    # k = 1 once. The count limit is 8/e ~ 2.9 at the corner's own scale
    # m = 8, so it passes; at k = 2 the limit 8e^-4 < 1 allows none, and
    # 3.5 - 2 = 1.5 <= 2. Three such columns fail k = 1, although at the
    # parent's scale 2m = 16 (limit 5.9) they would pass.
    T = np.full((8, 8), 0.25)
    T[0, 0] += 1.5
    params = RegularityParams(d=4.0, delta=1.0)
    assert _corner_event(T, params)
    T[1, 1] += 1.5
    T[2, 2] += 1.5
    assert not _corner_event(T, params)


def test_profile_and_params_validation():
    with pytest.raises(ValueError):
        RegularityParams(d=0.0, delta=1.0)
    with pytest.raises(ValueError):
        RegularityParams(d=1.0, delta=-1.0)
    with pytest.raises(ValueError, match="length mismatch"):
        deg_membership(np.ones(3), np.ones(4), RegularityParams(d=1.0, delta=1.0))


def test_ratio_hypothesis():
    # d / sqrt(ln 100) = 4.66 against C * delta with C = 1.
    assert RegularityParams(d=10.0, delta=4.6).ratio_hypothesis_ok(100)
    assert not RegularityParams(d=10.0, delta=4.7).ratio_hypothesis_ok(100)
    assert RegularityParams(d=1.0, delta=100.0).ratio_hypothesis_ok(2)


def _scalar_exceedance(w, target, delta):
    """The one-vector exceedance loop the row-wise kernel replaced."""
    dev = np.abs(w - target)
    k = 1
    while True:
        threshold = w.size * math.exp(-k * k)
        if np.count_nonzero(dev > k * delta) > threshold:
            return False, k, k
        if threshold < 1.0:
            return True, 0, k
        k += 1


def test_row_wise_kernels_match_the_one_vector_definitions():
    rng = stream(45)
    for _ in range(40):
        rows, m = int(rng.integers(1, 30)), int(rng.integers(1, 25))
        d = float(rng.uniform(1.0, 6.0))
        delta = float(rng.uniform(0.05, 2.0))
        W = d + rng.normal(0.0, float(rng.uniform(0.1, 3.0)), size=(rows, m))
        ok, worst_k, k_max = exceedance_rows(W, d, delta)
        assert [(bool(a), int(b), int(c)) for a, b, c in zip(ok, worst_k, k_max)] == [
            _scalar_exceedance(w, d, delta) for w in W]

        U = np.abs(W)
        V = np.abs(W[:, ::-1]) * rng.choice([1.0, 1.0 + 1e-6], size=(rows, 1))
        params = RegularityParams(d=d, delta=delta)
        for t in range(rows):
            ok_u, worst_u, kmax_u = _scalar_exceedance(U[t], d, delta)
            ok_v, worst_v, kmax_v = _scalar_exceedance(V[t], d, delta)
            gap = abs(float(np.sum(U[t])) - float(np.sum(V[t])))
            expect = ok_u and ok_v and not gap > 1e-8 * m * max(1.0, d)
            worst = 0 if expect or gap > 1e-8 * m * max(1.0, d) else min(
                k for k in (worst_u, worst_v) if k > 0)
            assert deg_membership(U[t], V[t], params) == {
                "member": expect, "worst_k": worst, "l1_gap": gap, "k_max": max(kmax_u, kmax_v)}

        # The corner event: target d/2 at the corner's own scale m.
        T = rng.uniform(0.0, 2.0, size=(rows, m, m))
        events = corner_degree_events(T, params)
        assert events.tolist() == [_corner_event(t, params) for t in T]
        assert events.tolist() == [
            _scalar_exceedance(t.sum(axis=0), d / 2, delta)[0]
            and _scalar_exceedance(t.sum(axis=1), d / 2, delta)[0] for t in T]

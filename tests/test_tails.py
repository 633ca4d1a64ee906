import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ks_helper import ks_two_sample
from matrix_reference import max_l2_reference, quadrants, relabel

from exspec.core import SquareMatrix
from exspec.degrees import RegularityParams, corner_degree_events, deg_membership
from exspec.ensembles import EnsembleSpec, relabelings, sample, sample_tables
from exspec.rng import stream
from exspec.spectra import RTOL, kernel_floats, second_singular, singular_value, spectral_norm
from exspec.tails import (
    C_GRID,
    TailCurve,
    _compare,
    _constants,
    _corner,
    _floors,
    _run_trials,
    _tail_probs,
    block_bound_curve,
    corner_capture_fraction,
    corner_degree_event_frequency,
    norm_tail_curve,
    s2_tail_curve,
    wilson_halfwidth,
)


def _single_entry_matrix(n=8):
    E = np.zeros((n, n))
    E[0, 1] = 1.0
    return SquareMatrix(E, zero_diagonal=True)


def test_wilson_halfwidth_basics():
    assert wilson_halfwidth(0, 100) < wilson_halfwidth(50, 100)
    assert wilson_halfwidth(50, 100) == pytest.approx(wilson_halfwidth(50, 100))
    assert wilson_halfwidth(500, 1000) < wilson_halfwidth(50, 100)
    with pytest.raises(ValueError):
        wilson_halfwidth(0, 0)


def _scalar_tail_probs(stat, thresholds):
    """The reference definition: one exceedance count per threshold, where a
    statistic within RTOL |tau| below tau reaches it."""
    p = np.empty(thresholds.size)
    ci = np.empty(thresholds.size)
    for i, tau in enumerate(thresholds):
        hits = int(np.count_nonzero(stat >= tau - RTOL * abs(tau)))
        p[i] = hits / stat.size
        ci[i] = wilson_halfwidth(hits, stat.size)
    return p, ci


def _scalar_compare(left, right, thresholds, c):
    """The reference comparison: one pass over the thresholds per constant."""
    p_left, ci_left = _scalar_tail_probs(left, thresholds)

    def at(cc):
        p_right, ci_right = _scalar_tail_probs(right, cc * thresholds)
        return p_right, ci_right, p_left <= p_right / cc + ci_left + ci_right / cc

    p_right, ci_right, holds = at(c)
    best_c = max([0.0] + [float(cc) for cc in C_GRID if np.all(at(cc)[2])])
    return (p_left, ci_left, p_right, ci_right, holds), best_c


def _wilson_scalar(successes: int, trials: int, z: float = 1.959964) -> float:
    """The Wilson half-width in scalar float arithmetic, the reference."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def test_wilson_halfwidths_match_the_scalar_bit_for_bit():
    for trials in [*range(1, 301), 1000, 4096, 9999, 10000]:
        hits = np.arange(trials + 1)
        scalar = np.array([_wilson_scalar(int(h), trials) for h in hits])
        assert wilson_halfwidth(hits, trials).tobytes() == scalar.tobytes(), trials
        one_by_one = np.array([wilson_halfwidth(int(h), trials) for h in hits])
        assert one_by_one.tobytes() == scalar.tobytes(), trials


def test_tail_probs_and_compare_match_the_scalar_loops():
    rng = stream(73)
    assert C_GRID.tolist() == [k / 100 for k in range(1, 101)]
    for trials in (1, 2, 7, 100, 1000):
        # Few distinct values, so thresholds tie with many entries.
        left = rng.integers(0, 6, size=trials).astype(np.float64)
        right = rng.integers(0, 6, size=trials) * 0.5
        right[rng.random(trials) < 0.3] = -np.inf  # trials that miss the event
        thresholds = np.concatenate([np.arange(0.0, 6.5, 0.5), rng.uniform(-1, 7, size=5)])
        for stat in (left, right):
            for got, want in zip(_tail_probs(stat, thresholds),
                                 _scalar_tail_probs(stat, thresholds)):
                assert got.tobytes() == want.tobytes()
        for c in (0.05, 0.25, 0.5, 1.0):
            columns, best_c = _compare(left, right, thresholds, c)
            want, want_best = _scalar_compare(left, right, thresholds, c)
            got = [columns[k] for k in ("p_left", "ci_left", "p_right", "ci_right", "holds")]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            assert best_c == want_best
            assert columns["p_right"].shape == thresholds.shape


def test_tail_counts_do_not_hang_on_rounding():
    # Integer statistics at integer thresholds, as integer corners give: any
    # relative perturbation of RTOL / 10 leaves every count as it is.
    rng = stream(74)
    stat = rng.integers(-4, 5, size=500).astype(np.float64)
    thresholds = np.arange(-4.0, 5.0)
    want = _tail_probs(stat, thresholds)
    assert want[0].tobytes() == _scalar_tail_probs(stat, thresholds)[0].tobytes()
    for sign in (-1.0, 1.0, rng.choice([-1.0, 1.0], size=stat.size)):
        moved = stat * (1.0 + sign * RTOL / 10)
        assert not np.array_equal(moved[stat != 0], stat[stat != 0])
        for got, w in zip(_tail_probs(moved, thresholds), want):
            assert got.tobytes() == w.tobytes()


def test_ks_same_distribution_below_critical():
    rng = stream(71)
    x = rng.normal(size=2000)
    y = rng.normal(size=2000)
    r = ks_two_sample(x, y)
    assert r["below"]
    assert r["statistic"] < r["critical"]


def test_ks_different_distributions_detected():
    rng = stream(72)
    r = ks_two_sample(rng.normal(size=2000), rng.normal(2.0, 1.0, size=2000))
    assert not r["below"]


def test_corner_capture_single_entry_exact():
    # A single off-diagonal unit entry: the corner of a relabeled copy has
    # norm 1 exactly when the entry lands in the corner block. For n=8 the
    # corner is 4x4 out of 56 ordered off-diagonal cells, so the probability
    # is 16/56.
    M = _single_entry_matrix(8)
    res = corner_capture_fraction(M, trials=40000, seed=73)
    at_1 = list(C_GRID).index(1.0)
    exact = 16.0 / 56.0
    assert abs(res["p_hat"][at_1] - exact) <= 3 * res["ci"][at_1]
    assert res["m_norm"] == pytest.approx(1.0)


def test_corner_capture_flat_offdiagonal():
    # ones matrix minus identity: every relabeled corner is either all-ones
    # (if no diagonal cell falls in the corner block) or all-ones with some
    # zeros; corner norm stays within [norm of all-ones 4x4 minus 1, 4].
    n = 12
    M = SquareMatrix(np.ones((n, n)) - np.eye(n), zero_diagonal=True)
    res = corner_capture_fraction(M, trials=2000, seed=74)
    assert res["best_c"] >= 0.3
    assert np.all(res["corner_norms"] <= res["m_norm"] + 1e-9)


def test_corner_capture_validation():
    with pytest.raises(ValueError, match="n >= 8"):
        corner_capture_fraction(SquareMatrix(np.zeros((4, 4))), trials=10)
    with pytest.raises(ValueError, match="zero diagonal"):
        corner_capture_fraction(SquareMatrix(np.eye(8)), trials=10)


def test_corner_capture_reproducible():
    M = _single_entry_matrix(8)
    a = corner_capture_fraction(M, trials=500, seed=75)
    b = corner_capture_fraction(M, trials=500, seed=75)
    assert np.array_equal(a["p_hat"], b["p_hat"])
    assert a["best_c"] == b["best_c"]


def test_norm_tail_curve_holds_for_perm_sum():
    spec = EnsembleSpec(kind="perm_sum_regular", n=32, d=3, zero_diagonal=True, seed=76)
    curve = norm_tail_curve(spec, c=0.01, trials=400)
    assert curve.all_hold()
    assert curve.meta["best_c"] >= 0.01
    assert curve.meta["event"] == "trivial"


def test_norm_tail_curve_with_degree_event():
    spec = EnsembleSpec(kind="perm_sum_regular", n=32, d=4, zero_diagonal=True, seed=77)
    # Generous delta: corner degrees of a d-regular matrix concentrate near
    # d/2, so the event holds every trial and the comparison still passes.
    curve = norm_tail_curve(
        spec, c=0.01, trials=300,
        event=RegularityParams(d=4.0, delta=4.0),
    )
    assert curve.all_hold()
    assert isinstance(curve.meta["event"], dict)


def test_norm_tail_curve_validation():
    spec = EnsembleSpec(kind="perm_sum_regular", n=32, d=3, zero_diagonal=True, seed=1)
    with pytest.raises(ValueError, match="c must lie"):
        norm_tail_curve(spec, c=0.0, trials=10)
    small = EnsembleSpec(kind="perm_sum_regular", n=4, d=2, zero_diagonal=True, seed=1)
    with pytest.raises(ValueError, match="n >= 8"):
        norm_tail_curve(small, c=0.5, trials=10)
    diag = EnsembleSpec(kind="perm_sum_regular", n=16, d=2, seed=1)
    with pytest.raises(ValueError, match="zero-diagonal"):
        norm_tail_curve(diag, c=0.5, trials=5)


def test_block_bound_curve_separately_exchangeable():
    rng = stream(78)
    base = SquareMatrix(rng.normal(size=(32, 32)))
    spec = EnsembleSpec(kind="separately_exchangeable", n=32, seed=78, base=base)
    curve = block_bound_curve(spec, trials=400)
    assert curve.all_hold()
    assert curve.meta["comparison"] == "four_block_triangle"


def test_block_bound_trivial_on_degenerate_base():
    base = SquareMatrix(np.zeros((8, 8)))
    spec = EnsembleSpec(kind="separately_exchangeable", n=8, seed=79, base=base)
    curve = block_bound_curve(spec, trials=50, thresholds=[0.5, 1.0])
    assert np.all(curve.p_left == 0.0)
    assert curve.all_hold()


def test_corner_degree_event_frequency_regular_ensemble():
    spec = EnsembleSpec(kind="perm_sum_regular", n=40, d=4, zero_diagonal=True, seed=80)
    res = corner_degree_event_frequency(
        spec, RegularityParams(d=4.0, delta=4.0), trials=300
    )
    assert res["p_E"] == 1.0
    assert 0.0 <= res["hypothesis_fraction"] <= 1.0


def test_corner_degree_event_frequency_tiny_delta():
    spec = EnsembleSpec(kind="perm_sum_regular", n=40, d=4, zero_diagonal=True, seed=81)
    res = corner_degree_event_frequency(
        spec, RegularityParams(d=4.0, delta=1e-9), trials=100
    )
    assert res["p_E"] < 0.5


def test_s2_tail_curve_complete_digraph():
    # J - I has second singular value exactly 1 for every sample, so both
    # tails are step functions and the comparison is exact.
    n = 16
    base = SquareMatrix(np.ones((n, n)) - np.eye(n), zero_diagonal=True)
    spec = EnsembleSpec(kind="permuted_base", n=n, seed=82, base=base)
    params = RegularityParams(d=float(n - 1), delta=2.0)
    curve = s2_tail_curve(spec, params, L_grid=[0.25, 0.5, 1.0], trials=60)
    assert np.allclose(curve.p_left, [1.0, 1.0, 0.0])
    assert curve.all_hold()
    assert curve.meta["member_fraction"] == 1.0


def test_s2_tail_curve_perm_sum():
    spec = EnsembleSpec(kind="perm_sum_regular", n=32, d=3, seed=83)
    params = RegularityParams(d=3.0, delta=2.0)
    curve = s2_tail_curve(spec, params, L_grid=[0.5, 1.0, 2.0], trials=300)
    assert curve.all_hold()
    assert curve.meta["best_c"] >= 0.01
    assert 0.0 <= curve.meta["member_fraction"] <= 1.0


def test_s2_invariant_under_relabeling_per_sample():
    spec = EnsembleSpec(kind="perm_sum_regular", n=20, d=3, seed=84)
    rng = stream(85)
    for i in range(10):
        A = sample(spec, i)
        assert second_singular(A) == pytest.approx(
            second_singular(relabel(A, rng.permutation(20))), abs=1e-9
        )


def test_tail_curve_serialization_roundtrip():
    curve = TailCurve(
        thresholds=np.array([1.0, 2.0]),
        p_left=np.array([0.5, 0.1]),
        p_right=np.array([0.6, 0.2]),
        ci_left=np.array([0.01, 0.01]),
        ci_right=np.array([0.01, 0.01]),
        trials=100, seed=3, c=0.5,
        holds=np.array([True, True]),
        meta={"comparison": "x"},
    )
    d = curve.to_dict()
    assert d["thresholds"] == [1.0, 2.0]
    assert d["holds"] == [True, True]
    csv = curve.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "tau,p_left,ci_left,p_right,ci_right"
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split(",")] == [1.0, 0.5, 0.01, 0.6, 0.01]


def test_norm_tail_curve_reruns_are_identical():
    spec = EnsembleSpec(kind="perm_sum_regular", n=16, d=2, zero_diagonal=True, seed=86)
    results = []
    for _ in range(2):
        curve = norm_tail_curve(spec, c=0.05, trials=200)
        results.append((curve.p_left.tolist(), curve.p_right.tolist()))
    assert results[0] == results[1]


def _relabeled_specs(n, seed):
    rng = stream(seed)
    base = SquareMatrix(rng.normal(size=(n, n)))
    return [EnsembleSpec(kind=kind, n=n, seed=seed, base=base)
            for kind in ("permuted_base", "separately_exchangeable")]


@pytest.mark.parametrize("n", [9, 10])
def test_relabeled_corner_gathers_the_sampled_corner(monkeypatch, n):
    from exspec import tails

    m, trials = n // 2, 11
    # Four chunks of a relabeled base, the last partial; a table kind's entry
    # stacks make its chunks one trial each.
    monkeypatch.setattr(tails, "CHUNK_FLOATS", 3 * m * m)
    specs = _relabeled_specs(n, 90) + [
        EnsembleSpec(kind="perm_sum_regular", n=n, d=3, seed=91),
        EnsembleSpec(kind="regular_digraph", n=n, d=2, seed=92),
    ]
    for spec in specs:
        # A table kind's corners come as cut, a relabeled base's gathered.
        (corners,) = _run_trials(spec, trials, [_corner(n)],
                                 lambda T: (T if isinstance(T, np.ndarray) else T.dense(),))
        want = np.array([sample(spec, i).entries[:m, n - m:] for i in range(trials)])
        assert corners.tobytes() == want.tobytes(), spec.kind


def test_a_whole_sample_stack_counts_in_the_chunk_budget(monkeypatch):
    from exspec import tails
    from exspec.core import max_l2

    n, trials = 16, 5
    chunks, stacks = [], []

    def whole(A):
        stacks.append(A.shape)
        return max_l2(A)

    def finish(l2s):
        chunks.append(len(l2s))
        return (l2s,)

    # A sample counts the larger of its entry stack, four words for each of
    # its d n entries, and the kernel's working set on it, n x n below the
    # crossover: the kernel's at d = 3, the stack's at d = 5.
    assert kernel_floats(n, n, 3) == n * n
    budget = tails.CHUNK_FLOATS
    for d, per_sample in ((3, n * n), (5, 4 * n * 5)):
        spec = EnsembleSpec(kind="perm_sum_regular", n=n, d=d, zero_diagonal=True, seed=311)
        monkeypatch.setattr(tails, "CHUNK_FLOATS", budget)
        chunks.clear()
        stacks.clear()
        (want,) = _run_trials(spec, trials, [], finish, whole=whole)
        assert chunks == [trials] and stacks == [(trials, n, n)]
        dense = np.array([sample(spec, i).entries for i in range(trials)])
        assert want.tobytes() == max_l2_reference(dense).tobytes()
        for cap, sizes in ((2 * per_sample, [2, 2, 1]), (2 * per_sample - 1, [1] * trials)):
            monkeypatch.setattr(tails, "CHUNK_FLOATS", cap)
            chunks.clear()
            (got,) = _run_trials(spec, trials, [], finish, whole=whole)
            assert chunks == sizes, (d, cap)
            assert got.tobytes() == want.tobytes()
    # On a relabeled base the statistic is taken once, on the base, and
    # needs no room in a chunk.
    base_spec = EnsembleSpec.permuted(sample(spec, 0), seed=312)
    stacks.clear()
    chunks.clear()
    (got,) = _run_trials(base_spec, trials, [], finish, whole=whole)
    assert stacks == [(1, n, n)] and chunks == [trials]
    assert got.tolist() == [want[0]] * trials


def test_a_table_chunk_counts_its_entry_stack(monkeypatch):
    # Every chunk of a table kind builds the entry stack of its samples, four
    # words for each of their n d entries, whole-sample statistic or not. At
    # n = 256, d = 120 that stack is 7.5 times the corner kernel's working
    # set; a budget that left it out peaked near 10 MiB.
    spec = EnsembleSpec("perm_sum_regular", 256, d=120, zero_diagonal=True, seed=0)
    for run in (lambda: norm_tail_curve(spec, c=0.5, trials=64),
                lambda: block_bound_curve(spec, trials=64)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak / 2**20


def test_a_table_chunk_counts_its_candidate_rows(monkeypatch):
    # At d = 1 a zero-diagonal table is drawn from a first batch of five
    # candidate rows, more words than its entry stack of four per entry.
    from exspec import tails

    n, trials = 16, 5
    spec = EnsembleSpec("perm_sum_regular", n, d=1, zero_diagonal=True, seed=313)
    assert spec.draw_words == 5 * n > 4 * n
    chunks = []

    def finish():
        chunks.append(1)
        return (np.zeros(1),)

    for cap, count in ((2 * 5 * n, 3), (2 * 5 * n - 1, trials)):
        monkeypatch.setattr(tails, "CHUNK_FLOATS", cap)
        chunks.clear()
        _run_trials(spec, trials, [], finish)
        assert len(chunks) == count, cap


def test_a_relabeled_base_chunk_counts_its_entry_stack():
    # A base whose corners Lanczos takes cuts them from the chunk's entry
    # stack, four words for each entry of the base, freed before the kernel
    # runs: a trial counts the larger of the two. A 4-regular 640-node base
    # (the benchmark's) counts its kernel, 31,360 floats against a stack of
    # 10,240; a 20-regular one its stack, 51,200, and so two trials a chunk,
    # where a budget that left the stack out took four and peaked near 2 MiB.
    n = 640
    chunks = []

    def finish(T):
        chunks.append(T.shape[0])
        return (np.zeros(T.shape[0]),)

    for d, sizes in ((4, [4, 4]), (20, [2, 2, 2, 2])):
        base = sample(EnsembleSpec("perm_sum_regular", n, d=d, zero_diagonal=True, seed=1), 0)
        spec = EnsembleSpec.permuted(base, seed=2)
        chunks.clear()
        _run_trials(spec, 8, [_corner(n)], finish)
        assert chunks == sizes, d
    base.nonzeros  # found once per matrix, not in the budget
    tracemalloc.start()
    try:
        norm_tail_curve(spec, c=0.5, trials=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, peak / 2**20


def test_relabeling_requires_a_base():
    spec = EnsembleSpec(kind="perm_sum_regular", n=8, d=2, seed=1)
    with pytest.raises(ValueError, match="does not relabel"):
        relabelings(spec, [0])


def test_s2_tail_curve_relabeled_base_matches_per_sample_reference():
    n, m = 32, 16
    base = sample(EnsembleSpec(kind="perm_sum_regular", n=n, d=3, seed=92), 0)
    spec = EnsembleSpec(kind="permuted_base", n=n, seed=93, base=base)
    params = RegularityParams(d=3.0, delta=1.0)
    half = RegularityParams(d=1.5, delta=1.0)
    # s2(base) = 2.79; the corner's s2 spans 1.73-2.41 over these trials.
    L_grid = [1.5, 1.8, 2.0, 2.2, 2.5, 3.0]
    c, trials = 1.0, 120
    s2A, s2T, members = [], [], []
    for i in range(trials):
        A = sample(spec, i).entries
        T = A[:m, n - m:]
        s2A.append(second_singular(A))
        s2T.append(second_singular(T))
        members.append(deg_membership(np.abs(T).sum(axis=0)[None], np.abs(T).sum(axis=1)[None],
                                      half)["member"][0])
    thresholds = np.asarray(L_grid) * params.delta
    p_left, ci_left = _tail_probs(np.array(s2A), thresholds)
    p_right, ci_right = _tail_probs(np.where(members, s2T, -np.inf), c * thresholds)

    curve = s2_tail_curve(spec, params, L_grid, trials=trials, c=c)
    assert np.unique(curve.p_right).size >= 4  # the grid cuts the corner tail
    assert np.array_equal(curve.p_left, p_left)
    assert np.array_equal(curve.ci_left, ci_left)
    assert np.array_equal(curve.p_right, p_right)
    assert np.array_equal(curve.ci_right, ci_right)
    assert curve.meta["member_fraction"] == float(np.mean(members))


def test_block_bound_relabeled_odd_n_matches_per_sample_blocks():
    spec = _relabeled_specs(9, 94)[1]
    b_norms = np.array([spectral_norm(quadrants(sample(spec, i))[1]) for i in range(60)])
    thresholds = 4.0 * np.quantile(b_norms, [0.2, 0.5, 0.8])
    curve = block_bound_curve(spec, trials=60, thresholds=thresholds)
    assert np.array_equal(curve.p_right, _tail_probs(b_norms, thresholds / 4.0)[0])
    assert np.all(curve.p_left == (spectral_norm(spec.base) >= thresholds))


def test_norm_tail_curve_rejects_relabeled_base_with_nonzero_diagonal():
    E = np.ones((8, 8)) - np.eye(8)
    E[3, 3] = 1.0
    spec = EnsembleSpec(kind="permuted_base", n=8, seed=95, base=SquareMatrix(E))
    with pytest.raises(ValueError, match="zero-diagonal"):
        norm_tail_curve(spec, c=0.5, trials=5)


def test_norm_tail_curve_relabeled_base_has_one_threshold():
    E = stream(96).normal(size=(16, 16))
    np.fill_diagonal(E, 0.0)
    base = SquareMatrix(E, zero_diagonal=True)
    spec = EnsembleSpec(kind="permuted_base", n=16, seed=96, base=base)
    curve = norm_tail_curve(spec, c=0.1, trials=50)
    assert curve.thresholds.tolist() == [spectral_norm(base)]
    assert curve.p_left.tolist() == [1.0]


# --- the chunked engine against a per-trial reference -------------------------

def _one(E, index):
    """singular_value of one matrix, as a stack of one."""
    return singular_value(E[None], index)[0]


def _assert_corner_norms(got, want, floors, exact):
    """The corner or block norms the engine hands to _tail_probs: the exact
    kernel's bytes where it runs; where the Perron bracket decides, a value
    at most the exact one in its cell of the floors."""
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        floors = np.sort(np.ravel(floors))
        assert np.all(got <= want)
        assert np.array_equal(np.searchsorted(floors, got, "right"),
                              np.searchsorted(floors, want, "right"))


def _reference_columns(spec, trials, event, half, delta):
    """Per-trial statistics from whole samples, one trial at a time."""
    n, m = spec.n, spec.n // 2
    cols = {k: [] for k in ("t", "ev", "s2A", "s2T", "member", "block", "hyp")}
    for i in range(trials):
        A = sample(spec, i).entries
        T = A[:m, n - m:]
        cols["t"].append(_one(T, 0))
        cols["ev"].append(corner_degree_events(T[None], event)[0])
        cols["s2A"].append(_one(A, 1))
        cols["s2T"].append(_one(T, 1))
        cols["member"].append(deg_membership(np.abs(T).sum(axis=0)[None],
                                             np.abs(T).sum(axis=1)[None], half)["member"][0])
        cols["block"].append(_one(A[:m, m:], 0))
        cols["hyp"].append(max(np.linalg.norm(A, axis=1).max(),
                               np.linalg.norm(A, axis=0).max()) <= delta)
    return {k: np.array(v) for k, v in cols.items()}


def _engine_specs(n):
    """(spec, d, delta) with d and delta chosen so that, over the trials of
    the reference test, the corner event is mixed and the l2 hypothesis
    (max row or column l2 norm <= delta) holds. The l2 maxima are one value
    for a relabeled base and for a 0/1 digraph (sqrt 3); those of
    perm_sum_regular at n = 9, d = 3 are sqrt 3, sqrt 5 or 3, so delta = 2.5
    makes its hypothesis column mixed too: it fails where all three
    derangements share an edge. Over 23 trials that column is mixed at about
    97% of seeds (at delta = 2, where any shared edge fails it, about half)."""
    E = stream(200 + n).normal(size=(n, n))
    np.fill_diagonal(E, 0.0)
    base = SquareMatrix(E, zero_diagonal=True)
    return [
        (EnsembleSpec(kind="permuted_base", n=n, seed=201, base=base), 14.0, 5.0),
        (EnsembleSpec(kind="separately_exchangeable", n=n, seed=202,
                      base=SquareMatrix(stream(203).normal(size=(n, n)))), 14.0, 5.0),
        (EnsembleSpec(kind="perm_sum_regular", n=n, d=3, zero_diagonal=True, seed=204),
         8.0, 2.5),
        (EnsembleSpec(kind="regular_digraph", n=n, d=3, seed=205), 8.0, 2.0),
    ]


@pytest.mark.parametrize("cap", [1, 100, None])
def test_engine_matches_per_trial_reference(monkeypatch, cap):
    from exspec import tails

    n = 9  # odd: the M12 block is 4 x 5
    if cap is not None:  # 1: one matrix per chunk; 100: a partial last chunk
        monkeypatch.setattr(tails, "CHUNK_FLOATS", cap)
    # The columns passed to _tail_probs, merged in trial order at any chunk size.
    stats = []
    real_tail_probs = tails._tail_probs
    monkeypatch.setattr(tails, "_tail_probs",
                        lambda stat, thr: stats.append(stat.copy()) or real_tail_probs(stat, thr))
    trials, seed = 23, 206
    for spec, d, delta in _engine_specs(n):
        event = RegularityParams(d=d, delta=delta)
        half = RegularityParams(d=d / 2.0, delta=delta)
        ref = _reference_columns(spec, trials, event, half, delta)
        assert 0 < ref["ev"].mean() < 1 and ref["hyp"].any()
        assert spec.kind != "perm_sum_regular" or not ref["hyp"].all()
        # The one-profile membership at (d/2, delta) is the corner event.
        assert ref["member"].tobytes() == ref["ev"].tobytes()
        ev_stat = np.where(ref["ev"], ref["t"], -np.inf)
        m_norm = float(spec.d) if spec.base is None else spectral_norm(spec.base)
        # The bases are signed and take the exact kernel; the table kinds'
        # nonnegative corners and blocks may take the bracket.
        exact = spec.base is not None
        assert exact == bool(np.any(sample(spec, 0).entries < 0))

        if spec.kind != "separately_exchangeable":  # only zero-diagonal samples
            thresholds = np.quantile(ref["t"], [0.2, 0.5, 0.8])
            for ev, right in ((None, ref["t"]), (event, ev_stat)):
                stats.clear()
                curve = norm_tail_curve(spec, c=1.0, trials=trials,
                                        thresholds=thresholds, event=ev)
                assert stats[0].tobytes() == np.full(trials, m_norm).tobytes()
                _assert_corner_norms(stats[1], right, _floors(_constants(1.0) * thresholds),
                                     exact)
                p_right, ci_right = real_tail_probs(right, thresholds)
                assert curve.p_right.tobytes() == p_right.tobytes()
                assert curve.ci_right.tobytes() == ci_right.tobytes()

        stats.clear()
        curve = block_bound_curve(spec, trials=trials,
                                  thresholds=4.0 * np.quantile(ref["block"], [0.2, 0.5, 0.8]))
        _assert_corner_norms(stats[1], ref["block"],
                             _floors(_constants(0.25) * curve.thresholds), exact)
        p_right, ci_right = real_tail_probs(ref["block"], curve.thresholds / 4.0)
        assert curve.p_right.tobytes() == p_right.tobytes()
        assert curve.ci_right.tobytes() == ci_right.tobytes()

        # Its per-trial events are those of the norm comparison's right column.
        res = corner_degree_event_frequency(spec, event, trials=trials)
        hits = int(np.count_nonzero(ref["ev"]))
        assert (res["p_E"], res["ci"]) == (hits / trials, wilson_halfwidth(hits, trials))
        assert res["hypothesis_fraction"] == float(np.mean(ref["hyp"]))

        stats.clear()
        L_grid = np.quantile(ref["s2T"], [0.2, 0.5, 0.8]) / delta
        curve = s2_tail_curve(spec, event, L_grid, trials=trials, c=1.0)
        s2A = ref["s2A"] if spec.base is None else np.full(trials, _one(spec.base.entries, 1))
        right = np.where(ref["member"], ref["s2T"], -np.inf)
        assert stats[0].tobytes() == s2A.tobytes()
        assert stats[1].tobytes() == right.tobytes()
        p_left, ci_left = real_tail_probs(s2A, curve.thresholds)
        p_right, ci_right = real_tail_probs(right, curve.thresholds)
        assert curve.p_left.tobytes() == p_left.tobytes()
        assert curve.ci_left.tobytes() == ci_left.tobytes()
        assert curve.p_right.tobytes() == p_right.tobytes()
        assert curve.ci_right.tobytes() == ci_right.tobytes()
        assert curve.meta["member_fraction"] == float(np.mean(ref["member"]))

    M = _engine_specs(n)[0][0].base
    res = corner_capture_fraction(M, trials=trials, seed=seed)
    ref_t = []
    for i in range(trials):
        s = stream(seed, i).permutation(n)
        ref_t.append(_one(M.entries[np.ix_(s, s)][: n // 2, n - n // 2:], 0))
    ref_t = np.array(ref_t)
    assert res["corner_norms"].tobytes() == ref_t.tobytes()
    at = [list(C_GRID).index(c) for c in (0.3, 0.5, 0.7)]
    p_hat, ci = real_tail_probs(ref_t, C_GRID[at] * spectral_norm(M))
    assert res["p_hat"][at].tobytes() == p_hat.tobytes()
    assert res["ci"][at].tobytes() == ci.tobytes()


# --- ||M|| = d for the doubly regular kinds ---------------------------------

@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["perm_sum_regular", "regular_digraph"]), st.integers(2, 24),
       st.integers(1, 12), st.booleans(), st.integers(0, 10**6), st.integers(0, 50))
def test_regular_sample_norm_is_d(kind, n, d, zero_diagonal, seed, index):
    # Schur test: ||M|| <= sqrt(||M||_1 ||M||_inf) = d, and M1 = d1.
    # regular_digraph places edge-disjoint derangements by rejection; keep d
    # small enough that its rejection cap is never reached.
    d = min(d, max(1, n // 2 if kind == "perm_sum_regular" else min(n // 4, 4)))
    spec = EnsembleSpec(kind=kind, n=n, d=d, zero_diagonal=zero_diagonal, seed=seed)
    assert abs(spectral_norm(sample(spec, index)) - d) <= 1e-12 * d


@pytest.mark.parametrize("kind", ["perm_sum_regular", "regular_digraph"])
def test_regular_kinds_have_one_threshold_d(kind):
    spec = EnsembleSpec(kind=kind, n=16, d=3, zero_diagonal=True, seed=98)
    for curve in (norm_tail_curve(spec, c=0.1, trials=40),
                  block_bound_curve(spec, trials=40)):
        assert curve.thresholds.tolist() == [3.0]
        assert curve.p_left.tolist() == [1.0]


# --- sparse blocks and the Lanczos kernel in the engine ----------------------

def test_per_sample_s2_at_n_1200_takes_no_dense_svd(monkeypatch):
    # The Gram kernel's accuracy floor passes s2^2 of a 4-regular sample above
    # n ~ 1150, so it sent every such sample to the dense SVD.
    spec = EnsembleSpec(kind="perm_sum_regular", n=1200, d=4, zero_diagonal=True, seed=300)
    want = np.linalg.svd(sample(spec, 0).entries, compute_uv=False)[1]
    real_svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
    (s2,) = _run_trials(spec, 1, [], lambda s2A: (s2A,), whole=lambda A: singular_value(A, 1))
    assert calls == []
    assert abs(s2[0] - want) <= RTOL * want


def _estimates(spec, trials):
    """Every per-trial column the five estimators compare, and their curves."""
    n = spec.n
    event = RegularityParams(d=4.0, delta=1.0)
    out = {}
    for name, finish, blocks in (
        ("corner", lambda T: (singular_value(T, 0), singular_value(T, 1),
                              corner_degree_events(T, event)), [_corner(n)]),
        ("block", lambda B: (singular_value(B, 0), singular_value(B, 1)),
         [(slice(0, n // 2), slice(n // 2, n))]),
    ):
        out[name] = _run_trials(spec, trials, blocks, finish)
    out["whole"] = _run_trials(spec, trials, [], lambda s2A: (s2A,),
                               whole=lambda A: singular_value(A, 1))
    curve = s2_tail_curve(spec, event, [2.0, 3.0, 3.4], trials=trials, c=0.5)
    out["s2"] = (curve.p_left, curve.p_right, curve.meta["member_fraction"])
    res = corner_degree_event_frequency(spec, event, trials=trials)
    out["degree-event"] = (res["p_E"], res["hypothesis_fraction"])
    return out


@pytest.mark.parametrize("kind", ["permuted_base", "separately_exchangeable",
                                  "perm_sum_regular", "regular_digraph"])
def test_sparse_blocks_give_the_dense_statistics(monkeypatch, kind):
    from exspec import spectra, tails

    n, trials = 41, 7  # odd: the M12 block is 20 x 21
    if kind in ("permuted_base", "separately_exchangeable"):
        base = sample(EnsembleSpec(kind="regular_digraph", n=n, d=4, seed=301), 0)
        spec = EnsembleSpec(kind=kind, n=n, seed=302, base=base)
    else:
        spec = EnsembleSpec(kind=kind, n=n, d=4, zero_diagonal=True, seed=303)
    runs = []
    for pays in (False, True):
        # The kernel choice in spectra, and the gather choice in tails.
        monkeypatch.setattr(spectra, "lanczos_pays", lambda dim, per_row: pays)
        monkeypatch.setattr(tails, "lanczos_pays", lambda dim, per_row: pays)
        monkeypatch.setattr(tails, "CHUNK_FLOATS", 3 * n * n)  # several chunks
        runs.append(_estimates(spec, trials))
    dense, sparse = runs
    for name in ("corner", "block", "whole"):
        for got, want in zip(sparse[name], dense[name]):
            if want.dtype == bool:
                assert np.array_equal(got, want), name
            else:
                assert np.all(np.abs(got - want) <= RTOL * want), name
    for name in ("s2", "degree-event"):
        for got, want in zip(sparse[name], dense[name]):
            assert np.array_equal(got, want), name


def test_relabeled_entries_are_the_gathered_blocks():
    from exspec.ensembles import relabeled_entries

    rng = stream(304)
    n = 11
    E = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
    base = SquareMatrix(E)
    for kind in ("permuted_base", "separately_exchangeable"):
        spec = EnsembleSpec(kind=kind, n=n, seed=305, base=base)
        rows, cols = relabelings(spec, range(6))
        for r, c in ((slice(0, 5), slice(6, 11)), (slice(0, 5), slice(5, 11)),
                     (slice(None), slice(None)), (slice(3, 3), slice(0, 4))):
            got = relabeled_entries(base.nonzeros, rows, cols).block(r, c).dense()
            want = np.array([sample(spec, i).entries[r, c] for i in range(6)])
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("kind,d,zero_diagonal", [("perm_sum_regular", 3, False),
                                                  ("perm_sum_regular", 5, True),
                                                  ("regular_digraph", 3, True)])
def test_table_l2_maxima_are_those_of_the_dense_samples(kind, d, zero_diagonal):
    from exspec.core import max_l2
    from exspec.ensembles import table_entries

    for n in (2 if kind == "perm_sum_regular" and not zero_diagonal else 6, 9, 30):
        d_n = min(d, n - 1) if kind == "perm_sum_regular" else min(d, n // 3)
        spec = EnsembleSpec(kind=kind, n=n, d=d_n, zero_diagonal=zero_diagonal, seed=306 + n)
        tables = sample_tables(spec, range(40))
        want = max_l2_reference(np.array([sample(spec, i).entries for i in range(40)]))
        assert max_l2(table_entries(tables)).tobytes() == want.tobytes()
    # Repeated entries (A[i, c] = 2 or more) occur without the zero diagonal.
    if not zero_diagonal:
        assert np.any(want > np.sqrt(d_n))


# --- which corners reach the kernel, and how ---------------------------------

def test_the_bracket_decides_the_corners_of_the_readme_command(monkeypatch):
    # The README example at 500 trials: every corner in the event reaches
    # the kernel, none outside it, and at most 5% of those go on from the
    # Perron bracket to the exact Gram kernel, so the speedup stays.
    from exspec import spectra

    decided = []
    real = spectra._perron_bracket

    def spy(E, floors):
        lo, certain = real(E, floors)
        decided.append(certain)
        return lo, certain

    monkeypatch.setattr(spectra, "_perron_bracket", spy)
    spec = EnsembleSpec("perm_sum_regular", 64, d=4, zero_diagonal=True, seed=1)
    curve = norm_tail_curve(spec, c=0.01, trials=500, event=RegularityParams(d=4.0, delta=2.0))
    decided = np.concatenate(decided)
    assert decided.size == round(curve.meta["event_fraction"] * 500) > 0
    assert np.count_nonzero(~decided) <= 0.05 * decided.size


def test_corners_outside_the_event_never_reach_the_kernel(monkeypatch):
    # README's comparison with no evidence: no corner meets the event, so
    # the only singular values taken are the whole samples' s2.
    from exspec import tails

    shapes = []
    real = tails.singular_value
    monkeypatch.setattr(tails, "singular_value",
                        lambda stack, *args: shapes.append(stack.shape) or real(stack, *args))
    spec = EnsembleSpec("perm_sum_regular", 256, d=8, zero_diagonal=True, seed=5)
    curve = s2_tail_curve(spec, RegularityParams(d=8.0, delta=1.0), [2, 4], trials=4)
    assert curve.meta["member_fraction"] == 0.0
    assert shapes and all(shape[1:] == (256, 256) for shape in shapes)

"""Monte Carlo harness for the norm-vs-corner tail comparisons.

The universal constants in the comparisons are never given numerically, so
the harness treats them as outputs: each curve is estimated on a grid and
the strongest constant consistent with the data is reported. Assertion-style
use (CI suites) should pass a conservative fixed c such as 0.01.

All estimators are pure in (seed, trials): trial i derives its generator
from (seed, i) alone, results are merged in index order, and output is
identical at any worker count.

Ensembles that relabel a fixed base B (``spec.base is not None``) are never
formed per trial. Relabelings preserve singular values and the multisets of
row and column norms, so ||M||, s2(M) and the row/column l2 maxima are
computed on B once per call; each trial gathers only the entries it reads
from B through the drawn row and column permutations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CornerMatrix, SquareMatrix
from .degrees import DegreeProfile, RegularityParams, corner_degree_event, deg_membership
from .ensembles import EnsembleSpec, relabeling, sample
from .rng import parallel_map, stream
from .spectra import second_singular, spectral_norm

__all__ = [
    "TailCurve",
    "ConstantEstimate",
    "wilson_halfwidth",
    "ks_two_sample",
    "corner_capture_fraction",
    "norm_tail_curve",
    "block_bound_curve",
    "corner_degree_event_frequency",
    "s2_tail_curve",
]


def wilson_halfwidth(successes: int, trials: int, z: float = 1.959964) -> float:
    """Half-width of the 95% Wilson interval; stable near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def ks_two_sample(x, y, alpha: float = 0.01) -> dict:
    """Two-sample Kolmogorov-Smirnov statistic against the asymptotic
    critical value at level alpha."""
    from scipy.stats import ks_2samp

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    stat = float(ks_2samp(x, y).statistic)
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    critical = c_alpha * math.sqrt((x.size + y.size) / (x.size * y.size))
    return {"statistic": stat, "critical": critical, "below": bool(stat < critical)}


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    value: float
    method: str
    trials: int


@dataclass(frozen=True)
class TailCurve:
    thresholds: np.ndarray
    p_left: np.ndarray
    p_right: np.ndarray
    ci_left: np.ndarray
    ci_right: np.ndarray
    trials: int
    seed: int
    c: float
    holds: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    meta: dict = field(default_factory=dict)

    def all_hold(self) -> bool:
        return bool(np.all(self.holds))

    def to_dict(self) -> dict:
        return {
            "thresholds": self.thresholds.tolist(),
            "p_left": self.p_left.tolist(),
            "p_right": self.p_right.tolist(),
            "ci_left": self.ci_left.tolist(),
            "ci_right": self.ci_right.tolist(),
            "trials": self.trials,
            "seed": self.seed,
            "c": self.c,
            "holds": [bool(h) for h in self.holds],
            "meta": self.meta,
        }

    def to_csv(self) -> str:
        lines = ["tau,p_left,ci_left,p_right,ci_right"]
        for i in range(self.thresholds.size):
            lines.append(
                ",".join(
                    repr(float(v))
                    for v in (
                        self.thresholds[i],
                        self.p_left[i],
                        self.ci_left[i],
                        self.p_right[i],
                        self.ci_right[i],
                    )
                )
            )
        return "\n".join(lines) + "\n"


def _corner_of_relabeled(entries: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Top-right corner of entries[np.ix_(rows, cols)] without forming it."""
    n = entries.shape[0]
    m = n // 2
    return entries[np.ix_(rows[:m], cols[n - m:])]


def _draw(spec: EnsembleSpec, i: int):
    """Sample i as (entries, rows, cols): it equals entries[np.ix_(rows, cols)].

    For a relabeled base, entries is the base itself and nothing is copied.
    """
    if spec.base is not None:
        return (spec.base.entries, *relabeling(spec, i))
    idx = np.arange(spec.n)
    return sample(spec, i).entries, idx, idx


def _whole(spec: EnsembleSpec, stat):
    """fn(entries) -> stat of the sample that _draw returned entries for.

    ``stat`` must be invariant under row and column permutations; for a
    relabeled base it is then evaluated on the base once.
    """
    if spec.base is None:
        return stat
    value = stat(spec.base.entries)
    return lambda entries: value


def _max_l2(entries: np.ndarray) -> float:
    """Largest row or column l2 norm."""
    return max(float(np.max(np.linalg.norm(entries, axis=1))),
               float(np.max(np.linalg.norm(entries, axis=0))))


def _tail_probs(stat: np.ndarray, thresholds: np.ndarray):
    trials = stat.size
    p = np.empty(thresholds.size)
    ci = np.empty(thresholds.size)
    for i, tau in enumerate(thresholds):
        hits = int(np.count_nonzero(stat >= tau))
        p[i] = hits / trials
        ci[i] = wilson_halfwidth(hits, trials)
    return p, ci


def _decile_thresholds(stat: np.ndarray) -> np.ndarray:
    qs = np.quantile(stat, np.linspace(0.1, 0.9, 9))
    return np.unique(qs)


def corner_capture_fraction(M: SquareMatrix, trials: int, seed: int = 0, c_grid=None) -> dict:
    """P_sigma{ ||T(sigma)|| >= c ||M|| } over a grid of c for one fixed M.

    Requires n >= 8 and zero diagonal (the hypotheses of the corner-capture
    statement). best_c is the largest grid value whose estimated probability
    still clears c itself, up to CI slack.
    """
    if M.n < 8:
        raise ValueError("the corner-capture statement assumes n >= 8")
    if np.any(np.diag(M.entries) != 0.0):
        raise ValueError("the corner-capture statement assumes zero diagonal")
    if c_grid is None:
        c_grid = np.round(np.arange(0.01, 1.001, 0.01), 2)
    c_grid = np.asarray(c_grid, dtype=np.float64)
    m_norm = spectral_norm(M)

    def one(i: int) -> float:
        s = stream(seed, i).permutation(M.n)
        return spectral_norm(_corner_of_relabeled(M.entries, s, s))

    t_norms = np.array(parallel_map(one, trials))
    p_hat = np.empty(c_grid.size)
    ci = np.empty(c_grid.size)
    for i, c in enumerate(c_grid):
        hits = int(np.count_nonzero(t_norms >= c * m_norm))
        p_hat[i] = hits / trials
        ci[i] = wilson_halfwidth(hits, trials)
    ok = p_hat >= c_grid - ci
    best_c = float(c_grid[ok][-1]) if np.any(ok) else 0.0
    return {
        "c_grid": c_grid,
        "p_hat": p_hat,
        "ci": ci,
        "best_c": best_c,
        "m_norm": m_norm,
        "corner_norms": t_norms,
    }


def norm_tail_curve(
    spec: EnsembleSpec,
    c: float,
    trials: int,
    seed: int = 0,
    thresholds=None,
    event: RegularityParams | None = None,
    c_grid=None,
) -> TailCurve:
    """Tail comparison P{||M|| >= tau} vs (1/c) P{||T|| >= c tau AND event}.

    T is the corner of sigma(M) for an independent uniform sigma. The event
    is either trivial (None) or the near-constant-corner-degree event with
    the given (d, delta). Requires a zero-diagonal ensemble with n >= 8.
    """
    if spec.n < 8:
        raise ValueError("the tail comparison assumes n >= 8")
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")
    n = spec.n
    norm_of = _whole(spec, spectral_norm)

    def one(i: int):
        entries, rows, cols = _draw(spec, i)
        # The sample's diagonal; a separate relabeling moves entries onto it.
        if np.any(entries[rows, cols] != 0.0):
            raise ValueError("the tail comparison assumes zero-diagonal samples")
        s = stream(seed, i).permutation(n)
        T = _corner_of_relabeled(entries, rows[s], cols[s])
        ev = True
        if event is not None:
            ev = corner_degree_event(CornerMatrix(T, parent_n=n), event, n)
        return norm_of(entries), spectral_norm(T), ev

    rows = parallel_map(one, trials)
    m_norms = np.array([r[0] for r in rows])
    t_norms = np.array([r[1] for r in rows])
    events = np.array([r[2] for r in rows], dtype=bool)

    if thresholds is None:
        thresholds = _decile_thresholds(m_norms)
    thresholds = np.asarray(thresholds, dtype=np.float64)

    p_left, ci_left = _tail_probs(m_norms, thresholds)
    right_stat = np.where(events, t_norms, -np.inf)

    def right_at(cc: float):
        return _tail_probs(right_stat, cc * thresholds)

    p_right, ci_right = right_at(c)
    holds = p_left <= p_right / c + ci_left + ci_right / c

    if c_grid is None:
        c_grid = np.round(np.arange(0.01, 1.001, 0.01), 2)
    best_c = 0.0
    for cc in np.asarray(c_grid, dtype=np.float64):
        pr, cir = right_at(cc)
        if np.all(p_left <= pr / cc + ci_left + cir / cc):
            best_c = max(best_c, float(cc))

    return TailCurve(
        thresholds=thresholds, p_left=p_left, p_right=p_right,
        ci_left=ci_left, ci_right=ci_right, trials=trials, seed=seed, c=c,
        holds=holds,
        meta={
            "comparison": "norm_vs_corner",
            "event": "trivial" if event is None else
                     {"kind": "corner_degrees", "d": event.d, "delta": event.delta},
            "best_c": best_c,
        },
    )


def block_bound_curve(
    spec: EnsembleSpec, trials: int, seed: int = 0, thresholds=None
) -> TailCurve:
    """Separately exchangeable control: P{||M|| >= t} <= 4 P{||M12|| >= t/4}.

    M12 is the block of core.block_decompose: floor(n/2) x ceil(n/2).
    """
    if spec.n < 2:
        raise ValueError("block decomposition requires n >= 2")
    m = spec.n // 2
    norm_of = _whole(spec, spectral_norm)

    def one(i: int):
        entries, rows, cols = _draw(spec, i)
        return norm_of(entries), spectral_norm(entries[np.ix_(rows[:m], cols[m:])])

    rows = parallel_map(one, trials)
    m_norms = np.array([r[0] for r in rows])
    b_norms = np.array([r[1] for r in rows])
    if thresholds is None:
        thresholds = _decile_thresholds(m_norms)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    p_left, ci_left = _tail_probs(m_norms, thresholds)
    p_right, ci_right = _tail_probs(b_norms, thresholds / 4.0)
    holds = p_left <= 4.0 * p_right + ci_left + 4.0 * ci_right
    return TailCurve(
        thresholds=thresholds, p_left=p_left, p_right=p_right,
        ci_left=ci_left, ci_right=ci_right, trials=trials, seed=seed, c=0.25,
        holds=holds, meta={"comparison": "four_block_triangle"},
    )


def corner_degree_event_frequency(
    spec: EnsembleSpec,
    params: RegularityParams,
    trials: int,
    seed: int = 0,
    hyp_C: float = 1.0,
) -> dict:
    """Frequency of the near-constant-corner-degree event over (A, sigma).

    Also reports the fraction of samples meeting the row/column l2
    hypothesis C * max_i ||row_i||_2, C * max_i ||col_i||_2 <= delta at the
    configured C.
    """
    n = spec.n
    l2_of = _whole(spec, _max_l2)

    def one(i: int):
        entries, rows, cols = _draw(spec, i)
        s = stream(seed, i).permutation(n)
        T = CornerMatrix(_corner_of_relabeled(entries, rows[s], cols[s]), parent_n=n)
        ev = corner_degree_event(T, params, n)
        hyp = hyp_C * l2_of(entries) <= params.delta
        return ev, hyp

    rows = parallel_map(one, trials)
    hits = sum(1 for r in rows if r[0])
    hyp_frac = sum(1 for r in rows if r[1]) / trials
    return {
        "p_E": hits / trials,
        "ci": wilson_halfwidth(hits, trials),
        "hypothesis_fraction": hyp_frac,
        "trials": trials,
        "seed": seed,
    }


def s2_tail_curve(
    spec: EnsembleSpec,
    params: RegularityParams,
    L_grid,
    trials: int,
    seed: int = 0,
    c: float = 0.01,
    c_grid=None,
    hyp_C: float = 1.0,
) -> TailCurve:
    """Second-singular-value comparison for doubly regular ensembles:

        P{s2(A) >= L delta}
          <= (1/c) P{s2(T) >= c L delta AND (u(T), v(T)) near-regular at d/2}

    over the given grid of L. The corner T is taken from A directly; the
    ensemble is responsible for exchangeability. The sparsity hypothesis
    d/sqrt(ln n) >= C delta is evaluated and reported, not enforced.
    """
    n = spec.n
    half = RegularityParams(d=params.d / 2.0, delta=params.delta)
    s2_of = _whole(spec, second_singular)

    def one(i: int):
        entries, rows, cols = _draw(spec, i)
        T = _corner_of_relabeled(entries, rows, cols)
        prof = DegreeProfile(np.abs(T).sum(axis=0), np.abs(T).sum(axis=1))
        member = deg_membership(prof, half)["member"]
        return s2_of(entries), second_singular(T), member

    rows = parallel_map(one, trials)
    s2A = np.array([r[0] for r in rows])
    s2T = np.array([r[1] for r in rows])
    members = np.array([r[2] for r in rows], dtype=bool)

    thresholds = np.asarray(L_grid, dtype=np.float64) * params.delta
    p_left, ci_left = _tail_probs(s2A, thresholds)
    right_stat = np.where(members, s2T, -np.inf)

    def right_at(cc: float):
        return _tail_probs(right_stat, cc * thresholds)

    p_right, ci_right = right_at(c)
    holds = p_left <= p_right / c + ci_left + ci_right / c

    if c_grid is None:
        c_grid = np.round(np.arange(0.01, 1.001, 0.01), 2)
    best_c = 0.0
    for cc in np.asarray(c_grid, dtype=np.float64):
        pr, cir = right_at(cc)
        if np.all(p_left <= pr / cc + ci_left + cir / cc):
            best_c = max(best_c, float(cc))

    return TailCurve(
        thresholds=thresholds, p_left=p_left, p_right=p_right,
        ci_left=ci_left, ci_right=ci_right, trials=trials, seed=seed, c=c,
        holds=holds,
        meta={
            "comparison": "second_singular_vs_corner",
            "d": params.d,
            "delta": params.delta,
            "L_grid": np.asarray(L_grid, dtype=np.float64).tolist(),
            "best_c": best_c,
            "ratio_hypothesis_ok": params.ratio_hypothesis_ok(n, hyp_C),
            "member_fraction": float(np.mean(members)),
        },
    )

"""Monte Carlo harness for the norm-vs-corner tail comparisons.

The universal constants in the comparisons are never given numerically, so
the harness treats them as outputs: each curve is estimated on one grid of
constants, C_GRID (0.01 to 1.00 in steps of 0.01), and the strongest
constant consistent with the data is reported as best_c. Assertion-style
use (CI suites) should pass a conservative fixed c such as 0.01.

Trial i of an estimator is sample i of its ensemble, so every estimator is
pure in (spec.seed, trials). Every kind is jointly exchangeable in law, so
each comparison reads the corner (or block) of the sample itself: relabeling
it by a further uniform permutation would not change the law.
corner_capture_fraction relabels its one matrix M through the permuted_base
ensemble of M. What a kind's samples are like (zero diagonal, entries per
row, ||M||, relabelings) is asked of ``ensembles``, and no kind is named
here.

The five estimators share one chunked engine, ``_run_trials``. A chunk of
consecutive trials is drawn as a whole, as one ``core.SparseStack`` of its
whole n x n samples: the pairs (i, Q[j, i]) of the (d, n) permutation
tables of a doubly regular kind (``ensembles.table_entries``), or the
nonzero entries of a fixed base B (``spec.base is not None``, found once
per base) at their relabeled positions (``ensembles.relabeled_entries``).
Each block a comparison reads (the m x m corner or the M12 block) is a
range of rows by a range of columns, cut from that stack with
``SparseStack.block`` and handed as cut to one batched
``spectra.singular_value`` call per chunk, which picks its kernel itself,
and to one row-wise degree test. A block of a base that the Gram kernel
takes is gathered from B through the drawn permutations instead, which
beats the scatter on a dense B. A chunk holds at most CHUNK_FLOATS floats
of kernel working set and table entries, and at least one trial; chunks
run in index order.

The one statistic of the whole sample a comparison reads (s2(M), or the
row and column l2 maxima) is ``whole``, a function of a SparseStack of
whole samples: taken on each chunk's stack for a table kind, and once on
B for a relabeled base, since a relabeling keeps it. ||M|| is
``EnsembleSpec.norm``.

Each comparison sorts each of its two per-trial columns once and counts
the exceedances of every threshold and every grid constant at once. A
statistic within RTOL |tau| below a threshold tau reaches it, so a count
does not depend on the last bits of the kernel.
"""

from dataclasses import dataclass

import numpy as np

from .core import SparseStack, SquareMatrix, csv_text, json_ready, max_l2
from .degrees import HYPOTHESIS_C, RegularityParams, corner_degree_events
from .ensembles import EnsembleSpec, relabeled_entries, relabeling, sample, table_entries
from .spectra import RTOL, kernel_floats, lanczos_pays, singular_value

__all__ = [
    "TailCurve",
    "C_GRID",
    "wilson_halfwidth",
    "corner_capture_fraction",
    "norm_tail_curve",
    "block_bound_curve",
    "corner_degree_event_frequency",
    "s2_tail_curve",
]


def wilson_halfwidth(hits, trials: int):
    """Half-width of the 95% Wilson interval for ``hits`` successes in
    ``trials``, of one count or of an array of counts; stable near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = 1.959964
    p = hits / trials
    denom = 1.0 + z * z / trials
    return (z / denom) * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


def _check_c(c: float) -> None:
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")


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
    holds: np.ndarray
    meta: dict

    def all_hold(self) -> bool:
        return bool(np.all(self.holds))

    def to_dict(self) -> dict:
        return json_ready(vars(self))

    def to_csv(self) -> str:
        return csv_text(zip(self.thresholds, self.p_left, self.ci_left, self.p_right,
                            self.ci_right), ("tau", "p_left", "ci_left", "p_right", "ci_right"))


# Stacked floats per chunk of trials (1 MiB, like subset.TABLE_ENTRIES): the
# working set of the singular-value kernel on each block
# (``spectra.kernel_floats``), plus, for a table kind, the chunk's entry
# stack (four words per entry), or, for a whole-sample statistic, the larger
# of that stack and the kernel's working set on a whole sample.
CHUNK_FLOATS = 2**17


def _corner(n: int):
    """Rows and columns of the top-right m x m corner, m = n // 2."""
    m = n // 2
    return slice(0, m), slice(n - m, n)


def _shape(n: int, block) -> tuple:
    """Rows and columns of a (row slice, column slice) block of an n x n matrix."""
    return len(range(n)[block[0]]), len(range(n)[block[1]])


def _per_row(spec: EnsembleSpec, block) -> float:
    """The entries a block row holds on average: a sample row's
    (``spec.row_nonzeros``) times the block's share of the columns."""
    return spec.row_nonzeros * _shape(spec.n, block)[1] / spec.n


def _gathered(spec: EnsembleSpec, block) -> bool:
    """Whether a block of a base is gathered from it: where the Gram kernel
    takes the block, the gather beats cutting and scattering it."""
    return not lanczos_pays(min(_shape(spec.n, block)), _per_row(spec, block))


def _base_entries(spec: EnsembleSpec) -> SparseStack:
    """The base as a one-matrix SparseStack of its nonzero entries."""
    i, j, value = spec.base.nonzeros
    return SparseStack((1, spec.n, spec.n), np.zeros_like(i), i, j, value)


def _run_trials(spec: EnsembleSpec, trials: int, blocks, finish, whole=None) -> list:
    """Per-trial columns of a Monte Carlo estimator, computed chunk by chunk.

    Trial i is sample i of ``spec``. Each (row slice, column slice) in
    ``blocks`` gives the stack of that block of the chunk's samples: a
    SparseStack, or a dense array gathered from a base. ``whole``, if
    given, maps a SparseStack of whole samples to one value per sample, and
    a relabeling must keep it: a base's value is every sample's.
    ``finish(*stacks[, values])`` turns them into a tuple of per-trial
    arrays, which are concatenated in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    floats = sum(kernel_floats(*_shape(spec.n, b), _per_row(spec, b)) for b in blocks)
    if whole is not None and spec.base is not None:
        base_value = whole(_base_entries(spec))

        def whole(indices):  # a relabeling keeps the base's value
            return np.repeat(base_value, len(indices))
    elif spec.base is None:  # every chunk of a table kind builds its entry stack
        floats += max(round(4 * spec.n * spec.row_nonzeros),
                      0 if whole is None else kernel_floats(spec.n, spec.n, spec.row_nonzeros))
    size = max(1, CHUNK_FLOATS // max(1, floats))

    # The stacks come from a call of their own, so the whole samples they are
    # cut from are freed before finish runs.
    parts = [finish(*_chunk_stacks(spec, range(lo, min(trials, lo + size)), blocks, whole))
             for lo in range(0, trials, size)]
    return [np.concatenate(column) for column in zip(*parts)]


def _chunk_stacks(spec: EnsembleSpec, indices: range, blocks, whole) -> list:
    """The stack of each block of the samples ``indices``, cut from their
    whole samples, then the values of ``whole`` if given; a block of a base
    that the Gram kernel takes is gathered from the base instead."""
    if spec.base is None:
        samples = table_entries(np.array([sample(spec, i, table=True) for i in indices]))
        values = [] if whole is None else [whole(samples)]  # before any block is cut
        return [samples.block(*b) for b in blocks] + values
    # Sample t is base[np.ix_(rows[t], cols[t])].
    rows, cols = map(np.array, zip(*[relabeling(spec, i) for i in indices]))
    gathered = [_gathered(spec, b) for b in blocks]
    samples = None if all(gathered) else relabeled_entries(spec.base.nonzeros, rows, cols)
    stacks = [spec.base.entries[rows[:, b[0], None], cols[:, None, b[1]]] if g else
              samples.block(*b) for b, g in zip(blocks, gathered)]
    return stacks if whole is None else stacks + [whole(indices)]


def _norms(spec: EnsembleSpec, trials: int, thresholds):
    """||M|| of each trial, and the thresholds, by default ||M|| itself: it is
    one value for every sample (``EnsembleSpec.norm``), and so every decile."""
    m_norm = spec.norm
    thresholds = [m_norm] if thresholds is None else thresholds
    return np.full(trials, m_norm), np.asarray(thresholds, dtype=np.float64)


# The constants every best_c is read from; read-only, as callers get it back.
C_GRID = np.round(np.arange(0.01, 1.001, 0.01), 2)
C_GRID.setflags(write=False)


def _tail_probs(stat: np.ndarray, thresholds: np.ndarray):
    """P{stat >= tau} and its Wilson half-width, for thresholds of any shape.

    A statistic within RTOL |tau| below tau counts as reaching tau, so that a
    tie (an integer corner at an integer threshold) does not hang on the last
    bits of a singular value."""
    trials = stat.size
    floors = thresholds - RTOL * np.abs(thresholds)
    hits = trials - np.searchsorted(np.sort(stat), floors, side="left")
    return hits / trials, wilson_halfwidth(hits, trials)


def _compare(left: np.ndarray, right: np.ndarray, thresholds: np.ndarray, c: float):
    """P{left >= tau} against (1/c) P{right >= c tau} at every threshold tau.

    Returns the TailCurve columns p_left, ci_left, p_right, ci_right and
    holds, and best_c: the largest constant of C_GRID at which the
    comparison holds at every threshold.
    """
    p_left, ci_left = _tail_probs(left, thresholds)
    # Row 0 compares at c, row k at the k-th grid constant.
    cs = np.concatenate([[c], C_GRID])[:, None]
    p_right, ci_right = _tail_probs(right, cs * thresholds)
    holds = p_left <= p_right / cs + ci_left + ci_right / cs
    best_c = max([0.0] + cs[1:, 0][holds[1:].all(axis=1)].tolist())
    columns = {"p_left": p_left, "ci_left": ci_left, "p_right": p_right[0],
               "ci_right": ci_right[0], "holds": holds[0]}
    return columns, best_c


def corner_capture_fraction(M: SquareMatrix, trials: int, seed: int = 0) -> dict:
    """P_sigma{ ||T(sigma)|| >= c ||M|| } at every c of C_GRID for one fixed M.

    Requires n >= 8 and zero diagonal (the hypotheses of the corner-capture
    statement). best_c is the largest grid value whose estimated probability
    still clears c itself, up to CI slack.
    """
    if M.n < 8:
        raise ValueError("the corner-capture statement assumes n >= 8")
    spec = EnsembleSpec.permuted(M, seed)
    if not spec.zero_diagonal_samples:
        raise ValueError("the corner-capture statement assumes zero diagonal")
    m_norm = spec.norm
    (t_norms,) = _run_trials(spec, trials, [_corner(M.n)], lambda T: (singular_value(T, 0),))
    p_hat, ci = _tail_probs(t_norms, C_GRID * m_norm)
    ok = p_hat >= C_GRID - ci
    best_c = float(C_GRID[ok][-1]) if np.any(ok) else 0.0
    return {
        "c_grid": C_GRID,
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
    thresholds=None,
    event: RegularityParams | None = None,
) -> TailCurve:
    """Tail comparison P{||M|| >= tau} vs (1/c) P{||T|| >= c tau AND event}.

    T is the corner of M itself. The event is either trivial (None) or the
    corner-degree event with the given (d, delta). Requires an ensemble
    whose samples all have zero diagonal, and n >= 8.
    """
    if spec.n < 8:
        raise ValueError("the tail comparison assumes n >= 8")
    _check_c(c)
    if not spec.zero_diagonal_samples:
        raise ValueError("the tail comparison assumes zero-diagonal samples")
    n = spec.n

    def finish(T):
        met = np.ones(len(T), dtype=bool) if event is None else corner_degree_events(T, event)
        return singular_value(T, 0), met

    t_norms, events = _run_trials(spec, trials, [_corner(n)], finish)
    m_norms, thresholds = _norms(spec, trials, thresholds)
    columns, best_c = _compare(m_norms, np.where(events, t_norms, -np.inf), thresholds, c)
    return TailCurve(
        thresholds=thresholds, **columns, trials=trials, seed=spec.seed, c=c,
        meta={
            "comparison": "norm_vs_corner",
            "event": "trivial" if event is None else
                     {"kind": "corner_degrees", "d": event.d, "delta": event.delta},
            "best_c": best_c,
            "event_fraction": float(np.mean(events)),
        },
    )


def block_bound_curve(spec: EnsembleSpec, trials: int, thresholds=None) -> TailCurve:
    """Separately exchangeable control: P{||M|| >= t} <= 4 P{||M12|| >= t/4}.

    M12 is the block A[:m, m:] with m = floor(n/2): floor(n/2) x ceil(n/2).
    """
    if spec.n < 2:
        raise ValueError("block decomposition requires n >= 2")
    m = spec.n // 2
    (b_norms,) = _run_trials(spec, trials, [(slice(0, m), slice(m, spec.n))],
                             lambda B: (singular_value(B, 0),))
    m_norms, thresholds = _norms(spec, trials, thresholds)
    # The norm comparison at c = 1/4; the bound names its constant, so no best_c.
    columns, _ = _compare(m_norms, b_norms, thresholds, 0.25)
    return TailCurve(thresholds=thresholds, **columns, trials=trials, seed=spec.seed, c=0.25,
                     meta={"comparison": "four_block_triangle"})


def corner_degree_event_frequency(spec: EnsembleSpec, params: RegularityParams,
                                  trials: int) -> dict:
    """Frequency of the corner-degree event of the corner of A.

    Also reports the fraction of samples meeting the row/column l2
    hypothesis C * max_i ||row_i||_2, C * max_i ||col_i||_2 <= delta, with
    C = HYPOTHESIS_C.
    """
    def finish(T, l2s):
        return corner_degree_events(T, params), HYPOTHESIS_C * l2s <= params.delta

    events, hyp = _run_trials(spec, trials, [_corner(spec.n)], finish, whole=max_l2)
    hits = int(np.count_nonzero(events))
    return {
        "p_E": hits / trials,
        "ci": wilson_halfwidth(hits, trials),
        "hypothesis_fraction": int(np.count_nonzero(hyp)) / trials,
        "trials": trials,
        "seed": spec.seed,
    }


def s2_tail_curve(
    spec: EnsembleSpec,
    params: RegularityParams,
    L_grid,
    trials: int,
    c: float = 0.01,
) -> TailCurve:
    """Second-singular-value comparison for doubly regular ensembles:

        P{s2(A) >= L delta}
          <= (1/c) P{s2(T) >= c L delta AND the corner-degree event}

    over the given grid of L. The corner T is taken from A directly; the
    ensemble is responsible for exchangeability. The sparsity hypothesis
    d/sqrt(ln n) >= C delta is evaluated and reported, not enforced.
    """
    _check_c(c)
    with np.errstate(over="raise"):  # a threshold beyond float64 is a usage error
        thresholds = np.asarray(L_grid, dtype=np.float64) * params.delta
    n = spec.n

    def finish(T, s2A):
        return s2A, singular_value(T, 1), corner_degree_events(T, params)

    s2A, s2T, members = _run_trials(spec, trials, [_corner(n)], finish,
                                    whole=lambda A: singular_value(A, 1))
    columns, best_c = _compare(s2A, np.where(members, s2T, -np.inf), thresholds, c)
    return TailCurve(
        thresholds=thresholds, **columns, trials=trials, seed=spec.seed, c=c,
        meta={
            "comparison": "second_singular_vs_corner",
            "d": params.d,
            "delta": params.delta,
            "L_grid": np.asarray(L_grid, dtype=np.float64).tolist(),
            "best_c": best_c,
            "ratio_hypothesis_ok": params.ratio_hypothesis_ok(n),
            "member_fraction": float(np.mean(members)),
        },
    )

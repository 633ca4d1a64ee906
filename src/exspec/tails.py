"""Monte Carlo harness for the norm-vs-corner tail comparisons.

The universal constants in the comparisons are never given numerically, so
the harness treats them as outputs: each curve is estimated on a grid and
the strongest constant consistent with the data is reported. Assertion-style
use (CI suites) should pass a conservative fixed c such as 0.01.

Trial i of an estimator is sample i of its ensemble, so every estimator is
pure in (spec.seed, trials). Every kind is jointly exchangeable in law, so
each comparison reads the corner (or block) of the sample itself: relabeling
it by a further uniform permutation would not change the law.
corner_capture_fraction relabels its one matrix M through the permuted_base
ensemble of M.

The five estimators share one chunked engine, ``_run_trials``. A chunk of
consecutive trials is drawn as a whole: the relabelings of a fixed base B
(``spec.base is not None``), or the (d, n) permutation tables of a doubly
regular kind. Each block a comparison reads (the m x m corner, the M12
block, or the whole matrix) is a range of rows by a range of columns and
becomes one (chunk, rows, cols) stack, and each chunk gets one batched
singular-value kernel (``spectra.singular_value``) and one row-wise degree
test. Where ``spectra.lanczos_pays`` for the block's size and nonzeros per
row, the stack is a ``core.SparseStack`` and goes to the matrix-free
Lanczos kernel: relabeled B's nonzero entries (found once per base), or the
tables' pairs (i, Q[j, i]) that land in the block (``ensembles.
relabeled_entries`` and ``table_entries``). Otherwise it is dense, for the
Gram kernel: gathered from B through the drawn row and column
permutations, or scattered from the tables with one bincount per stack
(the ``dense()`` of ``table_entries``). So no trial forms an n x n array
unless its whole matrix is small enough for the Gram kernel, or the Lanczos
kernel runs out of steps on it (``spectra.lanczos_steps``); the row and column l2
norms of a table come from the table itself. A chunk holds at most
CHUNK_FLOATS stacked floats (a sparse block counts as the largest Lanczos
basis the kernel keeps for it; a member out of steps adds its dense block)
and at least one trial; chunks run one after another, in index order.

||M|| is the same for every sample and is computed once per call: it is d
for the doubly regular kinds (Schur test), and ||B|| for a relabeled base.
Relabelings preserve singular values and the multisets of row and column
norms, so s2(M) and the row/column l2 maxima of a relabeled base also come
from B once per call.

Each comparison sorts each of its two per-trial columns once and counts
the exceedances of every threshold and every grid constant at once. A
statistic within RTOL |tau| below a threshold tau reaches it, so a count
does not depend on the last bits of the kernel.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import SparseStack, SquareMatrix, abs_sums
from .degrees import RegularityParams, corner_degree_events, membership_rows
from .ensembles import (
    EnsembleSpec,
    relabeled_entries,
    relabeling,
    sample,
    table_entries,
)
from .spectra import RTOL, lanczos_pays, lanczos_steps, singular_value, spectral_norm

__all__ = [
    "TailCurve",
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


# Stacked floats per chunk of trials (1 MiB, like subset.TABLE_ENTRIES). A
# sparse block counts as the largest Lanczos basis the kernel keeps for it:
# lanczos_steps of its smaller side, plus the start and deflated vectors.
CHUNK_FLOATS = 2**17


def _corner(n: int):
    """Rows and columns of the top-right m x m corner, m = n // 2."""
    m = n // 2
    return slice(0, m), slice(n - m, n)


def _shape(n: int, block) -> tuple:
    """Rows and columns of a (row slice, column slice) block of an n x n matrix."""
    return len(range(n)[block[0]]), len(range(n)[block[1]])


def _sparse(spec: EnsembleSpec, block) -> bool:
    """Whether a block of a sample goes to the Lanczos kernel: by its smaller
    side, and the nonzeros a block row holds on average (at most d in a
    table, nnz(B) / n in a relabeled base, times the block's share of the
    columns)."""
    h, w = _shape(spec.n, block)
    per_row = spec.d if spec.base is None else spec.base.nonzeros[0].size / spec.n
    return lanczos_pays(min(h, w), per_row * w / spec.n)


def _base_stack(spec: EnsembleSpec):
    """The base as a one-matrix stack for singular_value, sparse where the
    Lanczos kernel pays."""
    if not _sparse(spec, (slice(None), slice(None))):
        return spec.base.entries[None]
    i, j, value = spec.base.nonzeros
    return SparseStack((1, spec.n, spec.n), np.zeros_like(i), i, j, value)


def _run_trials(spec: EnsembleSpec, trials: int, blocks, finish) -> list:
    """Per-trial columns of a Monte Carlo estimator, computed chunk by chunk.

    Trial i is sample i of ``spec``. Each (row slice, column slice) in
    ``blocks`` gives the stack of that block of every sample of the chunk:
    a SparseStack where the Lanczos kernel pays (``_sparse``), a dense
    array otherwise. A table kind also takes a function of the chunk's
    (chunk, d, n) tables in ``blocks``, and passes on what it returns.
    ``finish(*stacks)`` turns them into a tuple of per-trial arrays, which
    are concatenated in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sparse = [not callable(b) and _sparse(spec, b) for b in blocks]
    floats = 0
    for b, sp in zip(blocks, sparse):
        if not callable(b):
            h, w = _shape(spec.n, b)
            k = min(h, w)
            floats += k * (lanczos_steps(k) + 2) if sp else h * w
    size = max(1, CHUNK_FLOATS // max(1, floats))

    parts = []
    for lo in range(0, trials, size):
        hi = min(trials, lo + size)
        if spec.base is None:
            tables = np.array([sample(spec, i, table=True) for i in range(lo, hi)])
            stacks = [b(tables) if callable(b) else
                      table_entries(tables, *b) if sparse[k] else table_entries(tables, *b).dense()
                      for k, b in enumerate(blocks)]
        else:
            # Sample t is base[np.ix_(rows[t], cols[t])].
            pairs = [relabeling(spec, i) for i in range(lo, hi)]
            rows = np.array([r for r, _ in pairs])
            cols = rows if spec.kind == "permuted_base" else np.array([c for _, c in pairs])
            stacks = [relabeled_entries(spec.base.nonzeros, rows, cols, r, c) if sparse[k] else
                      spec.base.entries[rows[:, r, None], cols[:, None, c]]
                      for k, (r, c) in enumerate(blocks)]
        parts.append(finish(*stacks))
    return [np.concatenate(column) for column in zip(*parts)]


def _zero_diagonal(spec: EnsembleSpec) -> bool:
    """Whether every sample of the ensemble has zero diagonal."""
    if spec.kind == "regular_digraph":
        return True
    if spec.kind == "perm_sum_regular":
        return spec.zero_diagonal
    if spec.kind == "permuted_base":  # a joint relabeling keeps the diagonal
        return not np.any(np.diag(spec.base.entries))
    return not np.any(spec.base.entries)  # any entry can land on the diagonal


def _norms(spec: EnsembleSpec, trials: int, thresholds):
    """||M|| of each trial, and the thresholds, by default ||M|| itself: it is
    one value for every sample, and so every decile."""
    if spec.base is not None:
        m_norm = spectral_norm(spec.base)
    else:
        m_norm = float(spec.d)  # Schur test: ||M|| <= sqrt(||M||_1 ||M||_inf) = d; M1 = d1.
    thresholds = [m_norm] if thresholds is None else thresholds
    return np.full(trials, m_norm), np.asarray(thresholds, dtype=np.float64)


def _max_l2(entries: np.ndarray):
    """Largest row or column l2 norm of a matrix, or of each of a stack."""
    return np.maximum(np.linalg.norm(entries, axis=-1).max(axis=-1),
                      np.linalg.norm(entries, axis=-2).max(axis=-1))


def _table_max_l2(tables: np.ndarray) -> np.ndarray:
    """_max_l2 of the matrix of each of a (trials, d, n) stack of tables,
    read from the tables: row i of A holds the multiplicities of the values
    in Q[:, i], and column c those of the rows Q_j^-1(c), j = 1..d. The sums
    of squares are exact integers, so each maximum equals _max_l2 of the
    dense matrix bit for bit."""
    trials, d, n = tables.shape
    inverse = np.empty_like(tables)
    np.put_along_axis(inverse, tables, np.broadcast_to(np.arange(n), tables.shape), axis=2)
    squares = [_squared_multiplicities(tables), _squared_multiplicities(inverse)]
    return np.sqrt(np.maximum(*squares).max(axis=1).astype(np.float64))


def _squared_multiplicities(tables: np.ndarray) -> np.ndarray:
    """The sum of the squared multiplicities of the values in each column
    tables[t, :, i]: in sorted order, the p-th copy of a value adds 2p + 1."""
    s = np.sort(tables, axis=1)
    position = np.arange(s.shape[1])[:, None]
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    run_start = np.maximum.accumulate(np.where(first, position, 0), axis=1)
    return (2 * (position - run_start) + 1).sum(axis=1)


def _c_grid(c_grid) -> np.ndarray:
    if c_grid is None:
        return np.round(np.arange(0.01, 1.001, 0.01), 2)
    return np.asarray(c_grid, dtype=np.float64)


def _tail_probs(stat: np.ndarray, thresholds: np.ndarray):
    """P{stat >= tau} and its Wilson half-width, for thresholds of any shape.

    A statistic within RTOL |tau| below tau counts as reaching tau, so that a
    tie (an integer corner at an integer threshold) does not hang on the last
    bits of a singular value."""
    trials = stat.size
    floors = thresholds - RTOL * np.abs(thresholds)
    hits = trials - np.searchsorted(np.sort(stat), floors, side="left")
    return hits / trials, wilson_halfwidth(hits, trials)


def _compare(left: np.ndarray, right: np.ndarray, thresholds: np.ndarray, c: float, c_grid):
    """P{left >= tau} against (1/c) P{right >= c tau} at every threshold tau.

    Returns the TailCurve columns p_left, ci_left, p_right, ci_right and
    holds, and best_c: the largest grid constant at which the comparison
    holds at every threshold.
    """
    p_left, ci_left = _tail_probs(left, thresholds)
    # Row 0 compares at c, row k at the k-th grid constant.
    cs = np.concatenate([[c], _c_grid(c_grid)])[:, None]
    p_right, ci_right = _tail_probs(right, cs * thresholds)
    holds = p_left <= p_right / cs + ci_left + ci_right / cs
    best_c = max([0.0] + cs[1:, 0][holds[1:].all(axis=1)].tolist())
    columns = {"p_left": p_left, "ci_left": ci_left, "p_right": p_right[0],
               "ci_right": ci_right[0], "holds": holds[0]}
    return columns, best_c


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
    c_grid = _c_grid(c_grid)
    m_norm = spectral_norm(M)
    spec = EnsembleSpec("permuted_base", M.n, seed=seed, base=M)
    (t_norms,) = _run_trials(spec, trials, [_corner(M.n)], lambda T: (singular_value(T, 0),))
    p_hat, ci = _tail_probs(t_norms, c_grid * m_norm)
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
    thresholds=None,
    event: RegularityParams | None = None,
    c_grid=None,
) -> TailCurve:
    """Tail comparison P{||M|| >= tau} vs (1/c) P{||T|| >= c tau AND event}.

    T is the corner of M itself. The event is either trivial (None) or the
    near-constant-corner-degree event with the given (d, delta). Requires an
    ensemble whose samples all have zero diagonal, and n >= 8.
    """
    if spec.n < 8:
        raise ValueError("the tail comparison assumes n >= 8")
    _check_c(c)
    if not _zero_diagonal(spec):
        raise ValueError("the tail comparison assumes zero-diagonal samples")
    n = spec.n

    def finish(T):
        met = np.ones(len(T), dtype=bool) if event is None else corner_degree_events(T, event, n)
        return singular_value(T, 0), met

    t_norms, events = _run_trials(spec, trials, [_corner(n)], finish)
    m_norms, thresholds = _norms(spec, trials, thresholds)
    columns, best_c = _compare(m_norms, np.where(events, t_norms, -np.inf), thresholds, c, c_grid)
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
    # The norm comparison at c = 1/4, with no constant sweep.
    columns, _ = _compare(m_norms, b_norms, thresholds, 0.25, c_grid=[])
    return TailCurve(thresholds=thresholds, **columns, trials=trials, seed=spec.seed, c=0.25,
                     meta={"comparison": "four_block_triangle"})


def corner_degree_event_frequency(
    spec: EnsembleSpec,
    params: RegularityParams,
    trials: int,
    hyp_C: float = 1.0,
) -> dict:
    """Frequency of the near-constant-corner-degree event of the corner of A.

    Also reports the fraction of samples meeting the row/column l2
    hypothesis C * max_i ||row_i||_2, C * max_i ||col_i||_2 <= delta at the
    configured C.
    """
    n = spec.n
    blocks = [_corner(n)]
    if spec.base is None:
        blocks.append(_table_max_l2)
    else:
        l2 = _max_l2(spec.base.entries)

    def finish(T, l2s=None):
        l2s = np.full(len(T), l2) if l2s is None else l2s
        return corner_degree_events(T, params, n), hyp_C * l2s <= params.delta

    events, hyp = _run_trials(spec, trials, blocks, finish)
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
    _check_c(c)
    n = spec.n
    half = RegularityParams(d=params.d / 2.0, delta=params.delta)
    blocks = [_corner(n)]
    if spec.base is None:
        blocks.append((slice(0, n), slice(0, n)))  # the whole sample, for s2(A)
    s2B = None if spec.base is None else singular_value(_base_stack(spec), 1)[0]

    def finish(T, A=None):
        s2A = np.full(len(T), s2B) if A is None else singular_value(A, 1)
        member = membership_rows(*abs_sums(T), half)[0]
        return s2A, singular_value(T, 1), member

    s2A, s2T, members = _run_trials(spec, trials, blocks, finish)
    thresholds = np.asarray(L_grid, dtype=np.float64) * params.delta
    columns, best_c = _compare(s2A, np.where(members, s2T, -np.inf), thresholds, c, c_grid)
    return TailCurve(
        thresholds=thresholds, **columns, trials=trials, seed=spec.seed, c=c,
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

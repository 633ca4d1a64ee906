"""Seeded generators for the matrix models the comparisons quantify over.

All generators are pure in (spec.seed, index): sampling the same index
twice gives the same matrix, and trials can be generated in any order with
no shared state.

Kinds:
  permuted_base            sigma(B) for a fixed base B and uniform sigma
                           (jointly exchangeable by construction)
  separately_exchangeable  base relabeled by independent row and column
                           permutations
  perm_sum_regular         sum of d independent uniform permutation
                           matrices (derangements when zero-diagonal);
                           exact row and column sums d
  regular_digraph          0/1 adjacency with all margins d and zero
                           diagonal, by derangement superposition with
                           rejection of repeated edges, then a uniform
                           relabeling to make the law exchangeable

The facts about each kind live here, so the engine in ``tails`` names none:
``EnsembleSpec.zero_diagonal_samples``, ``EnsembleSpec.row_nonzeros``,
``EnsembleSpec.norm`` (||M||, one value for every sample),
``EnsembleSpec.draw_words`` (what a draw holds), and a base kind's samples
as their row and column permutations (``relabelings``). The samples of a
doubly regular kind are their (d, n) permutation tables Q
(``sample_tables(spec, indices)``, one (count, d, n) array): A = sum_j
P(q_j), that is A[i, Q[j, i]] += 1 for every j and i. ``table_entries``
gives a stack of tables as a ``core.SparseStack`` of the pairs (i, Q[j,
i]), and ``relabeled_entries`` gives relabeled bases from the base's
nonzero entries: whole n x n samples, whose blocks the caller cuts with
``SparseStack.block``. ``dense()`` scatters a stack with one ``bincount``.
``sample`` gives one sample as a SquareMatrix.

Every sample of index i draws from its own generator, in the state of
``rng.stream(spec.seed, i)``; a chunk of indices takes those states from
one ``rng.streams`` call. perm_sum_regular draws a first batch of candidate
permutations per trial with one in-place ``Generator.permuted`` call on its
rows of one int64 buffer for the chunk; the rows are bit for bit those of
successive ``Generator.permutation`` calls. One derangement filter for the
chunk keeps each trial's first d derangements (all d rows without zero
diagonal), so its tables equal those of drawing one permutation at a time.
Nothing draws from a trial's generator afterwards, so the candidates a batch
draws beyond the last one kept change nothing; a trial whose first batch is
short is drawn again, batch after batch, by ``_derangements``.
regular_digraph draws its relabeling from the generator after its last
candidate, so it draws its candidates in batches of ``_candidates`` but
replays the generator, from its state before the batch, up to the candidate
it keeps, trial after trial.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SparseStack, SquareMatrix, matrix_to_dict
from .rng import streams
from .spectra import spectral_norm

__all__ = [
    "EnsembleSpec",
    "KINDS",
    "BASE_KINDS",
    "sample",
    "sample_tables",
    "relabelings",
    "table_entries",
    "relabeled_entries",
]

KINDS = ("permuted_base", "separately_exchangeable", "perm_sum_regular", "regular_digraph")
_REGULAR_KINDS = ("perm_sum_regular", "regular_digraph")
BASE_KINDS = ("permuted_base", "separately_exchangeable")
_REJECTION_CAP = 1000
_CAP_GROWTH_END = 7
_FIRST_CANDIDATES = 16
_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    d: int = 0
    zero_diagonal: bool = False
    seed: int = 0
    base: SquareMatrix | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}; choose from {KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind in _REGULAR_KINDS and not 1 <= self.d < self.n:
            raise ValueError(f"regular ensembles need 1 <= d < n, got d={self.d}, n={self.n}")
        if self.kind in BASE_KINDS:
            if self.base is None:
                raise ValueError(f"{self.kind} requires a base matrix")
            if self.base.n != self.n:
                raise ValueError(f"base matrix is {self.base.n} x {self.base.n}, "
                                 f"which does not match n = {self.n}")
            if self.zero_diagonal:  # the base alone decides the samples' diagonal
                raise ValueError(f"{self.kind} takes no zero_diagonal flag")
        elif self.base is not None:
            # Estimators read ``base is not None`` as "relabels a fixed base".
            raise ValueError(f"{self.kind} takes no base matrix")

    @property
    def row_nonzeros(self) -> float:
        """Mean entries per row of a sample's entry stack: d, or nnz(B) / n."""
        return self.d if self.base is None else self.base.nonzeros[0].size / self.n

    @property
    def draw_words(self) -> int:
        """int64 words a sample holds at once while ``sample_tables`` draws
        it: a zero-diagonal perm_sum_regular sample's first batch of
        candidate rows, its table otherwise (none for a base kind)."""
        if self.kind == "perm_sum_regular" and self.zero_diagonal:
            return _first_batch(self.d) * self.n
        return self.d * self.n

    @property
    def zero_diagonal_samples(self) -> bool:
        """Whether every sample has zero diagonal (a joint relabeling keeps B's)."""
        if self.base is None:
            return self.zero_diagonal or self.kind == "regular_digraph"
        E = self.base.entries
        return not np.any(np.diag(E) if self.kind == "permuted_base" else E)

    @property
    def norm(self) -> float:
        """||M|| of every sample: d for the doubly regular kinds (Schur test:
        ||M|| <= sqrt(||M||_1 ||M||_inf) = d, and M1 = d1), and ||B|| from the
        SVD for a relabeled base, since a relabeling keeps singular values."""
        return float(self.d) if self.base is None else spectral_norm(self.base)

    @classmethod
    def permuted(cls, M: SquareMatrix, seed: int = 0) -> "EnsembleSpec":
        """The permuted_base ensemble of M: sigma(M) for a uniform sigma."""
        return cls("permuted_base", M.n, seed=seed, base=M)

    def to_dict(self) -> dict:
        """The spec as JSON-ready values; the base as matrix_to_dict's object."""
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "zero_diagonal": self.zero_diagonal,
            "seed": self.seed,
            "base": None if self.base is None else matrix_to_dict(self.base),
        }


def _candidates(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform permutations of range(n) as rows, in one call: bit
    for bit the rows of ``count`` successive ``rng.permutation(n)`` calls."""
    rows = np.empty((count, n), dtype=np.int64)
    rows[:] = np.arange(n)
    return rng.permuted(rows, axis=1, out=rows)


def _first_batch(d: int) -> int:
    """Candidates a zero-diagonal table draws first. A uniform permutation
    is a derangement with probability ~1/e, so d of them take d*e
    candidates on average, with variance d*e*(e-1); a batch of the mean plus
    one standard deviation rarely falls short."""
    return math.ceil(d * math.e + math.sqrt(d * math.e * (math.e - 1.0)))


def _derangements(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """The first d derangements that ``rng`` draws, as rows, drawn batch
    after batch."""
    idx = np.arange(n)
    kept = []
    while d:
        batch = _candidates(n, _first_batch(d), rng)
        batch = batch[(batch != idx).all(axis=1)][:d]
        kept.append(batch)
        d -= len(batch)
    return np.concatenate(kept)


def _perm_sum_tables(spec: EnsembleSpec, indices) -> np.ndarray:
    """The tables of ``indices`` from one first batch of candidates each,
    permuted in place in one int64 buffer (``permuted`` is slower on
    narrower ints), and one derangement filter for the whole chunk. A trial
    whose first batch is short is drawn again by ``_derangements``: its
    kept rows are the first d derangements its stream draws, whatever the
    batches."""
    n, d = spec.n, spec.d
    count = _first_batch(d) if spec.zero_diagonal else d
    rows = np.empty((len(indices), count, n), dtype=np.int64)
    rows[:] = np.arange(n)
    for trial, rng in zip(rows, streams(spec.seed, indices)):
        rng.permuted(trial, axis=1, out=trial)
    if not spec.zero_diagonal:
        return rows
    deranged = (rows != np.arange(n)).all(axis=2)
    # The first d derangements of each trial, in their order (a stable sort).
    first = np.argsort(~deranged, axis=1, kind="stable")[:, :d]
    tables = np.take_along_axis(rows, first[:, :, None], axis=1)
    short = np.flatnonzero(deranged.sum(axis=1) < d)
    for t, rng in zip(short, streams(spec.seed, [indices[t] for t in short])):
        tables[t] = _derangements(n, d, rng)
    return tables


def _regular_digraph_table(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    # Place derangements one at a time, redrawing any that reuses an edge.
    # Rejecting the whole d-tuple at once has acceptance ~ e^{-d(d-1)/2},
    # hopeless already at moderate d; per-derangement rejection costs ~ e^{j}
    # tries for the j-th one, and the final uniform relabeling restores
    # joint exchangeability either way. A try is a derangement drawn.
    P = np.empty((d, n), dtype=np.int64)
    idx = np.arange(n)
    taken = np.eye(n, dtype=bool)  # the diagonal and every placed edge (i, p[i])
    for j in range(d):
        # Twenty times the e^j expected tries, held at j = 7 so that a d
        # without room gives up after a bounded number of tries.
        cap = max(_REJECTION_CAP, math.ceil(20 * math.exp(min(j, _CAP_GROWTH_END))))
        tries, count = 0, _FIRST_CANDIDATES
        while True:
            state = rng.bit_generator.state
            batch = _candidates(n, count, rng)
            # The tries made up to each row, and the rows that take no edge
            # (each a derangement, since the diagonal counts as taken).
            tried = tries + np.cumsum((batch != idx).all(axis=1))
            fits = np.flatnonzero(~taken[idx, batch].any(axis=1))
            if fits.size and tried[fits[0]] <= cap:
                # Replay up to the row kept: later draws start right after it.
                rng.bit_generator.state = state
                P[j] = _candidates(n, fits[0] + 1, rng)[-1]
                taken[idx, P[j]] = True
                break
            tries = tried[-1]
            if fits.size or tries >= cap:
                # A parameter problem (d too close to n), hence ValueError.
                raise ValueError(
                    f"could not place {d} disjoint derangements on n={n}: derangement "
                    f"{j + 1} found no room in {cap} attempts; increase the n/d gap"
                )
            count = min(2 * count, max(_FIRST_CANDIDATES, _BATCH_ENTRIES // n))
    # Relabeling A by s, A[np.ix_(s, s)], turns each p_j into s^-1 . p_j . s.
    s = rng.permutation(n)
    inverse = np.empty_like(s)
    inverse[s] = np.arange(n)
    return inverse[P[:, s]]


def table_entries(tables: np.ndarray) -> SparseStack:
    """The matrix A_t of each of a (trials, d, n) stack of permutation
    tables, by its entries: the pair (i, Q[t, j, i]) for every j and i, each
    1.0, in the order (t, j, i). No dense matrix is formed."""
    trials, d, n = tables.shape
    member = np.repeat(np.arange(trials), d * n)
    return SparseStack((trials, n, n), member, np.tile(np.arange(n), trials * d),
                       tables.reshape(-1), np.ones(member.size))


def relabeled_entries(triples, rows: np.ndarray, cols: np.ndarray) -> SparseStack:
    """base[np.ix_(rows[t], cols[t])] for each t, by its entries.

    ``triples`` (i, j, value) are the nonzero entries of the base, and
    ``rows``/``cols`` are (count, n) relabelings, as ``relabelings`` draws
    them. Base entry (i, j) lands at (rows[t]^-1(i), cols[t]^-1(j)); the
    entries of each t come in the order of ``triples``.
    """
    i, j, value = triples
    count, n = rows.shape
    positions = np.broadcast_to(np.arange(n), rows.shape)
    inverse_rows, inverse_cols = np.empty_like(rows), np.empty_like(cols)
    np.put_along_axis(inverse_rows, rows, positions, axis=1)
    np.put_along_axis(inverse_cols, cols, positions, axis=1)
    return SparseStack((count, n, n), np.repeat(np.arange(count), i.size),
                       inverse_rows[:, i].reshape(-1), inverse_cols[:, j].reshape(-1),
                       np.tile(value, count))


def relabelings(spec: EnsembleSpec, indices) -> tuple[np.ndarray, np.ndarray]:
    """Row and column permutations of samples ``indices`` of a
    base-relabeling kind, as (count, n) arrays: sample ``indices[t]`` is
    ``spec.base.entries[np.ix_(rows[t], cols[t])]``.

    Both are drawn from ``stream(spec.seed, index)``, the row permutation
    first; ``permuted_base`` relabels rows and columns alike (``cols is rows``).
    """
    if spec.base is None:
        raise ValueError(f"{spec.kind} does not relabel a base matrix")
    rows = np.empty((len(indices), spec.n), dtype=np.int64)
    cols = rows if spec.kind == "permuted_base" else np.empty_like(rows)
    for t, rng in enumerate(streams(spec.seed, indices)):
        rows[t] = rng.permutation(spec.n)
        if cols is not rows:
            cols[t] = rng.permutation(spec.n)
    return rows, cols


def sample_tables(spec: EnsembleSpec, indices) -> np.ndarray:
    """The (d, n) permutation tables Q of samples ``indices`` of a doubly
    regular kind, as one (count, d, n) int64 array; sample ``indices[t]`` is
    A = sum_j P(Q[t, j]), that is A[i, Q[t, j, i]] += 1. Pure in (spec.seed,
    index): each table is the one its own ``stream(spec.seed, index)`` draws."""
    if spec.base is not None:
        raise ValueError(f"{spec.kind} is not a sum of permutation matrices")
    if spec.kind == "perm_sum_regular":
        return _perm_sum_tables(spec, indices)
    tables = np.empty((len(indices), spec.d, spec.n), dtype=np.int64)
    for t, rng in enumerate(streams(spec.seed, indices)):
        tables[t] = _regular_digraph_table(spec.n, spec.d, rng)
    return tables


def sample(spec: EnsembleSpec, index: int) -> SquareMatrix:
    """Draw sample ``index`` of the ensemble; pure in (spec.seed, index)."""
    if spec.base is not None:
        (rows,), (cols,) = relabelings(spec, [index])
        # A simultaneous relabeling keeps the diagonal on the diagonal.
        zero_diagonal = spec.kind == "permuted_base" and spec.base.zero_diagonal
        return SquareMatrix(spec.base.entries[np.ix_(rows, cols)], zero_diagonal=zero_diagonal)
    A = table_entries(sample_tables(spec, [index])).dense()[0]
    return SquareMatrix(A, zero_diagonal=spec.zero_diagonal_samples)

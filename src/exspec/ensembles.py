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
``EnsembleSpec.norm`` (||M||, one value for every sample), and a base
kind's sample as its row and column permutations (``relabeling``). A
sample of a doubly regular kind is its (d, n) permutation table Q
(``sample(spec, index, table=True)``): A = sum_j P(q_j), that is
A[i, Q[j, i]] += 1 for every j and i. ``table_entries`` gives a stack of
tables as a ``core.SparseStack`` of the pairs (i, Q[j, i]), and
``relabeled_entries`` gives relabeled bases from the base's nonzero
entries: whole n x n samples, whose blocks the caller cuts with
``SparseStack.block``. ``dense()`` scatters a stack with one ``bincount``.

Every sample of index i draws from its own generator ``stream(spec.seed,
i)``. perm_sum_regular draws its candidate permutations in batches with one
``Generator.permuted`` call, whose rows are bit for bit those of successive
``Generator.permutation`` calls; it keeps the first d derangements (all d
rows without zero diagonal), so its tables equal those of drawing one
permutation at a time. Nothing draws from that generator afterwards, so the
candidates a batch draws beyond the last one kept change nothing.
regular_digraph draws its relabeling from the generator after its last
candidate, so it draws candidates one at a time, through the same
``_candidates``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SparseStack, SquareMatrix, matrix_to_dict
from .rng import stream
from .spectra import spectral_norm

__all__ = [
    "EnsembleSpec",
    "KINDS",
    "BASE_KINDS",
    "sample",
    "relabeling",
    "table_entries",
    "relabeled_entries",
]

KINDS = ("permuted_base", "separately_exchangeable", "perm_sum_regular", "regular_digraph")
_REGULAR_KINDS = ("perm_sum_regular", "regular_digraph")
BASE_KINDS = ("permuted_base", "separately_exchangeable")
_REJECTION_CAP = 1000


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
    return rng.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)


def _perm_sum_table(n: int, d: int, zero_diagonal: bool, rng: np.random.Generator):
    if not zero_diagonal:
        return _candidates(n, d, rng)
    idx = np.arange(n)
    kept = []
    need = d
    while need:
        # A uniform permutation is a derangement with probability ~1/e, so
        # `need` of them take need*e candidates on average, with variance
        # need*e*(e-1); a batch of the mean plus one standard deviation
        # rarely falls short.
        count = math.ceil(need * math.e + math.sqrt(need * math.e * (math.e - 1.0)))
        batch = _candidates(n, count, rng)
        batch = batch[(batch != idx).all(axis=1)][:need]
        kept.append(batch)
        need -= len(batch)
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def _regular_digraph_table(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    # Place derangements one at a time, redrawing any that reuses an edge.
    # Rejecting the whole d-tuple at once has acceptance ~ e^{-d(d-1)/2},
    # hopeless already at moderate d; per-derangement rejection costs ~ e^{d}
    # draws for the last one and the final uniform relabeling restores joint
    # exchangeability either way.
    P = np.empty((d, n), dtype=np.int64)
    idx = np.arange(n)
    for j in range(d):
        for _ in range(_REJECTION_CAP):
            p = _candidates(n, 1, rng)[0]
            while (p == idx).any():  # a derangement by rejection, acceptance ~ 1/e
                p = _candidates(n, 1, rng)[0]
            if not (P[:j] == p).any():  # edge (i, p[i]) is new for every i
                P[j] = p
                break
        else:
            # A parameter problem (d too close to n), hence ValueError.
            raise ValueError(
                f"could not place {d} disjoint derangements on n={n} in "
                f"{_REJECTION_CAP} attempts each; increase the n/d gap"
            )
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
    ``rows``/``cols`` are (count, n) relabelings, as ``relabeling`` draws
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


def relabeling(spec: EnsembleSpec, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column permutations of sample ``index`` of a base-relabeling
    kind: ``sample(spec, index).entries == spec.base.entries[np.ix_(rows, cols)]``.

    Both are drawn from ``stream(spec.seed, index)``, the row permutation
    first; ``permuted_base`` relabels rows and columns alike.
    """
    if spec.base is None:
        raise ValueError(f"{spec.kind} does not relabel a base matrix")
    rng = stream(spec.seed, index)
    rows = rng.permutation(spec.n)
    if spec.kind == "permuted_base":
        return rows, rows
    return rows, rng.permutation(spec.n)


def sample(spec: EnsembleSpec, index: int, *, table: bool = False):
    """Draw sample ``index`` of the ensemble; pure in (spec.seed, index).

    With ``table``, a doubly regular kind returns the sample as its (d, n)
    permutation table Q instead of a SquareMatrix: the matrix is the sum of
    the permutation matrices of the rows, A[i, Q[j, i]] += 1.
    """
    if spec.base is not None:
        if table:
            raise ValueError(f"{spec.kind} is not a sum of permutation matrices")
        rows, cols = relabeling(spec, index)
        # A simultaneous relabeling keeps the diagonal on the diagonal.
        zero_diagonal = spec.kind == "permuted_base" and spec.base.zero_diagonal
        return SquareMatrix(spec.base.entries[np.ix_(rows, cols)], zero_diagonal=zero_diagonal)
    rng = stream(spec.seed, index)
    if spec.kind == "perm_sum_regular":
        Q = _perm_sum_table(spec.n, spec.d, spec.zero_diagonal, rng)
    else:
        Q = _regular_digraph_table(spec.n, spec.d, rng)
    if table:
        return Q
    A = table_entries(Q[None]).dense()[0]
    return SquareMatrix(A, zero_diagonal=spec.zero_diagonal_samples)

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
"""

import json
from dataclasses import dataclass

import numpy as np

from .core import SquareMatrix, matrix_to_json
from .rng import stream

__all__ = [
    "EnsembleSpec",
    "KINDS",
    "sample",
    "relabeling",
    "random_derangement",
    "permutation_matrix",
]

KINDS = ("permuted_base", "separately_exchangeable", "perm_sum_regular", "regular_digraph")
_REGULAR_KINDS = ("perm_sum_regular", "regular_digraph")
_BASE_KINDS = ("permuted_base", "separately_exchangeable")
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
        if self.kind in _BASE_KINDS:
            if self.base is None:
                raise ValueError(f"{self.kind} requires a base matrix")
            if self.base.n != self.n:
                raise ValueError("base matrix dimension does not match n")
        elif self.base is not None:
            # Estimators read ``base is not None`` as "relabels a fixed base".
            raise ValueError(f"{self.kind} takes no base matrix")

    def to_dict(self) -> dict:
        """The spec as JSON-ready values; the base as matrix_to_json's object."""
        return {
            "kind": self.kind,
            "n": self.n,
            "d": self.d,
            "zero_diagonal": self.zero_diagonal,
            "seed": self.seed,
            "base": None if self.base is None else json.loads(matrix_to_json(self.base)),
        }


def random_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed-point-free permutation by rejection (acceptance ~ 1/e)."""
    if n < 2:
        raise ValueError("derangements require n >= 2")
    idx = np.arange(n)
    while True:
        p = rng.permutation(n)
        if not (p == idx).any():
            return p


def permutation_matrix(p: np.ndarray) -> np.ndarray:
    n = p.size
    P = np.zeros((n, n))
    P[np.arange(n), p] = 1.0
    return P


def _perm_sum(n: int, d: int, zero_diagonal: bool, rng: np.random.Generator) -> np.ndarray:
    A = np.zeros((n, n))
    idx = np.arange(n)
    for _ in range(d):
        p = random_derangement(n, rng) if zero_diagonal else rng.permutation(n)
        A[idx, p] += 1.0
    return A


def _regular_digraph(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    # Place derangements one at a time, redrawing any that reuses an edge.
    # Rejecting the whole d-tuple at once has acceptance ~ e^{-d(d-1)/2},
    # hopeless already at moderate d; per-derangement rejection costs ~ e^{d}
    # draws for the last one and the final uniform relabeling restores joint
    # exchangeability either way.
    A = np.zeros((n, n))
    idx = np.arange(n)
    for _ in range(d):
        for _ in range(_REJECTION_CAP):
            p = random_derangement(n, rng)
            if not A[idx, p].any():
                A[idx, p] = 1.0
                break
        else:
            # A parameter problem (d too close to n), hence ValueError.
            raise ValueError(
                f"could not place {d} disjoint derangements on n={n} in "
                f"{_REJECTION_CAP} attempts each; increase the n/d gap"
            )
    s = rng.permutation(n)
    return A[np.ix_(s, s)]


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


def sample(spec: EnsembleSpec, index: int) -> SquareMatrix:
    """Draw sample ``index`` of the ensemble; pure in (spec.seed, index)."""
    if spec.base is not None:
        rows, cols = relabeling(spec, index)
        # A simultaneous relabeling keeps the diagonal on the diagonal.
        zero_diagonal = spec.kind == "permuted_base" and spec.base.zero_diagonal
        return SquareMatrix(spec.base.entries[np.ix_(rows, cols)], zero_diagonal=zero_diagonal)
    rng = stream(spec.seed, index)
    if spec.kind == "perm_sum_regular":
        A = _perm_sum(spec.n, spec.d, spec.zero_diagonal, rng)
        return SquareMatrix(A, zero_diagonal=spec.zero_diagonal)
    if spec.kind == "regular_digraph":
        return SquareMatrix(_regular_digraph(spec.n, spec.d, rng), zero_diagonal=True)
    raise AssertionError(spec.kind)

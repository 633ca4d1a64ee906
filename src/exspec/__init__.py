"""Exchangeable random matrices at desk scale: corner de-symmetrization,
second singular values of doubly regular matrices, degree-profile tests,
diagonal-scaling reductions, and exact subset-sum moment oracles."""

__version__ = "0.1.0"

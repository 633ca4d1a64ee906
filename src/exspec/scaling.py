"""Diagonal-scaling reduction for matrices with almost-constant margins.

For a nonnegative matrix A with column sums u and row sums v (equal total
mass, strictly positive), the scaled matrix D_v^{-1/2} A D_u^{-1/2} has top
singular value exactly 1 with singular vectors built from sqrt(u), sqrt(v).
When the margins are close to a constant d (in sup and l2 norm), this gives

    ||A - (d/m) 11^t||  <=  2 s2(A) + 6 delta,

with an explicit rank-two remainder beta = ||v u^t / ||u||_1 - (d/m) 11^t||.
``scaling_reduction`` computes only what it reports (two dense SVDs and a
2 x 2 core for beta) and asserts the inequality whenever the margin
hypotheses hold. The identities of the scaled matrix behind the proof are
checked by tests/test_scaling.py and criterion 05, not on every call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import abs_sums, as_entries
from .spectra import second_singular, spectral_norm

__all__ = [
    "ScalingReport",
    "scaling_reduction",
    "unit_margin_svd_facts",
    "rank_two_norm",
    "fit_margins",
    "sample_margin_perturbed",
]

# Largest deviation of a fitted margin from its target (fit_margins).
FIT_TOL = 1e-12


@dataclass(frozen=True)
class ScalingReport:
    lhs: float            # ||A - (d/m) 11^t||
    s2: float             # second singular value of A
    beta: float           # rank-two remainder norm
    bound: float          # 2*s2 + 6*delta
    hypotheses_ok: bool
    margin_checks: dict = field(default_factory=dict)
    d: float = 0.0
    delta: float = 0.0


def rank_two_norm(y1, z1, y2, z2) -> float:
    """Spectral norm of y1 z1^t + y2 z2^t without forming the dense matrix."""
    ry = np.linalg.qr(np.column_stack([y1, y2]), mode="r")
    rz = np.linalg.qr(np.column_stack([z1, z2]), mode="r")
    return float(np.linalg.svd(ry @ rz.T, compute_uv=False)[0])


def _check_margins(E: np.ndarray):
    if np.any(E < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    u, v = abs_sums(E)
    zero_u = np.nonzero(u == 0)[0]
    if zero_u.size:
        raise ValueError(f"column {zero_u[0] + 1} has zero sum; scaling undefined")
    zero_v = np.nonzero(v == 0)[0]
    if zero_v.size:
        raise ValueError(f"row {zero_v[0] + 1} has zero sum; scaling undefined")
    if abs(u.sum() - v.sum()) > 1e-8 * max(1.0, u.sum()):
        raise ValueError("column and row sums have different total mass")
    return u, v


def unit_margin_svd_facts(A) -> dict:
    """Top singular triple of the margin-scaled matrix.

    Checks that s1 of D_v^{-1/2} A D_u^{-1/2} is 1 and that sqrt(u), sqrt(v)
    are the corresponding right/left singular vectors (residuals returned),
    where u and v are the column and row sums of A.
    """
    E = as_entries(A)
    u, v = _check_margins(E)
    S = E / np.sqrt(np.outer(v, u))
    top = spectral_norm(S)
    ru = np.sqrt(u)
    rv = np.sqrt(v)
    right_res = float(np.linalg.norm(S @ ru - rv) / np.linalg.norm(ru))
    left_res = float(np.linalg.norm(S.T @ rv - ru) / np.linalg.norm(rv))
    mass_gap = abs(float(ru @ ru) - float(np.sum(np.abs(u))))
    return {
        "top_singular": top,
        "right_vec_residual": right_res,
        "left_vec_residual": left_res,
        "mass_gap": mass_gap,
    }


def scaling_reduction(A, d: float, delta: float, *, s2: float | None = None,
                      lhs: float | None = None) -> ScalingReport:
    """Full report for the margin-scaling comparison.

    When the margin hypotheses hold (sup deviation <= d/3, l2 deviation
    <= delta*sqrt(m) for both u and v), the conclusion and the remainder
    bound beta <= 6*delta are asserted; hypothesis failures only disable
    the assertion, all quantities are still reported.

    A caller that has already taken ``s2`` (``second_singular(A)``) or
    ``lhs`` (``spectral_norm(A - (d/m) 11^t)``, the SVD that
    ``s2_via_centering`` takes) hands it in, and its SVD is not repeated.
    """
    if not (d > 0 and delta > 0):
        raise ValueError("d and delta must be positive")
    E = as_entries(A)
    m = E.shape[0]
    u, v = _check_margins(E)
    ones = np.ones(m)
    l1u = float(u.sum())

    margin_checks = {
        "inf_u": float(np.max(np.abs(u - d))),
        "inf_v": float(np.max(np.abs(v - d))),
        "l2_u": float(np.linalg.norm(u - d * ones)),
        "l2_v": float(np.linalg.norm(v - d * ones)),
    }
    hypotheses_ok = (
        margin_checks["inf_u"] <= d / 3.0
        and margin_checks["inf_v"] <= d / 3.0
        and margin_checks["l2_u"] <= delta * math.sqrt(m)
        and margin_checks["l2_v"] <= delta * math.sqrt(m)
    )

    beta = rank_two_norm(v / l1u, u, -(d / m) * ones, ones)
    if lhs is None:
        lhs = spectral_norm(E - (d / m) * np.ones((m, m)))
    if s2 is None:
        s2 = second_singular(E)
    bound = 2.0 * s2 + 6.0 * delta
    if not math.isfinite(bound):
        raise FloatingPointError(f"bound 2*s2 + 6*delta overflows float64 (delta={delta!r})")

    if hypotheses_ok:
        tol = 1e-8 * max(1.0, d)
        if lhs > bound + tol:
            raise RuntimeError(f"scaling comparison violated: lhs={lhs!r} > bound={bound!r}")
        if beta > 6.0 * delta + tol:
            raise RuntimeError(f"remainder beta={beta!r} exceeds 6*delta={6 * delta!r}")

    return ScalingReport(
        lhs=lhs, s2=s2, beta=beta, bound=bound, hypotheses_ok=hypotheses_ok,
        margin_checks=margin_checks, d=d, delta=delta,
    )


def fit_margins(base, u, v) -> np.ndarray:
    """Iterative proportional fitting of a positive base matrix to the
    prescribed column sums u and row sums v (equal total mass required),
    until every margin is within FIT_TOL of its target."""
    sweeps = 20_000
    E = as_entries(base).copy()
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(E <= 0):
        raise ValueError("base matrix must be strictly positive")
    if abs(u.sum() - v.sum()) > 1e-8 * max(1.0, u.sum()):
        raise ValueError("margin vectors must have equal total mass")
    for _ in range(sweeps):
        E *= (v / E.sum(axis=1))[:, None]
        E *= u / E.sum(axis=0)
        if (
            np.max(np.abs(E.sum(axis=1) - v)) <= FIT_TOL
            and np.max(np.abs(E.sum(axis=0) - u)) <= FIT_TOL
        ):
            return E
    raise RuntimeError(f"proportional fitting did not converge in {sweeps} iterations")


def sample_margin_perturbed(
    m: int, d: float, delta: float, rng: np.random.Generator
) -> np.ndarray:
    """Random nonnegative matrix whose margins satisfy the hypotheses of the
    scaling comparison: near-d in sup norm and within delta*sqrt(m) in l2.

    Margins are drawn as d plus clipped Gaussian noise, balanced to equal
    total mass, then a positive random base is fitted to them.
    """
    clip = min(d / 3.0, delta / 2.0)
    ones = np.ones(m)

    def margins():
        w = d + rng.normal(0.0, delta / 4.0, size=m)
        return np.clip(w, d - clip, d + clip)

    for _ in range(100):
        u = margins()
        v = margins()
        v += (u.sum() - v.sum()) / m
        sup_ok = max(np.max(np.abs(u - d)), np.max(np.abs(v - d))) <= d / 3.0
        l2_ok = (
            np.linalg.norm(u - d * ones) <= delta * math.sqrt(m)
            and np.linalg.norm(v - d * ones) <= delta * math.sqrt(m)
        )
        if sup_ok and l2_ok:
            base = rng.uniform(0.5, 1.5, size=(m, m))
            return fit_margins(base, u, v)
    raise RuntimeError("could not draw margins satisfying the hypotheses; widen delta")

import numpy as np
import pytest

from exspec import scaling, verify
from exspec.core import abs_sums
from exspec.rng import stream
from exspec.scaling import (
    fit_margins,
    rank_two_norm,
    sample_margin_perturbed,
    scaling_reduction,
    unit_margin_svd_facts,
)
from exspec.spectra import second_singular, singular_values, spectral_norm


@pytest.fixture(scope="module")
def verify_scaling_cases():
    """The (A, d, delta) of every case of ``verify scaling`` at seeds 0-3,
    as the suite hands them to scaling_reduction (40 per seed)."""
    cases = []
    real = scaling.scaling_reduction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scaling, "scaling_reduction",
                   lambda A, d, delta: cases.append((A, d, delta)) or real(A, d, delta))
        for seed in range(4):
            verify.verify_scaling(seed)
    assert len(cases) == 160
    return cases


def _scaled(A):
    u, v = abs_sums(A)
    return A / np.sqrt(np.outer(v, u)), u, v


def test_flat_matrix_everything_zero():
    m, d = 6, 3.0
    A = (d / m) * np.ones((m, m))
    rep = scaling_reduction(A, d, delta=0.5)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.s2 == pytest.approx(0.0, abs=1e-12)
    assert rep.beta == pytest.approx(0.0, abs=1e-12)
    assert rep.hypotheses_ok


def test_scaled_identity_slack():
    m, d = 6, 2.0
    rep = scaling_reduction(d * np.eye(m), d, delta=0.25)
    assert rep.hypotheses_ok
    assert rep.lhs == pytest.approx(d)
    assert rep.s2 == pytest.approx(d)
    assert rep.bound == pytest.approx(2 * d + 6 * 0.25)
    assert rep.lhs <= rep.bound


def test_random_margin_perturbed_instances():
    rng = stream(51)
    for _ in range(30):
        m = int(rng.integers(8, 40))
        d = float(rng.uniform(2, 8))
        delta = float(rng.uniform(0.05, 0.3)) * d
        A = sample_margin_perturbed(m, d, delta, rng)
        rep = scaling_reduction(A, d, delta)
        assert rep.hypotheses_ok
        assert rep.lhs <= rep.bound + 1e-8 * max(1, d)
        assert rep.beta <= 6 * delta + 1e-8


def test_hypothesis_failure_reports_without_assertion():
    rng = stream(52)
    m = 10
    A = rng.uniform(0.1, 1.0, size=(m, m))
    # d far from the actual margins: sup hypothesis fails.
    rep = scaling_reduction(A, d=50.0, delta=1e-6)
    assert not rep.hypotheses_ok
    assert rep.margin_checks["inf_u"] > 50.0 / 3.0


def test_zero_margin_rejected():
    A = np.zeros((3, 3))
    A[0, 0] = 1.0
    with pytest.raises(ValueError, match="zero sum"):
        scaling_reduction(A, 1.0, 0.1)


def test_negative_entries_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        scaling_reduction(-np.ones((3, 3)), 1.0, 0.1)


def test_unit_margin_facts_identity():
    facts = unit_margin_svd_facts(2.0 * np.eye(5))
    assert facts["top_singular"] == pytest.approx(1.0, abs=1e-12)
    assert facts["right_vec_residual"] == pytest.approx(0.0, abs=1e-12)
    assert facts["left_vec_residual"] == pytest.approx(0.0, abs=1e-12)


def test_unit_margin_facts_fitted_margins():
    rng = stream(53)
    m = 10
    u = rng.uniform(1.0, 4.0, size=m)
    v = rng.uniform(1.0, 4.0, size=m)
    v *= u.sum() / v.sum()
    A = fit_margins(rng.uniform(0.5, 1.5, size=(m, m)), u, v)
    facts = unit_margin_svd_facts(A)
    assert abs(facts["top_singular"] - 1.0) <= 1e-8
    assert facts["right_vec_residual"] <= 1e-8
    assert facts["left_vec_residual"] <= 1e-8
    assert facts["mass_gap"] <= 1e-8 * u.sum()


def test_unit_margin_facts_rank_one():
    rng = stream(54)
    u = rng.uniform(0.5, 2.0, size=6)
    v = rng.uniform(0.5, 2.0, size=6)
    A = np.outer(v, u) / v.sum()  # margins are exactly (u * ||v||1/||v||1 scaled)
    facts = unit_margin_svd_facts(A)
    assert abs(facts["top_singular"] - 1.0) <= 1e-10
    assert facts["right_vec_residual"] <= 1e-10


def test_rank_two_norm_matches_dense():
    rng = stream(55)
    for _ in range(20):
        m = int(rng.integers(2, 30))
        y1, z1, y2, z2 = (rng.normal(size=m) for _ in range(4))
        dense = spectral_norm(np.outer(y1, z1) + np.outer(y2, z2))
        assert rank_two_norm(y1, z1, y2, z2) == pytest.approx(dense, rel=1e-10, abs=1e-10)
    # The reported beta, v u^t / ||u||_1 - (d/m) 11^t of margin-perturbed
    # matrices, against the dense norm.
    for _ in range(20):
        m = int(rng.integers(8, 33))
        d = float(rng.uniform(2.0, 10.0))
        delta = float(rng.uniform(0.05, 0.4)) * d / 3.0
        A = sample_margin_perturbed(m, d, delta, rng)
        u, v = abs_sums(A)
        ones = np.ones(m)
        beta = rank_two_norm(v / u.sum(), u, -(d / m) * ones, ones)
        dense = spectral_norm(np.outer(v, u) / u.sum() - (d / m) * np.ones((m, m)))
        assert abs(beta - dense) <= 1e-9 * max(1.0, beta)
        assert scaling_reduction(A, d, delta).beta == beta


def test_scaled_s2_is_the_deflated_norm(verify_scaling_cases):
    # s2 of S = D_v^{-1/2} A D_u^{-1/2} is the norm of S less its top triple
    # sqrt(v) sqrt(u)^t / ||u||_1.
    for A, _, _ in verify_scaling_cases:
        S, u, v = _scaled(A)
        s2 = second_singular(S)
        deflated = spectral_norm(S - np.outer(np.sqrt(v), np.sqrt(u)) / u.sum())
        assert abs(s2 - deflated) <= 1e-8 * max(1.0, s2)


def test_scaled_gram_fixes_sqrt_u_with_radius_one(verify_scaling_cases):
    for A, _, _ in verify_scaling_cases:
        S, u, _ = _scaled(A)
        G = S.T @ S
        ru = np.sqrt(u)
        assert np.linalg.norm(G @ ru - ru) <= 1e-8 * np.linalg.norm(ru)
        assert abs(float(np.max(singular_values(G))) - 1.0) <= 1e-8


def test_scaling_reduction_takes_two_dense_svds(monkeypatch):
    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a))
                        or real(a, *args, **kw))
    m, d, delta = 12, 4.0, 0.5
    A = sample_margin_perturbed(m, d, delta, stream(59))
    scaling_reduction(A, d, delta)
    # rank_two_norm's 2 x 2 core aside: A - (d/m) 11^t and A.
    assert [s for s in shapes if s != (2, 2)] == [(m, m), (m, m)]


def test_fit_margins_hits_targets():
    rng = stream(56)
    m = 12
    u = rng.uniform(2.0, 5.0, size=m)
    v = rng.uniform(2.0, 5.0, size=m)
    v *= u.sum() / v.sum()
    A = fit_margins(rng.uniform(0.5, 1.5, size=(m, m)), u, v)
    assert np.max(np.abs(A.sum(axis=0) - u)) <= 1e-9
    assert np.max(np.abs(A.sum(axis=1) - v)) <= 1e-9


def test_fit_margins_validation():
    rng = stream(57)
    with pytest.raises(ValueError, match="positive"):
        fit_margins(np.zeros((3, 3)), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="total mass"):
        fit_margins(rng.uniform(1, 2, size=(3, 3)), np.ones(3), 2 * np.ones(3))


def test_triangle_chain_prefactor_under_tight_margins():
    rng = stream(58)
    m, d = 16, 5.0
    delta = 0.3
    A = sample_margin_perturbed(m, d, delta, rng)
    u, v = abs_sums(A)
    rep = scaling_reduction(A, d, delta)
    pref = np.sqrt(u.max() * v.max() / (u.min() * v.min()))
    assert pref <= 2.0
    assert rep.lhs <= pref * rep.s2 + rep.beta + 1e-8

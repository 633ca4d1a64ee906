import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import centered_offdiag, permutation_matrix, relabel, signed_regular

from exspec import spectra
from exspec.core import SparseStack, SquareMatrix
from exspec.ensembles import (EnsembleSpec, relabeled_entries, relabelings, sample, sample_tables,
                               table_entries)
from exspec.rng import stream
from exspec.spectra import (
    RTOL,
    kernel_floats,
    lanczos_pays,
    lanczos_steps,
    perron_check,
    s2_via_centering,
    second_singular,
    singular_value,
    singular_values,
    spectral_norm,
    spectral_radius,
)


def charpoly_singular_oracle(E):
    """Singular values via Newton's identities on the Gram matrix.

    Builds the characteristic polynomial of E^t E from power-sum traces and
    takes square roots of its real roots; no SVD involved.
    """
    G = E.T @ E
    n = G.shape[0]
    powers = [np.trace(np.linalg.matrix_power(G, k)) for k in range(1, n + 1)]
    coeffs = [1.0]
    for k in range(1, n + 1):
        acc = sum(powers[i - 1] * coeffs[k - i] for i in range(1, k + 1))
        coeffs.append(-acc / k)
    roots = np.roots(coeffs)
    eigs = np.sort(np.clip(roots.real, 0.0, None))[::-1]
    return np.sqrt(eigs)


def test_identity_spectrum():
    s = singular_values(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_diagonal_spectrum_is_sorted_abs():
    s = singular_values(np.diag([3.0, -2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0])


def test_random_matrix_against_charpoly_oracle():
    rng = stream(21)
    E = rng.normal(size=(6, 6))
    s = singular_values(E)
    oracle = charpoly_singular_oracle(E)
    assert np.allclose(s, oracle, atol=1e-8)


def test_rank_one_norms():
    rng = stream(22)
    x = rng.normal(size=7)
    y = rng.normal(size=7)
    E = np.outer(x, y)
    assert spectral_norm(E) == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-10)
    assert second_singular(E) == pytest.approx(0.0, abs=1e-10)


def test_cycle_permutation_is_orthogonal():
    P = permutation_matrix(np.array([1, 2, 0]))
    s = singular_values(P)
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_scaled_identity_second_singular():
    assert second_singular(4.0 * np.eye(5)) == pytest.approx(4.0)


def test_centering_identity_flat_matrix():
    n, d = 6, 2.5
    A = (d / n) * np.ones((n, n))
    assert s2_via_centering(A, d) == pytest.approx(0.0, abs=1e-12)


def test_centering_identity_scaled_identity():
    assert s2_via_centering(5.0 * np.eye(5), 5.0) == pytest.approx(5.0)
    assert second_singular(5.0 * np.eye(5)) == pytest.approx(5.0)


def test_centering_identity_on_permutation_sums():
    rng = stream(23)
    n, d = 50, 3
    A = sum(permutation_matrix(rng.permutation(n)) for _ in range(d))
    assert abs(s2_via_centering(A, d) - second_singular(A)) <= 1e-8


def test_centering_rejects_irregular_matrix():
    A = np.ones((3, 3))
    A[0, 0] = 5.0
    with pytest.raises(ValueError, match="row 1"):
        s2_via_centering(A, 3.0)


def test_centering_error_names_sums_as_plain_floats():
    # Plain Python floats, so the text reads the same under numpy 1 and 2.
    A = np.ones((3, 3))
    A[0, 0] = 5.0
    with pytest.raises(ValueError) as exc:
        s2_via_centering(A, np.float64(3.0))
    assert str(exc.value) == "row 1 has sum 7.0, expected 3.0"
    A = np.ones((3, 3))
    A[1, 0], A[1, 2] = 2.0, 0.0
    with pytest.raises(ValueError) as exc:
        s2_via_centering(A, 3)
    assert str(exc.value) == "column 1 has sum 4.0, expected 3.0"


def test_centering_rejects_a_signed_matrix_with_regular_absolute_sums():
    # The identity needs a nonnegative matrix: here ||A - (3/n) 11^t|| is s1,
    # 2.8568..., not s2 = 2.6416....
    A = signed_regular(10, np.random.default_rng(1))
    assert np.all(np.abs(A).sum(axis=0) == 3) and np.all(np.abs(A).sum(axis=1) == 3)
    s = np.linalg.svd(A, compute_uv=False)
    assert spectral_norm(A - 0.3 * np.ones((10, 10))) == pytest.approx(s[0], rel=1e-12)
    assert s[0] > s[1] + 0.2
    with pytest.raises(ValueError) as exc:
        s2_via_centering(A, 3)
    assert str(exc.value) == "matrix must be entrywise nonnegative"


def test_centered_offdiag_flat_and_scaled_identity():
    n, d = 4, 2.0
    B = centered_offdiag((d / n) * np.ones((n, n)), d)
    assert np.allclose(B.entries, 0.0)
    B2 = centered_offdiag(d * np.eye(n), d)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(B2.entries[off], -d / n)
    assert np.all(np.diag(B2.entries) == 0.0)
    assert B2.zero_diagonal


def test_s2_bounded_by_row_norm_plus_offdiag_norm():
    rng = stream(24)
    n, d = 40, 4
    A = sum(permutation_matrix(rng.permutation(n)) for _ in range(d))
    B = centered_offdiag(A, d)
    row_l2 = np.max(np.linalg.norm(A, axis=1))
    assert second_singular(A) <= row_l2 + spectral_norm(B) + 1e-10


def test_perron_flat_matrix():
    r = perron_check(np.ones((1, 3, 3)), np.ones((1, 3)))
    assert r["rho"].tolist() == [pytest.approx(3.0)]
    assert r["is_eigen"][0] and r["matches_radius"][0]


def test_perron_doubly_regular_ones_vector():
    rng = stream(25)
    n, d = 12, 3
    A = sum(permutation_matrix(rng.permutation(n)) for _ in range(d))
    r = perron_check(A[None], np.ones((1, n)))
    assert r["rho"].tolist() == [pytest.approx(float(d))]
    assert r["matches_radius"][0]


def test_perron_power_iteration_oracle():
    rng = stream(26)
    M = rng.uniform(0.1, 1.0, size=(8, 8))
    x = np.ones(8)
    for _ in range(5000):
        x = M @ x
        x /= np.linalg.norm(x)
    r = perron_check(M[None], x[None], tol=1e-8)
    assert r["is_eigen"][0] and r["matches_radius"][0]
    assert r["rho"].tolist() == [pytest.approx(spectral_radius(M[None])[0], rel=1e-8)]


def test_perron_input_validation():
    with pytest.raises(ValueError):
        perron_check(-np.ones((1, 2, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        perron_check(np.ones((1, 2, 2)), np.array([[1.0, 0.0]]))


def test_singular_values_invariant_under_relabeling():
    rng = stream(27)
    M = SquareMatrix(rng.normal(size=(10, 10)))
    s1 = singular_values(M)
    s2 = singular_values(relabel(M, rng.permutation(10)))
    assert np.allclose(s1, s2, atol=1e-9)


def test_norm_dominates_random_unit_vectors():
    rng = stream(28)
    E = rng.normal(size=(15, 15))
    norm = spectral_norm(E)
    for _ in range(200):
        x = rng.normal(size=15)
        x /= np.linalg.norm(x)
        assert np.linalg.norm(E @ x) <= norm + 1e-9


def test_large_matrix_matches_lapack():
    rng = stream(30)
    E = rng.normal(size=(600, 600)) / np.sqrt(600)
    s_full = np.linalg.svd(E, compute_uv=False)
    assert spectral_norm(E) == pytest.approx(s_full[0], rel=1e-6)
    assert second_singular(E) == pytest.approx(s_full[1], rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 513])
def test_kernels_are_exactly_lapack_at_every_size(n):
    E = stream(31, n).normal(size=(n, n))
    s = np.linalg.svd(E, compute_uv=False)
    assert spectral_norm(E) == s[0]
    assert second_singular(E) == (s[1] if n > 1 else 0.0)



# --- singular_value: the Gram-eigenvalue kernel of the tail engine ----------

def _assert_within_rtol(stack, indices=(0, 1, 2)):
    """singular_value agrees with singular_values to RTOL at each index, and
    is 0.0 past the last singular value."""
    s = singular_values(stack)
    for index in indices:
        got = singular_value(stack, index)
        want = s[:, index] if index < s.shape[1] else np.zeros(len(stack))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= RTOL * want), index


def _kind_samples(n, count):
    """Stacks of ``count`` samples of every ensemble kind."""
    E = stream(40, n).normal(size=(n, n))
    np.fill_diagonal(E, 0.0)
    specs = [
        EnsembleSpec("permuted_base", n, seed=41, base=SquareMatrix(E)),
        EnsembleSpec("separately_exchangeable", n, seed=42,
                     base=SquareMatrix(stream(43, n).normal(size=(n, n)))),
        EnsembleSpec("perm_sum_regular", n, d=3, zero_diagonal=True, seed=44),
        EnsembleSpec("perm_sum_regular", n, d=4, seed=45),
        EnsembleSpec("regular_digraph", n, d=3, seed=46),
    ]
    return [np.array([sample(spec, i).entries for i in range(count)]) for spec in specs]


@pytest.mark.parametrize("n", [9, 10, 32])
def test_singular_value_agrees_on_every_kind(n):
    m = n // 2
    for A in _kind_samples(n, 30):
        _assert_within_rtol(A)
        _assert_within_rtol(A[:, :m, n - m:])  # the corner T
        _assert_within_rtol(A[:, :m, m:])  # the block M12: 4 x 5 at n = 9
        _assert_within_rtol(A[:, m:, :m])  # 5 x 4 at n = 9


def test_singular_value_on_a_640_regular_base():
    A = sample(EnsembleSpec("regular_digraph", 640, d=4, seed=47), 0).entries
    _assert_within_rtol(A[None], indices=(0, 1))
    _assert_within_rtol(A[None, :320, 320:], indices=(0, 1))


def test_singular_value_falls_back_below_its_floor(monkeypatch):
    real = spectra.singular_values
    fallbacks = []  # the stacks singular_value hands to singular_values
    monkeypatch.setattr(spectra, "singular_values",
                        lambda stack: fallbacks.append(stack) or real(stack))
    rng = stream(48)
    x, y = rng.normal(size=(2, 6))
    full = rng.normal(size=(6, 6))
    deficient = full.copy()
    deficient[3] = deficient[0] + deficient[1]  # rank 5
    stack = np.array([np.zeros((6, 6)), np.outer(x, y), full, deficient])
    want = real(stack)

    # s1 of the rank-one, full-rank and rank-5 matrices needs no fallback;
    # the zero matrix, whose Gram eigenvalue is 0, is exactly 0.0.
    got = singular_value(stack, 0)
    assert [len(f) for f in fallbacks] == [1] and got[0] == 0.0
    assert np.all(np.abs(got - want[:, 0]) <= RTOL * want[:, 0])

    # s2 of the zero and rank-one matrices and s6 of the rank-5 one lie below
    # the floor: they are the SVD's values, bit for bit.
    for index, low in ((1, [0, 1]), (5, [0, 1, 3])):
        fallbacks.clear()
        got = singular_value(stack, index)
        assert [f.tobytes() for f in fallbacks] == [stack[low].tobytes()]
        assert got[low].tobytes() == want[low, index].tobytes()
        assert np.all(np.abs(got - want[:, index]) <= RTOL * want[:, index])
    assert singular_value(np.zeros((3, 4, 5)), 1).tolist() == [0.0, 0.0, 0.0]
    assert singular_value(np.ones((2, 1, 3)), 1).tolist() == [0.0, 0.0]


# --- singular_value on sparse stacks: the matrix-free Lanczos kernel --------

def _sparse(stack):
    """A dense (count, rows, cols) stack as a SparseStack."""
    stack = np.asarray(stack, dtype=np.float64)
    member, i, j = np.nonzero(stack)
    return SparseStack(stack.shape, member, i, j, stack[member, i, j])


def _assert_lanczos_within_rtol(stack, indices=(0, 1, 2)):
    """The Lanczos kernel agrees with singular_values to RTOL at each index,
    and is 0.0 past the last singular value."""
    stack = np.asarray(stack, dtype=np.float64)
    s = singular_values(stack)
    for index in indices:
        got = spectra._lanczos(_sparse(stack), index)
        want = s[:, index] if index < s.shape[1] else np.zeros(len(stack))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= RTOL * want), (index, got, want)


def test_lanczos_repeated_top_singular_value():
    # s1 = s2 exactly: a permutation matrix's corner holds 1 at each of its
    # nonzeros, and two equal diagonal blocks repeat every singular value.
    P = permutation_matrix(np.array([7, 0, 9, 1, 5, 2, 8, 3, 6, 4]))
    corner = P[:5, 5:]
    assert corner.sum() == 3 and not np.all(corner.sum(axis=0) == corner.sum(axis=0)[0])
    D = np.diag([3.0, 2.0, 1.0, 0.5])
    twice = np.block([[D, np.zeros((4, 4))], [np.zeros((4, 4)), D]])
    for E, want in ((corner, [1.0, 1.0, 1.0]), (np.roll(np.eye(6), 3, axis=1), [1.0] * 3),
                    (twice, [3.0, 3.0, 2.0])):
        got = [spectra._lanczos(_sparse(E[None]), index)[0] for index in range(3)]
        assert np.allclose(got, want, rtol=RTOL, atol=0.0), got
        _assert_lanczos_within_rtol(E[None])


def test_lanczos_rank_one_and_zero_blocks(monkeypatch):
    rng = stream(50)
    x, y = rng.integers(1, 4, size=(2, 7)).astype(np.float64)
    rank_one = np.outer(x, y)
    real = spectra.singular_values
    fallbacks = []
    monkeypatch.setattr(spectra, "singular_values",
                        lambda stack: fallbacks.append(stack) or real(stack))
    stack = np.array([rank_one, np.zeros((7, 7)), rank_one[::-1]])
    want = real(stack)
    # s1 of the rank-one blocks needs no fallback; the zero block's is 0.0.
    got = spectra._lanczos(_sparse(stack), 0)
    assert [f.tobytes() for f in fallbacks] == [stack[[1]].tobytes()] and got[1] == 0.0
    assert np.all(np.abs(got - want[:, 0]) <= RTOL * want[:, 0])
    # Their s2 lies below the floor: the SVD's values, bit for bit. All three
    # go to the Gram kernel, whose own floor passes them on in one call.
    fallbacks.clear()
    got = spectra._lanczos(_sparse(stack), 1)
    assert [f.tobytes() for f in fallbacks] == [stack[[0, 1, 2]].tobytes()]
    assert got.tobytes() == want[:, 1].tobytes()
    # A wide block runs on B B^t; its fallback still takes the SVD of B.
    wide = np.outer(x, np.arange(1.0, 10.0))[None]
    fallbacks.clear()
    assert spectra._lanczos(_sparse(wide), 1).tobytes() == real(wide)[:, 1].tobytes()
    assert [f.tobytes() for f in fallbacks] == [wide.tobytes()]
    empty = SparseStack((2, 5, 6), *np.zeros((3, 0), dtype=np.int64), np.zeros(0))
    for index in (0, 4, 5):
        assert spectra._lanczos(empty, index).tolist() == [0.0, 0.0]
        assert singular_value(empty, index).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n", [9, 40, 321])
def test_lanczos_on_the_blocks_of_regular_samples(n):
    # Whole samples (one centered run), square corners and the non-square
    # floor(n/2) x ceil(n/2) and ceil(n/2) x floor(n/2) blocks.
    m = n // 2
    count = 6 if n < 100 else 2
    for spec in (EnsembleSpec("perm_sum_regular", n, d=3, zero_diagonal=True, seed=51),
                 EnsembleSpec("perm_sum_regular", n, d=4, seed=52),
                 EnsembleSpec("regular_digraph", n, d=3, seed=53)):
        A = np.array([sample(spec, i).entries for i in range(count)])
        for block in (A, A[:, :m, n - m:], A[:, :m, m:], A[:, m:, :m]):
            _assert_lanczos_within_rtol(block, indices=(0, 1))


def test_lanczos_on_real_blocks_of_both_signs():
    rng = stream(54)
    E = rng.normal(size=(3, 30, 20)) * (rng.random((3, 30, 20)) < 0.2)
    _assert_lanczos_within_rtol(E)
    _assert_lanczos_within_rtol(E.swapaxes(1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.floats(0.05, 1.0),
       st.integers(0, 10**6))
def test_lanczos_on_sparse_integer_blocks(count, rows, cols, density, seed):
    rng = stream(55, seed)
    E = rng.integers(1, 4, size=(count, rows, cols)) * (rng.random((count, rows, cols)) < density)
    _assert_lanczos_within_rtol(E)


def test_lanczos_is_reproducible_and_draws_from_no_stream():
    spec = EnsembleSpec("perm_sum_regular", 400, d=4, zero_diagonal=True, seed=56)
    tables = sample_tables(spec, range(3))
    state = np.random.get_state()[1].copy()
    S = table_entries(tables).block(slice(0, 200), slice(200, 400))
    first = spectra._lanczos(S, 1)
    assert spectra._lanczos(S, 1).tobytes() == first.tobytes()
    # A member's value does not depend on the stack it is computed in.
    for t in range(3):
        one = table_entries(tables[t:t + 1]).block(slice(0, 200), slice(200, 400))
        assert spectra._lanczos(one, 1).tobytes() == first[t:t + 1].tobytes()
    assert np.array_equal(np.random.get_state()[1], state)
    again = sample_tables(spec, range(3))
    assert again.tobytes() == tables.tobytes()


def test_lanczos_at_n_2048_matches_the_dense_svd():
    spec = EnsembleSpec("perm_sum_regular", 2048, d=4, zero_diagonal=True, seed=57)
    Q = sample_tables(spec, [0])
    A = sample(spec, 0).entries
    want = np.linalg.svd(A, compute_uv=False)[1]
    got = singular_value(table_entries(Q), 1)[0]
    assert abs(got - want) <= RTOL * want


def _relabeled_circulant(n, shifts, rng):
    """The (1, d, n) table of sum_j S^{a_j}, the d cyclic shifts by
    ``shifts``, relabeled by a uniform p: Q[j, p[i]] = p[(i + a_j) mod n]."""
    p = rng.permutation(n)
    Q = np.empty((len(shifts), n), dtype=np.int64)
    for j, a in enumerate(shifts):
        Q[j, p] = p[(np.arange(n) + a) % n]
    return Q[None]


def _circulant_singular_values(n, shifts):
    """The singular values of sum_j S^{a_j}, largest first: a circulant is
    normal, so they are the moduli |sum_j w^(k a_j)| of its DFT over every
    k, w = exp(2 pi i / n). s1 = d at k = 0. A modulus at k is repeated at
    -k, except at k = n/2, its own negative: when every shift is odd, that
    one is d again, so s2 = d is simple and s3 is the next value."""
    k = np.arange(n)[:, None]
    moduli = np.abs(np.exp(2j * np.pi * (k * np.asarray(shifts) % n) / n).sum(axis=1))
    return np.sort(moduli)[::-1]


@pytest.mark.parametrize("n", [640, 2048])
def test_lanczos_on_relabeled_circulants_matches_the_dft(monkeypatch, n):
    # An exact s2 at sizes where only Lanczos runs: relabeling a circulant
    # changes no singular value. Random shifts converge within the budget.
    # s2 is mostly repeated (at k and -k), so s3 = s2: the run for s3 follows
    # the deflation of a Ritz vector, and only a fresh start sees the second
    # copy. Odd shifts make the graph bipartite, and then s2 = d at k = n/2
    # is simple, so the fixed odd set checks s3 below it.
    assert lanczos_pays(n, 4.0)
    handed_back = []
    real = spectra.singular_value
    monkeypatch.setattr(spectra, "singular_value",
                        lambda stack, index: handed_back.append(index) or real(stack, index))
    rng = stream(60, n)
    odd = np.array([183, 87, 147, 149])
    for shifts in [rng.choice(np.arange(1, n), size=4, replace=False) for _ in range(3)] + [odd]:
        values = _circulant_singular_values(n, shifts)
        S = table_entries(_relabeled_circulant(n, shifts, rng))
        for index in (1, 2):
            want = values[index]
            got = real(S, index)[0]
            assert abs(got - want) <= RTOL * want, (shifts, index, got, want)
    assert handed_back == []


def test_lanczos_hands_a_clustered_circulant_to_the_gram_kernel(monkeypatch):
    # Shifts 1, 2, 2, 3 put s2^2 and the next eigenvalues of G within 1e-4
    # of each other (relative): Lanczos runs out of its 176 steps at n = 640,
    # and the Gram kernel gives the exact value within RTOL.
    n, shifts = 640, [1, 2, 2, 3]
    S = table_entries(_relabeled_circulant(n, shifts, stream(61)))
    handed_back = []
    real = spectra.singular_value
    monkeypatch.setattr(spectra, "singular_value",
                        lambda stack, index: handed_back.append(type(stack)) or real(stack, index))
    want = _circulant_singular_values(n, shifts)[1]
    got = real(S, 1)[0]
    assert handed_back == [np.ndarray]
    assert abs(got - want) <= RTOL * want, (got, want)


def test_lanczos_stops_at_its_budget_on_a_top_cluster(monkeypatch):
    # d = 2: a union of cycles, whose deflated top eigenvalues crowd within
    # O(1/L^2) of s2^2. This sample needs 304 steps, past the 176 that
    # dim = 640 affords; the member then takes the Gram kernel's value.
    spec = EnsembleSpec("perm_sum_regular", 640, d=2, zero_diagonal=True, seed=7)
    S = table_entries(sample_tables(spec, [0]))
    dense = S.dense()
    steps = []
    real_gram = spectra._gram

    def counted(part):
        apply = real_gram(part)
        return lambda x: steps.append(1) or apply(x)

    monkeypatch.setattr(spectra, "_gram", counted)
    got = singular_value(S, 1)
    assert len(steps) == lanczos_steps(640) == 176
    assert got.tobytes() == singular_value(dense, 1).tobytes()
    # Time order: the budget costs about one Gram kernel, so the member costs
    # about twice the Gram kernel alone (three times without the budget).
    lanczos, gram = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        singular_value(S, 1)
        t1 = time.perf_counter()
        singular_value(dense, 1)
        lanczos.append(t1 - t0)
        gram.append(time.perf_counter() - t1)
    assert min(lanczos) < 3.0 * min(gram), (min(lanczos), min(gram))


def _corner_of_sample(n, d, seed, index):
    """The top-right n/2 corner of a zero-diagonal perm_sum_regular sample,
    as a dense array."""
    A = sample(EnsembleSpec("perm_sum_regular", n, d=d, zero_diagonal=True, seed=seed), index).entries
    return A[:n // 2, n // 2:]


def _doubled(C):
    """blockdiag(C, C): every singular value of C twice."""
    Z = np.zeros_like(C)
    return np.block([[C, Z], [Z, C]])


@pytest.mark.parametrize("n, d, seed, index, doubled", [
    (400, 4, 1, 0, True), (400, 4, 2, 0, True), (400, 4, 4, 0, True), (400, 4, 5, 0, True),
    (640, 2, 106, 4, False), (640, 2, 106, 7, False)])
def test_lanczos_s2_of_a_repeated_s1(monkeypatch, n, d, seed, index, doubled):
    # s1 = s2 on two components of G: a corner C doubled as blockdiag(C, C),
    # and d = 2 corners whose two largest components (as bipartite graphs)
    # are alike: two paths of 9 vertices, s = 2 cos(pi/10) = 1.90211 (the
    # next is a path of 8, 2 cos(pi/9) = 1.87939), at index 4, and two
    # cycles, s = 2, at index 7. The top Ritz vector lies on both
    # components, so it fails the certificate, and the run after its
    # deflation starts afresh and finds the second copy. The sample is chosen
    # for that shape, so the test asserts the failed certificate too.
    C = _corner_of_sample(n, d, seed, index)
    E = _doubled(C) if doubled else C
    assert lanczos_pays(len(E), np.count_nonzero(E) / len(E))
    want = np.linalg.svd(E, compute_uv=False)[1]
    runs = _counted_runs(monkeypatch)
    got = singular_value(_sparse(E[None]), 1)[0]
    assert [r.tolist() for r in runs[:1]] == [[False]] and len(runs) >= 2, runs
    assert abs(got - want) <= RTOL * want, (got, want)


def test_the_certificate_asks_for_one_component_of_g():
    # G of blockdiag(ones(2, 2), ones(2, 2)) has the components {0, 1} and
    # {2, 3}; G of a bidiagonal B is a path, reached one vertex per product.
    gram = spectra._gram(_sparse(np.kron(np.eye(2), np.ones((2, 2)))[None]))
    one = lambda x, tol: spectra._one_component(gram, np.array([0]), np.array([x]),
                                                np.array([tol])).tolist()
    assert one([0.7, 0.7, 0.0, 0.0], 1e-9) == [True]
    assert one([0.5, 0.5, 0.5, 0.5], 1e-9) == [False]
    assert one([0.7, 0.7, 1e-12, 0.0], 1e-9) == [True]  # below tol: noise
    assert one([0.7, 0.7, 0.0, 0.0], np.inf) == [False]  # nothing above tol
    n = spectra._SPREAD + 2
    path = spectra._gram(_sparse((np.eye(n) + np.eye(n, k=1))[None]))
    for far, connected in ((n - 2, True), (n - 1, False)):
        x = np.zeros((1, n))
        x[0, 0], x[0, far] = 1.0, 0.5
        assert spectra._one_component(path, np.array([0]), x, np.array([1e-9])).tolist() == [connected]


def _counted_runs(monkeypatch):
    """Record, for each Lanczos run, which of its members it found s2 for."""
    runs = []
    real = spectra._top_eigenpair

    def counted(*args):
        out = real(*args)
        runs.append(out[-1])
        return out

    monkeypatch.setattr(spectra, "_top_eigenpair", counted)
    return runs


def test_lanczos_takes_one_run_for_s2_of_certified_corners(monkeypatch):
    # A chunk of four corners of a relabeled 640-node 4-regular base, as the
    # engine cuts them: each top Ritz vector lies on one component of G, so
    # s2 comes from the same run, and no deflated run follows.
    base = sample(EnsembleSpec("regular_digraph", 640, d=4, seed=62), 0)
    spec = EnsembleSpec.permuted(base, seed=63)
    rows, _ = relabelings(spec, range(4))
    S = relabeled_entries(base.nonzeros, rows, rows).block(slice(0, 320), slice(320, 640))
    runs = _counted_runs(monkeypatch)
    got = singular_value(S, 1)
    assert [r.tolist() for r in runs] == [[True] * 4]
    want = singular_values(S.dense())[:, 1]
    assert np.all(np.abs(got - want) <= RTOL * want), (got, want)


def test_lanczos_member_values_do_not_depend_on_the_mixed_stack(monkeypatch):
    # One 400 x 400 stack of a certified corner, a doubled corner that fails
    # the certificate and a regular sample (exact deflation, no certificate):
    # three routes, each member bit for bit its value alone.
    corner = _corner_of_sample(800, 4, 64, 0)
    doubled = _doubled(_corner_of_sample(400, 4, 1, 0))
    regular = sample(EnsembleSpec("perm_sum_regular", 400, d=4, zero_diagonal=True, seed=65), 0).entries
    stack = np.array([corner, doubled, regular])
    runs = _counted_runs(monkeypatch)
    got = spectra._lanczos(_sparse(stack), 1)
    # The first run certifies the corner only; the doubled corner and the
    # regular sample take the deflated run.
    assert [r.tolist() for r in runs] == [[True, False], [False, False]]
    for t in range(3):
        assert spectra._lanczos(_sparse(stack[t:t + 1]), 1).tobytes() == got[t:t + 1].tobytes()
    want = singular_values(stack)[:, 1]
    assert np.all(np.abs(got - want) <= RTOL * want), (got, want)


def test_lanczos_pays_only_on_large_sparse_blocks():
    assert not lanczos_pays(32, 2.0)  # the 32 x 32 corners of tail norm at n = 64
    assert lanczos_pays(320, 2.0) and lanczos_pays(640, 4.0)
    assert not lanczos_pays(640, 64.0)


def test_singular_value_picks_its_kernel_from_the_sparse_stack(monkeypatch):
    # Below the crossover a SparseStack takes the Gram kernel on its scatter,
    # bit for bit; at or above it, the Lanczos kernel. The choice reads the
    # stack's own entries per row: 4 for whole 4-regular samples, about 2
    # for their corners.
    lanczos = []
    real = spectra._lanczos
    monkeypatch.setattr(spectra, "_lanczos",
                        lambda stack, index: lanczos.append(stack.shape) or real(stack, index))
    # n, and whether the whole samples and their corners pay.
    for n, pays in ((64, (False, False)), (318, (False, False)), (320, (True, False)),
                    (640, (True, True))):
        spec = EnsembleSpec("perm_sum_regular", n, d=4, zero_diagonal=True, seed=58)
        S = table_entries(sample_tables(spec, range(2)))
        m = n // 2
        for stack, lanczos_runs in zip((S, S.block(slice(0, m), slice(n - m, n))), pays):
            for index in (0, 1):
                lanczos.clear()
                got = singular_value(stack, index)
                if lanczos_runs:
                    assert lanczos == [stack.shape]
                    assert got.tobytes() == real(stack, index).tobytes()
                else:
                    assert lanczos == []
                    assert got.tobytes() == singular_value(stack.dense(), index).tobytes()
    # Twelve copies of one 640-node sample at the same positions: 48 entries
    # per row, past 640 / 16, so the Gram kernel takes their scatter.
    spec = EnsembleSpec("perm_sum_regular", 640, d=4, zero_diagonal=True, seed=59)
    Q = np.concatenate([sample_tables(spec, [0])[0]] * 12)[None]
    S = table_entries(Q)
    lanczos.clear()
    assert singular_value(S, 1).tobytes() == singular_value(S.dense(), 1).tobytes()
    assert lanczos == []


def test_kernel_floats_is_the_working_set_of_the_chosen_kernel():
    assert kernel_floats(32, 32, 2.0) == 32 * 32  # Gram: the dense block
    assert kernel_floats(20, 21, 2.0) == 20 * 21
    assert kernel_floats(320, 320, 2.0) == 320 * (lanczos_steps(320) + 2)  # Lanczos basis
    assert kernel_floats(640, 641, 4.0) == 640 * (lanczos_steps(640) + 2)
    assert kernel_floats(640, 640, 64.0) == 640 * 640
    # s1 against floors adds the Perron bracket's G, and its square up to 32.
    assert kernel_floats(32, 32, 2.0, floors=True) == 32 * 32 + 2 * 32 * 32
    assert kernel_floats(20, 21, 2.0, floors=True) == 20 * 21 + 2 * 20 * 20
    assert kernel_floats(64, 65, 2.0, floors=True) == 64 * 65 + 64 * 64
    assert kernel_floats(320, 320, 2.0, floors=True) == 320 * (lanczos_steps(320) + 2)


# --- s1 against floors: the certified Perron bracket ------------------------

def _cells(values, floors):
    """The number of floors each value reaches (value >= floor): its cell."""
    return np.searchsorted(np.sort(np.ravel(floors)), values, side="right")


@st.composite
def _nonnegative_member(draw, rows, cols):
    """A nonnegative rows x cols matrix (rows, cols >= 2) of one of the
    shapes that test the bracket: all zero, sparse with zero rows and
    columns, two equal components (a repeated top), two components whose
    tops differ by a factor 1 + 2^-j (power steps converge slowly), two
    different components, or k times a partial permutation (s1 = k, an
    integer)."""
    shape = draw(st.sampled_from(["zero", "sparse", "twins", "near twins", "components",
                                  "permutation"]))

    def block(h, w):
        cells = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.5, 3.0])
        return np.array(draw(st.lists(cells, min_size=h * w, max_size=h * w))).reshape(h, w)

    E = np.zeros((rows, cols))
    h, w = rows // 2, cols // 2
    if shape == "sparse":
        E[:] = block(rows, cols)
    elif shape in ("twins", "near twins"):
        E[:h, :w] = E[h:2 * h, w:2 * w] = block(h, w)
        if shape == "near twins":
            E[h:2 * h, w:2 * w] *= 1.0 + 2.0 ** -draw(st.integers(2, 12))
    elif shape == "components":
        E[:h, :w] = block(h, w)
        E[h:, w:] = block(rows - h, cols - w)
    elif shape == "permutation":
        r = min(rows, cols)
        E[np.arange(r), draw(st.permutations(range(r)))] = draw(st.integers(1, 4))
    return E


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 9), st.integers(2, 9), st.integers(1, 5))
def test_bracket_values_lie_in_the_cell_of_the_exact_value(data, rows, cols, count):
    from exspec.tails import C_GRID, _floors

    stack = np.array([data.draw(_nonnegative_member(rows, cols)) for _ in range(count)])
    want = singular_value(stack, 0)
    # Thresholds at the integers (where a permutation's s1 lies exactly), at
    # a member's own exact s1, and anywhere, each times every grid constant.
    member = data.draw(st.integers(0, count - 1))
    extra = data.draw(st.lists(st.floats(0.0, 8.0), max_size=3))
    thresholds = np.array([1.0, 2.0, 3.0, 4.0, want[member], *extra])
    floors = _floors(np.concatenate([[1.0], C_GRID])[:, None] * thresholds)
    got = singular_value(stack, 0, floors)
    assert np.all(got <= want), (got, want)
    assert np.array_equal(_cells(got, floors), _cells(want, floors)), (got, want)


def test_floors_leave_every_other_route_bit_for_bit(monkeypatch):
    from exspec.tails import C_GRID, _floors

    bracketed = []  # the stacks that reach the bracket
    real = spectra._perron_bracket
    monkeypatch.setattr(spectra, "_perron_bracket",
                        lambda E, floors: bracketed.append(len(E)) or real(E, floors))
    floors = _floors(C_GRID * 4.0)
    signed = stream(72).normal(size=(6, 7, 5))
    nonnegative = np.abs(signed)
    # floors=None is the Gram kernel as it stands: one matmul, one eigvalsh.
    G = np.swapaxes(nonnegative, 1, 2) @ nonnegative
    assert (singular_value(nonnegative, 0).tobytes()
            == np.sqrt(np.linalg.eigvalsh(G)[:, -1]).tobytes())
    # Signed members, alone and among nonnegative ones, are checked one by one.
    exact = singular_value(signed, 0)
    assert singular_value(signed, 0, floors).tobytes() == exact.tobytes()
    mixed = singular_value(np.concatenate([signed, nonnegative]), 0, floors)
    assert mixed[:6].tobytes() == exact.tobytes()
    assert np.array_equal(_cells(mixed[6:], floors),
                          _cells(singular_value(nonnegative, 0), floors))
    assert bracketed == [6, 12]
    # Index 1 and later, and the Lanczos kernel's members, never reach it.
    bracketed.clear()
    for index in (1, 2):
        assert (singular_value(nonnegative, index, floors).tobytes()
                == singular_value(nonnegative, index).tobytes())
    spec = EnsembleSpec("perm_sum_regular", 640, d=4, zero_diagonal=True, seed=73)
    corners = table_entries(sample_tables(spec, range(2))).block(slice(0, 320), slice(320, 640))
    assert lanczos_pays(320, corners.value.size / (2 * 320))
    assert (singular_value(corners, 0, floors).tobytes()
            == singular_value(corners, 0).tobytes())
    assert bracketed == []


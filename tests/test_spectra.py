import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import centered_offdiag, permutation_matrix, relabel, signed_regular

from exspec import spectra
from exspec.core import SparseStack, SquareMatrix
from exspec.ensembles import EnsembleSpec, sample, table_entries
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
    tables = np.array([sample(spec, i, table=True) for i in range(3)])
    state = np.random.get_state()[1].copy()
    S = table_entries(tables).block(slice(0, 200), slice(200, 400))
    first = spectra._lanczos(S, 1)
    assert spectra._lanczos(S, 1).tobytes() == first.tobytes()
    # A member's value does not depend on the stack it is computed in.
    for t in range(3):
        one = table_entries(tables[t:t + 1]).block(slice(0, 200), slice(200, 400))
        assert spectra._lanczos(one, 1).tobytes() == first[t:t + 1].tobytes()
    assert np.array_equal(np.random.get_state()[1], state)
    again = np.array([sample(spec, i, table=True) for i in range(3)])
    assert again.tobytes() == tables.tobytes()


def test_lanczos_at_n_2048_matches_the_dense_svd():
    spec = EnsembleSpec("perm_sum_regular", 2048, d=4, zero_diagonal=True, seed=57)
    Q = sample(spec, 0, table=True)[None]
    A = sample(spec, 0).entries
    want = np.linalg.svd(A, compute_uv=False)[1]
    got = singular_value(table_entries(Q), 1)[0]
    assert abs(got - want) <= RTOL * want


def test_lanczos_stops_at_its_budget_on_a_top_cluster(monkeypatch):
    # d = 2: a union of cycles, whose deflated top eigenvalues crowd within
    # O(1/L^2) of s2^2. This sample needs 272 steps, past the 176 that
    # dim = 640 affords; the member then takes the Gram kernel's value.
    spec = EnsembleSpec("perm_sum_regular", 640, d=2, zero_diagonal=True, seed=7)
    S = table_entries(sample(spec, 0, table=True)[None])
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
        S = table_entries(np.array([sample(spec, i, table=True) for i in range(2)]))
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
    Q = np.concatenate([sample(spec, 0, table=True)] * 12)[None]
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

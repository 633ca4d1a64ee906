"""Singular values, the spectral norm, and identities around s2.

For nonnegative doubly regular matrices (all row and column sums equal to
d) the second singular value satisfies s2(A) = ||A - (d/n) 11^t||, which
this module exposes both as a computation and as a checkable identity.

``singular_value``, the tail engine's one singular-value call, picks its
kernel itself (Gram or Lanczos), and ``kernel_floats`` is the working set
of that choice, which the engine budgets its chunks by.
"""

import math

import numpy as np

from .core import SparseStack, abs_sums, as_entries, row_norms

__all__ = [
    "RTOL",
    "singular_values",
    "singular_value",
    "lanczos_pays",
    "lanczos_steps",
    "kernel_floats",
    "spectral_norm",
    "second_singular",
    "s2_via_centering",
    "perron_check",
    "spectral_radius",
]


# Relative accuracy of singular_value against singular_values. The tail
# comparisons count a statistic within RTOL |tau| below a threshold tau as
# reaching it, so no count depends on which of the two ran.
RTOL = 1e-10


def singular_values(M) -> np.ndarray:
    """All singular values in nonincreasing order, clipped at 0; one row per
    matrix for a (count, rows, cols) stack, each bit-identical to that
    matrix's own SVD."""
    return np.clip(np.linalg.svd(as_entries(M), compute_uv=False), 0.0, None)


def singular_value(stack, index: int) -> np.ndarray:
    """s_index of each matrix of a (count, rows, cols) stack, or 0.0 where a
    matrix has fewer singular values; within RTOL of singular_values.

    A dense stack takes the Gram kernel below. A ``SparseStack`` takes the
    matrix-free Lanczos kernel (``_lanczos``) where ``lanczos_pays`` for its
    smaller side and its own entries per row, and otherwise goes to the Gram
    kernel as its scatter (``SparseStack.dense``). The Gram kernel sends a
    matrix whose s_index lies below its stated accuracy floor to
    singular_values, so an all-zero matrix gives exactly 0.0; the Lanczos
    kernel sends one below its own floor, or out of steps, to the Gram
    kernel.

    Gram kernel: s_index is the square root of an eigenvalue lambda of the
    smaller Gram matrix G (E^t E or E E^t), from one batched matmul and one
    batched eigvalsh; accurate when s_index is not small against s1 (Golub
    & Van Loan, Matrix Computations, 8.6). Rounding in G moves lambda by
    about max(rows, cols) eps trace(G) at most, and eigvalsh's backward
    error by about min(rows, cols) eps ||G||, with ||G|| <= trace(G) =
    ||E||_F^2. So sqrt(lambda) is within RTOL when lambda >= (rows + cols)
    eps trace(G) / (2 RTOL).
    """
    if isinstance(stack, SparseStack):
        count, rows, cols = stack.shape
        if lanczos_pays(min(rows, cols), stack.value.size / max(1, count * rows)):
            return _lanczos(stack, index)
        stack = stack.dense()
    E = np.asarray(stack, dtype=np.float64)
    count, rows, cols = E.shape
    k = min(rows, cols)
    if index >= k:
        return np.zeros(count)
    Et = np.swapaxes(E, 1, 2)
    G = Et @ E if cols <= rows else E @ Et
    lam = np.linalg.eigvalsh(G)[:, k - 1 - index]
    floor = (rows + cols) * np.finfo(np.float64).eps * np.trace(G, axis1=1, axis2=2) / (2.0 * RTOL)
    s = np.sqrt(np.maximum(lam, 0.0))
    low = lam <= floor
    if np.any(low):
        s[low] = singular_values(E[low])[:, index]
    return s


def lanczos_pays(dim: int, per_row: float) -> bool:
    """Whether the Lanczos kernel beats the Gram kernel on a block whose
    smaller side is ``dim`` and whose rows hold ``per_row`` nonzeros on
    average: dim >= 320 and per_row <= dim / 16.

    Measured on 2 cores (numpy 2.4, bundled OpenBLAS) with s1 and s2 of
    d-regular perm_sum_regular samples (per_row = d) and of their corners
    (per_row = d/2), d = 4..32, one block at a time:
    - s2 of a whole sample: Lanczos takes 0.5-0.9 of the Gram time at
      dim = 384, 0.2-0.4 at 640 and 768 up to 16 nonzeros per row (640,
      d = 4: 5.8 ms against 31); at 256 it is 0.6-1.4;
    - s2 of a corner (two runs): 0.6-1.1 at dim = 320 (0.5-0.7 for four
      corners in lockstep), 0.8-1.7 at 256;
    - s1 of a corner: below 0.5 from dim = 288 on.
    Past dim / 16 nonzeros per row the products of the ~100 steps cost
    what the O(dim^3) eigvalsh saves (s2 of a 320 corner at 16 per row:
    1.07; a 320 whole sample at 32 per row: 1.17).
    """
    return dim >= 320 and per_row * 16 <= dim


def lanczos_steps(dim: int) -> int:
    """The Lanczos steps a member whose smaller side is ``dim`` can afford:
    dim // 4 + 16, about where one run costs what the Gram kernel does.

    Measured as ``lanczos_pays``, one member at a time, on s2 of d = 4
    samples with the convergence test switched off, the crossover is 93
    steps at dim = 320, 109 at 384, 124 at 448, 151 at 512, 178 at 640,
    206 at 768 and 240 at 896 (177 at 640 for four members in lockstep).
    A run of k steps costs about k^2 (its reorthogonalisation against the
    k vectors so far, and its Ritz checks), so the runs of one member share
    the budget by squares: k_1^2 + k_2^2 + ... <= lanczos_steps(dim)^2. A
    member that has not converged by then goes to the Gram kernel, so it
    costs at most about twice what the Gram kernel alone would.
    """
    return dim // 4 + 16


def kernel_floats(rows: int, cols: int, per_row: float) -> int:
    """The floats ``singular_value`` works in on a rows x cols matrix with
    ``per_row`` entries per row: where ``lanczos_pays``, the largest Lanczos
    basis it keeps (plus the start and deflated vectors), else the matrix."""
    k = min(rows, cols)
    return k * (lanczos_steps(k) + 2) if lanczos_pays(k, per_row) else rows * cols


# The start vector's generator: a fixed seed, so that the kernel draws from
# no trial stream and two calls agree bit for bit.
_START_SEED = 20161
_CHECK = 16  # Lanczos steps between two convergence checks


def _lanczos(stack: SparseStack, index: int) -> np.ndarray:
    """s_index of each member of a sparse stack, without forming a dense
    matrix: the square root of the top eigenvalue of the smaller Gram
    operator G (B^t B or B B^t) on the complement of its top ``index``
    eigenvectors, by Lanczos with full reorthogonalisation (Golub & Van
    Loan, ch. 10; Parlett, The Symmetric Eigenvalue Problem).

    Those eigenvectors are deflated one at a time. The first is exactly
    1/sqrt(dim) when B is nonnegative and its row sums are all equal, and
    so are its column sums (the centering identity: G 1 = r c 1 and ||B||^2
    <= r c); otherwise it, and every later one, is the top Ritz vector of
    the run before. Each run starts afresh on the complement, so a
    repeated singular value (s1 = s2) is found again.

    Each run starts from one fixed vector and stops when its residual
    rho = beta_k |y_k| is at most RTOL/2 of the top Ritz value theta: then
    an eigenvalue of G lies within rho of theta (the top one, unless the
    start vector is orthogonal to its eigenvector). A deflated vector at
    residual rho moves the next eigenvalue by at most min(g, rho^2 / g), g
    the gap between the two, which is below RTOL/2 relative whenever that
    eigenvalue is above RTOL/2 of the top one, as it is above the floor.
    Rounding: B x and B^t y are sums of at most c_r and c_c terms (the
    largest row and column counts), and Ritz values on an orthonormal basis
    of length-dim vectors carry about dim eps ||G||, with ||G|| <= S^2, the
    largest row sum of |B| times its largest column sum (Schur). Above the
    floor (dim + c_r + c_c) eps S^2 / RTOL that is at most RTOL lambda.
    So sqrt(lambda) is within RTOL. A member at or below the floor, or not
    converged within its ``lanczos_steps`` budget (a tight cluster at the
    top of the spectrum, as in the unions of cycles of d = 2), takes its
    dense matrix to the Gram kernel, whose own floor passes it on to
    singular_values where need be; no other member forms a dense matrix.
    """
    count, rows, cols = stack.shape
    if index >= min(rows, cols):
        return np.zeros(count)
    S = stack.transpose() if cols > rows else stack  # G = B^t B on the smaller side
    _, rows, dim = S.shape
    u, v = abs_sums(S)
    c_r, c_c = S.sums()
    eps = np.finfo(np.float64).eps
    schur = u.max(axis=1) * v.max(axis=1)  # >= ||B||^2
    floor = (dim + c_r.max(axis=1) + c_c.max(axis=1)) * eps * schur / RTOL
    nonnegative = np.bincount(S.member[S.value < 0], minlength=count) == 0
    regular = nonnegative & (u == u[:, :1]).all(axis=1) & (v == v[:, :1]).all(axis=1)

    start = np.random.default_rng(_START_SEED).standard_normal(dim)
    budget = lanczos_steps(dim) ** 2
    spent = np.zeros(count, dtype=np.int64)  # squared steps of the runs so far
    lam = np.zeros(count)
    vectors = np.zeros((count, index + 1, dim))
    ok = np.ones(count, dtype=bool)
    for level in range(index + 1):
        run = ok.copy()
        if level == 0:
            lam[regular] = u[regular, 0] * v[regular, 0]
            vectors[regular, 0] = 1.0 / np.sqrt(dim)
            run &= ~regular
        if np.any(run):
            part = S if run.all() else S.take(run)
            steps = min(dim - level, math.isqrt(budget - int(spent[run].max())))
            lam[run], vectors[run, level], ok[run], taken = _top_eigenpair(
                _gram(part), vectors[run, :level], start, steps)
            spent[run] += taken * taken
    s = np.sqrt(np.maximum(lam, 0.0))
    low = ~ok | (lam <= floor)
    if np.any(low):
        s[low] = singular_value(stack.take(low).dense(), index)
    return s


def _gram(S: SparseStack):
    """x -> B^t B x for each member B of S, x of shape (count, cols)."""
    count, rows, cols = S.shape
    r = S.member * rows + S.row
    c = S.member * cols + S.col

    def apply(x):
        y = np.bincount(r, S.value * x.ravel()[c], count * rows)
        z = np.bincount(c, S.value * y[r], count * cols)
        return z.astype(np.float64, copy=False).reshape(count, cols)

    return apply


def _orthonormalise(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Each row of x with its components along the rows of basis removed
    (twice, classical Gram-Schmidt), scaled to unit length."""
    for _ in range(2):
        x = x - np.matmul(np.matmul(basis, x[:, :, None]).swapaxes(1, 2), basis)[:, 0]
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norm > 0.0, norm, 1.0)


def _top_eigenpair(gram, locked: np.ndarray, start: np.ndarray, steps: int):
    """Top eigenvalue and eigenvector of G on the complement of the rows of
    ``locked`` (count, L, dim), for each member, by at most ``steps`` steps
    of Lanczos from ``start`` with full reorthogonalisation; whether each
    member converged, and the steps taken."""
    count, L, dim = locked.shape
    # Room for every step: pages no step writes are never touched, so the
    # memory in use follows the steps taken.
    V = np.empty((count, L + steps + 1, dim))
    V[:, :L] = locked
    V[:, L] = _orthonormalise(np.broadcast_to(start, (count, dim)), locked)
    alpha = np.empty((count, steps))
    beta = np.empty((count, steps))
    lam = np.zeros(count)
    vector = np.zeros((count, dim))
    done = np.zeros(count, dtype=bool)
    taken = 0
    for j in range(steps):
        taken = j + 1
        k = L + taken  # basis vectors so far, the locked ones first
        basis = V[:, :k]
        w = gram(V[:, k - 1])
        h = np.matmul(basis, w[:, :, None])
        alpha[:, j] = h[:, k - 1, 0]
        w -= np.matmul(basis.swapaxes(1, 2), h)[:, :, 0]
        # Twice, which is enough to keep the basis orthonormal.
        w -= np.matmul(basis.swapaxes(1, 2), np.matmul(basis, w[:, :, None]))[:, :, 0]
        b = np.sqrt(np.einsum("ij,ij->i", w, w))
        beta[:, j] = b
        if (j + 1) % _CHECK == 0 or j == steps - 1:
            todo = ~done
            T = np.zeros((int(np.count_nonzero(todo)), j + 1, j + 1))
            i = np.arange(j + 1)
            T[:, i, i] = alpha[todo, :j + 1]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta[todo, :j]
            theta, Y = np.linalg.eigh(T)
            y = Y[:, :, -1]
            rho = b[todo] * np.abs(y[:, -1])
            new = rho <= (RTOL / 2.0) * np.maximum(theta[:, -1], 0.0)
            idx = np.flatnonzero(todo)[new]
            lam[idx] = theta[new, -1]
            for t, y_t in zip(idx, y[new]):  # the Ritz vectors, without a copy of V
                vector[t] = y_t @ V[t, L:k]
            done[idx] = True
            if done.all():
                break
        # After a breakdown (b = 0, an invariant subspace) w is 0 and stays 0.
        np.divide(w, np.maximum(b, np.finfo(np.float64).tiny)[:, None], out=V[:, k])
    vector[done] = _orthonormalise(vector[done], locked[done])
    return lam, vector, done, taken


# The tail engine takes its per-trial singular values from singular_value:
# the Gram kernel on small or dense blocks, matrix-free Lanczos on large
# sparse ones, both within RTOL, whose last bits may move with the BLAS
# thread count. The values a command writes out (analyze's s1 and s2, ||M||,
# the scaling and verify oracles) come from the full dense SVD, so that
# they keep LAPACK's bits whatever kernel the engine picks.
def spectral_norm(M) -> float:
    return float(singular_values(M)[0])


def second_singular(M) -> float:
    """s2, or 0.0 when there is only one singular value (or none)."""
    s = singular_values(M)
    return float(s[1]) if s.size > 1 else 0.0


def s2_via_centering(A, d: float) -> float:
    """s2 of a nonnegative doubly regular matrix as ||A - (d/n) 11^t||.

    Requires all row and column sums to equal d (within 1e-8 * max(1, |d|));
    raises naming the first offending row or column otherwise. Then requires
    a nonnegative matrix (Perron: s1 = d on 1/sqrt(n)); on a signed one the
    centered norm can be s1.
    """
    E = as_entries(A)
    n = E.shape[0]
    atol = 1e-8 * max(1.0, abs(d))
    u, v = abs_sums(E)
    bad_v = np.nonzero(np.abs(v - d) > atol)[0]
    if bad_v.size:
        raise ValueError(f"row {bad_v[0] + 1} has sum {float(v[bad_v[0]])!r}, "
                         f"expected {float(d)!r}")
    bad_u = np.nonzero(np.abs(u - d) > atol)[0]
    if bad_u.size:
        raise ValueError(f"column {bad_u[0] + 1} has sum {float(u[bad_u[0]])!r}, "
                         f"expected {float(d)!r}")
    if np.any(E < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    return spectral_norm(E - (d / n) * np.ones((n, n)))


def spectral_radius(M) -> np.ndarray:
    """The largest eigenvalue modulus of each matrix of a (count, n, n)
    stack."""
    return np.max(np.abs(np.linalg.eigvals(as_entries(M))), axis=-1)


def perron_check(M, x, tol: float = 1e-8) -> dict:
    """Positive-eigenvector check on each matrix of a (count, n, n) stack M,
    with x a (count, n) array, one vector per matrix: for nonnegative M, an
    eigenvector with strictly positive coordinates must carry the spectral
    radius.

    rho is estimated as the median of the componentwise ratios (Mx)_i/x_i,
    robust to one noisy coordinate; the residual test is authoritative.
    Each value is an array with one entry per matrix, each bit for bit that
    of its matrix alone.
    """
    E = as_entries(M)
    x = np.asarray(x, dtype=np.float64)
    if np.any(E < 0):
        raise ValueError("matrix must be entrywise nonnegative")
    if E.ndim != 3 or x.shape != E.shape[:-1]:
        raise ValueError(f"x of shape {x.shape} must be a (count, n) stack of vectors "
                         f"matching the matrices of shape {E.shape}")
    if np.any(x <= 0):
        raise ValueError("x must have strictly positive coordinates")
    Mx = (E @ x[:, :, None])[:, :, 0]
    rho = np.median(Mx / x, axis=1)
    is_eigen = row_norms(Mx - rho[:, None] * x) <= tol * row_norms(x)
    # The radius of the eigenvector matrices only, as each alone would be
    # checked: a matrix that fails the residual test is not decomposed.
    radius = np.full(rho.shape, np.nan)
    radius[is_eigen] = spectral_radius(E[is_eigen])
    matches_radius = is_eigen & (np.abs(rho - radius) <= tol * np.maximum(1.0, np.abs(rho)))
    return {"rho": rho, "is_eigen": is_eigen, "matches_radius": matches_radius}

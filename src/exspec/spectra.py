"""Singular values, the spectral norm, and identities around s2.

For nonnegative doubly regular matrices (all row and column sums equal to
d) the second singular value satisfies s2(A) = ||A - (d/n) 11^t||, which
this module exposes both as a computation and as a checkable identity.

``singular_value``, the tail engine's one singular-value call, picks its
kernel itself (Gram or Lanczos), and ``kernel_floats`` is the working set
of that choice, which the engine budgets its chunks by. Given the floors at
which its caller's counts change, it takes s1 of a nonnegative block that
the Gram kernel would take from a certified Perron bracket where no floor
lies in the bracket, a value in the cell of the exact one
(``_perron_bracket``), and only the rest to the Gram kernel.
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
    "perron_steps",
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


def singular_value(stack, index: int, floors=None) -> np.ndarray:
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

    ``floors``, if given, are the values at which a caller's counts change:
    it reads a value x only through which floors f have x >= f (its cell).
    Then s1 of a nonnegative matrix that the Gram kernel would take may
    come from a certified bracket instead (``_perron_bracket``): a member
    whose bracket holds no floor gets the bracket's lower end, which lies in
    the cell of any value the Gram kernel may return and is at most that
    value. Every other member, and every signed one, index >= 1 and the
    Lanczos kernel's members, take the kernels above bit for bit.

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
    if floors is not None and index == 0:
        s, decided = _perron_bracket(E, np.sort(np.ravel(floors)))
        if not decided.all():
            s[~decided] = singular_value(E[~decided], 0)
        return s
    Et = np.swapaxes(E, 1, 2)
    G = Et @ E if cols <= rows else E @ Et
    lam = np.linalg.eigvalsh(G)[:, k - 1 - index]
    floor = (rows + cols) * np.finfo(np.float64).eps * np.trace(G, axis1=1, axis2=2) / (2.0 * RTOL)
    s = np.sqrt(np.maximum(lam, 0.0))
    low = lam <= floor
    if np.any(low):
        s[low] = singular_values(E[low])[:, index]
    return s


def _perron_bracket(E: np.ndarray, floors: np.ndarray):
    """A lower bound on s1 of each matrix of a dense stack, and whether it
    is decided: the matrix is nonnegative and no value of the sorted
    ``floors`` lies in its bracket (lo, hi], which holds s1 and any value
    within RTOL of it.

    For B >= 0, s1^2 is the Perron root of the nonnegative G = B^t B (or B
    B^t, the smaller side), and a vector x > 0 brackets it: the Rayleigh
    quotient x^t G x / x^t x is at most lambda_max(G), and the
    Collatz-Wielandt ratio max_i (G x)_i / x_i at least rho(G) (Meyer,
    Matrix Analysis and Applied Linear Algebra, 8.3). x comes from
    ``perron_steps``: products with a trace-normalised power of G, from x =
    1. An index i with G_ii = 0 is a zero row and column of G, where x_i =
    (G x)_i = 0; the ratio skips it, as the root of G without it is the same.

    The bounds are taken on G / trace(G), scaled in place, and multiplied
    back by trace(G). Rounding: G's entries are sums of N = max(rows, cols)
    nonnegative products, so the computed G lies within N eps of G
    entrywise, which moves each bound by at most that much relatively (the
    Perron root is monotone in the entries); the scaling and its undoing,
    G x, x^t G x and x^t x add 3k + 6 eps more (k the side of G). So
    ``slack`` = (N + 3k + 10) eps covers the bounds on lambda, and widening
    s by RTOL + slack covers the Gram kernel and the SVD. Underflow moves
    nothing by as much where trace(G) lies in [2^-500, 2^500] and every live
    x_i >= 2^-500 of max(x); any other matrix is undecided.
    """
    count, rows, cols = E.shape
    trace = np.einsum("ijk,ijk->i", E, E)  # trace(G) = ||B||_F^2
    decided = (E >= 0.0).all(axis=(1, 2)) & (trace >= 2.0**-500) & (trace <= 2.0**500)
    lo = np.zeros(count)
    if not decided.any():
        return lo, decided
    B, trace = (E, trace) if decided.all() else (E[decided], trace[decided])
    Bt = np.swapaxes(B, 1, 2)
    G = Bt @ B if cols <= rows else B @ Bt
    k = G.shape[1]
    live = np.diagonal(G, axis1=1, axis2=2) > 0.0
    G /= trace[:, None, None]  # in place: the bounds are on G / trace(G)
    squarings, products = perron_steps(k)
    P = G
    for _ in range(squarings):
        P = P @ P
        P /= np.trace(P, axis1=1, axis2=2)[:, None, None]
    x = np.ones((len(B), k, 1))
    for _ in range(products):
        x = P @ x
    x = x[:, :, 0] / x.max(axis=(1, 2))[:, None]
    y = (G @ x[:, :, None])[:, :, 0]
    x_live = np.where(live, x, 1.0)
    eps = np.finfo(np.float64).eps
    slack = (max(rows, cols) + 3 * k + 10) * eps
    widen = RTOL + slack
    lower = np.einsum("ij,ij->i", x, y) / np.einsum("ij,ij->i", x, x)
    upper = (y / x_live).max(axis=1)
    low = np.sqrt(trace * lower * (1.0 - slack)) * (1.0 - widen)
    high = np.sqrt(trace * upper * (1.0 + slack)) * (1.0 + widen)
    lo[decided] = low
    decided[decided] = ((x_live.min(axis=1) >= 2.0**-500)
                        & (np.searchsorted(floors, low, "right")
                           == np.searchsorted(floors, high, "right")))
    return lo, decided


def perron_steps(dim: int) -> tuple:
    """The squarings q and products p by which ``_perron_bracket`` takes its
    vector x = (G^(2^q))^p 1 on a Gram matrix of side ``dim``: G^48 in all,
    one squaring then 24 products up to dim = 32, and 48 products beyond.

    Measured on 2 cores (numpy 2.4, bundled OpenBLAS, one BLAS thread) with
    s1 of the corners of d = 4 perm_sum_regular samples against the floors
    of ``tail norm``'s defaults (tau = 4, c = 0.01), in the engine's chunks,
    best of 9: microseconds a corner, with the share of corners that went on
    to the Gram kernel.
    - dim = 32 (n = 64, 500 corners): Gram 38.9; (q, p) = (1, 24) 13.1,
      (2, 12) 14.3, (3, 6) 14.5, (0, 48) 17.1; 0.8% to the Gram kernel;
    - dim = 64: Gram 146; (0, 48) 53, (1, 24) 57, (2, 12) 58, (3, 6) 69;
      1.3%;
    - dim = 128: Gram 645; (0, 48) 331, (1, 24) 471, (3, 6) 500; 7.8%
      (4.7% at G^64, for 4% more time);
    - dim = 256: Gram 3101; (0, 48) 1379, (1, 24) 1899, (3, 6) 3066; 9.4%.
    A squaring costs about dim^3 a member and a product dim^2, so a
    squaring pays only where a product's fixed cost per batched call
    dominates, at the smallest sides; G^24 left 2-9 times as many corners
    to the Gram kernel as G^48.
    """
    return (1, 24) if dim <= 32 else (0, 48)


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
    - s2 of a corner, one run where certified (measured at one BLAS
      thread): 0.4-1.0 at dim = 320 (0.3-0.6 for four corners in
      lockstep), 0.6-1.4 at 256 (0.5-1.0);
    - s1 of a corner: below 0.5 from dim = 288 on.
    Past dim / 16 nonzeros per row the products of the ~100 steps cost
    what the O(dim^3) eigvalsh saves (a 320 whole sample at 32 per row:
    1.17; s2 of a 320 corner at 16 per row, the limit itself: 0.6-1.0).
    """
    return dim >= 320 and per_row * 16 <= dim


def lanczos_steps(dim: int) -> int:
    """The Lanczos steps a member whose smaller side is ``dim`` can afford:
    dim // 4 + 16, about where one run costs what the Gram kernel does.

    Measured as ``lanczos_pays``, one member at a time, on s2 of d = 4
    samples with the convergence test switched off, the crossover is 93
    steps at dim = 320, 109 at 384, 124 at 448, 151 at 512, 178 at 640,
    206 at 768 and 240 at 896 (177 at 640 for four members in lockstep).
    A certified s2 (``_lanczos``) takes one run within the budget. A run
    of k steps costs about k^2 (its reorthogonalisation against the k
    vectors so far, and its Ritz checks), so a member that deflates shares
    the budget among its runs by squares: k_1^2 + k_2^2 + ... <=
    lanczos_steps(dim)^2. A member that has not converged by then goes to
    the Gram kernel, so it costs at most about twice what the Gram kernel
    alone would.
    """
    return dim // 4 + 16


def kernel_floats(rows: int, cols: int, per_row: float, floors: bool = False) -> int:
    """The floats ``singular_value`` works in on a rows x cols matrix with
    ``per_row`` entries per row: where ``lanczos_pays``, the largest Lanczos
    basis it keeps (plus the start and deflated vectors), else the matrix,
    and with ``floors`` (s1 against floors) the k x k arrays that
    ``_perron_bracket`` holds beside it: G, scaled in place, and the last
    one or two of the squarings that ``perron_steps`` takes."""
    k = min(rows, cols)
    if lanczos_pays(k, per_row):
        return k * (lanczos_steps(k) + 2)
    return rows * cols + (k * k * (1 + min(2, perron_steps(k)[0])) if floors else 0)


# The start vectors' generator: a fixed seed, so that the kernel draws from
# no trial stream and two calls agree bit for bit.
_START_SEED = 20161
_CHECK = 16  # Lanczos steps between two convergence checks
_SPREAD = 32  # products with G by which the certificate spreads reachability


def _start(dim: int, level: int) -> np.ndarray:
    """The start vector of a run at deflation ``level``: one fixed vector
    for level 0, and one of its own for each later level."""
    seed = _START_SEED if level == 0 else [_START_SEED, level]
    return np.random.default_rng(seed).standard_normal(dim)


def _lanczos(stack: SparseStack, index: int) -> np.ndarray:
    """s_index of each member of a sparse stack, without forming a dense
    matrix: the square root of eigenvalue index + 1 of the smaller Gram
    operator G (B^t B or B B^t), by Lanczos with full reorthogonalisation
    (Golub & Van Loan, ch. 10; Parlett, The Symmetric Eigenvalue Problem).

    s2 of a nonnegative member whose row or column sums are not all equal
    takes one run, under a certificate. When its top Ritz vector converges,
    the vector's entries above its error bound rho / g (g the gap to the
    second Ritz value) must lie in one connected component of the graph of
    G, a nonnegative matrix (``_one_component``). A top eigenvalue shared by two
    components would give a Ritz vector on both, from a start with a
    component along each; within one component it is simple
    (Perron-Frobenius, for an irreducible nonnegative matrix). So the run,
    which sees one direction of a repeated eigenvalue only, misses no second
    copy of s1, and goes on until its second Ritz pair converges too:
    interlacing gives theta_2 <= lambda_2, and the residual puts an
    eigenvalue within rho_2 of theta_2.

    Every other member deflates its top ``index`` eigenvectors one at a
    time. The first is exactly 1/sqrt(dim) when B is nonnegative and its
    row sums are all equal, and so are its column sums (the centering
    identity: G 1 = r c 1 and ||B||^2 <= r c); otherwise it, and every later
    one, is the top Ritz vector of the run before (for s2 of a member that
    fails the certificate, that of the certificate's run). A run after a
    Ritz-vector deflation starts from a fixed vector of its own level
    (``_start``): the Ritz vector is the first start's projection on a
    repeated eigenvalue's eigenspace, so that start, deflated, has nothing
    left in it, and a run from it would miss the second copy. The first
    run, and a regular member's run after its exact deflation, start from
    the vector of level 0.

    Each run stops when its residual rho = beta_k |y_k| is at most RTOL/2
    of the Ritz value theta: then an eigenvalue of G lies within rho of
    theta (the one sought, unless the start vector is orthogonal to its
    eigenvector). A deflated vector at residual rho moves the next
    eigenvalue by at most min(g, rho^2 / g), g the gap between the two,
    which is below RTOL/2 relative whenever that eigenvalue is above RTOL/2
    of the top one, as it is above the floor.
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
    # The members whose s2 may come from one run, under the certificate.
    single = nonnegative & ~regular if index == 1 else np.zeros(count, dtype=bool)

    budget = lanczos_steps(dim) ** 2
    spent = np.zeros(count, dtype=np.int64)  # squared steps of the runs so far
    lam = np.zeros(count)
    vectors = np.zeros((count, index + 1, dim))
    ok = np.ones(count, dtype=bool)
    found = np.zeros(count, dtype=bool)  # lam is already s_index^2
    for level in range(index + 1):
        run = ok & ~found
        if level == 0:
            lam[regular] = u[regular, 0] * v[regular, 0]
            vectors[regular, 0] = 1.0 / np.sqrt(dim)
            run &= ~regular
        if not np.any(run):
            continue
        part = S if run.all() else S.take(run)
        # A run after a Ritz-vector deflation starts from its level's vector.
        fresh = (level > 0) & ~((level == 1) & regular[run])
        starts = np.where(fresh[:, None], _start(dim, level), _start(dim, 0))
        limit = np.array([min(dim - level, math.isqrt(budget - int(x))) for x in spent[run]])
        lam[run], vectors[run, level], ok[run], taken, found[run] = _top_eigenpair(
            _gram(part), vectors[run, :level], starts, limit, single[run] & (level == 0))
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


def _top_eigenpair(gram, locked: np.ndarray, start: np.ndarray, limit: np.ndarray,
                   second: np.ndarray):
    """Top eigenvalue and eigenvector of G on the complement of the rows of
    ``locked`` (count, L, dim), for each member, by at most ``limit`` steps
    of Lanczos from its row of ``start`` with full reorthogonalisation; a
    member marked in ``second`` whose top Ritz vector passes ``_one_component``
    when it converges gets its second eigenvalue instead. Returns the values,
    the top vectors, whether each member converged, the steps each took and
    whether each value is a second eigenvalue."""
    count, L, dim = locked.shape
    steps = int(limit.max())
    # Room for every step: pages no step writes are never touched, so the
    # memory in use follows the steps taken.
    V = np.empty((count, L + steps + 1, dim))
    V[:, :L] = locked
    V[:, L] = _orthonormalise(np.broadcast_to(start, (count, dim)), locked)
    alpha = np.empty((count, steps))
    beta = np.empty((count, steps))
    lam = np.zeros(count)
    vector = np.zeros((count, dim))
    taken = limit.copy()
    done = np.zeros(count, dtype=bool)  # converged
    ended = np.zeros(count, dtype=bool)  # converged or out of steps
    second = second.copy()  # still after the second eigenvalue
    certified = np.zeros(count, dtype=bool)
    last = set(limit.tolist())
    for j in range(steps):
        k = L + j + 1  # basis vectors so far, the locked ones first
        basis = V[:, :k]
        across = basis.swapaxes(1, 2)
        w = gram(V[:, k - 1])
        h = np.matmul(basis, w[:, :, None])
        alpha[:, j] = h[:, k - 1, 0]
        w -= np.matmul(across, h)[:, :, 0]
        # Twice, which is enough to keep the basis orthonormal.
        w -= np.matmul(across, np.matmul(basis, w[:, :, None]))[:, :, 0]
        b = np.sqrt(np.einsum("ij,ij->i", w, w))
        beta[:, j] = b
        every = (j + 1) % _CHECK == 0
        if every or j + 1 in last:
            idx = np.flatnonzero(~ended & (every | (limit == j + 1)))
            T = np.zeros((idx.size, j + 1, j + 1))
            i = np.arange(j + 1)
            T[:, i, i] = alpha[idx, :j + 1]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta[idx, :j]
            theta, Y = np.linalg.eigh(T)
            rho = b[idx, None] * np.abs(Y[:, -1, :])  # the residual of each Ritz pair
            conv = rho <= (RTOL / 2.0) * np.maximum(theta, 0.0)
            # The second Ritz pair, or none after one step.
            theta2 = theta[:, -2] if j > 0 else np.zeros(idx.size)
            conv2 = conv[:, -2] if j > 0 else np.zeros(idx.size, dtype=bool)
            top = conv[:, -1] & ~certified[idx]
            for t, y_t in zip(idx[top], Y[top, :, -1]):  # the Ritz vectors, without a copy of V
                vector[t] = y_t @ V[t, L:k]
            ask = top & second[idx]
            if np.any(ask):
                # The top Ritz vector's error bound; none without a gap.
                gap = theta[ask, -1] - theta2[ask]
                tol = np.full(gap.shape, np.inf)
                np.divide(rho[ask, -1], gap, out=tol, where=gap > 0.0)
                passed = _one_component(gram, idx[ask], vector, tol)
                certified[idx[ask][passed]] = True
                second[idx[ask][~passed]] = False
            first = top & ~second[idx]
            then = certified[idx] & conv2
            lam[idx[first]] = theta[first, -1]
            lam[idx[then]] = theta2[then]
            finished = idx[first | then]
            done[finished] = ended[finished] = True
            taken[finished] = j + 1
            ended[idx[limit[idx] == j + 1]] = True
            if ended.all():
                break
        # After a breakdown (b = 0, an invariant subspace) w is 0 and stays 0.
        np.divide(w, np.maximum(b, np.finfo(np.float64).tiny)[:, None], out=V[:, k])
    ritz = done & ~certified
    vector[ritz] = _orthonormalise(vector[ritz], locked[ritz])
    return lam, vector, done, taken, certified & done


def _one_component(gram, members: np.ndarray, vector: np.ndarray, tol: np.ndarray):
    """Whether the entries of each listed member's vector above its ``tol``
    all lie in one connected component of the graph of G (i ~ j where G_ij
    > 0), for a nonnegative B: reachability from the largest entry, spread
    by at most _SPREAD products with G."""
    x = np.abs(vector[members])
    big = x > tol[:, None]
    reach = np.zeros_like(vector)
    reach[members, np.argmax(x, axis=1)] = 1.0
    missing = big & (reach[members] == 0.0)
    for _ in range(_SPREAD):
        if not missing.any():
            break
        reach = (reach + gram(reach) > 0.0).astype(np.float64)
        missing = big & (reach[members] == 0.0)
    return big.any(axis=1) & ~missing.any(axis=1)


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

"""Regularized empirical conditional-mean-embedding estimators in Gram coordinates.

Given paired data (x_i, y_i), i = 1..n, the estimator is the coefficient
matrix W of the fitted embedding-valued map

    F(x) = sum_j (W k_X(x))_j  phi(y_j),      k_X(x)_i = k(x_i, x),

which evaluates the regularized solution of the embedding regression problem
at any query point.  The regularization parameter ``lam`` is the
operator-level lambda; in Gram coordinates it enters as G_X + n*lam*I
(equivalently as a spectral filter applied to the eigenvalues of G_X / n), so
lambda stays comparable across sample sizes.

``fit_cme`` is the fit entry, with one route per filter:

    Tikhonov           W = (G_X + n*lam*I)^{-1}, formed in place from its
                       Cholesky factor
    cutoff, Landweber  g_lam applied to the eigenvalues of G_X / n

Both routes work on the distinct support: if X holds only m < n distinct
points D with counts C, G_X = E K_D E^T for the n x m indicator E, so the
fit does m x m algebra on S = C^{1/2} K_D C^{1/2}.  It never forms the n x n
W of the formulas above: it returns the support estimator on X = D_X and
Y = D_Y, the distinct X and Y values in first-appearance order, with

    W_c = F^T W E = N^T C^{-1/2} Z C^{1/2}              (m_Y x m_X),

where F is the n x m_Y indicator of Y, N = E^T F the pair counts and Z the
solve's output (see ``_on_support``).  Summing W's rows over repeated Y and
its columns over repeated X leaves every prediction unchanged, so W_c is the
operator W.  With no repeated point S is G_X, and W_c is W, computed exactly
as the n x n algebra above.  ``_support`` finds the distinct values with
``np.unique`` on the sample's coordinate array, and ``_on_support`` adds
N^T Z's terms with ``np.add.at``, so neither loops over the n points in Python.

Filters: Tikhonov g(s) = 1/(s + lam); hard cutoff g(s) = 1/s for s >= lam,
else 0; Landweber g(s) = (1 - (1 - eta*s)^m) / s with the s = 0 limit m*eta.
Eigenvalues below 1e-12 of the largest are treated as exactly 0 (round-off
directions contribute nothing to the fitted map but would destabilize the
cutoff and Landweber filters).

The first conditional-expectation query with an observable costs
O(len(X) len(Y)), for its coefficients W^T f(Y); later queries with the same
values cost O(len(X)).

The training report that ``estimate`` prints (``_fitted_risk_and_hs``) of an
unjittered Tikhonov fit on distinct points costs one n^3 GEMM over row blocks
of W and of G_Y's lower block triangle.  The estimator holds the solve's own
buffer, so fit and report hold one n x n block.  Every other report builds
G_Y and G_X, m_Y and m_X on a side, and on distinct points costs two n^3 GEMMs.

One BLAS thread pool per route: numpy and scipy may each load their own BLAS
(the pip wheels bundle two OpenBLAS builds), and scipy's threads keep spinning
for a while after a LAPACK call returns, so a numpy product started then
competes with them for the cores.  The Tikhonov fit factors and inverts with
scipy's LAPACK, and its report's GEMM is scipy's ``dgemm``; the cutoff and
Landweber fits use numpy's ``eigh`` and numpy's products only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence, Union

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm

from .embeddings import WeightedEmbedding
from .kernels import (
    _BLOCK_ENTRIES, Kernel, Point, _Adopted, _Rebuilt, _frozen_array, _kernel_diagonal,
    _point_tuple, _support, cross_gram, gram,
)

RANK_TOL = 1e-12
JITTER_SCALE = 1e-10
REPORT_BLOCK = 512
REPORT_ROWS = 128
MIRROR_BLOCK = 128
_STRICT_UPPER = np.triu(np.ones((MIRROR_BLOCK, MIRROR_BLOCK), dtype=bool), 1)


@dataclass(frozen=True)
class PairedSample:
    """iid draws (x_i, y_i) from the joint law, as two equal-length point lists or (n, d) arrays."""

    X: tuple[Point, ...]
    Y: tuple[Point, ...]

    def __post_init__(self) -> None:
        X, Y = _point_tuple(self.X, "sample X"), _point_tuple(self.Y, "sample Y")
        if len(X) != len(Y):
            raise ValueError(f"need equal-length X and Y, got {len(X)} and {len(Y)}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class Tikhonov:
    """g(s) = 1 / (s + lam)."""


@dataclass(frozen=True)
class Cutoff:
    """g(s) = 1/s for s >= lam (closed interval), else 0."""


@dataclass(frozen=True)
class Landweber:
    """g(s) = (1 - (1 - step_size * s)^steps) / s, the truncated iteration filter.

    Requires step_size * max(spectrum) <= 2 at application time, otherwise the
    iteration diverges.
    """

    steps: int
    step_size: float

    def __post_init__(self) -> None:
        if type(self.steps) is bool or not isinstance(self.steps, Integral) or self.steps < 1:
            raise ValueError(f"Landweber needs integer steps >= 1, got {self.steps!r}")
        if not (self.step_size > 0):
            raise ValueError(f"Landweber needs step_size > 0, got {self.step_size}")
        object.__setattr__(self, "steps", int(self.steps))


SpectralFilter = Union[Tikhonov, Cutoff, Landweber]


class DivergentStepError(ValueError):
    """A Landweber step_size too large for the spectrum of the data: the iteration diverges."""


def filter_value(filt: SpectralFilter, lam: float, s: float) -> float:
    """Scalar filter function g_lam evaluated at a spectrum value s >= 0."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be > 0 and finite, got {lam}")
    if isinstance(filt, Tikhonov):
        return 1.0 / (s + lam)
    if isinstance(filt, Cutoff):
        return 1.0 / s if s >= lam else 0.0
    if isinstance(filt, Landweber):
        if s == 0.0:
            return filt.steps * filt.step_size
        if filt.step_size * s < 1.0:
            # 1 - (1 - eta*s)^m cancels for small s; expm1/log1p keep every digit
            return -math.expm1(filt.steps * math.log1p(-filt.step_size * s)) / s
        return (1.0 - (1.0 - filt.step_size * s) ** filt.steps) / s
    raise TypeError(f"unknown filter type: {type(filt).__name__}")


@dataclass(frozen=True, eq=False)
class CmeEstimator(_Rebuilt):
    """Fitted estimator: training points X and Y, and the (len(Y), len(X)) coefficients W.

    The predicted embedding at x is supported on Y with weights W @ k_X(x).
    ``fit_cme`` returns the support estimator: X and Y are the distinct x and
    y values of the sample, and W_c = F^T W E sums the n x n coefficients W
    over the indicators E of X and F of Y, so both predict the same embedding
    at every x.  With no repeated value, X and Y are the sample's and W_c is W.

    ``jitter`` is what the Tikhonov fit added to the diagonal of the system it
    factored, G_X + n*lam*I or, on repeated points, its m x m distinct-support
    form S + n*lam*I (0.0 when none; the other filters factor nothing), and
    ``cond_lower_bound`` is (max_i L_ii / min_i L_ii)^2 of that system's
    Cholesky factor L, a lower bound on the condition number of
    G_X + n*lam*I (0.0 when nothing was factored).  Estimator files store
    neither.

    For an unjittered Tikhonov fit that ``fit_cme`` returned on a sample with
    no repeated point, W satisfies (G_X + n*lam*I) W = I in exact arithmetic.
    It does not hold for a jittered fit, for the cutoff and Landweber filters,
    for a fit on repeated points, nor for a hand-built W (exact oracle
    witnesses legitimately carry one), so it is checked in the test suite, not
    at construction.
    """

    kernel: Kernel
    lam: float
    filt: SpectralFilter
    X: tuple[Point, ...]
    Y: tuple[Point, ...]
    W: np.ndarray
    jitter: float = 0.0
    cond_lower_bound: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lambda must be > 0 and finite, got {self.lam}")
        X, Y = _point_tuple(self.X, "estimator X"), _point_tuple(self.Y, "estimator Y")
        W = _frozen_array(self.W, "W")
        if W.shape != (len(Y), len(X)):
            raise ValueError(f"W must be (len(Y), len(X)) = {(len(Y), len(X))}, got {W.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "W", W)


def _diagonal_shift(n: int, lam: float) -> float:
    """n*lam, the shift of G_X + n*lam*I; an n*lam that overflows raises ValueError naming both."""
    shift = n * lam
    if not shift < np.inf:
        raise ValueError(f"n*lambda overflows: n = {n}, lambda = {lam}")
    return shift


def _factor_pd(A: np.ndarray, shift: float = 0.0) -> tuple[tuple[np.ndarray, bool], float]:
    """``cho_factor`` output for G + shift*I and the jitter added to its diagonal (0.0 if none).

    The package's one factorization policy, for every G + shift*I it factors:
    Cholesky, and on failure one jitter of 1e-10 * trace / n on the diagonal,
    after which failure is an error.  ``A`` holds the symmetric G in a writable,
    F-ordered float64 buffer, which LAPACK factors in place: its lower triangle
    becomes the factor L, and its strict upper triangle keeps G, because a lower
    Cholesky never touches it.  G and ``shift`` must be finite: the package's
    Grams are finite by construction, ``_diagonal_shift`` checks the shift and
    ``solve_pd`` its caller's matrix, so LAPACK gets A without a scan.
    """
    n = A.shape[0]
    diag, g, jitter = slice(None, None, n + 1), A.diagonal().copy(), 0.0
    A.flat[diag] += shift
    for retry in (False, True):
        if retry:
            # a failed Cholesky may have overwritten part of the lower triangle: restore G + shift*I
            # from the strict upper one (A.T's strict lower), which still holds G
            _mirror_lower(A.T)
            A.flat[diag] = g + shift
            jitter = float(JITTER_SCALE * np.trace(A) / n)
            A.flat[diag] += jitter
        try:
            return scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False), jitter
        except scipy.linalg.LinAlgError as exc:
            if retry:
                msg = f"matrix not positive definite after jitter {jitter:.3e}"
                raise np.linalg.LinAlgError(msg) from exc


def solve_pd(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """X solving matrix X = rhs, and the jitter :func:`_factor_pd` added.

    ``matrix`` is never written: an F-ordered copy of it is factored, once
    checked finite.  X is solved into ``rhs`` in place when ``rhs`` is an
    F-ordered float64 array, and into an F-ordered copy of it otherwise.
    """
    A = np.array(matrix, dtype=float, order="F")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    factor, jitter = _factor_pd(A)
    X = np.asfortranarray(rhs, dtype=float)
    return scipy.linalg.cho_solve(factor, X, overwrite_b=True), jitter


def _support_gram(kernel: Kernel, support: Sequence[Point], counts: np.ndarray) -> np.ndarray:
    """S = C^{1/2} K_D C^{1/2} over the distinct points D of X and their counts C.

    With E the n x m indicator of x_i = d_t, G_X = E K_D E^T and C = E^T E, so
    G_X / n and S / n share their nonzero spectrum.  With no repeated point, S
    is G_X itself.  S is exactly symmetric and comes in a writable F-ordered
    buffer, which :func:`_factor_pd` can factor in place.
    """
    S = cross_gram(kernel, support, support).T           # F-ordered: K_D is exactly symmetric
    if np.any(counts > 1.0):
        root = np.sqrt(counts)
        S *= np.outer(root, root)
    return S


def _support_solve(
    S: np.ndarray, n: int, filt: SpectralFilter, lam: float
) -> tuple[np.ndarray, float, float]:
    """The fit's m x m solve: Z = g_lam(S/n) / n, the jitter, and the Cholesky
    bound (max L_ii / min L_ii)^2 (0.0 for the filters that factor nothing).

    Tikhonov factors S + n*lam*I in S's own buffer, reads the bound from the
    factor's diagonal, and turns the factor into the inverse in that buffer
    (LAPACK ``dpotri``, which writes the lower triangle; ``_mirror_lower``
    overwrites the strict upper one, which still held S).  So Z is exactly
    symmetric, is S's buffer, and the solve holds one m x m block; it is
    returned as Z.T, a C-ordered view of the same doubles.  Cutoff and
    Landweber eigendecompose S / n into a new C-ordered Z, and S's buffer is
    gone once this returns.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be > 0 and finite, got {lam}")
    if not isinstance(filt, Tikhonov):
        return _filtered_coefficients(S, n, filt, lam), 0.0, 0.0
    (L, _), jitter = _factor_pd(S, _diagonal_shift(n, lam))
    diag = np.diagonal(L)
    cond = float((diag.max() / diag.min()) ** 2)        # before dpotri overwrites L
    Z, info = scipy.linalg.lapack.dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotri failed on the Cholesky factor (info {info})")
    _mirror_lower(Z)
    return Z.T, jitter, cond


def _mirror_lower(Z: np.ndarray) -> None:
    """Copy the lower triangle of the square ``Z`` into its strict upper triangle, in place.

    One column block at a time: the block's diagonal square takes its own
    transpose under a strict-upper mask, and the row block to its right the
    transpose of the column block below it.  Only block-sized temporaries are
    held, and Z comes out exactly symmetric.
    """
    m = Z.shape[0]
    for j in range(0, m, MIRROR_BLOCK):
        k = min(j + MIRROR_BLOCK, m)
        D = Z[j:k, j:k]
        np.copyto(D, D.T, where=_STRICT_UPPER[: k - j, : k - j])
        Z[j:k, k:] = Z[k:, j:k].T


def _on_support(
    Z: np.ndarray, inv: np.ndarray, counts: np.ndarray, inv_y: np.ndarray, m_y: int
) -> np.ndarray:
    """W_c = N^T C^{-1/2} Z C^{1/2}, the m_Y x m_X coefficients of a fit over the distinct X and Y.

    For a spectral function g of G_X / n = Q (S/n) Q^T with Q = E C^{-1/2}, the
    n x n coefficients are W = g(G_X/n) / n = Q (Z - c I) Q^T + c I, where
    Z = g(S/n) / n and c = g(0) / n.  With F the n x m_Y indicator of Y and
    N = E^T F the pair counts, F^T E = N^T and E^T E = C turn F^T W E into
    N^T C^{-1/2} (Z - c I) C^{1/2} + c N^T, in which c cancels.  With no
    repeated X, C = I and N^T = F^T sums Z's rows over repeated Y; with no
    repeated point either, W_c is ``Z`` itself.

    Row u of W_c is summed in a sparse CSR product's order: 0.0 plus the term
    of each X partner (that row of C^{-1/2} Z C^{1/2} times their pair count),
    in ascending X order.  With the pairs sorted by Y, then X, one unbuffered
    ``np.add.at`` per block of about ``_BLOCK_ENTRIES`` entries adds the terms
    in that order into the flattened W_c.
    """
    n, m = len(inv), len(counts)
    if m == m_y == n:
        return Z
    pairs, N = np.unique(inv_y * m + inv, return_counts=True)   # ascending Y, then X
    rows, cols = np.divmod(pairs, m)
    root = np.sqrt(counts)
    W_c, step = np.zeros(m_y * m), max(1, _BLOCK_ENTRIES // m)
    for j in range(0, len(pairs), step):
        u, v = rows[j:j + step], cols[j:j + step]
        T = Z[v]
        if m < n:
            T *= np.outer(1.0 / root[v], root)
        T *= N[j:j + step, None]
        at = ((u * m)[:, None] + np.arange(m)).ravel()      # 1-D indices take the fast path
        np.add.at(W_c, at, T.ravel())
    return W_c.reshape(m_y, m)


def _filtered_coefficients(S: np.ndarray, n: int, filt: SpectralFilter, lam: float) -> np.ndarray:
    """Z = (1/n) U g_lam(s) U^T from the eigendecomposition S/n = U diag(s) U^T."""
    s, U = np.linalg.eigh(S / n)
    s_max = max(float(s[-1]), 0.0)
    s = np.where(s < RANK_TOL * s_max, 0.0, s)            # round-off eigenvalues act as exact zeros
    if isinstance(filt, Landweber) and filt.step_size * s_max > 2.0:
        raise DivergentStepError(
            f"Landweber step_size {filt.step_size} violates step_size * max spectrum "
            f"({s_max:.6g}) <= 2; the iteration would diverge"
        )
    g = np.array([filter_value(filt, lam, float(si)) for si in s])
    return (U * g) @ U.T / n


def fit_cme(sample: PairedSample, kernel: Kernel, filt: SpectralFilter, lam: float) -> CmeEstimator:
    """Fit the regularized estimator with a spectral filter: the package's fit entry.

    It returns the support estimator: X and Y are the distinct values of the
    sample's X and Y, and W_c = F^T W E is m_Y x m_X (see ``_on_support``).
    Tikhonov forms Z = (S + n*lam*I)^{-1} of the m x m distinct-support
    system, which is W = (G_X + n*lam*I)^{-1} itself when no point repeats,
    from its Cholesky factor in S's own buffer, so the solve holds one m x m
    block (see ``_support_solve``).  Cutoff and Landweber eigendecompose
    S / n and apply the scalar filter to its spectrum.
    Past the O(n) array passes that find the distinct values, every array is
    m_X x m_X or m_Y x m_X, and the estimator holds the array the solve made
    (for no repeated point, S's own buffer) without a copy.
    """
    support, inv, counts = _support(sample.X)
    Z, jitter, cond = _support_solve(_support_gram(kernel, support, counts), sample.n, filt, lam)
    support_y, inv_y, _ = _support(sample.Y)
    return CmeEstimator(
        kernel=kernel, lam=lam, filt=filt, X=support, Y=support_y,
        W=_Adopted(_on_support(Z, inv, counts, inv_y, len(support_y))),
        jitter=jitter, cond_lower_bound=cond,
    )


def fit_tikhonov_closed_form(sample: PairedSample, kernel: Kernel, lam: float) -> CmeEstimator:
    """Shorthand for ``fit_cme(sample, kernel, Tikhonov(), lam)``."""
    return fit_cme(sample, kernel, Tikhonov(), lam)


def predict_embedding(est: CmeEstimator, x: Point) -> WeightedEmbedding:
    """Estimated conditional mean embedding at x: weights W k_X(x) on Y."""
    weights = est.W @ cross_gram(est.kernel, est.X, [x])[:, 0]
    return WeightedEmbedding(kernel=est.kernel, support=est.Y, weights=weights)


def predict_conditional_expectation(est: CmeEstimator, x: Point, f_at_Y: np.ndarray) -> float:
    """Plug-in estimate of E[f(Y) | X = x] from the values of f on the training Y.

    Evaluated as k_X(x) . alpha, alpha = W^T f(Y), memoized with f's bytes as one pair.
    """
    f_vals = np.asarray(f_at_Y, dtype=float).reshape(-1)
    if f_vals.shape[0] != len(est.Y):
        raise ValueError(f"f_at_Y must have length {len(est.Y)}, got {f_vals.shape[0]}")
    key, memo = f_vals.tobytes(), getattr(est, "_alpha_memo", (None, None))
    if memo[0] != key:      # one assignment swaps the bytes and alpha together: thread-safe
        object.__setattr__(est, "_alpha_memo", memo := (key, est.W.T @ f_vals))
    return float(cross_gram(est.kernel, est.X, [x])[:, 0] @ memo[1])


def _fitted_risk_and_hs(est: CmeEstimator, sample: PairedSample) -> tuple[float, float]:
    """The training report of ``fit_cme(sample, ...)``'s estimator: ``empirical_risk``
    on ``sample`` and ``hs_norm_sq``.

    An unjittered Tikhonov fit (one that factored its system: cond_lower_bound
    > 0) on a sample with no repeated point takes ``_tikhonov_risk_and_hs``,
    which needs neither G_X nor a full G_Y.  Every other estimator takes the
    general route, from B = G_Y Omega, Omega = W G_X: pair i at columns t of X
    and u of Y adds k(y_i, y_i) - 2 B[u, t] + Omega[:, t]^T B[:, t] to the
    risk, and tr(W^T G_Y W G_X) = sum(B * W).  Omega is formed REPORT_BLOCK
    columns at a time, so W, G_Y, G_X and one block are held.  With no
    repeated point W is n x n and pair i is column i; on repeated points the
    columns come from ``_support``, the fit's own first-appearance order, and
    every block is m_X or m_Y on a side.
    """
    n, W = sample.n, est.W
    paired = W.shape == (n, n)
    if paired and est.cond_lower_bound > 0 and not est.jitter:
        return _tikhonov_risk_and_hs(est)
    m = W.shape[1]
    G_Y, G_X = gram(est.kernel, est.Y), gram(est.kernel, est.X)
    t, u = (slice(None),) * 2 if paired else (_support(sample.X)[1], _support(sample.Y)[1])
    cross_term, norm_term, hs = np.empty(n), np.empty(m), 0.0
    for j in range(0, m, REPORT_BLOCK):
        J = slice(j, min(j + REPORT_BLOCK, m))
        Omega = W @ G_X[:, J]
        B = G_Y @ Omega
        if paired:
            cross_term[J] = np.einsum("ji,ji->i", Omega, G_Y[:, J])
        else:
            at = (t >= J.start) & (t < J.stop)
            cross_term[at] = B[u[at], t[at] - j]
        norm_term[J] = np.einsum("ji,ji->i", Omega, B)
        B *= W[:, J]
        hs += float(B.sum())
        del Omega, B                                        # so the next block never meets them
    risk = float(np.mean(np.diagonal(G_Y)[u] - 2.0 * cross_term + norm_term[t]))
    return risk, hs


def _tikhonov_risk_and_hs(est: CmeEstimator) -> tuple[float, float]:
    """The report of an unjittered Tikhonov fit on n distinct points, from its solved system.

    With c = n*lam, (G_X + c I) W = I (see ``CmeEstimator``) makes W symmetric
    and Omega = W G_X = I - c W.  So the risk (1/n) tr((I - Omega)^T G_Y (I - Omega))
    is (c^2/n) q with q = sum(G_Y * W^2), and hs = tr(G_Y W G_X W) =
    sum(G_Y * (W - c W^2)).  Both are sums over the lower block triangle,
    REPORT_ROWS rows J at a time: W[J, :] @ W[:J.stop].T, one scipy ``dgemm``
    on F-ordered views of W (no copy, and the pool that factored the system),
    against the cross-Gram block G_Y[J, :J.stop], whose entries left of the
    diagonal block count twice.  That is n^3 flops, and W plus two row blocks
    are held.

    W - c W^2 is formed entry by entry before the sum: at large lambda c W is
    near I, and tr(G_Y W) - c q cancels.  So does W_ii - c (W^2)_ii, whose
    GEMM value carries the rounding of adding W_ii^2 to n small terms; the
    diagonal is formed as W_ii (1 - c W_ii) - c sum_{l != i} W_il^2 instead.
    """
    W, Y = est.W, est.Y
    n = W.shape[0]
    c = n * est.lam
    q = hs = 0.0
    for j in range(0, n, REPORT_ROWS):
        J = slice(j, min(j + REPORT_ROWS, n))
        k, rows = J.stop, np.arange(J.stop - j)
        P = dgemm(1.0, W[:k].T, W[J].T, trans_a=1).T        # (W^2)[J, :J.stop], C-ordered
        G = cross_gram(est.kernel, Y[J], Y[:k])
        G[:, :j] *= 2.0                                     # exact: the mirrored entries
        q += float(np.einsum("ij,ij->i", G, P).sum())
        d, square = W[rows + j, rows + j], np.array(W[J, J])
        square[rows, rows] = 0.0
        off = sum(np.einsum("ij,ij->i", A, A) for A in (W[J, :j], square, W[J, k:]))
        P *= -c
        P += W[J, :k]
        P[rows, rows + j] = d * (1.0 - c * d) - c * off     # (W - c W^2)[J, :J.stop]
        hs += float(np.einsum("ij,ij->i", G, P).sum())
        del P, G                                            # so the next block never meets them
    return c * c * q / n, hs


def hs_norm_sq(est: CmeEstimator) -> float:
    """Squared Hilbert-Schmidt norm of the fitted operator: tr(W^T G_Y W G_X),
    evaluated as sum((G_Y W) * (W G_X)) for W of any shape."""
    B = gram(est.kernel, est.Y) @ est.W
    B *= est.W @ gram(est.kernel, est.X)
    return float(B.sum())


def empirical_risk(est: CmeEstimator, sample: PairedSample) -> float:
    """Data-fit term (1/n) sum_i ||phi(y_i) - F(x_i)||^2, via Gram expansions."""
    K_xq = cross_gram(est.kernel, est.X, sample.X)          # train-X x query-X
    K_yy = cross_gram(est.kernel, est.Y, sample.Y)          # train-Y x query-Y
    Omega = est.W @ K_xq                                    # column i = weights at x_i
    G_Y = gram(est.kernel, est.Y)
    diag_k = _kernel_diagonal(est.kernel, sample.Y)
    cross_term = np.einsum("ji,ji->i", Omega, K_yy)
    norm_term = np.einsum("ji,ji->i", Omega, G_Y @ Omega)
    return float(np.mean(diag_k - 2.0 * cross_term + norm_term))


def regularized_empirical_risk(est: CmeEstimator, sample: PairedSample) -> float:
    """empirical_risk plus lam * hs_norm_sq, the objective the Tikhonov fit minimizes."""
    return empirical_risk(est, sample) + est.lam * hs_norm_sq(est)

"""Regularized empirical conditional-mean-embedding estimators in Gram coordinates.

Given paired data (x_i, y_i), i = 1..n, the estimator is the n x n coefficient
matrix W of the fitted embedding-valued map

    F(x) = sum_j (W k_X(x))_j  phi(y_j),      k_X(x)_i = k(x_i, x),

which evaluates the regularized solution of the embedding regression problem
at any query point.  The regularization parameter ``lam`` is the operator-level
lambda; in Gram coordinates it enters as G_X + n*lam*I (equivalently as a
spectral filter applied to the eigenvalues of G_X / n), so lambda stays
comparable across sample sizes.

``fit_cme`` is the one fit entry, with one route per filter:

    Tikhonov           one symmetric positive-definite solve of
                       (G_X + n*lam*I) W = I
    cutoff, Landweber  g_lam applied to the eigenvalues of G_X / n

Both routes work on the distinct support: if X holds only m < n distinct
points D with counts C, G_X = E K_D E^T for the n x m indicator E, so the
fit does m x m algebra on S = C^{1/2} K_D C^{1/2} and expands W exactly by
the push-through identity (see ``_on_sample``).  With no repeated point S is
G_X and W is computed exactly as the n x n algebra above.

Filters: Tikhonov g(s) = 1/(s + lam); hard cutoff g(s) = 1/s for s >= lam,
else 0; Landweber g(s) = (1 - (1 - eta*s)^m) / s with the s = 0 limit m*eta.
Eigenvalues below 1e-12 of the largest are treated as exactly 0 (round-off
directions contribute nothing to the fitted map but would destabilize the
cutoff and Landweber filters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .embeddings import WeightedEmbedding
from .kernels import Kernel, Point, _Rebuilt, _frozen_array, _point_tuple, cross_gram, gram, kernel_eval

RANK_TOL = 1e-12
JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class PairedSample:
    """iid draws (x_i, y_i) from the joint law, as two equal-length point lists."""

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
    if not (lam > 0):
        raise ValueError(f"lambda must be > 0, got {lam}")
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
    """Fitted estimator: training points plus the n x n coefficient matrix W.

    The predicted embedding at x is supported on Y with weights W @ k_X(x).
    For estimators fitted with the Tikhonov filter, W is the solution of
    (G_X + n*lam*I) W = I (checked in the test suite, not at construction,
    since exact oracle witnesses legitimately carry hand-built W).  ``jitter``
    is what the Tikhonov fit added to the diagonal of the system it factored,
    G_X + n*lam*I or, on repeated points, its m x m distinct-support form
    S + n*lam*I (0.0 when none; the other filters factor nothing); estimator
    files do not store it.
    """

    kernel: Kernel
    lam: float
    filt: SpectralFilter
    X: tuple[Point, ...]
    Y: tuple[Point, ...]
    W: np.ndarray
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if not (self.lam > 0):
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        X, Y = _point_tuple(self.X, "estimator X"), _point_tuple(self.Y, "estimator Y")
        n = len(X)
        if len(Y) != n:
            raise ValueError(f"X and Y must have equal length, got {n} and {len(Y)}")
        W = _frozen_array(self.W, "W")
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return len(self.X)


def _factor_pd(G: np.ndarray, shift: float = 0.0) -> tuple[tuple[np.ndarray, bool], float]:
    """``cho_factor`` output for G + shift*I and the jitter added to its diagonal (0.0 if none).

    The package's one factorization policy, for every G + shift*I it factors:
    Cholesky, and on failure one jitter of 1e-10 * trace / n on the diagonal,
    after which failure is an error.  G + shift*I is formed in a new F-ordered
    buffer that LAPACK factors in place; ``G`` is never written.
    """
    diag, jitter = slice(None, None, G.shape[0] + 1), 0.0
    for retry in (False, True):
        # a new buffer each time: a failed Cholesky may have overwritten part of the last one
        A = np.array(G, dtype=float, order="F")
        A.flat[diag] += shift
        if retry:
            jitter = float(JITTER_SCALE * np.trace(A) / A.shape[0])
            A.flat[diag] += jitter
        try:
            return scipy.linalg.cho_factor(A, lower=True, overwrite_a=True), jitter
        except scipy.linalg.LinAlgError as exc:
            if retry:
                msg = f"matrix not positive definite after jitter {jitter:.3e}"
                raise np.linalg.LinAlgError(msg) from exc


def solve_pd(matrix: np.ndarray, rhs: np.ndarray, shift: float = 0.0) -> tuple[np.ndarray, float]:
    """X solving (matrix + shift*I) X = rhs, and the jitter :func:`_factor_pd` added.

    X is solved into ``rhs`` in place when ``rhs`` is an F-ordered float64
    array, and into an F-ordered copy of it otherwise.
    """
    factor, jitter = _factor_pd(matrix, shift)
    X = np.asfortranarray(rhs, dtype=float)
    return scipy.linalg.cho_solve(factor, X, overwrite_b=True), jitter


def _support(points: Sequence[Point]) -> tuple[tuple[Point, ...], np.ndarray, np.ndarray]:
    """Distinct points D in first-appearance order, each point's index into D, and D's counts."""
    index: dict[Point, int] = {}
    inv = np.array([index.setdefault(p, len(index)) for p in points], dtype=np.intp)
    return tuple(index), inv, np.bincount(inv).astype(float)


def _support_gram(kernel: Kernel, X: Sequence[Point]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = C^{1/2} K_D C^{1/2} over the distinct points D of X, the index of each x_i
    into D, and the counts C.

    With E the n x m indicator of x_i = d_t, G_X = E K_D E^T and C = E^T E, so
    G_X / n and S / n share their nonzero spectrum.  With no repeated point, S
    is G_X itself.
    """
    support, inv, counts = _support(X)
    S = gram(kernel, support)
    if len(support) < len(X):
        root = np.sqrt(counts)
        S = S * np.outer(root, root)
    return S, inv, counts


def _on_sample(Z: np.ndarray, g0: float, inv: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """W = E (C^{-1/2} Z C^{-1/2} - g0 C^{-1}) E^T + g0 I, the n x n coefficients of a fit.

    For a spectral function g of G_X / n = Q (S/n) Q^T with Q = E C^{-1/2},
    g(G_X/n) = Q (g(S/n) - g(0)) Q^T + g(0) I; ``Z`` is g(S/n) / n and ``g0``
    is g(0) / n.  With no repeated point E = C = I and W is ``Z`` itself.
    """
    n, m = len(inv), len(counts)
    if m == n:
        return Z
    root = np.sqrt(counts)
    A = Z / np.outer(root, root)
    A.flat[:: m + 1] -= g0 / counts
    W = A[inv][:, inv]                      # A[np.ix_(inv, inv)], gathered in a faster order
    W.flat[:: n + 1] += g0
    return W


def _filtered_coefficients(
    S: np.ndarray, n: int, filt: SpectralFilter, lam: float
) -> tuple[np.ndarray, float]:
    """Z = (1/n) U g_lam(s) U^T from the eigendecomposition S/n = U diag(s) U^T, and g_lam(0) / n."""
    s, U = np.linalg.eigh(S / n)
    s_max = max(float(s[-1]), 0.0)
    s = np.where(s < RANK_TOL * s_max, 0.0, s)            # round-off eigenvalues act as exact zeros
    if isinstance(filt, Landweber) and filt.step_size * s_max > 2.0:
        raise DivergentStepError(
            f"Landweber step_size {filt.step_size} violates step_size * max spectrum "
            f"({s_max:.6g}) <= 2; the iteration would diverge"
        )
    g = np.array([filter_value(filt, lam, float(si)) for si in s])
    return (U * g) @ U.T / n, filter_value(filt, lam, 0.0) / n


def fit_cme(sample: PairedSample, kernel: Kernel, filt: SpectralFilter, lam: float) -> CmeEstimator:
    """Fit the regularized estimator with a spectral filter: the package's one fit entry.

    Tikhonov is one positive-definite solve of the m x m distinct-support
    system (S + n*lam*I) Z = I, which is (G_X + n*lam*I) W = I itself when no
    point repeats; no matrix inverse is ever formed explicitly.  Cutoff and
    Landweber eigendecompose S / n and apply the scalar filter to its spectrum.
    """
    if not (lam > 0):
        raise ValueError(f"lambda must be > 0, got {lam}")
    n = sample.n
    S, inv, counts = _support_gram(kernel, sample.X)
    jitter = 0.0
    if isinstance(filt, Tikhonov):
        Z, jitter = solve_pd(S, np.eye(len(counts), order="F"), n * lam)
        g0 = 1.0 / (n * lam)
    else:
        Z, g0 = _filtered_coefficients(S, n, filt, lam)
    W = _on_sample(Z, g0, inv, counts)
    return CmeEstimator(
        kernel=kernel, lam=lam, filt=filt, X=sample.X, Y=sample.Y, W=W, jitter=jitter
    )


def fit_tikhonov_closed_form(sample: PairedSample, kernel: Kernel, lam: float) -> CmeEstimator:
    """Shorthand for ``fit_cme(sample, kernel, Tikhonov(), lam)``."""
    return fit_cme(sample, kernel, Tikhonov(), lam)


def _query_weights(est: CmeEstimator, x: Point) -> np.ndarray:
    kx = cross_gram(est.kernel, est.X, [x])[:, 0]
    return est.W @ kx


def predict_embedding(est: CmeEstimator, x: Point) -> WeightedEmbedding:
    """Estimated conditional mean embedding at x: weights W k_X(x) on Y."""
    return WeightedEmbedding(kernel=est.kernel, support=est.Y, weights=_query_weights(est, x))


def predict_conditional_expectation(est: CmeEstimator, x: Point, f_at_Y: np.ndarray) -> float:
    """Plug-in estimate of E[f(Y) | X = x] from the values of f on the training Y."""
    f_vals = np.asarray(f_at_Y, dtype=float).reshape(-1)
    if f_vals.shape[0] != est.n:
        raise ValueError(f"f_at_Y must have length {est.n}, got {f_vals.shape[0]}")
    return float(_query_weights(est, x) @ f_vals)


def _training_risk_and_hs(est: CmeEstimator) -> tuple[float, float]:
    """``empirical_risk`` on the training pairs, and tr(W^T G_Y W G_X) = sum(B * W)."""
    Omega = est.W @ gram(est.kernel, est.X)                 # G_X is released here
    G_Y = gram(est.kernel, est.Y)
    B = G_Y @ Omega                                         # B = G_Y W G_X
    cross_term, norm_term = np.einsum("ji,ji->i", Omega, G_Y), np.einsum("ji,ji->i", Omega, B)
    risk = float(np.mean(np.diagonal(G_Y) - 2.0 * cross_term + norm_term))
    B *= est.W
    return risk, float(B.sum())


def hs_norm_sq(est: CmeEstimator) -> float:
    """Squared Hilbert-Schmidt norm of the fitted operator: tr(W^T G_Y W G_X)."""
    return _training_risk_and_hs(est)[1]


def empirical_risk(est: CmeEstimator, sample: PairedSample) -> float:
    """Data-fit term (1/n) sum_i ||phi(y_i) - F(x_i)||^2, via Gram expansions."""
    K_xq = cross_gram(est.kernel, est.X, sample.X)          # train-X x query-X
    K_yy = cross_gram(est.kernel, est.Y, sample.Y)          # train-Y x query-Y
    Omega = est.W @ K_xq                                    # column i = weights at x_i
    G_Y = gram(est.kernel, est.Y)
    diag_k = np.array([kernel_eval(est.kernel, y, y) for y in sample.Y])
    cross_term = np.einsum("ji,ji->i", Omega, K_yy)
    norm_term = np.einsum("ji,ji->i", Omega, G_Y @ Omega)
    return float(np.mean(diag_k - 2.0 * cross_term + norm_term))


def regularized_empirical_risk(est: CmeEstimator, sample: PairedSample) -> float:
    """empirical_risk plus lam * hs_norm_sq, the objective the Tikhonov fit minimizes."""
    return empirical_risk(est, sample) + est.lam * hs_norm_sq(est)

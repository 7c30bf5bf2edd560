"""Regularized empirical conditional-mean-embedding estimators in Gram coordinates.

Given paired data (x_i, y_i), i = 1..n, the estimator is the n x n coefficient
matrix W of the fitted embedding-valued map

    F(x) = sum_j (W k_X(x))_j  phi(y_j),      k_X(x)_i = k(x_i, x),

which evaluates the regularized solution of the embedding regression problem
at any query point.  The regularization parameter ``lam`` is the operator-level
lambda; in Gram coordinates it enters as G_X + n*lam*I (equivalently as a
spectral filter applied to the eigenvalues of G_X / n), so lambda stays
comparable across sample sizes.

Two fitting routes are provided and must agree for the Tikhonov filter:

    fit_cme                   g_lam applied to the eigenvalues of G_X / n
    fit_tikhonov_closed_form  one symmetric positive-definite solve of
                              (G_X + n*lam*I) W = I

Filters: Tikhonov g(s) = 1/(s + lam); hard cutoff g(s) = 1/s for s >= lam,
else 0; Landweber g(s) = (1 - (1 - eta*s)^m) / s with the s = 0 limit m*eta.
Eigenvalues below 1e-12 of the largest are treated as exactly 0 for the
cutoff and Landweber filters (round-off directions contribute nothing to the
fitted map but would destabilize those filters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .embeddings import WeightedEmbedding
from .kernels import Kernel, Point, cross_gram, gram, kernel_eval

RANK_TOL = 1e-12
JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class PairedSample:
    """iid draws (x_i, y_i) from the joint law, as two equal-length point lists."""

    X: tuple[Point, ...]
    Y: tuple[Point, ...]

    def __post_init__(self) -> None:
        X = tuple(self.X)
        Y = tuple(self.Y)
        if len(X) == 0 or len(X) != len(Y):
            raise ValueError(f"need equal nonempty X and Y, got {len(X)} and {len(Y)}")
        for pts in (X, Y):
            d = pts[0].dim
            for p in pts:
                if p.dim != d:
                    raise ValueError("sample has inconsistent point dimensions")
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
        if int(self.steps) < 1:
            raise ValueError(f"Landweber needs steps >= 1, got {self.steps}")
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
class CmeEstimator:
    """Fitted estimator: training points plus the n x n coefficient matrix W.

    The predicted embedding at x is supported on Y with weights W @ k_X(x).
    For estimators fitted with the Tikhonov filter, W is the solution of
    (G_X + n*lam*I) W = I (checked in the test suite, not at construction,
    since exact oracle witnesses legitimately carry hand-built W).  ``jitter``
    is what the closed-form fit added to the diagonal of G_X + n*lam*I (0.0
    when none); estimator files do not store it.
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
        n = len(self.X)
        if n == 0 or len(self.Y) != n:
            raise ValueError("X and Y must be equal-length nonempty tuples")
        # C order: predictions must be bit-identical regardless of whether W
        # came from a solver (Fortran order) or from a file
        W = np.array(self.W, dtype=float, order="C")
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise ValueError("W must be finite")
        W.setflags(write=False)
        object.__setattr__(self, "X", tuple(self.X))
        object.__setattr__(self, "Y", tuple(self.Y))
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


def _filtered_coefficients(G: np.ndarray, filt: SpectralFilter, lam: float) -> np.ndarray:
    """W = (1/n) U g_lam(S) U^T from the eigendecomposition G/n = U S U^T."""
    n = G.shape[0]
    s, U = np.linalg.eigh(G / n)
    s_max = max(float(s[-1]), 0.0)
    if not isinstance(filt, Tikhonov):
        # round-off eigenvalues act as exact zeros for cutoff / Landweber
        s = np.where(s < RANK_TOL * s_max, 0.0, s)
    if isinstance(filt, Landweber) and filt.step_size * s_max > 2.0:
        raise DivergentStepError(
            f"Landweber step_size {filt.step_size} violates step_size * max spectrum "
            f"({s_max:.6g}) <= 2; the iteration would diverge"
        )
    g = np.array([filter_value(filt, lam, float(si)) for si in s])
    return (U * g) @ U.T / n


def fit_cme(sample: PairedSample, kernel: Kernel, filt: SpectralFilter, lam: float) -> CmeEstimator:
    """Fit the regularized estimator with a generic spectral filter.

    Eigendecomposes G_X / n and applies the scalar filter to the spectrum;
    for the Tikhonov filter this is algebraically identical to
    :func:`fit_tikhonov_closed_form`.
    """
    if not (lam > 0):
        raise ValueError(f"lambda must be > 0, got {lam}")
    W = _filtered_coefficients(gram(kernel, sample.X), filt, lam)
    return CmeEstimator(kernel=kernel, lam=lam, filt=filt, X=sample.X, Y=sample.Y, W=W)


def fit_tikhonov_closed_form(sample: PairedSample, kernel: Kernel, lam: float) -> CmeEstimator:
    """Fit the Tikhonov estimator via the closed-form normal equations.

    W solves (G_X + n*lam*I) W = I through a positive-definite linear solve;
    no matrix inverse is ever formed explicitly.
    """
    if not (lam > 0):
        raise ValueError(f"lambda must be > 0, got {lam}")
    n = sample.n
    W, jitter = solve_pd(gram(kernel, sample.X), np.eye(n, order="F"), n * lam)
    return CmeEstimator(
        kernel=kernel, lam=lam, filt=Tikhonov(), X=sample.X, Y=sample.Y, W=W, jitter=jitter
    )


def _query_weights(est: CmeEstimator, x: Point) -> np.ndarray:
    if x.dim != est.X[0].dim:
        raise ValueError(f"query dimension {x.dim} does not match training dimension {est.X[0].dim}")
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
    if sample.X[0].dim != est.X[0].dim or sample.Y[0].dim != est.Y[0].dim:
        raise ValueError("sample dimensions do not match the estimator")
    K_xq = cross_gram(est.kernel, est.X, sample.X)          # train-X x query-X
    Omega = est.W @ K_xq                                    # column i = weights at x_i
    K_yy = cross_gram(est.kernel, est.Y, sample.Y)          # train-Y x query-Y
    G_Y = gram(est.kernel, est.Y)
    diag_k = np.array([kernel_eval(est.kernel, y, y) for y in sample.Y])
    cross_term = np.einsum("ji,ji->i", Omega, K_yy)
    norm_term = np.einsum("ji,ji->i", Omega, G_Y @ Omega)
    return float(np.mean(diag_k - 2.0 * cross_term + norm_term))


def regularized_empirical_risk(est: CmeEstimator, sample: PairedSample) -> float:
    """empirical_risk plus lam * hs_norm_sq, the objective the Tikhonov fit minimizes."""
    return empirical_risk(est, sample) + est.lam * hs_norm_sq(est)

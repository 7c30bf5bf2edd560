"""Eigendecomposition of the regularized empirical transition-operator estimate.

On the span of the training features phi(x_1..x_n) the fitted operator acts as
the n x n matrix

    M = (G_X + n*lam*I)^{-1} K_YX,        K_YX[i, j] = k(y_i, x_j):

for f = sum_j v_j phi(x_j) the image is sum_i (M v)_i phi(x_i).  This span is
invariant under the estimate, so its eigenpairs are exactly the matrix
eigenpairs of M; eigenvalues outside the span are not accessible.

Eigenvalues are sorted by modulus (descending), ties broken by real part
descending, then nonnegative imaginary part first.  Eigenfunction coefficient
vectors v are normalized to unit RKHS norm (v^H G_X v = 1) with the first
nonzero component given nonnegative real part, which makes results
reproducible across eigensolver backends.  Large problems use an implicitly
restarted Arnoldi iteration with a fixed start vector instead of the dense
solver; both paths satisfy the same residual contract.

G_X and K_YX are formed once per fit, in ``_edmd_system``, and G_X + n*lam*I
is formed and factored once by :func:`cmekit.estimators._factor_pd` under the
package's one policy (Cholesky, at most one jitter of 1e-10 * trace / n).
``edmd_eigen`` measures the residuals with that same factor, so they belong to
the same, possibly jittered, operator the eigenpairs came from, and it records
the jitter it added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .estimators import PairedSample, _factor_pd
from .kernels import Kernel, Point, _frozen_array, _point_tuple, cross_gram, gram

DENSE_EIG_LIMIT = 1200
_PAIR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EdmdResult:
    """Top eigenvalues and eigenfunction coefficients of the fitted operator.

    ``coeffs[:, j]`` expands eigenfunction j over the training features:
    f_j = sum_i coeffs[i, j] phi(X[i]).  ``residuals[j]`` is the RKHS-norm
    residual of eigenpair j and ``jitter`` the amount the factorization added to
    the diagonal of G_X + n*lam*I (0.0 when none); ``edmd_eigen`` fills both.
    """

    eigenvalues: np.ndarray
    coeffs: np.ndarray
    X: tuple[Point, ...]
    kernel: Kernel
    lam: float
    residuals: np.ndarray | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        X = _point_tuple(self.X, "EdmdResult X")
        w = _frozen_array(self.eigenvalues, "eigenvalues", complex)
        V = _frozen_array(self.coeffs, "coeffs", complex)
        res = None if self.residuals is None else _frozen_array(self.residuals, "residuals")
        if w.ndim != 1 or V.shape != (len(X), len(w)) or res is not None and res.shape != w.shape:
            raise ValueError(
                f"need eigenvalues of shape (r,), coeffs ({len(X)}, r) and residuals (r,); "
                f"got shapes {w.shape}, {V.shape} and {None if res is None else res.shape}"
            )
        for name, value in (("X", X), ("eigenvalues", w), ("coeffs", V), ("residuals", res)):
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return len(self.eigenvalues)


def _edmd_system(sample: PairedSample, kernel: Kernel, lam: float):
    """G_X, K_YX, the factor of G_X + n*lam*I and the jitter that factorization added."""
    if not (lam > 0):
        raise ValueError(f"lambda must be > 0, got {lam}")
    G = gram(kernel, sample.X)
    K_yx = cross_gram(kernel, sample.Y, sample.X)
    factor, jitter = _factor_pd(G, sample.n * lam)
    return G, K_yx, factor, jitter


def edmd_matrix(sample: PairedSample, kernel: Kernel, lam: float) -> np.ndarray:
    """The Gram-coordinate matrix M = (G_X + n*lam*I)^{-1} K_YX."""
    _, K_yx, factor, _ = _edmd_system(sample, kernel, lam)
    return scipy.linalg.cho_solve(factor, K_yx, check_finite=False)


def _rkhs_norm_sq(G: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Re(v^H G v) per column v of V, from real and imaginary parts: G is never cast to complex."""
    return sum(np.einsum("ij,ij->j", part, G @ part) for part in (V.real, V.imag))


def _sort_eigenpairs(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # lexsort: last key is primary
    order = np.lexsort(((w.imag < 0).astype(int), -w.real, -np.abs(w)))
    return w[order], V[:, order]


def _normalize_columns(w: np.ndarray, V: np.ndarray, G: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.diag(G)))
    norm_sq = _rkhs_norm_sq(G, V)
    null = norm_sq <= 1e-14 * scale * np.sum(np.abs(V) ** 2, axis=0)
    if np.any(null):
        j = int(np.argmax(null))
        raise np.linalg.LinAlgError(
            f"eigenfunction {j} (eigenvalue {w[j]:.3e}) has zero RKHS norm; "
            "it lies in a null direction of the Gram matrix, reduce r"
        )
    V = V / np.sqrt(norm_sq)
    A = np.abs(V)
    lead = V[np.argmax(A > 1e-12 * A.max(axis=0), axis=0), np.arange(V.shape[1])]
    return V * np.where((lead.real < 0) | ((lead.real == 0) & (lead.imag < 0)), -1, 1)


def _enforce_conjugate_pairs(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # pairs in place: w and V are fresh arrays from _sort_eigenpairs / _normalize_columns
    used = np.zeros(len(w), dtype=bool)
    for i in range(len(w)):
        if used[i] or abs(w[i].imag) <= _PAIR_TOL * (1.0 + abs(w[i])):
            continue
        for j in range(i + 1, len(w)):
            if not used[j] and abs(w[j] - np.conj(w[i])) <= _PAIR_TOL * (1.0 + abs(w[i])):
                w[j] = np.conj(w[i])
                V[:, j] = np.conj(V[:, i])
                used[i] = used[j] = True
                break
    return w, V


def edmd_eigen(sample: PairedSample, kernel: Kernel, lam: float, r: int) -> EdmdResult:
    """Top-r eigenpairs of the regularized empirical transition operator.

    Small problems run the dense nonsymmetric eigensolver on M; above
    ``DENSE_EIG_LIMIT`` training points the matrix is applied implicitly
    (one Cholesky factorization, matvecs via triangular solves) inside a
    deterministic Arnoldi iteration.  The same operator application gives the
    residuals sqrt(d^H G_X d), d = M v_j - mu_j v_j.
    """
    n = sample.n
    if not (1 <= r <= n):
        raise ValueError(f"r out of range: need 1 <= r <= {n}, got {r}")
    G, K_yx, factor, jitter = _edmd_system(sample, kernel, lam)

    if n <= DENSE_EIG_LIMIT or r > n - 2:
        M = scipy.linalg.cho_solve(factor, K_yx, check_finite=False)
        apply = M.__matmul__
        w, V = scipy.linalg.eig(M)
        w, V = _sort_eigenpairs(w, V)
        w, V = w[:r], V[:, :r]
    else:
        def apply(v: np.ndarray) -> np.ndarray:
            return scipy.linalg.cho_solve(factor, K_yx @ v, check_finite=False)

        op = scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=float)
        w, V = scipy.sparse.linalg.eigs(op, k=r, which="LM", v0=np.ones(n))
        w, V = _sort_eigenpairs(w, V)

    V = _normalize_columns(w, V, G)
    w, V = _enforce_conjugate_pairs(w, V)
    D = apply(V.real) + 1j * apply(V.imag) - V * w
    residuals = np.sqrt(np.maximum(_rkhs_norm_sq(G, D), 0.0))
    return EdmdResult(w, V, sample.X, kernel, lam, residuals=residuals, jitter=jitter)


def eval_eigenfunction(res: EdmdResult, j: int, x: Point) -> complex:
    """Evaluate eigenfunction j at x: sum_i coeffs[i, j] k(X[i], x)."""
    if not (0 <= j < res.r):
        raise IndexError(f"eigenfunction index {j} out of range [0, {res.r})")
    kx = cross_gram(res.kernel, res.X, [x])[:, 0]
    return complex(res.coeffs[:, j] @ kx)


def eigen_residuals(res: EdmdResult, sample: PairedSample) -> np.ndarray:
    """RKHS-norm residuals ||A f_j - mu_j f_j||_H for unit-norm eigenfunctions.

    ``edmd_eigen`` computes them with the factorization its eigenpairs came
    from; residual j is sqrt(d^H G_X d) with d = M v_j - mu_j v_j.  ``sample``
    must be the one the result was fitted on.
    """
    if tuple(sample.X) != res.X:
        raise ValueError("sample does not match the training points of the result")
    if res.residuals is None:
        raise ValueError("the result carries no residuals; compute it with edmd_eigen")
    return res.residuals


def sign_cluster(res: EdmdResult, states: Sequence[Point]) -> np.ndarray:
    """Two-way metastable split by the sign of Re(second eigenfunction).

    Label 0 where the real part is positive, 1 where negative; exact zeros
    take the label of the nearest nonzero entry in input order (earlier index
    wins ties).  All-zero input gets label 0 everywhere.
    """
    if res.r < 2:
        raise ValueError(f"sign clustering needs r >= 2 eigenfunctions, got {res.r}")
    kx = cross_gram(res.kernel, res.X, states)
    vals = np.real(res.coeffs[:, 1] @ kx)
    labels = np.where(vals > 0, 0, 1)
    zero = vals == 0.0
    if np.all(zero):
        return np.zeros(len(states), dtype=int)
    nonzero_idx = np.nonzero(~zero)[0]
    for i in np.nonzero(zero)[0]:
        nearest = nonzero_idx[np.argmin(np.abs(nonzero_idx - i))]
        labels[i] = labels[nearest]
    return labels.astype(int)

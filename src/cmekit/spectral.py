"""Eigendecomposition of the regularized empirical transition-operator estimate.

On the span of the training features phi(x_1..x_n) the fitted operator acts as
the n x n matrix

    M = (G_X + n*lam*I)^{-1} K_YX,        K_YX[i, j] = k(y_i, x_j):

for f = sum_j v_j phi(x_j) the image is sum_i (M v)_i phi(x_i).  This span is
invariant under the estimate, so its eigenpairs are exactly the matrix
eigenpairs of M; eigenvalues outside the span are not accessible.

Eigenvalues are sorted by modulus (descending), ties broken by real part
descending, then nonnegative imaginary part first.  Eigenfunction coefficient
vectors v are normalized to unit RKHS norm (v^H G_X v = 1) and negated when
their first significant component (above 1e-12 of the largest) has negative
real part.  Both eigensolvers return each complex pair as exact conjugates,
eigenvectors included, and these rules keep it so.  A kept eigenvalue with
negative imaginary part whose exact conjugate falls past r is replaced by that
conjugate, with the conjugate eigenvector, so the kept member of a pair cut at
r has nonnegative imaginary part, also when a complex eigenvalue repeats.

One rule picks the eigensolver: every r <= n - 2 runs ARPACK's implicitly
restarted Arnoldi iteration (``scipy.sparse.linalg.eigs``, which needs
r < n - 1 for a real nonsymmetric operator) with a fixed start vector, applying
M through the factor without forming it; only r >= n - 1 forms M and runs the
dense ``scipy.linalg.eig``.  Both satisfy the same residual contract.
``scipy.sparse.linalg`` is imported on the first Arnoldi fit, so nothing else
in the package loads ``scipy.sparse``.

G_X and K_YX are each formed once per fit, in that order, and then
G_X + n*lam*I is factored once by :func:`cmekit.estimators._factor_pd` under
the package's one policy (Cholesky, at most one jitter of 1e-10 * trace / n).
One BLAS thread pool per fit: numpy and scipy may each load their own BLAS,
and scipy's threads keep spinning for a while after the factor returns, so
K_YX is built before the factor, not beside that busy pool, and every
product with K_YX runs on scipy's BLAS: ``dgemv`` in each Arnoldi step and
``dgemm`` for the residuals, each the transposed product on K_YX.T, an
F-ordered view.  Only the dense path's products with M use numpy.

The factor is packed into G_X's own buffer: its lower triangle holds L, its
strict upper triangle still holds G_X, and G_X's diagonal is kept aside.
Every solve with the factor is two triangular solves on L, which read only
the lower triangle, and G_X V is one symmetric product over the upper one.  A fit thus holds two n x n blocks,
the packed factor and K_YX; for r >= n - 1, M = (G_X + n*lam*I)^{-1} K_YX is
solved in K_YX's buffer.  ``edmd_eigen`` measures the residuals with that same
factor, so they belong to the same, possibly jittered, operator the eigenpairs
came from, and it records the jitter it added.  It applies M once, to the
real and imaginary parts of the r eigenvectors side by side, and reads the
RKHS norms of the eigenvectors and of their residuals M v - mu v off one
symmetric product; a residual scales with its eigenvector, so residual j is
sqrt(d_j^H G_X d_j / v_j^H G_X v_j) for the unnormalized v_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dgemv, dsymm

from .estimators import PairedSample, _diagonal_shift, _factor_pd
from .kernels import Kernel, Point, _Rebuilt, _frozen_array, _point_tuple, cross_gram

@dataclass(frozen=True, eq=False)
class EdmdResult(_Rebuilt):
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
    residuals: np.ndarray
    jitter: float = 0.0

    def __post_init__(self) -> None:
        X = _point_tuple(self.X, "EdmdResult X")
        w = _frozen_array(self.eigenvalues, "eigenvalues", complex)
        V = _frozen_array(self.coeffs, "coeffs", complex)
        res = _frozen_array(self.residuals, "residuals")
        if w.ndim != 1 or V.shape != (len(X), len(w)) or res.shape != w.shape:
            raise ValueError(
                f"need eigenvalues of shape (r,), coeffs ({len(X)}, r) and residuals (r,); "
                f"got shapes {w.shape}, {V.shape} and {res.shape}"
            )
        for name, value in (("X", X), ("eigenvalues", w), ("coeffs", V), ("residuals", res)):
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return len(self.eigenvalues)


def _rkhs_norm_sq(factor, g: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Re(v^H G_X v) per column v of V, from real and imaginary parts: G_X is never cast to complex.

    G_X [Re V, Im V] is one symmetric product over the packed factor's upper
    triangle, with G_X's diagonal ``g`` put in for it and L's put back after.
    """
    A, r = factor[0], V.shape[1]
    diag, l_diag = slice(None, None, A.shape[0] + 1), A.diagonal().copy()
    P = np.concatenate([V.real, V.imag], axis=1)
    A.flat[diag] = g
    GP = dsymm(1.0, A, P)
    A.flat[diag] = l_diag
    q = np.einsum("ij,ij->j", P, GP)
    return q[:r] + q[r:]


def _sorted_pairs(w: np.ndarray, V: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The first r eigenpairs in the documented order; a pair cut at r keeps its upper member."""
    # lexsort: last key is primary
    order = np.lexsort(((w.imag < 0).astype(int), -w.real, -np.abs(w)))[:r]
    w, V = w[order], V[:, order]
    lone = (w.imag < 0) & ~np.isin(np.conj(w), w)
    w[lone], V[:, lone] = np.conj(w[lone]), np.conj(V[:, lone])
    return w, V


def _solve(factor, B: np.ndarray) -> np.ndarray:
    """(L L^T)^{-1} B by two triangular solves on the packed lower factor L; B may be overwritten.

    Each solve reads only L's triangle, so G_X kept in the strict upper one is
    not touched; the factor of a finite system is finite, so neither scans it.
    """
    L = factor[0]
    B = scipy.linalg.solve_triangular(L, B, lower=True, overwrite_b=True, check_finite=False)
    return scipy.linalg.solve_triangular(
        L, B, lower=True, trans="T", overwrite_b=True, check_finite=False
    )


def _normalize_columns(
    w: np.ndarray, V: np.ndarray, norm_sq: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """V with unit RKHS-norm columns under the sign rule; ``norm_sq`` holds v^H G_X v per column."""
    scale = float(np.max(g))
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
    return V * np.where(lead.real < 0, -1, 1)


def edmd_eigen(sample: PairedSample, kernel: Kernel, lam: float, r: int) -> EdmdResult:
    """Top-r eigenpairs of the regularized empirical transition operator.

    For r <= n - 2 the matrix M is applied implicitly (one Cholesky
    factorization, matvecs via triangular solves) inside a deterministic
    Arnoldi iteration; only r >= n - 1, which ARPACK cannot do, forms M and
    runs the dense nonsymmetric eigensolver.  The same operator application
    gives the residuals sqrt(d^H G_X d), d = M v_j - mu_j v_j.
    """
    n = sample.n
    if not (1 <= r <= n):
        raise ValueError(f"r out of range: need 1 <= r <= {n}, got {r}")
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be > 0 and finite, got {lam}")
    shift = _diagonal_shift(n, lam)
    arnoldi = r <= n - 2
    G = cross_gram(kernel, sample.X, sample.X).T          # F-ordered: G_X is exactly symmetric
    g = G.diagonal().copy()
    # K_YX before the factor: C-ordered for the Arnoldi products, F-ordered for the dense solve
    K_yx = cross_gram(kernel, sample.Y, sample.X) if arnoldi else cross_gram(kernel, sample.X, sample.Y).T
    factor, jitter = _factor_pd(G, shift)

    if arnoldi:
        from scipy.sparse.linalg import LinearOperator, eigs   # loaded on the first Arnoldi fit

        def apply(v: np.ndarray) -> np.ndarray:
            # K_YX v as the transposed product on K_YX.T, an F-ordered view
            Kv = dgemv(1.0, K_yx.T, v, trans=1) if v.ndim == 1 else dgemm(1.0, K_yx.T, v, trans_a=1)
            return _solve(factor, Kv)

        op = LinearOperator((n, n), matvec=apply, dtype=float)
        w, V = _sorted_pairs(*eigs(op, k=r, which="LM", v0=np.ones(n)), r)
    else:
        M = _solve(factor, K_yx)
        apply = M.__matmul__
        w, V = _sorted_pairs(*scipy.linalg.eig(M), r)

    # residuals scale with |v|, so D and both norms come from the unnormalized V
    MP = apply(np.concatenate([V.real, V.imag], axis=1))
    D = MP[:, :r] + 1j * MP[:, r:] - V * w
    q = _rkhs_norm_sq(factor, g, np.concatenate([V, D], axis=1))
    norm_sq = q[:r]
    V = _normalize_columns(w, V, norm_sq, g)
    residuals = np.sqrt(np.maximum(q[r:], 0.0)) / np.sqrt(norm_sq)
    return EdmdResult(w, V, sample.X, kernel, lam, residuals, jitter)


def eval_eigenfunction(res: EdmdResult, j: int, x: Point) -> complex:
    """Evaluate eigenfunction j at x: sum_i coeffs[i, j] k(X[i], x)."""
    if not (0 <= j < res.r):
        raise IndexError(f"eigenfunction index {j} out of range [0, {res.r})")
    kx = cross_gram(res.kernel, res.X, [x])[:, 0]
    return complex(res.coeffs[:, j] @ kx)


def eigen_residuals(res: EdmdResult) -> np.ndarray:
    """RKHS-norm residuals ||A f_j - mu_j f_j||_H for unit-norm eigenfunctions.

    ``edmd_eigen`` computes them with the factorization its eigenpairs came
    from; residual j is sqrt(d^H G_X d) with d = M v_j - mu_j v_j.
    """
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

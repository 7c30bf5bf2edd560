"""Kernel mean embeddings as finite weighted feature expansions.

A WeightedEmbedding stores sum_i w_i * phi(z_i) in the RKHS of its kernel.
Inner products and norms reduce to quadratic forms in (cross-)Gram matrices,
which keeps every value exactly testable at desk scale (n <= 1e4).

The squared MMD between two samples is the squared RKHS distance between
their empirical mean embeddings; the biased estimator is the plug-in
V-statistic, the unbiased one the usual off-diagonal U-statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .kernels import Kernel, Point, _Rebuilt, _frozen_array, _point_tuple, coords_matrix, cross_gram


@dataclass(frozen=True, eq=False)
class WeightedEmbedding(_Rebuilt):
    """Finite expansion sum_i weights[i] * phi(support[i]) in the RKHS."""

    kernel: Kernel
    support: tuple[Point, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        support = _point_tuple(self.support, "embedding support")
        w = _frozen_array(self.weights, "embedding weights").reshape(-1)
        if w.shape[0] != len(support):
            raise ValueError(f"{len(support)} support points but {w.shape[0]} weights")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", w)


def mean_embed(kernel: Kernel, samples: Sequence[Point]) -> WeightedEmbedding:
    """Empirical mean embedding: uniform weights 1/n on the sample points."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot embed an empty sample")
    return WeightedEmbedding(kernel=kernel, support=samples, weights=np.full(n, 1.0 / n))


def embed_inner(a: WeightedEmbedding, b: WeightedEmbedding) -> float:
    """RKHS inner product <a, b> = sum_ij a_i b_j k(z_i, z'_j).

    Both embeddings must live in the same RKHS (identical kernel spec).
    """
    if a.kernel != b.kernel:
        raise ValueError("embeddings use different kernels")
    K = cross_gram(a.kernel, a.support, b.support)
    return float(a.weights @ K @ b.weights)


def embed_diff(a: WeightedEmbedding, b: WeightedEmbedding) -> WeightedEmbedding:
    """The RKHS element a - b, as one expansion over the joined supports."""
    if a.kernel != b.kernel:
        raise ValueError("embeddings use different kernels")
    return WeightedEmbedding(
        kernel=a.kernel,
        support=np.concatenate([coords_matrix(a.support), coords_matrix(b.support)]),
        weights=np.concatenate([a.weights, -b.weights]),
    )


def _mmd_sq(kernel: Kernel, P: Sequence[Point], Q: Sequence[Point]) -> tuple[float, float | None]:
    """Biased and unbiased squared MMD from the sums of the three Gram blocks.

    (P, Q) is put in a canonical order (size, then coordinate bytes), so both
    values are bitwise symmetric.  A Gaussian or Laplacian block's sum adds the
    sums of its row blocks from ``kernels._row_blocks`` exactly, so no block is
    held whole, and that engine builds G_P and G_Q from their upper triangles.
    Samples of equal bytes take the cross sum from G_P, so the same list gives
    exactly 0.0.  A table kernel's sums are quadratic forms c_rows^T T c_cols in
    the state counts c of each sample, one table lookup per point.
    The unbiased value is None below two points per sample.
    """
    P, Q = _point_tuple(P, "MMD sample"), _point_tuple(Q, "MMD sample")
    key_p, key_q = ((len(S), S._coords.tobytes()) for S in (P, Q))
    if key_q < key_p:
        P, Q = Q, P
    n, m = len(P), len(Q)
    if isinstance(kernel, kernels.TableKernel):
        T = kernel._values_array
        cp, cq = (np.bincount(kernel._lookup(S), minlength=len(T)) for S in (P, Q))
        spp, sqq, spq = cp @ T @ cp, cq @ T @ cq, cp @ T @ cq
        tpp, tqq = cp @ np.diag(T), cq @ np.diag(T)
    else:
        p, q = P._coords, Q._coords
        if p.shape[1] != q.shape[1]:
            raise ValueError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
        spp, sqq = (math.fsum(kernels._row_blocks(kernel, S, S, np.ndarray.sum)) for S in (p, q))
        spq = spp if key_p == key_q else math.fsum(kernels._row_blocks(kernel, p, q, np.ndarray.sum))
        tpp, tqq = (kernels._kernel_diagonal(kernel, S).sum() for S in (P, Q))
    kpq = spq / (n * m)
    biased = float(spp / (n * n) + sqq / (m * m) - 2.0 * kpq)
    if n < 2 or m < 2:
        return biased, None
    return biased, float((spp - tpp) / (n * (n - 1)) + (sqq - tqq) / (m * (m - 1)) - 2.0 * kpq)


def mmd_sq_biased(kernel: Kernel, P: Sequence[Point], Q: Sequence[Point]) -> float:
    """Plug-in (V-statistic) squared MMD ||mu_P - mu_Q||^2.

    Expanded as the three double sums over Gram blocks; exactly symmetric in
    (P, Q) and exactly zero when P and Q are the same list.
    """
    return _mmd_sq(kernel, P, Q)[0]


def mmd_sq_unbiased(kernel: Kernel, P: Sequence[Point], Q: Sequence[Point]) -> float:
    """U-statistic squared-MMD estimator (off-diagonal sums); may be negative; exactly symmetric."""
    n, m = len(P), len(Q)
    if n < 2 or m < 2:
        raise ValueError(f"unbiased MMD needs at least 2 points per sample, got {n} and {m}")
    return _mmd_sq(kernel, P, Q)[1]

"""Scalar positive-semidefinite kernels and Gram-matrix assembly.

Kernel conventions (every derived constant in this package depends on them):

    Gaussian:   k(x, y) = exp(-||x - y||_2^2 / (2 * bandwidth^2))
    Laplacian:  k(x, y) = exp(-||x - y||_1 / scale)
    Table:      k(x, y) read from an explicit symmetric psd matrix over a
                finite list of states; both arguments must match a listed
                state exactly (no tolerance matching).

``gram`` returns a plain read-only ``(n, n)`` array, ``cross_gram`` a writable,
C-ordered ``(n, m)`` one, assembled in that one buffer: no second block is held
while a block is built.  Gram matrices are exactly symmetric with no mirroring
step: ``cdist`` applies the same arithmetic to (x, y) and (y, x), and a table
kernel stores its validated table symmetrized, so k(x, y) and k(y, x) agree bit
for bit and ``cross_gram(kernel, b, a).T`` is ``cross_gram(kernel, a, b)`` in F order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy.spatial.distance import cdist

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class Point:
    """A state-space point with finite real coordinates (d >= 1)."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if len(coords) == 0:
            raise ValueError("Point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"Point coordinates must be finite, got {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


def pt(*coords: float) -> Point:
    """Shorthand constructor: ``pt(0.3, -1.2)``."""
    return Point(tuple(coords))


class _Points(tuple):
    """A checked point tuple, equal to the plain one, carrying its read-only (n, d) ``_coords``."""

    def __reduce__(self):
        # pickle and deepcopy would bring the array back writable: rebuild through the check
        return _point_tuple, (tuple(self), "point list")


def _point_tuple(points: Sequence[Point], what: str) -> _Points:
    """``points`` as a nonempty tuple of Points of one dimension: every value type's point check.

    The coordinates are stacked here, once; a tuple already checked comes back as it is.
    """
    if type(points) is _Points:
        return points
    pts = _Points(points)
    if len(pts) == 0:
        raise ValueError(f"{what} must be nonempty")
    try:
        coords = np.array([p.coords for p in pts], dtype=float)
    except ValueError:
        raise ValueError(f"{what} has inconsistent point dimensions") from None
    coords.setflags(write=False)
    pts._coords = coords
    return pts


def _frozen_array(values, what: str, dtype: type = float) -> np.ndarray:
    """A read-only, C-ordered, finite copy of ``values``: every value type's array check.

    C order keeps results bit-identical whether an array came from a solver
    (Fortran order) or from a file.
    """
    arr = np.array(values, dtype=dtype, order="C")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


class _Rebuilt:
    """Mixin for frozen dataclasses holding arrays: pickle and deepcopy go through the
    constructor, so the checks run again and the arrays come back read-only."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def coords_matrix(points: Sequence[Point]) -> np.ndarray:
    """The points' (n, d) float64 coordinates; empty or mixed-dimension lists raise ValueError.

    The array is read-only: for the point tuples of the package's value types
    it is the one they carry, not a copy.
    """
    return _point_tuple(points, "point list")._coords


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 bandwidth^2))."""

    bandwidth: float

    def __post_init__(self) -> None:
        if not (self.bandwidth > 0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")


@dataclass(frozen=True)
class LaplacianKernel:
    """k(x, y) = exp(-||x - y||_1 / scale)."""

    scale: float

    def __post_init__(self) -> None:
        if not (self.scale > 0):
            raise ValueError(f"scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class TableKernel(_Rebuilt):
    """Explicit kernel table over a finite state set.

    ``values[i][j]`` is k(states[i], states[j]).  The matrix must be
    symmetric within 1e-12 and psd up to round-off (min eigenvalue
    >= -1e-10 * max eigenvalue); it is stored as ``(values + values.T) / 2``.
    Lookups require exact coordinate matches.
    """

    states: tuple[Point, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        states = _point_tuple(self.states, "table kernel states")
        if len(set(states)) != len(states):
            raise ValueError("table kernel states must be pairwise distinct")
        vals = _frozen_array(self.values, "table values")
        m = len(states)
        if vals.shape != (m, m):
            raise ValueError(f"table values must be {m}x{m}, got {vals.shape}")
        if np.max(np.abs(vals - vals.T)) > SYMMETRY_TOL:
            raise ValueError("table values must be symmetric within 1e-12")
        # leaves an exactly symmetric table unchanged bit for bit
        vals = 0.5 * (vals + vals.T)
        eigvals = np.linalg.eigvalsh(vals)
        top = max(eigvals.max(), 0.0)
        if eigvals.min() < -PSD_TOL * max(top, 1.0):
            raise ValueError("table values must be positive semidefinite")
        object.__setattr__(self, "states", states)
        vals.setflags(write=False)
        object.__setattr__(self, "values", tuple(map(tuple, vals.tolist())))
        object.__setattr__(self, "_values_array", vals)

    @cached_property
    def _index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.states)}

    def _lookup(self, points: Sequence[Point]) -> np.ndarray:
        idx = np.empty(len(points), dtype=int)
        for i, p in enumerate(points):
            j = self._index.get(p)
            if j is None:
                raise ValueError(f"point not in table: {p.coords}")
            idx[i] = j
        return idx


Kernel = Union[GaussianKernel, LaplacianKernel, TableKernel]


def kernel_eval(kernel: Kernel, x: Point, x2: Point) -> float:
    """Evaluate k(x, x2).

    Raises ValueError on dimension mismatch, and for table kernels when
    either point is not an exact member of the state list.
    """
    if x.dim != x2.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {x2.dim}")
    a = np.asarray(x.coords)
    b = np.asarray(x2.coords)
    if isinstance(kernel, GaussianKernel):
        d2 = float(np.dot(a - b, a - b))
        return math.exp(-d2 / (2.0 * kernel.bandwidth**2))
    if isinstance(kernel, LaplacianKernel):
        d1 = float(np.sum(np.abs(a - b)))
        return math.exp(-d1 / kernel.scale)
    if isinstance(kernel, TableKernel):
        i, j = kernel._lookup([x, x2])
        return float(kernel._values_array[i, j])
    raise TypeError(f"unknown kernel type: {type(kernel).__name__}")


def cross_gram(kernel: Kernel, rows: Sequence[Point], cols: Sequence[Point]) -> np.ndarray:
    """Matrix K with K[i, j] = k(rows[i], cols[j])."""
    a, b = coords_matrix(rows), coords_matrix(cols)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if isinstance(kernel, TableKernel):
        ri = kernel._lookup(rows)
        ci = kernel._lookup(cols)
        return kernel._values_array[np.ix_(ri, ci)]      # a new, writable C-ordered array
    if isinstance(kernel, GaussianKernel):
        K, c = cdist(a, b, "sqeuclidean"), 2.0 * kernel.bandwidth**2
    elif isinstance(kernel, LaplacianKernel):
        K, c = cdist(a, b, "cityblock"), kernel.scale
    else:
        raise TypeError(f"unknown kernel type: {type(kernel).__name__}")
    # exp(-D / c) in D's own buffer: (-d) / c and d / (-c) round to the same double
    np.divide(K, -c, out=K)
    return np.exp(K, out=K)


def gram(kernel: Kernel, points: Sequence[Point]) -> np.ndarray:
    """Read-only (n, n) Gram matrix over a point list, exactly symmetric."""
    G = cross_gram(kernel, points, points)
    G.setflags(write=False)
    return G

"""Scalar positive-semidefinite kernels and Gram-matrix assembly.

Kernel conventions (every derived constant in this package depends on them):

    Gaussian:   k(x, y) = exp(-||x - y||_2^2 / (2 * bandwidth^2))
    Laplacian:  k(x, y) = exp(-||x - y||_1 / scale)
    Table:      k(x, y) read from an explicit symmetric psd matrix over a
                finite list of states; both arguments must match a listed
                state exactly (no tolerance matching).

``gram`` returns a plain read-only ``(n, n)`` array, ``cross_gram`` a writable,
C-ordered ``(n, m)`` one, assembled in that one buffer: no second block is held
while a block is built.  ``kernel_eval`` is the ``1 x 1`` block, so one point
pair gets the same double from every route.

A Gaussian or Laplacian block is filled in row blocks of about
``_BLOCK_ENTRIES`` entries, small enough to stay in L2, and each row block is
finished while it is in cache: its distances, then ``/ (-c)`` and ``exp`` in
place.  The distance step depends on the dimension d:

- d = 1: ``x - y`` and its square or absolute value, numpy ufuncs in place:
  ``cdist``'s arithmetic at d = 1, so the doubles are the ones it would give.
- d >= 2: ``scipy.spatial.distance.cdist`` writes the row block's summed
  squared or absolute coordinate differences (faster than a numpy loop over
  the coordinates).  Each entry depends only on its own two points, so a row
  block gets the doubles a whole-block call would.  ``scipy.spatial`` is
  imported on the first such block, so 1-D work never loads it.

Gram matrices are exactly symmetric with no mirroring step: ``x - y`` is
``-(y - x)`` exactly, so ``(x - y)^2 == (y - x)^2`` and ``|x - y| == |y - x|``
hold bit for bit, and every later step is the same for (x, y) and (y, x); a
table kernel stores its validated table symmetrized.  So k(x, y) and k(y, x)
agree bit for bit and ``cross_gram(kernel, b, a).T`` is
``cross_gram(kernel, a, b)`` in F order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
_BLOCK_ENTRIES = 1 << 15          # 256 KB of doubles per row block of a Gram block


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


def _point_tuple(points: Union[Sequence[Point], np.ndarray], what: str) -> _Points:
    """``points`` as a nonempty tuple of Points of one dimension: every value type's point check.

    ``points`` is a sequence of Points or an (n, d) float array, one Point per
    row.  The coordinates are stacked here, once; a tuple already checked comes
    back as it is.
    """
    if type(points) is _Points:
        return points
    if isinstance(points, np.ndarray):
        if points.ndim != 2:
            raise ValueError(f"{what} must be an (n, d) array, got shape {points.shape}")
        points = [Point(tuple(row)) for row in points.tolist()]
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


def _point_rows(points: _Points, rows: Union[slice, np.ndarray]) -> Sequence[Point]:
    """The rows of a checked tuple picked by a slice or an index array, carrying their
    coordinate rows (a view for a slice), so that nothing stacks them again.  An empty
    pick stays a plain tuple, which no check accepts."""
    pick = points.__getitem__
    part = points[rows] if isinstance(rows, slice) else tuple(map(pick, rows.tolist()))
    if not part:
        return part
    part = _Points(part)
    part._coords = points._coords[rows]
    part._coords.setflags(write=False)
    return part


class _Adopted:
    """An array the package made itself, handed to a value type: ``_frozen_array`` holds it
    without a copy.  No other code keeps it, so freezing it cannot surprise a caller."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _frozen_array(values, what: str, dtype: type = float) -> np.ndarray:
    """A read-only, C-ordered, finite copy of ``values``: every value type's array check.

    C order keeps results bit-identical whether an array came from a solver
    (Fortran order) or from a file.  An ``_Adopted`` array already of that
    dtype and order is checked and frozen in place, not copied.
    """
    if type(values) is _Adopted:
        arr = np.asarray(values.array, dtype=dtype, order="C")
    else:
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
    """Evaluate k(x, x2): the ``1 x 1`` ``cross_gram`` block, bit for bit.

    Raises ValueError on dimension mismatch, and for table kernels when
    either point is not an exact member of the state list.
    """
    return float(cross_gram(kernel, [x], [x2])[0, 0])


def _kernel_diagonal(kernel: Kernel, points: Sequence[Point]) -> np.ndarray:
    """k(p, p) for each point, the doubles ``kernel_eval(kernel, p, p)`` gives.

    A Gaussian or Laplacian kernel's is exactly 1.0 (``exp(-0.0)``), and a
    table kernel's is its table's diagonal at the points.
    """
    if isinstance(kernel, TableKernel):
        idx = kernel._lookup(points)
        return kernel._values_array[idx, idx]
    return np.ones(len(points))


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
        metric, norm, c = "sqeuclidean", np.square, 2.0 * kernel.bandwidth**2
    elif isinstance(kernel, LaplacianKernel):
        metric, norm, c = "cityblock", np.abs, kernel.scale
    else:
        raise TypeError(f"unknown kernel type: {type(kernel).__name__}")
    if a.shape[1] > 1:
        from scipy.spatial.distance import cdist
    K = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_ENTRIES // len(b))
    for i in range(0, len(a), step):
        # each row block is finished while it is still in cache
        block = K[i:i + step]
        if a.shape[1] > 1:
            cdist(a[i:i + step], b, metric, out=block)
        else:
            np.subtract.outer(a[i:i + step, 0], b[:, 0], out=block)
            norm(block, out=block)
        # exp(-D / c) in D's own buffer: (-d) / c and d / (-c) round to the same double
        np.divide(block, -c, out=block)
        np.exp(block, out=block)
    return K


def gram(kernel: Kernel, points: Sequence[Point]) -> np.ndarray:
    """Read-only (n, n) Gram matrix over a point list, exactly symmetric."""
    G = cross_gram(kernel, points, points)
    G.setflags(write=False)
    return G

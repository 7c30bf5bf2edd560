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

A Gaussian or Laplacian block is built by one row-block engine,
``_row_blocks``, in row blocks of about ``_BLOCK_ENTRIES`` entries, small
enough to stay in L2.  Each row block is finished while it is in cache: its
distances, then ``/ (-c)`` and ``exp`` in place.  The engine hands each
finished row block to its caller: ``cross_gram`` builds them in its output,
and the MMD sums each one in a row block of scratch.  A self block, whose rows
and columns are one array, is summed from its upper block triangle, each pair
of points built once (symmetry, below): a row block covers its columns from
its own first row onward, taking more rows as the triangle narrows, and counts
``2 * sum(block) - sum(leading square)``.  A block of at least
``_SPLIT_ENTRIES`` (about 1M) entries, in a process allowed two or more CPUs
(``os.cpu_count()`` where there is no ``os.sched_getaffinity``), is built by
two workers: a thread started for that call builds the last row blocks, about
half of the entries, while the caller builds the first.  Every entry and
every row-block result is the same code on the same doubles in either thread,
so no output depends on the split.  Both workers, and one worker on a block of
at least ``_BUFFER_ENTRIES`` (4096) entries, build at a ufunc buffer of 16
elements (``_small_ufunc_buffer``): a narrow row block's broadcast ``x - y``
then skips numpy's buffered loop, and no double changes.  The distance step
depends on the dimension d:

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
import os
import threading
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
_BLOCK_ENTRIES = 1 << 15          # 256 KB of doubles per row block of a Gram block
_SPLIT_ENTRIES = 32 * _BLOCK_ENTRIES    # a Gram block this large is built on two threads
_BUFFER_ENTRIES = _BLOCK_ENTRIES // 8   # a Gram block this large is built at a small ufunc buffer


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


def pt(*coords: float) -> Point:
    """Shorthand constructor: ``pt(0.3, -1.2)``."""
    return Point(tuple(coords))


class _Points(Sequence):
    """A checked point set: a read-only sequence over one read-only (n, d) float64 array,
    C-ordered as checked, that equals and hashes as the plain tuple of its Points.  No Point
    is stored: an integer index makes one, a slice (a view) or an index array picks a
    ``_Points`` of those rows, and an empty pick stays ``()``, which no check accepts."""

    __slots__ = ("_coords",)

    def __init__(self, coords: np.ndarray) -> None:
        coords.setflags(write=False)
        self._coords = coords

    def __len__(self) -> int:
        return len(self._coords)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            rows = self._coords[index]
            return _Points(rows) if len(rows) else ()
        return Point(tuple(self._coords[index].tolist()))

    def __iter__(self):
        return map(Point, map(tuple, self._coords.tolist()))

    def __eq__(self, other):
        if isinstance(other, _Points):
            return np.array_equal(self._coords, other._coords)     # -0.0 == 0.0, as for Points
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        # pickle and deepcopy would bring the array back writable: rebuild through the check
        return _point_tuple, (self._coords, "point list")


def _point_tuple(points: Union[Sequence[Point], np.ndarray], what: str) -> _Points:
    """``points`` as a nonempty checked point set of one dimension d >= 1: every value type's
    point check.  A sequence of Points is stacked here, once, and an (n, d) real array is
    copied, with no Point built; a checked set comes back as it is."""
    if type(points) is _Points:
        return points
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] == 0:
            raise ValueError(f"{what} must be an (n, d) array, d >= 1, got shape {points.shape}")
        if points.dtype.kind not in "biuf":     # a cast would drop an imaginary part silently
            raise ValueError(f"{what} must be a real array, got dtype {points.dtype}")
        coords = _frozen_array(points, what)
    else:
        try:
            coords = np.array([p.coords for p in points], dtype=float)
        except ValueError:
            raise ValueError(f"{what} has inconsistent point dimensions") from None
    if len(coords) == 0:
        raise ValueError(f"{what} must be nonempty")
    return _Points(coords)


def _support(points: Sequence[Point]) -> tuple[_Points, np.ndarray, np.ndarray]:
    """Distinct points D in first-appearance order, each point's index into D, and D's counts:
    the package's one rule for when two points are the same.

    ``np.argsort`` keys each row of the checked set's coordinates by its value
    at d = 1 and by its bytes at d >= 2 (sorting rows with ``axis=0`` is
    several times slower).  Adding 0.0 makes -0.0 and 0.0 one point, as
    ``Point`` equality does, so finite rows are equal exactly when their bytes
    are.  A value's first index is the least in its run of the sorted keys, so
    the sort need not be stable; ranking the first indices restores
    first-appearance order.  D holds each value's first row.
    """
    pts = _point_tuple(points, "point list")
    coords = pts._coords + 0.0
    row_bytes = np.dtype((np.void, coords[0].nbytes))
    keys = coords[:, 0] if coords.shape[1] == 1 else coords.view(row_bytes)[:, 0]
    perm = np.argsort(keys)
    starts = np.concatenate(([True], keys[perm[1:]] != keys[perm[:-1]]))
    first = np.minimum.reduceat(perm, np.flatnonzero(starts))
    order = np.argsort(first)
    inv = np.empty_like(perm)
    inv[perm] = np.argsort(order)[np.cumsum(starts) - 1]    # argsort inverts the permutation
    return pts[first[order]], inv, np.bincount(inv).astype(float)


def _state_index(states: _Points, points: Sequence[Point], off: str) -> np.ndarray:
    """Each point's index in the distinct ``states``, by ``_support``'s rule: the states come
    first, so each keeps its own index.  Points off the states raise ``ValueError(off: ...)``."""
    pts, m = _point_tuple(points, "point list"), len(states)
    idx = np.full(len(pts), m)
    if pts._coords.shape[1] == states._coords.shape[1]:
        idx = _support(np.concatenate([states._coords, pts._coords]))[1][m:]
    if missing := pts[idx >= m]:
        raise ValueError(f"{off}: {sorted({p.coords for p in missing})}")
    return idx


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

    The array is read-only: for the point sets of the package's value types
    it is the one they hold, not a copy.
    """
    return _point_tuple(points, "point list")._coords


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 bandwidth^2))."""

    bandwidth: float

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be > 0 and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class LaplacianKernel:
    """k(x, y) = exp(-||x - y||_1 / scale)."""

    scale: float

    def __post_init__(self) -> None:
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be > 0 and finite, got {self.scale}")


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
        if len(_support(states)[0]) != len(states):
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

    def _lookup(self, points: Sequence[Point]) -> np.ndarray:
        return _state_index(self.states, points, "point not in table")


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
        ci = ri if cols is rows else kernel._lookup(cols)
        return kernel._values_array[np.ix_(ri, ci)]      # a new, writable C-ordered array
    K = np.empty((len(a), len(b)))
    _row_blocks(kernel, a, b, out=K)
    return K


def _row_blocks(
    kernel: Kernel, a: np.ndarray, b: np.ndarray, visit: Callable | None = None, out: np.ndarray | None = None
) -> list:
    """Build the Gaussian or Laplacian block k(a[i], b[j]) of two (n, d) and (m, d) arrays in
    row blocks, on one or two workers (see the module docstring), in ``out`` or else in one
    row block of scratch per worker.  Returns ``visit(block)`` for each row block, in row-block
    order; the caller re-raises what either worker raised, once both have stopped.

    A self block (``b is a``, no ``out``) is built from its upper block triangle: a row block
    covers its columns from its own first row onward, in as many rows as fit in
    ``_BLOCK_ENTRIES`` entries, and its result is ``2 * visit(block) - visit(row sums of its
    leading square)``: for a sum, the sum of its rows of the whole symmetric block."""
    if isinstance(kernel, GaussianKernel):
        metric, norm, c = "sqeuclidean", np.square, 2.0 * kernel.bandwidth**2
    elif isinstance(kernel, LaplacianKernel):
        metric, norm, c = "cityblock", np.abs, kernel.scale
    else:
        raise TypeError(f"unknown kernel type: {type(kernel).__name__}")
    if a.shape[1] > 1:
        from scipy.spatial.distance import cdist
    upper = out is None and b is a
    step = max(1, _BLOCK_ENTRIES // len(b))
    starts = range(0, len(a), step)
    if upper:
        # the row blocks narrow down the triangle, so each takes more rows
        starts = [0]
        while (i := starts[-1] + max(1, _BLOCK_ENTRIES // (len(a) - starts[-1]))) < len(a):
            starts.append(i)

    def work(part: Sequence[int]) -> list:
        scratch = np.empty(min(len(a) * len(b), max(_BLOCK_ENTRIES, len(b)))) if out is None else None
        done = []
        for i in part:
            stop = i + max(1, _BLOCK_ENTRIES // (len(a) - i)) if upper else i + step
            rows, cols = a[i:stop], b[i:] if upper else b
            # each row block is finished while it is still in cache
            block = scratch[:len(rows) * len(cols)].reshape(len(rows), -1) if out is None else out[i:stop]
            if a.shape[1] > 1:
                cdist(rows, cols, metric, out=block)
            else:
                np.subtract.outer(rows[:, 0], cols[:, 0], out=block)
                norm(block, out=block)
            # exp(-D / c) in D's own buffer: (-d) / c and d / (-c) round to the same double
            np.divide(block, -c, out=block)
            np.exp(block, out=block)
            if upper:
                # the leading square by its row sums: numpy buffers a whole strided sum, and
                # a split worker's small buffer (below) would round it differently
                done.append(2 * visit(block) - visit(block[:, :len(rows)].sum(axis=1)))
            elif visit is not None:
                done.append(visit(block))
        return done

    size = len(a) * len(b)
    if size < _SPLIT_ENTRIES or len(starts) < 2 or _usable_cpus() < 2:
        if size < _BUFFER_ENTRIES:
            return work(starts)
        with _small_ufunc_buffer():
            return work(starts)

    raised, first, second = [], [], []

    def worker(part: Sequence[int], done: list) -> None:
        try:
            with _small_ufunc_buffer():
                done.extend(work(part))
        except BaseException as exc:        # re-raised by the caller once both halves stop
            raised.append(exc)

    # the caller takes the row blocks up to the first that reaches half of the entries
    edges = np.append(starts, len(a))
    entries = np.cumsum(np.diff(edges) * (len(b) - edges[:-1] if upper else len(b)))
    half = int(np.searchsorted(entries, entries[-1] / 2)) + 1
    thread = threading.Thread(target=worker, args=(starts[half:], second))
    thread.start()
    worker(starts[:half], first)
    thread.join()
    if raised:
        raise raised[0]
    return first + second


@contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer size at 16 in this thread, for a row-block build.

    At the default size (8192 elements) the broadcast ``x - y`` of a row block
    narrower than 2731 columns takes numpy's buffered loop, several times slower
    per entry, and a split worker would hold an iterator buffer of half a row
    block beside its row block.  No double changes: the steps are elementwise,
    and the row-block sums read whole contiguous blocks or rows, with no
    buffering.  Setting and restoring the size costs about 2 us, so blocks under
    ``_BUFFER_ENTRIES`` entries keep the default.
    """
    bufsize = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(bufsize)


def _usable_cpus() -> int:
    """The CPUs this process may run on; the machine's where that is unknown (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gram(kernel: Kernel, points: Sequence[Point]) -> np.ndarray:
    """Read-only (n, n) Gram matrix over a point list, exactly symmetric."""
    G = cross_gram(kernel, points, points)
    G.setflags(write=False)
    return G

"""Kernel evaluation, Gram assembly, and psd properties."""

import contextlib
import copy
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from cmekit import (
    GaussianKernel,
    LaplacianKernel,
    Point,
    TableKernel,
    cross_gram,
    gram,
    kernel_eval,
    pt,
)
from cmekit import cli, estimators, kernels, models, spectral
from cmekit.embeddings import _mmd_sq
from cmekit.kernels import _point_tuple, coords_matrix
from cmekit.models import ou_sample_pairs

GAUSS = GaussianKernel(bandwidth=1.0)
LAPL2 = LaplacianKernel(scale=2.0)
COORD = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def random_points(rng, n, d):
    return [Point(tuple(rng.normal(size=d) * 2.0)) for _ in range(n)]


class TestPoint:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Point(())

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Point((float("nan"),))
        with pytest.raises(ValueError):
            Point((1.0, float("inf")))

    def test_exact_equality_and_hash(self):
        assert pt(0.0, 1.0) == pt(0.0, 1.0)
        assert hash(pt(2.5)) == hash(pt(2.5))
        assert pt(0.0) != pt(1e-300)


class TestEval:
    def test_gaussian_self_is_one(self):
        assert kernel_eval(GAUSS, pt(0.3, -1.2), pt(0.3, -1.2)) == 1.0

    def test_gaussian_unit_distance(self):
        # exp(-0.5) by the stated convention exp(-|x-y|^2 / (2 sigma^2))
        val = kernel_eval(GAUSS, pt(0.0), pt(1.0))
        assert val == pytest.approx(0.6065306597, abs=1e-9)
        assert val == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_laplacian(self):
        # exp(-1) by the stated convention exp(-|x-y|_1 / scale)
        val = kernel_eval(LAPL2, pt(0.0), pt(2.0))
        assert val == pytest.approx(0.3678794412, abs=1e-9)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        states = random_points(rng, 4, 2)
        vals = np.array([[1.0, 0.3, 0.2, 0.1],
                         [0.3, 1.0, 0.3, 0.2],
                         [0.2, 0.3, 1.0, 0.3],
                         [0.1, 0.2, 0.3, 1.0]])
        skewed = vals.copy()
        skewed[0, 1] += 1e-13          # accepted: within the 1e-12 tolerance
        tables = [TableKernel(states, vals), TableKernel(states, skewed)]
        for kernel in [GAUSS, LAPL2, *tables]:
            pts = states if kernel in tables else random_points(rng, 6, 2)
            for x in pts:
                for y in pts:
                    assert kernel_eval(kernel, x, y) == kernel_eval(kernel, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(GAUSS, pt(0.0), pt(0.0, 1.0))

    @settings(max_examples=200)
    @given(st.data())
    def test_eval_is_the_one_by_one_block_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        x = Point(data.draw(st.tuples(*[COORD] * d), label="x"))
        y = Point(data.draw(st.tuples(*[COORD] * d), label="y"))
        width = data.draw(st.floats(1e-3, 1e3), label="width")
        for kernel in (GaussianKernel(width), LaplacianKernel(width)):
            assert kernel_eval(kernel, x, y) == cross_gram(kernel, [x], [y])[0, 0]

    def test_table_lookup_miss(self):
        k = TableKernel([pt(0.0), pt(1.0)], np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="point not in table"):
            kernel_eval(k, pt(0.5), pt(0.0))

    def test_bounded_and_unit_diagonal(self):
        rng = np.random.default_rng(1)
        for kernel in (GAUSS, LaplacianKernel(scale=0.7)):
            for x in random_points(rng, 10, 3):
                for y in random_points(rng, 10, 3):
                    v = kernel_eval(kernel, x, y)
                    assert 0.0 < v <= 1.0
                assert kernel_eval(kernel, x, x) == 1.0

    def test_gaussian_decays_along_ray(self):
        vals = [kernel_eval(GAUSS, pt(0.0, 0.0), pt(t, 0.5 * t)) for t in np.linspace(0, 8, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10


class TestGram:
    def test_identical_points(self):
        g = gram(GAUSS, [pt(1.0), pt(1.0)])
        assert np.array_equal(g, np.ones((2, 2)))

    def test_two_point_values(self):
        g = gram(GAUSS, [pt(0.0), pt(1.0)])
        e = math.exp(-0.5)
        assert np.allclose(g, [[1.0, e], [e, 1.0]], atol=1e-15, rtol=0)

    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        g = gram(GAUSS, random_points(rng, 15, 2))
        assert np.array_equal(np.diag(g), np.ones(15))

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        for kernel in (GAUSS, LAPL2):
            g = gram(kernel, random_points(rng, 17, 3))
            assert np.array_equal(g, g.T)
        states = random_points(rng, 3, 2)
        skewed = np.array([[1.0, 0.5 + 1e-13, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        g = gram(TableKernel(states, skewed), [states[1], states[0], states[2], states[0]])
        assert np.array_equal(g, g.T)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gram(GAUSS, [])

    def test_psd_property(self):
        # 200 random point sets: min eigenvalue >= -1e-10 * max eigenvalue
        rng = np.random.default_rng(4)
        for trial in range(200):
            kernel = GAUSS if trial % 2 == 0 else LaplacianKernel(scale=1.3)
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 4))
            g = gram(kernel, random_points(rng, n, d))
            eigvals = np.linalg.eigvalsh(g)
            assert eigvals[0] >= -1e-10 * max(eigvals[-1], 0.0)


class TestCrossGram:
    def test_matches_gram_on_same_points(self):
        rng = np.random.default_rng(5)
        pts = random_points(rng, 12, 2)
        cg = cross_gram(GAUSS, pts, pts)
        assert np.max(np.abs(cg - gram(GAUSS, pts))) <= 1e-14

    def test_values(self):
        cg = cross_gram(GAUSS, [pt(0.0)], [pt(1.0), pt(2.0)])
        assert np.allclose(cg, [[math.exp(-0.5), math.exp(-2.0)]], atol=1e-15, rtol=0)

    def test_table_roundtrip(self):
        states = [pt(0.0), pt(1.0)]
        vals = np.array([[1.0, 0.5], [0.5, 1.0]])
        k = TableKernel(states, vals)
        K = cross_gram(k, states, states)
        assert np.array_equal(K, vals)
        assert K.flags.c_contiguous and K.flags.writeable

    @staticmethod
    def assert_textbook_assembly(rows, cols, width, reference=lambda d, c: np.exp(d * (-1.0 / c))):
        """Each kernel's block is ``reference(cdist, c)``, by default exp(cdist * (-1/c)), bit
        for bit, and swapping rows and columns gives its transpose bit for bit."""
        a, b = coords_matrix(rows), coords_matrix(cols)
        for kernel, metric, c in (
            (GaussianKernel(width), "sqeuclidean", 2.0 * width * width),
            (LaplacianKernel(width), "cityblock", width),
        ):
            K = cross_gram(kernel, rows, cols)
            assert np.array_equal(K, reference(cdist(a, b, metric), c))
            assert K.flags.c_contiguous and K.flags.writeable
            assert np.array_equal(cross_gram(kernel, cols, rows).T, K)

    @settings(max_examples=200)
    @given(st.data())
    def test_assembly_is_the_textbook_expression_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        pool = data.draw(st.lists(st.tuples(*[COORD] * d), min_size=1, max_size=6), label="pool")
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10)
        rows = [Point(pool[i]) for i in data.draw(index, label="rows")]
        cols = [Point(pool[i]) for i in data.draw(index, label="cols")]
        # a duplicated row, and a column at zero distance from it
        rows, cols = rows + rows[:1], cols + rows[:1]
        width = data.draw(st.floats(1e-3, 1e3), label="width")
        # row blocks from one entry up, so most blocks split and the last one is ragged
        block_entries = data.draw(st.integers(1, 40), label="block_entries")
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
            self.assert_textbook_assembly(rows, cols, width)

    @settings(max_examples=100)
    @given(st.data())
    def test_a_power_of_two_divisor_gives_the_division_bytes(self, data):
        # at bandwidth 2^j and scale 2^j, c is a power of two, so d * (-1/c) is -d / c
        # exactly, and each entry is exp(-cdist / c) byte for byte
        d = data.draw(st.integers(1, 3), label="d")
        rows = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), d), elements=COORD))
        cols = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), d), elements=COORD))
        width = 2.0 ** data.draw(st.integers(-30, 30), label="j")
        block_entries = data.draw(st.integers(1, 40), label="block_entries")
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
            self.assert_textbook_assembly(rows, cols, width, lambda d, c: np.exp(-d / c))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, m", [(301, 333), (3, kernels._BLOCK_ENTRIES + 232)], ids=["ragged", "row-per-block"]
    )
    def test_several_row_blocks_are_the_textbook_expression(self, d, n, m):
        # 333 columns take _BLOCK_ENTRIES // 333 rows per block (196), so 301 rows end in a
        # ragged block; a row wider than a block makes a block of that one row
        assert n > max(1, kernels._BLOCK_ENTRIES // m)
        rng = np.random.default_rng(6)
        self.assert_textbook_assembly(random_points(rng, n, d), random_points(rng, m, d), 0.9)

    @pytest.mark.parametrize(
        "kernel, d",
        [(GAUSS, 1), (LAPL2, 1), (GAUSS, 2), (LAPL2, 2)],
        ids=["gauss", "laplace", "gauss-2d", "laplace-2d"],
    )
    def test_a_block_is_assembled_in_one_buffer(self, kernel, d):
        if d == 1:
            sample = ou_sample_pairs(1.0, 0.5, 600, 3)
            rows, cols = sample.X, sample.Y
        else:
            rng = np.random.default_rng(3)
            rows, cols = (_point_tuple(random_points(rng, 600, d), "points") for _ in range(2))
            cross_gram(kernel, rows[:2], cols[:2])      # loads scipy.spatial outside the trace
        block = 600 * 600 * 8
        tracemalloc.start()
        try:
            K = cross_gram(kernel, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.nbytes == block and peak <= 1.1 * block

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cross_gram(GAUSS, [pt(0.0)], [pt(0.0, 1.0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cross_gram(GAUSS, [], [pt(0.0)])


@contextlib.contextmanager
def workers(two):
    """Force the row-block engine onto two workers, whatever the block's size, or onto one."""
    with mock.patch.object(kernels, "_SPLIT_ENTRIES", 0 if two else sys.maxsize), mock.patch.object(
        kernels.os, "sched_getaffinity", lambda pid: {0, 1}
    ):
        yield


class TestTwoWorkers:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_builds_are_the_one_worker_bytes(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        n, m = (data.draw(st.integers(1, 12), label=name) for name in ("n", "m"))
        rows = data.draw(arrays(np.float64, (n, d), elements=COORD), label="rows")
        cols = data.draw(arrays(np.float64, (m, d), elements=COORD), label="cols")
        width = data.draw(st.floats(1e-2, 1e2), label="width")
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]), label="kernel")
        # row blocks from one entry up, so most blocks split and the last one is ragged
        block_entries = data.draw(st.integers(1, 40), label="block_entries")
        built = []
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
            # one worker at numpy's default ufunc buffer, one at the small buffer, and two
            # workers at the small buffer, as every block large enough to split is built
            for two, small in ((False, False), (False, True), (True, True)):
                with workers(two), mock.patch.object(kernels, "_BUFFER_ENTRIES", 0 if small else sys.maxsize):
                    built.append((cross_gram(kernel, rows, cols).tobytes(), repr(_mmd_sq(kernel, rows, cols))))
        assert built[0] == built[1] == built[2]

    def test_one_worker_builds_a_block_of_buffer_entries_at_the_small_buffer(self):
        # 64 x 64 is the first size that pays for setting the buffer; a smaller block keeps
        # numpy's default, and the caller's buffer size is back once the build returns
        default, a = np.getbufsize(), np.arange(64.0)[:, None]
        assert kernels._BUFFER_ENTRIES == 64 * 64 and default > 16
        with workers(False):
            for rows, size in ((64, 16), (63, default)):
                sizes = kernels._row_blocks(GAUSS, a[:rows], a.copy(), lambda block: np.getbufsize())
                assert len(sizes) == 1 and sizes == [size]
                assert np.getbufsize() == default
        with workers(False), pytest.raises(ZeroDivisionError):
            kernels._row_blocks(GAUSS, a, a.copy(), lambda block: 1 / 0)
        assert np.getbufsize() == default

    def test_the_helper_thread_builds_the_second_half(self):
        a = np.arange(10.0)[:, None]
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", 1):
            with workers(True):
                threads = kernels._row_blocks(GAUSS, a, a.copy(), lambda block: threading.get_ident())
            assert threads[:5] == [threading.get_ident()] * 5
            assert len(set(threads[5:])) == 1 and threads[5] != threads[0]
            # a self block's row blocks hold 10, 9, ..., 1 entries: the halves split the 55
            # entries after the fourth row block (34), not after the fifth row
            with workers(True):
                threads = kernels._row_blocks(GAUSS, a, a, lambda block: threading.get_ident())
            assert threads[:4] == [threading.get_ident()] * 4
            assert len(set(threads[4:])) == 1 and threads[4] != threads[0]
            # a process allowed one CPU builds every row block itself
            with workers(True), mock.patch.object(kernels.os, "sched_getaffinity", lambda pid: {0}):
                threads = kernels._row_blocks(GAUSS, a, a, lambda block: threading.get_ident())
            assert threads == [threading.get_ident()] * 10
        # a 3-point self block's row blocks hold 3 and then 4 entries: the first to reach half
        # of the 7 is the last, so the caller builds both and the helper none
        three = a[:3]
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", 4), workers(True):
            threads = kernels._row_blocks(GAUSS, three, three, lambda block: threading.get_ident())
        assert threads == [threading.get_ident()] * 2

    def test_concurrent_split_builds_keep_their_bytes(self):
        # four callers on two cores, each with a helper thread, switching every microsecond
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(40, 1)), rng.normal(size=(30, 1))
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", 50), workers(False):
            expected = cross_gram(LAPL2, a, b).tobytes(), repr(_mmd_sq(GAUSS, a, b))
        built = []

        def build():
            for _ in range(20):
                built.append((cross_gram(LAPL2, a, b).tobytes(), repr(_mmd_sq(GAUSS, a, b))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(kernels, "_BLOCK_ENTRIES", 50), workers(True):
                callers = [threading.Thread(target=build) for _ in range(4)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert built == [expected] * 80

    def test_without_sched_getaffinity_the_machines_cpus_count(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: there os.cpu_count() decides the split
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(1100, 1)), rng.normal(size=(1050, 1))
        assert min(len(a), len(b)) ** 2 >= kernels._SPLIT_ENTRIES
        with workers(False):
            expected = cross_gram(LAPL2, a, b).tobytes(), repr(_mmd_sq(GAUSS, a, b))
        monkeypatch.delattr(kernels.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
        started = mock.Mock(wraps=threading.Thread)
        monkeypatch.setattr(kernels.threading, "Thread", started)
        assert (cross_gram(LAPL2, a, b).tobytes(), repr(_mmd_sq(GAUSS, a, b))) == expected
        assert started.call_count == 4     # cross_gram's block and the three MMD blocks were split

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_an_exception_in_either_half_reaches_the_caller(self, half):
        caller, before = threading.get_ident(), threading.active_count()

        def visit(block):
            if (threading.get_ident() == caller) == (half == "caller"):
                raise ZeroDivisionError(f"in the {half}'s half")
            time.sleep(0.01)        # the other half is still running when the raise comes
            return block.sum()

        a = np.arange(10.0)[:, None]
        with workers(True), mock.patch.object(kernels, "_BLOCK_ENTRIES", 1), pytest.raises(
            ZeroDivisionError, match=f"in the {half}'s half"
        ):
            kernels._row_blocks(LAPL2, a, a, visit)
        assert threading.active_count() == before


class TestCheckedPointTuples:
    def test_coords_matrix_of_a_checked_tuple_is_its_read_only_array(self):
        states = TableKernel([pt(0.0, 1.0), pt(2.0, -1.0)], np.eye(2)).states
        coords = coords_matrix(states)
        assert coords is coords_matrix(states)
        assert np.array_equal(coords, [[0.0, 1.0], [2.0, -1.0]])
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 5.0

    @pytest.mark.parametrize("rows", [slice(0, 3), slice(2, 7), slice(5, 9), slice(1, 8, 3)])
    def test_a_row_slice_carries_a_view_of_the_coordinates(self, rows):
        points = _point_tuple(random_points(np.random.default_rng(7), 8, 2), "points")
        part = points[rows]
        assert part == tuple(points)[rows] and _point_tuple(part, "rows") is part
        assert part._coords.tobytes() == np.array([p.coords for p in part]).tobytes()
        assert np.shares_memory(part._coords, points._coords)
        assert not part._coords.flags.writeable

    def test_an_empty_row_slice_stays_a_plain_tuple(self):
        points = _point_tuple(random_points(np.random.default_rng(8), 4, 1), "points")
        part = points[2:2]
        assert type(part) is tuple and part == ()
        with pytest.raises(ValueError, match="must be nonempty"):
            coords_matrix(part)

    def test_an_n_by_d_array_is_one_point_per_row(self):
        arr = np.array([[0.5, -0.0], [1e300, 5e-324], [0.5, -0.0]])
        points = _point_tuple(arr, "points")
        assert points == (pt(0.5, -0.0), pt(1e300, 5e-324), pt(0.5, -0.0))
        assert points._coords.tobytes() == arr.tobytes()
        assert not points._coords.flags.writeable and not np.shares_memory(points._coords, arr)
        with pytest.raises(ValueError, match="finite"):
            _point_tuple(np.array([[0.0], [np.inf]]), "points")
        with pytest.raises(ValueError, match="must be nonempty"):
            _point_tuple(np.empty((0, 2)), "points")

    @pytest.mark.parametrize("shape", [(), (3,), (2, 1, 1), (3, 0)])
    def test_an_array_of_another_rank_raises(self, shape):
        with pytest.raises(ValueError, match=r"points must be an \(n, d\) array"):
            _point_tuple(np.zeros(shape), "points")

    @pytest.mark.parametrize(
        "arr", [np.array([[1.0 + 2.0j], [0.5 + 0.0j]]), np.array([[1.0], [0.5]], dtype=object)],
        ids=["complex", "object"],
    )
    def test_a_complex_or_object_array_is_refused_not_cast(self, arr):
        # a cast to float would drop the imaginary part without a word
        with pytest.raises(ValueError, match="points must be a real array"):
            _point_tuple(arr, "points")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_picks_and_copies_equal_and_hash_as_the_plain_tuple(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        value = st.one_of(st.sampled_from([0.0, -0.0, 1.5]), COORD)
        rows = np.array(data.draw(
            st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=12), label="rows"
        ))
        n = len(rows)
        cut = slice(*data.draw(st.tuples(st.integers(0, n), st.integers(0, n), st.integers(1, 3))))
        idx = np.array(data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=12)))
        points, plain = _point_tuple(rows, "points"), tuple(Point(tuple(r)) for r in rows)
        # the same set with the sign of every zero flipped: -0.0 == 0.0, as for Points
        flipped = _point_tuple(np.where(rows == 0.0, -rows, rows), "points")
        picks = [(points, plain), (flipped, plain), (points[cut], plain[cut]),
                 (points[idx], tuple(plain[i] for i in idx))]
        for pick, ref in picks:
            if not ref:
                assert type(pick) is tuple and pick == ()
                continue
            for twin in (pick, pickle.loads(pickle.dumps(pick)), copy.deepcopy(pick)):
                assert type(twin) is kernels._Points and _point_tuple(twin, "points") is twin
                assert twin == ref and ref == twin and twin != list(ref)
                assert hash(twin) == hash(ref) and tuple(twin) == ref
                assert all(twin[i] == p for i, p in enumerate(ref))
                assert not coords_matrix(twin).flags.writeable

    def test_no_point_is_built_on_the_array_paths(self, tmp_path, monkeypatch):
        # ingest, sampling, fit, report, EDMD and MMD run on the coordinate arrays alone
        model = models.random_model(np.random.default_rng(4), 4)
        ou = ou_sample_pairs(1.0, 0.5, 200, 5)
        est = estimators.fit_cme(ou, GAUSS, estimators.Tikhonov(), 1e-3)
        files = {name: str(tmp_path / name) for name in ("est", "pairs", "points")}
        cli.write_estimator(files["est"], est)
        cli.write_paired_sample(files["pairs"], ou)
        cli.write_point_sample(files["points"], ou.Y)
        built = []
        post_init = Point.__post_init__
        monkeypatch.setattr(Point, "__post_init__", lambda p: built.append(1) or post_init(p))
        cli.read_estimator(files["est"])
        cli.read_paired_sample(files["pairs"])
        P = cli.read_point_sample(files["points"])
        sample = ou_sample_pairs(1.0, 0.5, 200, 6)
        finite = models.sample_pairs(model, 500, 7)
        for filt in (estimators.Tikhonov(), estimators.Cutoff()):
            for s in (sample, finite):
                fit = estimators.fit_cme(s, GAUSS, filt, 1e-3)
                estimators._fitted_risk_and_hs(fit, s)
        spectral.edmd_eigen(sample, GAUSS, 1e-3, 3)
        _mmd_sq(GAUSS, P, sample.X)
        _mmd_sq(TableKernel(model.states, np.eye(4)), finite.X, finite.Y)
        assert built == []
        pt(0.5)
        assert built == [1]                                 # the patch counts

    @pytest.mark.parametrize(
        "kernel", [GAUSS, TableKernel([pt(0.0), pt(1.0)], np.eye(2))], ids=["gauss", "table"]
    )
    def test_mixed_dimensions_raise_the_package_error(self, kernel):
        mixed = [pt(0.0), pt(0.0, 1.0)]
        with pytest.raises(ValueError, match="inconsistent point dimensions"):
            gram(kernel, mixed)
        with pytest.raises(ValueError, match="inconsistent point dimensions"):
            cross_gram(kernel, [pt(0.0)], mixed)


class TestTableKernelValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            TableKernel([pt(0.0), pt(1.0)], np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            TableKernel([pt(0.0), pt(1.0)], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            TableKernel([pt(0.0), pt(0.0)], np.eye(2))

    def test_bad_bandwidth(self):
        # 0, -1, inf and nan are the positive-parameter rule's, tested at every site in
        # test_models; the row blocks multiply by -1/c: c = 2 * bandwidth^2 (or scale) and
        # 1/c must both be finite, nonzero doubles; 2 * bandwidth^2 underflows to 0 at 1e-170
        # and overflows at 1e200, and 1/scale overflows at 1e-310, where 0 * -inf would put
        # NaN on the diagonal
        for value in (1e-170, 1e200, 2.0**-513, 2.0**512):
            with pytest.raises(ValueError, match=r"2 \* bandwidth\^2 and its reciprocal must be finite"):
                GaussianKernel(bandwidth=value)
        for value in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="scale and its reciprocal must be finite"):
                LaplacianKernel(scale=value)
        # the extremes still allowed build finite Gram blocks, where a distance or its product
        # with -1/c may overflow to inf
        a = np.array([[0.0], [1.0], [1e300]])
        for kernel in (GaussianKernel(2.0**-511), GaussianKernel(2.0**511), LaplacianKernel(2.0**-1023),
                       LaplacianKernel(1.7976931348623157e308)):
            with np.errstate(over="ignore"):
                K = cross_gram(kernel, a, a)
            assert np.all(np.isfinite(K)) and np.array_equal(np.diag(K), np.ones(3))


def test_scipy_spatial_loads_only_for_multi_dimensional_blocks():
    script = (
        "import sys, cmekit, cmekit.cli\n"
        "from cmekit import GaussianKernel, gram, pt\n"
        "gram(GaussianKernel(1.0), [pt(0.0), pt(1.0)])\n"
        "print('scipy.spatial' in sys.modules)\n"
        "gram(GaussianKernel(1.0), [pt(0.0, 1.0), pt(1.0, 0.0)])\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]

"""Weighted embeddings, inner products, and MMD estimators."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmekit import (
    GaussianKernel,
    LaplacianKernel,
    Point,
    TableKernel,
    WeightedEmbedding,
    cross_gram,
    embed_diff,
    embed_inner,
    kernel_eval,
    mean_embed,
    mmd_sq_biased,
    mmd_sq_unbiased,
    pt,
)
from cmekit import embeddings, kernels
from cmekit.embeddings import _mmd_sq

GAUSS = GaussianKernel(bandwidth=1.0)

# norm^2 of the mean embedding of {(0), (1)}: (1/4)(1 + 1 + 2 exp(-1/2))
TWO_POINT_NORM_SQ = 0.25 * (2.0 + 2.0 * math.exp(-0.5))


def feature(kernel, z):
    return WeightedEmbedding(kernel=kernel, support=(z,), weights=np.array([1.0]))


def random_points(rng, n, d=1):
    return [Point(tuple(rng.normal(size=d) * 1.5)) for _ in range(n)]


def brute_force_mmd_sq(kernel, P, Q):
    """Independent oracle: the three double sums written as explicit loops."""
    n, m = len(P), len(Q)
    total = 0.0
    for a in P:
        for b in P:
            total += kernel_eval(kernel, a, b) / (n * n)
    for a in Q:
        for b in Q:
            total += kernel_eval(kernel, a, b) / (m * m)
    for a in P:
        for b in Q:
            total -= 2.0 * kernel_eval(kernel, a, b) / (n * m)
    return total


class TestMeanEmbed:
    def test_single_point(self):
        e = mean_embed(GAUSS, [pt(0.7)])
        assert e.support == (pt(0.7),)
        assert np.array_equal(e.weights, [1.0])

    def test_repeated_point_collapses_to_feature(self):
        e = mean_embed(GAUSS, [pt(2.0)] * 5)
        assert np.array_equal(e.weights, np.full(5, 0.2))
        assert embed_inner(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_norm(self):
        e = mean_embed(GAUSS, [pt(0.0), pt(1.0)])
        assert embed_inner(e, e) == pytest.approx(0.8032653299, abs=1e-9)
        assert embed_inner(e, e) == pytest.approx(TWO_POINT_NORM_SQ, abs=1e-14)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_embed(GAUSS, [])


class TestEmbedInner:
    def test_reproducing(self):
        assert embed_inner(feature(GAUSS, pt(0.0)), feature(GAUSS, pt(1.0))) == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )

    def test_zero_weights(self):
        zero = WeightedEmbedding(kernel=GAUSS, support=(pt(0.0),), weights=np.array([0.0]))
        assert embed_inner(zero, feature(GAUSS, pt(3.0))) == 0.0

    def test_self_inner_matches_norm(self):
        e = mean_embed(GAUSS, [pt(0.0), pt(1.0)])
        assert embed_inner(e, e) == pytest.approx(TWO_POINT_NORM_SQ, abs=1e-14)

    def test_kernel_mismatch(self):
        with pytest.raises(ValueError, match="kernel"):
            embed_inner(feature(GAUSS, pt(0.0)), feature(LaplacianKernel(1.0), pt(0.0)))

    def test_bilinearity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sup_a = tuple(random_points(rng, 4))
            sup_b = tuple(random_points(rng, 3))
            wa1, wa2 = rng.normal(size=4), rng.normal(size=4)
            wb = rng.normal(size=3)
            c1, c2 = rng.normal(), rng.normal()
            a1 = WeightedEmbedding(kernel=GAUSS, support=sup_a, weights=wa1)
            a2 = WeightedEmbedding(kernel=GAUSS, support=sup_a, weights=wa2)
            combo = WeightedEmbedding(kernel=GAUSS, support=sup_a, weights=c1 * wa1 + c2 * wa2)
            b = WeightedEmbedding(kernel=GAUSS, support=sup_b, weights=wb)
            lhs = embed_inner(combo, b)
            rhs = c1 * embed_inner(a1, b) + c2 * embed_inner(a2, b)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_expectation_reproducing(self):
        # <f, mean_embed(samples)> = (1/n) sum_i f(z_i), f given as an expansion
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = WeightedEmbedding(
                kernel=GAUSS,
                support=tuple(random_points(rng, 5)),
                weights=rng.normal(size=5),
            )
            samples = random_points(rng, 8)
            lhs = embed_inner(f, mean_embed(GAUSS, samples))
            rhs = np.mean([embed_inner(f, feature(GAUSS, z)) for z in samples])
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEmbedNorm:
    def test_feature_norm_one(self):
        e = feature(GAUSS, pt(-2.0))
        assert embed_inner(e, e) == 1.0

    def test_zero_weights(self):
        zero = WeightedEmbedding(kernel=GAUSS, support=(pt(0.0),), weights=np.array([0.0]))
        assert embed_inner(zero, zero) == 0.0

    def test_nonnegative_up_to_roundoff(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            e = WeightedEmbedding(
                kernel=GAUSS,
                support=tuple(random_points(rng, 6, d=2)),
                weights=rng.normal(size=6),
            )
            assert embed_inner(e, e) >= -1e-10

    def test_diff(self):
        a = mean_embed(GAUSS, [pt(0.0), pt(1.0)])
        b = feature(GAUSS, pt(0.0))
        d = embed_diff(a, b)
        expected = embed_inner(a, a) - 2 * embed_inner(a, b) + 1.0
        assert embed_inner(d, d) == pytest.approx(expected, abs=1e-13)


class TestMmdBiased:
    def test_same_list_is_exactly_zero(self):
        P = [pt(0.3), pt(-1.0), pt(2.2)]
        assert mmd_sq_biased(GAUSS, P, P) == 0.0

    def test_singletons(self):
        val = mmd_sq_biased(GAUSS, [pt(0.0)], [pt(1.0)])
        assert val == pytest.approx(0.7869386806, abs=1e-9)
        assert val == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            P = random_points(rng, int(rng.integers(1, 50)), d=2)
            Q = random_points(rng, int(rng.integers(1, 50)), d=2)
            assert mmd_sq_biased(GAUSS, P, Q) == pytest.approx(
                brute_force_mmd_sq(GAUSS, P, Q), abs=1e-12
            )

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        P = random_points(rng, 7)
        Q = random_points(rng, 9)
        assert mmd_sq_biased(GAUSS, P, Q) == mmd_sq_biased(GAUSS, Q, P)
        # sizes where summing the cross block and its transpose round
        # differently; equal sizes leave the order to the coordinates
        lapl = LaplacianKernel(scale=1.3)
        for n, m, d in [(37, 53, 2), (200, 150, 1)] + [(120, 120, 2)] * 6:
            P = random_points(rng, n, d)
            Q = random_points(rng, m, d)
            for kernel in (GAUSS, lapl):
                assert mmd_sq_biased(kernel, P, Q) == mmd_sq_biased(kernel, Q, P)
                assert mmd_sq_unbiased(kernel, P, Q) == mmd_sq_unbiased(kernel, Q, P)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            P = random_points(rng, 5)
            Q = random_points(rng, 6)
            R = random_points(rng, 4)
            d_pq = math.sqrt(max(mmd_sq_biased(GAUSS, P, Q), 0.0))
            d_qr = math.sqrt(max(mmd_sq_biased(GAUSS, Q, R), 0.0))
            d_pr = math.sqrt(max(mmd_sq_biased(GAUSS, P, R), 0.0))
            assert d_pr <= d_pq + d_qr + 1e-10

    def test_empty_raises(self):
        for P, Q in (([], [pt(0.0)]), ([pt(0.0)], [])):
            with pytest.raises(ValueError, match="MMD sample must be nonempty"):
                mmd_sq_biased(GAUSS, P, Q)

    def test_mixed_dimensions_raise_the_package_error(self):
        with pytest.raises(ValueError, match="inconsistent point dimensions"):
            mmd_sq_biased(GAUSS, [pt(0.0), pt(1.0, 2.0)], [pt(0.0)])


class TestMmdUnbiased:
    def test_identical_constant_samples(self):
        P = [pt(1.5)] * 4
        assert mmd_sq_unbiased(GAUSS, P, P) == pytest.approx(0.0, abs=1e-15)

    def test_constant_blocks(self):
        val = mmd_sq_unbiased(GAUSS, [pt(0.0), pt(0.0)], [pt(1.0), pt(1.0)])
        assert val == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-14)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match=">= 2|at least 2"):
            mmd_sq_unbiased(GAUSS, [pt(0.0)], [pt(1.0), pt(2.0)])
        with pytest.raises(ValueError, match=">= 2|at least 2"):
            mmd_sq_unbiased(GAUSS, [pt(0.0), pt(1.0)], [pt(2.0)])

    def test_can_be_negative(self):
        # same distribution, small samples: the U-statistic fluctuates below 0
        rng = np.random.default_rng(16)
        seen_negative = False
        for _ in range(200):
            P = random_points(rng, 5)
            Q = random_points(rng, 5)
            if mmd_sq_unbiased(GAUSS, P, Q) < 0:
                seen_negative = True
                break
        assert seen_negative


def exact_mmd_sq(kernel, P, Q):
    """Biased and unbiased squared MMD from exact (Fraction) sums over the full
    blocks, rounded once, and the size of the terms each one adds up."""
    def sums(A, B):
        K = cross_gram(kernel, A, B)
        return sum(map(Fraction, K.ravel().tolist())), math.fsum(np.abs(K).ravel())

    n, m = len(P), len(Q)
    (spp, app), (sqq, aqq), (spq, apq) = sums(P, P), sums(Q, Q), sums(P, Q)
    biased = spp / (n * n) + sqq / (m * m) - 2 * spq / (n * m)
    scale_b = app / (n * n) + aqq / (m * m) + 2.0 * apq / (n * m)
    if n < 2 or m < 2:
        return (float(biased), None), (scale_b, None)
    tpp, tqq = (sum(map(Fraction, np.diag(cross_gram(kernel, S, S)).tolist())) for S in (P, Q))
    unbiased = (spp - tpp) / (n * (n - 1)) + (sqq - tqq) / (m * (m - 1)) - 2 * spq / (n * m)
    scale_u = (app + float(abs(tpp))) / (n * (n - 1)) + (aqq + float(abs(tqq))) / (m * (m - 1))
    return (float(biased), float(unbiased)), (scale_b, scale_u + 2.0 * apq / (n * m))


class TestStreamedMmd:
    """``_mmd_sq`` sums each Gram block one row block of ``_BLOCK_ENTRIES`` at a time."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_peak_memory_is_a_few_row_blocks(self, d):
        rng = np.random.default_rng(17)
        P, Q = random_points(rng, 600, d), random_points(rng, 700, d)
        row_block = kernels._BLOCK_ENTRIES * 8
        _mmd_sq(GAUSS, P[:2], Q[:2])        # loads scipy.spatial for d = 2 outside the trace
        tracemalloc.start()
        try:
            _mmd_sq(GAUSS, P, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 600 x 700 block would be 3.4 MB, about thirteen row blocks
        assert peak <= 3 * row_block < 600 * 700 * 8 / 4

    def test_row_blocks_are_slices_of_the_checked_sample(self):
        # each row block reaches cross_gram with a view of the sample's coordinates,
        # so no cross_gram call stacks its rows again
        rng = np.random.default_rng(29)
        P, Q = random_points(rng, 300, 1), random_points(rng, 200, 1)
        inner, blocks = embeddings.cross_gram, []

        def recording(kernel, rows, cols):
            blocks.append(rows)
            return inner(kernel, rows, cols)

        with mock.patch.object(embeddings, "cross_gram", recording):
            _mmd_sq(GAUSS, P, Q)
        assert len(blocks) > 3
        for rows in blocks:
            assert type(rows) is kernels._Points and rows._coords.base is not None
            assert np.array_equal(rows._coords, [p.coords for p in rows])

    def test_table_kernel_sums_state_counts_not_row_blocks(self):
        # one table lookup per point, however many row blocks the samples span
        rng = np.random.default_rng(23)
        A = rng.standard_normal((20, 20))
        states = [pt(float(j)) for j in range(20)]
        kernel = TableKernel(states, A @ A.T)
        n, m = 300, 400
        P, Q = ([states[i] for i in rng.integers(0, 20, size)] for size in (n, m))
        lookup, looked_up = TableKernel._lookup, []

        def counted(table, points):
            looked_up.append(len(points))
            return lookup(table, points)

        with mock.patch.object(TableKernel, "_lookup", counted), mock.patch.object(
            kernels, "_BLOCK_ENTRIES", 50
        ):
            for statistic in (mmd_sq_biased, mmd_sq_unbiased):
                looked_up.clear()
                statistic(kernel, P, Q)
                assert sum(looked_up) <= 2 * (n + m)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_block_sums_match_the_exact_sums(self, data):
        d = data.draw(st.integers(1, 2), label="d")
        coords = st.tuples(*[st.floats(-3.0, 3.0)] * d)
        pool = data.draw(st.lists(coords, min_size=1, max_size=8, unique=True), label="pool")
        states = [Point(c) for c in pool]
        index = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30)
        P, Q = ([states[i] for i in data.draw(index, label=name)] for name in "PQ")
        width = data.draw(st.floats(0.3, 3.0), label="width")
        A = data.draw(arrays(np.float64, (len(pool), len(pool)), elements=st.floats(-1.0, 1.0)))
        choices = [GaussianKernel(width), LaplacianKernel(width), TableKernel(states, A @ A.T)]
        kernel = data.draw(st.sampled_from(choices), label="kernel")
        # row blocks from one entry up, so most blocks split and the last one is ragged
        block_entries = data.draw(st.integers(1, 40), label="block_entries")
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
            assert mmd_sq_biased(kernel, P, P) == 0.0
            values = _mmd_sq(kernel, P, Q)
            assert repr(_mmd_sq(kernel, Q, P)) == repr(values)
        references, scales = exact_mmd_sq(kernel, P, Q)
        for value, reference, scale in zip(values, references, scales):
            if reference is None:
                assert value is None
            else:
                assert abs(value - reference) <= 1e-13 * scale

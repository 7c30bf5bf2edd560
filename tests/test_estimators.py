"""Spectral filters, the fit and its full-size reference routes, predictions, and risks."""

import copy
import pickle
import re
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmekit import (
    CmeEstimator,
    Cutoff,
    DivergentStepError,
    GaussianKernel,
    Landweber,
    LaplacianKernel,
    PairedSample,
    Point,
    Tikhonov,
    chain_states,
    cross_gram,
    empirical_risk,
    estimator_values,
    exact_excess_risk,
    filter_value,
    fit_cme,
    fit_tikhonov_closed_form,
    gram,
    hs_norm_sq,
    kernel_eval,
    ou_sample_pairs,
    predict_conditional_expectation,
    predict_embedding,
    pt,
    random_model,
    regularized_empirical_risk,
    sample_pairs,
)
from cmekit.estimators import (
    JITTER_SCALE,
    MIRROR_BLOCK,
    RANK_TOL,
    _factor_pd,
    _fitted_risk_and_hs,
    _mirror_lower,
    _on_support,
    _support_gram,
    _support_solve,
    solve_pd,
)
from cmekit.kernels import _kernel_diagonal, _support, coords_matrix

GAUSS = GaussianKernel(bandwidth=1.0)


def random_sample(rng, n, d=1, spread=2.0):
    X = tuple(Point(tuple(rng.normal(size=d) * spread)) for _ in range(n))
    Y = tuple(Point(tuple(rng.normal(size=d) * spread)) for _ in range(n))
    return PairedSample(X=X, Y=Y)


def exact_ints(A):
    """A float matrix as exact integers: every float64 is an integer multiple of 2**-1074."""
    return np.array([[int(Fraction(v) * 2**1074) for v in row] for row in A], dtype=object)


def exact_trace(W, G_Y, G_X):
    """tr(W^T G_Y W G_X) of float matrices in exact arithmetic, rounded once."""
    Wi, GYi, GXi = exact_ints(W), exact_ints(G_Y), exact_ints(G_X)
    return float(Fraction(int(((GYi @ Wi) * (Wi @ GXi)).sum()), 2 ** (4 * 1074)))


def bits(values):
    """The float64 bytes of a list of floats: equal exactly when every bit is."""
    return np.array(values, dtype=float).tobytes()


def singleton_sample():
    return PairedSample(X=(pt(0.0),), Y=(pt(0.5),))


def full_closed_form_W(sample, kernel, lam):
    """The uncompressed closed-form route: W = (G_X + n*lam*I)^{-1} at full size, from
    the Cholesky factor by LAPACK dpotri, its lower triangle mirrored."""
    n = sample.n
    (L, _), _ = _factor_pd(np.array(gram(kernel, sample.X), order="F"), n * lam)
    Z, info = scipy.linalg.lapack.dpotri(L, lower=1)
    assert info == 0
    return np.tril(Z) + np.tril(Z, -1).T


def cho_solve_W(S, n, lam):
    """The earlier Tikhonov route: (S + n*lam*I) Z = I solved against I by ``cho_solve``."""
    shifted = np.array(S)
    shifted.flat[:: S.shape[0] + 1] += n * lam
    return solve_pd(shifted, np.eye(S.shape[0], order="F"))[0]


def full_filtered_W(sample, kernel, filt, lam):
    """The uncompressed filter route: W = (1/n) U g(s) U^T from G_X / n = U diag(s) U^T.

    For Tikhonov this spectral formula is the reference the Cholesky fit is checked against.
    """
    n = sample.n
    s, U = np.linalg.eigh(gram(kernel, sample.X) / n)
    s_max = max(float(s[-1]), 0.0)
    if not isinstance(filt, Tikhonov):
        s = np.where(s < RANK_TOL * s_max, 0.0, s)
    if isinstance(filt, Landweber) and filt.step_size * s_max > 2.0:
        raise DivergentStepError("the full route diverges")
    g = np.array([filter_value(filt, lam, float(si)) for si in s])
    return (U * g) @ U.T / n


def paired_reference(sample, kernel, filt, lam):
    """The uncompressed routes' estimator: the sample's X and Y, and the n x n W."""
    if isinstance(filt, Tikhonov):
        W = full_closed_form_W(sample, kernel, lam)
    else:
        W = full_filtered_W(sample, kernel, filt, lam)
    return CmeEstimator(kernel=kernel, lam=lam, filt=filt, X=sample.X, Y=sample.Y, W=W)


def indicator(points, support):
    """The len(points) x len(support) matrix with a 1 where points[i] is support[t]."""
    index = {p: t for t, p in enumerate(support)}
    E = np.zeros((len(points), len(support)))
    E[np.arange(len(points)), [index[p] for p in points]] = 1.0
    return E


def on_support(W, sample, est):
    """F^T W E: the paired n x n W summed over the indicators E of the sample's X
    on est.X and F of its Y on est.Y (exactly W when no value repeats)."""
    return indicator(sample.Y, est.Y).T @ W @ indicator(sample.X, est.X)


def paired_twin(est, sample):
    """A hand-built paired estimator on the sample's X and Y with the operator of
    the support estimator ``est``: W_c[u, t] sits at one pair whose y is est.Y[u]
    and one whose x is est.X[t], and zeros elsewhere, so that F^T W E is W_c
    exactly."""
    at_y, at_x = ({p: i for i, p in enumerate(P)} for P in (sample.Y, sample.X))
    W = np.zeros((sample.n, sample.n))
    W[np.ix_([at_y[y] for y in est.Y], [at_x[x] for x in est.X])] = est.W
    return CmeEstimator(
        kernel=est.kernel, lam=est.lam, filt=est.filt, X=sample.X, Y=sample.Y, W=W
    )


def risk_scale(est, sample):
    """mean(k(y_i, y_i) + 2|cross_i| + |norm_i|) over the pairs of ``sample``: the
    size of the terms that ``empirical_risk`` cancels.  Near-interpolating fits
    have risks around 1e-6 whose every digit is round-off, so risk tolerances
    are a share of this, not of the risk."""
    Omega = est.W @ cross_gram(est.kernel, est.X, sample.X)
    cross = np.einsum("ji,ji->i", Omega, cross_gram(est.kernel, est.Y, sample.Y))
    norm = np.einsum("ji,ji->i", Omega, gram(est.kernel, est.Y) @ Omega)
    diag = np.array([kernel_eval(est.kernel, y, y) for y in sample.Y])
    return float(np.mean(diag + 2.0 * np.abs(cross) + np.abs(norm)))


def assert_fits_match_full_routes(sample, kernel, lam, filters):
    """The fit equals the uncompressed routes summed over the indicators, F^T W E,
    within 1e-10 of max |W|, or both diverge."""
    def close(est, ref):
        assert np.max(np.abs(est.W - on_support(ref, sample, est))) <= 1e-10 * np.max(np.abs(ref))

    close(fit_tikhonov_closed_form(sample, kernel, lam), full_closed_form_W(sample, kernel, lam))
    for filt in filters:
        try:
            ref = full_filtered_W(sample, kernel, filt, lam)
        except DivergentStepError:
            with pytest.raises(DivergentStepError):
                fit_cme(sample, kernel, filt, lam)
            continue
        close(fit_cme(sample, kernel, filt, lam), ref)


class TestFilterValue:
    def test_tikhonov(self):
        assert filter_value(Tikhonov(), 1.0, 1.0) == 0.5

    def test_cutoff_threshold(self):
        assert filter_value(Cutoff(), 0.5, 1.0) == 1.0
        assert filter_value(Cutoff(), 0.5, 0.25) == 0.0
        # closed-interval inclusion at the threshold
        assert filter_value(Cutoff(), 0.5, 0.5) == 2.0

    def test_landweber_single_step(self):
        f = Landweber(steps=1, step_size=0.1)
        for s in (0.0, 0.3, 2.0):
            assert filter_value(f, 1.0, s) == pytest.approx(0.1, abs=1e-15)

    def test_landweber_small_spectrum_keeps_its_digits(self):
        # g(s) = m*eta * (1 - (m-1)*eta*s/2 + (m-1)(m-2)*(eta*s)^2/6 - ...); the
        # direct form 1 - (1 - eta*s)^m keeps only about 16 + log10(s) digits
        for m, eta in ((1, 1.0), (25, 0.4)):
            f = Landweber(steps=m, step_size=eta)
            for s in (1e-6, 1e-10, 1e-14):
                x = eta * s
                series = m * eta * (1.0 - (m - 1) * x / 2.0 + (m - 1) * (m - 2) * x * x / 6.0)
                assert filter_value(f, 1e-3, s) == pytest.approx(series, rel=1e-12)

    def test_landweber_zero_limit(self):
        f = Landweber(steps=25, step_size=0.4)
        assert filter_value(f, 1e-3, 0.0) == pytest.approx(25 * 0.4, abs=1e-12)
        assert filter_value(f, 1e-3, 1e-9) == pytest.approx(25 * 0.4, rel=1e-4)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            filter_value(Tikhonov(), 0.0, 1.0)
        with pytest.raises(ValueError):
            filter_value(Cutoff(), -1.0, 1.0)
        with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
            filter_value(Tikhonov(), np.inf, 1.0)

    def test_qualification(self):
        # 0 <= s g(s) <= 1 for Tikhonov/Cutoff everywhere, Landweber for eta*s <= 1
        grid = np.linspace(0.0, 3.0, 50)
        for lam in (1e-6, 1e-2, 1.0):
            for s in grid:
                assert 0.0 <= s * filter_value(Tikhonov(), lam, s) <= 1.0
                assert 0.0 <= s * filter_value(Cutoff(), lam, s) <= 1.0
        lw = Landweber(steps=30, step_size=0.5)
        for s in np.linspace(0.0, 2.0, 40):  # eta*s <= 1
            assert 0.0 <= s * filter_value(lw, 1.0, s) <= 1.0

    def test_filters_approach_inverse(self):
        s = 0.37
        for lam in (1e-4, 1e-8, 1e-12):
            assert filter_value(Tikhonov(), lam, s) == pytest.approx(1 / s, rel=1e-3 * lam / 1e-4)
        assert filter_value(Cutoff(), 1e-12, s) == 1 / s
        big = Landweber(steps=5000, step_size=1.0)
        assert filter_value(big, 1.0, s) == pytest.approx(1 / s, rel=1e-12)

    def test_landweber_validation(self):
        with pytest.raises(ValueError):
            Landweber(steps=0, step_size=0.1)
        with pytest.raises(ValueError):
            Landweber(steps=3, step_size=0.0)

    @pytest.mark.parametrize("steps", [2.5, 2.0, True, np.bool_(True), "3"])
    def test_landweber_steps_must_be_an_integer(self, steps):
        # a float or a bool is no step count, though int() would take it
        with pytest.raises(ValueError, match="integer steps"):
            Landweber(steps=steps, step_size=0.5)

    @pytest.mark.parametrize("steps", [3, np.int64(3), np.uint8(3)])
    def test_landweber_takes_python_and_numpy_integers(self, steps):
        filt = Landweber(steps=steps, step_size=0.5)
        assert filt.steps == 3 and type(filt.steps) is int


class TestFitting:
    def test_scalar_tikhonov(self):
        for lam in (0.5, 1.0, 3.0):
            est = fit_cme(singleton_sample(), GAUSS, Tikhonov(), lam)
            assert est.W[0, 0] == pytest.approx(1.0 / (1.0 + lam), abs=1e-14)

    def test_huge_lambda_kills_weights(self):
        rng = np.random.default_rng(20)
        sample = random_sample(rng, 80)
        est = fit_tikhonov_closed_form(sample, GAUSS, 1e9)
        for x in (pt(0.0), pt(1.3), pt(-2.0)):
            w = predict_embedding(est, x).weights
            assert np.linalg.norm(w) <= 1e-6

    def test_closed_form_equivalence(self):
        # the Cholesky fit agrees entrywise with the independent spectral-filter formula
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            d = int(rng.integers(1, 4))
            lam = float(10.0 ** rng.uniform(-4, 0))
            sample = random_sample(rng, n, d)
            w_filter = full_filtered_W(sample, GAUSS, Tikhonov(), lam)
            w_closed = fit_tikhonov_closed_form(sample, GAUSS, lam).W
            assert np.max(np.abs(w_filter - w_closed)) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fits_are_permutation_equivariant(self, data):
        # permuting the pairs reorders the distinct X and Y values, and W's
        # columns and rows with them
        n = data.draw(st.integers(2, 20))
        d = data.draw(st.integers(1, 2))
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
        point = coords.map(lambda c: Point(tuple(c)))
        X, Y = (data.draw(st.lists(point, min_size=n, max_size=n)) for _ in "xy")
        sample = PairedSample(X=tuple(X), Y=tuple(Y))
        perm = data.draw(st.permutations(range(n)))
        permuted = PairedSample(X=tuple(X[i] for i in perm), Y=tuple(Y[i] for i in perm))
        width = data.draw(st.floats(0.5, 2.0))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = data.draw(st.sampled_from([1e-3, 1e-2, 3e-2]))
        filt = data.draw(
            st.sampled_from([Tikhonov(), Cutoff()])
            | st.builds(Landweber, st.integers(1, 50), st.floats(0.1, 1.5))
        )
        est, twin = fit_cme(sample, kernel, filt, lam), fit_cme(permuted, kernel, filt, lam)
        # twin.X[a] is est.X[px[a]] and twin.Y[b] is est.Y[py[b]]
        px = [est.X.index(x) for x in twin.X]
        py = [est.Y.index(y) for y in twin.Y]
        assert sorted(px) == list(range(len(est.X))) and sorted(py) == list(range(len(est.Y)))
        assert np.max(np.abs(twin.W - est.W[np.ix_(py, px)])) <= 1e-10 * np.max(np.abs(est.W))

    def test_tikhonov_inverse_roundtrip(self):
        rng = np.random.default_rng(22)
        sample = random_sample(rng, 60)
        lam = 1e-3
        est = fit_tikhonov_closed_form(sample, GAUSS, lam)
        G = gram(GAUSS, sample.X)
        resid = est.W @ (G + 60 * lam * np.eye(60)) - np.eye(60)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_orthonormal_features_shrink_uniformly(self):
        # a table kernel with identity values makes G_X = I, so W = I/(1+n*lam)
        from cmekit import TableKernel, chain_states

        states = chain_states(3)
        k = TableKernel(states, np.eye(3))
        sample = PairedSample(X=states, Y=states)
        lam = 0.2
        fit = fit_cme(sample, k, Tikhonov(), lam)
        assert np.max(np.abs(fit.W - np.eye(3) / (1.0 + 3 * lam))) <= 1e-12

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            fit_cme(singleton_sample(), GAUSS, Tikhonov(), 0.0)
        with pytest.raises(ValueError):
            fit_tikhonov_closed_form(singleton_sample(), GAUSS, -1.0)
        # an infinite lambda: cutoff returned an all-zero W, and Tikhonov failed inside scipy
        for filt in (Tikhonov(), Cutoff(), Landweber(steps=3, step_size=0.5)):
            with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
                fit_cme(singleton_sample(), GAUSS, filt, np.inf)
            with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
                _support_solve(np.ones((1, 1), order="F"), 1, filt, np.inf)
        sample = singleton_sample()
        with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
            CmeEstimator(kernel=GAUSS, lam=np.inf, filt=Cutoff(), X=sample.X, Y=sample.Y, W=[[1.0]])

    def test_an_overflowing_n_lambda_is_refused(self):
        # lambda = 1e307 is finite, but the shift n*lambda of G_X + n*lambda*I is not
        sample = ou_sample_pairs(1.0, 0.5, 50, 3)
        with pytest.raises(ValueError, match=re.escape("n*lambda overflows: n = 50, lambda = 1e+307")):
            fit_cme(sample, GAUSS, Tikhonov(), 1e307)
        # the cutoff filter shifts nothing: every eigenvalue falls below lambda
        assert not np.any(fit_cme(sample, GAUSS, Cutoff(), 1e307).W)

    def test_landweber_divergence_guard(self):
        # n copies of one point make G/n have top eigenvalue 1
        sample = PairedSample(X=(pt(0.0),) * 10, Y=(pt(1.0),) * 10)
        with pytest.raises(DivergentStepError, match="diverge"):
            fit_cme(sample, GAUSS, Landweber(steps=5, step_size=5.0), 0.1)

    def test_paired_sample_validation(self):
        with pytest.raises(ValueError):
            PairedSample(X=(pt(0.0),), Y=())
        with pytest.raises(ValueError):
            PairedSample(X=(), Y=())


class TestDistinctSupport:
    """Fits on repeated points do m x m algebra that equals the n x n routes."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_compressed_fits_match_the_full_routes(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, n))
        d = data.draw(st.integers(1, 2))
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d).map(tuple)
        pool = [Point(c) for c in data.draw(st.lists(coords, min_size=m, max_size=m, unique=True))]
        extra = data.draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
        X = tuple(pool[i] for i in data.draw(st.permutations(list(range(m)) + extra)))
        sample = PairedSample(X=X, Y=X[::-1])
        width = data.draw(st.floats(0.5, 2.0))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        landweber = Landweber(data.draw(st.integers(1, 50)), data.draw(st.floats(0.1, 3.0)))
        s = np.linalg.eigvalsh(gram(kernel, X) / n)
        # away from the cutoff's jump at lam and from the divergence boundary
        assume(np.all(np.abs(s - lam) > 0.05 * lam))
        assume(abs(landweber.step_size * s[-1] - 2.0) > 1e-6)
        assert_fits_match_full_routes(sample, kernel, lam, [Tikhonov(), Cutoff(), landweber])

    @pytest.mark.parametrize(
        "idx",
        [[0], [0] * 10, list(range(8)), [0, 1, 0, 2, 2, 1, 0]],
        ids=["n=1", "m=1", "m=n", "m<n"],
    )
    def test_edge_supports_match_the_full_routes(self, idx):
        pool = [pt(v) for v in (0.3, -1.1, 2.0, 0.7, -0.4, 1.5, -2.2, 0.0)]
        X = tuple(pool[i] for i in idx)
        filters = [Tikhonov(), Cutoff(), Landweber(20, 0.9), Landweber(5, 5.0)]
        for lam in (1e-3, 0.3):
            assert_fits_match_full_routes(PairedSample(X=X, Y=X), GAUSS, lam, filters)

    def test_duplicate_free_fits_are_the_full_routes_bit_for_bit(self):
        rng = np.random.default_rng(24)
        sample = random_sample(rng, 50, d=2)
        for lam in (1e-3, 0.1):
            W = fit_cme(sample, GAUSS, Tikhonov(), lam).W
            assert np.array_equal(W, full_closed_form_W(sample, GAUSS, lam))
            for filt in (Cutoff(), Landweber(20, 0.9)):
                W = fit_cme(sample, GAUSS, filt, lam).W
                assert np.array_equal(W, full_filtered_W(sample, GAUSS, filt, lam))

    def test_jitter_is_scaled_to_the_distinct_support_system(self):
        # six states under bandwidth 1000 are closely spaced: K_D is numerically
        # singular, so S + n*lam*I = 5 K_D + n*lam*I fails Cholesky at lam = 1e-17
        states = [pt(float(j)) for j in range(6)]
        X = tuple(states[i % 6] for i in range(30))
        est = fit_tikhonov_closed_form(PairedSample(X=X, Y=X), GaussianKernel(1000.0), 1e-17)
        # trace(S + n*lam*I) / m = 5 + n*lam
        assert est.jitter == pytest.approx(JITTER_SCALE * (5.0 + 30 * 1e-17), rel=1e-12)


def support_by_dict(points):
    """The reference for ``_support``: a dict over the Points, in first-appearance order."""
    index = {}
    inv = np.array([index.setdefault(p, len(index)) for p in points], dtype=np.intp)
    return tuple(index), inv, np.bincount(inv).astype(float)


def on_support_by_sparse_product(Z, inv, counts, inv_y, m_y):
    """The reference for ``_on_support``: N^T C^{-1/2} Z C^{1/2} as a scipy.sparse CSR product."""
    from scipy.sparse import csr_array

    n, m = len(inv), len(counts)
    if m < n:
        root = np.sqrt(counts)
        Z = Z * np.outer(1.0 / root, root)
    if m == m_y == n:
        return Z
    return csr_array((np.ones(n), (inv_y, inv)), shape=(m_y, m)) @ Z


def assert_on_support_is_the_sparse_product(x_idx, y_idx, Z):
    inv, counts = support_by_dict(x_idx)[1:]
    inv_y = support_by_dict(y_idx)[1]
    m_y = int(inv_y.max()) + 1
    got = _on_support(Z, inv, counts, inv_y, m_y)
    ref = on_support_by_sparse_product(Z, inv, counts, inv_y, m_y)
    assert got.shape == ref.shape == (m_y, len(counts))
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def signed_zero_rows(rng, m):
    """An m x m Z of normal draws with every third row -0.0."""
    Z = rng.normal(size=(m, m))
    Z[::3] = -0.0
    return Z


class TestSupportArrays:
    """``_support`` and ``_on_support`` work on arrays and give, bit for bit, what the
    dict over Points and the scipy.sparse product gave."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_support_matches_the_dict_route(self, data):
        d = data.draw(st.integers(1, 3))
        value = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]), st.floats(-3.0, 3.0))
        row = st.lists(value, min_size=d, max_size=d).map(tuple)
        pool = [Point(c) for c in data.draw(st.lists(row, min_size=1, max_size=8))]
        pool += [Point(tuple(-c if c == 0.0 else c for c in p.coords)) for p in pool]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
        points = [pool[i] for i in picks]
        D, inv, counts = _support(points)
        D_ref, inv_ref, counts_ref = support_by_dict(points)
        # each distinct value keeps its first appearance's coordinates, signed zeros included
        assert D == D_ref
        assert coords_matrix(D).tobytes() == np.array([p.coords for p in D_ref]).tobytes()
        assert inv.dtype == np.intp and np.array_equal(inv, inv_ref)
        assert np.array_equal(counts, counts_ref)
        # the support carries its Points' coordinate rows, read-only
        carried = coords_matrix(D)
        assert carried.tobytes() == np.array([p.coords for p in D]).tobytes()
        assert not carried.flags.writeable

    @pytest.mark.parametrize(
        "x_idx, y_idx",
        [
            ([0, 1, 0, 2, 2, 1, 0], list(range(7))),
            (list(range(7)), [0, 1, 0, 2, 2, 1, 0]),
            ([0, 1, 0, 2, 2, 1, 0], [3, 1, 0, 0, 2, 3, 1]),
            ([0, 1, 0, 2, 2, 1, 0, 3], [0] * 8),
            (list(range(12)), [0] * 12),
            (list(range(499)) + [250], list(range(500))),
            (list(range(500)), list(range(499)) + [17]),
            # 300 X partners per Y row span several add.at blocks of _BLOCK_ENTRIES // 300 pairs
            (list(range(300)), [0] * 300),
            (list(range(300)), [i % 3 for i in range(300)]),
        ],
        ids=["repeated-x", "repeated-y", "both", "all-y-equal", "distinct-x-all-y-equal",
             "near-distinct-x", "near-distinct-y", "one-y-row-over-blocks",
             "three-y-rows-over-blocks"],
    )
    def test_on_support_cases_are_the_sparse_product(self, x_idx, y_idx):
        m = len(set(x_idx))
        Z = signed_zero_rows(np.random.default_rng(m), m)
        assert_on_support_is_the_sparse_product(x_idx, y_idx, Z)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_on_support_is_the_sparse_product(self, data):
        n = data.draw(st.integers(1, 40))
        values = st.integers(0, n - 1).flatmap(lambda top: st.integers(0, top))
        x_idx, y_idx = (data.draw(st.lists(values, min_size=n, max_size=n)) for _ in "XY")
        m = len(set(x_idx))
        Z = signed_zero_rows(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), m)
        if data.draw(st.booleans()):
            Z = np.asfortranarray(Z)
        assert_on_support_is_the_sparse_product(x_idx, y_idx, Z)


class TestSupportView:
    """``fit_cme`` returns the support estimator: the operator of the paired n x n
    routes on the distinct X and Y values, W_c = F^T W E, with the same
    predictions up to round-off."""

    STATES = chain_states(8)
    FILTERS = [Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)]

    @staticmethod
    def close(a, b, rtol=1e-10):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert np.max(np.abs(a - b)) <= rtol * max(np.max(np.abs(a)), np.max(np.abs(b)))

    def check(self, sample, kernel, filt, lam, model, held_out):
        paired = paired_reference(sample, kernel, filt, lam)
        support = fit_cme(sample, kernel, filt, lam)
        D_X, _, _ = _support(sample.X)
        D_Y, inv_y, _ = _support(sample.Y)
        assert support.X == D_X and support.Y == D_Y
        assert support.W.shape == (len(D_Y), len(D_X))
        if len(D_X) == len(D_Y) == sample.n:
            assert np.array_equal(support.W, paired.W)
        summed_W = on_support(paired.W, sample, support)
        self.close(support.W, summed_W)
        self.close(estimator_values(support, model), estimator_values(paired, model))
        self.close(exact_excess_risk(support, model), exact_excess_risk(paired, model))
        self.close(hs_norm_sq(support), hs_norm_sq(paired))
        # the held-out risk cancels terms of order 1 down to as little as 1e-7
        risk = empirical_risk(support, held_out)
        assert abs(risk - empirical_risk(paired, held_out)) <= 1e-12 * risk_scale(paired, held_out)
        # a prediction is W_c k_X(x), so the bound on W_c allows it an error of
        # 1e-10 max|W_c| ||k_X(x)||_1.  Far from the support the weights can be far
        # smaller than that, and their own size is no scale for the error
        W_scale = max(np.max(np.abs(support.W)), np.max(np.abs(summed_W)))
        for x in (*self.STATES, pt(0.37), pt(9.5)):
            summed = np.bincount(inv_y, weights=predict_embedding(paired, x).weights)
            k = cross_gram(kernel, support.X, [x])[:, 0]
            error = np.max(np.abs(predict_embedding(support, x).weights - summed))
            assert error <= 1e-10 * W_scale * np.sum(np.abs(k))

    def draw_points(self, data, n, repeated):
        """n of the states, at least one of them twice when ``repeated``, else n distinct."""
        if not repeated:
            return tuple(self.STATES[i] for i in data.draw(st.permutations(range(8)))[:n])
        m = data.draw(st.integers(1, n - 1))
        pool = data.draw(st.permutations(range(8)))[:m]
        extra = data.draw(st.lists(st.sampled_from(pool), min_size=n - m, max_size=n - m))
        return tuple(self.STATES[i] for i in data.draw(st.permutations(pool + extra)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fit_cme_matches_the_paired_routes(self, data):
        n = data.draw(st.integers(1, 8))
        repeat_x, repeat_y = (n > 1 and data.draw(st.booleans()) for _ in "xy")
        sample = PairedSample(
            X=self.draw_points(data, n, repeat_x), Y=self.draw_points(data, n, repeat_y)
        )
        width = data.draw(st.floats(0.5, 1.5))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        # away from the cutoff's jump at lam, where the two routes' round-off may
        # keep or drop an eigenvalue differently
        s = np.linalg.eigvalsh(gram(kernel, sample.X) / n)
        assume(np.all(np.abs(s - lam) > 0.05 * lam))
        model = random_model(np.random.default_rng(data.draw(st.integers(0, 2**32))), 8)
        k = data.draw(st.integers(1, 5))
        coords = st.lists(st.floats(-1.0, 8.0), min_size=k, max_size=k)
        held_out = PairedSample(
            X=tuple(pt(v) for v in data.draw(coords)), Y=tuple(pt(v) for v in data.draw(coords))
        )
        for filt in self.FILTERS:
            self.check(sample, kernel, filt, lam, model, held_out)

    @pytest.mark.parametrize(
        "x_idx, y_idx",
        [
            ([3], [5]),
            ([0, 4, 2, 7, 1], [6, 6, 2, 6, 2]),
            ([0, 4, 0, 0, 1], [6, 3, 2, 5, 1]),
            ([0, 4, 0, 0, 1], [6, 6, 2, 6, 2]),
            ([0, 4, 2, 7, 1], [6, 3, 2, 5, 1]),
        ],
        ids=["n=1", "repeated-y", "repeated-x", "both", "neither"],
    )
    def test_edge_supports(self, x_idx, y_idx):
        sample = PairedSample(
            X=tuple(self.STATES[i] for i in x_idx), Y=tuple(self.STATES[i] for i in y_idx)
        )
        model = random_model(np.random.default_rng(40), 8)
        held_out = PairedSample(X=(pt(0.5), pt(3.0)), Y=(pt(2.0), pt(-1.0)))
        for lam in (1e-3, 0.3):
            for filt in self.FILTERS:
                self.check(sample, GAUSS, filt, lam, model, held_out)

    def test_far_queries_beside_a_cut_lone_state(self):
        # a hypothesis draw: state 6 lies apart from the other X, the cutoff drops
        # its eigenvalue, about 1/8, so W_c's column at 6 is about 3e-11 of max|W_c|,
        # and predictions at x = 6, 7 and 9.5 (2.6e-11 down to 1.5e-22) differ
        # between the routes by 7e-11 to 2.8e-10 of themselves
        sample = PairedSample(X=tuple(self.STATES[i] for i in (0, 1, 2, 6, 4, 0, 0, 0)),
                              Y=self.STATES)
        model = random_model(np.random.default_rng(40), 8)
        held_out = PairedSample(X=(pt(0.5), pt(3.0)), Y=(pt(2.0), pt(-1.0)))
        for filt in self.FILTERS:
            self.check(sample, GaussianKernel(0.5), filt, 10.0**-0.5, model, held_out)

    def test_tikhonov_support_view_keeps_every_digit_at_small_lambda(self):
        # For Tikhonov, C^{-1/2} (S + n*lam*I)^{-1} C^{1/2} = (K_D C + n*lam*I)^{-1}, so
        # W_c = N^T (K_D C + n*lam*I)^{-1} is rational in the float entries of K_D and
        # has an exact reference.  The paired n x n W carries 1/(n*lam), about 1.5e3
        # here, on its diagonal, and its predictions lose those digits to
        # cancellation; the fit never forms it
        model = random_model(np.random.default_rng(2), 4)
        sample = sample_pairs(model, 180, 12)
        lam = 3.7e-6
        est = fit_cme(sample, GAUSS, Tikhonov(), lam)
        D_X, inv, counts = _support(sample.X)
        D_Y, inv_y, _ = _support(sample.Y)
        K = [[Fraction(v) for v in row] for row in cross_gram(GAUSS, D_X, D_X).tolist()]
        m, shift = len(D_X), Fraction(sample.n) * Fraction(lam)
        A = [[K[i][j] * int(counts[j]) + shift * (i == j) for j in range(m)] for i in range(m)]
        inverse = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for col in range(m):                    # Gauss-Jordan on A, exact
            pivot = A[col][col]
            A[col] = [v / pivot for v in A[col]]
            inverse[col] = [v / pivot for v in inverse[col]]
            for row in range(m):
                if row != col and A[row][col]:
                    f = A[row][col]
                    A[row] = [a - f * b for a, b in zip(A[row], A[col])]
                    inverse[row] = [a - f * b for a, b in zip(inverse[row], inverse[col])]
        W_exact = [[Fraction(0)] * m for _ in range(len(D_Y))]
        for i, s in zip(inv, inv_y):
            W_exact[s] = [a + b for a, b in zip(W_exact[s], inverse[i])]
        W_exact = np.array([[float(v) for v in row] for row in W_exact])
        assert np.max(np.abs(est.W - W_exact)) <= 1e-13 * np.max(np.abs(W_exact))

    def test_conditional_expectation_with_fewer_distinct_y_than_x(self):
        # four distinct X, two distinct Y: f is given at the support's two Y values
        X = tuple(pt(v) for v in (0.0, 1.0, 2.0, 3.0, 1.0, 0.0))
        Y = tuple(pt(v) for v in (5.0, 6.0, 5.0, 5.0, 6.0, 6.0))
        sample = PairedSample(X=X, Y=Y)
        support = fit_cme(sample, GAUSS, Tikhonov(), 0.05)
        paired = paired_reference(sample, GAUSS, Tikhonov(), 0.05)
        assert (len(support.X), len(support.Y)) == (4, 2)
        f_support = np.array([1.5, -0.5])                   # f(5), f(6)
        f_paired = np.array([1.5 if y == pt(5.0) else -0.5 for y in Y])
        for x in (pt(0.0), pt(2.5), pt(-1.0)):
            got = predict_conditional_expectation(support, x, f_support)
            expected = predict_conditional_expectation(paired, x, f_paired)
            assert got == pytest.approx(expected, rel=1e-12)
            embedded = float(predict_embedding(support, x).weights @ f_support)
            assert got == pytest.approx(embedded, rel=1e-12)
        with pytest.raises(ValueError, match="length 2"):
            predict_conditional_expectation(support, pt(0.0), np.zeros(4))

    def test_w_must_be_len_y_by_len_x(self):
        X, Y = (pt(0.0), pt(1.0), pt(2.0)), (pt(0.5), pt(1.5))
        est = CmeEstimator(kernel=GAUSS, lam=0.1, filt=Tikhonov(), X=X, Y=Y, W=np.ones((2, 3)))
        assert est.W.shape == (2, 3)
        with pytest.raises(ValueError, match=re.escape("(len(Y), len(X)) = (2, 3)")):
            CmeEstimator(kernel=GAUSS, lam=0.1, filt=Tikhonov(), X=X, Y=Y, W=np.ones((3, 2)))

class TestFactorization:
    @pytest.mark.parametrize(
        "values, repeated",
        [(np.random.default_rng(23).normal(size=6), 4), (3.0 * np.arange(150), 100)],
        ids=["16", "400"],
    )
    def test_jitter_retry_matches_the_two_step_factor_bitwise(self, values, repeated):
        # duplicated points make G rank deficient, so G + shift*I fails Cholesky
        pts = [pt(v) for v in values]
        G = gram(GAUSS, pts + pts[:repeated] + pts)
        G0 = G.copy()
        n, shift = G.shape[0], 1e-17
        buf = np.array(G, order="F")
        (factor, lower), jitter = _factor_pd(buf, shift)
        # factored in the buffer it was handed; the strict upper triangle still holds G
        assert factor is buf
        assert np.array_equal(np.triu(factor, 1), np.triu(G, 1))
        # the route _factor_pd replaces: G + shift*I, then a jittered copy of it
        A = G.copy()
        A.flat[:: n + 1] += shift
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(A, lower=True)
        # 150 well-separated points fail only at the first repeat, so the restore of
        # the columns the failed attempt overwrote crosses a mirror block
        fails_at = scipy.linalg.lapack.dpotrf(A, lower=1)[1]
        assert (fails_at > MIRROR_BLOCK) == (n > MIRROR_BLOCK)
        expected_jitter = float(JITTER_SCALE * np.trace(A) / n)
        A.flat[:: n + 1] += expected_jitter
        expected = scipy.linalg.cho_factor(A, lower=True)
        assert lower and jitter == expected_jitter > 0
        assert np.array_equal(factor, expected[0])
        assert np.array_equal(G, G0)
        # solve_pd factors the matrix it is given: G + shift*I, bit for bit the system above
        shifted = G + 0.0
        shifted.flat[:: n + 1] += shift
        shifted0 = shifted.copy()
        rhs = np.eye(n, order="F")
        X, solve_jitter = solve_pd(shifted, rhs)
        assert X is rhs and solve_jitter == jitter
        assert np.array_equal(X, scipy.linalg.cho_solve(expected, np.eye(n)))
        assert np.array_equal(shifted, shifted0)

    def test_the_factor_skips_the_finite_scan_and_solve_pd_checks_its_matrix(self, monkeypatch):
        # the package's Grams and shifts are finite by construction, so cho_factor never
        # scans them; solve_pd takes a caller's matrix and checks it itself, also the
        # strict upper triangle, which a lower Cholesky never reads
        checks, inner = [], scipy.linalg.cho_factor

        def recording(*args, **kwargs):
            checks.append(kwargs.get("check_finite", True))
            return inner(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
        fit_cme(random_sample(np.random.default_rng(40), 20), GAUSS, Tikhonov(), 1e-3)
        assert solve_pd(4.0 * np.eye(3), np.ones(3))[0].tolist() == [0.25] * 3
        assert checks == [False, False]
        for bad in (np.nan, np.inf):
            A = np.eye(3)
            A[0, 2] = bad
            with pytest.raises(ValueError, match="matrix must be finite"):
                solve_pd(A, np.ones(3))
        assert len(checks) == 2

    def test_closed_form_fit_records_its_jitter(self):
        # bandwidth 10 and lambda 1e-17 make G_X + n*lam*I numerically singular
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        kernel = GaussianKernel(bandwidth=10.0)
        # trace(G_X + n*lam*I) / n = 1 + n*lam for a Gaussian kernel
        expected = JITTER_SCALE * (1.0 + 30 * 1e-17)
        jittered = fit_cme(sample, kernel, Tikhonov(), 1e-17)
        assert jittered.jitter == pytest.approx(expected, rel=1e-12)
        # the shorthand runs the same fit: the same W, bit for bit, and the same jitter
        shorthand = fit_tikhonov_closed_form(sample, kernel, 1e-17)
        assert np.array_equal(shorthand.W, jittered.W) and shorthand.jitter == jittered.jitter
        assert fit_cme(sample, kernel, Tikhonov(), 1e-2).jitter == 0.0
        # the spectral filters factor nothing
        assert fit_cme(sample, kernel, Cutoff(), 1e-17).jitter == 0.0


class TestInverse:
    """The Tikhonov fit turns the Cholesky factor of S + n*lam*I into its inverse
    in S's own buffer (LAPACK dpotri) and mirrors the lower triangle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_w_is_the_symmetric_inverse_of_the_cho_solve_route(self, data):
        n = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 2))
        m = data.draw(st.integers(1, n - 1)) if n > 1 and data.draw(st.booleans()) else n
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d).map(tuple)
        pool = [Point(c) for c in data.draw(st.lists(coords, min_size=m, max_size=m, unique=True))]
        extra = data.draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
        X = tuple(pool[i] for i in data.draw(st.permutations(list(range(m)) + extra)))
        sample = PairedSample(X=X, Y=X[::-1])
        width = data.draw(st.floats(0.5, 2.0))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = 10.0 ** data.draw(st.floats(-6.0, 0.0))
        est = fit_cme(sample, kernel, Tikhonov(), lam)
        if m == n:
            assert np.array_equal(est.W, est.W.T)
        support, inv, counts = _support(X)
        _, inv_y, _ = _support(sample.Y)
        Z = cho_solve_W(_support_gram(kernel, support, counts), n, lam)
        ref = _on_support(Z, inv, counts, inv_y, len(est.Y))
        bound = 1e-13 * est.cond_lower_bound * np.max(np.abs(ref))
        assert np.max(np.abs(est.W - ref)) <= bound

    def test_cond_lower_bound_is_read_from_the_factor_bit_for_bit(self):
        # dpotri overwrites L with the inverse, so the bound must be read first
        rng = np.random.default_rng(33)
        pool = [pt(v) for v in rng.normal(size=5)]
        repeated = tuple(pool[i] for i in rng.integers(0, 5, size=20))
        for sample in (random_sample(rng, 30), PairedSample(X=repeated, Y=repeated[::-1])):
            for lam in (1e-5, 0.1):
                est = fit_cme(sample, GAUSS, Tikhonov(), lam)
                support, _, counts = _support(sample.X)
                A = _support_gram(GAUSS, support, counts)
                A.flat[:: A.shape[0] + 1] += sample.n * lam
                L = np.diagonal(scipy.linalg.cho_factor(A, lower=True)[0])
                assert est.cond_lower_bound == float((L.max() / L.min()) ** 2)

    def test_the_inverse_is_formed_in_the_buffer_of_s(self):
        import tracemalloc

        sample = random_sample(np.random.default_rng(34), 300)
        support, _, counts = _support(sample.X)
        S = _support_gram(GAUSS, support, counts)
        tracemalloc.start()
        try:
            Z, jitter, cond = _support_solve(S, sample.n, Tikhonov(), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(Z, S) and jitter == 0.0 and cond > 0.0
        assert np.array_equal(Z, full_closed_form_W(sample, GAUSS, 1e-3))
        # solving against I held a second 300 x 300 block
        assert peak <= 0.5 * S.nbytes

    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_mirror_is_the_textbook_mirror_bit_for_bit(self, m):
        Z = np.asfortranarray(np.random.default_rng(m).normal(size=(m, m)))
        expected = np.tril(Z) + np.tril(Z, -1).T
        _mirror_lower(Z)
        assert np.array_equal(Z, expected) and np.array_equal(Z, Z.T)

    def test_a_jittered_fit_is_the_inverse_of_the_jittered_system(self):
        # bandwidth 10 and lambda 1e-17 make G_X + n*lam*I numerically singular
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        kernel, n, lam = GaussianKernel(bandwidth=10.0), 30, 1e-17
        est = fit_cme(sample, kernel, Tikhonov(), lam)
        assert est.jitter > 0 and np.array_equal(est.W, est.W.T)
        A = np.array(gram(kernel, sample.X))
        A.flat[:: n + 1] += n * lam
        unjittered = A.copy()
        A.flat[:: n + 1] += est.jitter                      # the system _factor_pd factored
        W, tol = est.W, 1e-13 * est.cond_lower_bound
        ref = cho_solve_W(gram(kernel, sample.X), n, lam)   # jitters the same way
        assert np.max(np.abs(W - ref)) <= tol * np.max(np.abs(ref))
        assert np.max(np.abs(A @ W - np.eye(n))) <= tol
        # the jitter moves the inverse by far more than that tolerance
        assert np.max(np.abs(unjittered @ W - np.eye(n))) > 100 * tol


    def test_the_fitted_w_is_the_solve_buffer(self, monkeypatch):
        # the estimator holds the array the solve made, C-ordered and frozen,
        # with its doubles unchanged; for Tikhonov that is S's own buffer
        import cmekit.estimators as est_mod

        solve, solved = est_mod._support_solve, []

        def recording(S, *args):
            out = solve(S, *args)
            solved.append((S, out[0], out[0].tobytes()))
            return out

        monkeypatch.setattr(est_mod, "_support_solve", recording)
        sample = random_sample(np.random.default_rng(36), 40)
        for filt in (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)):
            solved.clear()
            est = fit_cme(sample, GAUSS, filt, 1e-3)
            (S, Z, solved_bytes), = solved
            assert np.shares_memory(est.W, Z)
            assert np.shares_memory(est.W, S) == isinstance(filt, Tikhonov)
            assert est.W.flags.c_contiguous and not est.W.flags.writeable
            assert est.W.tobytes() == solved_bytes

    def test_a_callers_array_is_copied(self):
        sample = random_sample(np.random.default_rng(37), 6)
        for W in (np.random.default_rng(38).normal(size=(6, 6)), np.eye(6, order="F")):
            kept = W.copy()
            est = CmeEstimator(kernel=GAUSS, lam=0.1, filt=Tikhonov(), X=sample.X, Y=sample.Y, W=W)
            W[0, 0] += 1.0
            assert not np.shares_memory(est.W, W) and np.array_equal(est.W, kept)
            assert est.W.flags.c_contiguous and not est.W.flags.writeable and W.flags.writeable

class TestPrediction:
    def test_scalar_prediction(self):
        lam = 0.7
        est = fit_tikhonov_closed_form(singleton_sample(), GAUSS, lam)
        e = predict_embedding(est, pt(0.0))
        assert e.support == est.Y
        assert e.weights[0] == pytest.approx(1.0 / (1.0 + lam), abs=1e-14)

    def test_prediction_shares_the_checked_training_y(self):
        rng = np.random.default_rng(22)
        est = fit_tikhonov_closed_form(random_sample(rng, 10), GAUSS, 0.1)
        assert predict_embedding(est, pt(0.3)).support is est.Y

    def test_far_query_vanishes(self):
        rng = np.random.default_rng(23)
        est = fit_tikhonov_closed_form(random_sample(rng, 40), GAUSS, 1e-2)
        w = predict_embedding(est, pt(200.0)).weights
        assert np.linalg.norm(w) <= 1e-12

    def test_zero_observable(self):
        rng = np.random.default_rng(24)
        est = fit_tikhonov_closed_form(random_sample(rng, 12), GAUSS, 0.1)
        assert predict_conditional_expectation(est, pt(0.3), np.zeros(12)) == 0.0

    def test_scalar_conditional_expectation(self):
        lam = 0.25
        est = fit_tikhonov_closed_form(singleton_sample(), GAUSS, lam)
        val = predict_conditional_expectation(est, pt(0.0), np.array([2.0]))
        assert val == pytest.approx(2.0 / (1.0 + lam), abs=1e-14)

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(25)
        est = fit_tikhonov_closed_form(random_sample(rng, 30), GAUSS, 0.05)
        x = pt(0.2)
        f, g = rng.normal(size=30), rng.normal(size=30)
        a, b = rng.normal(), rng.normal()
        lhs = predict_conditional_expectation(est, x, a * f + b * g)
        rhs = a * predict_conditional_expectation(est, x, f) + b * predict_conditional_expectation(
            est, x, g
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(26)
        est = fit_tikhonov_closed_form(random_sample(rng, 8), GAUSS, 0.1)
        with pytest.raises(ValueError, match="length"):
            predict_conditional_expectation(est, pt(0.0), np.zeros(7))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(27)
        est = fit_tikhonov_closed_form(random_sample(rng, 8, d=2), GAUSS, 0.1)
        with pytest.raises(ValueError, match="dimension"):
            predict_embedding(est, pt(0.0))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_memoized_coefficients_match_the_embedding_route(self, data):
        # fits of every filter on samples with repeated points, queried with changing observables
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, n))
        coords = st.floats(-3.0, 3.0)
        pool = [pt(c) for c in data.draw(st.lists(coords, min_size=m, max_size=m, unique=True))]
        extra = data.draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
        X = tuple(pool[i] for i in data.draw(st.permutations(list(range(m)) + extra)))
        sample = PairedSample(X=X, Y=X[::-1])
        kernel = data.draw(st.sampled_from([GAUSS, LaplacianKernel(0.7)]))
        lam = 10.0 ** data.draw(st.floats(-3.0, 0.0))
        # None stands for a hand-built W, which need not be symmetric
        filt = data.draw(
            st.sampled_from([Tikhonov(), Cutoff(), None])
            | st.builds(Landweber, st.integers(1, 50), st.floats(0.1, 1.9))
        )
        if filt is None:
            W = data.draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
            est = CmeEstimator(kernel=kernel, lam=lam, filt=Tikhonov(), X=X, Y=X[::-1], W=W)
        else:
            est = fit_cme(sample, kernel, filt, lam)        # on the distinct X and Y
        q = len(est.Y)
        values = arrays(float, q, elements=st.floats(-5.0, 5.0))
        observables = [data.draw(values) for _ in range(data.draw(st.integers(2, 3)))]
        queries = [pt(c) for c in data.draw(st.lists(coords, min_size=1, max_size=3))] + [X[0]]
        first_bits = {}
        for _ in range(data.draw(st.integers(4, 12))):
            f = data.draw(st.sampled_from(observables))
            if data.draw(st.booleans()):
                # an in-place change keeps the array object but not its values
                f[data.draw(st.integers(0, q - 1))] = data.draw(st.floats(-5.0, 5.0))
            x = data.draw(st.sampled_from(queries))
            got = predict_conditional_expectation(est, x, f)
            ref = float(predict_embedding(est, x).weights @ f)
            # each route is two nested sums of at most n products whose sizes sum to
            # |k_x| @ |W|^T @ |f|, so to first order it errs by n * eps times that; each
            # of its at most n^2 + n products may also underflow by half a subnormal
            # step, and an inner one is then scaled by |f_i| (W k_x first) or |k_x,i|
            # (W^T f first)
            k_x = cross_gram(kernel, est.X, [x])[:, 0]
            scale = np.abs(k_x) @ np.abs(est.W).T @ np.abs(f)
            floor = n * (1 + np.abs(k_x).sum() + np.abs(f).sum())
            fp = np.finfo(float)
            assert abs(got - ref) <= 2 * n * fp.eps * scale + floor * fp.smallest_subnormal
            # a repeat call gives the same bits whatever was queried in between
            assert bits(first_bits.setdefault((f.tobytes(), x), got)) == bits(got)

    def test_wrong_length_keeps_the_last_coefficients(self):
        rng = np.random.default_rng(28)
        est = fit_tikhonov_closed_form(random_sample(rng, 20), GAUSS, 0.05)
        f = rng.normal(size=20)
        before = predict_conditional_expectation(est, pt(0.4), f)
        memo = est._alpha_memo
        with pytest.raises(ValueError, match="length"):
            predict_conditional_expectation(est, pt(0.4), np.zeros(19))
        assert est._alpha_memo is memo
        assert bits(predict_conditional_expectation(est, pt(0.4), f)) == bits(before)

    @pytest.mark.parametrize(
        "copier",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_predict_the_same_bits(self, copier):
        rng = np.random.default_rng(29)
        est = fit_cme(random_sample(rng, 40), GAUSS, Cutoff(), 1e-3)
        f, xs = rng.normal(size=40), [pt(v) for v in rng.normal(size=5)]
        expected = [predict_conditional_expectation(est, x, f) for x in xs]
        twin = copier(est)
        # the memo is not a field: the copy is rebuilt from the fields alone
        assert not hasattr(twin, "_alpha_memo")
        assert bits([predict_conditional_expectation(twin, x, f) for x in xs]) == bits(expected)

    def test_threads_sharing_an_estimator_predict_the_sequential_bits(self):
        rng = np.random.default_rng(30)
        n = 400
        est = fit_tikhonov_closed_form(random_sample(rng, n), GAUSS, 1e-3)
        fs = [rng.normal(size=n), rng.normal(size=n)]
        xs = [pt(v) for v in rng.normal(size=100)]
        calls = [(i % 2, x) for i, x in enumerate(xs * 2)]

        def run(shift):
            # consecutive calls alternate observables, so the memo changes on every call
            preds = [predict_conditional_expectation(est, x, fs[(j + shift) % 2]) for j, x in calls]
            return bits(preds)

        expected = [run(0), run(1)]
        start, results = threading.Barrier(4, timeout=60), [None] * 4

        def worker(t):
            start.wait()
            results[t] = run(t % 2)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert results == [expected[t % 2] for t in range(4)]


class TestNormsAndRisks:
    def test_zero_coefficients(self):
        sample = singleton_sample()
        est = CmeEstimator(
            kernel=GAUSS, lam=1.0, filt=Tikhonov(), X=sample.X, Y=sample.Y, W=np.zeros((1, 1))
        )
        assert hs_norm_sq(est) == 0.0
        assert empirical_risk(est, sample) == pytest.approx(1.0, abs=1e-14)
        assert regularized_empirical_risk(est, sample) == empirical_risk(est, sample)

    def test_scalar_values(self):
        sample = singleton_sample()
        est = fit_tikhonov_closed_form(sample, GAUSS, 1.0)
        assert hs_norm_sq(est) == pytest.approx(0.25, abs=1e-14)
        assert empirical_risk(est, sample) == pytest.approx(0.25, abs=1e-14)
        assert regularized_empirical_risk(est, sample) == pytest.approx(0.5, abs=1e-14)

    def test_scalar_risk_formula(self):
        for lam in (0.1, 0.9, 4.0):
            sample = singleton_sample()
            est = fit_tikhonov_closed_form(sample, GAUSS, lam)
            assert empirical_risk(est, sample) == pytest.approx(
                (lam / (1.0 + lam)) ** 2, abs=1e-13
            )

    def test_interpolation_limit(self):
        # cutoff with tiny lambda on a nonsingular Gram reproduces the data
        X = tuple(pt(v) for v in (-2.0, -1.0, 0.0, 1.0, 2.0))
        Y = tuple(pt(v) for v in (1.0, 0.0, 2.0, -1.0, 0.5))
        sample = PairedSample(X=X, Y=Y)
        est = fit_cme(sample, GAUSS, Cutoff(), 1e-9)
        assert empirical_risk(est, sample) <= 1e-10

    @pytest.mark.parametrize("kind", ["gauss", "laplace", "table"])
    def test_empirical_risk_is_the_per_pair_diagonal_route_bit_for_bit(self, kind):
        # k(y_i, y_i) comes from one vectorized diagonal, not one kernel_eval per pair
        from cmekit import TableKernel

        rng = np.random.default_rng(35)
        if kind == "table":
            states = chain_states(5)
            B = rng.normal(size=(5, 5))
            kernel = TableKernel(states, B @ B.T)
            sample = PairedSample(*(tuple(states[i] for i in rng.integers(0, 5, 40)) for _ in "xy"))
        else:
            kernel = GAUSS if kind == "gauss" else LaplacianKernel(scale=1.3)
            sample = random_sample(rng, 40, d=2)
        held_out = PairedSample(X=sample.X[::-1], Y=sample.Y[::-1])
        est = fit_cme(sample, kernel, Tikhonov(), 1e-2)
        diag = np.array([kernel_eval(kernel, y, y) for y in held_out.Y])
        assert np.array_equal(_kernel_diagonal(kernel, held_out.Y), diag)
        Omega = est.W @ cross_gram(kernel, est.X, held_out.X)
        cross = np.einsum("ji,ji->i", Omega, cross_gram(kernel, est.Y, held_out.Y))
        norm = np.einsum("ji,ji->i", Omega, gram(kernel, est.Y) @ Omega)
        assert bits([empirical_risk(est, held_out)]) == bits(
            [float(np.mean(diag - 2.0 * cross + norm))]
        )

    def test_hs_norm_matches_trace_formula(self):
        rng = np.random.default_rng(30)
        filters = [Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)]
        for n, d, filt in [(1, 1, filters[0]), (17, 1, filters[1]), (60, 2, filters[2]),
                           (120, 3, filters[0])]:
            kernel = LaplacianKernel(scale=1.5) if d == 2 else GAUSS
            est = fit_cme(random_sample(rng, n, d=d), kernel, filt, 1e-3)
            GX = gram(kernel, est.X)
            GY = gram(kernel, est.Y)
            trace = float(np.trace(est.W.T @ GY @ est.W @ GX))
            assert hs_norm_sq(est) == pytest.approx(trace, rel=1e-12)

    @staticmethod
    def assert_hs_is_the_trace(est, hs, G_Y, G_X):
        # With duplicates, W can be large enough that tr(W^T G_Y W G_X) in
        # float arithmetic is itself off by 4e-12 relative, so the reference
        # is exact.  hs = sum((G_Y W G_X) * W) can cancel, so its tolerance is
        # the rounding-error bound of that evaluation, not a share of |hs|.
        # The bound has a relative term and an absolute underflow term: for a
        # tiny W the products B_ij * W_ij round to subnormals, each off by at
        # most 2**-1075, and n**3 * 2**-1074 covers those n**2 roundings with
        # room to spare
        assert abs(hs - exact_trace(est.W, G_Y, G_X)) <= TestNormsAndRisks.hs_bound(est, G_Y, G_X)

    @staticmethod
    def hs_bound(est, G_Y, G_X):
        n = max(est.W.shape)
        A = np.abs(est.W)
        bound = 4 * (n + 2) * np.finfo(float).eps * float(np.sum((abs(G_Y) @ A @ abs(G_X)) * A))
        underflow = n**3 * np.finfo(float).smallest_subnormal
        return bound + underflow

    def check_training_risk_and_hs(self, est, sample):
        # the report agrees with empirical_risk and with the trace formula
        G_X, G_Y = gram(est.kernel, est.X), gram(est.kernel, est.Y)
        risk, hs = _fitted_risk_and_hs(est, sample)
        assert abs(risk - empirical_risk(est, sample)) <= 1e-12 * risk_scale(est, sample)
        self.assert_hs_is_the_trace(est, hs, G_Y, G_X)

    def check_hand_built(self, sample, kernel, lam, W, W_c):
        """A paired n x n W on the sample's X and Y, and a support W_c on its
        distinct values with its paired twin."""
        D_X, D_Y = _support(sample.X)[0], _support(sample.Y)[0]
        support = CmeEstimator(kernel=kernel, lam=lam, filt=Tikhonov(), X=D_X, Y=D_Y, W=W_c)
        for est in (
            CmeEstimator(kernel=kernel, lam=lam, filt=Tikhonov(), X=sample.X, Y=sample.Y, W=W),
            support,
            paired_twin(support, sample),
        ):
            self.check_training_risk_and_hs(est, sample)

    @staticmethod
    def draw_training_set(data):
        """A sample of n <= 12 pairs from a small pool of points, so it carries
        duplicates, with a kernel and a lambda."""
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 2))
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
        pool = data.draw(st.lists(coords.map(lambda c: Point(tuple(c))), min_size=1, max_size=n))
        X, Y = (tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
                for _ in "xy")
        width = data.draw(st.floats(0.5, 2.0))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = data.draw(st.sampled_from([1e-3, 1e-2, 3e-2]))
        return PairedSample(X=X, Y=Y), kernel, lam

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_training_risk_and_hs_match_the_general_routes(self, data):
        sample, kernel, lam = self.draw_training_set(data)
        n, m_X, m_Y = sample.n, len(_support(sample.X)[0]), len(_support(sample.Y)[0])
        W, W_c = (
            data.draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
            for shape in ((n, n), (m_Y, m_X))
        )
        self.check_hand_built(sample, kernel, lam, W, W_c)

    def test_training_risk_of_a_cancelling_draw(self):
        # a hypothesis draw: the support W_c's risk, 1.2e-4, is what is left when
        # terms of order 1 cancel (risk_scale 4.0), and the two routes differ by
        # 2.8e-12 of the risk, 8e-17 of risk_scale
        sample = PairedSample(
            X=(pt(0.0),) * 6 + (pt(1e-9), pt(0.03125)), Y=(pt(0.0),) * 7 + (pt(1e-9),)
        )
        W_c = np.array([[1.5625, 0.1875, 0.0], [-0.75, 0.0, 0.0]])
        self.check_hand_built(sample, LaplacianKernel(1.0), 1e-3, np.zeros((8, 8)), W_c)

    def check_fitted_risk_and_hs(self, est, sample):
        # the report of a fit agrees with empirical_risk and with the report of
        # its paired twin, which holds the same operator in an n x n W and
        # factored nothing, so its Omega is W G_X.  The risk cancels
        # G_Y_ii - 2 cross_i + norm_i, so its tolerance is 1e-12 of risk_scale
        G_X, G_Y = gram(est.kernel, est.X), gram(est.kernel, est.Y)
        risk, hs = _fitted_risk_and_hs(est, sample)
        twin = paired_twin(est, sample)
        for reference in (_fitted_risk_and_hs(twin, sample)[0], empirical_risk(est, sample)):
            assert abs(risk - reference) <= 1e-12 * risk_scale(est, sample)
        self.assert_hs_is_the_trace(est, hs, G_Y, G_X)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fitted_risk_and_hs_match_the_general_routes(self, data):
        sample, kernel, lam = self.draw_training_set(data)
        for filt in (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)):
            self.check_fitted_risk_and_hs(fit_cme(sample, kernel, filt, lam), sample)

    def test_fitted_risk_and_hs_of_a_jittered_fit_on_repeated_points(self, monkeypatch):
        # the fit's factorization is made to add a jitter of 0.37 to S + n*lam*I,
        # so W G_X is far from I - n*lam*W and the report must not assume it; on
        # the last sample, where no point repeats, it would otherwise take it
        import cmekit.estimators as est_mod

        factor_pd = est_mod._factor_pd
        monkeypatch.setattr(
            est_mod, "_factor_pd", lambda A, shift: (factor_pd(A, shift + 0.37)[0], 0.37)
        )
        rng = np.random.default_rng(31)
        states = [pt(float(j)) for j in range(4)]
        X = tuple(states[i % 4] for i in range(11))
        Y = tuple(pt(v) for v in rng.normal(size=11))
        for sample in (
            PairedSample(X=X, Y=X), PairedSample(X=X, Y=Y), PairedSample(X=Y, Y=Y[::-1])
        ):
            est = fit_cme(sample, GAUSS, Tikhonov(), 1e-3)
            assert est.jitter == 0.37
            self.check_fitted_risk_and_hs(est, sample)

    def test_report_in_blocks_of_three_columns(self, monkeypatch):
        # the report forms Omega REPORT_BLOCK columns at a time; with blocks of
        # three, each pair's cross term comes from the block that holds its column.
        # An unjittered Tikhonov fit on distinct points takes REPORT_ROWS rows
        import cmekit.estimators as est_mod

        monkeypatch.setattr(est_mod, "REPORT_BLOCK", 3)
        monkeypatch.setattr(est_mod, "REPORT_ROWS", 3)
        rng = np.random.default_rng(32)
        pool = [pt(v) for v in rng.normal(size=10)]
        X, Y = (tuple(pool[i] for i in rng.integers(0, m, size=30)) for m in (10, 4))
        for sample in (PairedSample(X=X, Y=Y), random_sample(rng, 11)):
            for filt in (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)):
                est = fit_cme(sample, GAUSS, filt, 1e-3)
                assert len(est.X) > 6
                self.check_fitted_risk_and_hs(est, sample)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tikhonov_report_matches_the_general_route(self, data):
        # an unjittered Tikhonov fit on distinct points takes its report from the
        # solved system, in row blocks of any size; its paired twin, which factored
        # nothing, takes the general route
        import cmekit.estimators as est_mod

        n = data.draw(st.integers(1, 30), label="n")
        d = data.draw(st.integers(1, 2), label="d")
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d).map(tuple)
        X, Y = (tuple(map(Point, data.draw(st.lists(coords, min_size=n, max_size=n, unique=True))))
                for _ in "xy")
        sample = PairedSample(X=X, Y=Y)
        width = data.draw(st.floats(0.5, 2.0), label="width")
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = 10.0 ** data.draw(st.floats(-3.0, 0.0), label="log10 lambda")
        est = fit_cme(sample, kernel, Tikhonov(), lam)
        assert est.W.shape == (n, n) and est.cond_lower_bound > 0 and est.jitter == 0.0
        rows = data.draw(st.integers(1, 8), label="rows")
        with mock.patch.object(est_mod, "REPORT_ROWS", rows):
            self.check_fitted_risk_and_hs(est, sample)

    def test_the_tikhonov_report_multiplies_on_scipys_blas(self, monkeypatch):
        # the fit factored on scipy's BLAS, so the report keeps to its thread pool: one
        # dgemm per REPORT_ROWS row block, and no numpy product on W, with the same doubles
        import cmekit.estimators as est_mod

        products, gemms = [], []

        class RecordingW(np.ndarray):
            def __matmul__(self, other):
                products.append(self.shape)
                return np.asarray(self) @ other

            def __rmatmul__(self, other):
                products.append(self.shape)
                return other @ np.asarray(self)

        def dgemm(*args, **kwargs):
            gemms.append(args[2].shape)
            return inner(*args, **kwargs)

        inner = est_mod.dgemm
        sample = ou_sample_pairs(1.0, 0.5, 300, 5)
        est = fit_cme(sample, GAUSS, Tikhonov(), 1e-3)
        assert est.cond_lower_bound > 0 and est.jitter == 0.0 and est_mod.REPORT_ROWS == 128
        want = _fitted_risk_and_hs(est, sample)
        object.__setattr__(est, "W", est.W.view(RecordingW))
        monkeypatch.setattr(est_mod, "dgemm", dgemm)
        assert bits(_fitted_risk_and_hs(est, sample)) == bits(want)
        assert gemms == [(300, 128), (300, 128), (300, 44)] and products == []

    def test_a_large_lambda_report_keeps_the_trace_bound(self):
        # at lambda = 1e3, c W is near I: on this draw tr(G_Y W) - c q breaks the
        # hs bound by 8.2x, and the report keeps within 0.35x of it
        sample = ou_sample_pairs(1.0, 0.5, 100, 11)
        est = fit_cme(sample, LaplacianKernel(1.0), Tikhonov(), 1e3)
        assert est.cond_lower_bound > 0 and est.jitter == 0.0
        self.check_training_risk_and_hs(est, sample)

    def test_the_report_rounds_w_minus_c_w2_within_the_bound(self):
        # at lambda = 1e3 c W is near I.  Against the exact sum(G_Y * (W - c W^2))
        # of the same W, the report's own rounding is 0.04x the hs bound.  The
        # GEMM's (W W)_ii, which adds W_ii^2 to n small terms, would carry 4.3x,
        # and tr(G_Y W) - c q 8.0x
        sample, kernel, lam = ou_sample_pairs(1.0, 0.5, 60, 12), LaplacianKernel(1.0), 1e3
        est = fit_cme(sample, kernel, Tikhonov(), lam)
        G_Y, G_X = gram(kernel, est.Y), gram(kernel, est.X)
        Wi, Gi = exact_ints(est.W), exact_ints(G_Y)
        exact = Fraction(int((Gi * Wi).sum()), 2**2148) - Fraction(sample.n * lam) * Fraction(
            int((Gi * (Wi @ Wi)).sum()), 2**3222
        )
        hs = _fitted_risk_and_hs(est, sample)[1]
        assert abs(hs - float(exact)) <= self.hs_bound(est, G_Y, G_X)

    def test_fit_and_report_hold_one_block(self, monkeypatch):
        # the fit hands the solve's buffer to the estimator, and the report holds
        # W and two row blocks: no n x n G_X, G_Y or W copy.  32 rows are the
        # share of W at n = 600 that REPORT_ROWS = 128 rows are at n = 2400
        import tracemalloc

        import cmekit.estimators as est_mod

        monkeypatch.setattr(est_mod, "REPORT_ROWS", 32)
        sample, kernel = ou_sample_pairs(1.0, 0.5, 600, 11), GaussianKernel(1.0)
        tracemalloc.start()
        try:
            est = fit_cme(sample, kernel, Tikhonov(), 1e-3)
            _fitted_risk_and_hs(est, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # W is one block; the finiteness check's n x n booleans are 0.125 more
        assert peak <= 1.3 * est.W.nbytes

    def test_subnormal_hs_stays_within_the_underflow_floor(self):
        # W of equal entries near 1e-158 on one repeated point: hs is subnormal
        # and its evaluation differs from the exact trace by 5e-324 or 1e-323,
        # while the relative term of the bound underflows to 0
        X = (pt(0.0), pt(0.0))
        for w in (2e-158, 9.11193889e-156, 7.67523035e-163):
            est = CmeEstimator(
                kernel=GAUSS, lam=1e-3, filt=Tikhonov(), X=X, Y=X, W=np.full((2, 2), w)
            )
            self.check_training_risk_and_hs(est, PairedSample(X=X, Y=X))

    def test_hs_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            sample = random_sample(rng, 40)
            lams = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
            norms = [hs_norm_sq(fit_tikhonov_closed_form(sample, GAUSS, lam)) for lam in lams]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_tikhonov_minimizes_regularized_risk(self):
        rng = np.random.default_rng(29)
        sample = random_sample(rng, 25)
        lam = 0.05
        est = fit_tikhonov_closed_form(sample, GAUSS, lam)
        base = regularized_empirical_risk(est, sample)
        for _ in range(50):
            delta = rng.normal(size=(25, 25))
            delta *= 0.1 * rng.random() / np.linalg.norm(delta)
            perturbed = CmeEstimator(
                kernel=GAUSS, lam=lam, filt=Tikhonov(), X=sample.X, Y=sample.Y, W=est.W + delta
            )
            assert regularized_empirical_risk(perturbed, sample) >= base - 1e-12


class TestAgainstFiniteChainOracle:
    """Estimates on a finite 2-state chain converge to the exact oracle."""

    def _fitted(self, transition, n=2000, lam=1e-4, seed=3):
        from cmekit import FiniteMarkovModel, chain_states, sample_pairs

        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], transition)
        sample = sample_pairs(model, n, seed)
        return model, fit_tikhonov_closed_form(sample, GAUSS, lam)

    def test_deterministic_chain_embedding_recovery(self):
        # y = T(x) swaps the states; the predicted embedding at e_i lands
        # within MMD 0.05 of phi(T(e_i))
        from cmekit import WeightedEmbedding, embed_diff, embed_inner

        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        model, est = self._fitted(swap)
        for i, target in ((0, model.states[1]), (1, model.states[0])):
            predicted = predict_embedding(est, model.states[i])
            phi = WeightedEmbedding(kernel=GAUSS, support=(target,), weights=np.array([1.0]))
            diff = embed_diff(predicted, phi)
            mmd = np.sqrt(max(embed_inner(diff, diff), 0.0))
            assert mmd <= 0.05

    def test_conditional_expectation_matches_transition_rows(self):
        # estimate within 0.05 of sum_j p(e_i, e_j) f(e_j)
        rng = np.random.default_rng(30)
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        model, est = self._fitted(P)
        f_states = rng.normal(size=2)
        f_at_Y = np.array([f_states[int(y.coords[0])] for y in est.Y])
        for i in range(2):
            estimate = predict_conditional_expectation(est, model.states[i], f_at_Y)
            exact = float(P[i] @ f_states)
            assert abs(estimate - exact) <= 0.05

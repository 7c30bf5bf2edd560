"""Spectral filters, the fit and its full-size reference routes, predictions, and risks."""

from fractions import Fraction

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
    empirical_risk,
    filter_value,
    fit_cme,
    fit_tikhonov_closed_form,
    gram,
    hs_norm_sq,
    ou_sample_pairs,
    predict_conditional_expectation,
    predict_embedding,
    pt,
    regularized_empirical_risk,
)
from cmekit.estimators import (
    JITTER_SCALE,
    RANK_TOL,
    _factor_pd,
    _training_risk_and_hs,
    solve_pd,
)

GAUSS = GaussianKernel(bandwidth=1.0)


def random_sample(rng, n, d=1, spread=2.0):
    X = tuple(Point(tuple(rng.normal(size=d) * spread)) for _ in range(n))
    Y = tuple(Point(tuple(rng.normal(size=d) * spread)) for _ in range(n))
    return PairedSample(X=X, Y=Y)


def exact_trace(W, G_Y, G_X):
    """tr(W^T G_Y W G_X) of float matrices in exact arithmetic, rounded once."""
    # every float64 is an integer multiple of 2**-1074
    def ints(A):
        return np.array([[int(Fraction(v) * 2**1074) for v in row] for row in A], dtype=object)

    Wi, GYi, GXi = ints(W), ints(G_Y), ints(G_X)
    return float(Fraction(int(((GYi @ Wi) * (Wi @ GXi)).sum()), 2 ** (4 * 1074)))


def singleton_sample():
    return PairedSample(X=(pt(0.0),), Y=(pt(0.5),))


def full_closed_form_W(sample, kernel, lam):
    """The uncompressed closed-form route: (G_X + n*lam*I) W = I solved at full size."""
    n = sample.n
    return solve_pd(gram(kernel, sample.X), np.eye(n, order="F"), n * lam)[0]


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


def assert_fits_match_full_routes(sample, kernel, lam, filters):
    """The fit equals the uncompressed routes within 1e-10 of max |W|, or both diverge."""
    def close(W, ref):
        assert np.max(np.abs(W - ref)) <= 1e-10 * np.max(np.abs(ref))

    close(fit_tikhonov_closed_form(sample, kernel, lam).W, full_closed_form_W(sample, kernel, lam))
    for filt in filters:
        try:
            ref = full_filtered_W(sample, kernel, filt, lam)
        except DivergentStepError:
            with pytest.raises(DivergentStepError):
                fit_cme(sample, kernel, filt, lam)
            continue
        close(fit_cme(sample, kernel, filt, lam).W, ref)


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
        # permuting the pairs by Pi permutes W to Pi W Pi^T
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
        W = fit_cme(sample, kernel, filt, lam).W
        W_perm = fit_cme(permuted, kernel, filt, lam).W
        assert np.max(np.abs(W_perm - W[np.ix_(perm, perm)])) <= 1e-10 * np.max(np.abs(W))

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
        from cmekit import chain_states, table_kernel

        states = chain_states(3)
        k = table_kernel(states, np.eye(3))
        sample = PairedSample(X=states, Y=states)
        lam = 0.2
        fit = fit_cme(sample, k, Tikhonov(), lam)
        assert np.max(np.abs(fit.W - np.eye(3) / (1.0 + 3 * lam))) <= 1e-12

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            fit_cme(singleton_sample(), GAUSS, Tikhonov(), 0.0)
        with pytest.raises(ValueError):
            fit_tikhonov_closed_form(singleton_sample(), GAUSS, -1.0)

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


class TestFactorization:
    def test_jitter_retry_matches_the_two_step_factor_bitwise(self):
        # duplicated points make G rank deficient, so G + shift*I fails Cholesky
        rng = np.random.default_rng(23)
        pts = [pt(v) for v in rng.normal(size=6)]
        G = gram(GAUSS, pts + pts[:4] + pts)
        G0 = G.copy()
        n, shift = G.shape[0], 1e-17
        (factor, lower), jitter = _factor_pd(G, shift)
        # the route _factor_pd replaces: G + shift*I, then a jittered copy of it
        A = G.copy()
        A.flat[:: n + 1] += shift
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(A, lower=True)
        expected_jitter = float(JITTER_SCALE * np.trace(A) / n)
        A.flat[:: n + 1] += expected_jitter
        expected = scipy.linalg.cho_factor(A, lower=True)
        assert lower and jitter == expected_jitter > 0
        assert np.array_equal(factor, expected[0])
        assert np.array_equal(G, G0)
        rhs = np.eye(n, order="F")
        X, solve_jitter = solve_pd(G, rhs, shift)
        assert X is rhs and solve_jitter == jitter
        assert np.array_equal(X, scipy.linalg.cho_solve(expected, np.eye(n)))
        assert np.array_equal(G, G0)

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
    def check_training_risk_and_hs(est, sample):
        # the two-GEMM report agrees with empirical_risk and with the trace
        # formula.  With duplicates, W can be large enough that
        # tr(W^T G_Y W G_X) in float arithmetic is itself off by 4e-12
        # relative, so the reference is exact.  hs = sum((G_Y W G_X) * W) can
        # cancel, so its tolerance is the rounding-error bound of that
        # evaluation, not a share of |hs|.  The bound has a relative term and
        # an absolute underflow term: for a tiny W the products B_ij * W_ij
        # round to subnormals, each off by at most 2**-1075, and
        # n**3 * 2**-1074 covers those n**2 roundings with room to spare
        n = sample.n
        G_X, G_Y = gram(est.kernel, est.X), gram(est.kernel, est.Y)
        risk, hs = _training_risk_and_hs(est)
        assert risk == pytest.approx(empirical_risk(est, sample), rel=1e-12, abs=1e-300)
        A = np.abs(est.W)
        bound = 4 * (n + 2) * np.finfo(float).eps * float(np.sum((abs(G_Y) @ A @ abs(G_X)) * A))
        underflow = n**3 * np.finfo(float).smallest_subnormal
        assert abs(hs - exact_trace(est.W, G_Y, G_X)) <= bound + underflow

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_training_risk_and_hs_match_the_general_routes(self, data):
        # for every fit and for a hand-built non-symmetric W
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 2))
        coords = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
        # a small pool of points, so samples carry duplicates
        pool = data.draw(st.lists(coords.map(lambda c: Point(tuple(c))), min_size=1, max_size=n))
        X, Y = (tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
                for _ in "xy")
        sample = PairedSample(X=X, Y=Y)
        width = data.draw(st.floats(0.5, 2.0))
        kernel = data.draw(st.sampled_from([GaussianKernel(width), LaplacianKernel(width)]))
        lam = data.draw(st.sampled_from([1e-3, 1e-2, 3e-2]))
        W = data.draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
        for est in (
            *(fit_cme(sample, kernel, filt, lam)
              for filt in (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9))),
            CmeEstimator(kernel=kernel, lam=lam, filt=Tikhonov(), X=X, Y=Y, W=W),
        ):
            self.check_training_risk_and_hs(est, sample)

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
        from cmekit import chain_states, finite_model, sample_pairs

        model = finite_model(chain_states(2), [0.5, 0.5], transition)
        sample = sample_pairs(model, n, seed)
        return model, fit_tikhonov_closed_form(sample, GAUSS, lam)

    def test_deterministic_chain_embedding_recovery(self):
        # y = T(x) swaps the states; the predicted embedding at e_i lands
        # within MMD 0.05 of phi(T(e_i))
        from cmekit import WeightedEmbedding, embed_diff, embed_norm_sq

        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        model, est = self._fitted(swap)
        for i, target in ((0, model.states[1]), (1, model.states[0])):
            predicted = predict_embedding(est, model.states[i])
            phi = WeightedEmbedding(kernel=GAUSS, support=(target,), weights=np.array([1.0]))
            mmd = np.sqrt(max(embed_norm_sq(embed_diff(predicted, phi)), 0.0))
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

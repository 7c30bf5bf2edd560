"""Kernel-EDMD eigenproblem: matrix reduction, eigenpairs, clustering."""

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import cmekit.spectral
from cmekit import (
    EdmdResult,
    GaussianKernel,
    PairedSample,
    edmd_eigen,
    edmd_matrix,
    eigen_residuals,
    embed_inner,
    eval_eigenfunction,
    fit_tikhonov_closed_form,
    gram,
    ou_sample_pairs,
    predict_embedding,
    pt,
    sample_pairs,
    sign_cluster,
    stationary_distribution,
)
from cmekit.estimators import JITTER_SCALE
from cmekit.models import chain_states, finite_model

GAUSS = GaussianKernel(bandwidth=1.0)


def identity_sample(rng, n, spread=2.0):
    X = tuple(pt(v) for v in rng.normal(size=n) * spread)
    return PairedSample(X=X, Y=X)


def random_sample(rng, n):
    X = tuple(pt(v) for v in rng.normal(size=n) * 2.0)
    Y = tuple(pt(v) for v in rng.normal(size=n) * 2.0)
    return PairedSample(X=X, Y=Y)


def recomputed_residuals(res, sample, kernel, lam):
    """sqrt(Re d^H G d) with d = M v - mu v, M taken from edmd_matrix."""
    M = edmd_matrix(sample, kernel, lam)
    G = gram(kernel, sample.X)
    out = []
    for j in range(res.r):
        v = res.coeffs[:, j]
        d = M @ v - res.eigenvalues[j] * v
        out.append(np.sqrt(max(np.real(np.conj(d) @ G @ d), 0.0)))
    return np.array(out)


class TestEdmdMatrix:
    def test_scalar_identity(self):
        sample = PairedSample(X=(pt(0.3),), Y=(pt(0.3),))
        M = edmd_matrix(sample, GAUSS, 1.0)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_identity_dynamics_spectrum(self):
        # whole spectrum is s_i / (s_i + n lam) for eigenvalues s_i of G_X
        rng = np.random.default_rng(40)
        sample = identity_sample(rng, 25)
        lam = 0.01
        M = edmd_matrix(sample, GAUSS, lam)
        got = np.sort(np.linalg.eigvals(M).real)
        s = np.linalg.eigvalsh(gram(GAUSS, sample.X))
        expected = np.sort(s / (s + 25 * lam))
        assert np.max(np.abs(got - expected)) <= 1e-10
        # strictly inside (0, 1) above the Gram's round-off floor
        assert np.all(got > -1e-12) and np.all(got < 1)
        significant = expected > 1e-12
        assert np.all(got[significant] > 0)

    def test_identity_dynamics_small_lambda(self):
        X = tuple(pt(v) for v in (-2.0, -1.0, 0.0, 1.0, 2.0))
        sample = PairedSample(X=X, Y=X)
        M = edmd_matrix(sample, GAUSS, 1e-12)
        assert np.max(np.abs(M - np.eye(5))) <= 1e-6

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            edmd_matrix(PairedSample(X=(pt(0.0),), Y=(pt(0.0),)), GAUSS, 0.0)


class TestEdmdEigen:
    def test_identity_dynamics_eigenvalues(self):
        rng = np.random.default_rng(41)
        sample = identity_sample(rng, 30)
        lam = 0.05
        res = edmd_eigen(sample, GAUSS, lam, 10)
        assert np.max(np.abs(res.eigenvalues.imag)) <= 1e-12
        s = np.linalg.eigvalsh(gram(GAUSS, sample.X))
        expected = np.sort(s / (s + 30 * lam))[::-1][:10]
        assert np.max(np.abs(res.eigenvalues.real - expected)) <= 1e-10
        assert np.all(res.eigenvalues.real > 0) and np.all(res.eigenvalues.real < 1)

    def test_sorted_by_modulus(self):
        rng = np.random.default_rng(42)
        res = edmd_eigen(random_sample(rng, 50), GAUSS, 1e-2, 10)
        mods = np.abs(res.eigenvalues)
        assert np.all(mods[:-1] >= mods[1:] - 1e-14)

    def test_unit_rkhs_norm_and_sign(self):
        rng = np.random.default_rng(43)
        sample = random_sample(rng, 40)
        res = edmd_eigen(sample, GAUSS, 1e-2, 6)
        G = gram(GAUSS, sample.X)
        for j in range(res.r):
            v = res.coeffs[:, j]
            assert np.real(np.conj(v) @ G @ v) == pytest.approx(1.0, abs=1e-10)
            lead = v[np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0][0]]
            assert lead.real >= 0

    def test_conjugate_pairs(self):
        # a non-reversible cyclic chain has complex transition eigenvalues
        P = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
        model = finite_model(chain_states(3), stationary_distribution(P), P)
        sample = sample_pairs(model, 600, 6)
        res = edmd_eigen(sample, GAUSS, 1e-4, 3)
        complex_idx = [j for j in range(3) if abs(res.eigenvalues[j].imag) > 1e-8]
        assert len(complex_idx) == 2
        i, j = complex_idx
        assert res.eigenvalues[i] == np.conj(res.eigenvalues[j])
        assert np.array_equal(res.coeffs[:, i], np.conj(res.coeffs[:, j]))
        # full matrix spectrum pairs up within 1e-10
        M = edmd_matrix(sample, GAUSS, 1e-4)
        w = np.linalg.eigvals(M)
        for mu in w[np.abs(w.imag) > 1e-10]:
            assert np.min(np.abs(w - np.conj(mu))) <= 1e-10

    def test_r_out_of_range(self):
        rng = np.random.default_rng(44)
        sample = random_sample(rng, 10)
        with pytest.raises(ValueError, match="r out of range"):
            edmd_eigen(sample, GAUSS, 0.1, 0)
        with pytest.raises(ValueError, match="r out of range"):
            edmd_eigen(sample, GAUSS, 0.1, 11)

    def test_arnoldi_matches_dense(self, monkeypatch):
        rng = np.random.default_rng(45)
        sample = random_sample(rng, 160)
        dense = edmd_eigen(sample, GAUSS, 1e-2, 4)
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", 50)
        arnoldi = edmd_eigen(sample, GAUSS, 1e-2, 4)
        assert np.max(np.abs(dense.eigenvalues - arnoldi.eigenvalues)) <= 1e-8
        for j in range(4):
            # eigenvectors may differ by sign/phase; compare as RKHS elements
            inner = np.abs(
                np.conj(dense.coeffs[:, j]) @ gram(GAUSS, sample.X) @ arnoldi.coeffs[:, j]
            )
            assert inner == pytest.approx(1.0, abs=1e-6)

    def test_jittered_system_is_shared_by_both_paths_and_residuals(self, monkeypatch):
        # G_X + n*lam*I is numerically singular here: the dense solve jitters
        # it, and the residuals and the Arnoldi path must factor it the same way
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        kernel = GaussianKernel(bandwidth=10.0)
        res = edmd_eigen(sample, kernel, 1e-17, 3)
        resid = eigen_residuals(res, sample)
        assert resid.shape == (3,)
        assert np.all(np.isfinite(resid)) and np.all(resid >= 0)
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", 10)
        arnoldi = edmd_eigen(sample, kernel, 1e-17, 3)
        assert np.all(np.isfinite(arnoldi.eigenvalues))

    def test_jitter_is_recorded(self, monkeypatch):
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        kernel = GaussianKernel(bandwidth=10.0)
        # trace(G_X + n*lam*I) / n = 1 + n*lam for a Gaussian kernel
        expected = JITTER_SCALE * (1.0 + 30 * 1e-17)
        assert edmd_eigen(sample, kernel, 1e-17, 3).jitter == pytest.approx(expected, rel=1e-12)
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", 10)
        assert edmd_eigen(sample, kernel, 1e-17, 3).jitter == pytest.approx(expected, rel=1e-12)
        rng = np.random.default_rng(51)
        assert edmd_eigen(random_sample(rng, 40), GAUSS, 1e-2, 3).jitter == 0.0

    @pytest.mark.parametrize("limit", [1200, 50], ids=["dense", "arnoldi"])
    def test_one_gram_cross_gram_and_factor_per_fit(self, monkeypatch, limit):
        calls = Counter()

        def counting(name):
            inner = getattr(cmekit.spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in ("gram", "cross_gram", "_factor_pd"):
            monkeypatch.setattr(cmekit.spectral, name, counting(name))
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", limit)
        sample = random_sample(np.random.default_rng(52), 120)
        res = edmd_eigen(sample, GAUSS, 1e-2, 4)
        eigen_residuals(res, sample)
        assert calls == {"gram": 1, "cross_gram": 1, "_factor_pd": 1}

    @pytest.mark.parametrize("limit", [1200, 50], ids=["dense", "arnoldi"])
    def test_solves_skip_the_finite_scan_of_the_checked_factor(self, monkeypatch, limit):
        # _factor_pd already checked G_X: no solve scans the n x n factor again
        checks = []
        inner = scipy.linalg.cho_solve

        def recording(*args, **kwargs):
            checks.append(kwargs.get("check_finite", True))
            return inner(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_solve", recording)
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", limit)
        sample = random_sample(np.random.default_rng(52), 120)
        edmd_eigen(sample, GAUSS, 1e-2, 4)
        edmd_matrix(sample, GAUSS, 1e-2)
        assert len(checks) > 1 and not any(checks)

    def test_spectral_bound_sanity(self):
        # bounded kernel + acceptance-scale lambda: top modulus <= 1.1
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = finite_model(chain_states(2), stationary_distribution(P), P)
        res = edmd_eigen(sample_pairs(model, 500, 1), GAUSS, 1e-4, 2)
        assert np.abs(res.eigenvalues[0]) <= 1.1
        res_ou = edmd_eigen(ou_sample_pairs(1.0, 0.5, 800, 1), GAUSS, 1e-3, 3)
        assert np.abs(res_ou.eigenvalues[0]) <= 1.1


class TestResiduals:
    def check(self, sample, kernel, lam, r):
        res = edmd_eigen(sample, kernel, lam, r)
        assert res.r == r
        want = recomputed_residuals(res, sample, kernel, lam)
        assert np.max(np.abs(eigen_residuals(res, sample) - want)) <= 1e-12
        other = PairedSample(X=sample.X + sample.X[:1], Y=sample.Y + sample.Y[:1])
        with pytest.raises(ValueError, match="does not match"):
            eigen_residuals(res, other)

    def test_single_point(self):
        self.check(PairedSample(X=(pt(0.3),), Y=(pt(0.5),)), GAUSS, 1e-2, 1)

    @pytest.mark.parametrize("drop", [0, 1], ids=["r=n", "r=n-1"])
    def test_dense_fallback_for_large_r(self, monkeypatch, drop):
        # r > n - 2 takes the dense solver even above DENSE_EIG_LIMIT
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", 3)
        sample = random_sample(np.random.default_rng(54), 8)
        self.check(sample, GAUSS, 1e-2, 8 - drop)

    def test_arnoldi(self, monkeypatch):
        monkeypatch.setattr(cmekit.spectral, "DENSE_EIG_LIMIT", 50)
        self.check(random_sample(np.random.default_rng(55), 160), GAUSS, 1e-2, 4)

    def test_hand_built_result_has_no_residuals(self):
        X = (pt(0.0), pt(1.0))
        res = EdmdResult(
            eigenvalues=np.ones(1, dtype=complex), coeffs=np.ones((2, 1), dtype=complex),
            X=X, kernel=GAUSS, lam=0.1,
        )
        with pytest.raises(ValueError, match="no residuals"):
            eigen_residuals(res, PairedSample(X=X, Y=X))


class TestEigenfunctions:
    def test_far_query_decays(self):
        rng = np.random.default_rng(46)
        res = edmd_eigen(random_sample(rng, 30), GAUSS, 1e-2, 3)
        assert abs(eval_eigenfunction(res, 0, pt(150.0))) <= 1e-12

    def test_index_out_of_range(self):
        rng = np.random.default_rng(47)
        res = edmd_eigen(random_sample(rng, 10), GAUSS, 1e-2, 2)
        with pytest.raises(IndexError):
            eval_eigenfunction(res, 2, pt(0.0))
        with pytest.raises(IndexError):
            eval_eigenfunction(res, -1, pt(0.0))

    def test_eigen_residuals_small(self):
        rng = np.random.default_rng(48)
        sample = random_sample(rng, 60)
        res = edmd_eigen(sample, GAUSS, 1e-3, 5)
        assert np.max(eigen_residuals(res, sample)) <= 1e-8

    def test_matrix_route_matches_estimator_route(self):
        # A f evaluated through predict_embedding inner products agrees with
        # the Gram-coordinate matrix action within 1e-8
        rng = np.random.default_rng(49)
        sample = random_sample(rng, 40)
        lam = 1e-2
        res = edmd_eigen(sample, GAUSS, lam, 3)
        est = fit_tikhonov_closed_form(sample, GAUSS, lam)
        M = edmd_matrix(sample, GAUSS, lam)
        for j in range(3):
            v = res.coeffs[:, j]
            for part in (v.real, v.imag):
                image = M @ part
                from cmekit import WeightedEmbedding

                f_emb = WeightedEmbedding(kernel=GAUSS, support=sample.X, weights=part)
                for x in sample.X[:10]:
                    matrix_val = float(
                        image @ gram(GAUSS, sample.X)[:, sample.X.index(x)]
                    )
                    est_val = embed_inner(f_emb, predict_embedding(est, x))
                    assert est_val == pytest.approx(matrix_val, abs=1e-8)


class TestSignCluster:
    def _result(self, X, col1, eigenvalues=(1.0, 0.8)):
        coeffs = np.column_stack(
            [np.ones(len(X), dtype=complex) / len(X), np.asarray(col1, dtype=complex)]
        )
        return EdmdResult(
            eigenvalues=np.asarray(eigenvalues, dtype=complex),
            coeffs=coeffs,
            X=tuple(X),
            kernel=GAUSS,
            lam=0.1,
        )

    def test_positive_everywhere_gives_label_zero(self):
        res = self._result([pt(0.0), pt(1.0)], [1.0, 1.0])
        labels = sign_cluster(res, [pt(-1.0), pt(0.5), pt(2.0)])
        assert np.array_equal(labels, [0, 0, 0])

    def test_antisymmetric_labels_swap_under_mirroring(self):
        res = self._result([pt(1.0), pt(-1.0)], [1.0, -1.0])
        states = [pt(0.7), pt(-0.3)]
        mirrored = [pt(-0.7), pt(0.3)]
        labels = sign_cluster(res, states)
        swapped = sign_cluster(res, mirrored)
        assert np.array_equal(labels, 1 - swapped)

    def test_zero_takes_nearest_nonzero_label(self):
        res = self._result([pt(1.0), pt(0.0)], [1.0, -1.0])
        # f(0.5) = k(1, .5) - k(0, .5) = 0 exactly; neighbors tie, earlier wins
        labels = sign_cluster(res, [pt(0.9), pt(0.5), pt(0.1)])
        assert labels[0] == 0 and labels[2] == 1
        assert labels[1] == 0

    def test_requires_two_eigenfunctions(self):
        rng = np.random.default_rng(50)
        res = edmd_eigen(random_sample(rng, 10), GAUSS, 0.1, 1)
        with pytest.raises(ValueError, match="r >= 2"):
            sign_cluster(res, [pt(0.0)])

    def test_double_well_metastable_split(self):
        from cmekit import double_well_pairs

        sample = double_well_pairs(3.0, 1e-3, 50, 800, 21)
        res = edmd_eigen(sample, GaussianKernel(bandwidth=0.5), 1e-3, 3)
        query = sample.X[:400]
        labels = sign_cluster(res, query)
        signs = np.array([p.coords[0] > 0 for p in query])
        agreement = max(np.mean((labels == 0) == signs), np.mean((labels == 1) == signs))
        assert agreement >= 0.9

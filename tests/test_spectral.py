"""Kernel-EDMD eigenproblem: matrix reduction, eigenpairs, clustering.

``edmd_eigen`` runs ARPACK for r <= n - 2 and the dense eigensolver for
r >= n - 1, so each test picks its branch by r.
"""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmekit.spectral
from cmekit import (
    EdmdResult,
    FiniteMarkovModel,
    GaussianKernel,
    PairedSample,
    cross_gram,
    edmd_eigen,
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
from cmekit.models import chain_states, random_model

GAUSS = GaussianKernel(bandwidth=1.0)


def identity_sample(rng, n, spread=2.0):
    X = tuple(pt(v) for v in rng.normal(size=n) * spread)
    return PairedSample(X=X, Y=X)


def random_sample(rng, n):
    X = tuple(pt(v) for v in rng.normal(size=n) * 2.0)
    Y = tuple(pt(v) for v in rng.normal(size=n) * 2.0)
    return PairedSample(X=X, Y=Y)


def reference_matrix(sample, kernel, lam, jitter=0.0):
    """M = (G_X + n*lam*I + jitter*I)^{-1} K_YX by a plain dense solve."""
    n = sample.n
    G = gram(kernel, sample.X) + (n * lam + jitter) * np.eye(n)
    return scipy.linalg.solve(G, cross_gram(kernel, sample.Y, sample.X))


def reference_eigenvalues(M):
    """All eigenvalues of M in the documented order (modulus descending, then
    real part descending, then nonnegative imaginary part first), and the
    first-order error bound of each, eps ||M|| / |y^H x| for its unit left and
    right eigenvectors y and x."""
    w, left, right = scipy.linalg.eig(M, left=True)
    bound = np.finfo(float).eps * np.linalg.norm(M, 2) / np.abs(np.sum(left.conj() * right, axis=0))
    order = np.lexsort(((w.imag < 0).astype(int), -w.real, -np.abs(w)))
    return w[order], bound[order]


def recomputed_residuals(res, sample, kernel, lam, jitter=0.0):
    """sqrt(Re d^H G d) with d = M v - mu v, M taken from reference_matrix."""
    M = reference_matrix(sample, kernel, lam, jitter)
    G = gram(kernel, sample.X)
    out = []
    for j in range(res.r):
        v = res.coeffs[:, j]
        d = M @ v - res.eigenvalues[j] * v
        out.append(np.sqrt(max(np.real(np.conj(d) @ G @ d), 0.0)))
    return np.array(out)


class TestEdmdMatrix:
    """The Gram-coordinate matrix M, through edmd_eigen's whole spectrum
    (r = n) and through the reference solve."""

    def test_scalar_identity(self):
        sample = PairedSample(X=(pt(0.3),), Y=(pt(0.3),))
        M = reference_matrix(sample, GAUSS, 1.0)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert edmd_eigen(sample, GAUSS, 1.0, 1).eigenvalues[0] == pytest.approx(0.5, abs=1e-14)

    def test_identity_dynamics_spectrum(self):
        # whole spectrum is s_i / (s_i + n lam) for eigenvalues s_i of G_X, from
        # the reference at n = 25 and from edmd_eigen with r = n at n = 8: r = n
        # needs every eigenfunction off G_X's round-off null space, which holds
        # for 8 of these points but not for 25
        lam = 0.01
        for n in (25, 8):
            sample = identity_sample(np.random.default_rng(40), n)
            if n == 25:
                w = np.linalg.eigvals(reference_matrix(sample, GAUSS, lam))
            else:
                w = edmd_eigen(sample, GAUSS, lam, n).eigenvalues
            assert np.max(np.abs(w.imag)) <= 1e-12
            got = np.sort(w.real)
            s = np.linalg.eigvalsh(gram(GAUSS, sample.X))
            expected = np.sort(s / (s + n * lam))
            assert np.max(np.abs(got - expected)) <= 1e-10
            # strictly inside (0, 1) above the Gram's round-off floor
            assert np.all(got > -1e-12) and np.all(got < 1)
            significant = expected > 1e-12
            assert np.all(got[significant] > 0)

    def test_identity_dynamics_small_lambda(self):
        X = tuple(pt(v) for v in (-2.0, -1.0, 0.0, 1.0, 2.0))
        sample = PairedSample(X=X, Y=X)
        M = reference_matrix(sample, GAUSS, 1e-12)
        assert np.max(np.abs(M - np.eye(5))) <= 1e-6
        assert np.max(np.abs(edmd_eigen(sample, GAUSS, 1e-12, 5).eigenvalues - 1.0)) <= 1e-6

    def test_lambda_validation(self):
        with pytest.raises(ValueError, match="lambda must be > 0"):
            edmd_eigen(PairedSample(X=(pt(0.0),), Y=(pt(0.0),)), GAUSS, 0.0, 1)
        with pytest.raises(ValueError, match="lambda must be > 0 and finite"):
            edmd_eigen(PairedSample(X=(pt(0.0),), Y=(pt(0.0),)), GAUSS, np.inf, 1)


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
        model = FiniteMarkovModel(chain_states(3), stationary_distribution(P), P)
        sample = sample_pairs(model, 600, 6)
        res = edmd_eigen(sample, GAUSS, 1e-4, 3)
        complex_idx = [j for j in range(3) if abs(res.eigenvalues[j].imag) > 1e-8]
        assert len(complex_idx) == 2
        i, j = complex_idx
        assert res.eigenvalues[i] == np.conj(res.eigenvalues[j])
        assert np.array_equal(res.coeffs[:, i], np.conj(res.coeffs[:, j]))
        # full matrix spectrum pairs up within 1e-10
        M = reference_matrix(sample, GAUSS, 1e-4)
        w = np.linalg.eigvals(M)
        for mu in w[np.abs(w.imag) > 1e-10]:
            assert np.min(np.abs(w - np.conj(mu))) <= 1e-10

    def test_an_overflowing_n_lambda_is_refused(self):
        # lambda = 1e307 is finite, but the shift n*lambda of G_X + n*lambda*I is not
        sample = random_sample(np.random.default_rng(50), 50)
        for r in (4, 50):
            with pytest.raises(ValueError, match=re.escape("n*lambda overflows: n = 50, lambda = 1e+307")):
                edmd_eigen(sample, GAUSS, 1e307, r)

    def test_r_out_of_range(self):
        rng = np.random.default_rng(44)
        sample = random_sample(rng, 10)
        with pytest.raises(ValueError, match="r out of range"):
            edmd_eigen(sample, GAUSS, 0.1, 0)
        with pytest.raises(ValueError, match="r out of range"):
            edmd_eigen(sample, GAUSS, 0.1, 11)

    def test_r_above_the_distinct_states_is_refused(self):
        # a 4-state sample has only 4 distinct X: eigenfunctions past the 4th lie in
        # the null space of G_X
        sample = sample_pairs(random_model(np.random.default_rng(2), 4), 400, 11)
        assert edmd_eigen(sample, GAUSS, 1e-3, 4).r == 4
        for r in (5, 6):
            with pytest.raises(np.linalg.LinAlgError, match="zero RKHS norm.*reduce r"):
                edmd_eigen(sample, GAUSS, 1e-3, r)

    @pytest.mark.parametrize("n", [300, 1500])
    def test_pair_cut_at_r_keeps_the_nonnegative_imaginary_member(self, n):
        # the 4-cycle's spectrum is 1, i, -1, -i: r = 2 keeps 1 and one member
        # of the pair +-i, whose conjugate is cut
        model = FiniteMarkovModel(chain_states(4), np.full(4, 0.25), np.roll(np.eye(4), 1, axis=1))
        res = edmd_eigen(sample_pairs(model, n, 7), GAUSS, 1e-4, 2)
        mu = res.eigenvalues[1]
        assert mu.imag > 0.99 and abs(mu.real) <= 1e-3
        assert np.max(res.residuals) <= 1e-12

    def test_pair_cut_at_r_keeps_the_upper_member_when_the_eigenvalue_repeats(self):
        # two copies of the 3-cycle, 100 bandwidths apart, each give the spectrum
        # 1, mu, conj(mu): r = 5 keeps one whole pair and cuts the other, whose
        # kept member must be the upper one although a conjugate of it is kept
        P = np.array([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]])
        model = FiniteMarkovModel(chain_states(3), stationary_distribution(P), P)
        sample = sample_pairs(model, 300, 6)

        def shifted(points):
            return tuple(pt(p.coords[0] + 100.0) for p in points)

        twice = PairedSample(
            X=tuple(sample.X) + shifted(sample.X), Y=tuple(sample.Y) + shifted(sample.Y)
        )
        res = edmd_eigen(twice, GAUSS, 1e-4, 5)
        imag = res.eigenvalues.imag
        assert np.sum(imag > 0.6) == 2 and np.sum(imag < -0.6) == 1 and imag[-1] > 0.6
        assert np.max(res.residuals) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kept_pairs_are_exact_conjugates(self, data):
        # ARPACK on non-reversible finite chains and OU pairs; the dense solver
        # on small OU samples with r in {n - 1, n}
        seed = data.draw(st.integers(0, 2**32 - 1))
        kind = data.draw(st.sampled_from(["chain", "ou", "dense"]))
        kernel, lam = GAUSS, data.draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        if kind == "chain":
            model = random_model(np.random.default_rng(seed), data.draw(st.integers(3, 6)))
            sample = sample_pairs(model, data.draw(st.integers(30, 120)), seed)
            r = data.draw(st.integers(1, len(set(sample.X))))
        elif kind == "ou":
            sample = ou_sample_pairs(1.0, 0.5, data.draw(st.integers(5, 60)), seed)
            r = data.draw(st.integers(1, 3))
        else:
            n = data.draw(st.integers(2, 12))
            sample = ou_sample_pairs(1.0, 0.5, n, seed)
            kernel = GaussianKernel(bandwidth=data.draw(st.sampled_from([0.05, 0.2])))
            r = n - data.draw(st.integers(0, 1))
        try:
            res = edmd_eigen(sample, kernel, lam, r)
        except np.linalg.LinAlgError as exc:
            # an eigenfunction in G_X's round-off null space is refused ("reduce r")
            assume("zero RKHS norm" not in str(exc))
            raise
        w, V = res.eigenvalues, res.coeffs
        for j in range(r):
            partners = [
                i for i in range(r)
                if w[i] == np.conj(w[j]) and np.array_equal(V[:, i], np.conj(V[:, j]))
            ]
            if w[j].imag < 0:
                assert partners
            elif w[j].imag > 0 and not partners:
                # the upper member of a pair cut at r
                assert j == r - 1
        A = np.abs(V)
        lead = V[np.argmax(A > 1e-12 * A.max(axis=0), axis=0), np.arange(r)]
        assert np.all(lead.real >= 0)
        # 1e-10 plus the round-off floor of edmd_eigen's own null test: coefficients
        # that are large along G_X's near-null directions cost v^H G_X v digits
        norm_sq = np.real(np.einsum("ij,ik,kj->j", V.conj(), gram(kernel, sample.X), V))
        assert np.all(np.abs(norm_sq - 1.0) <= 1e-10 + 1e-14 * np.sum(A**2, axis=0))

    def test_arnoldi_matches_dense(self):
        # r = 4 runs ARPACK and r = n - 1 = 9 the dense solver on the same sample
        rng = np.random.default_rng(45)
        sample = random_sample(rng, 10)
        arnoldi = edmd_eigen(sample, GAUSS, 1e-2, 4)
        dense = edmd_eigen(sample, GAUSS, 1e-2, 9)
        assert np.max(np.abs(dense.eigenvalues[:4] - arnoldi.eigenvalues)) <= 1e-8
        for j in range(4):
            # eigenvectors may differ by sign/phase; compare as RKHS elements
            inner = np.abs(
                np.conj(dense.coeffs[:, j]) @ gram(GAUSS, sample.X) @ arnoldi.coeffs[:, j]
            )
            assert inner == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_arnoldi_eigenvalues_match_the_reference(self, data):
        # OU pairs, OU pairs with repeated X, and cyclic shifts on 3 to 5 states
        n = data.draw(st.integers(3, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        kind = data.draw(st.sampled_from(["ou", "repeated", "cyclic"]))
        if kind == "cyclic":
            m = data.draw(st.integers(3, 5))
            shift = np.roll(np.eye(m), 1, axis=1)
            model = FiniteMarkovModel(chain_states(m), np.full(m, 1 / m), shift)
            sample = sample_pairs(model, n, seed)
        else:
            sample = ou_sample_pairs(1.0, 0.5, n, seed)
            if kind == "repeated":
                idx = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
                sample = PairedSample(X=tuple(sample.X[i] for i in idx), Y=sample.Y)
        lam = data.draw(st.sampled_from([1e-4, 1e-3, 1e-2]))
        want, bound = reference_eigenvalues(reference_matrix(sample, GAUSS, lam))
        # eigenvalues at round-off level have eigenfunctions in G_X's null space,
        # which edmd_eigen refuses ("reduce r")
        r = data.draw(st.integers(1, min(n - 2, int(np.sum(np.abs(want) > 1e-6)))))
        # skip a cut at r between two moduli within 1e-6 that are not a conjugate
        # pair, and eigenvalues so ill-conditioned that no solver, the reference's
        # included, is sure to reach 1e-8
        cut, rest = want[r - 1], want[r]
        assume(abs(abs(cut) - abs(rest)) > 1e-6 or abs(cut - np.conj(rest)) <= 1e-8)
        assume(np.max(bound[:r]) <= 1e-8)
        got = edmd_eigen(sample, GAUSS, lam, r).eigenvalues
        assert np.max(np.abs(got - want[:r])) <= 1e-8

    def test_jittered_system_is_shared_by_both_paths_and_residuals(self, monkeypatch):
        # G_X + n*lam*I is numerically singular here: the factorization jitters
        # it, and the Arnoldi path and the residuals use that one factor
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        kernel = GaussianKernel(bandwidth=10.0)
        res = edmd_eigen(sample, kernel, 1e-17, 3)
        resid = eigen_residuals(res)
        assert res.jitter > 0 and resid.shape == (3,)
        assert np.all(np.isfinite(res.eigenvalues))
        assert np.all(np.isfinite(resid)) and np.all(resid >= 0)
        # a jitter of 0.37 forced on a well-conditioned system: both branches
        # return eigenpairs and residuals of the jittered operator
        factor_pd = cmekit.spectral._factor_pd
        monkeypatch.setattr(
            cmekit.spectral, "_factor_pd", lambda A, shift: (factor_pd(A, shift + 0.37)[0], 0.37)
        )
        sample = random_sample(np.random.default_rng(54), 8)
        want = reference_eigenvalues(reference_matrix(sample, GAUSS, 1e-2, jitter=0.37))[0]
        for r in (4, 8):
            res = edmd_eigen(sample, GAUSS, 1e-2, r)
            assert res.jitter == 0.37
            assert np.max(np.abs(res.eigenvalues - want[:r])) <= 1e-10
            want_resid = recomputed_residuals(res, sample, GAUSS, 1e-2, jitter=0.37)
            assert np.max(np.abs(res.residuals - want_resid)) <= 1e-12

    def test_jitter_is_recorded(self):
        # trace(G_X + n*lam*I) / n = 1 + n*lam for a Gaussian kernel; r = 3 of
        # n = 30 runs ARPACK
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        expected = JITTER_SCALE * (1.0 + 30 * 1e-17)
        res = edmd_eigen(sample, GaussianKernel(bandwidth=10.0), 1e-17, 3)
        assert res.jitter == pytest.approx(expected, rel=1e-12)
        # one point twice: G_X is singular, and r = 1 of n = 2 runs the dense
        # solver; the one eigenfunction is the constant, mu = mean_i k(y_i, 0)
        sample = PairedSample(X=(pt(0.0), pt(0.0)), Y=(pt(0.5), pt(-0.5)))
        res = edmd_eigen(sample, GAUSS, 1e-17, 1)
        assert res.jitter == pytest.approx(JITTER_SCALE * (1.0 + 2 * 1e-17), rel=1e-12)
        assert res.eigenvalues[0] == pytest.approx(np.exp(-0.125), rel=1e-9)
        rng = np.random.default_rng(51)
        assert edmd_eigen(random_sample(rng, 40), GAUSS, 1e-2, 3).jitter == 0.0

    @pytest.mark.parametrize(("n", "r"), [(8, 8), (120, 4)], ids=["dense", "arnoldi"])
    def test_one_gram_cross_gram_and_factor_per_fit(self, monkeypatch, n, r):
        # in this order: K_YX's build never runs while scipy's BLAS pool is still busy
        # from the factor
        sample = random_sample(np.random.default_rng(52), n)
        calls = []

        def counting(name):
            inner = getattr(cmekit.spectral, name)

            def wrapper(*args, **kwargs):
                key = name
                if name == "cross_gram":
                    # G_X is cross_gram(X, X); K_YX is cross_gram(Y, X) or its transpose
                    key = "G_X" if args[1] is args[2] is sample.X else "K_YX"
                calls.append(key)
                return inner(*args, **kwargs)

            return wrapper

        for name in ("cross_gram", "_factor_pd"):
            monkeypatch.setattr(cmekit.spectral, name, counting(name))
        res = edmd_eigen(sample, GAUSS, 1e-2, r)
        eigen_residuals(res)
        assert calls == ["G_X", "K_YX", "_factor_pd"]

    def test_one_norm_pass_and_one_residual_apply_per_arnoldi_fit(self, monkeypatch):
        # the RKHS norms of V and of D = M V - V w come from one pass over G_X.  K_YX is
        # applied on scipy's BLAS, which factored G_X, never by a numpy product: one dgemv
        # per Arnoldi step, and once eigs returns, one dgemm, on the (n, 2r) block [Re V, Im V]
        from scipy.sparse import linalg as sparse_linalg

        n, r = 120, 4
        sample = random_sample(np.random.default_rng(52), n)
        norm_passes, products, steps, widths, done = [], [], [], [], []

        class RecordingBlock(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        inner_gram, inner_norm, inner_eigs = (
            cmekit.spectral.cross_gram, cmekit.spectral._rkhs_norm_sq, sparse_linalg.eigs
        )

        def cross_gram(kernel, rows, cols):
            out = inner_gram(kernel, rows, cols)
            return out.view(RecordingBlock) if rows is sample.Y else out

        def recording(name):
            inner = getattr(cmekit.spectral, name)

            def blas(alpha, a, b, **kwargs):
                assert isinstance(a, RecordingBlock) and a.flags.f_contiguous
                (widths if done else steps).append((name, 1 if b.ndim == 1 else b.shape[1]))
                return inner(alpha, a, b, **kwargs)

            return blas

        def rkhs_norm_sq(*args):
            norm_passes.append(True)
            return inner_norm(*args)

        def eigs(*args, **kwargs):
            out = inner_eigs(*args, **kwargs)
            done.append(True)
            return out

        monkeypatch.setattr(cmekit.spectral, "cross_gram", cross_gram)
        for name in ("dgemv", "dgemm"):
            monkeypatch.setattr(cmekit.spectral, name, recording(name))
        monkeypatch.setattr(cmekit.spectral, "_rkhs_norm_sq", rkhs_norm_sq)
        monkeypatch.setattr(sparse_linalg, "eigs", eigs)
        edmd_eigen(sample, GAUSS, 1e-2, r)
        assert len(norm_passes) == 1 and products == []
        assert steps and set(steps) == {("dgemv", 1)}
        assert done and widths == [("dgemm", 2 * r)]

    def test_arnoldi_fit_holds_two_blocks(self):
        # K_YX and the factor of G_X + n*lam*I packed into G_X's buffer; a factor
        # formed in a copy of G_X would be a third block
        sample = ou_sample_pairs(1.0, 0.5, 600, 3)
        block = 600 * 600 * 8
        tracemalloc.start()
        try:
            edmd_eigen(sample, GAUSS, 1e-3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * block

    @pytest.mark.parametrize(("n", "r"), [(8, 8), (120, 4)], ids=["dense", "arnoldi"])
    def test_solves_skip_the_finite_scan_of_the_checked_factor(self, monkeypatch, n, r):
        # G_X and n*lam are finite, so the factor is: no solve scans the n x n factor
        checks = []
        inner = scipy.linalg.solve_triangular

        def recording(*args, **kwargs):
            checks.append(kwargs.get("check_finite", True))
            return inner(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", recording)
        sample = random_sample(np.random.default_rng(52), n)
        edmd_eigen(sample, GAUSS, 1e-2, r)
        assert checks and not any(checks)

    def test_spectral_bound_sanity(self):
        # bounded kernel + acceptance-scale lambda: top modulus <= 1.1
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = FiniteMarkovModel(chain_states(2), stationary_distribution(P), P)
        res = edmd_eigen(sample_pairs(model, 500, 1), GAUSS, 1e-4, 2)
        assert np.abs(res.eigenvalues[0]) <= 1.1
        res_ou = edmd_eigen(ou_sample_pairs(1.0, 0.5, 800, 1), GAUSS, 1e-3, 3)
        assert np.abs(res_ou.eigenvalues[0]) <= 1.1


class TestResiduals:
    def check(self, sample, kernel, lam, r):
        res = edmd_eigen(sample, kernel, lam, r)
        assert res.r == r
        want = recomputed_residuals(res, sample, kernel, lam)
        assert np.max(np.abs(eigen_residuals(res) - want)) <= 1e-12

    def test_single_point(self):
        self.check(PairedSample(X=(pt(0.3),), Y=(pt(0.5),)), GAUSS, 1e-2, 1)

    @pytest.mark.parametrize("drop", [0, 1], ids=["r=n", "r=n-1"])
    def test_dense_fallback_for_large_r(self, drop):
        # r > n - 2 is beyond ARPACK: it takes the dense solver
        sample = random_sample(np.random.default_rng(54), 8)
        self.check(sample, GAUSS, 1e-2, 8 - drop)

    def test_arnoldi(self):
        self.check(random_sample(np.random.default_rng(55), 160), GAUSS, 1e-2, 4)

    def test_arnoldi_complex_pairs(self):
        # y = R x, R a rotation by 0.5 rad: the top of the spectrum is 1 and the
        # pairs near exp(+-0.5i) and exp(+-1i). r = 4 keeps the first pair whole
        # and cuts the second, so M meets [Re V, Im V] with nonzero Im V
        X = np.random.default_rng(61).normal(size=(200, 2))
        c, s = np.cos(0.5), np.sin(0.5)
        sample = PairedSample(X=X, Y=X @ np.array([[c, s], [-s, c]]))
        res = edmd_eigen(sample, GAUSS, 1e-3, 4)
        w = res.eigenvalues
        assert w[1].imag > 0.4 and w[2] == np.conj(w[1])
        assert w[3].imag > 0.4
        want = recomputed_residuals(res, sample, GAUSS, 1e-3)
        assert np.max(np.abs(eigen_residuals(res) - want)) <= 1e-12

    def test_a_result_without_residuals_is_refused(self):
        with pytest.raises(TypeError, match="residuals"):
            EdmdResult(
                eigenvalues=np.ones(1, dtype=complex), coeffs=np.ones((2, 1), dtype=complex),
                X=(pt(0.0), pt(1.0)), kernel=GAUSS, lam=0.1,
            )


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
        assert np.max(eigen_residuals(res)) <= 1e-8

    def test_matrix_route_matches_estimator_route(self):
        # A f evaluated through predict_embedding inner products agrees with
        # the Gram-coordinate matrix action within 1e-8
        rng = np.random.default_rng(49)
        sample = random_sample(rng, 40)
        lam = 1e-2
        res = edmd_eigen(sample, GAUSS, lam, 3)
        est = fit_tikhonov_closed_form(sample, GAUSS, lam)
        M = reference_matrix(sample, GAUSS, lam)
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
            residuals=np.zeros(len(eigenvalues)),
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


def test_scipy_sparse_loads_only_for_an_arnoldi_fit():
    # the fit on repeated states sums its pair counts without scipy.sparse;
    # edmd_eigen's ARPACK route (r <= n - 2) is the package's one user of it
    script = (
        "import sys, numpy as np, cmekit, cmekit.cli\n"
        "from cmekit import GaussianKernel, Tikhonov, edmd_eigen, fit_cme, random_model\n"
        "from cmekit import sample_pairs\n"
        "model = random_model(np.random.default_rng(2), 4)\n"
        "fit_cme(sample_pairs(model, 200, 11), GaussianKernel(1.0), Tikhonov(), 1e-3)\n"
        "print(any(m.startswith('scipy.sparse') for m in sys.modules))\n"
        "edmd_eigen(sample_pairs(model, 30, 12), GaussianKernel(1.0), 1e-3, 2)\n"
        "print(any(m.startswith('scipy.sparse') for m in sys.modules))\n"
    )
    src = str(Path(cmekit.spectral.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]

"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> <name>: PASS`` line (visible under
``pytest -s``) and enforces the same condition with assertions, so the suite
is green iff every criterion holds.  Seeds are fixed and documented inline;
runtime-capped criteria assert their own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from cmekit import (
    Cutoff,
    FiniteMarkovModel,
    GaussianKernel,
    Landweber,
    PairedSample,
    TableKernel,
    Tikhonov,
    chain_states,
    constant_direction_alt,
    constant_shift_estimator,
    estimator_values,
    exact_mmd_integral,
    exact_operator_values,
    exact_risk,
    fit_cme,
    fit_tikhonov_closed_form,
    gram,
    kernel_eval,
    mmd_sq_biased,
    mmd_sq_unbiased,
    op_norm_diff,
    ou_sample_pairs,
    predict_embedding,
    pt,
    random_model,
    sample_pairs,
    stationary_distribution,
    well_specified_estimator,
)
from cmekit.cli import main, read_estimator, write_model_file
from cmekit.models import _oracle_pair
from cmekit.spectral import edmd_eigen

GAUSS = GaussianKernel(bandwidth=1.0)

# the fixed 4-state model for the finite-rank convergence study
CONVERGENCE_P = np.array(
    [
        [0.6, 0.2, 0.1, 0.1],
        [0.2, 0.5, 0.2, 0.1],
        [0.1, 0.2, 0.5, 0.2],
        [0.1, 0.1, 0.2, 0.6],
    ]
)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def bound_sides(est, model):
    """||A_est - A||^2 from H to L2(pi), H the estimator's RKHS, and the exact excess risk."""
    diff, excess = _oracle_pair(est, model, exact_operator_values(model, est.kernel))
    return diff**2, excess


def test_criterion_01_operator_norm_bound():
    # 100 randomized finite models x estimators, all three filters,
    # lambda in [1e-6, 1]: op_norm_diff^2 <= exact_excess_risk + 1e-9
    t0 = time.perf_counter()
    rng = rng_for(123)
    worst = -np.inf
    for _ in range(100):
        model = random_model(rng, int(rng.integers(2, 7)))
        n = int(rng.integers(30, 501))
        lam = float(10.0 ** rng.uniform(-6, 0))
        filt = [
            Tikhonov(),
            Cutoff(),
            Landweber(steps=int(rng.integers(1, 50)), step_size=float(rng.uniform(0.1, 1.9))),
        ][int(rng.integers(0, 3))]
        sample = sample_pairs(model, n, int(rng.integers(0, 2**63)))
        est = fit_cme(sample, GAUSS, filt, lam)
        lhs, rhs = bound_sides(est, model)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    report(1, "operator-norm bound", f"worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_bound_sharpness():
    # the constant-difference witness attains equality within 1e-9
    rng = rng_for(200)
    worst = 0.0
    for _ in range(10):
        model = random_model(rng, int(rng.integers(2, 7)))
        witness = constant_shift_estimator(model, GAUSS, rng.standard_normal(model.m) * 0.5)
        lhs, rhs = bound_sides(witness, model)
        worst = max(worst, abs(lhs - rhs))
        assert lhs == pytest.approx(rhs, abs=1e-9)
    report(2, "bound sharpness", f"worst deviation {worst:.2e}")


def test_criterion_03_mmd_relation():
    rng = rng_for(300)
    # inequality on 100 random two-kernel models
    for _ in range(100):
        model = random_model(rng, int(rng.integers(2, 7)), alt=True)
        vals_p = exact_operator_values(model, GAUSS)
        vals_q = exact_operator_values(
            FiniteMarkovModel(model.states, model.marginal, model.transition_alt), GAUSS
        )
        lhs = op_norm_diff(vals_p, vals_q, model, GAUSS) ** 2
        assert lhs <= exact_mmd_integral(model, GAUSS) + 1e-10

    # equality on the constant-direction family
    for _ in range(20):
        model = constant_direction_alt(random_model(rng, int(rng.integers(2, 7))), rng)
        vals_p = exact_operator_values(model, GAUSS)
        vals_q = exact_operator_values(
            FiniteMarkovModel(model.states, model.marginal, model.transition_alt), GAUSS
        )
        lhs = op_norm_diff(vals_p, vals_q, model, GAUSS) ** 2
        assert lhs == pytest.approx(exact_mmd_integral(model, GAUSS), abs=1e-10)

    # the 2-state swap example, frozen value 2 - 2 exp(-1/2)
    swap = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2), np.eye(2)[[1, 0]])
    vals_p = exact_operator_values(swap, GAUSS)
    vals_q = exact_operator_values(
        FiniteMarkovModel(swap.states, swap.marginal, swap.transition_alt), GAUSS
    )
    lhs = op_norm_diff(vals_p, vals_q, swap, GAUSS) ** 2
    rhs = exact_mmd_integral(swap, GAUSS)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert rhs == pytest.approx(0.7869386806, abs=1e-9)

    # documented 3-state instance with a strict gap (recorded in the log)
    gap_model = FiniteMarkovModel(
        chain_states(3), np.full(3, 1 / 3), np.eye(3), np.eye(3)[[1, 2, 0]]
    )
    vals_p = exact_operator_values(gap_model, GAUSS)
    vals_q = exact_operator_values(
        FiniteMarkovModel(gap_model.states, gap_model.marginal, gap_model.transition_alt), GAUSS
    )
    lhs = op_norm_diff(vals_p, vals_q, gap_model, GAUSS) ** 2
    rhs = exact_mmd_integral(gap_model, GAUSS)
    gap = rhs - lhs
    assert gap >= 1e-3
    report(3, "MMD relation", f"strict gap instance: lhs={lhs:.6f} rhs={rhs:.6f} gap={gap:.6f}")


def indicator(points, support):
    """The len(points) x len(support) matrix with a 1 where points[i] is support[t]."""
    index = {p: t for t, p in enumerate(support)}
    E = np.zeros((len(points), len(support)))
    E[np.arange(len(points)), [index[p] for p in points]] = 1.0
    return E


def test_criterion_04_closed_form_equivalence():
    t0 = time.perf_counter()
    rng, repeat_rng = rng_for(400), rng_for(401)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 4))
        lam = float(10.0 ** rng.uniform(-4, 0))
        X = tuple(pt(*row) for row in rng.normal(size=(n, d)) * 2.0)
        Y = tuple(pt(*row) for row in rng.normal(size=(n, d)) * 2.0)
        # distinct points, then X resampled with repeats (the fit's distinct-support branch)
        for sample in (
            PairedSample(X=X, Y=Y),
            PairedSample(X=tuple(X[i] for i in repeat_rng.integers(0, n, size=n)), Y=Y),
        ):
            # the spectral-filter formula: W = (1/n) U g(s) U^T, g(s) = 1/(s + lam), from
            # G_X / n = U diag(s) U^T
            s, U = np.linalg.eigh(gram(GAUSS, sample.X) / n)
            w_filter = (U * (1.0 / (s + lam))) @ U.T / n
            # the fit is the support estimator over the distinct X and Y: the
            # formula's W summed over their indicators E and F, F^T W E
            est = fit_cme(sample, GAUSS, Tikhonov(), lam)
            w_filter = indicator(sample.Y, est.Y).T @ w_filter @ indicator(sample.X, est.X)
            worst = max(worst, float(np.max(np.abs(w_filter - est.W))))
            assert worst <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    report(4, "closed-form equivalence", f"worst entry diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_well_specified_recovery():
    perm = [1, 2, 3, 0]
    model = FiniteMarkovModel(chain_states(4), np.full(4, 0.25), np.eye(4)[perm])
    exact = well_specified_estimator(model, GAUSS, perm)
    exact_diff = op_norm_diff(
        estimator_values(exact, model), exact_operator_values(model, GAUSS), model, GAUSS
    )
    assert exact_diff <= 1e-10
    estimated = []
    for seed in (11, 12, 13):  # documented seeds
        sample = sample_pairs(model, 4000, seed)
        est = fit_tikhonov_closed_form(sample, GAUSS, 1e-4)
        diff = op_norm_diff(
            estimator_values(est, model), exact_operator_values(model, GAUSS), model, GAUSS
        )
        estimated.append(diff)
        assert diff <= 0.05
    report(
        5,
        "well-specified recovery",
        f"exact {exact_diff:.1e}; estimated max {max(estimated):.4f}",
    )


def test_criterion_06_risk_decomposition():
    rng = rng_for(600)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        model = random_model(rng, m)
        C = rng.standard_normal((m, m))
        f_star = model.transition
        lhs = exact_risk(C, model, GAUSS)
        K_E = gram(GAUSS, model.states)
        delta = C - f_star
        drift = float(model.marginal @ np.einsum("ij,jk,ik->i", delta, K_E, delta))
        rhs = drift + exact_risk(f_star, model, GAUSS)
        worst = max(worst, abs(lhs - rhs))
        assert lhs == pytest.approx(rhs, abs=1e-10)
    report(6, "risk decomposition", f"worst deviation {worst:.2e}")


def test_criterion_07_noncompact_ons_identity():
    from cmekit import generalized_cov_ons_check

    rng = rng_for(700)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        model = random_model(rng, m)
        r = min(m, 4)
        anchor = pt(float(rng.normal()))
        out = generalized_cov_ons_check(model, GAUSS, anchor, r)
        M = float(np.mean(np.diag(out)))
        off_diag = np.max(np.abs(out - np.diag(np.diag(out)))) if r > 1 else 0.0
        diag_spread = np.max(np.abs(np.diag(out) - M))
        worst = max(worst, max(off_diag, diag_spread) / M)
        assert off_diag <= 1e-9 * M
        assert diag_spread <= 1e-9 * M
    report(7, "noncompact covariance identity", f"worst relative deviation {worst:.2e}")


def test_criterion_08a_two_state_chain_spectrum():
    t0 = time.perf_counter()
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    model = FiniteMarkovModel(chain_states(2), stationary_distribution(P), P)
    sample = sample_pairs(model, 2000, 5)  # documented seed
    res = edmd_eigen(sample, GAUSS, 1e-4, 2)
    moduli = np.abs(res.eigenvalues)
    targets = np.array([1.0, 0.7])  # exact eigenvalues of the 2x2 chain
    errors = np.abs(moduli - targets)
    assert np.all(errors <= 0.05)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    report(8, "kernel-EDMD 2-state chain", f"moduli {np.round(moduli, 4)}, {elapsed:.1f}s")


def test_criterion_08b_ou_spectrum():
    # analytic OU spectrum e^{-j theta tau}: the estimate recovers the
    # stationary mode (j=0, eigenvalue 1) as the leading eigenvalue, then the
    # decay modes 0.6065, 0.3679, 0.2231 targeted by the acceptance list
    t0 = time.perf_counter()
    theta, tau = 1.0, 0.5
    sample = ou_sample_pairs(theta, tau, 5000, 7)  # documented seed
    res = edmd_eigen(sample, GAUSS, 1e-3, 4)
    moduli = np.abs(res.eigenvalues)
    targets = np.exp(-np.arange(4) * theta * tau)
    errors = np.abs(moduli - targets)
    assert np.all(errors <= 0.05)
    for expected in (0.6065, 0.3679, 0.2231):
        assert np.min(np.abs(moduli - expected)) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    report(8, "kernel-EDMD OU spectrum", f"moduli {np.round(moduli, 4)}, {elapsed:.1f}s")


def test_criterion_09_finite_rank_convergence():
    pi = stationary_distribution(CONVERGENCE_P)
    model = FiniteMarkovModel(chain_states(4), pi, CONVERGENCE_P)
    exact_vals = exact_operator_values(model, GAUSS)
    tracks = []
    for seed in (1, 2, 3):  # documented seeds
        diffs = []
        for n in (250, 1000, 4000):
            lam = n ** -0.25
            sample = sample_pairs(model, n, seed)
            est = fit_tikhonov_closed_form(sample, GAUSS, lam)
            diffs.append(
                op_norm_diff(estimator_values(est, model), exact_vals, model, GAUSS)
            )
        tracks.append(diffs)
        assert all(b <= 1.1 * a for a, b in zip(diffs, diffs[1:]))
    report(9, "finite-rank convergence", f"tracks {[ [round(d,4) for d in t] for t in tracks ]}")


def test_criterion_10_mmd_estimators():
    # (a) biased estimator equals the brute-force double sums within 1e-12
    rng = rng_for(1000)
    worst = 0.0
    for _ in range(50):
        P = [pt(v) for v in rng.normal(size=int(rng.integers(1, 50))) * 1.5]
        Q = [pt(v) for v in rng.normal(size=int(rng.integers(1, 50))) * 1.5]
        n, m = len(P), len(Q)
        brute = 0.0
        for a in P:
            for b in P:
                brute += kernel_eval(GAUSS, a, b) / (n * n)
        for a in Q:
            for b in Q:
                brute += kernel_eval(GAUSS, a, b) / (m * m)
        for a in P:
            for b in Q:
                brute -= 2.0 * kernel_eval(GAUSS, a, b) / (n * m)
        got = mmd_sq_biased(GAUSS, P, Q)
        worst = max(worst, abs(got - brute))
        assert got == pytest.approx(brute, abs=1e-12)

    # (b) Monte Carlo mean of the unbiased estimator vs the exact population
    # value from the probability vectors and the table Gram
    states = chain_states(3)
    table = TableKernel(
        states, np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]])
    )
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    population = FiniteMarkovModel(states, [1.0, 0.0, 0.0], np.tile(p, (3, 1)), np.tile(q, (3, 1)))
    exact = exact_mmd_integral(population, table)
    rng = rng_for(31)  # documented seed
    values = np.empty(1000)
    for i in range(1000):
        P = [states[j] for j in rng.choice(3, size=50, p=p)]
        Q = [states[j] for j in rng.choice(3, size=50, p=q)]
        values[i] = mmd_sq_unbiased(table, P, Q)
    se = values.std(ddof=1) / math.sqrt(len(values))
    deviation = abs(values.mean() - exact)
    assert deviation <= 3.0 * se
    report(
        10,
        "MMD estimators",
        f"biased worst {worst:.2e}; MC deviation {deviation:.2e} <= 3se {3*se:.2e}",
    )


def test_criterion_11_determinism_and_persistence(tmp_path, capsys):
    # byte-identical outputs for identical config + seed
    model = FiniteMarkovModel(chain_states(2), [2 / 3, 1 / 3], np.array([[0.9, 0.1], [0.2, 0.8]]))
    model_file = tmp_path / "model.txt"
    write_model_file(str(model_file), model)
    est_cfg = tmp_path / "est.cfg"
    est_cfg.write_text(
        f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[filter]
variant = tikhonov
[data]
source = finite-model
model_file = {model_file}
[run]
lambda = 0.001
n = 150
seed = 9
out = {tmp_path / 'est.txt'}
""",
        encoding="utf-8",
    )
    assert main(["estimate", "--config", str(est_cfg)]) == 0
    stdout1 = capsys.readouterr().out
    blob1 = (tmp_path / "est.txt").read_bytes()
    assert main(["estimate", "--config", str(est_cfg)]) == 0
    stdout2 = capsys.readouterr().out
    assert stdout1 == stdout2 and blob1 == (tmp_path / "est.txt").read_bytes()

    edmd_cfg = tmp_path / "edmd.cfg"
    edmd_cfg.write_text(
        f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[data]
source = finite-model
model_file = {model_file}
[run]
lambda = 0.0001
n = 300
r = 2
seed = 9
out = {tmp_path / 'eig.csv'}
""",
        encoding="utf-8",
    )
    assert main(["edmd", "--config", str(edmd_cfg)]) == 0
    csv1 = (tmp_path / "eig.csv").read_bytes()
    assert main(["edmd", "--config", str(edmd_cfg)]) == 0
    assert csv1 == (tmp_path / "eig.csv").read_bytes()
    capsys.readouterr()

    # persistence: save/load reproduces predictions to 1e-15 relative
    loaded = read_estimator(str(tmp_path / "est.txt"))
    sample = sample_pairs(model, 150, 9)
    direct = fit_tikhonov_closed_form(sample, GAUSS, 0.001)
    worst_rel = 0.0
    for x in (pt(0.0), pt(1.0), pt(0.25)):
        a = predict_embedding(loaded, x).weights
        b = predict_embedding(direct, x).weights
        scale = np.maximum(np.abs(b), 1e-300)
        worst_rel = max(worst_rel, float(np.max(np.abs(a - b) / scale)))
    assert worst_rel <= 1e-15
    report(11, "determinism and persistence", f"worst relative prediction diff {worst_rel:.1e}")

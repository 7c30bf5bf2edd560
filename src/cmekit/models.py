"""Exact finite-state oracles and samplers for the operator estimators.

On a finite state set E = {e_1..e_m} with marginal pi and row-stochastic
transition matrix P, everything the estimators approximate has a closed form
in the states' Gram matrix K_E, so the estimator-vs-truth comparisons below
are exact up to round-off:

  * the conditional expectation operator maps f to values P_mat @ (f at states);
  * each operator the oracle compares is one m x m array over the states,
    column j holding the values at the states of the image of phi(e_j), and
    the operator norm ||A - P||_{H -> L2(pi)} is a generalized eigenvalue
    problem in K_E (see :func:`op_norm_diff` for why span phi(states) loses
    nothing); an estimator compares only when its training Y lie on the states;
  * the excess risk, the risk decomposition, and the Markov-kernel MMD
    integral are finite quadratic forms in K_E;
  * :func:`verify` checks the bounds and identities between them on random
    instances, the rows that ``cmekit oracle-verify`` prints.

Samplers (finite chains, Ornstein-Uhlenbeck, double-well Langevin) use the
counter-based Philox generator, so a 64-bit seed fully determines the stream
on every platform.

Ornstein-Uhlenbeck convention: dX = -theta X dt + dW, stationary law
N(0, 1/(2 theta)); a lag-tau pair is y = x e^{-theta tau} + eps with
eps ~ N(0, (1 - e^{-2 theta tau}) / (2 theta)).  The transition operator
eigenvalues e^{-j theta tau} quoted in the tests hold for this convention
only.  Double well: dX = -V'(X) dt + sqrt(2/beta) dW with V(x) = (x^2 - 1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .estimators import (
    CmeEstimator, Cutoff, Landweber, PairedSample, Tikhonov, fit_cme, solve_pd,
)
from .kernels import (
    Kernel, Point, _Rebuilt, _check_int, _check_positive, _frozen_array, _point_tuple,
    _state_index, _support, cross_gram, gram,
)

COND_TOL = 1e-10
STATIONARY_TOL = 1e-10
BURN_IN_STEPS = 10_000
BLOWUP_LIMIT = 1e6


def _state_matrix(values, m: int, name: str) -> np.ndarray:
    """``values`` as a frozen, finite m x m array, checked before any LAPACK call."""
    arr = _frozen_array(values, name)
    if arr.shape != (m, m):
        raise ValueError(f"{name} must be {m}x{m}, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class FiniteMarkovModel(_Rebuilt):
    """Exact marginal and Markov kernel(s) on m enumerated states."""

    states: tuple[Point, ...]
    marginal: np.ndarray
    transition: np.ndarray
    transition_alt: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        states = _point_tuple(self.states, "model states")
        m = len(states)
        if len(_support(states)[0]) != m:
            raise ValueError("states must be pairwise distinct")
        pi = _frozen_array(self.marginal, "marginal").reshape(-1)
        if pi.shape[0] != m:
            raise ValueError(f"marginal must have length {m}, got {pi.shape[0]}")
        if np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("marginal must be nonnegative and sum to 1 within 1e-12")
        P = self._check_stochastic(self.transition, m, "transition")
        P_alt = None
        if self.transition_alt is not None:
            P_alt = self._check_stochastic(self.transition_alt, m, "transition_alt")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "marginal", pi)
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "transition_alt", P_alt)

    @staticmethod
    def _check_stochastic(values, m: int, name: str) -> np.ndarray:
        """``values`` as a frozen m x m array with nonnegative rows summing to 1 within 1e-12."""
        P = _state_matrix(values, m, name)
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError(f"{name} rows must be nonnegative and sum to 1 within 1e-12")
        return P

    @property
    def m(self) -> int:
        return len(self.states)


def chain_states(m: int) -> tuple[Point, ...]:
    """Canonical 1-D embedding of m states: e_j at coordinate j - 1."""
    return tuple(Point((j,)) for j in range(_check_int("m", m)))


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix: pi (P - I) = 0, sum(pi) = 1.

    Solved as the minimum-norm least-squares solution of the stacked system
    [(P - I)^T; 1^T] pi = [0; 1], which also covers periodic and slowly mixing
    chains; a chain with several stationary laws (e.g. the identity) gets
    their minimum-norm mixture.  The residual is checked against 1e-10.
    """
    P = FiniteMarkovModel._check_stochastic(transition, len(transition), "transition")
    m = P.shape[0]
    A = np.vstack([(P - np.eye(m)).T, np.ones((1, m))])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
        raise RuntimeError("stationary solve left a residual above 1e-10")
    return pi


def _state_gram(model: FiniteMarkovModel, kernel: Kernel) -> np.ndarray:
    """K_E over the model states, whose smallest eigenvalue exceeds 1e-10 of the largest.

    The oracle never perturbs K_E: one that fails the test raises
    ``LinAlgError``, on every call.  A K_E that passes it factors without
    jitter.  The model keeps the last K_E that passed, with its kernel (held by
    identity, so an equal kernel builds its own), in one private attribute that
    is not a field: pickle and deepcopy rebuild the model without it.
    """
    kernel_memo, K_E = getattr(model, "_gram_memo", (None, None))
    if kernel_memo is kernel:
        return K_E
    K_E = gram(kernel, model.states)
    eigvals = np.linalg.eigvalsh(K_E)
    if eigvals[0] > COND_TOL * max(eigvals[-1], 0.0):
        # one assignment swaps the kernel and K_E together: thread-safe
        object.__setattr__(model, "_gram_memo", (kernel, K_E))
        return K_E
    raise np.linalg.LinAlgError("singular state Gram K_E")


def exact_operator_values(model: FiniteMarkovModel, kernel: Kernel) -> np.ndarray:
    """The true conditional expectation operator in state coordinates: P_mat K_E.

    For f with coefficients c over the states, (P f)(e_i) = (P_mat K_E c)_i.
    """
    return model.transition @ _state_gram(model, kernel)


def estimator_values(est: CmeEstimator, model: FiniteMarkovModel) -> np.ndarray:
    """The fitted operator in state coordinates: B = K_EX W^T K_YE, K the estimator's kernel.

    Row i evaluates the fitted operator at e_i exactly as
    predict_conditional_expectation does, column j is the image of phi(e_j).
    Training Y off the states raise ``ValueError``: the operator then senses
    f off span phi(states), where the exact map says nothing.
    """
    _state_index(model.states, est.Y, "training Y off the model states")
    K_ex = cross_gram(est.kernel, model.states, est.X)
    return K_ex @ est.W.T @ cross_gram(est.kernel, est.Y, model.states)


def op_norm_diff(
    B_a: np.ndarray, B_b: np.ndarray, model: FiniteMarkovModel, kernel: Kernel
) -> float:
    """Exact operator norm ||A - B||_{H -> L2(pi)} of two operators in state coordinates.

    ``B_a`` and ``B_b`` are finite m x m arrays, as :func:`exact_operator_values`
    and :func:`estimator_values` return.  Restricting the supremum to f in
    span{phi(e)} loses nothing: both operators sense f only through its values
    at the states, so the orthogonal complement of the span is annihilated by
    the difference, while it only increases ||f||_H.  On the span, with
    coefficients c and D = B_a - B_b,

        ||(A - B) f||^2_{L2(pi)} = c^T D^T diag(pi) D c,   ||f||^2_H = c^T K_E c,

    so the norm is the square root of the largest generalized eigenvalue of
    (D^T diag(pi) D, K_E).
    """
    m = model.m
    D = _state_matrix(B_a, m, "B_a") - _state_matrix(B_b, m, "B_b")
    quad = D.T @ (model.marginal[:, None] * D)
    K_E = _state_gram(model, kernel)
    top = scipy.linalg.eigh(quad, K_E, eigvals_only=True, subset_by_index=(m - 1, m - 1))
    return float(np.sqrt(max(top[-1], 0.0)))


def exact_excess_risk(est: CmeEstimator, model: FiniteMarkovModel) -> float:
    """Exact E[ ||F*(X) - A* phi(X)||_H^2 ] under the model's marginal, H the estimator's RKHS.

    F*(e_i) carries the transition row i on the states; the estimator side is
    the predicted embedding at e_i, weights W k_X(e_i) on est.Y.
    """
    kernel = est.kernel
    P = model.transition
    K_E = _state_gram(model, kernel)
    omega = est.W @ cross_gram(kernel, est.X, model.states)  # column i = predicted weights at e_i
    K_sy = cross_gram(kernel, model.states, est.Y)
    t_true = np.einsum("ij,jk,ik->i", P, K_E, P)
    t_cross = np.einsum("ij,jt,ti->i", P, K_sy, omega)
    t_est = np.einsum("ti,ti->i", omega, gram(kernel, est.Y) @ omega)
    return float(model.marginal @ (t_true - 2.0 * t_cross + t_est))


def exact_mmd_integral(model: FiniteMarkovModel, kernel: Kernel) -> float:
    """Integral of the squared MMD between the two Markov kernels' rows.

    sum_i pi_i (p_i - p'_i)^T K_E (p_i - p'_i); requires transition_alt.
    """
    if model.transition_alt is None:
        raise ValueError("model has no second Markov kernel (transition_alt missing)")
    R = model.transition - model.transition_alt
    K_E = _state_gram(model, kernel)
    per_state = np.einsum("ij,jk,ik->i", R, K_E, R)
    return float(model.marginal @ per_state)


def exact_risk(C: np.ndarray, model: FiniteMarkovModel, kernel: Kernel) -> float:
    """Exact embedding regression risk sum_i pi_i sum_j P_ij ||phi(e_j) - F(e_i)||^2
    of the state-supported function F(e_i) = sum_j C[i, j] phi(e_j), C an m x m array."""
    C = _state_matrix(C, model.m, "C")
    K_E = _state_gram(model, kernel)
    P = model.transition
    CK = C @ K_E
    sq_norms = np.einsum("ij,ij->i", CK, C)      # ||F(e_i)||^2 = (C K_E C^T)_ii
    diag = np.diag(K_E)
    per_pair = diag[None, :] - 2.0 * CK + sq_norms[:, None]
    return float(model.marginal @ np.einsum("ij,ij->i", P, per_pair))


def generalized_cov_ons_check(
    model: FiniteMarkovModel, kernel: Kernel, anchor: Point, r: int
) -> np.ndarray:
    """r x r matrix <T F_i, T F_j> for an exact ONS pinned at an anchor feature.

    F_i = k(anchor, .) e_i with e_1..e_r Gram-Schmidt orthonormal in the K_E
    metric; the double-sum algebra gives M * <e_i, e_j> with
    M = sum_ab pi_a pi_b k(anchor, e_a) k(anchor, e_b) k(e_a, e_b),
    so the returned matrix must equal M * I up to Gram-Schmidt round-off.
    """
    m = model.m
    r = _check_int("r", r, 1, m)
    K_E = _state_gram(model, kernel)
    if np.min(K_E) <= 0:
        raise ValueError("kernel must be strictly positive on the states")
    # Gram-Schmidt in the K_E metric, seeded with the feature coordinate basis
    basis: list[np.ndarray] = []
    for i in range(r):
        v = np.eye(m)[i]
        for u in basis:
            v = v - float(u @ K_E @ v) * u
        norm_sq = float(v @ K_E @ v)
        if norm_sq <= 1e-14 * float(np.max(np.diag(K_E))):
            raise np.linalg.LinAlgError("Gram-Schmidt breakdown: dependent features")
        basis.append(v / np.sqrt(norm_sq))
    V = np.column_stack(basis)
    k_anchor = cross_gram(kernel, [anchor], model.states)[0]
    w = model.marginal * k_anchor
    M = float(w @ K_E @ w)
    return M * (V.T @ K_E @ V)


def well_specified_estimator(
    model: FiniteMarkovModel, kernel: Kernel, targets: Sequence[int]
) -> CmeEstimator:
    """Exact operator witness for a deterministic map e_i -> e_{targets[i]}.

    Training points are the states themselves with W = K_E^{-1}, so the
    predicted embedding at e_i is exactly phi(e_{targets[i]}).
    """
    idx = [_check_int("target", t, 0, model.m - 1) for t in targets]
    if len(idx) != model.m:
        raise ValueError("targets must map every state to a state index")
    K_E = _state_gram(model, kernel)
    W = solve_pd(K_E, np.eye(model.m))[0]
    Y = model.states[np.array(idx)]
    return CmeEstimator(kernel=kernel, lam=1.0, filt=Cutoff(), X=model.states, Y=Y, W=W)


def constant_shift_estimator(
    model: FiniteMarkovModel, kernel: Kernel, shift: np.ndarray
) -> CmeEstimator:
    """Witness whose predicted embedding at every state is F*(e_i) + h.

    ``shift`` holds the coefficients of h over the states.  Solving
    W = [K_E^{-1} (P + 1 h^T)]^T makes the prediction error the constant
    embedding h, the configuration for which the operator-norm bound is tight.
    """
    h = _frozen_array(shift, "shift").reshape(-1)
    if h.shape[0] != model.m:
        raise ValueError(f"shift must have length {model.m}")
    K_E = _state_gram(model, kernel)
    target = model.transition + np.outer(np.ones(model.m), h)
    W = solve_pd(K_E, target)[0].T
    return CmeEstimator(
        kernel=kernel, lam=1.0, filt=Cutoff(), X=model.states, Y=model.states, W=W
    )


def random_model(rng: np.random.Generator, m: int, alt: bool = False) -> FiniteMarkovModel:
    """Random strictly positive chain on the canonical 1-D states."""
    m = _check_int("m", m)
    pi = rng.random(m) + 0.05
    pi = pi / pi.sum()
    P = rng.random((m, m)) + 0.05
    P = P / P.sum(axis=1, keepdims=True)
    P_alt = None
    if alt:
        P_alt = rng.random((m, m)) + 0.05
        P_alt = P_alt / P_alt.sum(axis=1, keepdims=True)
    return FiniteMarkovModel(chain_states(m), pi, P, P_alt)


def constant_direction_alt(
    model: FiniteMarkovModel, rng: np.random.Generator
) -> FiniteMarkovModel:
    """Attach an alternative kernel whose row differences share one direction.

    Every row of P' is p_i + c_i * d for a single zero-sum direction d, the
    family on which the operator-norm / MMD-integral identity is an equality.
    """
    m = model.m
    if m < 2:
        raise ValueError("need at least two states to perturb rows")
    d = rng.standard_normal(m)
    d = d - d.mean()
    d = d / np.max(np.abs(d))
    P = model.transition
    # d is centred, so it has both signs, and each row's c keeps P' >= 0
    c_hi = np.min(P[:, d < 0] / -d[d < 0], axis=1)
    c_lo = -np.min(P[:, d > 0] / d[d > 0], axis=1)
    c = rng.uniform(0.9 * c_lo, 0.9 * c_hi)
    # no renormalization: d sums to ~0, so rows stay stochastic to 1e-16
    # and the row differences stay exact scalar multiples of d
    return replace(model, transition_alt=P + c[:, None] * d)


def _oracle_pair(est: CmeEstimator, model: FiniteMarkovModel) -> tuple[float, float]:
    """``||A_est - A||`` from H to L2(pi), H the estimator's RKHS, and the excess risk."""
    exact_vals = exact_operator_values(model, est.kernel)
    diff = op_norm_diff(estimator_values(est, model), exact_vals, model, est.kernel)
    return diff, exact_excess_risk(est, model)


def verify(model: FiniteMarkovModel, kernel: Kernel, seed: int) -> list[tuple]:
    """Check the oracle's identities and inequalities on random instances drawn with ``seed``.

    One row per check, ``(name, lhs, rhs, tol, verdict)``; the verdict is PASS
    or FAIL, or INFO for a row that only reports.  The instances come from one
    Philox stream in a fixed order, so a seed fixes every row bit for bit.
    """
    rng = _generator(seed)
    K_E = _state_gram(model, kernel)        # a singular K_E fails before the first fit
    rows: list[tuple] = []

    def leq(name, lhs, rhs, tol):
        rows.append((name, lhs, rhs, tol, "PASS" if lhs <= rhs + tol else "FAIL"))

    def close(name, lhs, rhs, tol):
        rows.append((name, lhs, rhs, tol, "PASS" if abs(lhs - rhs) <= tol else "FAIL"))

    def mmd_relation(pair):
        """||A - A'||^2 and the MMD integral for the two Markov kernels of ``pair``."""
        K_E = _state_gram(pair, kernel)
        diff = op_norm_diff(pair.transition @ K_E, pair.transition_alt @ K_E, pair, kernel)
        return diff**2, exact_mmd_integral(pair, kernel)

    # operator-norm bound on randomized fitted estimators (worst instance shown)
    worst = None
    for _ in range(20):
        n = int(rng.integers(40, 200))
        sample = sample_pairs(model, n, int(rng.integers(0, 2**63)))
        lam = float(10.0 ** rng.uniform(-6, 0))
        filt = [Tikhonov(), Cutoff(), Landweber(steps=int(rng.integers(1, 40)), step_size=0.9)][
            int(rng.integers(0, 3))
        ]
        est = fit_cme(sample, kernel, filt, lam)
        diff, rhs = _oracle_pair(est, model)
        if worst is None or diff**2 - rhs > worst[0] - worst[1]:
            worst = (diff**2, rhs)
    leq("operator-norm-bound", worst[0], worst[1], 1e-9)

    # sharpness: constant-difference witness attains equality
    shift = rng.standard_normal(model.m) * 0.3
    witness = constant_shift_estimator(model, kernel, shift)
    diff, rhs = _oracle_pair(witness, model)
    close("bound-sharpness", diff**2, rhs, 1e-9)

    # MMD relation for a pair of Markov kernels
    pair = model
    if model.transition_alt is None:
        pair = replace(model, transition_alt=random_model(rng, model.m).transition)
    lhs, rhs = mmd_relation(pair)
    leq("mmd-relation-inequality", lhs, rhs, 1e-10)
    if rhs - lhs > 1e-10:
        rows.append(("mmd-relation-strict-gap", lhs, rhs, 1e-10, "INFO"))

    # equality on the constant-direction family
    if model.m >= 2:
        lhs, rhs = mmd_relation(constant_direction_alt(model, rng))
        close("mmd-relation-equality-aligned", lhs, rhs, 1e-10)

    # well-specified deterministic map is recovered exactly
    perm = rng.permutation(model.m)
    exact_est = well_specified_estimator(model, kernel, perm)
    det_model = FiniteMarkovModel(model.states, model.marginal, np.eye(model.m)[perm])
    det_vals = exact_operator_values(det_model, kernel)
    lhs = op_norm_diff(estimator_values(exact_est, det_model), det_vals, det_model, kernel)
    leq("well-specified-recovery", lhs, 0.0, 1e-10)

    # risk decomposition, worst of 20 random embedding-valued functions
    irreducible = exact_risk(model.transition, model, kernel)
    worst_dev = (0.0, 0.0)
    for _ in range(20):
        C = rng.standard_normal((model.m, model.m))
        lhs = exact_risk(C, model, kernel)
        delta = C - model.transition
        rhs = float(model.marginal @ np.einsum("ij,jk,ik->i", delta, K_E, delta)) + irreducible
        if abs(lhs - rhs) > abs(worst_dev[0] - worst_dev[1]):
            worst_dev = (lhs, rhs)
    close("risk-decomposition", worst_dev[0], worst_dev[1], 1e-10)

    # noncompact generalized covariance: <T F_i, T F_j> = M * delta_ij
    r = min(model.m, 3)
    check = generalized_cov_ons_check(model, kernel, model.states[0], r)
    M = float(np.mean(np.diag(check)))
    off = float(np.max(np.abs(check - np.diag(np.diag(check))))) if r > 1 else 0.0
    spread = float(np.max(np.abs(np.diag(check) - M)))
    close("noncompact-ons-identity", max(off, spread), 0.0, 1e-9 * max(M, 1e-300))
    return rows


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_check_int("seed", seed, 0, 2**64 - 1)))


def _inverse_cdf_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=1)
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1)


def sample_pairs(model: FiniteMarkovModel, n: int, seed: int) -> PairedSample:
    """n iid pairs (x, y): x ~ pi, then y ~ p(x, .); deterministic in the seed."""
    n = _check_int("n", n)
    rng = _generator(seed)
    x_idx = _inverse_cdf_rows(model.marginal[None, :], rng.random(n))
    y_idx = _inverse_cdf_rows(model.transition[x_idx], rng.random(n))
    return PairedSample(X=model.states[x_idx], Y=model.states[y_idx])


def ou_sample_pairs(theta: float, tau: float, n: int, seed: int) -> PairedSample:
    """Stationary lag-tau pairs of the OU process dX = -theta X dt + dW.

    tau = 0 is the degenerate call with y = x exactly, and tau = inf the limit
    where x and y are independent.
    """
    _check_positive("theta", theta)
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    n = _check_int("n", n)
    rng = _generator(seed)
    x = rng.standard_normal(n) * np.sqrt(1.0 / (2.0 * theta))
    decay = np.exp(-theta * tau)
    noise_std = np.sqrt((1.0 - np.exp(-2.0 * theta * tau)) / (2.0 * theta))
    y = x * decay + rng.standard_normal(n) * noise_std
    return PairedSample(X=x[:, None], Y=y[:, None])


def double_well_pairs(
    beta: float, dt: float, steps_per_pair: int, n: int, seed: int
) -> PairedSample:
    """Lag pairs (x_t, x_{t+tau}), tau = steps_per_pair * dt, from one long
    Euler-Maruyama path of dX = -V'(X) dt + sqrt(2/beta) dW, V(x) = (x^2-1)^2.

    The path starts at x = 1.0, burns in 10^4 steps, then consecutive pairs
    are read off every steps_per_pair steps.  Stability needs dt small enough
    (dt <= 1e-3 is safe for beta <= 10); |x| > 1e6 aborts with a diagnostic.
    """
    _check_positive("beta", beta)
    _check_positive("dt", dt)
    steps_per_pair, n = _check_int("steps_per_pair", steps_per_pair), _check_int("n", n)
    rng = _generator(seed)
    total = BURN_IN_STEPS + n * steps_per_pair
    noise = rng.standard_normal(total) * np.sqrt(2.0 * dt / beta)
    path = np.empty(total + 1)
    x = 1.0
    path[0] = x
    for t in range(total):
        x = x + dt * (4.0 * x - 4.0 * x**3) + noise[t]
        if abs(x) > BLOWUP_LIMIT:
            raise RuntimeError(
                f"double-well trajectory diverged at step {t} (|x| = {abs(x):.3e}); "
                f"reduce dt (currently {dt})"
            )
        path[t + 1] = x
    starts = BURN_IN_STEPS + steps_per_pair * np.arange(n)
    return PairedSample(X=path[starts, None], Y=path[starts + steps_per_pair, None])

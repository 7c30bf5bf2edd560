"""Exact finite-state oracle identities and the samplers."""

import copy
import math
import pickle
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cmekit import (
    CmeEstimator,
    EdmdResult,
    FiniteMarkovModel,
    GaussianKernel,
    LaplacianKernel,
    Cutoff,
    Landweber,
    Point,
    TableKernel,
    Tikhonov,
    WeightedEmbedding,
    chain_states,
    cross_gram,
    constant_direction_alt,
    constant_shift_estimator,
    double_well_pairs,
    embed_diff,
    embed_inner,
    empirical_risk,
    estimator_values,
    exact_excess_risk,
    exact_mmd_integral,
    exact_operator_values,
    exact_risk,
    fit_cme,
    fit_tikhonov_closed_form,
    generalized_cov_ons_check,
    gram,
    kernel_eval,
    mmd_sq_biased,
    op_norm_diff,
    ou_sample_pairs,
    predict_conditional_expectation,
    predict_embedding,
    pt,
    random_model,
    sample_pairs,
    stationary_distribution,
    well_specified_estimator,
)
from cmekit import cli, models
from cmekit.estimators import PairedSample, _support_solve, filter_value, solve_pd
from cmekit.kernels import _check_int, _point_tuple, coords_matrix
from cmekit.models import verify
from cmekit.spectral import edmd_eigen

GAUSS = GaussianKernel(bandwidth=1.0)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestModelValidation:
    def test_bad_marginal(self):
        with pytest.raises(ValueError, match="marginal"):
            FiniteMarkovModel(chain_states(2), [0.6, 0.6], np.eye(2))

    def test_bad_rows(self):
        with pytest.raises(ValueError, match="rows"):
            FiniteMarkovModel(chain_states(2), [0.5, 0.5], [[0.9, 0.2], [0.2, 0.8]])

    def test_duplicate_states(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteMarkovModel([pt(0.0), pt(0.0)], [0.5, 0.5], np.eye(2))


MIXED = (pt(0.0), pt(0.0, 1.0))
NAN_ROW = [[0.5, 0.5], [np.nan, 0.5]]
TWO_STATES = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))


def _estimator(X, W):
    return CmeEstimator(kernel=GAUSS, lam=1.0, filt=Tikhonov(), X=X, Y=X, W=W)


def _fitted_observable(f):
    """predict_conditional_expectation with observable ``f`` on a five-pair OU fit."""
    est = fit_cme(ou_sample_pairs(1.0, 0.5, 5, 3), GAUSS, Tikhonov(), 0.1)
    return predict_conditional_expectation(est, pt(0.0), np.broadcast_to(f, len(est.Y)))


@pytest.mark.parametrize(
    "build, match",
    [
        pytest.param(lambda: PairedSample(X=MIXED, Y=chain_states(2)), "dimension", id="sample-X"),
        pytest.param(lambda: PairedSample(X=chain_states(2), Y=MIXED), "dimension", id="sample-Y"),
        pytest.param(lambda: _estimator(MIXED, np.eye(2)), "dimension", id="estimator-X"),
        pytest.param(lambda: _estimator(chain_states(2), NAN_ROW), "finite", id="estimator-W"),
        pytest.param(
            lambda: WeightedEmbedding(kernel=GAUSS, support=MIXED, weights=[0.5, 0.5]),
            "dimension",
            id="embedding-support",
        ),
        pytest.param(
            lambda: WeightedEmbedding(kernel=GAUSS, support=chain_states(2), weights=[0.5, np.inf]),
            "finite",
            id="embedding-weights",
        ),
        pytest.param(
            lambda: op_norm_diff(np.eye(2), NAN_ROW, TWO_STATES, GAUSS),
            "B_b must be finite",
            id="values-B",
        ),
        pytest.param(
            lambda: op_norm_diff(np.eye(3), np.eye(3), TWO_STATES, GAUSS),
            r"B_a must be 2x2, got \(3, 3\)",
            id="values-shape",
        ),
        pytest.param(
            lambda: exact_risk(NAN_ROW, TWO_STATES, GAUSS), "C must be finite", id="regression-C"
        ),
        pytest.param(
            lambda: exact_risk(np.eye(3), TWO_STATES, GAUSS),
            r"C must be 2x2, got \(3, 3\)",
            id="regression-shape",
        ),
        pytest.param(
            lambda: FiniteMarkovModel(MIXED, [0.5, 0.5], np.eye(2)), "dimension", id="model-states"
        ),
        pytest.param(
            lambda: FiniteMarkovModel(chain_states(2), [np.nan, 0.5], np.eye(2)),
            "finite",
            id="model-pi",
        ),
        pytest.param(
            lambda: FiniteMarkovModel(chain_states(2), [0.5, 0.5], NAN_ROW),
            "finite",
            id="model-transition",
        ),
        pytest.param(
            lambda: FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2), NAN_ROW),
            "finite",
            id="model-transition-alt",
        ),
        pytest.param(lambda: TableKernel(MIXED, np.eye(2)), "dimension", id="table-states"),
        pytest.param(
            lambda: TableKernel(chain_states(2), [[1.0, np.nan], [np.nan, 1.0]]),
            "finite",
            id="table-values",
        ),
        pytest.param(
            lambda: EdmdResult(np.ones(1), np.ones((2, 1)), MIXED, GAUSS, 1.0, np.zeros(1)),
            "dimension",
            id="edmd-X",
        ),
        pytest.param(
            lambda: EdmdResult(
                np.ones(2), np.ones((5, 1)), chain_states(3), GAUSS, 1.0, np.zeros(2)
            ),
            "shape",
            id="edmd-coeffs-shape",
        ),
        pytest.param(
            lambda: EdmdResult(
                np.ones((2, 1)), np.ones((3, 2)), chain_states(3), GAUSS, 1.0, np.zeros(2)
            ),
            "shape",
            id="edmd-eigenvalues-shape",
        ),
        pytest.param(
            lambda: EdmdResult(
                np.ones(2), np.ones((3, 2)), chain_states(3), GAUSS, 1.0, residuals=np.ones(3)
            ),
            "shape",
            id="edmd-residuals-shape",
        ),
        pytest.param(
            lambda: EdmdResult(
                [1.0, np.nan], np.ones((3, 2)), chain_states(3), GAUSS, 1.0, np.zeros(2)
            ),
            "finite",
            id="edmd-eigenvalues",
        ),
        pytest.param(
            lambda: EdmdResult(
                np.ones(1), [[1.0], [np.inf], [1.0]], chain_states(3), GAUSS, 1.0, np.zeros(1)
            ),
            "finite",
            id="edmd-coeffs",
        ),
        pytest.param(
            lambda: EdmdResult(
                np.ones(1), np.ones((3, 1)), chain_states(3), GAUSS, 1.0, residuals=[np.nan]
            ),
            "finite",
            id="edmd-residuals",
        ),
        pytest.param(
            lambda: stationary_distribution(np.array(NAN_ROW)),
            "transition must be finite",
            id="stationary-distribution",
        ),
        # complex, string and non-finite inputs that a cast to float would take without a word
        pytest.param(
            lambda: CmeEstimator(GAUSS, 1.0, Cutoff(), [pt(0.0)], [pt(0.0)], np.array([[1 + 2j]])),
            "W must be a real array, got dtype complex128",
            id="estimator-complex-w",
        ),
        pytest.param(
            lambda: WeightedEmbedding(GAUSS, [pt(0.0)], np.array([1 + 1j])),
            "embedding weights must be a real array, got dtype complex128",
            id="embedding-complex-weights",
        ),
        pytest.param(
            lambda: TableKernel(chain_states(2), [["1", "0"], ["0", "1"]]),
            "table values must be a real array, got dtype <U1",
            id="table-string-values",
        ),
        pytest.param(
            lambda: solve_pd(np.eye(2), np.array([1 + 1j, 2])),
            "rhs must be a real array, got dtype complex128",
            id="solve-pd-complex-rhs",
        ),
        pytest.param(
            lambda: solve_pd(np.eye(2), np.array([np.nan, 1.0])),
            "array must not contain infs or NaNs",
            id="solve-pd-nan-rhs",
        ),
        pytest.param(
            lambda: solve_pd(np.eye(2), np.asfortranarray([[1.0, np.inf], [0.0, 1.0]])),
            "array must not contain infs or NaNs",
            id="solve-pd-inf-rhs",
        ),
        pytest.param(
            lambda: constant_shift_estimator(
                random_model(rng_for(1), 3), GAUSS, np.array([0.1j, 0, 0])
            ),
            "shift must be a real array, got dtype complex128",
            id="complex-shift",
        ),
        pytest.param(
            lambda: _fitted_observable(1.0 + 1.0j),
            "f_at_Y must be a real array, got dtype complex128",
            id="complex-observable",
        ),
        pytest.param(lambda: _fitted_observable(np.nan), "f_at_Y must be finite", id="nan-observable"),
        pytest.param(
            lambda: pt(np.complex128(1 + 1j)),
            "Point coordinates must be finite real numbers",
            id="complex-coordinate",
        ),
        pytest.param(
            lambda: pt("1e3"), "Point coordinates must be finite real numbers", id="string-coordinate"
        ),
        # a bool is no real number, as a scalar or as an array's dtype
        pytest.param(
            lambda: pt(True), "Point coordinates must be finite real numbers", id="bool-coordinate"
        ),
        pytest.param(
            lambda: TableKernel([pt(0.0), pt(1.0)], np.array([[True, False], [False, True]])),
            "table values must be a real array, got dtype bool",
            id="table-bool-values",
        ),
        pytest.param(
            lambda: predict_conditional_expectation(
                fit_cme(ou_sample_pairs(1.0, 0.5, 20, 3), GAUSS, Tikhonov(), 0.1),
                pt(0.1), np.ones(20, dtype=bool),
            ),
            "f_at_Y must be a real array, got dtype bool",
            id="bool-observable",
        ),
        pytest.param(
            lambda: CmeEstimator(GAUSS, 1.0, Cutoff(), [pt(0.0)], [pt(0.0)], np.array([[True]])),
            "W must be a real array, got dtype bool",
            id="estimator-bool-w",
        ),
        # a fit result's kernel is one of the package's
        pytest.param(
            lambda: EdmdResult(np.ones(1), np.ones((1, 1)), [pt(0.0)], None, -1.0, np.zeros(1)),
            "kernel must be a GaussianKernel, LaplacianKernel or TableKernel, got None",
            id="edmd-no-kernel",
        ),
        pytest.param(
            lambda: CmeEstimator("gaussian", 1.0, Cutoff(), [pt(0.0)], [pt(0.0)], [[1.0]]),
            "kernel must be a GaussianKernel, LaplacianKernel or TableKernel, got 'gaussian'",
            id="estimator-string-kernel",
        ),
        # refusal branches no other test reaches
        pytest.param(
            lambda: PairedSample(X=chain_states(2), Y=chain_states(3)),
            "need equal-length X and Y, got 2 and 3",
            id="sample-lengths",
        ),
        pytest.param(
            lambda: WeightedEmbedding(GAUSS, chain_states(2), [1.0]),
            "2 support points but 1 weights",
            id="embedding-weight-count",
        ),
        pytest.param(
            lambda: embed_diff(
                WeightedEmbedding(GAUSS, [pt(0.0)], [1.0]),
                WeightedEmbedding(GaussianKernel(bandwidth=2.0), [pt(0.0)], [1.0]),
            ),
            "embeddings use different kernels",
            id="embed-diff-kernels",
        ),
        pytest.param(
            lambda: mmd_sq_biased(GAUSS, [pt(0.0)], [pt(0.0, 1.0)]),
            "dimension mismatch: 1 vs 2",
            id="mmd-dimensions",
        ),
        pytest.param(
            lambda: TableKernel(chain_states(2), np.eye(3)),
            r"table values must be 2x2, got \(3, 3\)",
            id="table-shape",
        ),
        pytest.param(
            lambda: FiniteMarkovModel(chain_states(2), [1.0], np.eye(2)),
            "marginal must have length 2, got 1",
            id="model-marginal-length",
        ),
        pytest.param(
            lambda: well_specified_estimator(TWO_STATES, GAUSS, [0]),
            "targets must map every state to a state index",
            id="targets-length",
        ),
        pytest.param(
            lambda: constant_shift_estimator(TWO_STATES, GAUSS, np.zeros(3)),
            "shift must have length 2",
            id="shift-length",
        ),
        pytest.param(
            lambda: constant_direction_alt(
                FiniteMarkovModel(chain_states(1), [1.0], np.eye(1)), rng_for(1)
            ),
            "need at least two states to perturb rows",
            id="one-state-alt",
        ),
    ],
)
def test_value_types_reject_mixed_dimensions_and_non_finite_arrays(build, match):
    # validation raises a plain ValueError before any LAPACK call sees the values
    with pytest.raises(ValueError, match=match) as info:
        build()
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_edmd_result_freezes_copies_not_the_callers_arrays():
    w, V, res = np.ones(1), np.ones((2, 1)), np.zeros(1)
    result = EdmdResult(w, V, chain_states(2), GAUSS, 1.0, residuals=res)
    assert all(arr.flags.writeable for arr in (w, V, res))
    frozen = (result.eigenvalues, result.coeffs, result.residuals)
    assert not any(arr.flags.writeable for arr in frozen)
    assert result.eigenvalues.dtype == result.coeffs.dtype == complex


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
COORD = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def point_lists(draw):
    d = draw(st.integers(1, 3))
    coords = st.tuples(*[COORD] * d)
    return [Point(c) for c in draw(st.lists(coords, min_size=1, max_size=12))]


def checked_point_fields(pts):
    """Every value type built on ``pts``: (name, the point tuple it holds)."""
    n = len(pts)
    distinct = list(dict.fromkeys(pts))
    m = len(distinct)
    sample = PairedSample(X=pts, Y=pts)
    est = CmeEstimator(kernel=GAUSS, lam=1.0, filt=Tikhonov(), X=pts, Y=pts, W=np.eye(n))
    return [
        ("sample X", sample.X),
        ("sample Y", sample.Y),
        ("estimator X", est.X),
        ("estimator Y", est.Y),
        ("embedding", WeightedEmbedding(kernel=GAUSS, support=pts, weights=np.ones(n)).support),
        ("edmd", EdmdResult(np.ones(1), np.ones((n, 1)), pts, GAUSS, 1.0, np.zeros(1)).X),
        ("model", FiniteMarkovModel(distinct, np.full(m, 1.0 / m), np.eye(m)).states),
        ("table kernel", TableKernel(distinct, np.eye(m)).states),
    ]


class TestCheckedPointTuples:
    @given(point_lists())
    def test_carried_coordinates_are_the_stack_bit_for_bit(self, pts):
        for name, field in checked_point_fields(pts):
            expected = np.array([p.coords for p in field])
            carried = coords_matrix(field)
            assert carried.dtype == np.float64 and carried.shape == expected.shape, name
            assert carried.tobytes() == expected.tobytes(), name
            assert carried.flags.c_contiguous and not carried.flags.writeable, name
            assert _point_tuple(field, name) is field, name

    @pytest.mark.parametrize(
        "copier",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_carry_a_read_only_rebuilt_array(self, copier):
        model = random_model(np.random.default_rng(0), 3)
        sample = sample_pairs(model, 20, seed=1)
        est = fit_tikhonov_closed_form(sample, GAUSS, 0.1)
        for value, names in ((sample, "XY"), (est, "XY"), (model, ["states"])):
            twin = copier(value)
            for name in names:
                field = getattr(twin, name)
                assert field == getattr(value, name)
                carried = coords_matrix(field)
                assert not carried.flags.writeable
                assert np.array_equal(carried, np.array([p.coords for p in field]))
                assert _point_tuple(field, name) is field


def _small_fit():
    model = random_model(np.random.default_rng(0), 3)
    return fit_cme(sample_pairs(model, 20, seed=1), GAUSS, Tikhonov(), 0.1)


@pytest.mark.parametrize(
    "copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
@pytest.mark.parametrize(
    "build, names",
    [
        pytest.param(_small_fit, ["W"], id="estimator"),
        pytest.param(
            lambda: random_model(np.random.default_rng(0), 3, alt=True),
            ["marginal", "transition", "transition_alt"],
            id="model",
        ),
        pytest.param(
            lambda: EdmdResult(np.ones(1), np.ones((3, 1)), chain_states(3), GAUSS, 1.0, [0.0]),
            ["eigenvalues", "coeffs", "residuals"],
            id="edmd",
        ),
        pytest.param(
            lambda: WeightedEmbedding(kernel=GAUSS, support=chain_states(3), weights=np.ones(3)),
            ["weights"],
            id="embedding",
        ),
        pytest.param(
            lambda: TableKernel(chain_states(3), np.eye(3)), ["_values_array"], id="table-kernel"
        ),
    ],
)
def test_copies_rebuild_read_only_arrays(build, names, copier):
    # frozen dataclasses restore __dict__ and skip __post_init__ unless rebuilt
    value = build()
    twin = copier(value)
    assert type(twin) is type(value)
    for name in names:
        arr = getattr(twin, name)
        assert not arr.flags.writeable, name
        assert np.array_equal(arr, getattr(value, name)), name


class TestStationaryDistribution:
    def test_identity_preserves_uniform_start(self):
        assert np.allclose(stationary_distribution(np.eye(2)), [0.5, 0.5], atol=1e-15)

    def test_two_state_closed_form(self):
        pi = stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert np.max(np.abs(pi - [2 / 3, 1 / 3])) <= 1e-10
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.max(np.abs(pi @ P - pi)) <= 1e-10

    def test_doubly_stochastic_gives_uniform(self):
        P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        assert np.max(np.abs(stationary_distribution(P) - 1 / 3)) <= 1e-10

    def test_periodic_chain(self):
        P = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - [0.25, 0.5, 0.25])) <= 1e-12

    def test_slowly_mixing_chain(self):
        eps = 1e-6
        P = np.array([[1 - eps, eps], [2 * eps, 1 - 2 * eps]])
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi - [2 / 3, 1 / 3])) <= 1e-10


class TestExactOperatorValues:
    def test_identity_chain_is_inclusion(self):
        model = FiniteMarkovModel(chain_states(3), np.full(3, 1 / 3), np.eye(3))
        vals = exact_operator_values(model, GAUSS)
        K_E = gram(GAUSS, model.states)
        assert np.max(np.abs(vals - K_E)) == 0.0

    def test_single_state(self):
        model = FiniteMarkovModel(chain_states(1), [1.0], [[1.0]])
        vals = exact_operator_values(model, GAUSS)
        assert vals.shape == (1, 1) and vals[0, 0] == 1.0

    def test_permutation_chain_selects_rows(self):
        perm = [2, 0, 1]
        P = np.eye(3)[perm]
        model = FiniteMarkovModel(chain_states(3), np.full(3, 1 / 3), P)
        vals = exact_operator_values(model, GAUSS)
        K_E = gram(GAUSS, model.states)
        assert np.max(np.abs(vals - K_E[perm, :])) == 0.0


class TestIllConditionedStateGram:
    """A K_E with eigenvalue ratio <= 1e-10 is rejected, never jittered."""

    # chain_states(8) at bandwidth 4.65: the ratio is about 9.6e-11, inside the
    # sliver where a jitter of 1e-10 * trace / m would lift it above 1e-10
    KERNEL = GaussianKernel(bandwidth=4.65)

    def test_ratio_lies_in_the_sliver(self):
        K_E = gram(self.KERNEL, chain_states(8))
        eig = np.linalg.eigvalsh(K_E)
        assert (1.0 - np.trace(K_E) / (8 * eig[-1])) * 1e-10 < eig[0] / eig[-1] <= 1e-10

    def test_every_oracle_quantity_raises(self):
        k = self.KERNEL
        model = random_model(np.random.default_rng(0), 8)
        est = fit_tikhonov_closed_form(sample_pairs(model, 50, 1), k, 1e-3)
        calls = [
            lambda: exact_operator_values(model, k),
            lambda: exact_excess_risk(est, model),
            lambda: exact_mmd_integral(replace(model, transition_alt=model.transition[::-1]), k),
            lambda: exact_risk(model.transition, model, k),
            lambda: well_specified_estimator(model, k, list(range(8))),
            lambda: constant_shift_estimator(model, k, np.zeros(8)),
            lambda: generalized_cov_ons_check(model, k, model.states[0], 3),
        ]
        for call in calls:
            with pytest.raises(np.linalg.LinAlgError, match="singular state Gram K_E"):
                call()


class TestStateGramMemo:
    """A model keeps its checked K_E for the last kernel, so the oracle builds it once."""

    @pytest.mark.parametrize("m, alt", [(1, False), (4, False), (4, True)])
    def test_verify_checks_each_models_state_gram_once(self, m, alt):
        # verify builds at most four models: the given one, its MMD pair, the
        # aligned-direction pair and the permutation chain
        model = random_model(np.random.default_rng(2), m, alt=alt)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            verify(model, GAUSS, 11)
        assert spy.call_count <= 5
        assert all(call.args[0].shape == (m, m) for call in spy.call_args_list)

    def test_each_kernel_gets_its_own_state_gram(self):
        model = random_model(np.random.default_rng(3), 4)
        laplace = LaplacianKernel(scale=1.0)
        for kernel in (GAUSS, laplace, GAUSS, GaussianKernel(bandwidth=1.0), laplace):
            K_E = models._state_gram(model, kernel)
            assert np.array_equal(K_E, gram(kernel, model.states)) and not K_E.flags.writeable
        assert models._state_gram(model, laplace) is models._state_gram(model, laplace)

    def test_an_ill_conditioned_state_gram_raises_on_every_call(self):
        model = random_model(np.random.default_rng(0), 8)
        singular = TestIllConditionedStateGram.KERNEL
        for before in (None, None, GAUSS):                  # the last pass keeps a good K_E first
            if before is not None:
                exact_operator_values(model, before)
            with pytest.raises(np.linalg.LinAlgError, match="singular state Gram K_E"):
                exact_operator_values(model, singular)

    @pytest.mark.parametrize(
        "copier",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_drop_the_memo(self, copier):
        model = random_model(np.random.default_rng(4), 3)
        K_E = models._state_gram(model, GAUSS)
        twin = copier(model)
        assert not hasattr(twin, "_gram_memo")
        assert np.array_equal(models._state_gram(twin, GAUSS), K_E)


class TestEstimatorValues:
    def test_zero_coefficients(self):
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
        est = CmeEstimator(
            kernel=GAUSS,
            lam=0.1,
            filt=Tikhonov(),
            X=model.states,
            Y=model.states,
            W=np.zeros((2, 2)),
        )
        vals = estimator_values(est, model)
        assert np.max(np.abs(vals)) == 0.0

    def test_single_training_pair_scalar(self):
        lam = 0.3
        model = FiniteMarkovModel(chain_states(1), [1.0], [[1.0]])
        sample = PairedSample(X=(model.states[0],), Y=(model.states[0],))
        est = fit_tikhonov_closed_form(sample, GAUSS, lam)
        vals = estimator_values(est, model)
        assert vals[0, 0] == pytest.approx(1.0 / (1.0 + lam), abs=1e-14)

    def test_agrees_with_prediction_route(self):
        rng = rng_for(60)
        model = random_model(rng, 4)
        sample = sample_pairs(model, 100, 17)
        est = fit_tikhonov_closed_form(sample, GAUSS, 1e-2)
        vals = estimator_values(est, model)
        assert vals.shape == (4, 4)
        # column j holds the values at the states of the image of k(., e_j)
        for j, e_j in enumerate(model.states):
            f_at_y = np.array([kernel_eval(GAUSS, y, e_j) for y in est.Y])
            for i, state in enumerate(model.states):
                direct = predict_conditional_expectation(est, state, f_at_y)
                assert vals[i, j] == pytest.approx(direct, abs=1e-10)

    def test_invariant_under_a_permutation_of_the_training_pairs(self):
        # columns follow model.states, never the order of the training Y
        rng = rng_for(64)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 6)))
            sample = sample_pairs(model, int(rng.integers(2, 200)), int(rng.integers(0, 2**32)))
            perm = rng.permutation(sample.n)
            permuted = PairedSample(
                X=tuple(sample.X[i] for i in perm), Y=tuple(sample.Y[i] for i in perm)
            )
            lam = float(10.0 ** rng.uniform(-3, -1))
            for filt in (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9)):
                vals = estimator_values(fit_cme(sample, GAUSS, filt, lam), model)
                twin = estimator_values(fit_cme(permuted, GAUSS, filt, lam), model)
                assert np.max(np.abs(twin - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_off_state_training_Y_is_refused(self):
        # the exact map knows P only on phi(states); the old zero-padding of
        # phi(0.6), phi(1.1), phi(2.9) reported 125.0 against an excess risk of 0.178
        model = random_model(np.random.default_rng(3), 3)
        sample = PairedSample(
            X=tuple(pt(v) for v in (0.3, 1.7, 2.4)), Y=tuple(pt(v) for v in (0.6, 1.1, 2.9))
        )
        est = fit_tikhonov_closed_form(sample, GAUSS, 0.05)
        off = r"off the model states: \[\(0\.6,\), \(1\.1,\), \(2\.9,\)\]"
        with pytest.raises(ValueError, match=off):
            estimator_values(est, model)


class TestOpNormDiff:
    def test_identical_maps(self):
        model = FiniteMarkovModel(chain_states(3), np.full(3, 1 / 3), np.eye(3))
        vals = exact_operator_values(model, GAUSS)
        assert op_norm_diff(vals, vals, model, GAUSS) == 0.0

    def test_single_state_norm_of_p(self):
        # against the zero operator, ||P|| = sup |f(e1)| over unit ball = 1
        model = FiniteMarkovModel(chain_states(1), [1.0], [[1.0]])
        vals = exact_operator_values(model, GAUSS)
        zero = CmeEstimator(
            kernel=GAUSS,
            lam=1.0,
            filt=Tikhonov(),
            X=model.states,
            Y=model.states,
            W=np.zeros((1, 1)),
        )
        zero_vals = estimator_values(zero, model)
        assert op_norm_diff(zero_vals, vals, model, GAUSS) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_random_search(self):
        # the generalized eigenvalue is the sup of the Rayleigh quotient
        rng = rng_for(61)
        for _ in range(5):
            model = random_model(rng, 3, alt=True)
            vals_p = exact_operator_values(model, GAUSS)
            vals_q = exact_operator_values(
                FiniteMarkovModel(model.states, model.marginal, model.transition_alt), GAUSS
            )
            norm = op_norm_diff(vals_p, vals_q, model, GAUSS)
            K_E = gram(GAUSS, model.states)
            D = vals_p - vals_q
            C = rng.standard_normal((10_000, 3))
            h_norms = np.einsum("ki,ij,kj->k", C, K_E, C)
            quad = np.einsum("ki,ji,jl,kl->k", C, D, D * model.marginal[:, None], C)
            best = np.sqrt(np.max(quad / h_norms))
            assert norm >= best - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        width=st.floats(0.5, 1.5),
        laplacian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_is_the_sup_of_the_rayleigh_quotient(self, m, width, laplacian, seed):
        # a route that shares no formula with op_norm_diff: random coefficient vectors
        # never beat the norm, and the top eigenvector of the Cholesky-whitened
        # quotient matrix attains it
        rng = np.random.default_rng(seed)
        kernel = LaplacianKernel(width) if laplacian else GaussianKernel(width)
        model = random_model(rng, m)
        vals_a = exact_operator_values(model, kernel)
        vals_b = rng.standard_normal((m, m))
        norm_sq = op_norm_diff(vals_a, vals_b, model, kernel) ** 2
        D = vals_a - vals_b
        K_E = gram(kernel, model.states)

        def quotient(c):
            return float(model.marginal @ (D @ c) ** 2 / (c @ K_E @ c))

        for c in rng.standard_normal((500, m)):
            assert quotient(c) <= norm_sq * (1.0 + 1e-12)
        L = np.linalg.cholesky(K_E)
        whitened = scipy.linalg.solve_triangular(L, D.T * np.sqrt(model.marginal), lower=True)
        u = np.linalg.eigh(whitened @ whitened.T)[1][:, -1]
        top = scipy.linalg.solve_triangular(L.T, u, lower=False)
        assert quotient(top) == pytest.approx(norm_sq, rel=1e-9)

    def test_different_state_counts_are_refused(self):
        model = random_model(rng_for(63), 2)
        vals = exact_operator_values(model, GAUSS)
        with pytest.raises(ValueError, match=r"B_b must be 2x2, got \(1, 2\)"):
            op_norm_diff(vals, vals[:1], model, GAUSS)


def excess_risk_by_embeddings(est, model, kernel):
    """exact_excess_risk by a route that shares no formula with it: the RKHS
    distance between F*(e_i) and the predicted embedding at e_i, per state.

    Also returns the size of the three terms that the risk cancels, the scale
    on which the two routes can agree.
    """
    risk = scale = 0.0
    for i, state in enumerate(model.states):
        truth = WeightedEmbedding(kernel, model.states, model.transition[i])
        pred = predict_embedding(est, state)
        diff = embed_diff(truth, pred)
        risk += model.marginal[i] * embed_inner(diff, diff)
        terms = (
            embed_inner(truth, truth) + 2.0 * abs(embed_inner(truth, pred)) + embed_inner(pred, pred)
        )
        scale += model.marginal[i] * terms
    return risk, scale


class TestExcessRiskAndBound:
    def test_matches_the_per_state_embeddings_route(self):
        rng = rng_for(61)
        for _ in range(30):
            model = random_model(rng, int(rng.integers(1, 6)))
            sample = sample_pairs(model, int(rng.integers(1, 300)), int(rng.integers(0, 2**32)))
            lam = float(10.0 ** rng.uniform(-5, 0))
            filters = (Tikhonov(), Cutoff(), Landweber(steps=20, step_size=0.9))
            for est in (
                *(fit_cme(sample, GAUSS, filt, lam) for filt in filters),
                # a hand-built W on repeated Y, without any fit structure
                CmeEstimator(
                    kernel=GAUSS, lam=lam, filt=Tikhonov(), X=sample.X, Y=sample.Y,
                    W=rng.standard_normal((sample.n, sample.n)),
                ),
            ):
                expected, scale = excess_risk_by_embeddings(est, model, GAUSS)
                assert abs(exact_excess_risk(est, model) - expected) <= 1e-12 * scale

    def test_well_specified_is_zero(self):
        rng = rng_for(62)
        model = random_model(rng, 4)
        perm = [1, 3, 0, 2]
        det = FiniteMarkovModel(model.states, model.marginal, np.eye(4)[perm])
        est = well_specified_estimator(det, GAUSS, perm)
        assert exact_excess_risk(est, det) <= 1e-10
        assert (
            op_norm_diff(
                estimator_values(est, det), exact_operator_values(det, GAUSS), det, GAUSS
            )
            <= 1e-10
        )

    def test_zero_estimator_excess(self):
        rng = rng_for(63)
        model = random_model(rng, 3)
        est = CmeEstimator(
            kernel=GAUSS,
            lam=1.0,
            filt=Tikhonov(),
            X=model.states,
            Y=model.states,
            W=np.zeros((3, 3)),
        )
        K_E = gram(GAUSS, model.states)
        expected = float(
            model.marginal @ np.einsum("ij,jk,ik->i", model.transition, K_E, model.transition)
        )
        assert exact_excess_risk(est, model) == pytest.approx(expected, abs=1e-12)

    def test_bound_on_random_configurations(self):
        rng = rng_for(64)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 6)))
            sample = sample_pairs(model, int(rng.integers(20, 120)), int(rng.integers(0, 2**32)))
            est = fit_cme(sample, GAUSS, Tikhonov(), float(10.0 ** rng.uniform(-5, 0)))
            lhs = (
                op_norm_diff(
                    estimator_values(est, model),
                    exact_operator_values(model, GAUSS),
                    model,
                    GAUSS,
                )
                ** 2
            )
            assert lhs <= exact_excess_risk(est, model) + 1e-9

    def test_sharpness_witness(self):
        rng = rng_for(65)
        model = random_model(rng, 4)
        witness = constant_shift_estimator(model, GAUSS, rng.standard_normal(4) * 0.4)
        lhs = (
            op_norm_diff(
                estimator_values(witness, model),
                exact_operator_values(model, GAUSS),
                model,
                GAUSS,
            )
            ** 2
        )
        rhs = exact_excess_risk(witness, model)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_excess_risk_is_the_held_out_risk_gap(self):
        # E||phi(Y) - F(X)||^2 - E||phi(Y) - F*(X)||^2 = E||F(X) - F*(X)||^2: the gap
        # of held-out risks, in 20 batches of 10 000 pairs, brackets the exact value
        rng = rng_for(67)
        for _ in range(4):
            model = random_model(rng, int(rng.integers(3, 7)))
            sample = sample_pairs(model, 200, int(rng.integers(0, 2**32)))
            est = fit_cme(sample, GAUSS, Tikhonov(), 1e-2)
            f_star = constant_shift_estimator(model, GAUSS, np.zeros(model.m))
            gaps = []
            for _ in range(20):
                held = sample_pairs(model, 10_000, int(rng.integers(0, 2**32)))
                gaps.append(empirical_risk(est, held) - empirical_risk(f_star, held))
            excess = exact_excess_risk(est, model)
            se = np.std(gaps, ddof=1) / np.sqrt(len(gaps))
            assert abs(np.mean(gaps) - excess) <= 4.0 * se
            assert 8.0 * se < excess      # the band is narrower than what it checks

class TestMmdIntegral:
    def test_equal_kernels(self):
        rng = rng_for(66)
        model = random_model(rng, 3)
        same = replace(model, transition_alt=model.transition)
        assert exact_mmd_integral(same, GAUSS) == 0.0

    def test_two_state_swap(self):
        model = FiniteMarkovModel(
            chain_states(2), [0.5, 0.5], np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        val = exact_mmd_integral(model, GAUSS)
        assert val == pytest.approx(0.7869386806, abs=1e-9)
        assert val == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-14)

    def test_scales_with_kernel(self):
        states = chain_states(3)
        base = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.4], [0.1, 0.4, 1.0]])
        rng = rng_for(67)
        model = random_model(rng, 3, alt=True)
        v1 = exact_mmd_integral(model, TableKernel(states, base))
        v3 = exact_mmd_integral(model, TableKernel(states, 3.0 * base))
        assert v3 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_missing_alt(self):
        rng = rng_for(68)
        with pytest.raises(ValueError, match="transition_alt"):
            exact_mmd_integral(random_model(rng, 2), GAUSS)

    def test_aligned_rows_attain_equality(self):
        rng = rng_for(69)
        for _ in range(10):
            model = constant_direction_alt(random_model(rng, int(rng.integers(2, 6))), rng)
            vals_p = exact_operator_values(model, GAUSS)
            vals_q = exact_operator_values(
                FiniteMarkovModel(model.states, model.marginal, model.transition_alt), GAUSS
            )
            lhs = op_norm_diff(vals_p, vals_q, model, GAUSS) ** 2
            rhs = exact_mmd_integral(model, GAUSS)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_aligned_rows_take_m_normals_then_m_uniforms(self, m):
        # verify draws every later instance from the same Philox stream
        model = random_model(rng_for(70), m)
        rng, twin = models._generator(m), models._generator(m)
        P_alt = constant_direction_alt(model, rng).transition_alt
        d = twin.standard_normal(m)
        d = d - d.mean()
        d = d / np.max(np.abs(d))
        for i, p in enumerate(model.transition):    # one scalar draw per row
            c_hi = np.min(p[d < 0] / -d[d < 0])
            c_lo = -np.min(p[d > 0] / d[d > 0])
            assert np.array_equal(P_alt[i], p + twin.uniform(0.9 * c_lo, 0.9 * c_hi) * d)
        assert rng.random() == twin.random()

    def test_per_state_embedding_differences(self):
        # a route that shares no formula with the closed form: the pi-weighted sum of
        # the squared RKHS norms of the two next-state embeddings' differences
        rng = rng_for(73)
        for m in range(2, 7):
            for kernel in (GAUSS, LaplacianKernel(0.8)):
                model = random_model(rng, m, alt=True)
                total = 0.0
                for i in range(m):
                    diff = embed_diff(
                        WeightedEmbedding(kernel, model.states, model.transition[i]),
                        WeightedEmbedding(kernel, model.states, model.transition_alt[i]),
                    )
                    total += model.marginal[i] * embed_inner(diff, diff)
                assert exact_mmd_integral(model, kernel) == pytest.approx(total, rel=1e-12)


class TestExactRisk:
    def test_brute_force_double_sum(self):
        # sum_i pi_i sum_j P_ij ||phi(e_j) - F(e_i)||^2, one kernel evaluation at a time
        rng = rng_for(72)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            model = random_model(rng, m)
            C = rng.standard_normal((m, m))
            e, k = model.states, lambda a, b: kernel_eval(GAUSS, a, b)
            pairs = [(t, u) for t in range(m) for u in range(m)]
            total = scale = 0.0
            for i in range(m):
                norm_sq = sum(C[i, t] * C[i, u] * k(e[t], e[u]) for t, u in pairs)
                for j in range(m):
                    cross = sum(C[i, t] * k(e[t], e[j]) for t in range(m))
                    weight = model.marginal[i] * model.transition[i, j]
                    total += weight * (k(e[j], e[j]) - 2.0 * cross + norm_sq)
                    scale += weight * (k(e[j], e[j]) + 2.0 * abs(cross) + norm_sq)
            assert abs(exact_risk(C, model, GAUSS) - total) <= 1e-12 * scale

    def test_perfect_deterministic_prediction(self):
        perm = [1, 2, 0]
        model = FiniteMarkovModel(chain_states(3), np.full(3, 1 / 3), np.eye(3)[perm])
        assert exact_risk(np.eye(3)[perm], model, GAUSS) <= 1e-14

    def test_zero_function(self):
        rng = rng_for(70)
        model = random_model(rng, 4)
        assert exact_risk(np.zeros((4, 4)), model, GAUSS) == pytest.approx(1.0, abs=1e-12)

    def test_decomposition_identity(self):
        # risk(F) = sum_i pi_i ||F(e_i) - F*(e_i)||^2 + risk(F*), both sides
        # evaluated through independent code paths
        rng = rng_for(71)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            model = random_model(rng, m)
            C = rng.standard_normal((m, m))
            f_star = model.transition
            lhs = exact_risk(C, model, GAUSS)
            drift = 0.0
            for i in range(m):
                diff = embed_diff(
                    WeightedEmbedding(kernel=GAUSS, support=model.states, weights=C[i]),
                    WeightedEmbedding(kernel=GAUSS, support=model.states, weights=f_star[i]),
                )
                drift += model.marginal[i] * embed_inner(diff, diff)
            rhs = drift + exact_risk(f_star, model, GAUSS)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGeneralizedCovariance:
    def _double_sum(self, model, kernel, anchor):
        total = 0.0
        for a, ea in enumerate(model.states):
            for b, eb in enumerate(model.states):
                total += (
                    model.marginal[a]
                    * model.marginal[b]
                    * kernel_eval(kernel, anchor, ea)
                    * kernel_eval(kernel, anchor, eb)
                    * kernel_eval(kernel, ea, eb)
                )
        return total

    def test_rank_one(self):
        rng = rng_for(72)
        model = random_model(rng, 3)
        anchor = pt(0.4)
        out = generalized_cov_ons_check(model, GAUSS, anchor, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(self._double_sum(model, GAUSS, anchor), rel=1e-12)

    def test_orthonormal_identity(self):
        rng = rng_for(73)
        for _ in range(5):
            model = random_model(rng, 3)
            anchor = pt(float(rng.normal()))
            out = generalized_cov_ons_check(model, GAUSS, anchor, 2)
            # each diagonal entry is the rank-one double sum at the same anchor
            M = self._double_sum(model, GAUSS, anchor)
            assert abs(out[0, 1]) <= 1e-9 * M and abs(out[1, 0]) <= 1e-9 * M
            assert np.max(np.abs(out.diagonal() - M)) <= 1e-9 * M


class TestVerify:
    CHECKS = {
        "operator-norm-bound",
        "bound-sharpness",
        "mmd-relation-inequality",
        "well-specified-recovery",
        "risk-decomposition",
        "noncompact-ons-identity",
    }

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        alt=st.booleans(),
        kernel=st.sampled_from([GAUSS, LaplacianKernel(scale=1.0)]),
    )
    def test_random_models_pass_every_check(self, m, seed, alt, kernel):
        model = random_model(np.random.default_rng(seed), m, alt=alt)
        rows = verify(model, kernel, seed)
        verdicts = {name: verdict for name, _, _, _, verdict in rows}
        assert len(verdicts) == len(rows)
        assert "FAIL" not in verdicts.values()
        info = {name for name, verdict in verdicts.items() if verdict == "INFO"}
        assert info <= {"mmd-relation-strict-gap"}
        aligned = {"mmd-relation-equality-aligned"} if m >= 2 else set()
        assert set(verdicts) - info == self.CHECKS | aligned

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        alt=st.booleans(),
        kernel=st.sampled_from([GAUSS, LaplacianKernel(scale=1.0)]),
    )
    def test_mmd_rows_match_the_route_through_both_models(self, m, seed, alt, kernel):
        # each mmd-relation row, bit for bit, by exact_operator_values of the pair and
        # of a second model that carries the pair's alternative kernel as its own
        model = random_model(np.random.default_rng(seed), m, alt=alt)
        with mock.patch.object(models, "exact_mmd_integral", wraps=exact_mmd_integral) as spy:
            rows = verify(model, kernel, seed)
        pairs = [call.args[0] for call in spy.call_args_list]
        assert len(pairs) == (2 if m >= 2 else 1)
        names = ["mmd-relation-inequality", "mmd-relation-equality-aligned"]
        got = {name: (lhs, rhs) for name, lhs, rhs, _, _ in rows}
        for name, pair in zip(names, pairs):
            alt_model = FiniteMarkovModel(pair.states, pair.marginal, pair.transition_alt)
            vals = [exact_operator_values(chain, kernel) for chain in (pair, alt_model)]
            expected = op_norm_diff(*vals, pair, kernel) ** 2, exact_mmd_integral(pair, kernel)
            assert got[name] == expected
        if "mmd-relation-strict-gap" in got:
            assert got["mmd-relation-strict-gap"] == got["mmd-relation-inequality"]


def _refused_by_cli(read, key, value):
    """``read(cfg)`` on a config of a Gaussian kernel and ``[run] key = value``: a ConfigError
    (exit 2), raised from the rule's ValueError, which is re-raised here."""
    if isinstance(value, bool):
        pytest.skip("a config holds text, and no text reads as a bool")
    kernel = {"variant": ("gaussian", 2), "bandwidth": ("1.0", 3)}
    cfg = cli.Config({"kernel": kernel, "run": {key: (str(value), 5)}}, "run.cfg")
    with pytest.raises(cli.ConfigError, match="^run.cfg: ") as refused:
        read(cfg)
    raise refused.value.__cause__


FOUR_STATES = random_model(rng_for(76), 4)
OU_TEN = ou_sample_pairs(1.0, 0.5, 10, 3)
NOT_INTEGERS = (2.5, 3.0, True, "3")
# every site of the integer rule (kernels._check_int): (id, name, bounds, call, integers out of
# bounds).  The sites that take Python values refuse NOT_INTEGERS too; the CLI reads integers
# from text, so only integers out of bounds reach the rule there.
INTEGER_SITES = [
    ("chain_states", "m", ">= 1", chain_states, (0, -1)),
    ("random_model", "m", ">= 1", lambda v: random_model(rng_for(1), v), (0, -1)),
    ("sample_pairs", "n", ">= 1", lambda v: sample_pairs(FOUR_STATES, v, 3), (0, -1)),
    ("ou_sample_pairs", "n", ">= 1", lambda v: ou_sample_pairs(1.0, 0.5, v, 3), (0, -1)),
    ("double_well_pairs", "n", ">= 1", lambda v: double_well_pairs(3.0, 1e-3, 5, v, 3), (0, -1)),
    ("steps_per_pair", "steps_per_pair", ">= 1",
     lambda v: double_well_pairs(3.0, 1e-3, v, 10, 3), (0, -1)),
    ("seed", "seed", f"in [0, {2**64 - 1}]",
     lambda v: ou_sample_pairs(1.0, 0.5, 10, v), (-1, 2**64)),
    ("targets", "target", "in [0, 3]",
     lambda v: well_specified_estimator(FOUR_STATES, GAUSS, [v, 0, 1, 2]), (-1, 4)),
    ("generalized_cov_ons_check", "r", "in [1, 4]",
     lambda v: generalized_cov_ons_check(FOUR_STATES, GAUSS, pt(0.0), v), (0, -1, 5)),
    ("Landweber", "steps", ">= 1", lambda v: Landweber(v, 0.5), (0, -1)),
    ("edmd_eigen", "r", "in [1, 10]", lambda v: edmd_eigen(OU_TEN, GAUSS, 0.1, v), (0, -1, 11)),
]
CLI_INTEGER_SITES = [
    ("_run_n", "n", ">= 1", lambda v: _refused_by_cli(cli._run_n, "n", v), (0, -1)),
    ("_resolve_r", "r", "in [1, 5]",
     lambda v: _refused_by_cli(lambda cfg: cli._resolve_r(cfg, 5), "r", v), (0, -1, 6)),
    ("n_grid", "entry", ">= 1",
     lambda v: _refused_by_cli(lambda cfg: cli.cmd_convergence(cfg, None, None), "n_grid", v),
     (0, -1)),
]


class TestSamplers:
    def test_identity_chain_pairs(self):
        rng = rng_for(75)
        model = FiniteMarkovModel(chain_states(3), [0.2, 0.3, 0.5], np.eye(3))
        sample = sample_pairs(model, 500, 8)
        assert sample.X == sample.Y

    def test_point_mass_marginal(self):
        model = FiniteMarkovModel(chain_states(2), [1.0, 0.0], np.array([[0.5, 0.5], [0.5, 0.5]]))
        sample = sample_pairs(model, 200, 9)
        assert all(x == model.states[0] for x in sample.X)

    def test_marginal_frequencies(self):
        rng = rng_for(76)
        model = random_model(rng, 3)
        sample = sample_pairs(model, 100_000, 5)
        xs = np.array([p.coords[0] for p in sample.X])
        freq = np.array([np.mean(xs == s.coords[0]) for s in model.states])
        assert np.max(np.abs(freq - model.marginal)) <= 0.01

    def test_deterministic_given_seed(self):
        rng = rng_for(77)
        model = random_model(rng, 3)
        a = sample_pairs(model, 50, 123)
        b = sample_pairs(model, 50, 123)
        assert a.X == b.X and a.Y == b.Y
        c = ou_sample_pairs(1.0, 0.5, 50, 123)
        d = ou_sample_pairs(1.0, 0.5, 50, 123)
        assert c.X == d.X and c.Y == d.Y
        e = double_well_pairs(3.0, 1e-3, 5, 50, 123)
        f = double_well_pairs(3.0, 1e-3, 5, 50, 123)
        assert e.X == f.X and e.Y == f.Y

    def test_ou_long_lag_decorrelates(self):
        sample = ou_sample_pairs(1.0, 50.0, 10_000, 9)
        x = np.array([p.coords[0] for p in sample.X])
        y = np.array([p.coords[0] for p in sample.Y])
        assert abs(np.corrcoef(x, y)[0, 1]) <= 0.05

    def test_ou_zero_lag_degenerate(self):
        sample = ou_sample_pairs(2.0, 0.0, 100, 10)
        assert sample.X == sample.Y

    def test_ou_stationary_variance(self):
        theta = 1.0
        sample = ou_sample_pairs(theta, 0.5, 10_000, 9)
        x = np.array([p.coords[0] for p in sample.X])
        target = 1.0 / (2.0 * theta)
        assert abs(x.var() - target) / target <= 0.05

    def test_double_well_low_noise_stays_in_one_well(self):
        sample = double_well_pairs(1e6, 1e-3, 5, 2000, 4)
        xs = np.array([p.coords[0] for p in sample.X])
        assert np.all(np.sign(xs) == np.sign(xs[0]))

    def test_double_well_drift_has_roots_at_wells(self):
        # V'(x) = 4x^3 - 4x vanishes at the well bottoms x = +-1
        for x in (-1.0, 1.0):
            assert 4.0 * x**3 - 4.0 * x == 0.0

    def test_double_well_bimodal(self):
        sample = double_well_pairs(3.0, 1e-3, 5, 100_000, 21)
        xs = np.array([p.coords[0] for p in sample.X])
        frac_pos = np.mean(xs > 0)
        assert 0.2 <= frac_pos <= 0.8

    def test_double_well_blowup_diagnostic(self):
        with pytest.raises(RuntimeError, match="diverged"):
            double_well_pairs(1e-4, 1.0, 1, 10, 3)

    # every site of the positive-parameter rule (kernels._check_positive)
    @pytest.mark.parametrize(
        "name, draw",
        [
            ("theta", lambda v: ou_sample_pairs(v, 0.5, 10, 3)),
            ("beta", lambda v: double_well_pairs(v, 1e-3, 5, 10, 3)),
            ("dt", lambda v: double_well_pairs(3.0, v, 5, 10, 3)),
            ("bandwidth", lambda v: GaussianKernel(bandwidth=v)),
            ("scale", lambda v: LaplacianKernel(scale=v)),
            ("step_size", lambda v: Landweber(steps=3, step_size=v)),
            ("lambda", lambda v: filter_value(Tikhonov(), v, 1.0)),
            ("lambda", lambda v: CmeEstimator(GAUSS, v, Cutoff(), [pt(0.0)], [pt(0.0)], [[1.0]])),
            ("lambda", lambda v: EdmdResult([1.0], [[1.0]], [pt(0.0)], GAUSS, v, [0.0])),
            ("lambda", lambda v: _support_solve(np.ones((1, 1), order="F"), 1, Tikhonov(), v)),
            ("lambda", lambda v: edmd_eigen(PairedSample(X=[pt(0.0)], Y=[pt(0.0)]), GAUSS, v, 1)),
            ("lambda", lambda v: _refused_by_cli(cli._resolve_lambda, "lambda", v)),
        ],
        ids=[
            "theta", "beta", "dt", "bandwidth", "scale", "step_size", "filter_value",
            "CmeEstimator", "EdmdResult", "_support_solve", "edmd_eigen", "_resolve_lambda",
        ],
    )
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0, True])
    def test_rate_parameters_must_be_positive_and_finite(self, name, draw, value):
        with pytest.raises(ValueError, match=f"{name} must be > 0 and finite, got {value}"):
            draw(value)

    @pytest.mark.parametrize(
        "name, bounds, call, value",
        [
            pytest.param(name, bounds, call, value, id=f"{site}-{value!r}")
            for sites, others in ((INTEGER_SITES, NOT_INTEGERS), (CLI_INTEGER_SITES, ()))
            for site, name, bounds, call, out_of_bounds in sites
            for value in out_of_bounds + others
        ],
    )
    def test_counts_ranks_indices_and_seeds_must_be_integers_in_range(
        self, name, bounds, call, value
    ):
        message = f"{name} must be an integer {bounds}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: CmeEstimator(GAUSS, 1.0, Tikhonov(), [pt(0.0)], [pt(0.0)], [[1.0]], **kw),
            lambda **kw: EdmdResult([1.0], [[1.0]], [pt(0.0)], GAUSS, 1.0, [0.0], **kw),
        ],
        ids=["CmeEstimator", "EdmdResult"],
    )
    @pytest.mark.parametrize("name", ["jitter", "cond_lower_bound"])
    @pytest.mark.parametrize("value", [-5.0, np.nan, np.inf, True, "1e-3", 1j])
    def test_fit_diagnostics_must_be_finite_and_nonnegative(self, build, name, value):
        message = f"{name} must be a finite real >= 0, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(**{name: value})

    def test_fit_diagnostics_are_stored_as_floats(self):
        est = CmeEstimator(GAUSS, 1.0, Tikhonov(), [pt(0.0)], [pt(0.0)], [[1.0]], 0, np.float32(2.5))
        res = EdmdResult([1.0], [[1.0]], [pt(0.0)], GAUSS, 1, [0.0], np.int64(0), 3)
        for fit in (est, res):
            assert type(fit.jitter) is type(fit.cond_lower_bound) is type(fit.lam) is float
        assert (est.jitter, est.cond_lower_bound) == (0.0, 2.5)
        assert (res.lam, res.cond_lower_bound) == (1.0, 3.0)

    def test_a_numpy_integer_is_taken_as_an_int(self):
        assert type(_check_int("n", np.int64(3))) is int
        for *_, call, _ in INTEGER_SITES:
            call(np.int64(3))

    @pytest.mark.parametrize("tau", [np.nan, -1.0])
    def test_ou_lag_must_be_nonnegative(self, tau):
        with pytest.raises(ValueError, match=f"tau must be >= 0, got {tau}"):
            ou_sample_pairs(1.0, tau, 10, 3)

    def test_an_infinite_ou_lag_draws_independent_pairs(self):
        # exp(-inf) = 0: y is a fresh stationary draw, not a function of x
        sample = ou_sample_pairs(1.0, np.inf, 10, 3)
        assert np.all(np.isfinite(sample.Y._coords)) and not np.array_equal(sample.X._coords, sample.Y._coords)

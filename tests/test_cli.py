"""CLI commands: config parsing, file formats, determinism, exit codes."""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmekit import (
    CmeEstimator,
    Cutoff,
    GaussianKernel,
    LaplacianKernel,
    Landweber,
    PairedSample,
    Tikhonov,
    chain_states,
    finite_model,
    fit_cme,
    fit_tikhonov_closed_form,
    ou_sample_pairs,
    predict_embedding,
    pt,
    random_model,
)
from cmekit.cli import (
    ConfigError,
    main,
    parse_config,
    read_estimator,
    read_model_file,
    read_paired_sample,
    read_point_sample,
    write_estimator,
    write_model_file,
    write_paired_sample,
    write_point_sample,
)
from cmekit.kernels import coords_matrix

GAUSS = GaussianKernel(bandwidth=1.0)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path / "c.txt",
                "# comment\n[kernel]\nvariant = gaussian\nbandwidth = 2.5\n\n[run]\nseed = 7\n",
            )
        )
        assert cfg.get("kernel", "variant") == "gaussian"
        assert cfg.get_float("kernel", "bandwidth") == 2.5
        assert cfg.get_int("run", "seed") == 7

    def test_missing_key_names_section(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.txt", "[kernel]\nvariant = gaussian\n"))
        with pytest.raises(ConfigError, match=r"bandwidth.*\[kernel\]"):
            cfg.get_float("kernel", "bandwidth")

    def test_bad_value_reports_line(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.txt", "[run]\nseed = pi\n"))
        with pytest.raises(ConfigError, match=":2:"):
            cfg.get_int("run", "seed")

    def test_pair_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="before any"):
            parse_config(write(tmp_path / "c.txt", "seed = 3\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(write(tmp_path / "c.txt", "[run]\njust some words\n"))


class TestDataFiles:
    def test_model_roundtrip(self, tmp_path):
        model = finite_model(
            chain_states(2),
            [2 / 3, 1 / 3],
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([[0.5, 0.5], [0.5, 0.5]]),
        )
        path = tmp_path / "model.txt"
        write_model_file(str(path), model)
        loaded = read_model_file(str(path))
        assert loaded.states == model.states
        assert np.array_equal(loaded.marginal, model.marginal)
        assert np.array_equal(loaded.transition, model.transition)
        assert np.array_equal(loaded.transition_alt, model.transition_alt)

    def test_paired_sample_roundtrip(self, tmp_path):
        sample = PairedSample(X=(pt(0.25), pt(-1.5)), Y=(pt(3.75), pt(0.125)))
        path = tmp_path / "pairs.txt"
        write_paired_sample(str(path), sample)
        loaded = read_paired_sample(str(path))
        assert loaded.X == sample.X and loaded.Y == sample.Y

    def test_bad_header(self, tmp_path):
        with pytest.raises(ConfigError, match="finite-model"):
            read_model_file(write(tmp_path / "bad.txt", "something else\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_model_file(str(tmp_path / "nope.txt"))


def count_blocks(monkeypatch, module):
    """Record ``(name, *sizes)`` for each ``gram`` / ``cross_gram`` call made through ``module``."""
    built = []
    for name in ("gram", "cross_gram"):
        inner = getattr(module, name)

        def wrapper(kernel, *blocks, name=name, inner=inner):
            built.append((name,) + tuple(len(b) for b in blocks))
            return inner(kernel, *blocks)

        monkeypatch.setattr(module, name, wrapper)
    return built


def estimate_config(tmp_path, pairs_file, lam="1.0", filt="tikhonov"):
    return write(
        tmp_path / "est.cfg",
        f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[filter]
variant = {filt}
[data]
source = paired-sample
sample_file = {pairs_file}
[run]
lambda = {lam}
out = {tmp_path / 'est.txt'}
""",
    )


class TestEstimateCommand:
    def test_scalar_metrics(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(str(pairs), PairedSample(X=(pt(0.0),), Y=(pt(0.5),)))
        code = main(["estimate", "--config", estimate_config(tmp_path, pairs)])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["n"] == 1
        assert metrics["hs_norm_sq"] == pytest.approx(0.25, abs=1e-12)
        assert metrics["regularized_empirical_risk"] == pytest.approx(0.5, abs=1e-12)

    def test_huge_lambda_risk_matches_zero_coefficients(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        sample = PairedSample(
            X=tuple(pt(v) for v in rng.normal(size=20)),
            Y=tuple(pt(v) for v in rng.normal(size=20)),
        )
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(str(pairs), sample)
        code = main(["estimate", "--config", estimate_config(tmp_path, pairs, lam="1e9")])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["empirical_risk"] == pytest.approx(1.0, abs=1e-3)

    def test_persistence_roundtrip_is_exact(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        sample = PairedSample(
            X=tuple(pt(v) for v in rng.normal(size=30)),
            Y=tuple(pt(v) for v in rng.normal(size=30)),
        )
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(str(pairs), sample)
        assert main(["estimate", "--config", estimate_config(tmp_path, pairs, lam="0.01")]) == 0
        capsys.readouterr()
        loaded = read_estimator(str(tmp_path / "est.txt"))
        direct = fit_tikhonov_closed_form(sample, GAUSS, 0.01)
        for x in (pt(0.0), pt(1.0), pt(-2.5)):
            w_loaded = predict_embedding(loaded, x).weights
            w_direct = predict_embedding(direct, x).weights
            assert np.array_equal(w_loaded, w_direct)

    def test_determinism_byte_identical(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(
            str(pairs), PairedSample(X=(pt(0.0), pt(1.0)), Y=(pt(1.0), pt(0.0)))
        )
        cfg = estimate_config(tmp_path, pairs, lam="0.1")
        assert main(["estimate", "--config", cfg]) == 0
        out1 = capsys.readouterr().out
        blob1 = (tmp_path / "est.txt").read_bytes()
        assert main(["estimate", "--config", cfg]) == 0
        out2 = capsys.readouterr().out
        blob2 = (tmp_path / "est.txt").read_bytes()
        assert out1 == out2
        assert blob1 == blob2

    def test_cutoff_and_landweber_filters(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(
            str(pairs), PairedSample(X=(pt(0.0), pt(1.5)), Y=(pt(1.0), pt(-0.5)))
        )
        cfg = write(
            tmp_path / "lw.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[filter]
variant = landweber
steps = 40
step_size = 0.8
[data]
source = paired-sample
sample_file = {pairs}
[run]
lambda = 0.01
out = {tmp_path / 'lw.txt'}
""",
        )
        assert main(["estimate", "--config", cfg]) == 0
        capsys.readouterr()
        loaded = read_estimator(str(tmp_path / "lw.txt"))
        assert loaded.filt.steps == 40 and loaded.filt.step_size == 0.8
        assert main(["estimate", "--config", estimate_config(tmp_path, pairs, filt="cutoff")]) == 0
        capsys.readouterr()

    def test_one_gram_per_training_block(self, tmp_path, capsys, monkeypatch):
        # the fit's G_X, then the report's G_X and G_Y; no n x n cross-Gram
        import cmekit.estimators as est_mod

        built = count_blocks(monkeypatch, est_mod)
        rng = np.random.default_rng(3)
        sample = PairedSample(
            X=tuple(pt(v) for v in rng.normal(size=7)),
            Y=tuple(pt(v) for v in rng.normal(size=7)),
        )
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(str(pairs), sample)
        assert main(["estimate", "--config", estimate_config(tmp_path, pairs, lam="0.01")]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["hs_norm_sq"] > 0
        assert built == [("gram", 7)] * 3

    def test_jitter_is_reported_on_stderr_only(self, tmp_path, capsys):
        # bandwidth 10 and lambda 1e-17 make G_X + n*lam*I numerically singular
        cfg = write(
            tmp_path / "est-ou.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 10
[filter]
variant = tikhonov
[data]
source = ou
theta = 1.0
tau = 0.5
[run]
lambda = 1e-17
n = 30
seed = 7
out = {tmp_path / 'est.bin'}
""",
        )
        assert main(["estimate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "jitter 1.000e-10" in warnings[0]
        assert json.loads(captured.out)["n"] == 30
        sample = ou_sample_pairs(1.0, 0.5, 30, 7)
        direct = fit_tikhonov_closed_form(sample, GaussianKernel(bandwidth=10.0), 1e-17)
        assert np.array_equal(read_estimator(str(tmp_path / "est.bin")).W, direct.W)

    def test_double_well_source(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "dw.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 0.5
[filter]
variant = tikhonov
[data]
source = double-well
beta = 3.0
dt = 0.001
steps_per_pair = 5
[run]
lambda = 0.01
n = 40
seed = 21
out = {tmp_path / 'dw.txt'}
""",
        )
        assert main(["estimate", "--config", cfg]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["n"] == 40 and metrics["empirical_risk"] >= 0


class TestEdmdCommand:
    def _config(self, tmp_path, model_file, n=200, r=2, lam="1e-3", seed=3):
        return write(
            tmp_path / "edmd.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[data]
source = finite-model
model_file = {model_file}
[run]
lambda = {lam}
n = {n}
r = {r}
seed = {seed}
out = {tmp_path / 'eig.csv'}
""",
        )

    def test_identity_dynamics_csv(self, tmp_path):
        model = finite_model(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        assert main(["edmd", "--config", self._config(tmp_path, model_file)]) == 0
        lines = (tmp_path / "eig.csv").read_text().splitlines()
        assert lines[0] == "index,re,im,modulus,residual"
        values = [line.split(",") for line in lines[1:]]
        assert len(values) == 2
        for row in values:
            assert float(row[2]) == 0.0                # real spectrum
            assert 0.0 < float(row[1]) < 1.0           # inside (0, 1)
            assert float(row[4]) <= 1e-8               # residual contract

    def test_r_out_of_range_is_validation_error(self, tmp_path, capsys):
        model = finite_model(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        code = main(["edmd", "--config", self._config(tmp_path, model_file, n=5, r=9)])
        assert code == 2
        assert "r out of range" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        model = finite_model(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = self._config(tmp_path, model_file, seed=11)
        assert main(["edmd", "--config", cfg]) == 0
        blob1 = (tmp_path / "eig.csv").read_bytes()
        assert main(["edmd", "--config", cfg]) == 0
        assert blob1 == (tmp_path / "eig.csv").read_bytes()

    def _ou_config(self, tmp_path, bandwidth, lam):
        return write(
            tmp_path / "edmd-ou.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = {bandwidth}
[data]
source = ou
theta = 1.0
tau = 0.5
[run]
lambda = {lam}
n = 30
r = 3
seed = 7
out = {tmp_path / 'eig.csv'}
""",
        )

    def test_jitter_is_reported_on_stderr_only(self, tmp_path, capsys):
        # G_X + n*lam*I is numerically singular: the factorization jitters it
        assert main(["edmd", "--config", self._ou_config(tmp_path, 10.0, "1e-17")]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "jitter 1.000e-10" in warnings[0]
        assert "the residual column has no correct digits" in warnings[0]
        assert captured.out == ""
        lines = (tmp_path / "eig.csv").read_text().splitlines()
        assert lines[0] == "index,re,im,modulus,residual" and len(lines) == 4

    def test_no_warning_without_jitter(self, tmp_path, capsys):
        assert main(["edmd", "--config", self._ou_config(tmp_path, 1.0, "1e-3")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestMmdCommand:
    def _config(self, tmp_path, file_a, file_b):
        return write(
            tmp_path / "mmd.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[data]
sample_file = {file_a}
sample_file_2 = {file_b}
""",
        )

    def test_identical_files_zero(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_point_sample(str(a), [pt(0.0), pt(1.0), pt(2.0)])
        code = main(["mmd", "--config", self._config(tmp_path, a, a)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["biased"] == 0.0

    def test_singletons_report_biased_but_fail_validation(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(0.0)])
        write_point_sample(str(b), [pt(1.0)])
        code = main(["mmd", "--config", self._config(tmp_path, a, b)])
        assert code == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["biased"] == pytest.approx(0.7869386806, abs=1e-9)
        assert report["unbiased"] is None
        # main logs the timing line once the command has returned
        err = captured.err.splitlines()
        assert len(err) == 2 and err[0].startswith("error:") and err[1].startswith("wall_time_ms=")

    def test_one_pass_over_the_blocks(self, tmp_path, capsys, monkeypatch):
        import cmekit.embeddings as emb

        built = count_blocks(monkeypatch, emb)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(0.0), pt(0.5), pt(1.0)])
        write_point_sample(str(b), [pt(1.0), pt(2.0), pt(3.0), pt(4.0)])
        assert main(["mmd", "--config", self._config(tmp_path, a, b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report["biased"], float) and isinstance(report["unbiased"], float)
        assert sorted(built) == [("cross_gram", 3, 4), ("gram", 3), ("gram", 4)]

    def test_both_estimates(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(0.0), pt(0.0)])
        write_point_sample(str(b), [pt(1.0), pt(1.0)])
        code = main(["mmd", "--config", self._config(tmp_path, a, b)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = 2.0 - 2.0 * math.exp(-0.5)
        assert report["biased"] == pytest.approx(expected, abs=1e-12)
        assert report["unbiased"] == pytest.approx(expected, abs=1e-12)
        assert report["n"] == 2 and report["m"] == 2


class TestOracleVerifyCommand:
    def _config(self, tmp_path, model_file, seed=5, bandwidth=1.0):
        return write(
            tmp_path / "ov.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = {bandwidth}
[data]
model_file = {model_file}
[run]
seed = {seed}
""",
        )

    def test_swap_model_all_pass(self, tmp_path, capsys):
        model = finite_model(
            chain_states(2), [0.5, 0.5], np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        code = main(["oracle-verify", "--config", self._config(tmp_path, model_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "mmd-relation-equality-aligned" in out
        assert "well-specified-recovery" in out

    def test_gap_model_reports_info(self, tmp_path, capsys):
        model = finite_model(
            chain_states(3), np.full(3, 1 / 3), np.eye(3), np.eye(3)[[1, 2, 0]]
        )
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        code = main(["oracle-verify", "--config", self._config(tmp_path, model_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mmd-relation-strict-gap" in out
        assert "INFO" in out

    def test_ill_conditioned_state_gram_fails(self, tmp_path, capsys):
        # K_E's eigenvalue ratio is about 9.6e-11: the oracle rejects it unjittered
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), random_model(np.random.default_rng(0), 8))
        cfg = self._config(tmp_path, model_file, bandwidth=4.65)
        assert main(["oracle-verify", "--config", cfg]) == 1
        assert "LinAlgError: singular state Gram K_E" in capsys.readouterr().err

    def test_deterministic_table(self, tmp_path, capsys):
        model = finite_model(chain_states(2), [0.5, 0.5], np.array([[0.8, 0.2], [0.3, 0.7]]))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = self._config(tmp_path, model_file, seed=13)
        assert main(["oracle-verify", "--config", cfg]) == 0
        out1 = capsys.readouterr().out
        assert main(["oracle-verify", "--config", cfg]) == 0
        assert out1 == capsys.readouterr().out


class TestConvergenceCommand:
    def _config(self, tmp_path, model_file, grid="40", schedule="n^-0.25", seed=2):
        return write(
            tmp_path / "conv.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[data]
source = finite-model
model_file = {model_file}
[run]
n_grid = {grid}
lambda_schedule = {schedule}
seed = {seed}
out = {tmp_path / 'conv.csv'}
""",
        )

    def test_single_point_grid(self, tmp_path):
        model = finite_model(chain_states(2), [0.5, 0.5], np.array([[0.7, 0.3], [0.4, 0.6]]))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        assert main(["convergence", "--config", self._config(tmp_path, model_file)]) == 0
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert lines[0] == "n,lambda,op_norm_diff,exact_excess_risk,eig_errors"
        assert len(lines) == 2
        n, lam, diff, excess, eig = lines[1].split(",")
        assert n == "40"
        assert float(lam) == pytest.approx(40 ** -0.25, rel=1e-12)
        assert float(diff) > 0 and float(excess) > 0
        assert eig == ""

    def test_ou_grid_reports_eigenvalue_errors(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "conv_ou.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 1.0
[data]
source = ou
theta = 1.0
tau = 0.5
[run]
n_grid = 300 900
lambda_schedule = 0.5*n^-0.5
r = 2
seed = 7
out = {tmp_path / 'conv.csv'}
""",
        )
        assert main(["convergence", "--config", cfg]) == 0
        lines = (tmp_path / "conv.csv").read_text().splitlines()
        assert len(lines) == 3
        for line, n in zip(lines[1:], (300, 900)):
            cols = line.split(",")
            assert cols[0] == str(n)
            assert cols[2] == "" and cols[3] == ""       # finite-model columns empty
            errors = [float(v) for v in cols[4].split(";")]
            assert len(errors) == 2 and all(e >= 0 for e in errors)
            assert errors[0] <= 0.2                      # near-unit stationary mode
        assert "warning" not in capsys.readouterr().err

    def test_ou_jitter_is_reported_per_n(self, tmp_path, capsys):
        # bandwidth 10 and lambda ~ 1e-17 make G_X + n*lam*I numerically singular
        cfg = write(
            tmp_path / "conv_ou.cfg",
            f"""
[kernel]
variant = gaussian
bandwidth = 10
[data]
source = ou
theta = 1.0
tau = 0.5
[run]
n_grid = 30 60
lambda_schedule = 1e-17*n^-0.5
r = 3
seed = 7
out = {tmp_path / 'conv.csv'}
""",
        )
        assert main(["convergence", "--config", cfg]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert [w.split(":")[1].strip() for w in warnings] == ["n = 30", "n = 60"]
        assert all("jitter" in w and "not positive definite" in w for w in warnings)
        assert captured.out == ""
        assert len((tmp_path / "conv.csv").read_text().splitlines()) == 3

    def test_finite_model_fits_build_no_n_by_n_block(self, tmp_path, monkeypatch):
        # repeated states: the fit and the excess risk work on the 4 distinct
        # states; only n x 4 blocks reach the sample's n points
        import cmekit.estimators as est_mod
        import cmekit.models as md_mod

        built = [count_blocks(monkeypatch, mod) for mod in (est_mod, md_mod)]
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), random_model(np.random.default_rng(5), 4))
        assert main(["convergence", "--config", self._config(tmp_path, model_file, grid="40 90")]) == 0
        blocks = built[0] + built[1]
        assert ("cross_gram", 4, 90) in blocks
        assert [b for b in blocks if b[1:] in ((40,), (40, 40), (90,), (90, 90))] == []

    def test_finite_jitter_is_reported_per_n(self, tmp_path, capsys, monkeypatch):
        # The oracle rejects a state Gram whose eigenvalue ratio is at most
        # 1e-10, and such a Gram keeps the distinct-state system S + n*lam*I
        # positive definite, so no model the oracle accepts makes the fit
        # jitter.  The fit alone therefore sees the eight states under
        # bandwidth 1000, where they are closely spaced: S is numerically
        # singular and lambda ~ 1e-17 cannot rescue it.
        import cmekit.estimators as est_mod

        gram = est_mod.gram
        monkeypatch.setattr(est_mod, "gram", lambda kernel, pts: gram(GaussianKernel(1000.0), pts))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), random_model(np.random.default_rng(4), 8))
        cfg = self._config(tmp_path, model_file, grid="30 60", schedule="1e-17*n^-0.5")
        assert main(["convergence", "--config", cfg]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert [w.split(":")[1].strip() for w in warnings] == ["n = 30", "n = 60"]
        assert all("jitter" in w and "not positive definite" in w for w in warnings)
        assert captured.out == ""
        assert len((tmp_path / "conv.csv").read_text().splitlines()) == 3

    def test_bad_schedule(self, tmp_path, capsys):
        model = finite_model(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = self._config(tmp_path, model_file, schedule="n^-1.5")
        assert main(["convergence", "--config", cfg]) == 2
        assert "lambda_schedule" in capsys.readouterr().err

    def test_non_ascending_grid(self, tmp_path, capsys):
        model = finite_model(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = self._config(tmp_path, model_file, grid="100 50")
        assert main(["convergence", "--config", cfg]) == 2
        assert "ascending" in capsys.readouterr().err


class TestSeedAndOutOverrides:
    def test_seed_override_changes_sample(self, tmp_path):
        model = finite_model(chain_states(2), [0.5, 0.5], np.array([[0.7, 0.3], [0.4, 0.6]]))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = write(
            tmp_path / "e.cfg",
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
lambda = 0.1
n = 50
seed = 1
out = {tmp_path / 'e1.txt'}
""",
        )
        assert main(["estimate", "--config", cfg]) == 0
        assert main(["estimate", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "e2.txt")]) == 0
        assert (tmp_path / "e1.txt").read_bytes() != (tmp_path / "e2.txt").read_bytes()

    def test_unknown_source(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "bad.cfg",
            "[kernel]\nvariant = gaussian\nbandwidth = 1\n[filter]\nvariant = tikhonov\n"
            "[data]\nsource = csv\n[run]\nlambda = 0.1\nn = 5\nout = x.txt\n",
        )
        assert main(["estimate", "--config", cfg]) == 2
        assert "unknown data source" in capsys.readouterr().err


class TestCodec:
    """File formats: byte-stable round trips and parse errors that name the line."""

    @staticmethod
    def _objects():
        states = (pt(0.0, 1.0), pt(1.0, -0.0), pt(2.5, 1 / 3))
        model = finite_model(
            states,
            [0.5, 0.25, 0.25],
            np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.1, 0.2, 0.7]]),
            np.full((3, 3), 1 / 3),
        )
        rng = np.random.default_rng(8)
        sample = PairedSample(
            X=tuple(pt(*row) for row in rng.normal(size=(6, 2))),
            Y=tuple(pt(*row) for row in rng.normal(size=(6, 2)) * 1e-300),
        )
        est = fit_cme(sample, LaplacianKernel(scale=1.5), Landweber(steps=7, step_size=0.5), 0.01)
        return {
            "model": (model, write_model_file, read_model_file),
            "paired-sample": (sample, write_paired_sample, read_paired_sample),
            "point-sample": (list(sample.X), write_point_sample, read_point_sample),
            "estimator": (est, write_estimator, read_estimator),
        }

    @pytest.mark.parametrize("fmt", ["model", "paired-sample", "point-sample", "estimator"])
    def test_write_read_write_is_byte_identical(self, tmp_path, fmt):
        obj, write_fn, read_fn = self._objects()[fmt]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_fn(str(first), obj)
        write_fn(str(second), read_fn(str(first)))
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def _layout_estimator():
        return CmeEstimator(
            kernel=LaplacianKernel(scale=1.5),
            lam=0.1,
            filt=Landweber(steps=7, step_size=0.5),
            X=(pt(0.25, -0.0),),
            Y=(pt(5e-324, 1e300),),
            W=np.array([[1 / 3]]),
        )

    @staticmethod
    def _assert_bit_identical(a, b):
        assert a.kernel == b.kernel and a.filt == b.filt
        assert a.lam.hex() == b.lam.hex()
        for get in (lambda e: coords_matrix(e.X), lambda e: coords_matrix(e.Y), lambda e: e.W):
            assert get(a).shape == get(b).shape
            assert get(a).tobytes() == get(b).tobytes()

    def test_text_layout(self, tmp_path):
        est = self._layout_estimator()
        path = tmp_path / "est.txt"
        write_estimator(str(path), est)
        head = (
            b"cme-estimator v2\nkernel laplacian 1.5\nlambda 0.10000000000000001\n"
            b"filter landweber 7 0.5\n"
        )
        blob = path.read_bytes()
        assert blob.startswith(head)
        payload = io.BytesIO(blob[len(head):])
        for expected in (np.array([[0.25, -0.0]]), np.array([[5e-324, 1e300]]), np.array([[1 / 3]])):
            assert np.lib.format.read_magic(payload) == (1, 0)
            header = np.lib.format.read_array_header_1_0(payload)
            assert header == (expected.shape, False, np.dtype("<f8"))
            assert payload.read(expected.nbytes) == expected.tobytes()
        assert payload.read() == b""

    def test_v1_file_still_reads(self, tmp_path):
        path = tmp_path / "est.txt"
        path.write_bytes(
            b"cme-estimator v1\nkernel laplacian 1.5\nlambda 0.10000000000000001\n"
            b"filter landweber 7 0.5\nx 1 2\n0.25 -0\n"
            b"y 1 2\n4.9406564584124654e-324 1.0000000000000001e+300\n"
            b"w 1 1\n0.33333333333333331\n"
        )
        self._assert_bit_identical(read_estimator(str(path)), self._layout_estimator())

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_v2_roundtrip_is_bit_exact(self, tmp_path, data):
        n = data.draw(st.integers(1, 30))
        special = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-309, 1e308, -1e308])
        doubles = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        X, Y = (
            data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 3))), elements=doubles))
            for _ in "xy"
        )
        positive = st.floats(min_value=5e-324, max_value=1e308)
        est = CmeEstimator(
            kernel=data.draw(
                st.builds(GaussianKernel, positive) | st.builds(LaplacianKernel, positive)
            ),
            lam=data.draw(positive),
            filt=data.draw(
                st.sampled_from([Tikhonov(), Cutoff()])
                | st.builds(Landweber, st.integers(1, 10**6), positive)
            ),
            X=tuple(pt(*row) for row in X.tolist()),
            Y=tuple(pt(*row) for row in Y.tolist()),
            W=data.draw(arrays(np.float64, (n, n), elements=doubles)),
        )
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        write_estimator(str(first), est)
        loaded = read_estimator(str(first))
        self._assert_bit_identical(loaded, est)
        write_estimator(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def _npy(arr, allow_pickle=False):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "case", ["truncated", "w-shape", "int-dtype", "object-dtype", "trailing-bytes"]
    )
    def test_malformed_v2_names_file(self, tmp_path, case):
        good = tmp_path / "good.bin"
        write_estimator(str(good), self._layout_estimator())
        blob = good.read_bytes()
        w_record = self._npy(np.array([[1 / 3]]))
        assert blob.endswith(w_record)
        swap_w = {
            "w-shape": self._npy(np.zeros((2, 2))),
            "int-dtype": self._npy(np.array([[1]])),
            "object-dtype": self._npy(np.array([[1 / 3]], dtype=object), allow_pickle=True),
        }
        if case == "truncated":
            blob = blob[:-3]
        elif case == "trailing-bytes":
            blob += b"\n"
        else:
            blob = blob[: -len(w_record)] + swap_w[case]
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_estimator(str(path))

    @pytest.mark.parametrize(
        "reader, text, line",
        [
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n3\n", 4, id="too-few-values"),
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n3 x\n", 4, id="non-numeric"),
            pytest.param("point", "sample v1\npoints 2.5 2\n1 2\n3 4\n", 2, id="non-integer-dims"),
            pytest.param("point", "sample v1\npoints 3 2\n1 2\n3 4\n", 2, id="missing-rows"),
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n# note\n3 4\n", 4, id="hash"),
            pytest.param("model", "finite-model v1\nstates 1 1\n0\npi 1\n1 2\n", 5, id="vector"),
            pytest.param(
                "estimator",
                "cme-estimator v1\nkernel gaussian -1\nlambda 0.1\nfilter tikhonov\n"
                "x 1 1\n0\ny 1 1\n0\nw 1 1\n1\n",
                2,
                id="kernel-line",
            ),
        ],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, reader, text, line):
        read_fn = {
            "point": read_point_sample, "model": read_model_file, "estimator": read_estimator
        }
        path = write(tmp_path / "bad.txt", text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}:")):
            read_fn[reader](path)


KERNEL = "[kernel]\nvariant = gaussian\nbandwidth = 1\n"
TIKHONOV = "[filter]\nvariant = tikhonov\n"
OU_DATA = "[data]\nsource = ou\ntheta = {theta}\ntau = 0.5\n"
ESTIMATE_RUN = "[run]\nlambda = 0.1\nn = 5\nout = {out}\n"
MMD_DATA = "[data]\nsample_file = {data}\nsample_file_2 = {data}\n"
MODEL_DATA = "[data]\nsource = finite-model\nmodel_file = {data}\n"
CONVERGENCE_RUN = "[run]\nn_grid = 5 10\nlambda_schedule = n^-0.5\nout = {out}\n"
MODEL_FILE = "finite-model v1\nstates 2 1\n0\n1\npi 2\n{pi}\ntransition 2 2\n0.5 0.5\n{row}\n"


@pytest.mark.parametrize(
    "command, config, data",
    [
        pytest.param(
            "estimate",
            "[kernel]\nvariant = gaussian\nbandwidth = -1\n" + TIKHONOV
            + OU_DATA.format(theta=1) + ESTIMATE_RUN,
            None,
            id="negative-bandwidth",
        ),
        pytest.param(
            "estimate",
            KERNEL + "[filter]\nvariant = landweber\nsteps = 0\nstep_size = 0.5\n"
            + OU_DATA.format(theta=1) + ESTIMATE_RUN,
            None,
            id="landweber-zero-steps",
        ),
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV + OU_DATA.format(theta=-1) + ESTIMATE_RUN,
            None,
            id="negative-ou-theta",
        ),
        pytest.param(
            "estimate",
            KERNEL + "[filter]\nvariant = landweber\nsteps = 5\nstep_size = 10\n"
            + OU_DATA.format(theta=1) + ESTIMATE_RUN,
            None,
            id="landweber-divergent-step",
        ),
        pytest.param(
            "mmd", KERNEL + MMD_DATA, "sample v1\npoints 2 1\n0.5\nnan\n", id="nan-coordinate"
        ),
        pytest.param(
            "mmd", KERNEL + MMD_DATA, "sample v1\npoints -1 1\n", id="negative-dimension"
        ),
        pytest.param(
            "oracle-verify",
            KERNEL + MODEL_DATA,
            MODEL_FILE.format(pi="nan 0.5", row="0.5 0.5"),
            id="nan-in-pi",
        ),
        pytest.param(
            "convergence",
            KERNEL + MODEL_DATA + CONVERGENCE_RUN,
            MODEL_FILE.format(pi="0.5 0.5", row="nan 0.5"),
            id="nan-in-transition",
        ),
    ],
)
def test_validation_failures_exit_2(tmp_path, capsys, command, config, data):
    data_path = write(tmp_path / "data.txt", data) if data is not None else None
    cfg = write(
        tmp_path / "run.cfg", config.format(data=data_path, out=tmp_path / "out.txt")
    )
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ValueError" not in err
    assert (data_path or cfg) in err

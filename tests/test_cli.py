"""CLI commands: config parsing, file formats, determinism, exit codes."""

import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmekit import (
    CmeEstimator,
    Cutoff,
    FiniteMarkovModel,
    GaussianKernel,
    LaplacianKernel,
    Landweber,
    PairedSample,
    Tikhonov,
    chain_states,
    cross_gram,
    fit_cme,
    fit_tikhonov_closed_form,
    gram,
    ou_sample_pairs,
    predict_conditional_expectation,
    predict_embedding,
    pt,
    random_model,
    sample_pairs,
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
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


def npy(arr, allow_pickle=False):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, allow_pickle=allow_pickle)
    return buf.getvalue()


def v2_file(kernel="gaussian 1", filt="tikhonov"):
    """A ``cme-estimator v2`` file with the given kernel and filter lines and valid 1 x 1 records."""
    head = f"cme-estimator v2\nkernel {kernel}\nlambda 0.1\nfilter {filt}\n".encode()
    return head + npy(np.zeros((1, 1))) * 2 + npy(np.ones((1, 1)))


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
        model = FiniteMarkovModel(
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
        if not hasattr(module, name):
            continue
        inner = getattr(module, name)

        def wrapper(kernel, *blocks, name=name, inner=inner):
            built.append((name,) + tuple(len(b) for b in blocks))
            return inner(kernel, *blocks)

        monkeypatch.setattr(module, name, wrapper)
    return built


OU_SOURCE = "source = ou\ntheta = 1.0\ntau = 0.5\n"


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
        # one n-sided block, the fit's G_X, built by cross_gram into the buffer it
        # factors; the report builds only the lower block triangle of G_Y, in row
        # blocks (here of three rows), and needs no G_X: W G_X = I - n*lam*W
        import cmekit.estimators as est_mod

        monkeypatch.setattr(est_mod, "REPORT_ROWS", 3)
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
        assert built == [("cross_gram", 7, 7), ("cross_gram", 3, 3), ("cross_gram", 3, 6),
                         ("cross_gram", 1, 7)]

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

    @pytest.mark.parametrize(
        "bandwidth, lam, data, warns, side",
        [
            # the Cholesky factor's diagonal bounds the condition number below by 3.0e14
            (10.0, "1e-16", OU_SOURCE + "[run]\nn = 30\nseed = 7\n", True, 30),
            # four states repeated to n = 11: 1.7e15
            (1000.0, "1e-17", "source = paired-sample\nsample_file = {pairs}\n[run]\n", True, 4),
            # the ou-fit-query benchmark workload: 1.5
            (1.0, "1e-3", OU_SOURCE + "[run]\nn = 2000\nseed = 11\n", False, 2000),
        ],
        ids=["ou-30", "four-states-11", "ou-fit-query"],
    )
    def test_ill_conditioned_system_is_reported_on_stderr_only(
        self, tmp_path, capsys, bandwidth, lam, data, warns, side
    ):
        # Cholesky succeeds without jitter, but the report Omega = I - n*lam*W
        # keeps no digits of a near-singular system
        states = [pt(float(j)) for j in range(4)]
        X = tuple(states[i % 4] for i in range(11))
        pairs = tmp_path / "pairs.txt"
        write_paired_sample(str(pairs), PairedSample(X=X, Y=X))
        out = tmp_path / "est.bin"
        cfg = write(
            tmp_path / "est.cfg",
            f"[kernel]\nvariant = gaussian\nbandwidth = {bandwidth}\n"
            f"[filter]\nvariant = tikhonov\n[data]\n{data.format(pairs=pairs)}"
            f"lambda = {lam}\nout = {out}\n",
        )
        assert main(["estimate", "--config", cfg]) == 0
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == int(warns)
        assert all("condition number >= " in w and "jitter" not in w for w in warnings)
        # the estimator file holds the support estimator: n x n on OU data, and
        # 4 x 4 over the four repeated states
        assert read_estimator(str(out)).W.shape == (side, side)

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

    def test_x_and_y_of_two_dimensions(self, tmp_path, capsys):
        # estimate regresses a 1-d x on a 2-d y; edmd needs one space for both
        pairs = tmp_path / "pairs.txt"
        sample = PairedSample(X=(pt(0.0), pt(1.0)), Y=(pt(0.0, 1.0), pt(1.0, 0.0)))
        write_paired_sample(str(pairs), sample)
        cfg = estimate_config(tmp_path, pairs)
        assert main(["estimate", "--config", cfg]) == 0
        capsys.readouterr()
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write("r = 1\n")
        assert main(["edmd", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pairs}: edmd needs x and y of one dimension")

    def test_identity_dynamics_csv(self, tmp_path):
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
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
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        code = main(["edmd", "--config", self._config(tmp_path, model_file, n=5, r=9)])
        assert code == 2
        assert "r out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sampler, data",
        [
            ("sample_pairs", "source = finite-model\nmodel_file = {model}\n"),
            ("ou_sample_pairs", OU_SOURCE),
            ("double_well_pairs",
             "source = double-well\nbeta = 3.0\ndt = 0.001\nsteps_per_pair = 500\n"),
        ],
        ids=["finite-model", "ou", "double-well"],
    )
    def test_r_is_checked_before_the_sample_is_drawn(self, tmp_path, capsys, monkeypatch,
                                                      sampler, data):
        # a sampled source draws [run] n pairs, so an r out of range exits 2
        # without running the sampler, which can take seconds
        import cmekit.models as md

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(md, sampler, refuse)
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2)))
        for r in (0, 6):
            cfg = write(
                tmp_path / "edmd.cfg",
                "[kernel]\nvariant = gaussian\nbandwidth = 1.0\n[data]\n"
                + data.format(model=model_file)
                + f"[run]\nlambda = 1e-3\nn = 5\nr = {r}\nout = {tmp_path / 'eig.csv'}\n",
            )
            assert main(["edmd", "--config", cfg]) == 2
            assert "r out of range: need 1 <= r <= n = 5" in capsys.readouterr().err

    def test_r_above_the_distinct_states_exits_1(self, tmp_path, capsys):
        # r <= n passes validation, but 4 states give only 4 eigenfunctions of nonzero norm
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), random_model(np.random.default_rng(2), 4))
        config = self._config(tmp_path, model_file, n=400, r=5, seed=11)
        assert main(["edmd", "--config", config]) == 1
        assert "zero RKHS norm" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
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
        import cmekit.kernels as kernels

        built, row_blocks = [], kernels._row_blocks

        def recording(kernel, a, b, *args, **kwargs):
            built.append((len(a), len(b)))
            return row_blocks(kernel, a, b, *args, **kwargs)

        monkeypatch.setattr(kernels, "_row_blocks", recording)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(0.0), pt(0.5), pt(1.0)])
        write_point_sample(str(b), [pt(1.0), pt(2.0), pt(3.0), pt(4.0)])
        assert main(["mmd", "--config", self._config(tmp_path, a, b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report["biased"], float) and isinstance(report["unbiased"], float)
        # each Gram block is built once, by one call of the row-block engine
        assert sorted(built) == [(3, 3), (3, 4), (4, 4)]

    def test_row_blocks_cover_each_sample_once(self, tmp_path, capsys, monkeypatch):
        # 25 entries per row block: 7 columns take 3 rows and 11 columns 2, so
        # every block splits and ends in a ragged row block; a self block's row
        # blocks take more rows as its triangle narrows: 3 + 4 rows of P, and
        # 2 + 2 + 3 + 4 rows of Q; the second run hands the last row blocks to
        # a helper thread
        import cmekit.kernels as kernels

        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 25)
        monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 1})
        calls, row_blocks = [], kernels._row_blocks

        def recording(kernel, a, b, visit):
            blocks = []

            def seen(block):
                if block.ndim == 2:         # not a self block's leading-square row sums
                    blocks.append(block.copy())
                return visit(block)

            sums = row_blocks(kernel, a, b, seen)
            full = np.empty((len(a), len(b)))
            row_blocks(kernel, a, b, out=full)
            calls.append((tuple(a[:, 0]), tuple(b[:, 0]), blocks, sums, full))
            return sums

        monkeypatch.setattr(kernels, "_row_blocks", recording)
        P = tuple(0.25 * i for i in range(7))
        Q = tuple(2.0 + 0.5 * i for i in range(11))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(q) for q in Q])
        write_point_sample(str(b), [pt(p) for p in P])
        self_sums = []
        for split_entries in (kernels._SPLIT_ENTRIES, 0):
            monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", split_entries)
            calls.clear()
            assert main(["mmd", "--config", self._config(tmp_path, a, b)]) == 0
            assert sorted((rows, cols) for rows, cols, *_ in calls) == [(P, P), (P, Q), (Q, Q)]
            for rows, cols, blocks, sums, full in calls:
                if rows == cols:
                    # a row block from sample row j covers columns j onward: each unordered
                    # pair once above the diagonal, and its own rows' pairs again below it
                    covered, expected = np.zeros_like(full), np.triu(np.ones_like(full))
                    ordered = sorted(blocks, key=lambda block: -block.shape[1])
                    for block in ordered:
                        j = len(rows) - block.shape[1]
                        assert np.array_equal(block, full[j:j + len(block), j:])
                        covered[j:j + len(block), j:] += 1
                        expected[j:j + len(block), j:j + len(block)] = 1
                    assert np.array_equal(covered, expected)
                    assert all(block.size <= 25 for block in blocks)
                    assert sums == [2 * bl.sum() - bl[:, :len(bl)].sum(axis=1).sum() for bl in ordered]
                    assert math.fsum(sums) == pytest.approx(full.sum(), rel=1e-15)
                    self_sums.append((rows, sums))
                    continue
                # the points are distinct, so a block row's values name its sample row
                first = [np.flatnonzero((full == block[0]).all(axis=1))[0] for block in blocks]
                ordered = [block for _, block in sorted(zip(first, blocks), key=lambda fb: fb[0])]
                assert np.array_equal(np.concatenate(ordered), full)
                assert all(len(block) <= max(1, 25 // len(cols)) for block in blocks)
                assert sums == [block.sum() for block in ordered]
            assert sum(len(blocks) for _, _, blocks, *_ in calls) == 2 + 4 + 4
        # the same self-block sums on one worker and on two
        assert sorted(self_sums[:2]) == sorted(self_sums[2:])

    def test_samples_of_two_dimensions_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_point_sample(str(a), [pt(0.0), pt(1.0)])
        write_point_sample(str(b), [pt(0.0, 1.0), pt(1.0, 0.0)])
        assert main(["mmd", "--config", self._config(tmp_path, a, b)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {a}, {b}: points of dimension 1 and 2")

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
        model = FiniteMarkovModel(
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
        model = FiniteMarkovModel(
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
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.array([[0.8, 0.2], [0.3, 0.7]]))
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
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.array([[0.7, 0.3], [0.4, 0.6]]))
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
        # repeated states: the support estimator lives on the 4 distinct states,
        # so the fit, the operator values, the excess risk, and estimate's
        # report and file never build a kernel block with a side longer than 4
        import cmekit.estimators as est_mod
        import cmekit.models as md_mod

        built = [count_blocks(monkeypatch, mod) for mod in (est_mod, md_mod)]
        model = random_model(np.random.default_rng(5), 4)
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        assert main(["convergence", "--config", self._config(tmp_path, model_file, grid="40 90")]) == 0
        n, lam, out = 300, 1e-3, tmp_path / "est.bin"
        cfg = write(
            tmp_path / "est.cfg",
            "[kernel]\nvariant = gaussian\nbandwidth = 1.0\n[filter]\nvariant = tikhonov\n"
            f"[data]\nsource = finite-model\nmodel_file = {model_file}\n"
            f"[run]\nlambda = {lam}\nn = {n}\nseed = 3\nout = {out}\n",
        )
        assert main(["estimate", "--config", cfg]) == 0
        blocks = [b for calls in built for b in calls]
        assert blocks and all(max(b[1:]) <= 4 for b in blocks)
        monkeypatch.undo()
        # the file holds the m_Y x m_X support estimator, and it predicts what the
        # paired n x n route (G_X + n*lam*I) W = I predicts
        sample = sample_pairs(model, n, 3)
        est = read_estimator(str(out))
        assert est.W.shape == (len(set(sample.Y)), len(set(sample.X))) == (4, 4)
        W = np.linalg.solve(gram(GAUSS, sample.X) + n * lam * np.eye(n), np.eye(n))
        f = {state: float(v) for state, v in zip(model.states, (1.5, -0.5, 2.0, 0.25))}
        f_paired = np.array([f[y] for y in sample.Y])
        for x in (*model.states, pt(0.37), pt(9.5)):
            expected = float(cross_gram(GAUSS, sample.X, [x])[:, 0] @ (W.T @ f_paired))
            got = predict_conditional_expectation(est, x, np.array([f[y] for y in est.Y]))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_finite_jitter_is_reported_per_n(self, tmp_path, capsys, monkeypatch):
        # The oracle rejects a state Gram whose eigenvalue ratio is at most
        # 1e-10, and such a Gram keeps the distinct-state system S + n*lam*I
        # positive definite, so no model the oracle accepts makes the fit
        # jitter.  The fit alone therefore sees the eight states under
        # bandwidth 1000, where they are closely spaced: S is numerically
        # singular and lambda ~ 1e-17 cannot rescue it.
        import cmekit.estimators as est_mod

        cross_gram = est_mod.cross_gram
        monkeypatch.setattr(
            est_mod, "cross_gram", lambda kernel, a, b: cross_gram(GaussianKernel(1000.0), a, b)
        )
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
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        # p outside (0, 1); numbers the pattern admits but float() does not; an infinite c
        for schedule in ("n^-1.5", "1.2.3*n^-0.5", "n^-0.5.5", "1e999*n^-0.5"):
            cfg = self._config(tmp_path, model_file, schedule=schedule)
            assert main(["convergence", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cfg}: lambda_schedule") and "ValueError" not in err

    def test_schedule_exponent_in_e_notation(self, tmp_path):
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), random_model(np.random.default_rng(5), 4))
        csv = []
        for schedule in ("1e-3*n^-5e-1", "1e-3*n^-0.5"):
            cfg = self._config(tmp_path, model_file, grid="40 90", schedule=schedule)
            assert main(["convergence", "--config", cfg]) == 0
            csv.append((tmp_path / "conv.csv").read_bytes())
        assert csv[0] == csv[1]

    def test_non_ascending_grid(self, tmp_path, capsys):
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2))
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), model)
        cfg = self._config(tmp_path, model_file, grid="100 50")
        assert main(["convergence", "--config", cfg]) == 2
        assert "ascending" in capsys.readouterr().err


class TestSeedAndOutOverrides:
    def test_seed_override_changes_sample(self, tmp_path):
        model = FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.array([[0.7, 0.3], [0.4, 0.6]]))
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        model_file = tmp_path / "model.txt"
        write_model_file(str(model_file), FiniteMarkovModel(chain_states(2), [0.5, 0.5], np.eye(2)))
        cfg = write(tmp_path / "ov.cfg", KERNEL + MODEL_DATA.format(data=model_file))
        assert main(["oracle-verify", "--config", cfg, "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: seed must be")

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

    def test_reading_an_estimator_holds_one_w_block(self, tmp_path):
        # the estimator holds the w record that the reader made, not a copy of it
        import tracemalloc

        est = fit_cme(ou_sample_pairs(1.0, 0.5, 600, 3), GAUSS, Tikhonov(), 1e-3)
        path = str(tmp_path / "est.bin")
        write_estimator(path, est)
        tracemalloc.start()
        try:
            loaded = read_estimator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.W.tobytes() == est.W.tobytes()
        assert loaded.W.flags.c_contiguous and not loaded.W.flags.writeable
        # W is one block; the finiteness check's n x n booleans are 0.125 more
        assert peak <= 1.3 * est.W.nbytes

    @staticmethod
    def _objects():
        states = (pt(0.0, 1.0), pt(1.0, -0.0), pt(2.5, 1 / 3))
        model = FiniteMarkovModel(
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
        repeated = PairedSample(X=tuple(sample.X[:2]) * 3, Y=tuple(sample.Y[:3]) * 2)
        support = fit_cme(repeated, GAUSS, Tikhonov(), 0.01)
        return {
            "model": (model, write_model_file, read_model_file),
            "paired-sample": (sample, write_paired_sample, read_paired_sample),
            "point-sample": (list(sample.X), write_point_sample, read_point_sample),
            "estimator": (est, write_estimator, read_estimator),
            "support-estimator": (support, write_estimator, read_estimator),
        }

    @pytest.mark.parametrize(
        "fmt", ["model", "paired-sample", "point-sample", "estimator", "support-estimator"]
    )
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

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_v2_roundtrip_is_bit_exact(self, tmp_path, data):
        # a paired estimator (p = q) or a support estimator (p, q drawn apart)
        p = data.draw(st.integers(1, 30))
        q = data.draw(st.just(p) | st.integers(1, 30))
        special = st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-309, 1e308, -1e308])
        doubles = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))
        X, Y = (
            data.draw(arrays(np.float64, (rows, data.draw(st.integers(1, 3))), elements=doubles))
            for rows in (p, q)
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
            W=data.draw(arrays(np.float64, (q, p), elements=doubles)),
        )
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        write_estimator(str(first), est)
        loaded = read_estimator(str(first))
        self._assert_bit_identical(loaded, est)
        write_estimator(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "case", ["truncated", "w-shape", "int-dtype", "object-dtype", "trailing-bytes"]
    )
    def test_malformed_v2_names_file(self, tmp_path, case):
        good = tmp_path / "good.bin"
        write_estimator(str(good), self._layout_estimator())
        blob = good.read_bytes()
        w_record = npy(np.array([[1 / 3]]))
        assert blob.endswith(w_record)
        swap_w = {
            "w-shape": npy(np.zeros((2, 2))),
            "int-dtype": npy(np.array([[1]])),
            "object-dtype": npy(np.array([[1 / 3]], dtype=object), allow_pickle=True),
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

    def test_support_w_of_the_wrong_shape_names_file(self, tmp_path):
        # w must be (len(y), len(x)) = (3, 2); its transpose is refused with the
        # file's name, which the CLI reports with exit code 2
        est = CmeEstimator(
            kernel=GAUSS, lam=0.1, filt=Tikhonov(), X=(pt(0.0), pt(1.0)),
            Y=(pt(0.0), pt(1.0), pt(2.0)), W=np.arange(6.0).reshape(3, 2),
        )
        good = tmp_path / "good.bin"
        write_estimator(str(good), est)
        self._assert_bit_identical(read_estimator(str(good)), est)
        w_record = npy(est.W)
        blob = good.read_bytes()
        assert blob.endswith(w_record)
        path = tmp_path / "bad.bin"
        path.write_bytes(blob[: -len(w_record)] + npy(est.W.T.copy()))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid estimator")) as err:
            read_estimator(str(path))
        assert "(len(Y), len(X)) = (3, 2)" in str(err.value)

    @pytest.mark.parametrize(
        "reader, text, line",
        [
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n3\n", 4, id="too-few-values"),
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n3 x\n", 4, id="non-numeric"),
            pytest.param("point", "sample v1\npoints 2.5 2\n1 2\n3 4\n", 2, id="non-integer-dims"),
            pytest.param("point", "sample v1\npoints 3 2\n1 2\n3 4\n", 2, id="missing-rows"),
            pytest.param("point", "sample v1\npoints 2 2\n1 2\n# note\n3 4\n", 4, id="hash"),
            pytest.param("model", "finite-model v1\nstates 1 1\n0\npi 1\n1 2\n", 5, id="vector"),
            pytest.param("estimator", v2_file(kernel="gaussian -1"), 2, id="kernel-line"),
            # a text file ends where its last block ends
            pytest.param("point", "sample v1\npoints 2 1\n1\n2\n3\n", 5, id="extra-point-row"),
            pytest.param(
                "paired", "paired-sample v1\nx 2 1\n0\n1\ny 2 1\n0\n1\n2\n", 8, id="extra-y-row"
            ),
            pytest.param(
                "model",
                "finite-model v1\nstates 2 1\n0\n1\npi 2\n0.5 0.5\ntransition 2 2\n0.5 0.5\n"
                "0.5 0.5\ntransition-alt 2 2\n0.5 0.5\n0.5 0.5\n\n0.5 0.5\n",
                14,
                id="line-after-transition-alt",
            ),
        ],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, reader, text, line):
        read_fn = {
            "point": read_point_sample, "paired": read_paired_sample, "model": read_model_file,
            "estimator": read_estimator,
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
            KERNEL + TIKHONOV + OU_DATA.format(theta="inf") + ESTIMATE_RUN,
            None,
            id="infinite-ou-theta",
        ),
        pytest.param(
            "estimate",
            KERNEL + "[filter]\nvariant = landweber\nsteps = 5\nstep_size = 10\n"
            + OU_DATA.format(theta=1) + ESTIMATE_RUN,
            None,
            id="landweber-divergent-step",
        ),
        *(
            pytest.param(
                "estimate",
                KERNEL + TIKHONOV + OU_DATA.format(theta=1) + ESTIMATE_RUN.replace("0.1", lam),
                None,
                id=f"{lam}-lambda",
            )
            for lam in ("nan", "inf")
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


@pytest.mark.parametrize(
    "command, run, refused",
    [
        ("estimate", "lambda = 1e307\nn = 50", "n = 50, lambda = 1e+307"),
        ("edmd", "lambda = 1e307\nn = 50\nr = 2", "n = 50, lambda = 1e+307"),
        # lambda(5) = 1e308 * 5^-0.5 is finite, 5 * lambda(5) is not
        ("convergence", "n_grid = 5 10\nlambda_schedule = 1e308*n^-0.5\nr = 2",
         f"n = 5, lambda = {1e308 * 5 ** -0.5}"),
    ],
)
def test_an_overflowing_n_lambda_exits_2_naming_both(tmp_path, capsys, command, run, refused):
    # a finite lambda whose n*lambda is not: refused before any factor
    config = KERNEL + TIKHONOV + OU_DATA.format(theta=1) + f"[run]\n{run}\n"
    cfg = write(tmp_path / "run.cfg", config + f"out = {tmp_path / 'out.txt'}\n")
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: n*lambda overflows: {refused}\n")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("tau, code", [("nan", 2), ("inf", 0)])
def test_ou_tau_is_refused_only_below_zero_or_nan(tmp_path, capsys, tau, code):
    # inf is the limit where x and y are independent; nan is named as the bad parameter,
    # not found later as a non-finite sample
    config = KERNEL + TIKHONOV + OU_DATA.format(theta=1).replace("0.5", tau) + ESTIMATE_RUN
    cfg = write(tmp_path / "run.cfg", config.format(out=tmp_path / "out.txt"))
    assert main(["estimate", "--config", cfg]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: invalid sampling parameters: tau must be >= 0, got nan")


OUT_CASES = pytest.mark.parametrize(
    "command, config, data, computes",
    [
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV + OU_DATA.format(theta=1) + ESTIMATE_RUN,
            None,
            "cli.fit_cme",
            id="estimate",
        ),
        pytest.param(
            "edmd",
            KERNEL + OU_DATA.format(theta=1) + ESTIMATE_RUN + "r = 2\n",
            None,
            "cli.edmd_eigen",
            id="edmd",
        ),
        pytest.param(
            "mmd", KERNEL + MMD_DATA, "sample v1\npoints 2 1\n0.5\n1.5\n", "cli._mmd_sq", id="mmd"
        ),
        pytest.param(
            "oracle-verify",
            KERNEL + MODEL_DATA,
            MODEL_FILE.format(pi="0.5 0.5", row="0.5 0.5"),
            "models.verify",
            id="oracle-verify",
        ),
        pytest.param(
            "convergence",
            KERNEL + MODEL_DATA + CONVERGENCE_RUN,
            MODEL_FILE.format(pi="0.5 0.5", row="0.5 0.5"),
            "cli.fit_cme",
            id="convergence",
        ),
    ],
)


def not_reached(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran before it should")

    return fail


def assert_out_refused_before_computing(tmp_path, capsys, monkeypatch, case, out, message):
    command, config, data, computes = case
    # estimate and edmd draw their OU sample only after the check, too
    for name in (computes, "models.ou_sample_pairs"):
        monkeypatch.setattr(f"cmekit.{name}", not_reached(name))
    data_path = write(tmp_path / "data.txt", data) if data is not None else None
    cfg = write(tmp_path / "run.cfg", config.format(data=data_path, out=out))
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: {message}")


@OUT_CASES
def test_out_in_a_missing_directory_exits_2_before_computing(
    tmp_path, capsys, monkeypatch, command, config, data, computes
):
    assert_out_refused_before_computing(
        tmp_path, capsys, monkeypatch, (command, config, data, computes),
        tmp_path / "missing" / "out.txt", "the output directory does not exist",
    )


@OUT_CASES
def test_out_naming_a_directory_exits_2_before_computing(
    tmp_path, capsys, monkeypatch, command, config, data, computes
):
    out = tmp_path / "out.d"
    out.mkdir()
    assert_out_refused_before_computing(
        tmp_path, capsys, monkeypatch, (command, config, data, computes),
        out, "the output path is a directory",
    )


@pytest.mark.parametrize("command", ["oracle-verify", "convergence"])
def test_singular_state_gram_fails_before_the_first_fit(tmp_path, capsys, monkeypatch, command):
    # K_E's eigenvalue ratio is about 9.6e-11, as in test_ill_conditioned_state_gram_fails
    for name in ("cli.fit_cme", "models.fit_cme"):
        monkeypatch.setattr(f"cmekit.{name}", not_reached(name))
    model_file = tmp_path / "model.txt"
    write_model_file(str(model_file), random_model(np.random.default_rng(0), 8))
    kernel = KERNEL.replace("bandwidth = 1", "bandwidth = 4.65")
    cfg = write(
        tmp_path / "run.cfg",
        kernel + MODEL_DATA.format(data=model_file)
        + CONVERGENCE_RUN.format(out=tmp_path / "out.csv"),
    )
    assert main([command, "--config", cfg]) == 1
    assert "LinAlgError: singular state Gram K_E" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, data",
    [
        pytest.param("estimate", None, None, id="unreadable-config"),
        pytest.param("estimate", "[ ]\n", None, id="empty-section-header"),
        pytest.param(
            "estimate",
            KERNEL.replace("gaussian", "cosine") + TIKHONOV + OU_DATA.format(theta=1)
            + ESTIMATE_RUN,
            None,
            id="unknown-kernel-variant",
        ),
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV.replace("tikhonov", "ridge") + OU_DATA.format(theta=1)
            + ESTIMATE_RUN,
            None,
            id="unknown-filter-variant",
        ),
        pytest.param(None, None, v2_file(kernel="gaussian"), id="estimator-kernel-parameters"),
        pytest.param(None, None, v2_file(kernel="gaussian inf"), id="estimator-infinite-bandwidth"),
        pytest.param(
            "mmd", KERNEL.replace("bandwidth = 1", "bandwidth = inf") + MMD_DATA, None,
            id="infinite-bandwidth",
        ),
        pytest.param(None, None, v2_file(filt="landweber 7"), id="estimator-filter-parameters"),
        pytest.param(
            None, None, v2_file().replace(b"v2", b"v1", 1), id="estimator-v1-no-longer-read"
        ),
        pytest.param(
            "oracle-verify", KERNEL + MODEL_DATA, "finite-model v1\nstates 1 1\n0\n",
            id="early-end-of-file",
        ),
        pytest.param("mmd", KERNEL + MMD_DATA, "sample v1\npts 1 1\n0\n", id="block-name"),
        pytest.param("mmd", KERNEL + MMD_DATA, "sample v1\npoints 1\n0\n", id="block-rank"),
        pytest.param("mmd", KERNEL + MMD_DATA, "sample v1\npoints 0 1\n", id="empty-sample"),
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV + OU_DATA.format(theta=1) + ESTIMATE_RUN.replace("n = 5\n", ""),
            None,
            id="missing-n",
        ),
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV + OU_DATA.format(theta=1) + ESTIMATE_RUN.replace("n = 5", "n = 0"),
            None,
            id="n-below-1",
        ),
        pytest.param(
            "estimate",
            KERNEL + TIKHONOV + OU_DATA.format(theta=1) + "[run]\nlambda = 0.1\nn = 5\n",
            None,
            id="no-output-path",
        ),
        pytest.param(
            "convergence",
            KERNEL + OU_DATA.format(theta=1) + CONVERGENCE_RUN.replace("n^-0.5", "0.5"),
            None,
            id="lambda-schedule",
        ),
        pytest.param(
            "convergence",
            KERNEL + "[data]\nsource = double-well\n" + CONVERGENCE_RUN,
            None,
            id="convergence-source",
        ),
    ],
)
def test_validation_exits_name_the_file(tmp_path, capsys, command, config, data):
    data_path = write(tmp_path / "data.txt", data) if data is not None else None
    if command is None:                 # an estimator file's head lines
        with pytest.raises(ConfigError, match=re.escape(f"{data_path}:")):
            read_estimator(data_path)
        return
    cfg = str(tmp_path / "run.cfg")
    if config is not None:
        write(tmp_path / "run.cfg", config.format(data=data_path, out=tmp_path / "out.txt"))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (data_path or cfg) in err


def test_source_table_matches_the_samplers():
    # the CLI passes a sampled source's [data] parameters positionally, in table
    # order, so a renamed sampler or a reordered parameter would fail only at run time
    import inspect

    import cmekit.models as md
    from cmekit.cli import _SOURCES

    for source, (name, params) in _SOURCES.items():
        expected = (["model"] if source == "finite-model" else []) + [key for key, _ in params]
        signature = inspect.signature(getattr(md, name))
        assert list(signature.parameters) == expected + ["n", "seed"], source


def test_readme_example_config_runs(tmp_path, capsys):
    # the README's ou.cfg example, taken verbatim from its heredoc
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(r"cat > ou\.cfg <<'CFG'\n(.*?\n)CFG\n", readme, re.DOTALL)
    assert match is not None, "README no longer holds the ou.cfg heredoc"
    cfg = write(tmp_path / "ou.cfg", match.group(1))
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "est.txt")]) == 0
    assert main(["edmd", "--config", cfg, "--out", str(tmp_path / "eig.csv")]) == 0
    assert "warning" not in capsys.readouterr().err

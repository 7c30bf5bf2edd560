"""The traced run: span nesting, self-time accounting, repeatable counts."""

import time

import pytest

import spans
import workloads

# the layer with the largest self time at the seed commit, per workload
HEAVIEST = {
    "ou-fit-query": "cli.write_estimator",
    "finite-oracle": "estimators.solve_pd",
    "ou-edmd": "spectral.",
    "mmd-two-sample": "kernels.",
}


def test_self_time_excludes_children_and_entries_count_once():
    tracer = spans.Tracer(run_id="unit")

    def cross_gram(kernel, rows, cols):
        time.sleep(0.02)

    traced_cross = tracer.wrap("cross_gram", "kernels.cross_gram", cross_gram)

    def gram(kernel, points):
        traced_cross(kernel, points, points)
        time.sleep(0.01)

    traced_gram = tracer.wrap("gram", "kernels.gram", gram)

    def fit(points):
        traced_gram(None, points)
        traced_cross(None, points, points[:2])

    tracer.wrap("fit_cme", "estimators.fit", fit)([1, 2, 3])
    m = tracer.metrics()
    assert m["kernels.gram.calls"] == 1 and m["kernels.cross_gram.calls"] == 2
    # gram's inner cross_gram is not requested from outside the layer
    assert m["kernels.entries"] == 3 * 3 + 3 * 2
    assert m["kernels.gram.self_s"] >= 0.01
    assert m["kernels.cross_gram.self_s"] >= 0.04
    records = tracer.records()
    assert [r["parent"] for r in records] == [None, 0, 1, 0]
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(records[0]["end"] - records[0]["start"], abs=1e-9)
    assert {r["run"] for r in records} == {"unit"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_children_lie_inside_parents(traced_passes, workload):
    for result in traced_passes[workload][1]:
        records = result["spans"]
        assert records
        for r in records:
            assert r["start"] <= r["end"]
            if r["parent"] is not None:
                parent = records[r["parent"]]
                assert parent["start"] <= r["start"] and r["end"] <= parent["end"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_fit_in_wall(traced_passes, workload):
    for result in traced_passes[workload][1]:
        layers = result["layers"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert all(v >= 0.0 for k, v in layers.items() if k.endswith(".self_s"))
        assert 0.0 < total <= result["metrics"]["wall_s"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_runs(traced_passes, workload):
    first, second = (r["layers"] for r in traced_passes[workload][1])
    counted = [k for k in first if k.endswith(".calls")] + ["kernels.entries", "cli.estimator_bytes"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_heaviest_layer_matches_the_seed_profile(traced_passes, workload):
    layers = traced_passes[workload][1][0]["layers"]
    self_times = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get).startswith(HEAVIEST[workload]), self_times


def test_rebinding_reaches_every_caller(traced_passes):
    layers = traced_passes["ou-fit-query"][1][0]["layers"]
    # cmd_estimate runs through the CLI's command table
    assert layers["cli.command.calls"] == 1
    # cli binds fit_tikhonov_closed_form, estimators binds gram, by name
    assert layers["estimators.fit.calls"] == 1
    assert layers["kernels.gram.calls"] >= 1
    assert layers["estimators.predict.calls"] == workloads.QUERIES
    assert layers["cli.write_estimator.calls"] == layers["cli.read_estimator.calls"] == 1
    assert layers["cli.estimator_bytes"] > 0
    oracle = traced_passes["finite-oracle"][1][0]["layers"]
    # models binds solve_pd and gram by name; cli reaches models as md.<name>
    assert oracle["models.oracle.calls"] > 0 and oracle["models.sample.calls"] > 0
    edmd = traced_passes["ou-edmd"][1][0]["layers"]
    assert edmd["spectral.edmd_eigen.calls"] == edmd["spectral.eigen_residuals.calls"] == 1

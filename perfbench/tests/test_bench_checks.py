"""The output checks pass on real outputs and count one failure per tampered one."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_outputs_pass(traced_passes, workload):
    inputs, results = traced_passes[workload]
    for result in results:
        assert result["failures"] == []
        assert checks.check(inputs, result["outputs"]) == (result["attempted"], [])


def _bump_risk(out):
    report = json.loads(out["estimate_report"])
    report["regularized_empirical_risk"] *= 1.0 + 1e-9
    out["estimate_report"] = json.dumps(report)


def _nan_prediction(out):
    out["predictions"][17] = float("nan")


def _far_prediction(out):
    out["predictions"][3] += 1.0


def _edmd_residual(out):
    lines = out["csv"].splitlines()
    cells = lines[2].split(",")
    cells[4] = "1e-3"
    out["csv"] = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"


def _edmd_order(out):
    lines = out["csv"].splitlines()
    out["csv"] = "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"


def _verify_row_fails(out):
    code, text = out["verify"][4]
    out["verify"][4] = [code, text.replace("PASS", "FAIL", 1)]


def _convergence_rises(out):
    lines = out["csv"].splitlines()
    cells = lines[-1].split(",")
    cells[2] = repr(2.0 * float(lines[-2].split(",")[2]))
    out["csv"] = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def _convergence_exit(out):
    out["convergence_exit"] = 1


def _mmd_biased(out):
    report = json.loads(out["report"])
    report["biased"] *= 1.0 + 1e-6
    out["report"] = json.dumps(report)


TAMPERS = [
    ("ou-fit-query", _bump_risk),
    ("ou-fit-query", _nan_prediction),
    ("ou-fit-query", _far_prediction),
    ("ou-edmd", _edmd_residual),
    ("ou-edmd", _edmd_order),
    ("finite-oracle", _verify_row_fails),
    ("finite-oracle", _convergence_rises),
    ("finite-oracle", _convergence_exit),
    ("mmd-two-sample", _mmd_biased),
]


@pytest.mark.parametrize("workload, tamper", TAMPERS, ids=[t.__name__ for _, t in TAMPERS])
def test_tampered_output_counts_one_failure(traced_passes, workload, tamper):
    inputs, results = traced_passes[workload]
    out = copy.deepcopy(results[0]["outputs"])
    tamper(out)
    attempted, failures = checks.check(inputs, out)
    assert attempted == results[0]["attempted"]
    assert len(failures) == 1, failures


def test_inputs_follow_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        snapshots = []
        for seed in (3, 3, 4):
            inputs = workloads.make_inputs(workload, seed, tmp_path)
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            snapshots.append((json.dumps(inputs), files))
            for p in tmp_path.iterdir():
                p.unlink()
        assert snapshots[0] == snapshots[1]
        assert snapshots[0] != snapshots[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "mmd-two-sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

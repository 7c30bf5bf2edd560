"""Shared fixtures: two traced passes of every workload at one seed.

Run from the repository root:  python3 -m pytest perfbench/tests
The traced passes take about a minute on a 2-core machine.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="session")
def traced_passes(tmp_path_factory):
    """workload -> (inputs, [result of traced pass 1, result of traced pass 2])."""
    passes = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        inputs = workloads.make_inputs(workload, SEED, workdir)
        inputs["reference"] = checks.reference(inputs)
        runner = run.Runner(workdir, inputs, time.perf_counter() + run.DEADLINE_S)
        passes[workload] = (inputs, [runner.spawn("traced") for _ in range(2)])
    return passes

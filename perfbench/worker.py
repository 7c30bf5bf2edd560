"""One fresh-process pass of a workload; started by run.py, not by hand.

usage: worker.py SPAWNED_AT INPUTS_JSON RESULT_JSON MODE SPANS_JSON

SPAWNED_AT is the parent's ``time.perf_counter()`` just before it started this
process.  Both clocks are CLOCK_MONOTONIC, so ``setup_s`` spans interpreter
start up to the return of ``import cmekit``, with numpy, scipy and OpenBLAS
loaded.  MODE is ``setup`` (import only), ``pass`` or ``traced``.

The pass's peak RSS is read before its outputs are checked, so the checks'
own memory does not count.  ``ru_maxrss`` starts at the parent's peak RSS
(Linux carries it across exec), so run.py keeps its own footprint below that
of an import of cmekit.
"""

import sys
import time

import cmekit  # noqa: E402 - first, so that setup_s covers the whole import

SETUP_S = time.perf_counter() - float(sys.argv[1])

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the primary command of each workload, reported as command_s
COMMAND = {
    "ou-fit-query": "estimate_s",
    "ou-edmd": "edmd_s",
    "finite-oracle": "convergence_s",
    "mmd-two-sample": "mmd_s",
}


def pass_metrics(inputs: dict, out: dict, passed: bool) -> dict[str, float]:
    """End-to-end figures of one pass (the ones that apply to its workload).

    The accuracy figures are read from the outputs only when they passed
    their checks.
    """
    workload = inputs["workload"]
    m = {"wall_s": out["wall_s"]}
    if workload == "ou-fit-query":
        m["estimate_s"] = out["estimate_s"]
        if "load_s" in out:
            m["load_s"] = out["load_s"]
            m["query_ms_p50"] = float(np.percentile(out["query_ms"], 50))
            m["query_ms_p90"] = float(np.percentile(out["query_ms"], 90))
        if passed:
            m["query_abs_err"] = checks.query_abs_err(inputs, out)
    elif workload == "ou-edmd":
        m["edmd_s"] = out["edmd_s"]
        if passed:
            m["edmd_eig_err"] = checks.edmd_eig_err(out)
    elif workload == "finite-oracle":
        m["convergence_s"] = out["convergence_s"]
        m["oracle_verify_s"] = out["oracle_verify_s"]
        if passed:
            m["conv_op_norm"] = checks.conv_op_norm(out)
    else:
        m["mmd_s"] = out["mmd_s"]
    m["command_s"] = m[COMMAND[workload]]
    return m


def main(argv: list[str]) -> None:
    inputs_path, result_path, mode, spans_path = argv[2:6]
    result = {"setup_s": SETUP_S, "cmekit_file": cmekit.__file__}
    if mode != "setup":
        inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
        tracer = None
        if mode == "traced":
            tracer = spans.Tracer(run_id=Path(result_path).stem)
            spans.install(tracer)
        out = workloads.run_pass(inputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics()
            Path(spans_path).write_text(json.dumps(tracer.records()), encoding="utf-8")
        result["outputs"] = out
        result["attempted"], result["failures"] = checks.check(inputs, out)
        metrics = pass_metrics(inputs, out, passed=not result["failures"])
        result["metrics"] = dict(metrics, peak_rss_mb=peak_rss_mb)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv)

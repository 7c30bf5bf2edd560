"""Output checks that hold for any workload seed.

``check`` judges one pass's raw outputs and returns the number of operations
attempted and one message per failed operation.  A command that exits
nonzero, an exception and a failed output check each fail their operation.
The references are the paper's closed forms and the benchmark's own
computations, never stored bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    BANDWIDTH,
    EDMD_R,
    FIT_LAMBDA,
    N_GRID,
    TAU,
    THETA,
)

RISK_RTOL = 1e-12
# largest |prediction - x e^{-theta tau}| seen over 52 seeds was 0.136; a
# predictor that ignores the data errs by up to 0.91 at |x| = 1.5
QUERY_ERR_BOUND = 0.3
RESIDUAL_TOL = 1e-8
LEAD_MODULUS_TOL = 0.05
OP_NORM_BOUND_TOL = 1e-9
MONOTONE_FACTOR = 1.1
MMD_RTOL = 1e-9
REFERENCE_BLOCK = 100


def check(inputs: dict, out: dict) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation)."""
    return _CHECKS[inputs["workload"]](inputs, out)


def _json(text: str) -> dict | None:
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_ou_fit_query(inputs: dict, out: dict) -> tuple[int, list[str]]:
    queries = inputs["queries"]
    failures = []
    report = _json(out["estimate_report"])
    if out["estimate_exit"] != 0:
        failures.append(f"estimate: exit code {out['estimate_exit']}")
    elif report is None:
        failures.append("estimate: stdout is not a JSON report")
    else:
        try:
            reg = float(report["regularized_empirical_risk"])
            parts = float(report["empirical_risk"]) + FIT_LAMBDA * float(report["hs_norm_sq"])
        except (KeyError, TypeError, ValueError):
            failures.append("estimate: report lacks the risk fields")
        else:
            if not abs(reg - parts) <= RISK_RTOL * abs(reg):
                failures.append(
                    f"estimate: regularized risk {reg!r} != empirical + lambda*hs {parts!r}"
                )
    if "load_error" in out:
        failures.append(f"load: {out['load_error']}")
    raised = dict(out["query_errors"])
    decay = math.exp(-THETA * TAU)
    for i, (x, pred) in enumerate(zip(queries, out["predictions"])):
        if i in raised:
            failures.append(raised[i])
        elif not math.isfinite(pred):
            failures.append(f"query {i}: prediction {pred!r} is not finite")
        elif abs(pred - x * decay) > QUERY_ERR_BOUND:
            failures.append(f"query {i}: |{pred!r} - {x * decay!r}| > {QUERY_ERR_BOUND}")
    return 2 + len(queries), failures


def query_abs_err(inputs: dict, out: dict) -> float:
    """Largest |prediction - x e^{-theta tau}| over the queries."""
    x = np.asarray(inputs["queries"])
    return float(np.max(np.abs(np.asarray(out["predictions"]) - x * math.exp(-THETA * TAU))))


def _check_ou_edmd(inputs: dict, out: dict) -> tuple[int, list[str]]:
    if out["edmd_exit"] != 0:
        return 1, [f"edmd: exit code {out['edmd_exit']}"]
    try:
        rows = _csv_rows(out["csv"])
        moduli = [float(r["modulus"]) for r in rows]
        residuals = [float(r["residual"]) for r in rows]
    except (KeyError, TypeError, ValueError):
        return 1, ["edmd: CSV lacks modulus/residual columns"]
    problems = []
    if len(rows) != EDMD_R:
        problems.append(f"{len(rows)} rows, expected {EDMD_R}")
    if not all(0.0 <= r <= RESIDUAL_TOL for r in residuals):
        problems.append(f"residuals {residuals} exceed {RESIDUAL_TOL}")
    if any(b > a for a, b in zip(moduli, moduli[1:])):
        problems.append(f"moduli {moduli} are not in descending order")
    if not moduli or not abs(moduli[0] - 1.0) <= LEAD_MODULUS_TOL:
        problems.append(f"leading modulus {moduli[:1]} is not within {LEAD_MODULUS_TOL} of 1")
    return 1, ["edmd: " + "; ".join(problems)] if problems else []


def edmd_eig_err(out: dict) -> float:
    """Largest ||mu_j| - e^{-j theta tau}| for j = 0..r-1."""
    moduli = [float(r["modulus"]) for r in _csv_rows(out["csv"])]
    return max(abs(m - math.exp(-j * THETA * TAU)) for j, m in enumerate(moduli))


def _check_finite_oracle(inputs: dict, out: dict) -> tuple[int, list[str]]:
    failures = []
    if out["convergence_exit"] != 0:
        failures.append(f"convergence: exit code {out['convergence_exit']}")
    else:
        problems = []
        try:
            rows = _csv_rows(out["csv"])
            ns = [int(r["n"]) for r in rows]
            diffs = [float(r["op_norm_diff"]) for r in rows]
            excess = [float(r["exact_excess_risk"]) for r in rows]
        except (KeyError, TypeError, ValueError):
            rows, ns, diffs, excess = [], [], [], []
            problems.append("CSV lacks the oracle columns")
        if ns != list(N_GRID):
            problems.append(f"n column {ns} != {list(N_GRID)}")
        for n, d, e in zip(ns, diffs, excess):
            # the paper's bound: ||A_hat - A||^2 <= excess risk
            if not d * d <= e + OP_NORM_BOUND_TOL:
                problems.append(f"n={n}: op_norm_diff^2 {d * d!r} > excess risk {e!r}")
        for (n0, a), (n1, b) in zip(zip(ns, diffs), zip(ns[1:], diffs[1:])):
            if not b <= MONOTONE_FACTOR * a:
                problems.append(f"op_norm_diff rose from {a!r} (n={n0}) to {b!r} (n={n1})")
        if problems:
            failures.append("convergence: " + "; ".join(problems))
    for seed, (code, text) in zip(inputs["verify_seeds"], out["verify"]):
        rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
        bad = [r[0] for r in rows if r[-1] not in ("PASS", "INFO")]
        if code != 0 or not rows or bad:
            failures.append(f"oracle-verify --seed {seed}: exit code {code}, failing rows {bad}")
    return 1 + len(inputs["verify_seeds"]), failures


def conv_op_norm(out: dict) -> float:
    """The exact op_norm_diff at the largest n of the grid."""
    return float(_csv_rows(out["csv"])[-1]["op_norm_diff"])


def _read_sample(path: str) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return np.array([float(v) for v in lines[2:] if v.strip()])


def reference(inputs: dict) -> dict:
    """Expected values the benchmark computes itself, once per run, before timing.

    For ``mmd-two-sample``: the biased and unbiased squared MMD from one
    joint Gram over P then Q, built with numpy alone and summed over blocks
    of rows.  The benchmark process must stay smaller than a worker, whose
    ``ru_maxrss`` starts at the benchmark's (see worker.py), so this avoids
    scipy and large blocks.
    """
    if inputs["workload"] != "mmd-two-sample":
        return {}
    P, Q = (_read_sample(p) for p in inputs["samples"])
    n, m = len(P), len(Q)
    Z = np.concatenate([P, Q]).reshape(-1, 1)
    spp = sqq = spq = 0.0
    for start in range(0, n + m, REFERENCE_BLOCK):
        K = Z[start:start + REFERENCE_BLOCK] - Z.T
        K *= K
        K *= -1.0 / (2.0 * BANDWIDTH**2)
        np.exp(K, out=K)
        rows = np.arange(start, start + K.shape[0])
        spp += K[rows < n, :n].sum()
        sqq += K[rows >= n, n:].sum()
        spq += K[rows < n, n:].sum()
    return {
        "biased": float(spp / n**2 + sqq / m**2 - 2.0 * spq / (n * m)),
        "unbiased": float(
            (spp - n) / (n * (n - 1)) + (sqq - m) / (m * (m - 1)) - 2.0 * spq / (n * m)
        ),
    }


def _check_mmd(inputs: dict, out: dict) -> tuple[int, list[str]]:
    if out["mmd_exit"] != 0:
        return 1, [f"mmd: exit code {out['mmd_exit']}"]
    report = _json(out["report"])
    if report is None or not all(isinstance(report.get(k), float) for k in ("biased", "unbiased")):
        return 1, ["mmd: stdout lacks the biased/unbiased values"]
    problems = [
        f"{name} {report[name]!r} != reference {want!r}"
        for name, want in inputs["reference"].items()
        if not abs(report[name] - want) <= MMD_RTOL * abs(want)
    ]
    return 1, ["mmd: " + "; ".join(problems)] if problems else []


_CHECKS = {
    "ou-fit-query": _check_ou_fit_query,
    "ou-edmd": _check_ou_edmd,
    "finite-oracle": _check_finite_oracle,
    "mmd-two-sample": _check_mmd,
}

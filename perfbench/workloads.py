"""The four benchmark workloads: seeded inputs and one closed-loop pass each.

Every workload has one caller.  Commands run back to back and queries are
issued one at a time, each after the previous one returns, so the load never
asks for more than the cores the BLAS threads are pinned to.

``make_inputs`` runs in the benchmark process before any timing: it derives
every input from the workload seed (the cmekit ``--seed`` values, the 4-state
model file, the query points and the two MMD sample files) and writes them to
the run's scratch directory.  ``run_pass`` runs in a fresh worker process that
has just imported cmekit; the program sees only the generated inputs.

This module imports cmekit only inside ``run_pass`` so that the benchmark
process never loads the program.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("ou-fit-query", "ou-edmd", "finite-oracle", "mmd-two-sample")

BANDWIDTH = 1.0
THETA = 1.0
TAU = 0.5
FIT_N = 2000
FIT_LAMBDA = 1e-3
QUERIES = 1000
QUERY_RANGE = 1.5
EDMD_N = 4000
EDMD_R = 4
EDMD_LAMBDA = 1e-3
N_GRID = (250, 1000, 4000)
LAMBDA_POWER = 0.25
VERIFY_RUNS = 10
MMD_N = 4000

# the 4-state chain of acceptance criterion 9 (tests/test_acceptance.py)
CONVERGENCE_P = np.array(
    [
        [0.6, 0.2, 0.1, 0.1],
        [0.2, 0.5, 0.2, 0.1],
        [0.1, 0.2, 0.5, 0.2],
        [0.1, 0.1, 0.2, 0.6],
    ]
)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _matrix_lines(name: str, arr: np.ndarray) -> list[str]:
    arr = np.atleast_2d(arr)
    return [f"{name} {arr.shape[0]} {arr.shape[1]}"] + [" ".join(map(_fmt, row)) for row in arr]


def stationary_law(P: np.ndarray) -> np.ndarray:
    """Solve pi (P - I) = 0 with sum(pi) = 1 directly."""
    m = P.shape[0]
    A = np.vstack([P.T - np.eye(m), np.ones((1, m))])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir`` and describe them.

    The same seed gives the same inputs, byte for byte.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    kernel = f"[kernel]\nvariant = gaussian\nbandwidth = {BANDWIDTH}\n"
    ou = f"[data]\nsource = ou\ntheta = {THETA}\ntau = {TAU}\n"
    inputs: dict = {"workload": workload, "seed": seed}
    if workload == "ou-fit-query":
        inputs["estimator_file"] = str(workdir / "estimator.txt")
        inputs["config"] = _write(
            workdir / "estimate.cfg",
            kernel + "[filter]\nvariant = tikhonov\n" + ou
            + f"[run]\nlambda = {FIT_LAMBDA}\nn = {FIT_N}\nseed = {_seed64(rng)}\n"
            f"out = {inputs['estimator_file']}\n",
        )
        inputs["queries"] = rng.uniform(-QUERY_RANGE, QUERY_RANGE, QUERIES).tolist()
    elif workload == "ou-edmd":
        inputs["config"] = _write(
            workdir / "edmd.cfg",
            kernel + ou + f"[run]\nlambda = {EDMD_LAMBDA}\nn = {EDMD_N}\nr = {EDMD_R}\n"
            f"seed = {_seed64(rng)}\nout = {workdir / 'edmd.csv'}\n",
        )
        inputs["out"] = str(workdir / "edmd.csv")
    elif workload == "finite-oracle":
        model_file = workdir / "model.txt"
        lines = ["finite-model v1"]
        lines += _matrix_lines("states", np.arange(4.0).reshape(4, 1))
        lines += ["pi 4", " ".join(map(_fmt, stationary_law(CONVERGENCE_P)))]
        lines += _matrix_lines("transition", CONVERGENCE_P)
        _write(model_file, "\n".join(lines) + "\n")
        data = f"[data]\nsource = finite-model\nmodel_file = {model_file}\n"
        inputs["config"] = _write(
            workdir / "convergence.cfg",
            kernel + data + f"[run]\nn_grid = {' '.join(map(str, N_GRID))}\n"
            f"lambda_schedule = n^-{LAMBDA_POWER}\nseed = {_seed64(rng)}\n"
            f"out = {workdir / 'convergence.csv'}\n",
        )
        inputs["out"] = str(workdir / "convergence.csv")
        inputs["verify_config"] = _write(workdir / "verify.cfg", kernel + data)
        base = _seed64(rng)
        inputs["verify_seeds"] = list(range(base, base + VERIFY_RUNS))
    elif workload == "mmd-two-sample":
        # two different laws: a standard normal and a shifted, wider normal
        P = rng.standard_normal(MMD_N)
        Q = 0.5 + 1.2 * rng.standard_normal(MMD_N)
        files = []
        for name, pts in (("p.txt", P), ("q.txt", Q)):
            lines = ["sample v1"] + _matrix_lines("points", pts.reshape(-1, 1))
            files.append(_write(workdir / name, "\n".join(lines) + "\n"))
        inputs["samples"] = files
        inputs["config"] = _write(
            workdir / "mmd.cfg",
            kernel + f"[data]\nsample_file = {files[0]}\nsample_file_2 = {files[1]}\n",
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one cmekit command in-process: (exit code, stdout, seconds)."""
    from cmekit import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def run_pass(inputs: dict) -> dict:
    """One timed pass of the workload.  Returns raw outputs and timings.

    Nothing here judges the outputs; ``checks.check`` does that afterwards,
    outside the timed part.
    """
    workload = inputs["workload"]
    t0 = time.perf_counter()
    if workload == "ou-fit-query":
        out = _ou_fit_query(inputs)
    elif workload == "ou-edmd":
        code, _, secs = _cli(["edmd", "--config", inputs["config"]])
        out = {"edmd_exit": code, "edmd_s": secs, "csv": _read(inputs["out"], code)}
    elif workload == "finite-oracle":
        code, _, secs = _cli(["convergence", "--config", inputs["config"]])
        out = {"convergence_exit": code, "convergence_s": secs, "csv": _read(inputs["out"], code)}
        verify = []
        t1 = time.perf_counter()
        for s in inputs["verify_seeds"]:
            vcode, text, _ = _cli(["oracle-verify", "--config", inputs["verify_config"], "--seed", str(s)])
            verify.append([vcode, text])
        out["oracle_verify_s"] = time.perf_counter() - t1
        out["verify"] = verify
    elif workload == "mmd-two-sample":
        code, text, secs = _cli(["mmd", "--config", inputs["config"]])
        out = {"mmd_exit": code, "mmd_s": secs, "report": text}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out["wall_s"] = time.perf_counter() - t0
    return out


def _read(path: str, code: int) -> str:
    p = Path(path)
    return p.read_text(encoding="utf-8") if code == 0 and p.is_file() else ""


def _ou_fit_query(inputs: dict) -> dict:
    from cmekit import cli, estimators, pt

    code, text, estimate_s = _cli(["estimate", "--config", inputs["config"]])
    out: dict = {"estimate_exit": code, "estimate_report": text, "estimate_s": estimate_s}
    n_queries = len(inputs["queries"])
    out["predictions"] = [float("nan")] * n_queries
    out["query_ms"] = []
    out["query_errors"] = []
    try:
        t0 = time.perf_counter()
        est = cli.read_estimator(inputs["estimator_file"])
        out["load_s"] = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed load is a counted failure
        out["load_error"] = f"{type(exc).__name__}: {exc}"
        return out
    f_at_Y = np.array([p.coords[0] for p in est.Y])
    points = [pt(x) for x in inputs["queries"]]
    for i, x in enumerate(points):
        t0 = time.perf_counter()
        try:
            out["predictions"][i] = estimators.predict_conditional_expectation(est, x, f_at_Y)
        except Exception as exc:  # noqa: BLE001 - a failed query is a counted failure
            out["query_errors"].append([i, f"query {i}: {type(exc).__name__}: {exc}"])
        out["query_ms"].append(1000.0 * (time.perf_counter() - t0))
    return out

"""cmekit benchmark: one workload, seeded inputs, checked outputs, medians.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates every input from the
seed into a scratch directory of its own (deleted afterwards), then starts
fresh worker processes, each importing cmekit from ``src/`` with BLAS threads
pinned, and runs one closed-loop pass per process until ``--seconds`` have
passed.  Every pass's outputs are checked; a failed check counts a failed
operation.

``--trace 0`` prints the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones: calls, self seconds and counts per span, the
peak-RSS growth per layer, and the tracing overhead as the difference of
the traced and untraced medians of ``wall_s``.  The spans themselves are
written to ``.perfbench_out/``.

Lines before the last describe the machine and every metric by name and
unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402 - after pinning the BLAS threads

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, SPAN_NAMES  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "command_s": "s", "peak_rss_mb": "MB"}
# metrics that exist on one workload only: printed, but not in the result line
WORKLOAD_METRICS = {
    "ou-fit-query": {
        "estimate_s": "s", "load_s": "s", "query_ms_p50": "ms", "query_ms_p90": "ms",
        "query_abs_err": "1",
    },
    "ou-edmd": {"edmd_s": "s", "edmd_eig_err": "1"},
    "finite-oracle": {"convergence_s": "s", "oracle_verify_s": "s", "conv_op_norm": "1"},
    "mmd-two-sample": {"mmd_s": "s"},
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["kernels.entries"] = "count"
    units["cli.estimator_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.rss_growth_mb"] = "MB"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 1, nothing printed)."""


def machine_facts() -> dict:
    """Core count, CPU, caches, interpreter and BLAS; read-only sources only."""
    facts = {"cores": THREADS, "blas_threads": THREADS}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts.update(
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=importlib.metadata.version("scipy"),
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
        file_cache="not controlled: the benchmark does not drop caches",
    )
    return facts


class Runner:
    """Spawns worker processes for one benchmark run."""

    def __init__(self, workdir: Path, inputs: dict, deadline: float):
        self.workdir = workdir
        self.inputs_path = workdir / "inputs.json"
        self.inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, mode: str) -> dict:
        self.count += 1
        tag = f"{mode}-{self.count}"
        result_path = self.workdir / f"{tag}.json"
        spans_path = self.workdir / f"{tag}.spans.json"
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), repr(t_spawn), str(self.inputs_path),
                 str(result_path), mode, str(spans_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["cmekit_file"]).resolve().parent != (ROOT / "src" / "cmekit").resolve():
            raise BenchError(f"cmekit was imported from {result['cmekit_file']}, not from src/")
        if spans_path.is_file():
            result["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
        return result


def median_of(passes: list[dict], key: str) -> float:
    values = [p[key] for p in passes if key in p]
    if not values:
        raise BenchError(f"no pass produced {key}")
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    t_begin = time.perf_counter()
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    lines = [f"machine {json.dumps(machine_facts())}"]
    try:
        inputs = workloads.make_inputs(workload, seed, workdir)
        inputs["reference"] = checks.reference(inputs)
        runner = Runner(workdir, inputs, t_begin + DEADLINE_S)
        setups: list[float] = []
        plain: list[dict] = []
        with_spans: list[dict] = []
        attempted = failed = 0
        failures: list[str] = []
        t0 = time.perf_counter()
        while True:
            mode = "traced" if traced and len(plain) > len(with_spans) else "pass"
            result = runner.spawn(mode)
            setups.append(result["setup_s"])
            attempted += result["attempted"]
            failed += len(result["failures"])
            failures += result["failures"]
            m = result["metrics"]
            if mode == "traced":
                m["layers"] = result["layers"]
                m["spans"] = result["spans"]
                with_spans.append(m)
            else:
                plain.append(m)
            if time.perf_counter() - t0 >= seconds and (not traced or with_spans):
                break
        # every pass is a set-up sample too; top up short runs to SETUP_SAMPLES
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup")["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    lines.append(
        f"workload {workload} seed {seed} passes {len(plain)} traced_passes {len(with_spans)} "
        f"setup_samples {len(setups)} blas_threads {THREADS}"
    )
    for msg in failures[:20]:
        lines.append(f"FAILED {msg}")
    lines.append(f"error_rate {failed / attempted!r} ({failed} of {attempted} operations failed)")
    units = {**END_TO_END, **WORKLOAD_METRICS[workload]}
    values = {"setup_s": float(statistics.median(setups))}
    for key in END_TO_END:
        if key != "setup_s":
            values[key] = median_of(plain, key)
    for key in WORKLOAD_METRICS[workload]:
        if any(key in p for p in plain):
            values[key] = median_of(plain, key)
    for key, unit in units.items():
        lines.append(f"metric {key} {values.get(key, 'n/a (no pass produced it)')!r} {unit}")
    lines.append(f"benchmark_peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0!r}")
    lines.append(f"samples setup_s {[round(v, 4) for v in setups]}")
    lines.append(f"samples wall_s {[round(p['wall_s'], 4) for p in plain]}")
    metrics = {key: {"value": values[key], "unit": END_TO_END[key]} for key in END_TO_END}
    if traced:
        metrics = trace_metrics(workload, seed, plain, with_spans, lines)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def trace_metrics(workload: str, seed: int, plain: list[dict], with_spans: list[dict],
                  lines: list[str]) -> dict:
    units = per_layer_units()
    first = with_spans[0]["layers"]
    values = {}
    for key in units:
        if key.endswith(".self_s") or key.endswith(".rss_growth_mb"):
            values[key] = float(statistics.median(p["layers"][key] for p in with_spans))
        elif key in first:
            values[key] = first[key]
    values["trace.traced_wall_s"] = median_of(with_spans, "wall_s")
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - median_of(plain, "wall_s")
    lines.append(
        f"trace overhead {values['trace.overhead_s']!r} s: traced wall_s "
        f"{values['trace.traced_wall_s']!r} s against untraced {median_of(plain, 'wall_s')!r} s"
    )
    for key, unit in units.items():
        lines.append(f"layer {key} {values[key]!r} {unit}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": [s for p in with_spans for s in p["spans"]]}),
                    encoding="utf-8")
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need seed >= 0 and seconds > 0")
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cmekit" / "__init__.py").is_file():
        print(f"error: no cmekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

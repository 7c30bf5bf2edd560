"""One sha256 per cmekit CLI output on the benchmark's inputs.

usage: python tools/cli_outputs.py [--root DIR]

For each seed in ``SEEDS`` and each benchmark workload, writes the inputs with
``perfbench.workloads.make_inputs`` into a temporary directory and runs one
``perfbench.workloads.run_pass`` over them, in-process as the benchmark does.
It prints one line per output: seed, workload, output name and the sha256 of
the output, where the outputs are the pass's fields other than its timings
(exit codes, stdout, CSVs, oracle-verify runs, predictions) and the estimator
file the pass wrote.  It then runs each of ``EXTRA_RUNS``, CLI streams the
workloads never produce, and prints the same lines for its exit code, stdout,
stderr (less its ``wall_time_ms`` line) and output file.  Text is hashed with
the temporary directory's path replaced by ``WORKDIR``.  The paired-sample runs
read a file of 2-D points, and the point-sample run two, that this script draws
from the seed and writes with 17 significant digits, so every checkout reads
the same bytes.

The program and the benchmark helpers are imported from DIR (default: the
checkout that holds this script), so the listings of two checkouts differ
exactly where a CLI output differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (11, 12, 13)

# (name, command, data source, [filter] lines, [run] lines); "finite-model" takes
# the finite-oracle workload's kernel and model file, "paired-sample" reads the
# file _write_paired_sample writes and "point-samples" the two files
# _write_point_samples writes
EXTRA_RUNS = (
    ("estimate-finite-tikhonov", "estimate", "finite-model", "variant = tikhonov",
     "lambda = 1e-3\nn = 1000"),
    ("estimate-finite-cutoff", "estimate", "finite-model", "variant = cutoff",
     "lambda = 1e-3\nn = 1000"),
    ("estimate-finite-landweber", "estimate", "finite-model",
     "variant = landweber\nsteps = 20\nstep_size = 0.9", "lambda = 1e-3\nn = 1000"),
    ("estimate-ou-cutoff", "estimate", "ou", "variant = cutoff", "lambda = 1e-3\nn = 300"),
    ("estimate-ou-landweber", "estimate", "ou",
     "variant = landweber\nsteps = 20\nstep_size = 0.9", "lambda = 1e-3\nn = 300"),
    ("edmd-ou-dense", "edmd", "ou", None, "lambda = 1e-3\nn = 10\nr = 9"),   # r = n - 1
    ("edmd-double-well", "edmd", "double-well", None, "lambda = 1e-3\nn = 300\nr = 4"),
    ("estimate-paired-2d-tikhonov", "estimate", "paired-sample", "variant = tikhonov",
     "lambda = 1e-3"),
    ("estimate-paired-2d-cutoff", "estimate", "paired-sample", "variant = cutoff",
     "lambda = 1e-3"),
    ("edmd-paired-2d", "edmd", "paired-sample", None, "lambda = 1e-3\nr = 4"),
    ("mmd-points-2d", "mmd", "point-samples", None, ""),
    ("convergence-ou", "convergence", "ou", None,
     "n_grid = 100 200\nlambda_schedule = 1e-2*n^-0.5\nr = 3"),
    ("convergence-double-well", "convergence", "double-well", None,      # refused, exit 2
     "n_grid = 100 200\nlambda_schedule = 1e-2*n^-0.5"),
    ("edmd-finite", "edmd", "finite-model", None, "lambda = 1e-3\nn = 400\nr = 3"),
    ("estimate-double-well", "estimate", "double-well", "variant = tikhonov",
     "lambda = 1e-3\nn = 200"),
)
PAIRED_N = 200
PAIRED_DISTINCT_X = 150     # fewer than PAIRED_N, so x values repeat
POINTS_N = (400, 300)       # each Gram block spans several row blocks


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_timing(key: str) -> bool:
    return key.endswith("_s") or key == "query_ms"


def _write_paired_sample(seed: int, path: Path) -> None:
    """A ``paired-sample v1`` file of PAIRED_N pairs of 2-D points drawn with ``seed``:
    x picked from PAIRED_DISTINCT_X normal points, y a noisy linear image of x."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.standard_normal((PAIRED_DISTINCT_X, 2))[rng.integers(0, PAIRED_DISTINCT_X, PAIRED_N)]
    y = x @ np.array([[0.8, 0.1], [-0.2, 0.7]]) + 0.3 * rng.standard_normal((PAIRED_N, 2))
    _write_blocks(path, "paired-sample v1", {"x": x, "y": y})


def _write_point_samples(seed: int, tmp: Path) -> None:
    """Two ``sample v1`` files of 2-D points drawn with ``seed``: POINTS_N[0] standard
    normal points in p.txt, and POINTS_N[1] from a shifted and wider normal law in q.txt."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    laws = (("p.txt", POINTS_N[0], 0.0, 1.0), ("q.txt", POINTS_N[1], 0.5, 1.3))
    for name, n, shift, scale in laws:
        points = shift + scale * rng.standard_normal((n, 2))
        _write_blocks(tmp / name, "sample v1", {"points": points})


def _write_blocks(path: Path, magic: str, blocks: dict) -> None:
    """A text data file: the magic line, then each (rows, cols) block at 17 significant digits."""
    lines = [magic]
    for name, arr in blocks.items():
        lines += [f"{name} {arr.shape[0]} {arr.shape[1]}"]
        lines += [" ".join("%.17g" % v for v in row) for row in arr]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _extra_outputs(
    seed: int, command: str, source: str, filt: str | None, run: str, tmp: Path
) -> dict:
    """Run one of ``EXTRA_RUNS`` in-process on inputs under ``tmp``: its streams, and the
    bytes of its output file (``None`` if it wrote none)."""
    from cmekit import cli
    from perfbench import workloads as wl

    if source == "finite-model":
        inputs = wl.make_inputs("finite-oracle", seed, tmp)
        head = Path(inputs["verify_config"]).read_text(encoding="utf-8")
    else:
        if source == "paired-sample":
            _write_paired_sample(seed, tmp / "pairs.txt")
        elif source == "point-samples":
            _write_point_samples(seed, tmp)
        data = {
            "ou": f"theta = {wl.THETA}\ntau = {wl.TAU}",
            "double-well": "beta = 3.0\ndt = 0.001\nsteps_per_pair = 10",
            "paired-sample": f"sample_file = {tmp / 'pairs.txt'}",
            "point-samples": f"sample_file = {tmp / 'p.txt'}\nsample_file_2 = {tmp / 'q.txt'}",
        }[source]
        head = (f"[kernel]\nvariant = gaussian\nbandwidth = {wl.BANDWIDTH}\n"
                f"[data]\nsource = {source}\n{data}\n")
    out_file = tmp / "out.txt"
    config = tmp / "extra.cfg"
    config.write_text(
        head + (f"[filter]\n{filt}\n" if filt else "")
        + f"[run]\n{run}\nseed = {seed}\nout = {out_file}\n",
        encoding="utf-8",
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(config)])
    err_lines = [ln for ln in stderr.getvalue().splitlines() if not ln.startswith("wall_time_ms=")]
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": err_lines,
            "out_file": out_file.read_bytes() if out_file.is_file() else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ are run")
    root = parser.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import WORKLOADS, make_inputs, run_pass

    for seed in SEEDS:
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(prefix="cli_outputs_") as tmp:
                inputs = make_inputs(workload, seed, Path(tmp))
                out = run_pass(inputs)
                for key in sorted(k for k in out if not _is_timing(k)):
                    text = json.dumps(out[key]).replace(tmp, "WORKDIR")
                    print(f"{seed} {workload} {key} {_sha256(text.encode())}", flush=True)
                if "estimator_file" in inputs:
                    p = Path(inputs["estimator_file"])
                    digest = _sha256(p.read_bytes()) if p.is_file() else "missing"
                    print(f"{seed} {workload} estimator_file {digest}", flush=True)
        for name, *run in EXTRA_RUNS:
            with tempfile.TemporaryDirectory(prefix="cli_outputs_") as tmp:
                out = _extra_outputs(seed, *run, Path(tmp))
                for key, value in out.items():
                    if not isinstance(value, bytes):
                        value = json.dumps(value).replace(tmp, "WORKDIR").encode()
                    print(f"{seed} {name} {key} {_sha256(value)}", flush=True)
    ran = Path(sys.modules["cmekit"].__file__).resolve()
    if ran.parents[1] != root / "src":  # an installed cmekit would shadow the checkout's
        sys.exit(f"ran cmekit from {ran}, not from {root / 'src'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One sha256 per cmekit CLI output on the benchmark's inputs.

usage: python tools/cli_outputs.py [--root DIR]

For each seed in ``SEEDS`` and each benchmark workload, writes the inputs with
``perfbench.workloads.make_inputs`` into a temporary directory and runs one
``perfbench.workloads.run_pass`` over them, in-process as the benchmark does.
It prints one line per output: seed, workload, output name and the sha256 of
the output, where the outputs are the pass's fields other than its timings
(exit codes, stdout, CSVs, oracle-verify runs, predictions) and the estimator
file the pass wrote.  Text is hashed with the temporary directory's path
replaced by ``WORKDIR``.

The program and the benchmark helpers are imported from DIR (default: the
checkout that holds this script), so the listings of two checkouts differ
exactly where a CLI output differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (11, 12, 13)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_timing(key: str) -> bool:
    return key.endswith("_s") or key == "query_ms"


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
    ran = Path(sys.modules["cmekit"].__file__).resolve()
    if ran.parents[1] != root / "src":  # an installed cmekit would shadow the checkout's
        sys.exit(f"ran cmekit from {ran}, not from {root / 'src'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of cmekit's public functions, installed from outside the package.

``install`` wraps the functions named in ``SPANS`` and rebinds every reference
to them inside the package: the module attribute, each ``from .x import f``
copy in another module, the re-exports of ``cmekit`` and function tables such
as the CLI's command dict.  Every wrapped call opens a span that records its
name, start, end, parent span and run id, plus the process's peak RSS on entry
and exit.  Spans stay in memory until the pass ends.

A span's self time is its duration minus the durations of its direct child
spans, so nested wrapped calls (``gram`` calling ``cross_gram``) never count
time twice.  Kernel entries are counted only where the kernels layer is
entered from outside it, so ``gram``'s inner ``cross_gram`` is not counted
again.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time
from collections import defaultdict

# module -> public function -> span name (the metric prefix)
SPANS = {
    "kernels": {"gram": "kernels.gram", "cross_gram": "kernels.cross_gram"},
    "estimators": {
        "fit_cme": "estimators.fit",
        "fit_tikhonov_closed_form": "estimators.fit",
        "solve_pd": "estimators.solve_pd",
        "empirical_risk": "estimators.risk",
        "hs_norm_sq": "estimators.risk",
        "regularized_empirical_risk": "estimators.risk",
        "predict_conditional_expectation": "estimators.predict",
        "predict_embedding": "estimators.predict",
    },
    "spectral": {
        "edmd_eigen": "spectral.edmd_eigen",
        "eigen_residuals": "spectral.eigen_residuals",
    },
    "models": {
        "sample_pairs": "models.sample",
        "ou_sample_pairs": "models.sample",
        "double_well_pairs": "models.sample",
        "op_norm_diff": "models.oracle",
        "estimator_values": "models.oracle",
        "exact_excess_risk": "models.oracle",
        "exact_operator_values": "models.oracle",
        "exact_risk": "models.oracle",
        "exact_mmd_integral": "models.oracle",
        "generalized_cov_ons_check": "models.oracle",
    },
    "embeddings": {
        "mmd_sq_biased": "embeddings.mmd_sq_biased",
        "mmd_sq_unbiased": "embeddings.mmd_sq_unbiased",
    },
    "cli": {
        "write_estimator": "cli.write_estimator",
        "read_estimator": "cli.read_estimator",
        "cmd_estimate": "cli.command",
        "cmd_edmd": "cli.command",
        "cmd_mmd": "cli.command",
        "cmd_oracle_verify": "cli.command",
        "cmd_convergence": "cli.command",
    },
}

LAYERS = tuple(SPANS)
SPAN_NAMES = tuple(dict.fromkeys(name for funcs in SPANS.values() for name in funcs.values()))

# span index fields
NAME, PARENT, RUN, START, END, RSS0, RSS1 = range(7)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kernel_entries(fn_name: str, args: tuple, kwargs: dict) -> int:
    if fn_name == "gram":
        points = args[1] if len(args) > 1 else kwargs["points"]
        return len(points) ** 2
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    cols = args[2] if len(args) > 2 else kwargs["cols"]
    return len(rows) * len(cols)


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn_name: str, span_name: str, fn):
        layer = span_name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [span_name, parent, self.run_id, time.perf_counter(), None, _peak_rss_mb(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[RSS1] = _peak_rss_mb()
                self._stack.pop()
                if layer == "kernels" and (parent is None or not self.spans[parent][NAME].startswith("kernels.")):
                    self.counts["kernels.entries"] += _kernel_entries(fn_name, args, kwargs)
                if fn_name == "write_estimator":
                    path = args[0] if args else kwargs["path"]
                    if os.path.isfile(path):
                        self.counts["cli.estimator_bytes"] += os.path.getsize(path)

        return traced

    def metrics(self) -> dict[str, float]:
        """Calls and self seconds per span name, self RSS growth per layer, counts."""
        child_time = [0.0] * len(self.spans)
        child_rss = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
                child_rss[span[PARENT]] += span[RSS1] - span[RSS0]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.rss_growth_mb"] = 0.0
        for i, span in enumerate(self.spans):
            name = span[NAME]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += span[END] - span[START] - child_time[i]
            out[f"{name.split('.')[0]}.rss_growth_mb"] += span[RSS1] - span[RSS0] - child_rss[i]
        out["kernels.entries"] = self.counts["kernels.entries"]
        out["cli.estimator_bytes"] = self.counts["cli.estimator_bytes"]
        return out

    def records(self) -> list[dict]:
        keys = ("name", "parent", "run", "start", "end", "peak_rss_mb_start", "peak_rss_mb_end")
        return [dict(zip(keys, span), id=i) for i, span in enumerate(self.spans)]


def install(tracer: Tracer, package: str = "cmekit") -> None:
    """Wrap every function in ``SPANS`` and rebind all references to it."""
    modules = [importlib.import_module(package)] + [
        importlib.import_module(f"{package}.{name}") for name in SPANS
    ]
    for mod_name, funcs in SPANS.items():
        owner = importlib.import_module(f"{package}.{mod_name}")
        for fn_name, span_name in funcs.items():
            original = getattr(owner, fn_name)
            traced = tracer.wrap(fn_name, span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                    elif isinstance(value, dict):
                        for key, item in value.items():
                            if item is original:
                                value[key] = traced

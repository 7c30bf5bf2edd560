"""Batch front door: config-driven experiments with deterministic outputs.

Commands: ``estimate``, ``edmd``, ``mmd``, ``oracle-verify``, ``convergence``.
Each reads a flat key-value config file with ``[section]`` headers (schema in
``docs/config.md``), plus ``--seed`` / ``--out`` overrides.  Identical config,
seed, BLAS library and BLAS thread count give byte-identical file and stdout
output; wall-clock timings go to stderr, outside the deterministic streams.

Exit codes: 0 success (and, for oracle-verify, all checks passed),
1 runtime failure, 2 validation failure (config, file parse, range checks).

Model and sample files are UTF-8 text written with LF line endings and floats
at 17 significant digits, so read(write(x)) restores every double bit-exactly;
``_write_file`` and ``_read_file`` own their layout.  Blank lines are skipped,
and an error's line number counts LF-terminated lines.  ``write_estimator`` and
``read_estimator`` own the ``cme-estimator v2`` layout, which is not text: four
UTF-8 head lines (blank lines among them are skipped), then ``.npy`` records of
C-order little-endian float64, which reload bit-exactly by construction.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import models as md
from .embeddings import _mmd_sq
from .estimators import (
    CmeEstimator,
    Cutoff,
    DivergentStepError,
    Landweber,
    PairedSample,
    SpectralFilter,
    Tikhonov,
    _diagonal_shift,
    _fitted_risk_and_hs,
    fit_cme,
)
from .kernels import (
    GaussianKernel, Kernel, LaplacianKernel, Point, _Adopted, _check_int, _check_positive,
    _point_tuple, coords_matrix,
)
from .spectral import edmd_eigen, eigen_residuals

_FLOAT_FMT = "%.17g"
COND_WARN = 1e10


class ConfigError(Exception):
    """Configuration or input-file validation problem (exit code 2)."""


def _fmt(v: float) -> str:
    return _FLOAT_FMT % float(v)


def _nonblank(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line that is not blank, stripped, with its 1-based line number."""
    for no, raw in enumerate(lines, start=1):
        if line := raw.strip():
            yield no, line


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


@dataclass
class Config:
    """Parsed config: section -> key -> (raw value, line number)."""

    sections: dict[str, dict[str, tuple[str, int]]]
    path: str

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.sections.get(section, {}).get(key, (default, -1))[0]

    def value(self, section: str, key: str, conv=str, default=None):
        """The key's value read by ``conv`` (``str``, ``float`` or ``int``), or ``default`` if it
        is absent; a missing required key or an unreadable value is a ConfigError."""
        raw = self.get(section, key)
        if raw is None:
            if default is not None:
                return default
            raise ConfigError(f"{self.path}: missing required key '{key}' in section [{section}]")
        try:
            return conv(raw)
        except ValueError as exc:
            kind = {float: "a number", int: "an integer"}[conv]
            line = self.sections[section][key][1]
            raise ConfigError(f"{self.path}:{line}: key '{key}' must be {kind}, got '{raw}'") from exc


def parse_config(path: str) -> Config:
    """Parse the flat sectioned key-value format with line diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, line in _nonblank(text.splitlines()):
        if line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section header")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key-value pair before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            first = sections[current][key][1]
            raise ConfigError(f"{path}:{lineno}: key '{key}' in [{current}] repeats line {first}")
        sections[current][key] = (value.strip(), lineno)
    return Config(sections=sections, path=path)


# Each kernel and filter variant, spelled once: its name in configs and
# files, its class, and its parameters in file order with their types.
# Config keys and the class's field names are the parameter names.
_KERNELS = {
    "gaussian": (GaussianKernel, (("bandwidth", float),)),
    "laplacian": (LaplacianKernel, (("scale", float),)),
}
_FILTERS = {
    "tikhonov": (Tikhonov, ()),
    "cutoff": (Cutoff, ()),
    "landweber": (Landweber, (("steps", int), ("step_size", float))),
}

# Each sampled data source: its sampler's name in models, and its [data]
# parameters in call order, before n and seed.  The name is looked up at each
# draw, so a rebinding of the models attribute (span tracing, tests) applies.
_SOURCES = {
    "finite-model": ("sample_pairs", ()),
    "ou": ("ou_sample_pairs", (("theta", float), ("tau", float))),
    "double-well": ("double_well_pairs", (("beta", float), ("dt", float), ("steps_per_pair", int))),
}


@contextmanager
def _invalid(where: str):
    """Report a ValueError from parsing or building outside values as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _spec(table: dict, what: str, variant: str, where: str) -> tuple:
    if variant not in table:
        raise ConfigError(f"{where}: unknown {what} variant '{variant}'")
    return table[variant]


def _config_args(cfg: Config, section: str, params: tuple) -> list:
    return [cfg.value(section, key, conv) for key, conv in params]


def _from_config(cfg: Config, section: str, table: dict):
    cls, params = _spec(table, section, cfg.value(section, "variant").lower(), cfg.path)
    args = _config_args(cfg, section, params)
    with _invalid(f"{cfg.path}: [{section}]"):
        return cls(*args)


def _from_tokens(table: dict, what: str, where: str, tokens: list[str]):
    cls, params = _spec(table, what, tokens[0] if tokens else "", where)
    with _invalid(f"{where}: bad {what} line"):
        if len(tokens) != 1 + len(params):
            raise ValueError(f"expected {len(params)} parameter(s) after '{tokens[0]}'")
        return cls(*(conv(t) for (_, conv), t in zip(params, tokens[1:])))


def _variant(table: dict, obj) -> tuple[str, dict]:
    """The table name and the parameter values of a kernel or filter."""
    for name, (cls, params) in table.items():
        if isinstance(obj, cls):
            return name, {key: getattr(obj, key) for key, _ in params}
    raise ValueError(f"{type(obj).__name__} has no file or report representation")


def _spec_line(what: str, table: dict, obj) -> str:
    name, params = _variant(table, obj)
    values = (_fmt(v) if isinstance(v, float) else str(v) for v in params.values())
    return " ".join([what, name, *values])


def build_kernel(cfg: Config) -> Kernel:
    return _from_config(cfg, "kernel", _KERNELS)


def build_filter(cfg: Config) -> SpectralFilter:
    return _from_config(cfg, "filter", _FILTERS)


def _kernel_json(kernel: Kernel) -> dict:
    name, params = _variant(_KERNELS, kernel)
    return {"variant": name, **params}


# ---------------------------------------------------------------------------
# data files: the text formats, then the cme-estimator v2 file
# ---------------------------------------------------------------------------


def _opened(path: str):
    """``path`` opened for binary reading; a file that cannot be opened is a ConfigError."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read file {path}: {exc}") from exc


def _write_file(path: str, magic: str, blocks: dict[str, np.ndarray]) -> None:
    """Write the ``magic`` line, then each block as ``name dims...`` and its rows."""
    with open(path, "wb") as fh:
        fh.write(magic.encode("utf-8") + b"\n")
        for name, arr in blocks.items():
            fh.write(" ".join([name, *map(str, arr.shape)]).encode("utf-8") + b"\n")
            np.savetxt(fh, np.atleast_2d(arr), fmt=_FLOAT_FMT)


def _parse_rows(rows: list[str], cols: int) -> Optional[np.ndarray]:
    """The rows as a (len(rows), cols) array, or None if any row does not fit."""
    try:
        arr = np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        return None
    return arr if arr.shape[1] == cols else None


def _read_file(path: str, magic: str, schema: dict[str, int], optional: str = "") -> dict:
    """Parse a text file laid out as ``schema`` maps block name -> ndim (1 or 2), in order.

    The file starts with the line ``magic``.  A block is a header ``name
    length`` or ``name rows cols``, then one line of ``length`` numbers or
    ``rows`` lines of ``cols`` numbers; it reads as an array of those
    dimensions.  Blank lines are skipped everywhere, line numbers count
    LF-terminated lines, and no other line follows the last block.  The
    ``optional`` block may be missing at the end of the file.
    """
    with _opened(path) as fh:
        lines = _nonblank(fh.read().decode("utf-8", errors="replace").split("\n"))
    if next(lines, (0, ""))[1] != magic:
        raise ConfigError(f"{path}: not a {magic} file")
    out: dict = {}
    for name, ndim in schema.items():
        entry = next(lines, None)
        if entry is None:
            if name == optional:
                break
            raise ConfigError(f"{path}: unexpected end of file, expected '{name}'")
        no, line = entry
        parts = line.split()
        if parts[0] != name or len(parts) != 1 + ndim:
            raise ConfigError(
                f"{path}:{no}: expected '{name}' with {ndim} dimension(s), got '{line}'"
            )
        with _invalid(f"{path}:{no}: bad dimensions in '{line}'"):
            dims = [int(p) for p in parts[1:]]
            if min(dims) < 0:
                raise ValueError("dimensions must be >= 0")
        rows, cols = dims if ndim == 2 else (1, dims[0])
        chunk = list(itertools.islice(lines, rows))
        if len(chunk) < rows:
            raise ConfigError(
                f"{path}:{no}: '{name}' declares {rows} row(s), the file ends after {len(chunk)}"
            )
        arr = _parse_rows([s for _, s in chunk], cols) if rows else np.empty((0, cols))
        if arr is None:
            bad = next((n for n, s in chunk if _parse_rows([s], cols) is None), no)
            raise ConfigError(f"{path}:{bad}: expected {cols} numbers in this row of '{name}'")
        out[name] = arr if ndim == 2 else arr[0]
    if (extra := next(lines, None)) is not None:
        raise ConfigError(f"{path}:{extra[0]}: unexpected '{extra[1]}' after the last block")
    return out


def write_model_file(path: str, model: md.FiniteMarkovModel) -> None:
    blocks = {"states": coords_matrix(model.states), "pi": model.marginal,
              "transition": model.transition, "transition-alt": model.transition_alt}
    _write_file(path, "finite-model v1", {k: a for k, a in blocks.items() if a is not None})


def read_model_file(path: str) -> md.FiniteMarkovModel:
    schema = {"states": 2, "pi": 1, "transition": 2, "transition-alt": 2}
    b = _read_file(path, "finite-model v1", schema, optional="transition-alt")
    with _invalid(f"{path}: invalid model"):
        return md.FiniteMarkovModel(b["states"], b["pi"], b["transition"], b.get("transition-alt"))


def write_paired_sample(path: str, sample: PairedSample) -> None:
    xy = {"x": coords_matrix(sample.X), "y": coords_matrix(sample.Y)}
    _write_file(path, "paired-sample v1", xy)


def read_paired_sample(path: str) -> PairedSample:
    b = _read_file(path, "paired-sample v1", {"x": 2, "y": 2})
    with _invalid(f"{path}: invalid sample"):
        return PairedSample(X=b["x"], Y=b["y"])


def write_point_sample(path: str, points: Sequence[Point]) -> None:
    _write_file(path, "sample v1", {"points": coords_matrix(points)})


def read_point_sample(path: str) -> Sequence[Point]:
    pts = _read_file(path, "sample v1", {"points": 2})["points"]
    with _invalid(f"{path}: invalid sample"):
        return _point_tuple(pts, "sample points")


_NPY_DTYPE = np.dtype("<f8")


def write_estimator(path: str, est: CmeEstimator) -> None:
    """Serialize an estimator as ``cme-estimator v2``; read(write(e)) is bit-exact."""
    head = [
        "cme-estimator v2",
        _spec_line("kernel", _KERNELS, est.kernel),
        f"lambda {_fmt(est.lam)}",
        _spec_line("filter", _FILTERS, est.filt),
    ]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in head).encode("utf-8"))
        for arr in (coords_matrix(est.X), coords_matrix(est.Y), est.W):
            arr = np.ascontiguousarray(arr, dtype=_NPY_DTYPE)
            np.lib.format.write_array(fh, arr, allow_pickle=False)


def read_estimator(path: str) -> CmeEstimator:
    """Load a ``cme-estimator v2`` file.

    The head lines name the kernel, lambda and filter.  The records, back to
    back with nothing after them, are x (p, d), y (q, d') and w (q, p), as
    ``CmeEstimator`` requires; ``estimate`` writes the support estimator, p and
    q the numbers of distinct x and y values (p = q = n when no value repeats).
    """
    with _opened(path) as fh:
        # lazy, so that the records start where the head lines end
        lines = _nonblank(raw.decode("utf-8", errors="replace") for raw in fh)
        if next(lines, (0, ""))[1] != "cme-estimator v2":
            raise ConfigError(f"{path}: not a cme-estimator v2 file")
        head = {}
        for name in ("kernel", "lambda", "filter"):
            no, line = next(lines, (0, ""))
            if not line:
                raise ConfigError(f"{path}: unexpected end of file, expected '{name}'")
            first, *tokens = line.split()
            if first != name:
                raise ConfigError(f"{path}:{no}: expected '{name}', got '{line}'")
            head[name] = (f"{path}:{no}", tokens)
        records = []
        for name in ("x", "y", "w"):
            # MemoryError: a record header that declares more data than fits
            try:
                arr = np.lib.format.read_array(fh, allow_pickle=False)
            except (ValueError, MemoryError) as exc:
                raise ConfigError(f"{path}: bad .npy record '{name}': {exc}") from exc
            if arr.dtype != _NPY_DTYPE or arr.ndim != 2:
                raise ConfigError(
                    f"{path}: record '{name}' must be 2-dimensional {_NPY_DTYPE}, "
                    f"got {arr.dtype} of shape {arr.shape}"
                )
            records.append(arr)
        if fh.read(1):
            raise ConfigError(f"{path}: unexpected bytes after the last record")
    kernel = _from_tokens(_KERNELS, "kernel", *head["kernel"])
    filt = _from_tokens(_FILTERS, "filter", *head["filter"])
    where, tokens = head["lambda"]
    with _invalid(f"{where}: bad lambda line"):
        (lam,) = map(float, tokens)
    x, y, w = records
    with _invalid(f"{path}: invalid estimator"):
        return CmeEstimator(kernel=kernel, lam=lam, filt=filt, X=x, Y=y, W=_Adopted(w))


# ---------------------------------------------------------------------------
# data sources
# ---------------------------------------------------------------------------


def _load_sample(
    cfg: Config, seed: int, n: Optional[int] = None, model: Optional[md.FiniteMarkovModel] = None
) -> PairedSample:
    """The pairs in ``sample_file``, or ``n`` pairs (default ``[run] n``) drawn with ``seed``;
    a finite-model source draws from ``model`` when given, without reading the file again."""
    source = cfg.value("data", "source").lower()
    if source == "paired-sample":
        return read_paired_sample(cfg.value("data", "sample_file"))
    if source not in _SOURCES:
        raise ConfigError(f"{cfg.path}: unknown data source '{source}'")
    sampler, params = _SOURCES[source]
    if source == "finite-model" and model is None:
        model = read_model_file(cfg.value("data", "model_file"))
    n = _run_n(cfg) if n is None else n
    args = [model] if source == "finite-model" else _config_args(cfg, "data", params)
    # values from the config reach the samplers unchecked until here
    with _invalid(f"{cfg.path}: invalid sampling parameters"):
        return getattr(md, sampler)(*args, n, seed)


def _run_n(cfg: Config) -> int:
    """``[run] n``, the number of pairs a sampled source draws."""
    with _invalid(cfg.path):
        return _check_int("n", cfg.value("run", "n", int))


def _resolve_seed(cfg: Config, override: Optional[int]) -> int:
    seed = cfg.value("run", "seed", int, default=0) if override is None else override
    with _invalid(cfg.path):
        md._generator(seed)             # the samplers' seed rule, before any work
    return seed


def _resolve_lambda(cfg: Config) -> float:
    with _invalid(cfg.path):
        return _check_positive("lambda", cfg.value("run", "lambda", float))


def _resolve_r(cfg: Config, n: int, default: Optional[int] = None) -> int:
    with _invalid(cfg.path):
        return _check_int("r", cfg.value("run", "r", int, default=default), 1, n)


def _resolve_out(cfg: Config, override: Optional[str], required: bool = True) -> Optional[str]:
    out = override if override is not None else cfg.get("run", "out")
    if out is None and required:
        raise ConfigError(f"{cfg.path}: no output path: set [run] out or pass --out")
    if out is not None and not os.access(Path(out).parent, os.W_OK):
        raise ConfigError(f"{out}: the output directory does not exist or is not writable")
    if out is not None and Path(out).is_dir():
        raise ConfigError(f"{out}: the output path is a directory")
    return out


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_system(fit, where: str = "", output: str = "", jitter_too: bool = False) -> None:
    """Warn of ``fit``'s jitter, or else of a condition bound above ``COND_WARN``, which may
    cost ``output`` its digits (and the jitter, ``jitter_too``)."""
    system = f"warning: {where}G_X + n*lambda*I"
    if fit.jitter:
        note = f"; {output} has no correct digits" if jitter_too else ""
        _log(f"{system} is not positive definite; jitter {fit.jitter:.3e} added{note}")
    elif fit.cond_lower_bound > COND_WARN:
        bound = f"{fit.cond_lower_bound:.3e}"
        _log(f"{system} has condition number >= {bound}; {output} may have no correct digits")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_estimate(cfg: Config, seed: Optional[int], out: Optional[str]) -> int:
    kernel = build_kernel(cfg)
    filt = build_filter(cfg)
    lam = _resolve_lambda(cfg)
    out_path = _resolve_out(cfg, out)
    sample = _load_sample(cfg, _resolve_seed(cfg, seed))
    if isinstance(filt, Tikhonov):
        with _invalid(cfg.path):        # an n*lambda that overflows, before the fit factors
            _diagonal_shift(sample.n, lam)
    try:
        est = fit_cme(sample, kernel, filt, lam)
    except DivergentStepError as exc:
        raise ConfigError(f"{cfg.path}: [filter] {exc}") from exc
    _warn_system(est, output="the risk report")
    write_estimator(out_path, est)
    risk, hs = _fitted_risk_and_hs(est, sample)
    metrics = {
        "command": "estimate",
        "n": sample.n,
        "lambda": lam,
        "empirical_risk": risk,
        "regularized_empirical_risk": risk + lam * hs,
        "hs_norm_sq": hs,
        "estimator_file": out_path,
    }
    sys.stdout.write(json.dumps(metrics, indent=2) + "\n")
    return 0


def cmd_edmd(cfg: Config, seed: Optional[int], out: Optional[str]) -> int:
    kernel = build_kernel(cfg)
    lam = _resolve_lambda(cfg)
    out_path = _resolve_out(cfg, out)
    the_seed = _resolve_seed(cfg, seed)
    if cfg.value("data", "source").lower() in _SOURCES:
        _resolve_r(cfg, _run_n(cfg))        # before the draw, which can take seconds
    sample = _load_sample(cfg, the_seed)
    r = _resolve_r(cfg, sample.n)
    if coords_matrix(sample.X).shape[1] != coords_matrix(sample.Y).shape[1]:  # paired files only
        raise ConfigError(f"{cfg.get('data', 'sample_file')}: edmd needs x and y of one dimension")
    with _invalid(cfg.path):
        _diagonal_shift(sample.n, lam)
    result = edmd_eigen(sample, kernel, lam, r)
    _warn_system(result, output="the residual column", jitter_too=True)
    residuals = eigen_residuals(result)
    rows = ["index,re,im,modulus,residual"]
    for j, (mu, res) in enumerate(zip(result.eigenvalues, residuals)):
        rows.append(
            f"{j},{_fmt(mu.real)},{_fmt(mu.imag)},{_fmt(abs(mu))},{_fmt(res)}"
        )
    _emit("\n".join(rows) + "\n", out_path)
    return 0


def cmd_mmd(cfg: Config, seed: Optional[int], out: Optional[str]) -> int:
    del seed  # sample files fix the data; nothing random here
    kernel = build_kernel(cfg)
    files = [cfg.value("data", key) for key in ("sample_file", "sample_file_2")]
    P, Q = map(read_point_sample, files)
    d_p, d_q = (coords_matrix(S).shape[1] for S in (P, Q))
    if d_p != d_q:
        raise ConfigError(f"{files[0]}, {files[1]}: points of dimension {d_p} and {d_q}")
    out_path = _resolve_out(cfg, out, required=False)
    # the biased estimate exists for any nonempty samples; the unbiased one
    # needs two points per side, and its absence is a validation failure
    biased, unbiased = _mmd_sq(kernel, P, Q)
    report = {
        "command": "mmd",
        "n": len(P),
        "m": len(Q),
        "kernel": _kernel_json(kernel),
        "biased": biased,
        "unbiased": unbiased,
    }
    _emit(json.dumps(report, indent=2) + "\n", out_path)
    if unbiased is None:
        _log("error: the unbiased estimator needs n, m >= 2; reported as null")
        return 2
    return 0


def cmd_oracle_verify(cfg: Config, seed: Optional[int], out: Optional[str]) -> int:
    kernel = build_kernel(cfg)
    model = read_model_file(cfg.value("data", "model_file"))
    out_path = _resolve_out(cfg, out, required=False)
    rows = md.verify(model, kernel, _resolve_seed(cfg, seed))
    width = max(len(r[0]) for r in rows)
    lines = [f"{'check'.ljust(width)}  {'lhs':>24} {'rhs':>24} {'tolerance':>10} verdict"]
    for name, lhs, rhs, tol, verdict in rows:
        lines.append(
            f"{name.ljust(width)}  {lhs:>24.16e} {rhs:>24.16e} {tol:>10.1e} {verdict}"
        )
    _emit("\n".join(lines) + "\n", out_path)
    return 0 if all(r[4] != "FAIL" for r in rows) else 1


def _parse_schedule(cfg: Config) -> tuple[float, float]:
    """Parse 'c*n^-p' (or 'n^-p'), requiring c > 0 and p in (0, 1)."""
    raw = cfg.value("run", "lambda_schedule").replace(" ", "")
    match = re.fullmatch(r"(?:([0-9.eE+-]+)\*)?n\^(-[0-9.eE+-]+)", raw)
    with _invalid(f"{cfg.path}: lambda_schedule must be 'c*n^-p' with finite c > 0, p in (0,1)"):
        if match is None:
            raise ValueError(f"got '{raw}'")
        c = float(match.group(1) or 1.0)
        p = -float(match.group(2))
        if not (0.0 < p < 1.0 and 0.0 < c < np.inf):
            raise ValueError(f"got c={c}, p={p}")
    return c, p


def cmd_convergence(cfg: Config, seed: Optional[int], out: Optional[str]) -> int:
    kernel = build_kernel(cfg)
    raw = cfg.value("run", "n_grid")
    with _invalid(f"{cfg.path}: n_grid"):
        grid = [_check_int("entry", int(g)) for g in raw.split()]
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"entries must be strictly ascending, got '{raw}'")
    c, p = _parse_schedule(cfg)
    the_seed = _resolve_seed(cfg, seed)
    source = cfg.value("data", "source").lower()
    if source not in ("finite-model", "ou"):
        raise ConfigError(f"{cfg.path}: convergence supports finite-model or ou sources")
    out_path = _resolve_out(cfg, out)
    model = None
    if source == "finite-model":
        model = read_model_file(cfg.value("data", "model_file"))
        md._state_gram(model, kernel)       # a singular K_E fails before the first fit
    else:
        theta, tau = _config_args(cfg, "data", _SOURCES["ou"][1])
        r = _resolve_r(cfg, grid[0], default=3)

    rows = ["n,lambda,op_norm_diff,exact_excess_risk,eig_errors"]
    for n in grid:
        lam = c * n ** (-p)
        with _invalid(cfg.path):
            _diagonal_shift(n, lam)
        sample = _load_sample(cfg, the_seed, n, model)
        if model is not None:
            est = fit_cme(sample, kernel, Tikhonov(), lam)
            _warn_system(est, f"n = {n}: ", "its row")
            diff, excess = md._oracle_pair(est, model)
            rows.append(f"{n},{_fmt(lam)},{_fmt(diff)},{_fmt(excess)},")
        else:
            result = edmd_eigen(sample, kernel, lam, r)
            _warn_system(result, f"n = {n}: ", "its row")
            targets = np.exp(-np.arange(r) * theta * tau)
            errors = np.abs(np.abs(result.eigenvalues) - targets)
            rows.append(f"{n},{_fmt(lam)},,,{';'.join(_fmt(e) for e in errors)}")
    _emit("\n".join(rows) + "\n", out_path)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "estimate": cmd_estimate,
    "edmd": cmd_edmd,
    "mmd": cmd_mmd,
    "oracle-verify": cmd_oracle_verify,
    "convergence": cmd_convergence,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="cmekit",
        description="Conditional expectation operator estimation, kernel EDMD, "
        "MMD, and exact finite-state oracle verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None, help="override [run] seed")
        cmd.add_argument("--out", default=None, help="override [run] out")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        t0 = time.perf_counter()
        code = _COMMANDS[args.command](cfg, args.seed, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _log(f"wall_time_ms={1000.0 * (time.perf_counter() - t0):.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Batch front door: config-driven experiments with deterministic outputs.

Commands: ``estimate``, ``edmd``, ``mmd``, ``oracle-verify``, ``convergence``.
Each reads a flat key-value config file with ``[section]`` headers (schema in
``docs/config.md``), plus ``--seed`` / ``--out`` overrides.  Identical config,
seed, BLAS library and BLAS thread count give byte-identical file and stdout
output; wall-clock timings go to stderr, outside the deterministic streams.

Exit codes: 0 success (and, for oracle-verify, all checks passed),
1 runtime failure, 2 validation failure (config, file parse, range checks).

Model and sample files are UTF-8 text with LF line endings, '.' decimal
separator, and floats printed with 17 significant digits, so that
read(write(x)) restores every IEEE double bit-exactly.  A ``cme-estimator v2``
file is not text: a few UTF-8 head lines followed by ``.npy`` records of
C-order little-endian float64, which reload bit-exactly by construction.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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
    GaussianKernel, Kernel, LaplacianKernel, Point, _Adopted, _point_tuple, coords_matrix,
)
from .spectral import edmd_eigen, eigen_residuals

_FLOAT_FMT = "%.17g"
COND_WARN = 1e10


class ConfigError(Exception):
    """Configuration or input-file validation problem (exit code 2)."""


def _fmt(v: float) -> str:
    return _FLOAT_FMT % float(v)


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

    def require(self, section: str, key: str) -> str:
        return self._typed(section, key, str, "text")

    def _typed(self, section: str, key: str, conv, kind: str, default=None):
        raw = self.get(section, key)
        if raw is None:
            if default is not None:
                return default
            raise ConfigError(f"{self.path}: missing required key '{key}' in section [{section}]")
        line = self.sections[section][key][1]
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self.path}:{line}: key '{key}' must be {kind}, got '{raw}'"
            ) from exc

    def get_float(self, section: str, key: str, default: Optional[float] = None) -> float:
        return self._typed(section, key, float, "a number", default)

    def get_int(self, section: str, key: str, default: Optional[int] = None) -> int:
        return self._typed(section, key, int, "an integer", default)


def parse_config(path: str) -> Config:
    """Parse the flat sectioned key-value format with line diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"{path}:{lineno}: empty section header")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key-value pair before any [section] header")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = (value.strip(), lineno)
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
    return [
        cfg.get_int(section, key) if conv is int else cfg.get_float(section, key)
        for key, conv in params
    ]


def _from_config(cfg: Config, section: str, table: dict):
    cls, params = _spec(table, section, cfg.require(section, "variant").lower(), cfg.path)
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
# data files: a magic line, token lines, then blocks of 17-digit decimals or,
# in the formats named in _NPY_FORMATS, .npy records
# ---------------------------------------------------------------------------

_NPY_FORMATS = ("cme-estimator v2",)
_NPY_DTYPE = np.dtype("<f8")


def _write_file(path: str, head: Sequence[str], blocks: dict[str, np.ndarray]) -> None:
    """Write the ``head`` lines, then each block.

    A block is ``name dims...`` and its rows, or, when the magic line
    ``head[0]`` is in ``_NPY_FORMATS``, one ``.npy`` record of the array.
    """
    npy = head[0] in _NPY_FORMATS
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in head).encode("utf-8"))
        for name, arr in blocks.items():
            arr = np.ascontiguousarray(arr, dtype=_NPY_DTYPE)
            if npy:
                np.lib.format.write_array(fh, arr, allow_pickle=False)
            else:
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
    """Parse a file laid out as ``schema`` maps entry name -> ndim, in order.

    ``magic`` is the magic line the file must start with.  An ndim-0 entry is
    a token line ``name tokens...`` and reads as ``(where, tokens)``, ``where``
    being ``path:line``.  An ndim-1 or ndim-2 entry is a block and reads as an
    array of those dimensions.  In a text file a block is a header ``name
    length`` or ``name rows cols``, then one line of ``length`` numbers or
    ``rows`` lines of ``cols`` numbers; blank lines are skipped everywhere, and
    no other line follows the last block.  In a file whose magic line is in
    ``_NPY_FORMATS`` the token lines come first and each block is one ``.npy``
    record of float64, with nothing after the last.  The ``optional`` entry
    may be missing at the end of the file.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read file {path}: {exc}") from exc
    with fh:
        # lazy, so that in an .npy format the records start where the token lines end
        lines = (
            (no, text)
            for no, raw in enumerate(fh, start=1)
            if (text := raw.decode("utf-8", errors="replace").strip())
        )
        if next(lines, (0, ""))[1] != magic:
            raise ConfigError(f"{path}: not a {magic} file")
        npy = magic in _NPY_FORMATS
        out: dict = {}
        for name, ndim in schema.items():
            if npy and ndim:
                # MemoryError: a record header that declares more data than fits
                try:
                    arr = np.lib.format.read_array(fh, allow_pickle=False)
                except (ValueError, MemoryError) as exc:
                    raise ConfigError(f"{path}: bad .npy record '{name}': {exc}") from exc
                if arr.dtype != _NPY_DTYPE or arr.ndim != ndim:
                    raise ConfigError(
                        f"{path}: record '{name}' must be {ndim}-dimensional {_NPY_DTYPE}, "
                        f"got {arr.dtype} of shape {arr.shape}"
                    )
                out[name] = arr
                continue
            entry = next(lines, None)
            if entry is None:
                if name == optional:
                    break
                raise ConfigError(f"{path}: unexpected end of file, expected '{name}'")
            no, line = entry
            parts = line.split()
            if parts[0] != name or (ndim and len(parts) != 1 + ndim):
                shape = f" with {ndim} dimension(s)" if ndim else ""
                raise ConfigError(f"{path}:{no}: expected '{name}'{shape}, got '{line}'")
            if ndim == 0:
                out[name] = (f"{path}:{no}", parts[1:])
                continue
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
        if npy:
            if fh.read(1):
                raise ConfigError(f"{path}: unexpected bytes after the last record")
        elif (extra := next(lines, None)) is not None:
            raise ConfigError(f"{path}:{extra[0]}: unexpected '{extra[1]}' after the last block")
    return out


def write_model_file(path: str, model: md.FiniteMarkovModel) -> None:
    blocks = {
        "states": coords_matrix(model.states),
        "pi": model.marginal,
        "transition": model.transition,
    }
    if model.transition_alt is not None:
        blocks["transition-alt"] = model.transition_alt
    _write_file(path, ["finite-model v1"], blocks)


def read_model_file(path: str) -> md.FiniteMarkovModel:
    b = _read_file(
        path,
        "finite-model v1",
        {"states": 2, "pi": 1, "transition": 2, "transition-alt": 2},
        optional="transition-alt",
    )
    with _invalid(f"{path}: invalid model"):
        return md.FiniteMarkovModel(
            b["states"], b["pi"], b["transition"], b.get("transition-alt")
        )


def write_paired_sample(path: str, sample: PairedSample) -> None:
    _write_file(
        path, ["paired-sample v1"], {"x": coords_matrix(sample.X), "y": coords_matrix(sample.Y)}
    )


def read_paired_sample(path: str) -> PairedSample:
    b = _read_file(path, "paired-sample v1", {"x": 2, "y": 2})
    with _invalid(f"{path}: invalid sample"):
        return PairedSample(X=b["x"], Y=b["y"])


def write_point_sample(path: str, points: Sequence[Point]) -> None:
    _write_file(path, ["sample v1"], {"points": coords_matrix(points)})


def read_point_sample(path: str) -> Sequence[Point]:
    pts = _read_file(path, "sample v1", {"points": 2})["points"]
    with _invalid(f"{path}: invalid sample"):
        return _point_tuple(pts, "sample points")


def write_estimator(path: str, est: CmeEstimator) -> None:
    """Serialize an estimator as ``cme-estimator v2``; read(write(e)) is bit-exact."""
    head = [
        "cme-estimator v2",
        _spec_line("kernel", _KERNELS, est.kernel),
        f"lambda {_fmt(est.lam)}",
        _spec_line("filter", _FILTERS, est.filt),
    ]
    _write_file(path, head, {"x": coords_matrix(est.X), "y": coords_matrix(est.Y), "w": est.W})


def read_estimator(path: str) -> CmeEstimator:
    """Load a ``cme-estimator v2`` file.

    The records are x (p, d), y (q, d') and w (q, p), as ``CmeEstimator``
    requires; ``estimate`` writes the support estimator, p and q the numbers
    of distinct x and y values (p = q = n when no value repeats).
    """
    b = _read_file(
        path, "cme-estimator v2", {"kernel": 0, "lambda": 0, "filter": 0, "x": 2, "y": 2, "w": 2}
    )
    kernel = _from_tokens(_KERNELS, "kernel", *b["kernel"])
    filt = _from_tokens(_FILTERS, "filter", *b["filter"])
    where, tokens = b["lambda"]
    with _invalid(f"{where}: bad lambda line"):
        (lam,) = map(float, tokens)
    with _invalid(f"{path}: invalid estimator"):
        return CmeEstimator(
            kernel=kernel, lam=lam, filt=filt, X=b["x"], Y=b["y"], W=_Adopted(b["w"])
        )


# ---------------------------------------------------------------------------
# data sources
# ---------------------------------------------------------------------------


def _load_sample(
    cfg: Config, seed: int, n: Optional[int] = None, model: Optional[md.FiniteMarkovModel] = None
) -> PairedSample:
    """The pairs in ``sample_file``, or ``n`` pairs (default ``[run] n``) drawn with ``seed``;
    a finite-model source draws from ``model`` when given, without reading the file again."""
    source = cfg.require("data", "source").lower()
    if source == "paired-sample":
        return read_paired_sample(cfg.require("data", "sample_file"))
    if source not in _SOURCES:
        raise ConfigError(f"{cfg.path}: unknown data source '{source}'")
    sampler, params = _SOURCES[source]
    if source == "finite-model" and model is None:
        model = read_model_file(cfg.require("data", "model_file"))
    n = _run_n(cfg) if n is None else n
    args = [model] if source == "finite-model" else _config_args(cfg, "data", params)
    # values from the config reach the samplers unchecked until here
    with _invalid(f"{cfg.path}: invalid sampling parameters"):
        return getattr(md, sampler)(*args, n, seed)


def _run_n(cfg: Config) -> int:
    """``[run] n``, the number of pairs a sampled source draws."""
    n = cfg.get_int("run", "n", default=0)
    if n < 1:
        raise ConfigError(f"{cfg.path}: sampled data sources need n >= 1 in [run]")
    return n


def _resolve_seed(cfg: Config, override: Optional[int]) -> int:
    seed = cfg.get_int("run", "seed", default=0) if override is None else override
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{cfg.path}: seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _resolve_lambda(cfg: Config) -> float:
    lam = cfg.get_float("run", "lambda")
    if not 0.0 < lam < np.inf:
        raise ConfigError(f"{cfg.path}: lambda must be > 0 and finite, got {lam}")
    return lam


def _resolve_r(cfg: Config, n: int, default: Optional[int] = None) -> int:
    r = cfg.get_int("run", "r", default=default)
    if not 1 <= r <= n:
        raise ConfigError(f"{cfg.path}: r out of range: need 1 <= r <= n = {n}, got {r}")
    return r


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


def _warn_jitter(jitter: float, where: str = "", note: str = "") -> None:
    if jitter:
        _log(
            f"warning: {where}G_X + n*lambda*I is not positive definite; "
            f"jitter {jitter:.3e} added{note}"
        )


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
    _warn_jitter(est.jitter)
    if not est.jitter and est.cond_lower_bound > COND_WARN:
        _log(
            f"warning: G_X + n*lambda*I has condition number >= {est.cond_lower_bound:.3e}; "
            "the risk report may have no correct digits"
        )
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
    if cfg.require("data", "source").lower() in _SOURCES:
        _resolve_r(cfg, _run_n(cfg))        # before the draw, which can take seconds
    sample = _load_sample(cfg, the_seed)
    r = _resolve_r(cfg, sample.n)
    if coords_matrix(sample.X).shape[1] != coords_matrix(sample.Y).shape[1]:  # paired files only
        raise ConfigError(f"{cfg.get('data', 'sample_file')}: edmd needs x and y of one dimension")
    with _invalid(cfg.path):
        _diagonal_shift(sample.n, lam)
    result = edmd_eigen(sample, kernel, lam, r)
    _warn_jitter(result.jitter, note="; the residual column has no correct digits")
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
    files = [cfg.require("data", key) for key in ("sample_file", "sample_file_2")]
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
    model = read_model_file(cfg.require("data", "model_file"))
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
    raw = cfg.require("run", "lambda_schedule").replace(" ", "")
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
    raw = cfg.require("run", "n_grid")
    with _invalid(f"{cfg.path}: n_grid must be strictly ascending positive integers"):
        grid = [int(g) for g in raw.split()]
        if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"got '{raw}'")
    c, p = _parse_schedule(cfg)
    the_seed = _resolve_seed(cfg, seed)
    source = cfg.require("data", "source").lower()
    if source not in ("finite-model", "ou"):
        raise ConfigError(f"{cfg.path}: convergence supports finite-model or ou sources")
    out_path = _resolve_out(cfg, out)
    model = None
    if source == "finite-model":
        model = read_model_file(cfg.require("data", "model_file"))
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
            _warn_jitter(est.jitter, where=f"n = {n}: ")
            diff, excess = md._oracle_pair(est, model)
            rows.append(f"{n},{_fmt(lam)},{_fmt(diff)},{_fmt(excess)},")
        else:
            result = edmd_eigen(sample, kernel, lam, r)
            _warn_jitter(result.jitter, where=f"n = {n}: ")
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


def _build_parser() -> argparse.ArgumentParser:
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

"""Command-line surface: file I/O, report generation, and thin wrappers
around the analysis modules.

Exit codes: 0 success; 2 a usage error, a flag value outside its range
or an input file that does not parse; 3 an operation whose precondition
or numeric computation fails on this input. A failure prints one stderr
line, ``ioscope: [op '<name>': ]<message>``. When ops of `analyze` or
`graph` fail, the others still run and the report is written: it lists
them in ``failed_ops``, and the line names the first and their count.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# CPython's built-in SHA-256, as random.py takes _sha512: hashlib would
# map OpenSSL's libcrypto (~3.6 MB resident) into every run for one digest.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

# numpy's OpenBLAS starts a worker thread per extra CPU when it loads, and
# the worker busy-polls after every BLAS call: about 0.1 s of CPU a run on
# two CPUs, for no wall time on any product the CLI computes. So a CLI run
# loads it with one thread, unless the caller set a thread count or numpy
# is already loaded. OpenBLAS reads the variable once, at load, so the
# environment is put back as the caller left it.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                              "OMP_NUM_THREADS"))
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .errors import InvalidArgument, IoscopeError
from .series import TimeSeries, ScaleField, deseasonalize_weekly, smooth
from . import agentsim, correlation, fractal, netimpact, rankfuse
from . import spectral, templates, wavelet

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OPFAIL = 3

Q_MFDFA = np.arange(-5.0, 5.01, 0.5)
Q_WAVELET = np.arange(-2.0, 4.01, 0.5)


class _Parser(argparse.ArgumentParser):
    """A usage error takes main's failure path: exit 2, one stderr line."""

    def error(self, message: str):
        raise InvalidArgument(message)


def _json_default(obj):
    """JSON form of numpy values, each array in one step: real arrays as
    (nested) lists of floats with null for every non-finite cell, complex
    arrays as the str of each cell."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            return obj.astype(complex).astype(str).tolist()
        if obj.dtype.kind in "biuf":
            a = obj.astype(float)
            finite = np.isfinite(a)
            return (a if finite.all() else np.where(finite, a, None)).tolist()
    if isinstance(obj, (np.floating, np.integer)):
        v = obj.item()
        return None if isinstance(v, float) and not np.isfinite(v) else v
    raise TypeError(f"not serializable: {type(obj)}")


# Cells of a 1-D array encoded per json.dumps call: large enough that the
# C encoder does the work, small enough that a report streams to its file.
_CHUNK = 4096


def _dump(obj, fh, sort_keys: bool, pad: str = "\n") -> None:
    """Write obj to fh as json.dump(obj, fh, indent=2, sort_keys=sort_keys,
    default=_json_default) does, except that every non-finite number,
    scalar or array cell, is null. A 1-D real array is encoded by the C
    encoder a chunk of cells at a time, each chunk written when built."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
        if not obj.size:
            fh.write("[]")
            return
        for i in range(0, obj.size, _CHUNK):
            cells = json.dumps(_json_default(obj[i:i + _CHUNK]))
            fh.write(("[" if i == 0 else ",") + inner
                     + cells[1:-1].replace(", ", "," + inner))
        fh.write(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        sep = "{"
        for k, v in (sorted(obj.items()) if sort_keys else obj.items()):
            key = k if isinstance(k, str) else json.dumps(k)
            fh.write(sep + inner + json.dumps(key) + ": ")
            _dump(v, fh, sort_keys, inner)
            sep = ","
        fh.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            fh.write("[]")
            return
        sep = "["
        for v in obj:
            fh.write(sep + inner)
            _dump(v, fh, sort_keys, inner)
            sep = ","
        fh.write(pad + "]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        fh.write("null")
    elif obj is None or isinstance(obj, (str, int, float)):
        fh.write(json.dumps(obj))
    else:
        _dump(_json_default(obj), fh, sort_keys, pad)


def write_matrix_csv(path: Path, fld: ScaleField) -> None:
    """First row: location axis; first column: scale axis; undefined
    cells empty; 12 significant digits. Complex fields store modulus.

    The table is written one row at a time: each row, axis value first,
    is copied into one float buffer with nan for every empty cell, then
    becomes Python floats for one %-format call whose "nan" cells are
    blanked. No copy of the whole table is made.
    """
    line = np.empty(fld.cols.size + 1)
    fmt = ",".join(["%.12g"] * line.size) + "\n"
    with open(path, "w") as fh:
        for label, row in zip(np.r_[np.nan, fld.rows], [fld.cols, *fld.cells]):
            line[0] = label
            line[1:] = np.abs(row) if np.iscomplexobj(row) else row
            line[~np.isfinite(line)] = np.nan
            fh.write((fmt % tuple(line.tolist())).replace("nan", ""))
    gp = path.with_suffix(".gnuplot")
    with open(gp, "w") as fh:
        fh.write("set datafile separator ','\n"
                 "set view map\n"
                 f"set title '{fld.kind or path.stem}'\n"
                 f"splot '{path.name}' nonuniform matrix with image notitle\n")


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file, without a leading byte-order mark;
    a file that cannot be opened or decoded is an InvalidArgument."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InvalidArgument(f"{path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object: the bytes after the mark
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise InvalidArgument(f"{path}:{lineno}: not UTF-8 text") from None


def _read_rows(path: Path, sep: str, parse: Callable[[List[str]], object],
               text: Optional[str] = None) -> Iterator[Tuple[int, object]]:
    """Yield (lineno, ``parse`` of the row) for every row of a delimited
    input file, splitting its text into lines one at a time. ``text`` is
    the file's text when the caller has already read it.

    Lines end where str.splitlines ends them. Blank lines and '#' lines
    are skipped and fields are trimmed. A row that does not parse
    (ValueError) is skipped on line 1, as a header, and is an error on
    any other line; an out-of-range value (InvalidArgument, or
    ArgumentTypeError from a converter) is an error on every line.
    Errors name path:lineno.
    """
    if text is None:
        text = _read_text(path)
    lines = (line for raw in io.StringIO(text, newline=None)
             for line in raw.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = parse([f.strip() for f in line.split(sep)])
        except ValueError as exc:
            if lineno > 1:
                raise InvalidArgument(f"{path}:{lineno}: {exc}") from None
            continue
        except (InvalidArgument, argparse.ArgumentTypeError) as exc:
            raise InvalidArgument(f"{path}:{lineno}: {exc}") from None
        yield lineno, row


def _fields(layout: str, *types: Callable, optional: int = 0) -> Callable:
    """Row parser for ``layout``: one field per type, the last
    ``optional`` of which may be missing, each converted by its type."""
    def parse(fields: List[str]) -> list:
        if not len(types) - optional <= len(fields) <= len(types):
            raise ValueError(f"want {layout}")
        return [t(f) for t, f in zip(types, fields)]
    return parse


def _converter(convert: Callable, ok: Callable, what: str) -> Callable:
    """A flag and field converter: ``convert`` the text (a ValueError if
    it does not parse), then refuse a value that ``ok`` rejects with an
    ArgumentTypeError saying what the value must be."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return parse


_positive_int = _converter(int, lambda v: v >= 1, "a positive integer")
_finite = _converter(float, math.isfinite, "a finite number")
_nonnegative = _converter(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_positive = _converter(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_unit = _converter(float, lambda v: 0 < v <= 1, "in (0, 1]")


def _bulk_column(text: str) -> Optional[np.ndarray]:
    """The values of a one-column series whose every line, bar a header on
    line 1, is a finite number, parsed in one pass; None for any other
    text, which _series_table reads row by row to the same values or to
    its error."""
    lines = io.StringIO(text, newline=None)
    head = next(lines, "")
    try:
        values = [float(head.strip())]  # float strips less than str.strip
    except ValueError:  # a header, or a line that _read_rows must judge
        if "," in head or len(head.splitlines()) > 1:
            return None
        values = []
    try:
        values = np.fromiter(itertools.chain(values, map(float, lines)), float)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _series_table(path: Path, text: str) -> np.ndarray:
    """The series' rows, one or two columns, read from its text row by
    row through _read_rows. The rows stream into one float array; no
    per-row object outlives its line."""
    rows = (row for _, row in _read_rows(
        path, ",", _fields("value or timestamp,value", _finite, _finite, optional=1),
        text))
    first = next(rows, [])
    mixed = False

    def cells() -> Iterator[float]:
        nonlocal mixed
        yield from first
        for row in rows:
            if len(row) != len(first):
                mixed, row = True, first  # reported once every row has parsed
            yield from row

    table = np.fromiter(cells(), float).reshape(-1, max(1, len(first)))
    if mixed:
        raise InvalidArgument(f"{path}: mixed column counts")
    return table


def read_series_csv(path: Path) -> TimeSeries:
    """One `value` column, or `timestamp,value` with uniform spacing. A
    plain column of numbers is parsed in one pass, any other text row by
    row, which names the line of any error."""
    text = _read_text(path)
    values = _bulk_column(text)
    table = _series_table(path, text) if values is None else values[:, None]
    if len(table) < 2:
        raise InvalidArgument(f"{path}: need at least 2 samples")
    step = 1.0
    if table.shape[1] == 2:
        stamps = table[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = np.diff(stamps)
        if not np.all(np.isfinite(diffs)):
            raise InvalidArgument(f"{path}: timestamp spacing is not finite")
        if (np.any(diffs <= 0)
                or np.max(np.abs(diffs - diffs[0])) > 1e-9 * max(1.0, abs(diffs[0]))):
            raise InvalidArgument(f"{path}: timestamps not uniformly spaced")
        step = float(diffs[0])
    return TimeSeries(np.ascontiguousarray(table[:, -1]), step=step)


def _read_rankings_csv(path: Path) -> List[rankfuse.Ranking]:
    per_source: Dict[str, Dict[str, int]] = {}
    for lineno, (src, alt, rank) in _read_rows(path, ",", _fields(
            "source,alternative,rank", str, str, _positive_int)):
        items = per_source.setdefault(src, {})
        if alt in items:
            raise InvalidArgument(f"{path}:{lineno}: alternative {alt!r} "
                                  f"repeated in source {src!r}")
        items[alt] = rank
    if not per_source:
        raise InvalidArgument(f"{path}: no rankings found")
    return [rankfuse.Ranking(tuple(items.items()), source=src)
            for src, items in sorted(per_source.items())]


def _read_values(path: Path, layout: str,
                 known: Optional[Sequence[str]] = None) -> Dict[str, float]:
    """One row of ``layout`` (`key,value`) for each key; with ``known``,
    one for each known source and none for any other."""
    what = layout.split(",")[0]
    values: Dict[str, float] = {}
    for lineno, (key, value) in _read_rows(path, ",", _fields(layout, str,
                                                              _nonnegative)):
        if known is not None and key not in known:
            raise InvalidArgument(f"{path}:{lineno}: {what} {key!r} has no ranking")
        if key in values:
            raise InvalidArgument(f"{path}:{lineno}: {what} {key!r} repeated")
        values[key] = value
    missing = [key for key in known or () if key not in values]
    if missing:
        raise InvalidArgument(f"{path}: no estimate for {what} "
                              + ", ".join(map(repr, missing)))
    return values


class _Run(SimpleNamespace):
    """One invocation's record: its args and output directory, the files
    it read (``inputs``, fingerprinted in order) and wrote (``artifacts``),
    its warnings and preprocessing, the (op, message) of each op that
    failed (``failures``), and the state its ops share."""

    def __init__(self, args, out_dir: Path):
        super().__init__(args=args, out_dir=out_dir, inputs=[], artifacts=[],
                         warnings=[], preprocessing={"steps": []}, failures=[])

    def input(self, path) -> Path:
        """Record a file the run reads; its Path."""
        self.inputs.append(Path(path))
        return self.inputs[-1]

    def artifact(self, name: str) -> Path:
        """Record a file the run writes; its path in ``out_dir``."""
        self.artifacts.append(name)
        return self.out_dir / name


def _load_template_dir(run: _Run, dir_path: Path) -> List[templates.Template]:
    """One template per CSV file of dir_path, named by the file."""
    if not dir_path.is_dir():
        raise InvalidArgument(f"{dir_path} is not a directory")
    bank = []
    for p in sorted(dir_path.glob("*.csv")):
        samples = [v for _, (v,) in _read_rows(run.input(p), ",",
                                               _fields("one sample", _finite))]
        try:
            bank.append(templates.Template(samples, name=p.stem))
        except InvalidArgument as exc:
            raise InvalidArgument(f"{p}: {exc}") from None
    if not bank:
        raise InvalidArgument(f"no template CSV files in {dir_path}")
    return bank


def _write_report(run: _Run, command: str, results: Dict) -> Path:
    fingerprint = sha256()
    for p in run.inputs:
        fingerprint.update(p.read_bytes())
    report = {
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_fingerprint": fingerprint.hexdigest(),
        "seed": getattr(run.args, "seed", None),
        "preprocessing": run.preprocessing,
        "results": results,
        "warnings": run.warnings,
        "artifacts": run.artifacts,
    }
    if run.failures:
        report["failed_ops"] = [op for op, _ in run.failures]
    path = run.out_dir / "report.json"
    with open(path, "w") as fh:
        _dump(report, fh, sort_keys=True)
        fh.write("\n")
    return path


def _parse_scales(text: str, limit: int) -> range:
    """The window lengths a:b:step, with b clipped to ``limit`` (a longer
    window never fits) but not below a."""
    try:
        a, b, step = (int(v) for v in text.split(":"))
    except ValueError as exc:
        raise InvalidArgument(f"bad scale range {text!r}; want a:b:step") from exc
    if a < 3 or b < a or step < 1:
        raise InvalidArgument(f"bad scale range {text!r}")
    return range(a, max(a, min(b, limit)) + 1, step)


def _parse_ops(text: str, known) -> List[str]:
    ops = [op.strip() for op in text.split(",") if op.strip()]
    if not ops:
        raise InvalidArgument("empty ops list")
    for op in ops:
        if op not in known:
            raise InvalidArgument(f"unknown op {op!r}")
    return ops


def _apply_config(args: argparse.Namespace) -> None:
    """key=value config entries fill in flags still at their defaults,
    converted and checked as the flag itself would be. Every bad entry is
    an InvalidArgument, so line 1 is never taken for a header."""
    if not getattr(args, "config", None):
        return
    actions = {a.dest: a for a in args._subparser._actions if a.dest != "help"}

    def entry(fields: List[str]) -> Optional[Tuple[str, object]]:
        """(flag, typed value) of an entry; None for a flag already set."""
        if len(fields) < 2:
            raise InvalidArgument("expected key=value")
        key, value = fields[0].replace("-", "_"), "=".join(fields[1:])
        action = actions.get(key)
        if action is None:
            raise InvalidArgument(f"unknown key {key!r}")
        if getattr(args, key) != action.default:
            return None
        if isinstance(action.default, bool):
            if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise InvalidArgument(f"bad value {value!r} for {key}")
            return key, value.lower() in ("1", "true", "yes")
        try:
            typed = (action.type or str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise InvalidArgument(f"bad value {value!r} for {key}") from None
        if action.choices and typed not in action.choices:
            raise InvalidArgument(f"{key} must be one of " + ", ".join(action.choices))
        return key, typed

    for _, setting in _read_rows(Path(args.config), "=", entry):
        if setting:
            setattr(args, *setting)


def _curve_json(x: TimeSeries) -> Dict:
    return {"times": x.times, "values": x.values, "step": x.step}


def _mf_json(res: fractal.MultifractalResult) -> Dict:
    out = {"q": res.q, "tau": res.tau, "alpha": res.alpha,
           "f_alpha": res.f_alpha}
    if res.h is not None:
        out["h"] = res.h
    return out


def _cwt(r, *series: TimeSeries) -> List[ScaleField]:
    """Transforms of the given series on r.x's default grid, each taken
    once per run and kept in ``r.cwts``."""
    for s in series:
        if id(s) not in r.cwts:
            r.cwts[id(s)] = wavelet.cwt(s, wavelet.get_wavelet(r.args.wavelet),
                                        wavelet.default_scale_grid(r.x))
    return [r.cwts[id(s)] for s in series]


def _y(r) -> TimeSeries:
    """The second series, for the ops that compare two."""
    if r.y is None:
        raise InvalidArgument("needs --input2")
    return r.y


def _op_acf(r) -> Dict:
    curve = correlation.autocorrelation(r.x)
    return {"lags": curve.lags, "values": curve.values, "se": curve.se_band}


def _op_ccf(r) -> Dict:
    curve = correlation.cross_correlation(r.x, _y(r), len(r.x) // 4)
    return {"lags": curve.lags, "values": curve.values,
            "argmax_lag": curve.argmax_lag}


def _op_dft(r) -> Dict:
    spec = spectral.dft(r.x)
    return {"freqs": spec.freqs, "amplitude": spec.amplitude}


def _op_gabor(r) -> ScaleField:
    x, n = r.x, len(r.x)
    freqs = np.linspace(1.0 / n, 0.5, 32) / x.step
    return spectral.gabor(x, x.times[n // 8: n - n // 8],
                          r.args.gabor_width * x.step, freqs)


def _op_wcc(r) -> Dict:
    wx, wy = _cwt(r, r.x, _y(r))
    return {"scales": wx.rows, "values": wavelet.wcc_measure(wx, wy)}


def _op_hurst(r) -> Dict:
    if len(r.x) < 200:
        r.warnings.append("hurst: series shorter than 200 samples")
    res = fractal.hurst_rs(r.x)
    return {"H": res.exponent, "window_sizes": res.window_sizes,
            "rs": res.rs_values}


# op -> kernel. A kernel takes the run context and returns a JSON block,
# or a ScaleField written as a matrix artifact. Kernels look module
# functions up when they run, so that wrappers installed on the modules
# (profilers, tracers) see every call.
ANALYZE_OPS: Dict[str, Callable] = {
    "sma": lambda r: _curve_json(smooth(r.x, "sma", r.args.window)),
    "ewma": lambda r: _curve_json(smooth(r.x, "ewma", r.args.alpha)),
    "deseason": lambda r: _curve_json(deseasonalize_weekly(r.x)),
    "acf": _op_acf,
    "ccf": _op_ccf,
    "dft": _op_dft,
    "gabor": _op_gabor,
    "filter": lambda r: _curve_json(spectral.sinusoid_filter(r.x, r.args.bin)),
    "cwt": lambda r: _cwt(r, r.x)[0],
    "scalogram": lambda r: wavelet.scalogram(_cwt(r, r.x)[0]),
    "coherence": lambda r: wavelet.wavelet_coherence(*_cwt(r, r.x, _y(r))),
    "wcc": _op_wcc,
    "hurst": _op_hurst,
    "hurst-profile": lambda r: _curve_json(fractal.hurst_profile(r.x)),
    "dl": lambda r: fractal.delta_l_field(r.x),
    "mfdfa": lambda r: _mf_json(fractal.mfdfa(r.x, Q_MFDFA,
                                              aggregated=r.args.aggregated)),
    "wtmm": lambda r: _mf_json(fractal.wtmm(r.x, Q_WAVELET, wavelet=r.args.wavelet)),
    "leaders": lambda r: _mf_json(fractal.wavelet_leaders(
        r.x, Q_WAVELET, wavelet=r.args.wavelet)),
}


def _run_ops(run: _Run, table: Dict[str, Callable], ops: Sequence[str]) -> Dict:
    """Each op's block, by op. A kernel's library error becomes the op's
    block, ``{"error": message}``, and is recorded in ``run.failures``;
    the later ops still run. A returned ScaleField is written into
    ``run.out_dir`` as a matrix artifact."""
    results: Dict = {}
    for op in ops:
        try:
            out = table[op](run)
        except IoscopeError as exc:
            results[op] = {"error": str(exc)}
            run.failures.append((op, results[op]["error"]))
            continue
        if isinstance(out, ScaleField):
            path = run.artifact(f"{op}.csv")
            write_matrix_csv(path, out)
            run.artifact(path.with_suffix(".gnuplot").name)
            out = {"artifact": path.name, "kind": out.kind,
                   "undefined_cells": int(np.count_nonzero(np.isnan(out.cells)))}
        results[op] = out
    return results


def cmd_analyze(run: _Run) -> Dict:
    args = run.args
    ops = _parse_ops(args.ops, ANALYZE_OPS)
    run.x = read_series_csv(run.input(args.input))
    run.y = read_series_csv(run.input(args.input2)) if args.input2 else None
    run.cwts = {}
    run.preprocessing.update({flag: getattr(args, flag) for flag in (
        "window", "alpha", "bin", "wavelet", "gabor_width", "aggregated",
        "deseason_first")})
    if args.deseason_first:
        x = deseasonalize_weekly(run.x)
        run.x = x.with_values(x.values[np.isfinite(x.values)])
        run.preprocessing["steps"].append("deseasonalize-weekly")
    return _run_ops(run, ANALYZE_OPS, ops)


def cmd_scan(run: _Run) -> Dict:
    args = run.args
    x = read_series_csv(run.input(args.input))
    bank = (templates.builtin_bank() if args.templates == "builtin"
            else _load_template_dir(run, Path(args.templates)))
    k_range = _parse_scales(args.scales, len(x))
    hits_found = templates.scan_detect(x, bank, k_range, args.threshold)
    by_name = {t.name: t for t in bank}
    detections = [{
        "template": d.template,
        "scale": d.scale,
        "location": d.location,
        "score": d.score,
        "phase_marks": [
            {"offset": idx, "label": label} for idx, label in
            templates.resample_template(by_name[d.template], d.scale).phase_marks
        ],
    } for d in hits_found]
    path = run.artifact("detections.json")
    with open(path, "w") as fh:
        _dump({"templates": [t.name for t in bank], "detections": detections},
              fh, sort_keys=False)
        fh.write("\n")
    return {"detections": len(detections), "artifact": path.name}


def cmd_simulate(run: _Run) -> Dict:
    args = run.args
    cfg = agentsim.SimConfig(p_l0=args.pl, p_d0=args.pd, p_r0=args.pr,
                             p_link0=args.plink, p_s=args.ps,
                             e0=args.e0, phi=args.phi,
                             phi_e_ref=args.phi_e_ref, seed=args.seed)
    outcome = agentsim.simulate_population(cfg, args.ticks)
    with open(run.artifact("population.csv"), "w") as fh:
        fh.write("tick,alive,births,deaths\n")
        for t in range(outcome.alive.size):
            fh.write(f"{t},{outcome.alive[t]},{outcome.births[t]},"
                     f"{outcome.deaths[t]}\n")
    likes = outcome.like_counts
    results: Dict = {
        "config": {"p_l0": cfg.p_l0, "p_d0": cfg.p_d0, "p_r0": cfg.p_r0,
                   "p_link0": cfg.p_link0, "p_s": cfg.p_s, "e0": cfg.e0,
                   "phi": cfg.phi, "ticks": args.ticks},
        "agents": outcome.lifespans.size,
        "lifespan_histogram": np.bincount(outcome.lifespans).tolist(),
        "like_histogram": np.bincount(likes).tolist(),
        "capped": outcome.capped,
    }
    # survival beyond 1.5*e0 under both energy responses (exact without links)
    horizon = int(1.5 * cfg.e0)
    results["survival_beyond_1.5e0"] = {
        tag: agentsim.lifespan_survival(
            cfg.e0, dataclasses.replace(cfg, phi=tag), horizon)
        for tag in ("one", "saturating")}
    positive = likes[likes > 0].astype(float)
    if positive.size >= 30:
        try:
            k_hat, lam_hat = agentsim.weibull_mle(positive)
            results["weibull_fit"] = {"k": k_hat, "lambda": lam_hat}
        except IoscopeError as exc:
            results["weibull_fit"] = {"error": str(exc)}
    else:
        results["weibull_fit"] = {"error": "too few positive like counts"}
    return results


def _network_stats_json(g: netimpact.ImpactGraph) -> Dict:
    stats = netimpact.network_stats(g)
    stats["per_node"] = {str(k): v for k, v in stats["per_node"].items()}
    return stats


def _hits_json(g: netimpact.ImpactGraph) -> Dict:
    auth, hub = netimpact.hits(g)
    out_degree = dict.fromkeys(g.nodes, 0)
    for u, _, c in g.edges:
        out_degree[u] += c
    return {"authority": auth, "hub": hub,
            "out_degree": {str(n): d for n, d in out_degree.items()}}


GRAPH_OPS: Dict[str, Callable] = {
    "stats": lambda r: _network_stats_json(r.g),
    "hits": lambda r: _hits_json(r.g),
    "ioscore": lambda r: netimpact.io_scenario_score(r.g),
}


def cmd_graph(run: _Run) -> Dict:
    args = run.args
    ops = _parse_ops(args.ops, GRAPH_OPS)
    citations = [row for _, row in _read_rows(run.input(args.edges), "\t", _fields(
        "from<TAB>to[<TAB>count]", str, str, _positive_int, optional=1))]
    ratings = (_read_values(run.input(args.ratings), "node,rating")
               if args.ratings else None)
    run.g = g = netimpact.build_impact_graph(citations, ratings=ratings)
    return {"n": g.n, "m": g.m, "dropped_self_loops": g.dropped_self_loops,
            **_run_ops(run, GRAPH_OPS, ops)}


def cmd_fuse(run: _Run) -> Dict:
    args = run.args
    rankings = _read_rankings_csv(run.input(args.rankings))
    profile = None
    if args.weighting != "none":
        if not args.estimates:
            raise InvalidArgument("weighting needs --estimates")
        estimates = _read_values(run.input(args.estimates), "source,E",
                                 [r.source for r in rankings])
        profile = rankfuse.source_weights(
            {r.source: (estimates[r.source], list(r.alternatives)) for r in rankings},
            mode=args.weighting)
    # profile.sources and rankings are both in sorted source order
    weights = None if profile is None else profile.w
    cycles: List[List[str]] = []
    objective = None
    if args.method == "borda":
        fused = rankfuse.borda(rankings, weights)
    elif args.method == "condorcet":
        fused, cycles = rankfuse.condorcet(rankings, weights)
    else:
        mode = "heuristic" if args.heuristic else "exact"
        fused, objective = rankfuse.kemeny_median(rankings, weights, mode=mode)
    return {
        "method": args.method,
        "ranking": {a: r for a, r in fused.items},
        "cycles": cycles,
        "objective": objective,
        "weights": None if profile is None else dict(zip(profile.sources, profile.w)),
        "weight_profile": None if profile is None else {
            "sources": list(profile.sources), "w": profile.w, "rho": profile.rho,
            "x1": profile.x1, "x2": profile.x2, "mode": profile.mode},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ioscope", description="Publication-dynamics and "
                     "influence-network analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, about: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about)
        p.set_defaults(_subparser=p, func=func)
        return p

    pa = command("analyze", cmd_analyze, "time-series analyses")
    pa.add_argument("--input", required=True)
    pa.add_argument("--input2", default=None)
    pa.add_argument("--ops", required=True,
                    help="comma list from: " + ",".join(ANALYZE_OPS))
    pa.add_argument("--window", type=_positive_int, default=7)
    pa.add_argument("--alpha", type=_unit, default=0.3)
    pa.add_argument("--bin", type=_positive_int, default=1)
    pa.add_argument("--wavelet", default="mexican-hat", choices=list(wavelet.WAVELETS))
    pa.add_argument("--gabor-width", type=_positive, default=16.0)
    pa.add_argument("--aggregated", action="store_true")
    pa.add_argument("--deseason-first", action="store_true")

    ps = command("scan", cmd_scan, "template-bank detection scan")
    ps.add_argument("--input", required=True)
    ps.add_argument("--templates", default="builtin")
    ps.add_argument("--threshold", type=_unit, default=0.9)
    ps.add_argument("--scales", default="5:60:1")

    pm = command("simulate", cmd_simulate, "agent population simulation")
    pm.add_argument("--pl", type=float, default=0.4)
    pm.add_argument("--pd", type=float, default=0.0)
    pm.add_argument("--pr", type=float, default=0.1)
    pm.add_argument("--plink", type=float, default=0.0)
    pm.add_argument("--ps", type=float, default=0.0)
    pm.add_argument("--e0", type=int, default=10)
    pm.add_argument("--phi", default="one", choices=("one", "saturating"))
    pm.add_argument("--phi-e-ref", type=float, default=10.0)
    pm.add_argument("--ticks", type=int, default=100)
    pm.add_argument("--seed", type=int, default=None)

    pg = command("graph", cmd_graph, "impact-graph analyses")
    pg.add_argument("--edges", required=True)
    pg.add_argument("--ratings", default=None)
    pg.add_argument("--ops", default="stats")

    pf = command("fuse", cmd_fuse, "rank aggregation")
    pf.add_argument("--rankings", required=True)
    pf.add_argument("--estimates", default=None)
    pf.add_argument("--method", default="borda",
                    choices=("borda", "condorcet", "kemeny"))
    pf.add_argument("--weighting", default="none",
                    choices=("none", "density", "dispersion"))
    pf.add_argument("--heuristic", action="store_true")

    for p in sub.choices.values():
        p.add_argument("--out", default="ioscope-out")
        p.add_argument("--config", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_config(args)
        run = _Run(args, Path(args.out))
        run.out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(run, args.command, args.func(run))
        if run.failures:
            op, message = run.failures[0]
            print(f"ioscope: op {op!r}: {message} (failed ops: "
                  f"{len(run.failures)}; report written)", file=sys.stderr)
            return EXIT_OPFAIL
        return EXIT_OK
    except SystemExit as exc:  # --help, --version
        return int(exc.code or 0)
    except (InvalidArgument, OSError) as exc:
        print(f"ioscope: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IoscopeError as exc:
        print(f"ioscope: {exc}", file=sys.stderr)
        return EXIT_OPFAIL


if __name__ == "__main__":
    sys.exit(main())

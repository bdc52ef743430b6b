"""Command-line surface: file I/O, report generation, and thin wrappers
around the analysis modules.

Exit codes: 0 success; 2 a usage error, a flag value outside its range
or an input file that does not parse; 3 an operation whose precondition
or numeric computation fails on this input. A failure prints one stderr
line, ``ioscope: [op '<name>': ]<message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

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


class OpFailure(IoscopeError):
    """An operation's precondition or numeric computation failed."""

    def __init__(self, op: str, cause: Exception):
        super().__init__(f"op {op!r}: {cause}")
        self.op = op


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
            return np.where(np.isfinite(a), a, None).tolist()
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
            a = obj[i:i + _CHUNK].astype(float)
            finite = np.isfinite(a)
            cells = (a if finite.all() else np.where(finite, a, None)).tolist()
            fh.write(("[" if i == 0 else ",") + inner
                     + json.dumps(cells)[1:-1].replace(", ", "," + inner))
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

    The whole table, axes included, is built as one float matrix with
    nan for every empty cell, then written one row at a time, each row
    by one %-format call whose "nan" cells are then blanked.
    """
    cells = np.abs(fld.cells) if fld.is_complex else fld.cells
    table = np.vstack([np.r_[np.nan, fld.cols],
                       np.column_stack([fld.rows, np.where(fld.mask, cells, np.nan)])])
    table[~np.isfinite(table)] = np.nan
    fmt = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        for row in table.tolist():
            fh.write((fmt % tuple(row)).replace("nan", ""))
    gp = path.with_suffix(".gnuplot")
    with open(gp, "w") as fh:
        fh.write("set datafile separator ','\n"
                 "set view map\n"
                 f"set title '{fld.kind or path.stem}'\n"
                 f"splot '{path.name}' nonuniform matrix with image notitle\n")


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file; a file that cannot be opened or
    decoded is an InvalidArgument."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InvalidArgument(f"{path}: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InvalidArgument(f"{path}:{lineno}: not UTF-8 text") from None


def _read_rows(path: Path, sep: str, parse: Callable[[List[str]], object]) -> list:
    """Parse every row of a delimited input file with ``parse``.

    Blank lines and '#' lines are skipped and fields are trimmed. A row
    that does not parse (ValueError) is skipped on line 1, as a header,
    and is an error on any other line; an out-of-range value
    (InvalidArgument, or ArgumentTypeError from a converter) is an error
    on every line. Errors name path:lineno.
    """
    rows = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(parse([f.strip() for f in line.split(sep)]))
        except ValueError as exc:
            if lineno > 1:
                raise InvalidArgument(f"{path}:{lineno}: {exc}") from None
        except (InvalidArgument, argparse.ArgumentTypeError) as exc:
            raise InvalidArgument(f"{path}:{lineno}: {exc}") from None
    return rows


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


def read_series_csv(path: Path) -> TimeSeries:
    """One `value` column, or `timestamp,value` with uniform spacing."""
    rows = _read_rows(path, ",", _fields("value or timestamp,value", _finite, _finite,
                                         optional=1))
    if len(rows) < 2:
        raise InvalidArgument(f"{path}: need at least 2 samples")
    if len({len(r) for r in rows}) > 1:
        raise InvalidArgument(f"{path}: mixed column counts")
    step, origin = 1.0, None
    if len(rows[0]) == 2:
        stamps = [r[0] for r in rows]
        diffs = np.diff(stamps)
        if (np.any(diffs <= 0)
                or np.max(np.abs(diffs - diffs[0])) > 1e-9 * max(1.0, abs(diffs[0]))):
            raise InvalidArgument(f"{path}: timestamps not uniformly spaced")
        step, origin = float(diffs[0]), float(stamps[0])
    return TimeSeries(np.array([r[-1] for r in rows]), step=step, origin=origin,
                      label=path.stem)


def _read_rankings_csv(path: Path) -> List[rankfuse.Ranking]:
    per_source: Dict[str, Dict[str, int]] = {}
    parse = _fields("source,alternative,rank", str, str, _positive_int)

    def row(fields: List[str]) -> None:
        src, alt, rank = parse(fields)
        items = per_source.setdefault(src, {})
        if alt in items:
            raise InvalidArgument(f"alternative {alt!r} repeated in source {src!r}")
        items[alt] = rank

    _read_rows(path, ",", row)
    if not per_source:
        raise InvalidArgument(f"{path}: no rankings found")
    return [rankfuse.Ranking(tuple(items.items()), source=src)
            for src, items in sorted(per_source.items())]


def _read_estimates(path: Path, sources: Sequence[str]) -> Dict[str, float]:
    """One `source,E` row for each ranking source, and none for any other."""
    estimates: Dict[str, float] = {}
    parse = _fields("source,E", str, _nonnegative)

    def row(fields: List[str]) -> None:
        src, value = parse(fields)
        if src not in sources:
            raise InvalidArgument(f"source {src!r} has no ranking")
        if src in estimates:
            raise InvalidArgument(f"source {src!r} repeated")
        estimates[src] = value

    _read_rows(path, ",", row)
    missing = [src for src in sources if src not in estimates]
    if missing:
        raise InvalidArgument(f"{path}: no estimate for source "
                              + ", ".join(map(repr, missing)))
    return estimates


def _read_ratings(path: Path) -> Dict[str, float]:
    """One `node,rating` row for each rated node."""
    ratings: Dict[str, float] = {}
    parse = _fields("node,rating", str, _nonnegative)

    def row(fields: List[str]) -> None:
        node, value = parse(fields)
        if node in ratings:
            raise InvalidArgument(f"node {node!r} repeated")
        ratings[node] = value

    _read_rows(path, ",", row)
    return ratings


def _load_template_dir(dir_path: Path) -> List[templates.Template]:
    if not dir_path.is_dir():
        raise InvalidArgument(f"{dir_path} is not a directory")
    bank = []
    for p in sorted(dir_path.glob("*.csv")):
        samples = np.ravel(_read_rows(p, ",", _fields("one sample", _finite)))
        try:
            bank.append(templates.Template(samples, name=p.stem))
        except InvalidArgument as exc:
            raise InvalidArgument(f"{p}: {exc}") from None
    if not bank:
        raise InvalidArgument(f"no template CSV files in {dir_path}")
    return bank


def _fingerprint(paths: Sequence[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _write_report(out_dir: Path, command: str, inputs: Sequence[Path],
                  results: Dict, warnings: List[str],
                  artifacts: List[str], seed: Optional[int],
                  preprocessing: Optional[Dict] = None) -> Path:
    if preprocessing is None:
        preprocessing = {"steps": []}
    report = {
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_fingerprint": _fingerprint(inputs),
        "seed": seed,
        "preprocessing": preprocessing,
        "results": results,
        "warnings": warnings,
        "artifacts": artifacts,
    }
    path = out_dir / "report.json"
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

    def entry(fields: List[str]) -> None:
        if len(fields) < 2:
            raise InvalidArgument("expected key=value")
        key, value = fields[0].replace("-", "_"), "=".join(fields[1:])
        action = actions.get(key)
        if action is None:
            raise InvalidArgument(f"unknown key {key!r}")
        if getattr(args, key) != action.default:
            return
        if isinstance(action.default, bool):
            setattr(args, key, value.lower() in ("1", "true", "yes"))
            return
        try:
            typed = (action.type or str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise InvalidArgument(f"bad value {value!r} for {key}") from None
        if action.choices and typed not in action.choices:
            raise InvalidArgument(f"{key} must be one of " + ", ".join(action.choices))
        setattr(args, key, typed)

    _read_rows(Path(args.config), "=", entry)


def _curve_json(x: TimeSeries) -> Dict:
    return {"times": x.times, "values": x.values, "step": x.step}


def _mf_json(res: fractal.MultifractalResult) -> Dict:
    out = {"q": res.q, "tau": res.tau, "alpha": res.alpha,
           "f_alpha": res.f_alpha}
    if res.h is not None:
        out["h"] = res.h
    return out


def _cwt(r, *series: TimeSeries) -> List[ScaleField]:
    """Transforms of the given series on the first one's default grid."""
    w = wavelet.get_wavelet(r.args.wavelet)
    scales = wavelet.default_scale_grid(series[0])
    return [wavelet.cwt(s, w, scales) for s in series]


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


def _op_mfdfa(r) -> Dict:
    series = r.x
    if r.args.aggregated:
        series = series.with_values(np.diff(series.values))
        r.steps.append("disaggregate")
    return _mf_json(fractal.mfdfa(series, Q_MFDFA))


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
    "mfdfa": _op_mfdfa,
    "wtmm": lambda r: _mf_json(fractal.wtmm(r.x, Q_WAVELET, wavelet=r.args.wavelet)),
    "leaders": lambda r: _mf_json(fractal.wavelet_leaders(
        r.x, Q_WAVELET, wavelet=r.args.wavelet)),
}


def _run_ops(run, table: Dict[str, Callable], ops: Sequence[str],
             results: Dict) -> List[str]:
    """Put each op's block into ``results``; return the artifact names.
    A kernel's library error becomes an OpFailure naming the op, and a
    returned ScaleField is written into ``run.out_dir`` as a matrix."""
    artifacts: List[str] = []
    for op in ops:
        try:
            out = table[op](run)
        except IoscopeError as exc:
            raise OpFailure(op, exc) from exc
        if isinstance(out, ScaleField):
            path = run.out_dir / f"{op}.csv"
            write_matrix_csv(path, out)
            artifacts.extend([path.name, path.with_suffix(".gnuplot").name])
            out = {"artifact": path.name, "kind": out.kind}
        results[op] = out
    return artifacts


def cmd_analyze(args, out_dir: Path) -> int:
    ops = _parse_ops(args.ops, ANALYZE_OPS)
    x = read_series_csv(Path(args.input))
    inputs = [Path(args.input)]
    y = None
    if args.input2:
        y = read_series_csv(Path(args.input2))
        inputs.append(Path(args.input2))
    preprocessing = {"steps": [], **{flag: getattr(args, flag) for flag in (
        "window", "alpha", "bin", "wavelet", "gabor_width", "aggregated",
        "deseason_first")}}
    if args.deseason_first:
        x = deseasonalize_weekly(x)
        ok = np.isfinite(x.values)
        x = x.with_values(x.values[ok])
        preprocessing["steps"].append("deseasonalize-weekly")
    run = SimpleNamespace(x=x, y=y, args=args, out_dir=out_dir, warnings=[],
                          steps=preprocessing["steps"])
    results: Dict = {}
    artifacts = _run_ops(run, ANALYZE_OPS, ops, results)
    _write_report(out_dir, "analyze", inputs, results, run.warnings,
                  artifacts, None, preprocessing)
    return EXIT_OK


def cmd_scan(args, out_dir: Path) -> int:
    x = read_series_csv(Path(args.input))
    if args.templates == "builtin":
        bank = templates.builtin_bank()
    else:
        bank = _load_template_dir(Path(args.templates))
    k_range = _parse_scales(args.scales, len(x))
    hits_found = templates.scan_detect(x, bank, k_range, args.threshold)
    by_name = {t.name: t for t in bank}
    payload = {
        "templates": [t.name for t in bank],
        "detections": [{
            "template": d.template,
            "scale": d.scale,
            "location": d.location,
            "score": d.score,
            "phase_marks": [
                {"offset": idx, "label": label} for idx, label in
                templates.resample_template(by_name[d.template],
                                            d.scale).phase_marks
            ],
        } for d in hits_found],
    }
    path = out_dir / "detections.json"
    with open(path, "w") as fh:
        _dump(payload, fh, sort_keys=False)
        fh.write("\n")
    _write_report(out_dir, "scan", [Path(args.input)],
                  {"detections": len(payload["detections"]),
                   "artifact": path.name},
                  [], [path.name], None)
    return EXIT_OK


def cmd_simulate(args, out_dir: Path) -> int:
    cfg = agentsim.SimConfig(p_l0=args.pl, p_d0=args.pd, p_r0=args.pr,
                             p_link0=args.plink, p_s=args.ps,
                             e0=args.e0, phi=args.phi,
                             phi_e_ref=args.phi_e_ref,
                             t_max=args.ticks, seed=args.seed)
    outcome = agentsim.simulate_population(cfg, args.ticks)
    csv_path = out_dir / "population.csv"
    with open(csv_path, "w") as fh:
        fh.write("tick,alive,births,deaths\n")
        for t in range(outcome.alive.size):
            fh.write(f"{t},{outcome.alive[t]},{outcome.births[t]},"
                     f"{outcome.deaths[t]}\n")
    lifespans = outcome.lifespans
    likes = outcome.like_counts
    results: Dict = {
        "config": {"p_l0": cfg.p_l0, "p_d0": cfg.p_d0, "p_r0": cfg.p_r0,
                   "p_link0": cfg.p_link0, "p_s": cfg.p_s, "e0": cfg.e0,
                   "phi": cfg.phi, "ticks": args.ticks},
        "agents": outcome.lifespans.size,
        "lifespan_histogram": np.bincount(lifespans).tolist(),
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
    _write_report(out_dir, "simulate", [], results, [],
                  [csv_path.name], args.seed)
    return EXIT_OK


def network_stats_json(g: netimpact.ImpactGraph) -> Dict:
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
    "stats": lambda r: network_stats_json(r.g),
    "hits": lambda r: _hits_json(r.g),
    "ioscore": lambda r: netimpact.io_scenario_score(r.g),
}


def cmd_graph(args, out_dir: Path) -> int:
    ops = _parse_ops(args.ops, GRAPH_OPS)
    edges_path = Path(args.edges)
    citations = _read_rows(edges_path, "\t", _fields(
        "from<TAB>to[<TAB>count]", str, str, _positive_int, optional=1))
    inputs = [edges_path]
    ratings = None
    if args.ratings:
        ratings = _read_ratings(Path(args.ratings))
        inputs.append(Path(args.ratings))
    g = netimpact.build_impact_graph(citations, ratings=ratings)
    results: Dict = {"n": g.n, "m": g.m,
                     "dropped_self_loops": g.dropped_self_loops}
    _run_ops(SimpleNamespace(g=g, out_dir=out_dir), GRAPH_OPS, ops, results)
    _write_report(out_dir, "graph", inputs, results, [], [], None)
    return EXIT_OK


def cmd_fuse(args, out_dir: Path) -> int:
    rankings = _read_rankings_csv(Path(args.rankings))
    inputs = [Path(args.rankings)]
    weights = None
    profile_json = None
    if args.weighting != "none":
        if not args.estimates:
            raise InvalidArgument("weighting needs --estimates")
        est_path = Path(args.estimates)
        inputs.append(est_path)
        estimates = _read_estimates(est_path, [r.source for r in rankings])
        alt_lists = {r.source: (estimates[r.source], list(r.alternatives))
                     for r in rankings}
        profile = rankfuse.source_weights(alt_lists, mode=args.weighting)
        weights = [float(w) for w in profile.w]
        profile_json = {"sources": list(profile.sources),
                        "w": profile.w, "rho": profile.rho,
                        "x1": profile.x1, "x2": profile.x2,
                        "mode": profile.mode}
    cycles: List[List[str]] = []
    objective = None
    if args.method == "borda":
        fused = rankfuse.borda(rankings, weights)
    elif args.method == "condorcet":
        fused, cycles = rankfuse.condorcet(rankings, weights)
    else:
        mode = "heuristic" if args.heuristic else "exact"
        fused, objective = rankfuse.kemeny_median(rankings, weights, mode=mode)
    results = {
        "method": args.method,
        "ranking": {a: r for a, r in fused.items},
        "cycles": cycles,
        "objective": objective,
        "weights": (dict(zip(profile_json["sources"], profile_json["w"]))
                    if profile_json else None),
        "weight_profile": profile_json,
    }
    _write_report(out_dir, "fuse", inputs, results, [], [], None)
    return EXIT_OK


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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, out_dir)
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

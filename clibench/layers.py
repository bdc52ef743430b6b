"""Fold the traced passes into per-layer metrics.

A layer is an `ioscope` module. A span's self time is its duration minus
the durations of its direct children, so the self times of one
invocation's spans add up to the duration of its root span
(`cli.main`). Time metrics are totals over one pass of the workload, in
seconds; `*.peak_mb` is the largest value over the pass.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

from trace_child import MODULES

# Named functions whose inclusive time or call count is reported.
TIMED = ("cli.read_series_csv", "cli.write_matrix_csv", "correlation.autocorrelation",
         "spectral.gabor", "wavelet.cwt", "wavelet.get_wavelet", "fractal.delta_l_field",
         "fractal.hurst_profile", "templates.scan_detect",
         "agentsim.simulate_population", "netimpact.network_stats", "netimpact.hits",
         "rankfuse.kemeny_median")
COUNTED = ("wavelet.get_wavelet", "fractal.hurst_rs", "rankfuse.kemeny_distance")
IMPORTED = tuple(m for m in MODULES if m != "cli")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"import.total_s": "s", "import.modules": "count"}
    units.update({f"import.{m}_s": "s" for m in IMPORTED})
    units["proc.startup_s"] = "s"
    for m in MODULES:
        units.update({f"{m}.self_s": "s", f"{m}.calls": "count", f"{m}.peak_mb": "MB"})
    units.update({f"{f}_s": "s" for f in TIMED})
    units.update({f"{f}.calls": "count" for f in COUNTED})
    units.update({"cli.write_matrix_csv.cells": "count", "cli.bytes_written": "bytes",
                  "agentsim.agents": "count", "trace.overhead_s": "s",
                  "trace.unaccounted_s": "s"})
    return units


def read_spans(path: Path) -> Dict:
    head, spans, tail = (json.loads(line) for line in path.read_text().splitlines())
    head["spans"] = spans
    head.update(tail)
    return head


def fold_spans(traces: Iterable[Dict]) -> Dict[str, float]:
    """Self time and calls per module, inclusive time of TIMED functions,
    calls of COUNTED ones, and, summed over the invocations, the child's
    wall time (spawn to reap), interpreter start-up and exit
    (`proc.startup_s`: spawn to the entry script's first line, plus the
    end of the span dump to reap), import and tracer time."""
    out: Dict[str, float] = defaultdict(float)
    for tr in traces:
        names, spans = tr["names"], tr["spans"]
        child_time = [0.0] * len(spans)
        for parent, _, t0, t1, *_ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (parent, key, t0, t1, *_) in enumerate(spans):
            name = names[key]
            module, fn = name.split(".", 1)
            out[f"{module}.self_s"] += (t1 - t0) - child_time[i]
            out[f"{module}.calls"] += 1
            out[f"{name}.calls"] += 1
            if name in TIMED and not _has_ancestor(spans, parent, key):
                out[f"{name}_s"] += t1 - t0
        out["wall_s"] += tr["reaped"] - tr["spawned"]
        out["proc.startup_s"] += ((tr["script_start"] - tr["spawned"])
                                  + (tr["reaped"] - tr["dump_end"]))
        out["import_s"] += tr["import"][1] - tr["import"][0]
        out["tracer_s"] += tr["instrument_s"] + tr["dump_s"]
    return out


def _has_ancestor(spans: List, parent: int, key: int) -> bool:
    while parent >= 0:
        if spans[parent][1] == key:
            return True
        parent = spans[parent][0]
    return False


def fold_peaks(traces: Iterable[Dict]) -> Dict[str, float]:
    """Largest traced-memory peak above a call's start, per module, in MB."""
    out: Dict[str, float] = defaultdict(float)
    for tr in traces:
        for parent, key, _, _, peak in tr["spans"]:
            module = tr["names"][key].split(".", 1)[0]
            out[f"{module}.peak_mb"] = max(out[f"{module}.peak_mb"], peak / 2 ** 20)
    return out


def fold_importtime(stderr_texts: Iterable[str]) -> Dict[str, float]:
    """From `python -X importtime` output: the time of every import the
    process made (the top-level entries, wherever in the run they
    happened), the cumulative time of each ioscope module (which includes
    what it pulls in, such as scipy), both summed over the invocations,
    and the median count of modules imported per invocation."""
    out: Dict[str, float] = defaultdict(float)
    counts = []
    for text in stderr_texts:
        n = 0
        for line in text.splitlines():
            fields = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or len(fields) != 3 \
                    or not fields[0].strip().isdigit():
                continue  # other stderr output, or the column header
            n += 1
            cumulative, name = int(fields[1]) * 1e-6, fields[2].strip()
            if fields[2].startswith("  "):
                pass  # nested: already inside its importer's cumulative time
            else:
                out["import.total_s"] += cumulative
            if name.startswith("ioscope.") and name[8:] in IMPORTED:
                out[f"import.{name[8:]}_s"] += cumulative
        counts.append(n)
    counts.sort()
    out["import.modules"] = counts[len(counts) // 2] if counts else 0
    return out

"""The golden-output corpus: CLI invocations on the small committed files
in inputs/, each run in process through ``cli.main``, and the manifest
that tests/test_golden.py checks them against.

Rewrite the manifest and the expected JSON outputs with

    PYTHONPATH=src python tests/golden/regen.py

A change that alters outputs on purpose commits the rewritten files: the
manifest diff names every output that changed.

For each invocation the manifest records the exit code, stderr, the
files the run wrote and the SHA-256 of each, with the report's
``timestamp`` blanked. A matrix or population CSV also gets its shape,
its empty-cell count, the most digits written in any of its numbers, and
the sum, min and max of its numbers; a JSON output is committed under
expected/<invocation>/. Digests hold only for the numpy version and
machine recorded at the top of the manifest.
"""

import contextlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
import warnings
from hashlib import sha256
from pathlib import Path

# numpy first, as under pytest: ioscope.cli then keeps numpy's BLAS
# threads as they are, so both run the same arithmetic
import numpy as np

from ioscope import cli

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
MANIFEST = HERE / "manifest.json"

ALL_OPS = ",".join(cli.ANALYZE_OPS)
# the ops that take one series, for inputs without a second
ONE_SERIES_OPS = ",".join(op for op in cli.ANALYZE_OPS
                          if op not in ("ccf", "coherence", "wcc"))
PAIR = ["--input", "a.csv", "--input2", "b.csv"]
WEIGHTS = ["--estimates", "estimates.csv", "--weighting"]

# name -> argv, paths relative to inputs/; each run adds its own --out
INVOCATIONS = {
    "analyze-mexican-hat": ["analyze", *PAIR, "--ops", ALL_OPS],
    "analyze-gaussian-wave": ["analyze", *PAIR, "--ops", ALL_OPS,
                              "--wavelet", "gaussian-wave"],
    "analyze-haar": ["analyze", *PAIR, "--ops", ALL_OPS, "--wavelet", "haar"],
    "analyze-morlet": ["analyze", *PAIR, "--ops", ALL_OPS, "--wavelet", "morlet"],
    "analyze-deseason-first": ["analyze", "--input", "a.csv", "--deseason-first",
                               "--ops", "sma,acf,dft,hurst,dl,mfdfa,wtmm,leaders"],
    "analyze-aggregated": ["analyze", "--input", "stamped.csv", "--aggregated",
                           "--ops", "mfdfa"],
    "analyze-timestamps": ["analyze", "--input", "stamped.csv",
                           "--ops", ONE_SERIES_OPS],
    "analyze-flags": ["analyze", "--input", "a.csv", "--ops", "sma,ewma,filter,gabor",
                      "--window", "5", "--alpha", "0.1", "--bin", "3",
                      "--gabor-width", "4"],
    "analyze-config": ["analyze", "--input", "b.csv", "--config", "analyze.cfg",
                       "--ops", "sma,ewma,filter,gabor"],
    "scan-builtin": ["scan", "--input", "a.csv"],
    "scan-templates": ["scan", "--input", "a.csv", "--templates", "templates",
                       "--scales", "5:40:1"],
    "simulate": ["simulate", "--seed", "1"],
    "simulate-links": ["simulate", "--seed", "7", "--ticks", "60", "--pd", "0.05",
                       "--plink", "0.2", "--ps", "0.1", "--phi", "saturating"],
    "graph": ["graph", "--edges", "edges.tsv", "--ratings", "ratings.csv",
              "--ops", "stats,hits,ioscore"],
    "graph-failing-op": ["graph", "--edges", "edges.tsv",
                         "--ops", "stats,hits,ioscore"],
    "fuse-borda": ["fuse", "--rankings", "rankings.csv"],
    "fuse-borda-density": ["fuse", "--rankings", "rankings.csv", *WEIGHTS, "density"],
    "fuse-condorcet-dispersion": ["fuse", "--rankings", "rankings.csv",
                                  "--method", "condorcet", *WEIGHTS, "dispersion"],
    "fuse-kemeny-density": ["fuse", "--rankings", "rankings.csv",
                            "--method", "kemeny", *WEIGHTS, "density"],
    "fuse-kemeny-heuristic": ["fuse", "--rankings", "rankings.csv",
                              "--method", "kemeny", "--heuristic",
                              *WEIGHTS, "dispersion"],
    "usage-unknown-op": ["analyze", "--input", "a.csv", "--ops", "sma,nosuch"],
    "usage-bad-row": ["analyze", "--input", "bad.csv", "--ops", "sma"],
}


def machine() -> str:
    """What the digests depend on besides numpy's version: the platform,
    the C library, the CPU count (BLAS splits its work by it) and the
    CPU features numpy dispatches its kernels on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return " ".join([platform.system(), platform.machine(), *platform.libc_ver(),
                     f"cpus={os.cpu_count()}", *features])


def run(argv, out_dir: Path):
    """cli.main on argv plus --out out_dir, from inputs/, with warnings as
    errors: its exit code and stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(INPUTS)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main([*argv, "--out", str(out_dir)])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def blanked(path: Path) -> bytes:
    """The file's bytes, a JSON file's ``timestamp`` value made empty."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
    return data


def csv_summary(data: bytes) -> dict:
    """Shape, empty cells, the most significant digits written in any
    number (its mantissa's digits, leading zeros dropped: the number
    format's precision, which a last-bit difference does not change), and
    the sum of |v|, min and max of the numbers of a CSV; a cell that is
    text (a header) is not a number."""
    rows = [line.split(",") for line in data.decode().splitlines()]
    nums, digits = [], 0
    for cell in (c for row in rows for c in row if c):
        try:
            nums.append(float(cell))
        except ValueError:
            continue
        mantissa = cell.lower().split("e")[0].lstrip("+-0.")
        digits = max(digits, sum(ch.isdigit() for ch in mantissa))
    return {"shape": [len(rows), max(map(len, rows), default=0)],
            "empty": sum(c == "" for row in rows for c in row),
            "mantissa_digits": digits,
            "abs_sum": math.fsum(map(abs, nums)),
            "min": min(nums, default=None), "max": max(nums, default=None)}


def record(argv, out_dir: Path) -> dict:
    """One invocation's manifest entry, from a run into out_dir."""
    code, stderr = run(argv, out_dir)
    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    outputs = {}
    for name in names:
        data = blanked(out_dir / name)
        outputs[name] = {"sha256": sha256(data).hexdigest()}
        if name.endswith(".csv"):
            outputs[name].update(csv_summary(data))
    return {"argv": list(argv), "exit": code, "stderr": stderr,
            "artifacts": names, "outputs": outputs}


def main() -> int:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in INVOCATIONS.items():
            out_dir = Path(tmp) / name
            entries[name] = record(argv, out_dir)
            keep = EXPECTED / name
            for old in keep.glob("*.json") if keep.is_dir() else ():
                old.unlink()
            for out in entries[name]["artifacts"]:
                if out.endswith(".json"):
                    keep.mkdir(parents=True, exist_ok=True)
                    (keep / out).write_bytes(blanked(out_dir / out))
    manifest = {"numpy": np.__version__, "machine": machine(),
                "invocations": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the `ioscope` CLI.

    python3 clibench/run.py --workload {triage,fields,influence} --seed N \
        --seconds S --trace {0,1} [--smoke]

A single client runs the workload's fixed list of invocations one after
another, each a fresh `python -m ioscope.cli ...` process (a closed loop:
the next invocation starts when the previous one has exited), on inputs
made from `--seed`. Every output is checked.

`--trace 0` repeats passes over the list while another pass fits in
`--seconds` (at least two passes), times a fresh `import ioscope.cli`
process (set-up) before each pass and after the last, and prints the
end-to-end metrics.

`--trace 1` runs one pass of each kind: untraced, traced (spans), traced
with tracemalloc, and under `python -X importtime`, and prints the
per-layer metrics (see layers.py).

`--smoke` uses small inputs and one pass.

Informational lines start with `#`; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Sequence

import checks
import inputs
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "ioscope" / "schema" / "report.schema.json"
WORK = ROOT / ".clibench_work"

MIN_PASSES = 2
DEADLINE_S = 170.0  # no child starts after this; a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> Dict[str, str]:
    """The caller's environment with `src` on the path and no thread
    count above the number of CPUs this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        if env.get(var, "").isdigit() and int(env[var]) > ncpu:
            env[var] = str(ncpu)
    return env


class Runner:
    """Runs one child at a time through launcher.py, which records its
    wall time, CPU time and peak RSS (from `os.wait4`)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.floor_mb = json.loads(self.launcher.stdout.readline())["floor_mb"]
        # Exit through main's `finally`, which ends the launcher and its child.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def run(self, argv: List[str], log: Path) -> Dict:
        timeout = int(self.deadline - time.monotonic())
        self.launcher.stdin.write(json.dumps(
            {"argv": argv, "log": str(log), "timeout": timeout}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.launcher.wait()}")
        return dict(json.loads(line), log=log)

    def close(self) -> None:
        """Ends the launcher by SIGTERM; it kills and reaps a running child
        first."""
        if self.launcher.poll() is None:
            self.launcher.terminate()
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()


class Workload:
    """One workload's invocations, their output directories and checks."""

    def __init__(self, name: str, seed: int, size: str, runner: Runner):
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.invocations = workloads.build(name, seed, self.dir / "inputs", size)
        self.input_digests = inputs.digest((self.dir / "inputs").iterdir())
        self.runner = runner
        self.checker = checks.Checker(SCHEMA)
        self.problems: List[str] = []

    def out_dir(self, kind: str, i: int) -> Path:
        return self.dir / "out" / kind / str(i)

    def run_passes(self, kinds: Sequence[str]) -> Dict[str, Dict]:
        """One pass over the list for each of `kinds` (see `child_argv`),
        interleaved: each invocation runs as every kind before the next
        invocation starts, so the kinds see the same machine conditions.
        Outputs are checked after the passes, untimed."""
        results: Dict[str, List[Dict]] = {kind: [] for kind in kinds}
        for i, inv in enumerate(self.invocations):
            for kind in kinds:
                out = self.out_dir(kind, i)
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                argv = self.child_argv(kind, i) + inv["argv"] + ["--out", str(out)]
                results[kind].append(self.runner.run(argv, self.dir / f"{kind}.{i}.log"))
        for kind, runs in results.items():
            for i, (inv, r) in enumerate(zip(self.invocations, runs)):
                r["ok"] = False
                if r["rc"] == 0:
                    out = self.out_dir(kind, i)
                    bad = self.checker.check(i, inv, out)
                    self.problems += [f"{kind} #{i} {inv['argv'][0]}: {p}" for p in bad]
                    r["ok"] = not bad
                    r["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        return {kind: {"wall": sum(r["wall"] for r in runs), "results": runs}
                for kind, runs in results.items()}

    def child_argv(self, kind: str, i: int) -> List[str]:
        """Interpreter arguments before the CLI's own: `plain` is the real
        invocation, `importtime` adds `-X importtime`, and `spans` /
        `memory` go through the tracing entry point."""
        if kind == "plain":
            return ["-m", "ioscope.cli"]
        if kind == "importtime":
            return ["-X", "importtime", "-m", "ioscope.cli"]
        return [str(HERE / "trace_child.py"), str(self.dir / f"{kind}.{i}.json"),
                kind, "--"]


def end_to_end(wl: Workload, seconds: float, smoke: bool, info: List[str]) -> Dict:
    runner = wl.runner
    probes, passes = [], []

    def probe() -> None:
        r = runner.run(["-c", "import ioscope.cli"], wl.dir / "setup.log")
        if r["rc"] != 0:
            raise RuntimeError("import ioscope.cli failed:\n" + r["log"].read_text()[-2000:])
        probes.append(r)

    # A set-up probe before every pass and one after the last, so that the
    # probes and the passes sample the same machine conditions. A pass
    # starts only if it and the closing probe fit in `seconds`.
    t0 = time.monotonic()
    while True:
        probe()
        passes.append(wl.run_passes(["plain"])["plain"])
        if smoke:
            break
        one_probe = statistics.median(p["wall"] for p in probes)
        # the next probe and pass, then the closing probe
        needed = statistics.median(p["wall"] for p in passes) + 2 * one_probe
        if time.monotonic() + 2 * needed > runner.deadline:
            break
        if len(passes) >= MIN_PASSES and time.monotonic() - t0 + needed > seconds:
            break
    probe()
    inv = [(i, r) for p in passes for i, r in enumerate(p["results"])]
    results = [r for _, r in inv]
    walls = sorted((r["wall"], i) for i, r in inv)
    slowest = walls[-max(1, len(walls) // 4):]
    info.append(f"# passes {len(passes)} x {len(wl.invocations)} invocations = "
                f"{len(walls)} samples; pass walls "
                + " ".join(f"{p['wall']:.3f}" for p in passes))
    info.append("# invocation walls by pass " + json.dumps(
        [[round(r["wall"], 4) for r in p["results"]] for p in passes]))
    info.append(f"# invocation_tail_s = p{100 - 50 / 4:g} by rank: median of the "
                f"slowest quarter, {len(slowest)} of {len(walls)} samples, from "
                "invocations " + " ".join(f"[{i}]" for _, i in slowest))
    info.append("# setup probes " + " ".join(f"{p['wall']:.3f}" for p in probes))
    for i, argv in enumerate(x["argv"] for x in wl.invocations):
        med = statistics.median(p["results"][i]["wall"] for p in passes)
        rcs = sorted({p["results"][i]["rc"] for p in passes})
        info.append(f"# [{i}] median {med:.3f} s rc {rcs}: ioscope "
                    + " ".join(Path(a).name if os.sep in a else a for a in argv))
    return {
        "metrics": {
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "invocation_p50_s": (statistics.median(w for w, _ in walls), "s"),
            "invocation_tail_s": (statistics.median(w for w, _ in slowest), "s"),
            "cpu_s": (statistics.median(sum(r["cpu"] for r in p["results"])
                                        for p in passes), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
            "setup_s": (statistics.median(p["wall"] for p in probes), "s"),
            "ok_frac": (sum(r["ok"] for r in results) / len(results), "fraction"),
        },
        "results": results,
    }


def per_layer(wl: Workload, info: List[str]) -> Dict:
    passes = wl.run_passes(["plain", "spans", "memory", "importtime"])
    plain, spans, imports = passes["plain"], passes["spans"], passes["importtime"]
    def traces(kind: str) -> List[Dict]:
        """Each invocation's spans, with the launcher's spawn and reap
        instants; an invocation that wrote no spans is left out."""
        out = []
        for i, r in enumerate(passes[kind]["results"]):
            path = wl.dir / f"{kind}.{i}.json"
            if path.is_file():
                out.append(dict(layers.read_spans(path), spawned=r["spawned"],
                                reaped=r["reaped"]))
        return out

    folded = layers.fold_spans(traces("spans"))
    values = {name: 0.0 for name in layers.metric_units()}
    values.update({k: v for k, v in folded.items() if k in values})
    values.update(layers.fold_peaks(traces("memory")))
    values.update(layers.fold_importtime(r["log"].read_text()
                                         for r in imports["results"]))
    self_total = sum(values[f"{m}.self_s"] for m in layers.MODULES)
    values["trace.overhead_s"] = spans["wall"] - plain["wall"]
    values["trace.unaccounted_s"] = (folded["wall_s"] - self_total - folded["import_s"]
                                     - folded["proc.startup_s"] - folded["tracer_s"])
    values["cli.write_matrix_csv.cells"] = float(sum(wl.checker.cells.values()))
    values["cli.bytes_written"] = float(sum(r.get("bytes", 0) for r in plain["results"]))
    for i, inv in enumerate(wl.invocations):
        if inv["argv"][0] == "simulate" and plain["results"][i]["ok"]:
            report = json.loads((wl.out_dir("plain", i) / "report.json").read_text())
            values["agentsim.agents"] = float(report["results"]["agents"])
    info.append(f"# traced invocations {folded['wall_s']:.3f} s = module self "
                f"{self_total:.3f} + import {folded['import_s']:.3f} + startup "
                f"{folded['proc.startup_s']:.3f} + tracer {folded['tracer_s']:.3f} "
                f"+ unaccounted {values['trace.unaccounted_s']:.3f}; traced pass "
                f"{spans['wall']:.3f} s, untraced pass {plain['wall']:.3f} s")
    units = layers.metric_units()
    return {"metrics": {k: (values[k], units[k]) for k in units},
            "results": [r for p in passes.values() for r in p["results"]]}


def code_identity() -> str:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    h = hashlib.sha256()
    for p in sorted((SRC / "ioscope").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return f"commit {commit or 'unavailable'} src-sha256 {h.hexdigest()[:16]}"


def environment() -> str:
    versions = []
    for pkg in ("numpy", "scipy", "networkx", "jsonschema"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"python {sys.version.split()[0]} " + " ".join(versions)
            + f"; nproc {len(os.sched_getaffinity(0))}; {threads}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs and one pass")
    args = ap.parse_args()
    if not SCHEMA.is_file():
        print(f"clibench: no ioscope sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(deadline=time.monotonic() + DEADLINE_S)
    try:
        return measure(args, runner)
    finally:
        runner.close()


def measure(args: argparse.Namespace, runner: Runner) -> int:
    compileall.compile_dir(str(SRC / "ioscope"), quiet=1)
    wl = Workload(args.workload, args.seed, "smoke" if args.smoke else "full", runner)
    info = [f"# clibench workload {args.workload} seed {args.seed} trace {args.trace}"
            f"{' smoke' if args.smoke else ''}",
            f"# {code_identity()}", f"# {environment()}",
            "# inputs " + " ".join(f"{k}={v}" for k, v in wl.input_digests.items()),
            f"# children are spawned by launcher.py, whose own peak RSS "
            f"({runner.floor_mb:.1f} MB) is the floor of their ru_maxrss"]
    try:
        if args.trace:
            out = per_layer(wl, info)
        else:
            out = end_to_end(wl, args.seconds, args.smoke, info)
    except RuntimeError as exc:
        print("\n".join(info), flush=True)
        print(f"clibench: {exc}", file=sys.stderr)
        return 2
    results = out["results"]
    info += [f"# problem: {p}" for p in wl.problems]
    for r in results:
        if r["rc"] != 0:
            last = r["log"].read_text().strip().splitlines()[-1:] or [""]
            info.append(f"# exit {r['rc']}: {last[0][:200]}")
    print("\n".join(dict.fromkeys(info)))
    wrong = any(r["rc"] == 0 and not r["ok"] for r in results)
    result = {
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    if not wrong:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics, used to set the bounds.

    python3 clibench/spread.py --workload triage --seeds 1-10
    python3 clibench/spread.py --from results.jsonl

Runs `run.py --trace 0` once per seed, one run at a time, for the
`run_seconds` that BENCHMARK.json declares, and prints each
metric's median, quartiles and quartile spread (Q3 - Q1) / median, with
quartiles as `statistics.quantiles(values, n=4)` gives them. With
`--save FILE` the result lines are appended to FILE (JSON lines with the
workload and seed), and `--from FILE` summarizes such a file instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def summarize(rows) -> None:
    by_workload = defaultdict(list)
    for row in rows:
        by_workload[row["workload"]].append(row)
    for workload, runs in by_workload.items():
        print(f"{workload}: {len(runs)} runs, seeds "
              + ",".join(str(r["seed"]) for r in runs))
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:18s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / med if med else 0.0:.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--save", type=Path)
    ap.add_argument("--from", dest="source", type=Path)
    args = ap.parse_args()
    if args.source:
        summarize(json.loads(line) for line in args.source.read_text().splitlines())
        return 0
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    rows = []
    for workload in args.workload:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            row = {"workload": workload, "seed": seed,
                   "result": json.loads(proc.stdout.splitlines()[-1])}
            rows.append(row)
            if args.save:
                with open(args.save, "a") as fh:
                    fh.write(json.dumps(row) + "\n")
    summarize(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

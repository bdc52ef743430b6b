"""Smoke test of the benchmark itself.

    python3 clibench/smoke.py

Runs every workload once with small inputs (`run.py --smoke`), untraced
and traced, and fails unless each run exits 0, its outputs pass the
checks, and its last line holds every metric that BENCHMARK.json
declares for that mode, with the declared unit. Then copies only
BENCHMARK.json and the benchmark directory into an empty directory and
checks that the benchmark refuses to run there (exit code not 0, no
result line). Takes about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".clibench_work" / "bare"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "clibench/run.py", "--seed", "7",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc: subprocess.CompletedProcess, declared) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"correct {result['correct']} attempted {result['attempted']}")
    problems += [line for line in proc.stdout.splitlines() if line.startswith("# problem")]
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']}: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = run(ROOT, "--workload", w["name"], "--trace", trace, "--smoke")
            problems = check_result(proc, declared)
            print(f"{w['name']} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    shutil.rmtree(BARE, ignore_errors=True)
    shutil.copytree(HERE, BARE / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    proc = run(BARE, "--workload", spec["workloads"][0]["name"], "--trace", "0")
    refused = proc.returncode != 0 and not proc.stdout.strip().endswith("}")
    print(f"bare directory: {'refused' if refused else 'FAIL: ran'} "
          f"(exit {proc.returncode}: {proc.stderr.strip()[-200:]})")
    shutil.rmtree(BARE.parent, ignore_errors=True)
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

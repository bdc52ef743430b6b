"""Output checks for one `ioscope` invocation.

Every check recomputes what it can from the benchmark's own inputs,
independently of `ioscope`, and compares with a relative tolerance of
1e-9, so a rewrite that matches the current output to that tolerance
still passes. Seeded simulation outputs are only checked for what does
not depend on the draw order of the random numbers.

`check(...)` returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import jsonschema

TOL = 1e-9

MATRIX_OPS = ("gabor", "cwt", "scalogram", "coherence", "dl")
CURVE_OPS = ("sma", "ewma", "deseason", "filter", "hurst-profile")
MF_OPS = ("mfdfa", "wtmm", "leaders")
SCALE_GRID = 64  # rows of the CLI's default wavelet scale grid
GABOR_FREQS = 32  # rows of the CLI's Gabor frequency grid


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def finite_or_null(values) -> bool:
    return all(v is None or (isinstance(v, (int, float)) and math.isfinite(v))
               for v in values)


def read_matrix_csv(path: Path) -> Tuple[int, int, List[str]]:
    """Rows and columns of a matrix CSV, and any problems with its cells."""
    problems: List[str] = []
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = len(header) - 1
    if header[0] != "":
        problems.append(f"{path.name}: header must start with an empty field")
    defined = 0
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != cols + 1:
            problems.append(f"{path.name}:{i}: {len(fields)} fields, want {cols + 1}")
            break
        cells = [float(f) for f in fields[1:] if f]
        if not all(map(math.isfinite, cells)):
            problems.append(f"{path.name}:{i}: non-finite cell")
            break
        defined += len(cells)
    if defined == 0:
        problems.append(f"{path.name}: no defined cells")
    return len(lines) - 1, cols, problems


def _expected_shape(op: str, n: int) -> Tuple[Optional[int], int]:
    if op == "gabor":
        return GABOR_FREQS, n - 2 * (n // 8)
    if op == "dl":
        return n // 4 - 2, n
    return SCALE_GRID, n


def check_analyze(out: Path, report: Dict, argv: Sequence[str], n: int,
                  stats: Dict) -> List[str]:
    ops = argv[argv.index("--ops") + 1].split(",")
    res = report["results"]
    problems = [f"missing result {op!r}" for op in ops if op not in res]
    for op in ops:
        r = res.get(op)
        if r is None:
            continue
        if op in MATRIX_OPS:
            csv = out / r["artifact"]
            if not csv.is_file() or not csv.with_suffix(".gnuplot").is_file():
                problems.append(f"{op}: artifact missing")
                continue
            rows, cols, bad = read_matrix_csv(csv)
            problems += bad
            if (rows, cols) != _expected_shape(op, n):
                problems.append(f"{op}: shape {rows}x{cols}, "
                                f"want {_expected_shape(op, n)}")
            stats["cells"] += rows * cols
        elif op in CURVE_OPS:
            if not (0 < len(r["values"]) == len(r["times"]) <= n
                    and finite_or_null(r["values"])):
                problems.append(f"{op}: bad curve")
        elif op == "acf":
            v = r["values"]
            if not (len(v) == n // 4 + 1 and close(v[0], 1.0)
                    and all(abs(x) <= 1 + TOL for x in v)):
                problems.append("acf: bad curve")
        elif op == "dft":
            a = r["amplitude"]
            if not (len(a) == len(r["freqs"]) > 0 and finite_or_null(a)
                    and min(a) >= 0):
                problems.append("dft: bad spectrum")
        elif op == "hurst":
            if not (isinstance(r["H"], float) and 0 < r["H"] < 2):
                problems.append("hurst: bad exponent")
        elif op == "wcc":
            if not (len(r["values"]) == len(r["scales"]) == SCALE_GRID
                    and finite_or_null(r["values"])):
                problems.append("wcc: bad values")
        elif op in MF_OPS:
            lens = {len(r[k]) for k in ("q", "tau", "alpha", "f_alpha")}
            if len(lens) != 1 or not all(finite_or_null(r[k]) for k in ("q", "tau")):
                problems.append(f"{op}: bad spectrum")
    return problems


def check_scan(out: Path, report: Dict, n: int, threshold: float,
               scales: Tuple[int, int]) -> List[str]:
    det = json.loads((out / "detections.json").read_text())
    found = det["detections"]
    problems = []
    if report["results"]["detections"] != len(found):
        problems.append("scan: detection count differs from detections.json")
    for d in found:
        if not (d["template"] in det["templates"]
                and scales[0] <= d["scale"] <= scales[1]
                and 0 <= d["location"] <= n - d["scale"]
                and threshold - TOL <= d["score"] <= 1 + TOL):
            problems.append(f"scan: bad detection {d}")
            break
    if [d["score"] for d in found] != sorted((d["score"] for d in found), reverse=True):
        problems.append("scan: detections not sorted by score")
    return problems


def check_graph(report: Dict, edges: str, ratings: Optional[str]) -> List[str]:
    """The impact graph reverses each citation `a cites b` into `b -> a`."""
    nodes, impact = set(), set()
    for line in Path(edges).read_text().splitlines():
        a, b = line.split("\t")[:2]
        nodes.update((a, b))
        if a != b:
            impact.add((b, a))
    if ratings:
        nodes.update(line.split(",")[0]
                     for line in Path(ratings).read_text().splitlines()[1:])
    res = report["results"]
    problems = []
    if (res["n"], res["m"]) != (len(nodes), len(impact)):
        problems.append(f"graph: n, m = {res['n']}, {res['m']}; "
                        f"want {len(nodes)}, {len(impact)}")
    if "stats" in res:
        per = res["stats"]["per_node"]
        for node in nodes:
            out_deg = sum(1 for u, _ in impact if u == node)
            in_deg = sum(1 for _, v in impact if v == node)
            if (per[node]["out_degree"], per[node]["in_degree"]) != (out_deg, in_deg):
                problems.append(f"graph: degrees of {node}")
                break
    if "hits" in res:
        for key in ("authority", "hub"):
            v = list(res["hits"][key].values())
            if not (len(v) == len(nodes) and finite_or_null(v) and min(v) >= -TOL
                    and close(math.fsum(x * x for x in v), 1.0)):
                problems.append(f"graph: bad {key} vector")
    if "ioscore" in res and not isinstance(res["ioscore"], dict):
        problems.append("graph: bad ioscore")
    return problems


def read_rankings(path: str) -> Dict[str, Dict[str, int]]:
    per: Dict[str, Dict[str, int]] = {}
    for line in Path(path).read_text().splitlines()[1:]:
        src, alt, rank = line.split(",")
        per.setdefault(src, {})[alt] = int(rank)
    return dict(sorted(per.items()))


def density_weights(per: Dict[str, Dict[str, int]], estimates: str) -> List[float]:
    """Credibility weights w*_i = E_i (x1 O_i + x2 V_i) with x2 the
    representation density, normalized to total 1."""
    est = {}
    for line in Path(estimates).read_text().splitlines():
        src, value = line.split(",")
        est[src] = float(value)
    m = [len(r) for r in per.values()]
    hits: Dict[str, int] = {}
    for r in per.values():
        for alt in r:
            hits[alt] = hits.get(alt, 0) + 1
    p = len(hits)
    x2 = sum(hits.values()) / (len(per) * p)
    w = [est.get(s, 0.0) * ((1 - x2) * mi / p + x2 * mi / sum(m))
         for s, mi in zip(per, m)]
    return [wi / math.fsum(w) for wi in w]


def pair_costs(per: Dict[str, Dict[str, int]], w: Sequence[float],
               alts: Sequence[str]) -> List[List[float]]:
    """cost[i][j]: weighted Kemeny distance contributed by placing alts[i]
    before alts[j]. An omitted alternative sits at rank m + 1, and a tie
    costs half of a reversal."""
    k = len(alts)
    cost = [[0.0] * k for _ in range(k)]
    for wj, r in zip(w, per.values()):
        pad = len(r) + 1
        ranks = [r.get(a, pad) for a in alts]
        for i, j in itertools.permutations(range(k), 2):
            if ranks[i] > ranks[j]:
                cost[i][j] += 4 * wj
            elif ranks[i] == ranks[j]:
                cost[i][j] += 2 * wj
    return cost


def order_cost(order: Sequence[int], cost: List[List[float]]) -> float:
    return math.fsum(cost[a][b] for x, a in enumerate(order) for b in order[x + 1:])


def check_fuse(report: Dict, argv: Sequence[str], rankings: str,
               estimates: Optional[str]) -> List[str]:
    per = read_rankings(rankings)
    alts = sorted({a for r in per.values() for a in r})
    res = report["results"]
    got = res["ranking"]
    if sorted(got) != alts or min(got.values()) < 1:
        return ["fuse: ranking does not cover the alternatives"]
    problems = []
    w = [1.0] * len(per)
    if estimates:
        w = density_weights(per, estimates)
        rep = [res["weights"][s] for s in per]
        if not all(close(a, b) for a, b in zip(w, rep)):
            problems.append("fuse: density weights differ from recomputation")
    method = res["method"]
    if method == "borda":
        pad = {s: len(r) + 1 for s, r in per.items()}
        sums = {a: math.fsum(wj * r.get(a, pad[s]) for wj, (s, r)
                             in zip(w, per.items())) for a in alts}
        keys = sorted(set(sums.values()))
        if any(got[a] != keys.index(sums[a]) + 1 for a in alts):
            problems.append("fuse: Borda ranking differs from recomputation")
    elif method == "kemeny":
        order = sorted(range(len(alts)), key=lambda i: got[alts[i]])
        if sorted(got.values()) != list(range(1, len(alts) + 1)):
            return problems + ["fuse: Kemeny median is not a strict order"]
        cost = pair_costs(per, w, alts)
        obj = order_cost(order, cost)
        if not close(obj, res["objective"]):
            problems.append(f"fuse: objective {res['objective']} != recomputed {obj}")
        if "--heuristic" in argv:
            for i in range(len(order) - 1):
                a, b = order[i], order[i + 1]
                if cost[b][a] - cost[a][b] < -TOL * max(1.0, obj):
                    problems.append("fuse: heuristic median not locally optimal")
                    break
        else:
            best = min(order_cost(p, cost)
                       for p in itertools.permutations(range(len(alts))))
            if not close(obj, best):
                problems.append(f"fuse: exact objective {obj} > optimum {best}")
    elif method == "condorcet":
        if not all(set(c) <= set(alts) for c in res["cycles"]):
            problems.append("fuse: bad Condorcet cycles")
    return problems


def check_simulate(out: Path, report: Dict, ticks: int) -> List[str]:
    """Every agent reposts every tick, so tick t has exactly 2**t agents."""
    rows = [line.split(",") for line in
            (out / "population.csv").read_text().splitlines()[1:]]
    want = [[str(t), str(2 ** t), str(2 ** (t - 1) if t else 1), "0"]
            for t in range(ticks + 1)]
    res = report["results"]
    problems = []
    if rows != want:
        problems.append("simulate: population is not 2**t")
    if not (res["agents"] == 2 ** ticks and not res["capped"]
            and sum(res["lifespan_histogram"]) == 2 ** ticks
            and sum(res["like_histogram"]) == 2 ** ticks):
        problems.append("simulate: agent counts")
    fit = res["weibull_fit"]
    if not (fit.get("k", 0) > 0 and fit.get("lambda", 0) > 0):
        problems.append(f"simulate: bad Weibull fit {fit}")
    return problems


TIMESTAMP = re.compile(rb'^\s*"timestamp": "[^"]*",?$', re.MULTILINE)


def digest_outputs(out: Path) -> str:
    """Digest of every output file, with the report's timestamp line
    removed (the report is written one key per line)."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        if p.name == "report.json":
            data = TIMESTAMP.sub(b"", data)
        h.update(p.name.encode() + b"\0" + data)
    return h.hexdigest()


class Checker:
    """Checks each invocation's outputs the first time it runs and, on
    later passes, that the outputs are identical to the first ones."""

    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)
        self.first: Dict[int, str] = {}
        self.cells: Dict[int, int] = {}

    def check(self, index: int, inv: Dict, out: Path) -> List[str]:
        report_path = out / "report.json"
        if not report_path.is_file():
            return ["no report.json"]
        digest = digest_outputs(out)
        if index in self.first:
            return [] if digest == self.first[index] else [
                "outputs differ from the first pass"]
        report = json.loads(report_path.read_text())
        problems = [e.message for e in self.validator.iter_errors(report)]
        missing = [a for a in report.get("artifacts", []) if not (out / a).is_file()]
        problems += [f"artifact {a} missing" for a in missing]
        if problems:
            return problems
        stats = {"cells": 0}
        try:
            problems = self._check_results(inv, out, report, stats)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if not problems:
            self.first[index] = digest
            self.cells[index] = stats["cells"]
        return problems

    @staticmethod
    def _check_results(inv: Dict, out: Path, report: Dict,
                       stats: Dict) -> List[str]:
        spec, argv = inv["check"], inv["argv"]
        kind = spec["kind"]
        problems: List[str] = []
        if report["command"] != argv[0]:
            problems.append(f"command {report['command']!r} != {argv[0]!r}")
        elif kind == "analyze":
            problems += check_analyze(out, report, argv, spec["n"], stats)
        elif kind == "scan":
            problems += check_scan(out, report, spec["n"], spec["threshold"],
                                   spec["scales"])
        elif kind == "graph":
            problems += check_graph(report, spec["edges"], spec.get("ratings"))
        elif kind == "fuse":
            problems += check_fuse(report, argv, spec["rankings"],
                                   spec.get("estimates"))
        elif kind == "simulate":
            problems += check_simulate(out, report, spec["ticks"])
        return problems

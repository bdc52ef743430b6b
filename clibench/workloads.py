"""The three workloads: each a fixed list of `ioscope` invocations over
inputs made from the seed.

An invocation is a dict with the CLI arguments (`argv`, without `--out`)
and what the output checks need to know about it (`check`). `SIZES`
holds the input sizes of a full run and of the smoke run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

import inputs

SIZES = {
    "full": {"small": 1024, "wide": 16384, "field": 512, "dl": 832,
             "gabor": 512, "scan": 1024, "kemeny_exact": 7, "kemeny_sources": 6,
             "kemeny_wide": 30, "graph_nodes": 150, "graph_edges": 800,
             "sim_ticks": 14},
    "smoke": {"small": 256, "wide": 1024, "field": 256, "dl": 128,
              "gabor": 128, "scan": 256, "kemeny_exact": 5, "kemeny_sources": 5,
              "kemeny_wide": 10, "graph_nodes": 20, "graph_edges": 60,
              "sim_ticks": 8},
}

WORKLOADS = ("triage", "fields", "influence")

# Repost probability 1 makes every live agent spawn one agent per tick,
# so the population is exactly 2**t at tick t whatever the seed: the
# work is the same on every seed and the count is checkable.
SIM_ARGS = ["--pr", "1.0", "--pl", "0.4", "--e0", "10"]


def _seed_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def build(workload: str, seed: int, in_dir: Path, size: str = "full") -> List[Dict]:
    """Write the workload's inputs into `in_dir` and return its invocations."""
    sz = SIZES[size]
    rng = _seed_rng(seed, workload)
    in_dir.mkdir(parents=True, exist_ok=True)

    def series(name: str, n: int) -> str:
        return str(inputs.write_series(in_dir / f"{name}.csv",
                                       inputs.counts_series(rng, n)))

    if workload == "triage":
        small, other, wide = (series("small", sz["small"]),
                              series("other", sz["small"]),
                              series("wide", sz["wide"]))
        inputs.write_rankings(in_dir / "rank8.csv", in_dir / "est8.csv", rng, 8, 5)
        return [
            {"argv": ["analyze", "--input", small, "--ops", "sma,ewma,deseason,dft"],
             "check": {"kind": "analyze", "n": sz["small"]}},
            {"argv": ["fuse", "--rankings", str(in_dir / "rank8.csv"),
                      "--method", "borda"],
             "check": {"kind": "fuse", "rankings": str(in_dir / "rank8.csv")}},
            # `ccf` is a known crash (missing max_lag); it stays in the list
            # so that the defect shows in ok_frac until it is fixed.
            {"argv": ["analyze", "--input", small, "--input2", other, "--ops", "ccf"],
             "check": {"kind": "analyze", "n": sz["small"]}},
            {"argv": ["analyze", "--input", wide,
                      "--ops", "sma,ewma,deseason,dft,filter,hurst,acf"],
             "check": {"kind": "analyze", "n": sz["wide"]}},
        ]
    if workload == "fields":
        a, b = series("a", sz["field"]), series("b", sz["field"])
        dl, gab, scan = (series("dl", sz["dl"]), series("gabor", sz["gabor"]),
                         series("scan", sz["scan"]))
        return [
            {"argv": ["analyze", "--input", a, "--input2", b, "--ops",
                      "cwt,scalogram,coherence,wcc,wtmm,leaders,mfdfa"],
             "check": {"kind": "analyze", "n": sz["field"]}},
            {"argv": ["analyze", "--input", dl, "--ops", "dl,hurst-profile"],
             "check": {"kind": "analyze", "n": sz["dl"]}},
            {"argv": ["analyze", "--input", gab, "--ops", "gabor"],
             "check": {"kind": "analyze", "n": sz["gabor"]}},
            {"argv": ["scan", "--input", scan],
             "check": {"kind": "scan", "n": sz["scan"], "threshold": 0.9,
                       "scales": (5, 60)}},
        ]
    if workload == "influence":
        def kemeny(name: str, n_alts: int, n_sources: int, *flags: str) -> Dict:
            rankings, estimates = in_dir / f"{name}.csv", in_dir / f"{name}_est.csv"
            inputs.write_rankings(rankings, estimates, rng, n_alts, n_sources)
            return {"argv": ["fuse", "--rankings", str(rankings), "--estimates",
                             str(estimates), "--weighting", "density",
                             "--method", "kemeny", *flags],
                    "check": {"kind": "fuse", "rankings": str(rankings),
                              "estimates": str(estimates)}}

        exact = kemeny("exact", sz["kemeny_exact"], sz["kemeny_sources"])
        heuristic = kemeny("wide", sz["kemeny_wide"], 5, "--heuristic")
        edges, ratings = str(in_dir / "cites.tsv"), str(in_dir / "ratings.csv")
        inputs.write_graph(Path(edges), Path(ratings), rng,
                           sz["graph_nodes"], sz["graph_edges"])
        sim_seed = str(int(rng.integers(2 ** 31)))
        return [
            exact,
            heuristic,
            {"argv": ["graph", "--edges", edges, "--ratings", ratings,
                      "--ops", "stats,hits,ioscore"],
             "check": {"kind": "graph", "edges": edges, "ratings": ratings}},
            {"argv": ["simulate", *SIM_ARGS, "--ticks", str(sz["sim_ticks"]),
                      "--seed", sim_seed],
             "check": {"kind": "simulate", "ticks": sz["sim_ticks"]}},
        ]
    raise ValueError(f"unknown workload {workload!r}")

"""Benchmark inputs, generated from a seed with numpy alone.

Nothing here imports `ioscope`, so a change to the program cannot change
the data it is measured on. Every generator takes its own
`numpy.random.Generator` and writes one file in the formats the CLI
reads (see the README's "Input formats").
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, List

import numpy as np


def _write(path: Path, lines: List[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def counts_series(rng: np.random.Generator, n: int) -> np.ndarray:
    """Daily publication counts: a slow random-walk level, a weekly cycle,
    two campaign bursts (ramp up, peak, decay) and Poisson noise."""
    t = np.arange(n, dtype=float)
    level = 60.0 + np.cumsum(rng.normal(0.0, 0.6, n))
    level -= min(0.0, level.min() - 20.0)
    weekly = 1.0 + 0.25 * np.sin(2 * np.pi * t / 7.0 + rng.uniform(0, 2 * np.pi))
    bursts = np.zeros(n)
    for _ in range(2):
        center = rng.uniform(0.15, 0.85) * n
        width = rng.uniform(0.01, 0.04) * n
        rise = np.clip((t - center + 3 * width) / (3 * width), 0.0, 1.0)
        fall = np.exp(-np.clip(t - center, 0.0, None) / width)
        bursts += rng.uniform(40.0, 120.0) * rise * fall
    return rng.poisson((level + bursts) * weekly).astype(float)


def write_series(path: Path, values: np.ndarray) -> Path:
    return _write(path, ["value"] + [format(v, ".10g") for v in values])


def write_graph(edges_path: Path, ratings_path: Path,
                rng: np.random.Generator, n_nodes: int, n_edges: int) -> None:
    """Citation rows `from<TAB>to<TAB>count` with preferential attachment
    toward a few well-rated outlets, and a rating for every node."""
    names = [f"src{i:04d}" for i in range(n_nodes)]
    ratings = rng.gamma(2.0, 20.0, n_nodes) + 1.0
    pull = ratings / ratings.sum()
    pairs: Dict[tuple, int] = {}
    while len(pairs) < n_edges:
        a = int(rng.integers(n_nodes))
        b = int(rng.choice(n_nodes, p=pull))
        if a != b:
            pairs[(a, b)] = pairs.get((a, b), 0) + int(rng.integers(1, 4))
    _write(edges_path, [f"{names[a]}\t{names[b]}\t{c}"
                        for (a, b), c in sorted(pairs.items())])
    _write(ratings_path, ["node,rating"] + [f"{nm},{r:.3f}"
                                           for nm, r in zip(names, ratings)])


def write_rankings(rankings_path: Path, estimates_path: Path,
                   rng: np.random.Generator, n_alts: int, n_sources: int) -> None:
    """Each source ranks a noisy view of one hidden order; a source may
    leave out up to a tenth of the alternatives (a partial ranking)."""
    alts = [f"alt{i:03d}" for i in range(n_alts)]
    merit = rng.normal(0.0, 1.0, n_alts)
    rows = ["source,alternative,rank"]
    for s in range(n_sources):
        noisy = merit + rng.normal(0.0, 0.7, n_alts)
        order = list(np.argsort(-noisy, kind="stable"))
        drop = int(rng.integers(0, n_alts // 10 + 1))
        rows += [f"s{s},{alts[a]},{r + 1}"
                 for r, a in enumerate(order[:n_alts - drop])]
    _write(rankings_path, rows)
    _write(estimates_path, [f"s{s},{e:.4f}"
                            for s, e in enumerate(rng.uniform(0.5, 2.0, n_sources))])


def digest(paths) -> Dict[str, str]:
    """Short sha256 of each input file, keyed by file name."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()[:16]
            for p in sorted(paths)}

"""Slow reference implementations that tests compare the library against."""

from typing import Dict, Sequence

import networkx as nx
import numpy as np

from ioscope.errors import InvalidArgument
from ioscope.netimpact import ImpactGraph
from ioscope.rankfuse import Ranking
from ioscope.series import ScaleField, TimeSeries
from ioscope.wavelet import Wavelet


def cwt_direct(x: TimeSeries, w: Wavelet, scales: Sequence[float]) -> ScaleField:
    """Direct quadratic-time evaluation of the transform definition.

    Reference path for correctness checks; O(T^2 |S|).
    """
    s = np.asarray(list(scales), dtype=float)
    xs = x.values
    t = x.times
    dtype = complex if w.is_complex else float
    cells = np.empty((s.size, xs.size), dtype=dtype)
    for i, si in enumerate(s):
        for j, l in enumerate(t):
            v = np.sum(xs * np.conj(w.evaluate((t - l) / si))) * x.step / np.sqrt(si)
            cells[i, j] = v if w.is_complex else v.real
    return ScaleField(rows=s, cols=t, cells=cells, kind="cwt")


def kemeny_distance_dense(r1: Ranking, r2: Ranking) -> int:
    """Kemeny distance from two full n x n float sign matrices."""
    alts = sorted(r1.alternatives)
    if alts != sorted(r2.alternatives):
        raise InvalidArgument("rankings cover different universes")

    def signs(r):
        ranks = np.array([r.ranks[a] for a in alts], dtype=float)
        return np.sign(ranks[None, :] - ranks[:, None])

    return int(np.sum(np.abs(signs(r1) - signs(r2))))


def to_networkx(g: ImpactGraph) -> nx.DiGraph:
    dg = nx.DiGraph()
    dg.add_nodes_from(g.nodes)
    for u, v, c in g.edges:
        dg.add_edge(u, v, weight=c)
    return dg


def network_stats_networkx(g: ImpactGraph) -> Dict[str, object]:
    """``netimpact.network_stats`` computed by networkx: one BFS per node,
    with 1/d summed in BFS order."""
    dg = to_networkx(g)
    ug = dg.to_undirected()
    n, m = g.n, g.m
    dist_sum = inv_sum = 0.0
    pair_count = 0
    ecc = {}
    for src, dists in nx.all_pairs_shortest_path_length(dg):
        reach = {k: v for k, v in dists.items() if k != src}
        ecc[src] = max(reach.values()) if reach else 0
        for d in reach.values():
            dist_sum += d
            inv_sum += 1.0 / d
            pair_count += 1
    clustering = nx.clustering(ug)
    betweenness = nx.betweenness_centrality(ug, normalized=False)
    return {
        "n": n,
        "m": m,
        "density": m / (n * (n - 1)) if n > 1 else 0.0,
        "avg_path": dist_sum / pair_count if pair_count else 0.0,
        "avg_path_inclusive": 2.0 * dist_sum / (n * (n + 1)),
        "efficiency": inv_sum / (n * (n - 1)) if n > 1 else 0.0,
        "diameter": max(ecc.values()),
        "avg_clustering": float(np.mean(list(clustering.values()))),
        "per_node": {
            node: {
                "in_degree": dg.in_degree(node),
                "out_degree": dg.out_degree(node),
                "eccentricity": ecc[node],
                "betweenness": betweenness[node],
                "clustering": clustering[node],
            }
            for node in g.nodes
        },
    }


def io_scenario_score_networkx(g: ImpactGraph, ratio_threshold: float = 2.0
                               ) -> Dict[str, object]:
    """The ``score`` and ``components`` of ``netimpact.io_scenario_score``,
    from networkx connected components and one rescan of the edges for
    each."""
    ratings = g.ratings or {}

    def score_edges(edges) -> float:
        up = tot = 0.0
        for u, v, c in edges:
            if u not in ratings or v not in ratings:
                continue
            ru, rv = ratings[u], ratings[v]
            if rv > ru:
                ratio = rv / ru if ru > 0 else np.inf
                w = 2.0 * c if ratio >= ratio_threshold else 1.0 * c
                up += w
                tot += w
            else:
                tot += 1.0 * c
        return up / tot if tot > 0 else 0.0

    components = {}
    for i, comp in enumerate(nx.connected_components(to_networkx(g).to_undirected())):
        score = score_edges([(u, v, c) for u, v, c in g.edges if u in comp])
        components[f"component-{i}"] = {"nodes": sorted(map(str, comp)),
                                        "score": score, "flagged": score > 0.5}
    return {"score": score_edges(g.edges), "components": components}

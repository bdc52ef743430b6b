"""Source-impact graphs: construction from citation lists, classical
network statistics, hub/authority scoring, and a quantitative score for
the low-rated-to-high-rated dissemination pattern."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .errors import (InsufficientRatings, InvalidArgument, NoConvergence,
                     NoEdges)

__all__ = [
    "ImpactGraph",
    "build_impact_graph",
    "network_stats",
    "hits",
    "io_scenario_score",
]


@dataclass(frozen=True)
class ImpactGraph:
    """Directed influence graph: an edge u -> v means u impacts v."""

    nodes: Tuple[Hashable, ...]
    edges: Tuple[Tuple[Hashable, Hashable, int], ...]  # (from, to, multiplicity)
    ratings: Optional[Dict[Hashable, float]] = None
    dropped_self_loops: int = 0

    def __post_init__(self):
        node_set = set(self.nodes)
        for u, v, c in self.edges:
            if u == v:
                raise InvalidArgument("self-loop in impact graph")
            if u not in node_set or v not in node_set:
                raise InvalidArgument("edge endpoint missing from node set")
            if c < 1:
                raise InvalidArgument("edge multiplicity must be >= 1")
        if self.ratings is not None:
            for node, r in self.ratings.items():
                if node not in node_set:
                    raise InvalidArgument(f"rating for unknown node {node!r}")
                if not np.isfinite(r) or r < 0:
                    raise InvalidArgument("ratings must be finite and >= 0")

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def to_networkx(self, weighted: bool = True) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        for u, v, c in self.edges:
            g.add_edge(u, v, weight=c if weighted else 1)
        return g


def build_impact_graph(citations: Sequence[Tuple[Hashable, ...]],
                       ratings: Optional[Dict[Hashable, float]] = None
                       ) -> ImpactGraph:
    """Turn a citation list (A cites B) into an impact graph (B -> A).

    A row is (A, B) or (A, B, count) for count citations. Duplicate
    citations accumulate multiplicity; self-citations are dropped and
    counted.
    """
    counts: Dict[Tuple[Hashable, Hashable], int] = {}
    nodes: Dict[Hashable, None] = {}
    dropped = 0
    for a, b, *count in citations:
        c = count[0] if count else 1
        nodes.setdefault(a)
        nodes.setdefault(b)
        if a == b:
            dropped += c
            continue
        counts[(b, a)] = counts.get((b, a), 0) + c
    if ratings:
        for node in ratings:
            nodes.setdefault(node)
    edges = tuple((u, v, c) for (u, v), c in counts.items())
    return ImpactGraph(tuple(nodes), edges, ratings=ratings,
                       dropped_self_loops=dropped)


def network_stats(g: ImpactGraph) -> Dict[str, object]:
    """Classical descriptive statistics of the impact graph.

    Distances run along directed edges; clustering and betweenness use
    the undirected projection. Both the n(n+1) and the standard n(n-1)
    average-path normalizations are reported.
    """
    if g.n < 1:
        raise InvalidArgument("graph must have at least one node")
    dg = g.to_networkx(weighted=False)
    ug = dg.to_undirected()
    n, m = g.n, g.m
    density = m / (n * (n - 1)) if n > 1 else 0.0
    dist_sum = 0.0
    inv_sum = 0.0
    pair_count = 0
    ecc: Dict[Hashable, int] = {}
    for src, dists in nx.all_pairs_shortest_path_length(dg):
        reach = {k: v for k, v in dists.items() if k != src}
        ecc[src] = max(reach.values()) if reach else 0
        for d in reach.values():
            dist_sum += d
            inv_sum += 1.0 / d
            pair_count += 1
    diameter = max(ecc.values()) if ecc else 0
    avg_path_std = dist_sum / pair_count if pair_count else 0.0
    avg_path_alt = 2.0 * dist_sum / (n * (n + 1)) if n else 0.0
    efficiency = inv_sum / (n * (n - 1)) if n > 1 else 0.0
    clustering = nx.clustering(ug)
    betweenness = nx.betweenness_centrality(ug, normalized=False)
    return {
        "n": n,
        "m": m,
        "density": density,
        "avg_path": avg_path_std,
        "avg_path_inclusive": avg_path_alt,
        "efficiency": efficiency,
        "diameter": diameter,
        "avg_clustering": float(np.mean(list(clustering.values()))) if n else 0.0,
        "per_node": {
            node: {
                "in_degree": dg.in_degree(node),
                "out_degree": dg.out_degree(node),
                "eccentricity": ecc.get(node, 0),
                "betweenness": betweenness[node],
                "clustering": clustering[node],
            }
            for node in g.nodes
        },
    }


def hits(g: ImpactGraph, tol: float = 1e-9,
         max_iter: int = 1000) -> Tuple[Dict[Hashable, float], Dict[Hashable, float]]:
    """Hub/authority scores by alternating power iteration.

    Authorities accumulate hub mass along incoming edges and vice versa;
    both vectors are L2-normalized every half-step; convergence when the
    largest per-node change drops below ``tol``.
    """
    if g.m == 0:
        raise NoEdges("hub/authority scores need at least one edge")
    index = {node: i for i, node in enumerate(g.nodes)}
    a_mat = np.zeros((g.n, g.n))
    for u, v, c in g.edges:
        a_mat[index[u], index[v]] = c
    hub = np.ones(g.n) / np.sqrt(g.n)
    auth = np.ones(g.n) / np.sqrt(g.n)
    for _ in range(max_iter):
        new_auth = a_mat.T @ hub
        new_auth /= np.linalg.norm(new_auth)
        new_hub = a_mat @ new_auth
        new_hub /= np.linalg.norm(new_hub)
        if (np.max(np.abs(new_auth - auth)) < tol
                and np.max(np.abs(new_hub - hub)) < tol):
            auth, hub = new_auth, new_hub
            break
        auth, hub = new_auth, new_hub
    else:
        raise NoConvergence("hub/authority iteration did not converge")
    return ({node: float(auth[i]) for node, i in index.items()},
            {node: float(hub[i]) for node, i in index.items()})


def io_scenario_score(g: ImpactGraph, ratio_threshold: float = 2.0,
                      cluster_size: int = 5) -> Dict[str, object]:
    """Score the "less influential sources impacting more influential
    ones" dissemination pattern.

    The score is the weighted fraction of impact edges running from a
    lower-rated to a strictly higher-rated node; an edge whose rating
    ratio reaches ``ratio_threshold`` counts double. Components with
    score > 0.5 are flagged, as is any group of >= ``cluster_size``
    bottom-quartile nodes sharing an identical out-neighborhood.
    """
    if g.m == 0:
        raise NoEdges("scenario scoring needs at least one edge")
    ratings = g.ratings or {}
    rated = [node for node in g.nodes if node in ratings]
    if len(rated) < 0.8 * g.n:
        raise InsufficientRatings("ratings present on fewer than 80% of nodes")

    def edge_weight(u: Hashable, v: Hashable, c: int) -> Tuple[float, float]:
        """(upward weight, total weight) contribution of one edge."""
        if u not in ratings or v not in ratings:
            return 0.0, 0.0
        ru, rv = ratings[u], ratings[v]
        if rv > ru:
            ratio = rv / ru if ru > 0 else np.inf
            w = 2.0 * c if ratio >= ratio_threshold else 1.0 * c
            return w, w
        return 0.0, 1.0 * c

    def score_edges(edges) -> float:
        up = tot = 0.0
        for u, v, c in edges:
            w_up, w_tot = edge_weight(u, v, c)
            up += w_up
            tot += w_tot
        return up / tot if tot > 0 else 0.0

    total_score = score_edges(g.edges)
    ug = g.to_networkx().to_undirected()
    component_flags = {}
    for i, comp in enumerate(nx.connected_components(ug)):
        comp_edges = [(u, v, c) for u, v, c in g.edges if u in comp]
        comp_score = score_edges(comp_edges)
        component_flags[f"component-{i}"] = {
            "nodes": sorted(map(str, comp)),
            "score": comp_score,
            "flagged": comp_score > 0.5,
        }
    cluster_flag = False
    if rated:
        q1 = float(np.quantile([ratings[x] for x in rated], 0.25))
        low = [x for x in rated if ratings[x] <= q1]
        neigh: Dict[Tuple, List[Hashable]] = {}
        out: Dict[Hashable, set] = {node: set() for node in g.nodes}
        for u, v, _ in g.edges:
            out[u].add(v)
        for node in low:
            if out[node]:
                key = tuple(sorted(map(str, out[node])))
                neigh.setdefault(key, []).append(node)
        cluster_flag = any(len(v) >= cluster_size for v in neigh.values())
    return {
        "score": total_score,
        "components": component_flags,
        "clone_cluster": cluster_flag,
    }

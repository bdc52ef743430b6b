"""Source-impact graphs: construction from citation lists, classical
network statistics, hub/authority scoring, and a quantitative score for
the low-rated-to-high-rated dissemination pattern."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (InsufficientRatings, InvalidArgument, NoConvergence,
                     NoEdges)
from .series import _BLOCK_CELLS, _distinct

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


# An adjacency in compressed-row form: (indptr, indices), the distinct
# neighbours of node i being indices[indptr[i]:indptr[i + 1]], ascending.
Adjacency = Tuple[np.ndarray, np.ndarray]


def _edge_index(g: ImpactGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in ``g.nodes`` of the source and target of every edge,
    and its multiplicity as a float (a count need not fit in int64)."""
    pos = {node: i for i, node in enumerate(g.nodes)}
    src = np.fromiter((pos[u] for u, _, _ in g.edges), dtype=np.int64, count=g.m)
    dst = np.fromiter((pos[v] for _, v, _ in g.edges), dtype=np.int64, count=g.m)
    count = np.fromiter((c for _, _, c in g.edges), dtype=float, count=g.m)
    return src, dst, count


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> Adjacency:
    """Compressed rows of the distinct edges src -> dst on n nodes."""
    key = _distinct(src * n + dst)
    return np.searchsorted(key, np.arange(n + 1) * n), key % n


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of range(start[k], start[k] + count[k]) over k."""
    j = np.repeat(start - np.cumsum(count) + count, count)
    j += np.arange(j.size)
    return j


def _bfs(adj: Adjacency, sources: np.ndarray
         ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Breadth-first search from every source at once.

    Cell b * n + v stands for node v as seen from sources[b]. Returns
    the hop distances (one row per source, -1 where unreachable) and,
    for each hop d, the cells (head, tail) of every edge that runs from
    a node at hop d to one at hop d + 1.
    """
    indptr, indices = adj
    n = indptr.size - 1
    deg = np.diff(indptr)
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    slot = np.empty_like(dist)
    front = np.arange(sources.size) * n + sources
    dist[front] = 0
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    while front.size:
        v = front % n
        count = deg[v]
        tail = indices[_ranges(indptr[v], count)] + np.repeat(front - v, count)
        new = dist[tail] < 0
        tail = tail[new]
        dist[tail] = len(levels) + 1
        levels.append((np.repeat(front, count)[new], tail))
        # the distinct new cells, ascending
        k = np.arange(tail.size)
        slot[tail] = k
        front = np.sort(tail[slot[tail] == k])
    return dist.reshape(sources.size, n), levels


def _dependencies(adj: Adjacency, sources: np.ndarray) -> np.ndarray:
    """Brandes' dependency of each source (rows) on every node: shortest-
    path counts down the BFS levels, then dependencies back up."""
    n = adj[0].size - 1
    start = np.arange(sources.size) * n + sources
    _, levels = _bfs(adj, sources)
    sigma = np.zeros(sources.size * n)
    sigma[start] = 1.0
    for head, tail in levels:
        np.add.at(sigma, tail, sigma[head])
    delta = np.zeros(sources.size * n)
    for head, tail in reversed(levels):
        np.add.at(delta, head, sigma[head] * ((1.0 + delta[tail]) / sigma[tail]))
    delta[start] = 0.0
    return delta.reshape(sources.size, n)


def _triangles(adj: Adjacency) -> np.ndarray:
    """Triangles through each node of a symmetric adjacency.

    Each edge is oriented towards its endpoint later in (degree, index)
    order, so every triangle is one closed pair of forward neighbours at
    its earliest corner, and no node has more than O(sqrt(nnz)) forward
    neighbours.
    """
    indptr, indices = adj
    n = indptr.size - 1
    deg = np.diff(indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    fwd = rank[src] < rank[indices]
    optr, oidx = _adjacency(n, src[fwd], indices[fwd])
    corner = np.repeat(np.arange(n), np.diff(optr))
    after = np.arange(oidx.size) + 1  # later forward neighbours of the same corner
    count = optr[corner + 1] - after
    p = np.repeat(np.arange(oidx.size), count)
    a, b, c = corner[p], oidx[p], oidx[_ranges(after, count)]
    key = src * n + indices  # sorted: rows ascending, columns ascending
    at = np.minimum(np.searchsorted(key, b * n + c), key.size - 1)
    closed = key[at] == b * n + c
    return sum(np.bincount(x[closed], minlength=n) for x in (a, b, c))


def _components(adj: Adjacency) -> np.ndarray:
    """Connected-component label of every node of a symmetric adjacency,
    numbered in the order of each component's first node."""
    comp = np.full(adj[0].size - 1, -1, dtype=np.int64)
    label = 0
    for s in range(comp.size):
        if comp[s] < 0:
            dist, _ = _bfs(adj, np.array([s]))
            comp[dist[0] >= 0] = label
            label += 1
    return comp


def network_stats(g: ImpactGraph) -> Dict[str, object]:
    """Classical descriptive statistics of the impact graph.

    Distances run along directed edges; clustering and betweenness use
    the undirected projection. Both the n(n+1) and the standard n(n-1)
    average-path normalizations are reported. Only reachable ordered
    pairs enter the distance sums; efficiency averages 1/d over all
    n(n - 1) ordered pairs, an unreachable pair counting 0. Betweenness
    is Brandes' unnormalized count over the undirected projection,
    halved so that each unordered pair counts once; clustering is the
    Watts-Strogatz coefficient, 0 below degree 2.
    """
    if g.n < 1:
        raise InvalidArgument("graph must have at least one node")
    n, m = g.n, g.m
    src, dst, _ = _edge_index(g)
    out_adj = _adjacency(n, src, dst)
    und_adj = _adjacency(n, np.r_[src, dst], np.r_[dst, src])
    # sources per block: its B x n and B x nnz arrays stay near _BLOCK_CELLS
    block = max(1, _BLOCK_CELLS // max(n, und_adj[1].size))
    ecc = np.zeros(n, dtype=np.int64)
    hops = np.zeros(n, dtype=np.int64)  # ordered pairs at each hop distance
    betweenness = np.zeros(n)
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        dist, _ = _bfs(out_adj, sources)
        ecc[sources] = dist.max(axis=1)
        hops += np.bincount(dist[dist > 0], minlength=n)
        betweenness += _dependencies(und_adj, sources).sum(axis=0)
    betweenness *= 0.5
    k = np.arange(n)
    dist_sum = int(hops @ k)
    pair_count = int(hops.sum())
    inv_sum = float(np.sum(hops[1:] / k[1:]))
    density = m / (n * (n - 1)) if n > 1 else 0.0
    avg_path_std = dist_sum / pair_count if pair_count else 0.0
    avg_path_alt = 2.0 * dist_sum / (n * (n + 1))
    efficiency = inv_sum / (n * (n - 1)) if n > 1 else 0.0
    deg = np.diff(und_adj[0]).tolist()
    # 2 x triangles over d(d - 1), and the integer 0 (written "0" in a
    # report) where no triangle closes
    clustering = [t / (d * (d - 1)) if t else 0
                  for t, d in zip((2 * _triangles(und_adj)).tolist(), deg)]
    in_deg = np.bincount(out_adj[1], minlength=n).tolist()
    out_deg = np.diff(out_adj[0]).tolist()
    ecc_l, bc_l = ecc.tolist(), betweenness.tolist()
    return {
        "n": n,
        "m": m,
        "density": density,
        "avg_path": avg_path_std,
        "avg_path_inclusive": avg_path_alt,
        "efficiency": efficiency,
        "diameter": max(ecc_l),
        "avg_clustering": float(np.mean(clustering)),
        "per_node": {
            node: {
                "in_degree": in_deg[i],
                "out_degree": out_deg[i],
                "eccentricity": ecc_l[i],
                "betweenness": bc_l[i],
                "clustering": clustering[i],
            }
            for i, node in enumerate(g.nodes)
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
    n = g.n
    src, dst, count = _edge_index(g)
    hub = np.ones(n) / np.sqrt(n)
    auth = np.ones(n) / np.sqrt(n)
    for _ in range(max_iter):
        new_auth = np.bincount(dst, weights=count * hub[src], minlength=n)
        new_auth /= np.linalg.norm(new_auth)
        new_hub = np.bincount(src, weights=count * new_auth[dst], minlength=n)
        new_hub /= np.linalg.norm(new_hub)
        if (np.max(np.abs(new_auth - auth)) < tol
                and np.max(np.abs(new_hub - hub)) < tol):
            auth, hub = new_auth, new_hub
            break
        auth, hub = new_auth, new_hub
    else:
        raise NoConvergence("hub/authority iteration did not converge")
    return dict(zip(g.nodes, auth.tolist())), dict(zip(g.nodes, hub.tolist()))


def _lower_quartile(values: Sequence[float]) -> float:
    """``np.quantile(values, 0.25)`` by numpy's linear rule, read off a
    sorted copy; the first np.quantile call imports numpy.ma (~15 ms)."""
    v = np.sort(np.asarray(values, dtype=float))
    h = 0.25 * (v.size - 1)
    lo = int(h)
    gamma = h - lo
    a, b = v[lo], v[min(lo + 1, v.size - 1)]
    # numpy's lerp works back from b once gamma >= 0.5
    return float(b - (b - a) * (1.0 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def io_scenario_score(g: ImpactGraph) -> Dict[str, object]:
    """Score the "less influential sources impacting more influential
    ones" dissemination pattern.

    The score is the weighted fraction of impact edges running from a
    lower-rated to a strictly higher-rated node; an edge whose rating
    ratio reaches 2 counts double. Components with score > 0.5 are
    flagged, as is any group of 5 or more bottom-quartile nodes sharing
    an identical out-neighborhood.
    """
    if g.m == 0:
        raise NoEdges("scenario scoring needs at least one edge")
    ratings = g.ratings or {}
    r = np.array([ratings.get(node, np.nan) for node in g.nodes], dtype=float)
    rated = ~np.isnan(r)
    if np.count_nonzero(rated) < 0.8 * g.n:
        raise InsufficientRatings("ratings present on fewer than 80% of nodes")
    src, dst, count = _edge_index(g)
    ru, rv = r[src], r[dst]
    rising = rv > ru  # False where either end is unrated (nan)
    ratio = np.divide(rv, ru, out=np.full(g.m, np.inf), where=ru > 0)
    w_up = np.where(rising, np.where(ratio >= 2.0, 2.0, 1.0) * count, 0.0)
    w_tot = np.where(rising, w_up, np.where(rated[src] & rated[dst], count, 0.0))
    # cumsum and bincount both add in edge order
    up, tot = np.cumsum([w_up, w_tot], axis=1)[:, -1].tolist()
    total_score = up / tot if tot > 0 else 0.0
    comp = _components(_adjacency(g.n, np.r_[src, dst], np.r_[dst, src]))
    comp_up = np.bincount(comp[src], weights=w_up, minlength=comp.max() + 1)
    comp_tot = np.bincount(comp[src], weights=w_tot, minlength=comp.max() + 1)
    members: List[List[str]] = [[] for _ in range(comp_up.size)]
    for node, i in zip(g.nodes, comp.tolist()):
        members[i].append(str(node))
    component_flags = {}
    for i, (c_up, c_tot) in enumerate(zip(comp_up.tolist(), comp_tot.tolist())):
        comp_score = c_up / c_tot if c_tot > 0 else 0.0
        component_flags[f"component-{i}"] = {
            "nodes": sorted(members[i]),
            "score": comp_score,
            "flagged": comp_score > 0.5,
        }
    # bottom-quartile nodes with at least one target, grouped by their
    # row of distinct targets
    indptr, indices = _adjacency(g.n, src, dst)
    low = np.flatnonzero((r <= _lower_quartile(r[rated])) & (np.diff(indptr) > 0))
    groups = Counter(indices[indptr[i]:indptr[i + 1]].tobytes() for i in low.tolist())
    return {
        "score": total_score,
        "components": component_flags,
        "clone_cluster": any(k >= 5 for k in groups.values()),
    }

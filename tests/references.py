"""Slow reference implementations that tests compare the library against."""

from typing import Dict, List, Sequence

import networkx as nx
import numpy as np

from ioscope.agentsim import SimConfig, SimOutcome
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


def simulate_population_loop(cfg: SimConfig, ticks: int, cap: int) -> SimOutcome:
    """``agentsim.simulate_population`` as a loop over the live agents,
    drawing ``rng.random(4)`` for each in turn and a link target right
    after its draw. The random stream, and so every output, is the
    array version's while p_link0 = 0."""
    rng = np.random.default_rng(cfg.seed)
    energies: List[int] = [cfg.e0]
    lifespans: List[int] = [0]
    likes: List[int] = [0]
    live: List[int] = [0]
    alive = np.zeros(ticks + 1, dtype=int)
    births = np.zeros(ticks + 1, dtype=int)
    deaths = np.zeros(ticks + 1, dtype=int)
    alive[0] = 1
    births[0] = 1
    capped = False
    for t in range(1, ticks + 1):
        deltas: Dict[int, int] = {i: -1 for i in live}
        spawns = 0
        for i in live:
            phi = cfg.phi_fn(energies[i])
            u = rng.random(4)
            like = u[0] < cfg.p_l0 * phi
            dislike = u[1] < cfg.p_d0 * phi
            repost = u[2] < cfg.p_r0 * phi
            link = u[3] < cfg.p_link0 * phi
            likes[i] += int(like)
            if like:
                deltas[i] += 1
            if dislike:
                deltas[i] -= 1
            if repost:
                deltas[i] += 2
                spawns += 1
            if link and len(live) > 1:
                other = i
                while other == i:
                    other = live[rng.integers(len(live))]
                deltas[other] += 1
        if rng.random() < cfg.p_s:
            spawns += 1
        next_live = []
        for i in live:
            energies[i] = max(0, energies[i] + deltas[i])
            lifespans[i] += 1
            if energies[i] > 0:
                next_live.append(i)
            else:
                deaths[t] += 1
        for _ in range(spawns):
            if len(energies) >= cap:
                capped = True
                break
            energies.append(cfg.e0)
            lifespans.append(0)
            likes.append(0)
            next_live.append(len(energies) - 1)
            births[t] += 1
        live = next_live
        alive[t] = len(live)
        if not live:
            break
    return SimOutcome(alive, births, deaths, np.array(lifespans),
                      np.array(likes), capped=capped)


def like_count_distribution_loop(e0: int, cfg: SimConfig, t_max: int) -> np.ndarray:
    """``agentsim.like_count_distribution`` with one pass over the energy
    ladder per tick, moving each energy's like-count row in turn."""
    cap = e0 + 2 * t_max
    # state[e, k]: probability of being live at energy e with k likes so far
    state = np.zeros((cap + 1, t_max + 1))
    state[e0, 0] = 1.0
    out = np.zeros(t_max + 1)
    phis = np.array([cfg.phi_fn(e) for e in range(1, cap + 1)])
    p_like = cfg.p_l0 * phis
    p_rep = cfg.p_r0 * phis
    for _ in range(t_max):
        nxt = np.zeros_like(state)
        for idx, e in enumerate(range(1, cap + 1)):
            mass = state[e]
            if not mass.any():
                continue
            pl, pr = p_like[idx], p_rep[idx]
            liked = np.zeros_like(mass)
            liked[1:] = mass[:-1] * pl  # the like shifts the count by one
            unliked = mass * (1.0 - pl)
            nxt[min(e + 2, cap)] += liked * pr          # like + repost
            nxt[e] += liked * (1.0 - pr)                # like alone
            nxt[min(e + 1, cap)] += unliked * pr        # repost alone
            dead_or_down = unliked * (1.0 - pr)         # plain decay
            if e > 1:
                nxt[e - 1] += dead_or_down
            else:
                out += dead_or_down
        state = nxt
    out += state[1:].sum(axis=0)  # survivors at the horizon keep their count
    return out

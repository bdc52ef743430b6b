"""Slow reference implementations that tests compare the library against."""

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ioscope.agentsim import SimConfig, SimOutcome
from ioscope.errors import (DegenerateSignal, InsufficientScales,
                            InsufficientStructure, InvalidArgument,
                            NoConvergence, NoEdges)
from ioscope.fractal import (MultifractalResult, _chord_hurst, _legendre,
                             _log_moments, _mfdfa_scales, _q_grid,
                             find_skeleton)
from ioscope.netimpact import ImpactGraph
from ioscope.rankfuse import Ranking, unify
from ioscope.series import ScaleField, TimeSeries
from ioscope.templates import Detection, Template, correlation_diagram
from ioscope.wavelet import Wavelet, cwt, default_scale_grid, get_wavelet


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


def ewma_loop(x: np.ndarray, alpha: float) -> np.ndarray:
    """EWMA with y0 = x0, one numpy element at a time."""
    y = np.empty_like(x)
    y[0] = x[0]
    for t in range(1, x.size):
        y[t] = alpha * x[t] + (1.0 - alpha) * y[t - 1]
    return y


def gamma_xy(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Lag-k cross-covariance estimate with divisor T (as printed), as one
    direct sum: the per-lag loop the FFT lag sums replaced."""
    T = x.size
    xm, ym = x.mean(), y.mean()
    if k >= 0:
        return float(np.sum((x[: T - k] - xm) * (y[k:] - ym)) / T)
    return gamma_xy(y, x, -k)


def json_default_loop(obj):
    """The report writer's numpy converter, one cell at a time. It fails on
    2-D arrays and on complex cells with a zero imaginary part."""
    if isinstance(obj, np.ndarray):
        return [None if (np.isreal(v) and not np.isfinite(v)) else
                (float(v) if np.isreal(v) else str(v)) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        v = obj.item()
        return None if isinstance(v, float) and not np.isfinite(v) else v
    raise TypeError(f"not serializable: {type(obj)}")


def kemeny_distance_dense(r1: Ranking, r2: Ranking) -> int:
    """Kemeny distance from two full n x n float sign matrices."""
    alts = sorted(r1.alternatives)
    if alts != sorted(r2.alternatives):
        raise InvalidArgument("rankings cover different universes")

    def signs(r):
        ranks = np.array([r.ranks[a] for a in alts], dtype=float)
        return np.sign(ranks[None, :] - ranks[:, None])

    return int(np.sum(np.abs(signs(r1) - signs(r2))))


def borda_loop(rankings: Sequence[Ranking],
               weights: Optional[Sequence[float]] = None) -> Dict[str, int]:
    """Borda ranks from a per-alternative Python sum of w_j * rank_j over
    the unified rankings, in source order, then a dense rank."""
    alts, padded = unify(rankings)
    w = np.ones(len(rankings)) if weights is None else np.asarray(weights, float)
    ranks = [r.ranks for r in padded]
    sums = [float(sum(wj * rk[a] for wj, rk in zip(w, ranks))) for a in alts]
    levels = sorted(set(sums))
    return {a: levels.index(s) + 1 for a, s in zip(alts, sums)}


def pair_costs_loop(padded: Sequence[Ranking], w: np.ndarray,
                    alts: Sequence[str]) -> np.ndarray:
    """Kemeny pair costs C[a, b] as a sum over sources of w_j times 4 where
    source j ranks b strictly ahead of a and 2 where it ties them."""
    cost = np.zeros((len(alts), len(alts)))
    for wj, r in zip(w, padded):
        ranks = np.array([r.ranks[a] for a in alts], dtype=float)
        cost += wj * (4.0 * (ranks[:, None] > ranks[None, :])
                      + 2.0 * (ranks[:, None] == ranks[None, :]))
    np.fill_diagonal(cost, 0.0)
    return cost


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


def hits_dense(g: ImpactGraph, tol: float = 1e-9, max_iter: int = 1000
               ) -> Tuple[Dict[Hashable, float], Dict[Hashable, float]]:
    """``netimpact.hits`` as power iteration on the dense n x n matrix
    of summed edge multiplicities."""
    if g.m == 0:
        raise NoEdges("hub/authority scores need at least one edge")
    index = {node: i for i, node in enumerate(g.nodes)}
    a_mat = np.zeros((g.n, g.n))
    for u, v, c in g.edges:
        a_mat[index[u], index[v]] += c
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


def io_scenario_score_networkx(g: ImpactGraph, ratio_threshold: float = 2.0,
                               cluster_size: int = 5) -> Dict[str, object]:
    """``netimpact.io_scenario_score`` from networkx connected components,
    one rescan of the edges for each, and one out-set per node grouped by
    its sorted ``str`` targets."""
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
    rated = [node for node in g.nodes if node in ratings]
    q1 = np.quantile([ratings[x] for x in rated], 0.25)
    out: Dict[Hashable, set] = {node: set() for node in g.nodes}
    for u, v, _ in g.edges:
        out[u].add(v)
    groups: Dict[Tuple, List[Hashable]] = {}
    for node in rated:
        if ratings[node] <= q1 and out[node]:
            groups.setdefault(tuple(sorted(map(str, out[node]))), []).append(node)
    return {"score": score_edges(g.edges), "components": components,
            "clone_cluster": any(len(v) >= cluster_size for v in groups.values())}


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


def lifespan_survival_backward(e0: int, cfg: SimConfig, t: int) -> float:
    """``agentsim.lifespan_survival`` at p_d0 = 0 by the backward recursion
    over the truncated energy ladder: rho(E), the survival after t more
    ticks from energy E, with energy 0 absorbing and rho(E) = 1 for every
    live state at t = 0. Dislikes are ignored."""
    cap = e0 + 2 * t + 2
    e = np.arange(1, cap + 1)
    phi = cfg.phi_fn(e)
    p_like, p_rep = cfg.p_l0 * phi, cfg.p_r0 * phi
    rho = np.ones(cap + 1)
    rho[0] = 0.0
    for _ in range(t):
        nxt = np.zeros_like(rho)
        up2 = rho[np.minimum(e + 2, cap)]
        up1 = rho[np.minimum(e + 1, cap)]
        nxt[1:] = (p_like * p_rep * up2 + (1.0 - p_like) * p_rep * up1
                   + p_like * (1.0 - p_rep) * rho[e]
                   + (1.0 - p_like) * (1.0 - p_rep) * rho[e - 1])
        rho = nxt
    return float(rho[e0])


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


def brownian(n: int, seed: Optional[int] = None) -> TimeSeries:
    """Standard Brownian path: zero start, cumulative sum of unit
    Gaussian increments. A validation input with H = 1/2 increments."""
    if n < 2:
        raise InvalidArgument("need at least 2 samples")
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal(n)
    incr[0] = 0.0
    return TimeSeries(np.cumsum(incr))


def binomial_cascade(levels: int = 14, p: float = 0.3,
                     seed: Optional[int] = None,
                     shuffle: bool = False) -> TimeSeries:
    """Deterministic binomial measure on 2**levels cells: each cell's mass
    splits into fractions p (left) and 1-p (right) at every level. A
    validation input with the closed-form spectrum binomial_cascade_tau."""
    if not (0.0 < p < 1.0):
        raise InvalidArgument("p must lie in (0, 1)")
    if levels < 4:
        raise InvalidArgument("need at least 4 levels")
    mass = np.ones(1)
    for _ in range(levels):
        mass = np.concatenate([(mass * p)[:, None],
                               (mass * (1.0 - p))[:, None]], axis=1).ravel()
    if shuffle:
        rng = np.random.default_rng(seed)
        rng.shuffle(mass)
    return TimeSeries(mass)


def binomial_cascade_tau(q: Sequence[float], p: float = 0.3) -> np.ndarray:
    """Closed-form scaling exponents of the binomial measure,
    tau(q) = -log2(p**q + (1-p)**q)."""
    qs = np.asarray(q, dtype=float)
    return -np.log2(p ** qs + (1.0 - p) ** qs)


def _segment_rs(vals: np.ndarray, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """R/S of every whole segment of width w in vals, one width at a time
    as a (segments, w) matrix, and whether the segment counts: its max
    exceeds its min (and its std is not 0); the ratio is 0 where it does
    not count."""
    nseg = vals.size // w
    seg = vals[: nseg * w].reshape(nseg, w)
    dev = seg - seg.mean(axis=1, keepdims=True)
    walk = np.cumsum(dev, axis=1)
    rng = walk.max(axis=1) - walk.min(axis=1)
    std = seg.std(axis=1)
    ok = (seg.max(axis=1) > seg.min(axis=1)) & (std > 0)
    return np.divide(rng, std, out=np.zeros(nseg), where=ok), ok


def mfdfa_loop(x: TimeSeries, q: Sequence[float],
               scales: Optional[Sequence[int]] = None,
               aggregated: bool = False) -> MultifractalResult:
    """``fractal.mfdfa`` with one ``lstsq`` line fit per scale, one power
    mean per (scale, q) and one ``polyfit`` per q."""
    qs = _q_grid(q)
    if not np.any(qs == 0):
        raise InvalidArgument("q grid must contain 0")
    vals = np.asarray(x.values, dtype=float)
    n = vals.size
    if np.ptp(vals) == 0:
        raise DegenerateSignal("constant series")
    profile = vals if aggregated else np.cumsum(vals - vals.mean())
    sizes = np.asarray(scales, dtype=int) if scales is not None else _mfdfa_scales(n)
    if sizes.size < 4:
        raise InsufficientScales("need at least 4 scales")
    hq = np.empty(qs.size)
    logF = np.empty((qs.size, sizes.size))
    for j, s in enumerate(sizes):
        ns = n // s
        segs = np.concatenate([
            profile[: ns * s].reshape(ns, s),
            profile[n - ns * s:].reshape(ns, s),
        ])
        t = np.arange(s, dtype=float)
        V = np.vander(t, 2)
        coef, *_ = np.linalg.lstsq(V, segs.T, rcond=None)
        resid = segs.T - V @ coef
        f2 = np.mean(resid * resid, axis=0)  # length 2*ns
        f2 = np.maximum(f2, 1e-300)
        for i, qv in enumerate(qs):
            if qv == 0:
                logF[i, j] = 0.5 * np.mean(np.log(f2))
            else:
                logF[i, j] = np.log(np.mean(f2 ** (qv / 2.0))) / qv
    ls = np.log(sizes.astype(float))
    for i in range(qs.size):
        hq[i] = np.polyfit(ls, logF[i], 1)[0]
    tau, alpha, f_alpha = _legendre(qs, qs * hq - 1.0)
    return MultifractalResult(qs, tau, alpha, f_alpha,
                              h=_chord_hurst(qs, tau, hq))


def l1_modulus_field_loop(x: TimeSeries, wavelet: str,
                          scales: Optional[Sequence[float]],
                          coi: float = 0.0) -> ScaleField:
    """``fractal._l1_modulus_field`` zeroing the cone of influence one
    row at a time."""
    if scales is None:
        scales = default_scale_grid(x)
    fld = cwt(x, get_wavelet(wavelet), scales)
    mod = np.abs(fld.cells) / np.sqrt(fld.rows)[:, None]
    if coi > 0:
        n = fld.cols.size
        for r, sc in enumerate(fld.rows):
            pad = min(n // 2, int(np.ceil(coi * sc / x.step)))
            mod[r, :pad] = 0.0
            mod[r, n - pad:] = 0.0
    return ScaleField(fld.rows, fld.cols, mod, kind="wtmm-mod")


def wtmm_loop(x: TimeSeries, q: Sequence[float], wavelet: str = "mexican-hat",
              scales: Optional[Sequence[float]] = None,
              min_line_length: int = 5, coi: float = 4.0) -> MultifractalResult:
    """``fractal.wtmm`` with each line's running supremum walked row by
    row, one partition sum per row and one ``polyfit`` per q."""
    qs = _q_grid(q)
    if scales is None:
        n = len(x)
        smax = max(8.0, n / 33.0) * x.step
        scales = np.geomspace(2.0 * x.step, smax, 24)
    fld = l1_modulus_field_loop(x, wavelet, scales, coi=coi)
    skel = find_skeleton(fld, min_length=min_line_length)
    nr = fld.rows.size
    sup_at_row = np.full((skel.n_lines, nr), np.nan)
    for i, (ln, mods) in enumerate(zip(skel.lines, skel.moduli)):
        running = -np.inf
        k = 0
        for r in range(ln[0][0], ln[-1][0] + 1):
            while k < len(ln) and ln[k][0] <= r:
                running = max(running, mods[k])
                k += 1
            sup_at_row[i, r] = running
    logZ = np.full((qs.size, nr), np.nan)
    counts = np.zeros(nr, dtype=int)
    for r in range(nr):
        col = sup_at_row[:, r]
        col = col[np.isfinite(col) & (col > 0)]
        counts[r] = col.size
        if col.size == 0:
            continue
        logZ[:, r] = _log_moments(qs, np.log(col))
    usable = counts >= 3
    if np.count_nonzero(usable) < 4:
        raise InsufficientStructure("too few scales carry maxima lines")
    ls = np.log(fld.rows[usable])
    tau = np.empty(qs.size)
    for i in range(qs.size):
        tau[i] = np.polyfit(ls, logZ[i, usable], 1)[0]
    tau, alpha, f_alpha = _legendre(qs, tau)
    return MultifractalResult(qs, tau, alpha, f_alpha)


def wavelet_leaders_loop(x: TimeSeries, q: Sequence[float],
                         wavelet: str = "mexican-hat") -> MultifractalResult:
    """``fractal.wavelet_leaders`` with one maximum over the finer rows
    per leader centre and one ``polyfit`` per q."""
    qs = _q_grid(q)
    n = len(x)
    span = n * x.step
    scales = []
    s = 2.0 * x.step
    while s <= span / 8.0:
        scales.append(s)
        s *= 2.0
    if len(scales) < 4:
        raise InsufficientScales("series too short for dyadic leader scales")
    fld = l1_modulus_field_loop(x, wavelet, scales)
    mod = fld.cells
    tau = np.empty(qs.size)
    logZ = np.empty((qs.size, len(scales)))
    for j, sj in enumerate(scales):
        half = max(1, int(round(sj / x.step)))
        centers = np.arange(half, n - half, max(1, half))
        if centers.size < 2:
            logZ[:, j] = np.nan
            continue
        leaders = np.empty(centers.size)
        rows_upto = slice(0, j + 1)
        for i, c in enumerate(centers):
            lo, hi = max(0, c - half), min(n, c + half + 1)
            leaders[i] = np.max(mod[rows_upto, lo:hi])
        leaders = np.maximum(leaders, 1e-300)
        logZ[:, j] = _log_moments(qs, np.log(leaders), np.log(sj / span))
    ok = np.all(np.isfinite(logZ), axis=0)
    if np.count_nonzero(ok) < 3:
        raise InsufficientScales("too few usable dyadic scales")
    ls = np.log(np.asarray(scales)[ok])
    for i in range(qs.size):
        tau[i] = np.polyfit(ls, logZ[i, ok], 1)[0] - 1.0
    tau, alpha, f_alpha = _legendre(qs, tau)
    return MultifractalResult(qs, tau, alpha, f_alpha)


def wavelet_constants_loop(w: Wavelet) -> Tuple[float, float]:
    """(C_g, f_c) as the per-instance precompute computed them: one-sided
    sums over the spectrum of the wavelet sampled on 2^19 points."""
    n = 1 << 19
    dt = 64.0 * 2.0 * w.support / n
    t = (np.arange(n) - n // 2) * dt
    psi_hat = dt * np.fft.fft(w.evaluate(t))
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
    pos = omega > 0
    wp = omega[pos]
    p2 = np.abs(psi_hat[pos]) ** 2
    dw = wp[1] - wp[0] if wp.size > 1 else 1.0
    cg_pos = float(np.sum(p2 / wp) * dw)
    if w.analytic:
        cg = cg_pos
    else:
        neg = omega < 0
        cg_neg = float(np.sum(np.abs(psi_hat[neg]) ** 2 / np.abs(omega[neg])) * dw)
        cg = 0.5 * (cg_pos + cg_neg)
    return cg, float(wp[np.argmax(p2)] / (2.0 * np.pi))


def smooth_local_convolve(cells: np.ndarray, scales: np.ndarray, step: float,
                          time_widths: Optional[np.ndarray] = None,
                          scale_width: int = 3) -> np.ndarray:
    """The coherence smoother with one np.convolve pair per row for
    the time boxcar and one row mean per scale for the scale boxcar."""
    n_s, n_l = cells.shape
    out = np.empty_like(cells)
    if time_widths is None:
        time_widths = np.maximum(1, np.ceil(scales / step).astype(int))
    for i in range(n_s):
        w = int(min(time_widths[i], n_l))
        kern = np.ones(w) / w
        cut = slice((w - 1) // 2, (w - 1) // 2 + n_l)
        out[i] = (np.convolve(cells[i], kern)[cut]
                  / np.convolve(np.ones(n_l), kern)[cut])
    if scale_width > 1 and n_s > 1:
        sm = np.empty_like(out)
        half = scale_width // 2
        for i in range(n_s):
            lo, hi = max(0, i - half), min(n_s, i + half + 1)
            sm[i] = out[lo:hi].mean(axis=0)
        out = sm
    return out


def io_phase_samples_two_branch(length: int, variant: str, a: float = 0.0,
                                b: float = 1.0,
                                tail_damping: float = 0.5) -> np.ndarray:
    """``io_phase_template`` samples from the undamped formula, with the
    damped arc written only past the peak of the full lifecycle."""
    x_peak = 2.5 * np.pi
    if variant == "attack-front":
        x = np.linspace(0.0, x_peak, length)
        return a + b * x * np.sin(x)
    x = np.linspace(0.0, 4.5 * np.pi, length)
    y = a + b * x * np.sin(x)
    tail = x > x_peak
    damp = np.exp(-tail_damping * (x[tail] - x_peak))
    y[tail] = a + b * x[tail] * np.sin(x[tail]) * damp
    return y


@dataclass(frozen=True)
class KuntchenkoBasis:
    """Linearly independent transforms over a fixed window length, for the
    Kuntchenko least-distance polynomial fit. Over the basis {1, p} the
    fit's efficiency is the squared correlation of the window with p, so
    it checks ``templates.correlation_diagram`` without window norms.

    ``transforms[0]`` must be the constant-one sequence; the remaining
    rows are the non-constant transforms the signal is projected onto.
    """

    transforms: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.transforms, dtype=float)
        if f.ndim != 2 or f.shape[0] < 2:
            raise InvalidArgument("basis needs the constant transform plus "
                                  "at least one non-constant transform")
        if not np.allclose(f[0], f[0][0]) or f[0][0] == 0:
            raise InvalidArgument("transforms[0] must be a constant sequence")
        norms = np.linalg.norm(f, axis=1)
        if np.any(norms == 0):
            raise InvalidArgument("zero transform in basis")
        gram = (f / norms[:, None]) @ (f / norms[:, None]).T
        if abs(np.linalg.det(gram)) <= 1e-12:
            raise InvalidArgument("basis transforms are linearly dependent")
        object.__setattr__(self, "transforms", f)

    @property
    def window_length(self) -> int:
        return self.transforms.shape[1]


def _solve_correlants(signal: np.ndarray, basis: KuntchenkoBasis):
    """The signal as floats, the solution c_1..c_n of the centered-correlant
    system F c = rhs, and its right-hand side rhs[i] = F[i, s]."""
    sig = np.asarray(signal, dtype=float)
    if sig.size != basis.window_length:
        raise InvalidArgument("signal length does not match basis window")
    f0, fs = basis.transforms[0], basis.transforms[1:]
    d00 = float(f0 @ f0)
    proj = (fs @ f0) / d00  # mean-like component of each transform
    sproj = float(sig @ f0) / d00
    F = fs @ fs.T - np.outer(proj, proj) * d00
    rhs = fs @ sig - proj * sproj * d00
    if np.linalg.cond(F) > 1e12:
        raise InvalidArgument("correlant system is numerically singular")
    return sig, np.linalg.solve(F, rhs), rhs


def kuntchenko_fit(signal: np.ndarray, basis: KuntchenkoBasis) -> np.ndarray:
    """Least-distance polynomial coefficients c_0..c_n.

    c_1..c_n solve the centered-correlant system; c_0 follows from the
    closed form with the Euclidean inner product over the window.
    """
    sig, c, _ = _solve_correlants(signal, basis)
    f = basis.transforms
    c0 = (sig @ f[0] - c @ (f[1:] @ f[0])) / (f[0] @ f[0])
    return np.concatenate(([c0], c))


def kuntchenko_efficiency(signal: np.ndarray, basis: KuntchenkoBasis) -> float:
    """Approximation-quality indicator d_n in [0, 1].

    Computed from the centered correlants (the fraction of the signal's
    centered energy captured by the fitted polynomial), which makes the
    in-span value exactly 1 and the centered-orthogonal value exactly 0.
    """
    sig, c, rhs = _solve_correlants(signal, basis)
    f0 = basis.transforms[0]
    s_energy = float(sig @ sig) - (float(sig @ f0) ** 2) / float(f0 @ f0)
    if s_energy <= 0:
        raise DegenerateSignal("signal has zero energy after centering")
    return float(c @ rhs / s_energy)


def scan_detect_loop(x: TimeSeries, bank: Sequence[Template],
                     k_range: Sequence[int], threshold: float) -> List[Detection]:
    """``templates.scan_detect`` with one Python step per defined cell and
    each candidate compared with every detection kept so far."""
    if not (0.0 < threshold <= 1.0):
        raise InvalidArgument("threshold must lie in (0, 1]")
    if not bank:
        raise InvalidArgument("template bank is empty")
    detections: List[Detection] = []
    for tpl in bank:
        fld = correlation_diagram(x, tpl, k_range)
        cand = []
        for r, k in enumerate(fld.rows):
            for c in np.nonzero(fld.mask[r])[0]:
                score = fld.cells[r, c]
                if score >= threshold:
                    cand.append((float(score), int(c), int(k)))
        cand.sort(key=lambda item: (-item[0], item[1], item[2]))
        kept: List[Tuple[float, int, int]] = []
        for score, loc, k in cand:
            suppressed = False
            for s2, l2, k2 in kept:
                if abs(loc - l2) <= k / 2 and abs(k - k2) <= k / 2:
                    suppressed = True
                    break
            if not suppressed:
                kept.append((score, loc, k))
        detections.extend(Detection(tpl.name, k, loc, score)
                          for score, loc, k in kept)
    detections.sort(key=lambda d: (-d.score, d.location, d.scale))
    return detections

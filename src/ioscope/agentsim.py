"""Discrete-time agent model of message lifecycles: energy Markov chain,
population simulation with reposts/self-generation, like-count statistics,
and Weibull fitting of the resulting histograms."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgument, NoConvergence

__all__ = [
    "SimConfig",
    "AgentTrace",
    "SimOutcome",
    "make_phi",
    "transition_row",
    "lifespan_survival",
    "simulate_population",
    "like_count_distribution",
    "weibull_mle",
]

POPULATION_CAP = 10 ** 6


def make_phi(tag: str, e_ref: float = 10.0) -> Callable[[float], float]:
    """Energy-response function phi: E -> [0, 1], monotone non-decreasing.

    ``one`` is the constant function 1; ``saturating`` is min(1, E/e_ref).
    """
    if tag == "one":
        return lambda e: 1.0
    if tag == "saturating":
        if e_ref <= 0:
            raise InvalidArgument("saturating phi needs e_ref > 0")
        return lambda e: min(1.0, max(0.0, e / e_ref))
    raise InvalidArgument(f"unknown phi tag {tag!r}")


@dataclass(frozen=True)
class SimConfig:
    p_l0: float = 0.4
    p_d0: float = 0.0
    p_r0: float = 0.1
    p_link0: float = 0.0
    p_s: float = 0.0
    e0: int = 10
    phi: str = "one"
    phi_e_ref: float = 10.0
    t_max: int = 100
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("p_l0", "p_d0", "p_r0", "p_link0", "p_s"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidArgument(f"{name} must lie in [0, 1]")
        if self.e0 < 1:
            raise InvalidArgument("e0 must be a positive integer")
        if self.t_max < 1:
            raise InvalidArgument("t_max must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise InvalidArgument("seed must be a non-negative integer")
        make_phi(self.phi, self.phi_e_ref)  # validate the tag eagerly

    @property
    def phi_fn(self) -> Callable[[float], float]:
        return make_phi(self.phi, self.phi_e_ref)


@dataclass(frozen=True)
class AgentTrace:
    energies: Tuple[int, ...]
    events: Tuple[Tuple[bool, bool, bool, bool], ...]  # like, dislike, repost, link

    def __post_init__(self):
        if any(e < 0 for e in self.energies):
            raise InvalidArgument("negative energy in trace")

    @property
    def lifespan(self) -> int:
        return len(self.energies) - 1


@dataclass(frozen=True)
class SimOutcome:
    alive: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    traces: Tuple[AgentTrace, ...]
    capped: bool = False

    @property
    def lifespans(self) -> np.ndarray:
        return np.array([t.lifespan for t in self.traces])

    @property
    def like_counts(self) -> np.ndarray:
        return np.array([sum(ev[0] for ev in t.events) for t in self.traces])


def transition_row(e: int, cfg: SimConfig) -> np.ndarray:
    """Distribution of the energy increment delta in {2, 1, 0, -1}.

    A live message loses one energy unit per tick; an (independent) like
    restores it and a repost adds two, so delta = 2 needs both events,
    delta = 1 a repost alone, delta = 0 a like alone.
    """
    if e <= 0:
        raise InvalidArgument("transition defined for live agents (E > 0)")
    phi = cfg.phi_fn(e)
    p_like = cfg.p_l0 * phi
    p_rep = cfg.p_r0 * phi
    return np.array([
        p_like * p_rep,
        (1.0 - p_like) * p_rep,
        p_like * (1.0 - p_rep),
        (1.0 - p_like) * (1.0 - p_rep),
    ])


def lifespan_survival(e0: int, cfg: SimConfig, t: int) -> float:
    """P(lifespan > t) for a single agent starting at energy e0.

    Exact dynamic program over the truncated energy ladder: survival
    after t more ticks conditioned on the current energy, with energy 0
    absorbing and rho_0(E) = 1 for every live state.
    """
    if e0 < 1:
        raise InvalidArgument("e0 must be >= 1")
    if t < 0:
        raise InvalidArgument("horizon must be >= 0")
    cap = e0 + 2 * t + 2
    rho = np.ones(cap + 1)
    rho[0] = 0.0
    rows = np.array([transition_row(e, cfg) for e in range(1, cap + 1)])
    for _ in range(t):
        nxt = np.zeros_like(rho)
        e = np.arange(1, cap + 1)
        up2 = rho[np.minimum(e + 2, cap)]
        up1 = rho[np.minimum(e + 1, cap)]
        stay = rho[e]
        down = rho[e - 1]
        nxt[1:] = (rows[:, 0] * up2 + rows[:, 1] * up1
                   + rows[:, 2] * stay + rows[:, 3] * down)
        rho = nxt
    return float(rho[e0])


def _draw_events(rng: np.random.Generator, e: int, cfg: SimConfig):
    phi = cfg.phi_fn(e)
    u = rng.random(4)
    like = u[0] < cfg.p_l0 * phi
    dislike = u[1] < cfg.p_d0 * phi
    repost = u[2] < cfg.p_r0 * phi
    link = u[3] < cfg.p_link0 * phi
    return like, dislike, repost, link


def simulate_population(cfg: SimConfig, ticks: int,
                        cap: int = POPULATION_CAP) -> SimOutcome:
    """Simulate the whole message population.

    Starts with one agent. Per tick every live agent loses one energy
    unit, may receive a like (+1), a dislike (-1), a repost (+2, which
    also spawns a fresh agent at e0) and may link to a random live agent
    (crediting the linked agent +1). Independent self-generation adds a
    new agent with probability p_s. Deterministic for a given seed.
    """
    if ticks < 1:
        raise InvalidArgument("ticks must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    energies: List[int] = [cfg.e0]
    paths: List[List[int]] = [[cfg.e0]]
    logs: List[List[Tuple[bool, bool, bool, bool]]] = [[]]
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
            like, dislike, repost, link = _draw_events(rng, energies[i], cfg)
            logs[i].append((like, dislike, repost, link))
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
                deltas[other] = deltas.get(other, -1) + 1
        if rng.random() < cfg.p_s:
            spawns += 1
        next_live = []
        for i in live:
            energies[i] = max(0, energies[i] + deltas[i])
            paths[i].append(energies[i])
            if energies[i] > 0:
                next_live.append(i)
            else:
                deaths[t] += 1
        for _ in range(spawns):
            if len(energies) >= cap:
                capped = True
                break
            energies.append(cfg.e0)
            paths.append([cfg.e0])
            logs.append([])
            next_live.append(len(energies) - 1)
            births[t] += 1
        live = next_live
        alive[t] = len(live)
        if not live:
            break
    traces = tuple(AgentTrace(tuple(p), tuple(lg)) for p, lg in zip(paths, logs))
    return SimOutcome(alive, births, deaths, traces, capped=capped)


def like_count_distribution(e0: int, cfg: SimConfig,
                            t_max: Optional[int] = None,
                            n_mc: int = 100_000) -> np.ndarray:
    """Probability mass function of the number of likes an agent collects.

    Exact dynamic programming over (energy, like count) for e0 <= 40;
    Monte Carlo beyond. ``mass[k]`` is P(exactly k likes before death or
    the horizon); masses total 1.
    """
    if e0 < 1:
        raise InvalidArgument("e0 must be >= 1")
    if t_max is None:
        t_max = cfg.t_max
    if e0 > 40:
        return _like_count_mc(e0, cfg, t_max, n_mc)
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


def _like_count_mc(e0: int, cfg: SimConfig, t_max: int, n_mc: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    counts = np.zeros(t_max + 1)
    for _ in range(n_mc):
        e, likes = e0, 0
        for _ in range(t_max):
            phi = cfg.phi_fn(e)
            like = rng.random() < cfg.p_l0 * phi
            repost = rng.random() < cfg.p_r0 * phi
            if like:
                likes += 1
            e += -1 + like + 2 * repost
            if e <= 0:
                break
        counts[min(likes, t_max)] += 1
    return counts / n_mc


def weibull_mle(samples: Sequence[float], max_iter: int = 200) -> Tuple[float, float]:
    """Maximum-likelihood Weibull shape and scale (k, lambda).

    The shape solves the profile-likelihood equation, strictly rising in
    k, by bisection; the scale then follows in closed form.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 30:
        raise InvalidArgument("need at least 30 samples")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise InvalidArgument("samples must be positive and finite")
    logx = np.log(x)
    dev = logx - logx.mean()  # centred, so equal samples give exactly -1/k
    xr = x / x.max()  # x**k = max(x)**k * xr**k, and xr**k cannot overflow

    def profile(k: float) -> float:
        xk = xr ** k
        return float(np.sum(xk * dev) / np.sum(xk) - 1.0 / k)

    lo, hi = 1e-3, 1.0
    it = 0
    while profile(hi) < 0:
        hi *= 2.0
        it += 1
        if it > max_iter:
            raise NoConvergence("profile equation has no bracketed root")
    for _ in range(max_iter):
        k = 0.5 * (lo + hi)
        lo, hi = (k, hi) if profile(k) < 0 else (lo, k)
        if hi - lo <= 1e-10 + 4.0 * np.finfo(float).eps * hi:  # brentq's rule
            break
    else:
        raise NoConvergence("shape root-find failed")
    lam = float(x.max() * np.mean(xr ** k) ** (1.0 / k))
    return float(k), lam

"""Discrete-time agent model of message lifecycles: energy Markov chain,
population simulation with reposts/self-generation, like-count statistics,
and Weibull fitting of the resulting histograms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionalityExceeded, InvalidArgument, NoConvergence

__all__ = [
    "SimConfig",
    "SimOutcome",
    "make_phi",
    "lifespan_survival",
    "simulate_population",
    "like_count_distribution",
    "weibull_mle",
]

POPULATION_CAP = 10 ** 6

# Cells of the exact chain: (e0 + 2t + 2) energy rows times the like-count
# columns plus four event probabilities; ~80 bytes a cell at peak, 0.7 GB.
_FORWARD_CELLS = 2 ** 23


def make_phi(tag: str, e_ref: float = 10.0) -> Callable[[np.ndarray], np.ndarray]:
    """Energy-response function phi: E -> [0, 1], monotone non-decreasing,
    applied elementwise to an energy or an array of energies.

    ``one`` is the constant function 1; ``saturating`` is min(1, E/e_ref).
    """
    if not 0.0 < e_ref < np.inf:
        raise InvalidArgument("phi needs a finite e_ref > 0")
    if tag == "one":
        return lambda e: np.ones(np.shape(e))
    if tag == "saturating":
        return lambda e: np.clip(np.divide(e, e_ref), 0.0, 1.0)
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
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("p_l0", "p_d0", "p_r0", "p_link0", "p_s"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidArgument(f"{name} must lie in [0, 1]")
        if not 1 <= self.e0 < 2 ** 62:  # energies are int64
            raise InvalidArgument("e0 must be an integer in [1, 2**62)")
        if self.seed is not None and self.seed < 0:
            raise InvalidArgument("seed must be a non-negative integer")
        make_phi(self.phi, self.phi_e_ref)  # validate the tag eagerly

    @property
    def phi_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        return make_phi(self.phi, self.phi_e_ref)


@dataclass(frozen=True)
class SimOutcome:
    """Per-tick population counts, and per-agent totals in birth order."""
    alive: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    lifespans: np.ndarray    # ticks each agent was live, its death tick included
    like_counts: np.ndarray  # likes each agent received
    capped: bool = False


def _event_probs(cfg: SimConfig, energy) -> np.ndarray:
    """Per-tick probabilities of a like, dislike, repost and link at each
    energy, along a new first axis: each base probability times phi(E)."""
    base = [cfg.p_l0, cfg.p_d0, cfg.p_r0, cfg.p_link0]
    return np.multiply.outer(base, cfg.phi_fn(energy))


def _moves(mass: np.ndarray, p: np.ndarray):
    """Split ``mass`` (rows: energies, columns: like counts) by the tick's
    independent like, repost and dislike draws, ``p`` from _event_probs,
    one draw at a time in that order; yield each part with its energy
    change -1 + like - dislike + 2 * repost. A like moves mass one column
    on (the last column must be empty; a single column stays put)."""
    like, dislike, repost = p[:3]
    no_repost, no_dislike = 1.0 - repost, 1.0 - dislike
    liked = np.roll(mass, 1, axis=1) * like
    unliked = mass * (1.0 - like)
    for part, delta in ((liked * no_repost, 0), (liked * repost, 2),
                        (unliked * repost, 1), (unliked * no_repost, -1)):
        yield delta, part * no_dislike
        yield delta - 1, part * dislike


def _forward(e0: int, cfg: SimConfig, t: int, likes: bool):
    """One agent's chain run forward t ticks from energy e0: the live mass
    at each energy 0, 1, ... and like count (one column unless ``likes``),
    and the mass that died, per like count. Links credit other agents, so
    the chain leaves them out (p_link0 = 0), and p_s with them."""
    if e0 < 1:
        raise InvalidArgument("e0 must be >= 1")
    if t < 0:
        raise InvalidArgument("horizon must be >= 0")
    # row i holds energy i - 1: a tick adds at most 2, a death lands on 0 or -1
    rows, cols = int(e0) + 2 * int(t) + 2, t + 1 if likes else 1
    if rows * (cols + 4) > _FORWARD_CELLS:
        raise DimensionalityExceeded(f"exact agent chain from e0 = {e0} over "
                                     f"{t} ticks exceeds {_FORWARD_CELLS} cells")
    p = _event_probs(cfg, np.arange(-1, rows - 1)[:, None])
    state = np.zeros((rows, cols))
    state[e0 + 1, 0] = 1.0
    dead = np.zeros(state.shape[1])
    for k in range(t):
        # the live rows reachable in k ticks, and like counts up to k + 1
        lo, hi, width = max(e0 - 2 * k, 1) + 1, e0 + 2 * k + 2, k + 2
        nxt = np.zeros_like(state)
        for delta, part in _moves(state[lo:hi, :width], p[:, lo:hi]):
            nxt[lo + delta:hi + delta, :width] += part
        dead += nxt[1] + nxt[0]
        nxt[:2] = 0.0
        state = nxt
    return state[1:], dead


def lifespan_survival(e0: int, cfg: SimConfig, t: int) -> float:
    """P(lifespan > t) for a single agent starting at energy e0: the live
    share of the exact forward chain's mass after t ticks, exactly 1 where
    no agent can die by then. It assumes p_link0 = 0 and ignores p_s."""
    live, dead = _forward(e0, cfg, t, likes=False)
    live = live.sum()
    return float(live / (live + dead[0]))


def simulate_population(cfg: SimConfig, ticks: int) -> SimOutcome:
    """Simulate the whole message population.

    Starts with one agent. Per tick every live agent loses one energy
    unit, may receive a like (+1), a dislike (-1), a repost (+2, which
    also spawns a fresh agent at e0) and may link to a random other live
    agent (crediting the linked agent +1). Independent self-generation
    adds a new agent with probability p_s. At most POPULATION_CAP agents
    are ever born. Deterministic for a given seed.
    """
    if ticks < 1:
        raise InvalidArgument("ticks must be >= 1")
    if (ticks + 1) * 8 > np.iinfo(np.intp).max:  # bytes of one per-tick array
        raise DimensionalityExceeded(f"per-tick arrays of {ticks} ticks exceed "
                                     "the address space")
    rng = np.random.default_rng(cfg.seed)
    # live agents at most double, plus one, per tick: < 2**(ticks + 1) births
    size = min(POPULATION_CAP, 2 ** min(ticks + 1, POPULATION_CAP.bit_length()))
    energy = np.zeros(size, dtype=np.int64)
    lifespans = np.zeros(size, dtype=np.int64)
    likes = np.zeros(size, dtype=np.int64)
    energy[0] = cfg.e0
    born = 1
    live = np.zeros(1, dtype=np.intp)  # ascending agent indices
    alive = np.zeros(ticks + 1, dtype=int)
    births = np.zeros(ticks + 1, dtype=int)
    deaths = np.zeros(ticks + 1, dtype=int)
    alive[0] = births[0] = 1
    capped = False
    for t in range(1, ticks + 1):
        n_live = live.size
        e = energy[live]
        # one row of four uniforms per live agent, in agent order
        like, dislike, repost, link = (
            rng.random((n_live, 4)).T < _event_probs(cfg, e))
        e = e - 1 + like - dislike + 2 * repost
        linkers = np.flatnonzero(link)
        if n_live > 1 and linkers.size:
            other = rng.integers(n_live - 1, size=linkers.size)
            other += other >= linkers  # skip the linking agent itself
            e += np.bincount(other, minlength=n_live)
        spawns = int(repost.sum()) + int(rng.random() < cfg.p_s)
        likes[live] += like
        lifespans[live] += 1
        energy[live] = e  # a dead agent's energy is never read again
        survivors = live[e > 0]
        deaths[t] = n_live - survivors.size
        new = min(spawns, POPULATION_CAP - born)
        capped |= new < spawns
        energy[born:born + new] = cfg.e0
        live = np.concatenate([survivors, np.arange(born, born + new)])
        born += new
        births[t] = new
        alive[t] = live.size
        if not live.size:
            break
    return SimOutcome(alive, births, deaths, lifespans[:born], likes[:born],
                      capped=capped)


def like_count_distribution(e0: int, cfg: SimConfig, t_max: int) -> np.ndarray:
    """Probability mass function of the number of likes an agent collects.

    Exact: the forward chain of :func:`lifespan_survival` with a like-count
    axis. ``mass[k]`` is P(exactly k likes before death or the horizon
    t_max); masses total 1.
    """
    live, dead = _forward(e0, cfg, t_max, likes=True)
    return dead + live.sum(axis=0)  # survivors at the horizon keep their count


def weibull_mle(samples: Sequence[float]) -> Tuple[float, float]:
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
        if it > 200:
            raise NoConvergence("profile equation has no bracketed root")
    for _ in range(200):
        k = 0.5 * (lo + hi)
        lo, hi = (k, hi) if profile(k) < 0 else (lo, k)
        if hi - lo <= 1e-10 + 4.0 * np.finfo(float).eps * hi:  # brentq's rule
            break
    else:
        raise NoConvergence("shape root-find failed")
    lam = float(x.max() * np.mean(xr ** k) ** (1.0 / k))
    return float(k), lam

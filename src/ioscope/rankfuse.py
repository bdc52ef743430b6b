"""Aggregation of alternative rankings from heterogeneous sources:
unification, Borda and Condorcet rules, Kemeny medians, and data-driven
source weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateEstimates, DimensionalityExceeded, InvalidArgument,
                     InvalidRanking)
from .series import _BLOCK_CELLS, _distinct, _unit_scale

__all__ = [
    "Ranking",
    "SourceWeightProfile",
    "unify",
    "borda",
    "condorcet",
    "kemeny_distance",
    "kemeny_median",
    "source_weights",
]

KEMENY_EXACT_LIMIT = 8
_TIE_RTOL = 1e-9  # relative cost gap below which two orders tie


@dataclass(frozen=True)
class Ranking:
    """Ordered alternatives with 1-based ranks; ties share a rank."""

    items: Tuple[Tuple[str, int], ...]
    source: str = ""

    def __post_init__(self):
        seen = set()
        for alt, rank in self.items:
            if alt in seen:
                raise InvalidRanking(f"duplicate alternative {alt!r}")
            seen.add(alt)
            if rank < 1:
                raise InvalidRanking("ranks must start at 1")

    @classmethod
    def from_order(cls, order: Sequence[str], source: str = "") -> "Ranking":
        return cls(tuple((alt, i + 1) for i, alt in enumerate(order)),
                   source=source)

    @property
    def alternatives(self) -> Tuple[str, ...]:
        return tuple(alt for alt, _ in self.items)

    @property
    def ranks(self) -> Dict[str, int]:
        return {alt: rank for alt, rank in self.items}

    def order(self) -> List[str]:
        """Alternatives sorted by rank, alphabetical within ties."""
        return [alt for alt, _ in sorted(self.items, key=lambda kv: (kv[1], kv[0]))]


def _rank_matrix(rankings: Sequence[Ranking]) -> Tuple[List[str], np.ndarray]:
    """The sorted union of all alternatives and the float (sources x
    alternatives) rank matrix over it.

    A source that omitted an alternative places it at rank m_i + 1,
    where m_i is the number of alternatives it did provide.
    """
    if not rankings:
        raise InvalidArgument("need at least one ranking")
    alts = sorted({alt for r in rankings for alt, _ in r.items})
    index = {a: i for i, a in enumerate(alts)}
    ranks = np.empty((len(rankings), len(alts)))
    for row, r in zip(ranks, rankings):
        row.fill(len(r.items) + 1)
        row[[index[a] for a, _ in r.items]] = [rank for _, rank in r.items]
    return alts, ranks


def unify(rankings: Sequence[Ranking]) -> Tuple[List[str], List[Ranking]]:
    """Extend every ranking to the union of all alternatives, padded as
    in :func:`_rank_matrix`."""
    alts, ranks = _rank_matrix(rankings)
    return alts, [Ranking(tuple(zip(alts, map(int, row))), source=r.source)
                  for r, row in zip(rankings, ranks.tolist())]


def _weights(rankings: Sequence[Ranking],
             weights: Optional[Sequence[float]]) -> np.ndarray:
    if weights is None:
        return np.ones(len(rankings))
    w = np.asarray(weights, dtype=float)
    if w.size != len(rankings):
        raise InvalidArgument("one weight per ranking required")
    if np.any(w < 0) or not np.any(w > 0):
        raise InvalidArgument("weights must be >= 0 and not all zero")
    return w


def _dense_ranking(alts: Sequence[str], keys: np.ndarray,
                   source: str) -> Ranking:
    """Rank alternatives by ascending key; equal keys share a rank."""
    ranks = np.searchsorted(_distinct(keys), keys) + 1
    return Ranking(tuple(zip(alts, ranks.tolist())), source=source)


def _rank_sums(ranks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted rank sum of every alternative, added in source order (a
    cumulative sum, where ``w @ ranks`` may add in another order)."""
    return np.cumsum(w[:, None] * ranks, axis=0)[-1]


def borda(rankings: Sequence[Ranking],
          weights: Optional[Sequence[float]] = None) -> Ranking:
    """Weighted rank-sum rule: smaller total rank is better."""
    alts, ranks = _rank_matrix(rankings)
    return _dense_ranking(alts, _rank_sums(ranks, _weights(rankings, weights)),
                          "borda")


def _signs(x: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """int8 pair signs of the rank vector x, for the row alternatives in
    ``rows``: +1 where the row one is ranked ahead of the column one, -1
    behind, 0 tied."""
    xs = x[rows, None]
    return (xs < x).view(np.int8) - (xs > x).view(np.int8)


def condorcet(rankings: Sequence[Ranking],
              weights: Optional[Sequence[float]] = None
              ) -> Tuple[Ranking, List[List[str]]]:
    """Pairwise-majority rule with a cycle report.

    The majority sign matrix is ranked by descending line sums; the
    report lists the strongly connected components (size > 1) of the
    strict-domination tournament — the Condorcet-paradox groups.
    """
    alts, ranks = _rank_matrix(rankings)
    w = _weights(rankings, weights)
    acc = np.zeros((len(alts), len(alts)))
    for wj, x in zip(w, ranks):
        acc += wj * _signs(x)
    majority = np.sign(acc)
    ranking = _dense_ranking(alts, -majority.sum(axis=1), "condorcet")
    # Warshall closure of strict majority; a cycle is a mutual-reachability
    # class of more than one alternative.
    reach = majority > 0
    for k in range(len(alts)):
        reach |= reach[:, k:k + 1] & reach[k]
    mutual = reach & reach.T
    cycles = {tuple(alts[j] for j in np.flatnonzero(row)) for row in mutual}
    cycles = [list(c) for c in cycles if len(c) > 1]
    return ranking, sorted(cycles)


def kemeny_distance(r1: Ranking, r2: Ranking) -> int:
    """Hamming-style distance between the pairwise sign matrices: the sum
    of |sign1 - sign2| over ordered pairs."""
    if set(r1.alternatives) != set(r2.alternatives):
        raise InvalidArgument("rankings cover different universes")
    return _distance(*_rank_matrix((r1, r2))[1])


def _distance(x: np.ndarray, y: np.ndarray) -> int:
    """The Kemeny distance of two rank vectors over one universe, their
    sign rows built _BLOCK_CELLS cells at a time, so memory does not grow
    as n**2."""
    total = 0
    block = max(1, _BLOCK_CELLS // max(1, x.size))
    for lo in range(0, x.size, block):
        rows = slice(lo, lo + block)
        total += int(np.abs(_signs(x, rows) - _signs(y, rows)).sum())
    return total


def _pair_costs(ranks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """C[a, b]: weighted Kemeny cost of placing alternative a before b."""
    cost = np.zeros((ranks.shape[1],) * 2)
    for wj, x in zip(w, ranks):
        cost += wj * (2 - 2 * _signs(x))
    np.fill_diagonal(cost, 0.0)
    return cost


def _exact_order(cost: List[List[float]]) -> List[int]:
    """Lexicographically earliest order within the tie tolerance of the
    least total cost, by dynamic programming over subsets."""
    n = len(cost)
    full = (1 << n) - 1
    # ahead[S][x]: cost of placing x before every member of S
    ahead = [[0.0] * n]
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        ahead.append([c + row[low] for c, row in zip(ahead[s & (s - 1)], cost)])
    # best[S]: least cost of ordering S after everything outside it
    best = [0.0] * (full + 1)
    for s in range(1, full + 1):
        best[s] = min(ahead[s ^ 1 << x][x] + best[s ^ 1 << x]
                      for x in range(n) if s >> x & 1)
    budget = best[full] + _TIE_RTOL * max(1.0, best[full])
    order, rest = [], full
    while rest:
        cands = [(x, ahead[rest ^ 1 << x][x] + best[rest ^ 1 << x])
                 for x in range(n) if rest >> x & 1]
        # the min always qualifies, so float drift cannot leave no candidate
        limit = max(budget, min(c for _, c in cands))
        x = next(x for x, c in cands if c <= limit)
        budget -= ahead[rest ^ 1 << x][x]
        rest ^= 1 << x
        order.append(x)
    return order


def _swap_descent(order: List[int], cost: np.ndarray) -> List[int]:
    """Left-to-right adjacent-swap sweeps until no swap gains more than
    the tie tolerance."""
    pos = np.argsort(order)
    total = float(np.sum(cost, where=pos[:, None] < pos[None, :]))
    improved = True
    while improved:
        improved = False
        for i in range(len(order) - 1):
            a, b = order[i], order[i + 1]
            delta = cost[b, a] - cost[a, b]
            if delta < -_TIE_RTOL * max(1.0, total):
                order[i], order[i + 1] = b, a
                total += delta
                improved = True
    return order


def kemeny_median(rankings: Sequence[Ranking],
                  weights: Optional[Sequence[float]] = None,
                  mode: str = "exact") -> Tuple[Ranking, float]:
    """Strict ranking minimizing the weighted Kemeny distance total.

    Both modes work on one pairwise-cost matrix of the unified rankings:
    C[a, b] sums 4 w_j over the sources j that rank b strictly above a
    and 2 w_j over those that tie them, and an order costs the sum of
    C[a, b] over the pairs it puts a before b.

    Exact mode (universe size <= 8) finds the optimum by dynamic
    programming over subsets, in O(2^n n) time and memory, where best[S]
    is the least cost of ordering S after everything outside it. Orders whose costs differ
    by at most 1e-9 * max(1, optimum) are tied, and the lexicographically
    earliest one wins. Heuristic mode starts from the Borda order and
    sweeps left to right, swapping adjacent a, b while
    delta = C[b, a] - C[a, b] is below -1e-9 * max(1, current cost).

    The returned objective is sum_j w_j * kemeny_distance(median, r_j),
    summed in source order over the rows of the rank matrix.
    """
    alts, ranks = _rank_matrix(rankings)
    w = _weights(rankings, weights)
    if mode not in ("exact", "heuristic"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if mode == "exact" and len(alts) > KEMENY_EXACT_LIMIT:
        raise DimensionalityExceeded(
            f"exact search limited to {KEMENY_EXACT_LIMIT} alternatives")
    cost = _pair_costs(ranks, w)
    if mode == "exact":
        order = _exact_order(cost.tolist())
    else:
        # the Borda order: rank sums ascending, alternatives (sorted) on ties
        order = _swap_descent(
            np.argsort(_rank_sums(ranks, w), kind="stable").tolist(), cost)
    del cost  # n^2 floats, not needed by the per-source distances below
    fused_ranks = np.empty(len(alts))
    fused_ranks[order] = np.arange(1, len(alts) + 1)
    objective = float(sum(wj * _distance(fused_ranks, x) for wj, x in zip(w, ranks)))
    return Ranking.from_order([alts[i] for i in order], source="kemeny"), objective


@dataclass(frozen=True)
class SourceWeightProfile:
    sources: Tuple[str, ...]
    w: np.ndarray
    rho: float
    x1: float
    x2: float
    mode: str

    def __post_init__(self):
        if abs(float(np.sum(self.w)) - 1.0) > 1e-12:
            raise InvalidArgument("weights must total 1")
        if not (0.0 <= self.x1 <= 1.0 and 0.0 <= self.x2 <= 1.0):
            raise InvalidArgument("x1, x2 must lie in [0, 1]")
        if abs(self.x1 + self.x2 - 1.0) > 1e-12:
            raise InvalidArgument("x1 + x2 must equal 1")


def source_weights(sources: Dict[str, Tuple[float, Sequence[str]]],
                   mode: str = "density") -> SourceWeightProfile:
    """Credibility weights from expert estimates and alternative lists.

    Combines each source's uniqueness share O_i = m_i / P (P unique
    alternatives overall) and volume share V_i = m_i / sum(m) as
    w*_i = E_i (x1 O_i + x2 V_i), normalized to total 1. Density mode
    sets x2 to the representation density rho; dispersion mode sets x1
    to the population variance of V (clipped to [0, 1]). The weights
    depend only on the ratios of the E_i, which are first scaled by a
    power of two, so huge or tiny estimates neither overflow nor lose
    bits.
    """
    if not sources:
        raise InvalidArgument("need at least one source")
    names = tuple(sorted(sources))
    e = np.array([float(sources[s][0]) for s in names])
    lists = [list(sources[s][1]) for s in names]
    if np.any(e < 0) or not np.all(np.isfinite(e)):
        raise InvalidArgument("expert estimates must be finite and >= 0")
    if not np.any(e > 0):
        raise DegenerateEstimates("all expert estimates are zero")
    if any(len(lst) == 0 for lst in lists):
        raise InvalidArgument("every source must provide alternatives")
    if any(len(set(lst)) != len(lst) for lst in lists):
        raise InvalidRanking("duplicate alternative within one source")
    n = len(names)
    m = np.array([len(lst) for lst in lists], dtype=float)
    p = len({alt for lst in lists for alt in lst})
    rho = float(m.sum()) / (n * p)  # each source names an alternative once
    v = m / m.sum()
    o = m / p
    if mode == "density":
        x2 = rho
        x1 = 1.0 - x2
    elif mode == "dispersion":
        x1 = float(np.clip(np.var(v), 0.0, 1.0))
        x2 = 1.0 - x1
    else:
        raise InvalidArgument(f"unknown mode {mode!r}")
    w_star = _unit_scale(e)[0] * (x1 * o + x2 * v)
    total = float(w_star.sum())
    if total <= 0:
        raise DegenerateEstimates("weight mass vanished")
    w = w_star / total
    w = w / w.sum()  # second pass pins the total to 1 exactly
    return SourceWeightProfile(names, w, rho=rho, x1=x1, x2=x2, mode=mode)

import itertools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioscope import rankfuse
from ioscope.errors import (DegenerateEstimates, DimensionalityExceeded,
                            InvalidArgument, InvalidRanking)
from ioscope.rankfuse import (Ranking, borda, condorcet, kemeny_distance,
                              kemeny_median, source_weights, unify)

from references import borda_loop, kemeny_distance_dense, pair_costs_loop


def R(order, source="s"):
    return Ranking.from_order(order, source=source)


class TestRankingType:
    def test_duplicate_alternative_rejected(self):
        with pytest.raises(InvalidRanking):
            Ranking((("a", 1), ("a", 2)), "s")

    def test_rank_must_be_positive(self):
        with pytest.raises(InvalidRanking):
            Ranking((("a", 0),), "s")

    def test_rank_above_2_53_rejected(self):
        # 2**53 + 1 is no float: it would tie with 2**53
        assert Ranking((("a", 2 ** 53),), "s").ranks == {"a": 2 ** 53}
        for rank in (2 ** 53 + 1, 10 ** 400):
            with pytest.raises(InvalidRanking, match="2\\*\\*53"):
                Ranking((("a", 1), ("b", rank)), "s")

    def test_ties_allowed(self):
        r = Ranking((("a", 1), ("b", 1), ("c", 2)), "s")
        assert r.ranks["a"] == r.ranks["b"] == 1

    def test_order_round_trip(self):
        r = R(["b", "a", "c"])
        assert r.order() == ["b", "a", "c"]


class TestUnify:
    def test_disjoint_universes(self):
        universe, padded = unify([R(["a", "b"]), R(["c", "d", "e"], "t")])
        assert len(universe) == 5
        assert all(len(p.items) == 5 for p in padded)

    def test_padding_rank(self):
        _, padded = unify([R(["a", "b"]), R(["a", "b", "c"], "t")])
        first = padded[0]
        assert first.ranks["c"] == 3  # m_i + 1 for a two-item source

    def test_identical_rankings_noop(self):
        r = R(["a", "b", "c"])
        _, padded = unify([r, R(["a", "b", "c"], "t")])
        assert padded[0].ranks == r.ranks


class TestBorda:
    def test_single_source_reproduced(self):
        r = R(["c", "a", "b"])
        assert borda([r]).order() == ["c", "a", "b"]

    def test_duplicate_source_equals_double_weight(self):
        rs = [R(["a", "b", "c"], "1"), R(["b", "c", "a"], "2")]
        doubled = borda(rs + [rs[1]])
        weighted = borda(rs, weights=[1.0, 2.0])
        assert doubled.ranks == weighted.ranks

    def test_hand_table(self):
        # rank sums: a: 1+2+1=4, b: 2+1+3=6, c: 3+4+2=9, d: 4+3+4=11
        rs = [R(["a", "b", "c", "d"], "1"),
              R(["b", "a", "d", "c"], "2"),
              R(["a", "c", "b", "d"], "3")]
        assert borda(rs).order() == ["a", "b", "c", "d"]

    def test_equal_weights_match_unweighted(self):
        rs = [R(["a", "b", "c"], "1"), R(["c", "b", "a"], "2")]
        assert borda(rs).ranks == borda(rs, weights=[1.0, 1.0]).ranks

    def test_weight_count_mismatch(self):
        with pytest.raises(InvalidArgument):
            borda([R(["a", "b"])], weights=[1.0, 2.0])

    def test_source_permutation_invariance(self):
        rs = [R(["a", "b", "c"], "1"), R(["b", "c", "a"], "2"),
              R(["c", "a", "b"], "3")]
        w = [3.0, 1.0, 2.0]
        perm = [2, 0, 1]
        out1 = borda(rs, weights=w)
        out2 = borda([rs[i] for i in perm], weights=[w[i] for i in perm])
        assert out1.ranks == out2.ranks


class TestCondorcet:
    def test_single_source(self):
        out, cycles = condorcet([R(["b", "a", "c"])])
        assert out.order() == ["b", "a", "c"]
        assert cycles == []

    def test_rock_paper_scissors_cycle(self):
        rs = [R(["a", "b", "c"], "1"),
              R(["b", "c", "a"], "2"),
              R(["c", "a", "b"], "3")]
        out, cycles = condorcet(rs)
        assert len(cycles) == 1
        assert sorted(cycles[0]) == ["a", "b", "c"]
        assert out.ranks["a"] == out.ranks["b"] == out.ranks["c"]

    def test_unanimous_matches_borda(self):
        rs = [R(["d", "b", "a", "c"], str(i)) for i in range(3)]
        out, cycles = condorcet(rs)
        assert cycles == []
        assert out.order() == borda(rs).order()

    def test_clear_majority(self):
        rs = [R(["a", "b", "c"], "1"), R(["a", "c", "b"], "2"),
              R(["b", "a", "c"], "3")]
        out, _ = condorcet(rs)
        assert out.order()[0] == "a"


class TestKemenyDistance:
    def test_identical_is_zero(self):
        assert kemeny_distance(R(["a", "b", "c"]), R(["a", "b", "c"])) == 0

    def test_full_reversal_of_three(self):
        assert kemeny_distance(R(["a", "b", "c"]), R(["c", "b", "a"])) == 12

    def test_symmetry(self):
        r1, r2 = R(["a", "c", "b", "d"]), R(["d", "a", "b", "c"])
        assert kemeny_distance(r1, r2) == kemeny_distance(r2, r1)

    def test_universe_mismatch(self):
        with pytest.raises(InvalidArgument):
            kemeny_distance(R(["a", "b"]), R(["a", "c"]))

    def test_single_adjacent_swap(self):
        # one discordant pair flips +1 <-> -1: contributes 2 per ordered
        # direction = 4 total
        assert kemeny_distance(R(["a", "b", "c"]), R(["b", "a", "c"])) == 4


class TestKemenyMedian:
    def test_unanimous(self):
        rs = [R(["b", "c", "a"], str(i)) for i in range(3)]
        out, objective = kemeny_median(rs)
        assert out.order() == ["b", "c", "a"]
        assert objective == 0.0

    def test_dominant_weight_wins(self):
        rs = [R(["a", "b", "c"], "big"), R(["c", "b", "a"], "1"),
              R(["b", "c", "a"], "2")]
        out, _ = kemeny_median(rs, weights=[1e6, 1.0, 1.0])
        assert out.order() == ["a", "b", "c"]

    def test_exact_bound(self):
        big = R([f"x{i}" for i in range(12)])
        with pytest.raises(DimensionalityExceeded):
            kemeny_median([big], mode="exact")

    def test_heuristic_mode_runs_large(self):
        rs = [R([f"x{i}" for i in np.random.default_rng(s).permutation(12)],
                str(s)) for s in range(3)]
        out, objective = kemeny_median(rs, mode="heuristic")
        assert len(out.items) == 12
        assert objective >= 0

    def test_heuristic_not_worse_than_borda(self):
        rs = [R(["a", "c", "b", "d"], "1"), R(["b", "a", "d", "c"], "2"),
              R(["c", "d", "a", "b"], "3")]
        out, objective = kemeny_median(rs, mode="heuristic")
        borda_obj = sum(kemeny_distance(borda(rs), r)
                        for r in unify(rs)[1])
        assert objective <= borda_obj + 1e-9


class TestSourceWeights:
    def test_identical_sets_weight_proportional_to_e(self):
        alts = ["a", "b", "c"]
        prof = source_weights({"s1": (2.0, alts), "s2": (6.0, alts)})
        assert prof.rho == pytest.approx(1.0)
        assert prof.x2 == pytest.approx(1.0)
        np.testing.assert_allclose(prof.w, [0.25, 0.75], atol=1e-12)

    def test_disjoint_sets_minimum_density(self):
        prof = source_weights({"s1": (1.0, ["a", "b"]),
                               "s2": (1.0, ["c", "d"]),
                               "s3": (1.0, ["e", "f"])})
        assert prof.rho == pytest.approx(1 / 3)

    def test_dispersion_equal_counts(self):
        prof = source_weights({"s1": (2.0, ["a", "b"]),
                               "s2": (3.0, ["b", "c"])},
                              mode="dispersion")
        assert prof.x1 == pytest.approx(0.0)
        np.testing.assert_allclose(prof.w, [0.4, 0.6], atol=1e-12)

    def test_weights_sum_to_one(self, rng):
        pool = [f"a{i}" for i in range(10)]
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sources = {}
            for i in range(n):
                m = int(rng.integers(1, 9))
                picks = list(rng.choice(pool, size=m, replace=False))
                sources[f"s{i}"] = (float(rng.uniform(0.1, 5.0)), picks)
            for mode in ("density", "dispersion"):
                prof = source_weights(sources, mode=mode)
                assert abs(sum(prof.w) - 1.0) <= 1e-12
                assert prof.x1 + prof.x2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["density", "dispersion"])
    @pytest.mark.parametrize("k", [-1060, 1000])
    @pytest.mark.parametrize("e, lists", [
        ((1.5, 1.5, 1.5), (["a", "b"], ["a"], ["b"])),
        ((2.0, 3.0), (["a", "b"], ["b", "c"])),
        ((3.0, 0.5, 1.25, 0.0), (["a", "b", "c"], ["b"], ["c", "d", "e"], ["a"]))])
    def test_scale_free_in_the_estimates(self, mode, k, e, lists):
        def weights(scale):
            return source_weights({f"s{i}": (ei * scale, lst) for i, (ei, lst)
                                   in enumerate(zip(e, lists))}, mode=mode).w
        np.testing.assert_array_equal(weights(2.0 ** k), weights(1.0))

    def test_all_zero_estimates_rejected(self):
        with pytest.raises(DegenerateEstimates):
            source_weights({"s1": (0.0, ["a"]), "s2": (0.0, ["b"])})

    def test_empty_alternative_list_rejected(self):
        with pytest.raises(InvalidArgument):
            source_weights({"s1": (1.0, [])})


class TestUnanimityAcrossMethods:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_all_methods_return_unanimous_order(self, m):
        alts = [chr(ord("a") + i) for i in range(m)]
        for perm in itertools.permutations(alts):
            rs = [R(list(perm), str(i)) for i in range(3)]
            assert borda(rs).order() == list(perm)
            cond, cycles = condorcet(rs)
            assert cond.order() == list(perm) and cycles == []
            med, obj = kemeny_median(rs)
            assert med.order() == list(perm) and obj == 0.0


# ---------------------------------------------------------------------------
# References for the pairwise-cost Kemeny search: the whole-order
# enumeration and the adjacent-swap loop that score every candidate with
# sum_j w_j * kemeny_distance(candidate, r_j). A candidate replaces the
# incumbent only when it is lower by more than the tie tolerance.

TIE_RTOL = 1e-9


def literal_objective(order, padded, w):
    cand = Ranking.from_order(order)
    return float(sum(wj * kemeny_distance(cand, r) for wj, r in zip(w, padded)))


def all_order_objectives(alts, padded, w):
    """literal_objective of every order of `alts`, in lexicographic order.

    The integer distances come from per-source pair tables, so each value
    is the same float expression as literal_objective's."""
    n = len(alts)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms = perms.reshape(-1, n)
    obj = 0
    for wj, r in zip(w, padded):
        ranks = np.array([r.ranks[a] for a in alts])
        table = (4 * (ranks[:, None] > ranks[None, :])
                 + 2 * (ranks[:, None] == ranks[None, :]))
        dist = np.zeros(len(perms), dtype=np.int64)
        for x, y in itertools.combinations(range(n), 2):
            dist += table[perms[:, x], perms[:, y]]
        obj = obj + wj * dist
    orders = [[alts[i] for i in p] for p in perms]
    return orders, [float(v) for v in np.broadcast_to(obj, len(perms))]


def enumeration_median(rankings, weights=None):
    alts, padded = unify(rankings)
    w = np.ones(len(rankings)) if weights is None else np.asarray(weights, float)
    best_order, best = None, None
    for order, obj in zip(*all_order_objectives(alts, padded, w)):
        if best is None or obj < best - TIE_RTOL * max(1.0, best):
            best_order, best = order, obj
    return best_order, best


def swap_loop_median(rankings, weights=None):
    _, padded = unify(rankings)
    w = np.ones(len(rankings)) if weights is None else np.asarray(weights, float)
    order = borda(rankings, weights).order()
    best = literal_objective(order, padded, w)
    improved = True
    while improved:
        improved = False
        for i in range(len(order) - 1):
            trial = order[:]
            trial[i], trial[i + 1] = trial[i + 1], trial[i]
            obj = literal_objective(trial, padded, w)
            if obj < best - TIE_RTOL * max(1.0, best):
                order, best = trial, obj
                improved = True
    return order, best


def random_profile(rng, n, n_sources, ties=True, omit=True):
    """Source 0 covers all n alternatives; others may omit some (padded)
    and tie some."""
    alts = [f"x{i}" for i in range(n)]
    out = []
    for j in range(n_sources):
        keep = n if j == 0 or not omit else int(rng.integers(1, n + 1))
        picked = [alts[i] for i in rng.permutation(n)[:keep]]
        if ties:
            ranks = rng.integers(1, max(2, keep // 2 + 1), size=keep)
        else:
            ranks = np.arange(1, keep + 1)
        out.append(Ranking(tuple(zip(picked, (int(v) for v in ranks))), str(j)))
    return out


def density_weights(rng, rankings):
    prof = source_weights({r.source: (float(rng.uniform(0.1, 5.0)),
                                      list(r.alternatives)) for r in rankings})
    return [float(prof.w[prof.sources.index(r.source)]) for r in rankings]


def weight_kinds(rng, rankings):
    yield None
    yield [float(v) for v in rng.integers(1, 5, size=len(rankings))]
    yield density_weights(rng, rankings)


class TestKemenyReferences:
    def test_table_objective_equals_literal(self, rng):
        for n in (1, 3, 8):
            rs = random_profile(rng, n, 4)
            alts, padded = unify(rs)
            for w in weight_kinds(rng, rs):
                wa = np.ones(len(rs)) if w is None else np.asarray(w, float)
                orders, objs = all_order_objectives(alts, padded, wa)
                for k in rng.integers(0, len(orders), size=20):
                    assert objs[k] == literal_objective(orders[k], padded, wa)


class TestKemenyExactOracle:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumeration(self, n, rng):
        trials = 4 if n <= 6 else 2
        for t in range(trials):
            rs = random_profile(rng, n, int(rng.integers(1, 7)),
                                ties=bool(t % 2), omit=t > 0)
            for w in weight_kinds(rng, rs):
                got, obj = kemeny_median(rs, w)
                want_order, want_obj = enumeration_median(rs, w)
                assert got.order() == want_order
                assert obj == want_obj

    def test_identical_sources(self, rng):
        base = random_profile(rng, 7, 1, ties=False)[0]
        rs = [Ranking(base.items, str(j)) for j in range(4)]
        for w in weight_kinds(rng, rs):
            got, obj = kemeny_median(rs, w)
            assert got.order() == base.order()
            assert obj == 0.0

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_reversed_pairs_tie_to_sorted_order(self, n, rng):
        rs = []
        w = []
        for j in range(3):
            order = [f"x{i}" for i in rng.permutation(n)]
            rs += [R(order, f"{j}f"), R(order[::-1], f"{j}r")]
            w += [float(rng.uniform(0.1, 1.0))] * 2
        for weights in (None, w):
            got, obj = kemeny_median(rs, weights)
            alts, padded = unify(rs)
            assert got.order() == alts
            wa = np.ones(len(rs)) if weights is None else np.asarray(weights)
            assert obj == literal_objective(alts, padded, wa)
            assert enumeration_median(rs, weights) == (alts, obj)

    def test_tie_tolerance(self):
        rs = [R(["a", "b"], "1"), R(["b", "a"], "2")]
        for w, want in (([1.0, 1.0 + 1e-12], ["a", "b"]),
                        ([1.0, 1.0 + 1e-6], ["b", "a"])):
            got, obj = kemeny_median(rs, w)
            assert got.order() == want
            assert enumeration_median(rs, w) == (want, obj)

    def test_all_equal_source_ties_to_sorted_order(self):
        alts = ["d", "a", "c", "b", "e"]
        flat = Ranking(tuple((a, 1) for a in alts), "flat")
        got, obj = kemeny_median([flat])
        assert got.order() == sorted(alts)
        assert obj == len(alts) * (len(alts) - 1)


class TestKemenyHeuristicParity:
    @pytest.mark.parametrize("n,trials", [(10, 10), (30, 4), (60, 2)])
    def test_matches_swap_loop(self, n, trials, rng):
        for t in range(trials):
            rs = random_profile(rng, n, int(rng.integers(2, 7)),
                                ties=bool(t % 2), omit=t > 0)
            for w in weight_kinds(rng, rs):
                got, obj = kemeny_median(rs, w, mode="heuristic")
                want_order, want_obj = swap_loop_median(rs, w)
                assert got.order() == want_order
                assert obj == want_obj


    def test_tie_tolerance(self):
        # Borda starts at b, d, a, c; swapping b and d gains 4 * eps
        rs = [R(list("dbac"), "1"), R(list("badc"), "2")]
        for eps, want in ((1e-12, list("bdac")), (1e-6, list("dbac"))):
            w = [1.0 + eps, 1.0]
            got, obj = kemeny_median(rs, w, mode="heuristic")
            assert got.order() == want
            assert swap_loop_median(rs, w) == (want, obj)


class TestKemenyDistanceCalls:
    @pytest.mark.parametrize("mode,n", [("exact", 8), ("heuristic", 30)])
    def test_at_most_one_call_per_source(self, mode, n, rng, monkeypatch):
        calls = []
        real = rankfuse._distance

        def counted(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(rankfuse, "_distance", counted)
        rs = random_profile(rng, n, 5)
        kemeny_median(rs, density_weights(rng, rs), mode=mode)
        assert 0 < len(calls) <= len(rs)


def condorcet_reference(rankings, weights):
    """Majority ranking and networkx strongly connected components."""
    alts, padded = unify(rankings)
    acc = np.zeros((len(alts), len(alts)))
    for wj, r in zip(weights, padded):
        ranks = np.array([r.ranks[a] for a in alts], dtype=float)
        acc += wj * np.sign(ranks[None, :] - ranks[:, None])
    majority = np.sign(acc)
    keys = [-s for s in majority.sum(axis=1)]
    levels = sorted(set(keys))
    ranks = {a: levels.index(k) + 1 for a, k in zip(alts, keys)}
    tour = nx.DiGraph()
    tour.add_nodes_from(alts)
    tour.add_edges_from((a, b) for i, a in enumerate(alts)
                        for j, b in enumerate(alts) if majority[i, j] > 0)
    cycles = sorted(sorted(c) for c in nx.strongly_connected_components(tour)
                    if len(c) > 1)
    return ranks, cycles


_source = st.lists(st.tuples(st.sampled_from("abcdefg"),
                             st.integers(min_value=1, max_value=4)),
                   min_size=1, max_size=7, unique_by=lambda t: t[0])


class TestCondorcetCyclesOracle:
    @settings(max_examples=200, deadline=None)
    @given(sources=st.lists(_source, min_size=1, max_size=6),
           data=st.data())
    def test_matches_networkx_scc(self, sources, data):
        rs = [Ranking(tuple(items), str(j)) for j, items in enumerate(sources)]
        weights = data.draw(st.one_of(
            st.lists(st.integers(min_value=0, max_value=3).map(float),
                     min_size=len(rs), max_size=len(rs)),
            st.lists(st.floats(min_value=0.0, max_value=3.0),
                     min_size=len(rs), max_size=len(rs))))
        if not any(v > 0 for v in weights):
            weights[0] = 1.0
        got, cycles = condorcet(rs, weights)
        want_ranks, want_cycles = condorcet_reference(rs, weights)
        assert got.ranks == want_ranks
        assert cycles == want_cycles

    def test_cycle_closed_only_through_last_alternative(self):
        # the five-alternative cycle closes only through "e", the last
        # alternative in sorted order
        rs = [R(list("aecdb"), "1"), R(list("bcaed"), "2"), R(list("edcba"), "3")]
        weights = [2.0, 2.0, 3.0]
        got, cycles = condorcet(rs, weights)
        want_ranks, want_cycles = condorcet_reference(rs, weights)
        assert got.ranks == want_ranks
        assert cycles == want_cycles


@st.composite
def weighted_profiles(draw):
    """The Condorcet oracle's source profiles with an integer or a float
    weight draw, not all zero."""
    sources = draw(st.lists(_source, min_size=1, max_size=6))
    rs = [Ranking(tuple(items), str(j)) for j, items in enumerate(sources)]
    weights = draw(st.one_of(
        st.lists(st.integers(min_value=0, max_value=3).map(float),
                 min_size=len(rs), max_size=len(rs)),
        st.lists(st.floats(min_value=0.0, max_value=3.0),
                 min_size=len(rs), max_size=len(rs))))
    if not any(v > 0 for v in weights):
        weights[0] = 1.0
    return rs, weights


class TestRankMatrixOracles:
    @settings(max_examples=300, deadline=None)
    @given(profile=weighted_profiles())
    def test_borda_matches_loop(self, profile):
        rs, weights = profile
        assert borda(rs, weights).ranks == borda_loop(rs, weights)
        assert borda(rs).ranks == borda_loop(rs)

    @settings(max_examples=300, deadline=None)
    @given(profile=weighted_profiles())
    def test_pair_costs_match_loop(self, profile):
        rs, weights = profile
        w = np.asarray(weights, dtype=float)
        alts, padded = unify(rs)
        got_alts, ranks = rankfuse._rank_matrix(rs)
        assert got_alts == alts
        assert np.array_equal(rankfuse._pair_costs(ranks, w),
                              pair_costs_loop(padded, w, alts))


@st.composite
def padded_pairs(draw):
    """Two rankings with ties, each over a random part of n alternatives,
    padded to their union."""
    n = draw(st.integers(1, 14))
    alts = [f"x{i}" for i in range(n)]

    def ranking(source):
        kept = draw(st.lists(st.sampled_from(alts), unique=True))
        ranks = draw(st.lists(st.integers(1, max(1, len(kept))),
                              min_size=len(kept), max_size=len(kept)))
        return Ranking(tuple(zip(kept, ranks)), source)

    _, padded = unify([ranking("a"), ranking("b")])
    return padded


class TestKemenyDistanceOracle:
    @settings(max_examples=300, deadline=None)
    @given(pair=padded_pairs())
    def test_matches_dense_sign_matrices(self, pair):
        r1, r2 = pair
        got = kemeny_distance(r1, r2)
        assert type(got) is int
        assert got == kemeny_distance_dense(r1, r2) == kemeny_distance(r2, r1)

    def test_memory_at_1500_alternatives(self, rng):
        n = 1500
        alts = [f"x{i}" for i in range(n)]
        tied = Ranking(tuple(zip(alts, (int(v) for v in rng.integers(1, 200, n)))), "t")
        strict = Ranking(tuple(zip(alts, (int(v) + 1 for v in rng.permutation(n)))), "s")
        tracemalloc.start()
        try:
            got = kemeny_distance(tied, strict)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        # 1500 rows span more than one block of rows
        assert got == kemeny_distance_dense(tied, strict)

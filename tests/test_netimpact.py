import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ioscope import netimpact
from ioscope.errors import (InsufficientRatings, InvalidArgument, NoConvergence,
                            NoEdges)
from ioscope.netimpact import (ImpactGraph, build_impact_graph, hits,
                               io_scenario_score, network_stats)

from references import hits_dense, io_scenario_score_networkx, network_stats_networkx


def k4_edges():
    nodes = "abcd"
    return [(u, v) for u in nodes for v in nodes if u != v]


def star_citations(center="hub", leaves=5):
    # every leaf reprints the hub: citation leaf -> hub, impact hub -> leaf
    return [(f"leaf{i}", center) for i in range(leaves)]


class TestBuildImpactGraph:
    def test_transposition(self):
        g = build_impact_graph([("A", "B")])
        assert g.edges == (("B", "A", 1),)

    def test_multiplicity(self):
        g = build_impact_graph([("A", "B"), ("A", "B")])
        assert g.edges == (("B", "A", 2),)

    def test_count_rows(self):
        g = build_impact_graph([("A", "B", 3), ("C", "C", 2), ("A", "B")])
        assert g.nodes == ("A", "B", "C")
        assert g.edges == (("B", "A", 4),)
        assert g.dropped_self_loops == 2

    def test_self_citation_dropped(self):
        g = build_impact_graph([("A", "A"), ("A", "B")])
        assert g.dropped_self_loops == 1
        assert all(u != v for u, v, _ in g.edges)

    def test_double_transpose_identity(self):
        cites = [("A", "B"), ("B", "C"), ("A", "C"), ("A", "B")]
        g = build_impact_graph(cites)
        back = build_impact_graph([(u, v) for u, v, c in g.edges
                                   for _ in range(c)])
        want = sorted((u, v) for u, v in cites)
        got = sorted((u, v) for u, v, c in back.edges for _ in range(c))
        assert got == want

    def test_empty_is_valid(self):
        g = build_impact_graph([])
        assert g.nodes == () and g.edges == ()

    def test_rating_only_nodes_included(self):
        g = build_impact_graph([("A", "B")], ratings={"C": 1.0})
        assert "C" in g.nodes

    def test_negative_rating_rejected(self):
        with pytest.raises(InvalidArgument):
            build_impact_graph([("A", "B")], ratings={"A": -1.0})

    @pytest.mark.parametrize("edges, ratings, message", [
        ([("a", "a", 0), ("a", "x", 1)], {"a": -1.0}, "endpoint missing"),
        ([("a", "b", 1), ("b", "b", 0)], {"x": 1.0}, "self-loop"),
        ([("a", "b", 1), ("b", "a", 0)], {"x": 1.0}, ">= 1"),
        ([("a", "b", 10 ** 400), ("b", "a", 0)], {"x": 1.0}, "finite float"),
        ([("a", "b", np.inf)], {"x": 1.0}, "finite float"),
        ([("a", "b", 1)], {"a": np.nan, "x": 1.0}, "unknown node 'x'"),
        ([("a", "b", 1)], {"a": 1.0, "b": np.nan}, "finite and >= 0")],
        ids=["endpoint", "self-loop", "below-1", "1e400", "inf", "node", "rating"])
    def test_checks_run_in_their_stated_order(self, edges, ratings, message):
        """Endpoint, then self-loop, then multiplicity, then rating: each
        graph breaks its own check and every later one."""
        with pytest.raises(InvalidArgument, match=message):
            ImpactGraph(("a", "b"), tuple(edges), ratings=ratings)


class TestNetworkStats:
    def test_complete_graph(self):
        stats = network_stats(build_impact_graph(k4_edges()))
        assert stats["n"] == 4
        assert stats["density"] == pytest.approx(1.0)
        assert stats["diameter"] == 1
        assert stats["avg_clustering"] == pytest.approx(1.0)

    def test_star_center_betweenness(self):
        n = 6
        edges = []
        for i in range(1, n):
            edges.append(("c", f"s{i}"))
            edges.append((f"s{i}", "c"))
        stats = network_stats(build_impact_graph(edges))
        want = (n - 1) * (n - 2) / 2
        assert stats["per_node"]["c"]["betweenness"] == pytest.approx(want)

    def test_single_node(self):
        stats = network_stats(build_impact_graph([], ratings={"A": 1.0}))
        assert stats["density"] == 0.0
        assert stats["diameter"] == 0

    def test_path_graph_distances(self):
        # citations c->b->a give impact chain a->b->c
        stats = network_stats(build_impact_graph([("c", "b"), ("b", "a")]))
        assert stats["diameter"] == 2
        # reachable ordered pairs: (a,b)=1,(a,c)=2,(b,c)=1
        assert stats["avg_path"] == pytest.approx(4 / 3)
        n = 3
        assert stats["avg_path_inclusive"] == pytest.approx(2 * 4 / (n * (n + 1)))
        # efficiency over all ordered pairs, unreachable contribute zero
        assert stats["efficiency"] == pytest.approx((1 + 0.5 + 1) / 6)

    def test_long_path_closed_forms(self):
        # impact chain p0 -> p1 -> ... -> p(n-1): one BFS level per hop
        n = 400
        stats = network_stats(build_impact_graph([(f"p{i + 1}", f"p{i}")
                                                  for i in range(n - 1)]))
        assert stats["diameter"] == n - 1
        pairs = n * (n - 1) // 2
        assert stats["avg_path"] == sum(d * (n - d) for d in range(1, n)) / pairs
        for i in (0, 1, n // 2, n - 1):
            rec = stats["per_node"][f"p{i}"]
            assert rec["eccentricity"] == n - 1 - i
            assert rec["betweenness"] == i * (n - 1 - i)

    def test_coefficient_ranges(self, rng):
        nodes = [f"n{i}" for i in range(12)]
        cites = [(nodes[rng.integers(12)], nodes[rng.integers(12)])
                 for _ in range(40)]
        cites = [(u, v) for u, v in cites if u != v]
        stats = network_stats(build_impact_graph(cites))
        assert 0 <= stats["density"] <= 1
        for rec in stats["per_node"].values():
            assert 0 <= rec["clustering"] <= 1
            assert rec["betweenness"] >= 0


class TestHits:
    def test_bipartite_sink_takes_authority(self):
        # two hubs point at one sink in impact orientation
        g = build_impact_graph([("sink", "h1"), ("sink", "h2")])
        auth, hub = hits(g)
        assert auth["sink"] == pytest.approx(1.0)
        assert auth["h1"] == pytest.approx(0.0, abs=1e-9)
        assert hub["h1"] == pytest.approx(hub["h2"])

    def test_l2_normalized(self):
        g = build_impact_graph(k4_edges())
        auth, hub = hits(g)
        assert np.linalg.norm(list(auth.values())) == pytest.approx(1.0,
                                                                    abs=1e-9)
        assert np.linalg.norm(list(hub.values())) == pytest.approx(1.0,
                                                                   abs=1e-9)

    def test_multiplicity_scaling_invariance(self):
        cites = [("A", "B"), ("B", "C"), ("C", "A"), ("A", "C")]
        a1, h1 = hits(build_impact_graph(cites))
        a2, h2 = hits(build_impact_graph(cites * 3))
        for k in a1:
            assert a1[k] == pytest.approx(a2[k], abs=1e-8)
            assert h1[k] == pytest.approx(h2[k], abs=1e-8)

    def test_no_edges(self):
        with pytest.raises(NoEdges):
            hits(build_impact_graph([], ratings={"A": 1.0}))


class TestIoScenarioScore:
    def high_to_low(self):
        # typical scenario: high-rated origin impacts low-rated reprints
        ratings = {"origin": 100.0}
        ratings.update({f"r{i}": 1.0 for i in range(6)})
        cites = [(f"r{i}", "origin") for i in range(6)]
        return build_impact_graph(cites, ratings=ratings)

    def low_to_high(self):
        ratings = {"target": 100.0}
        ratings.update({f"b{i}": 1.0 for i in range(6)})
        cites = [("target", f"b{i}") for i in range(6)]
        return build_impact_graph(cites, ratings=ratings)

    def test_typical_scenario_low_score(self):
        out = io_scenario_score(self.high_to_low())
        assert out["score"] <= 0.1

    def test_inverse_scenario_flagged(self):
        out = io_scenario_score(self.low_to_high())
        assert out["score"] >= 0.9
        assert any(c["flagged"] for c in out["components"].values())

    def test_clone_cluster_flag(self):
        out = io_scenario_score(self.low_to_high())
        assert out["clone_cluster"] is True

    def test_no_clone_cluster_on_typical(self):
        out = io_scenario_score(self.high_to_low())
        assert out["clone_cluster"] is False

    def test_empty_edges_rejected(self):
        g = build_impact_graph([], ratings={"A": 1.0, "B": 2.0})
        with pytest.raises(NoEdges):
            io_scenario_score(g)

    def test_missing_ratings_rejected(self):
        ratings = {"target": 100.0}
        cites = [("target", f"b{i}") for i in range(6)]
        g = build_impact_graph(cites, ratings=ratings)
        with pytest.raises(InsufficientRatings):
            io_scenario_score(g)

    def test_monotone_rating_remap_invariance(self):
        g = self.low_to_high()
        base = io_scenario_score(g)["score"]
        # strictly monotone remap preserving the ratio-2 partition
        remapped = {k: v ** 2 for k, v in g.ratings.items()}
        g2 = build_impact_graph(
            [(v, u) for u, v, c in g.edges for _ in range(c)],
            ratings=remapped)
        assert io_scenario_score(g2)["score"] == pytest.approx(base)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e12)
                    | st.integers(0, 10 ** 6), min_size=1, max_size=40))
    def test_lower_quartile_is_numpy_linear_quantile(self, values):
        assert netimpact._lower_quartile(values) == float(np.quantile(values, 0.25))


# Citation rows over a small pool (self-citations, repeats and 2-cycles
# come up often), nodes that only carry a rating, ratings with ties and
# zeros on most nodes, and sometimes repeated edge tuples (multi-edges
# that build_impact_graph would have merged).
NODE_NAMES = [f"v{i}" for i in range(10)]
RATING = st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 2.0, 4.0, 9.0])


@st.composite
def impact_graphs(draw):
    node = st.sampled_from(NODE_NAMES)
    cites = draw(st.lists(st.tuples(node, node)
                          | st.tuples(node, node, st.integers(1, 3)), max_size=40))
    rating_only = draw(st.lists(st.sampled_from(["r0", "r1", "r2"]), unique=True))
    named = {x for row in cites for x in row[:2]} | set(rating_only)
    ratings = {x: draw(RATING) for x in sorted(named)}
    ratings = {x: r for x, r in ratings.items() if r is not None}
    g = build_impact_graph(cites, ratings=ratings or None)
    if draw(st.booleans()):
        g = ImpactGraph(g.nodes, g.edges + g.edges[::2], ratings=g.ratings,
                        dropped_self_loops=g.dropped_self_loops)
    return g


class TestNetworkxOracle:
    @settings(max_examples=200, deadline=None)
    @given(g=impact_graphs(), cells=st.sampled_from([1, 24, 2 ** 20]))
    def test_network_stats(self, g, cells):
        assume(g.n >= 1)
        # a small cell budget splits the sources into several BFS blocks
        with mock.patch.object(netimpact, "_BLOCK_CELLS", cells):
            got = network_stats(g)
        want = network_stats_networkx(g)
        for key in ("n", "m", "density", "avg_path", "avg_path_inclusive",
                    "diameter", "avg_clustering"):
            assert got[key] == want[key], key
        assert got["efficiency"] == pytest.approx(want["efficiency"], rel=1e-12, abs=0)
        assert list(got["per_node"]) == list(want["per_node"])
        for node, rec in want["per_node"].items():
            mine = got["per_node"][node]
            for key in ("in_degree", "out_degree", "eccentricity", "clustering"):
                assert mine[key] == rec[key], (node, key)
                assert type(mine[key]) is type(rec[key]), (node, key)
            assert mine["betweenness"] == pytest.approx(rec["betweenness"],
                                                        rel=1e-12, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(g=impact_graphs())
    def test_io_scenario_score(self, g):
        rated = sum(1 for x in g.nodes if x in (g.ratings or {}))
        assume(g.m > 0 and rated >= 0.8 * g.n)
        got = io_scenario_score(g)
        assert got == io_scenario_score_networkx(g)
        for block in got["components"].values():
            assert type(block["score"]) is float and type(block["flagged"]) is bool

    def test_hand_graph_with_every_feature(self):
        # components {a, b, c} and {d, e}, a 2-cycle a <-> b, a repeated
        # citation, a self-citation and the isolated rating-only node f
        cites = [("b", "a"), ("a", "b"), ("c", "b"), ("c", "a"), ("c", "a"),
                 ("e", "d"), ("d", "d")]
        ratings = {k: v for k, v in zip("abcdef", (1.0, 1.0, 8.0, 2.0, 1.0, 3.0))}
        g = build_impact_graph(cites, ratings=ratings)
        stats, want = network_stats(g), network_stats_networkx(g)
        assert stats["per_node"]["a"]["clustering"] == 1.0
        assert stats["per_node"]["f"] == want["per_node"]["f"]
        assert stats["diameter"] == want["diameter"] == 1
        score = io_scenario_score(g)
        assert list(score["components"]) == ["component-0", "component-1",
                                             "component-2"]
        assert score["components"]["component-2"]["nodes"] == ["f"]
        assert score == io_scenario_score_networkx(g)

    @settings(max_examples=200, deadline=None)
    @given(g=impact_graphs())
    def test_hits(self, g):
        try:
            want = hits_dense(g)
        except (NoEdges, NoConvergence) as exc:
            with pytest.raises(type(exc)):
                hits(g)
            return
        for mine, ref in zip(hits(g), want):
            assert list(mine) == list(ref)
            diff = np.subtract(list(mine.values()), list(ref.values()))
            assert np.max(np.abs(diff)) <= 1e-12


def _outcome(op, g):
    """op(g), or the type of the library error it raised."""
    try:
        return op(g)
    except (NoEdges, NoConvergence, InsufficientRatings) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(g=impact_graphs(), k=st.integers(0, 1000))
def test_scores_are_scale_free_in_the_multiplicities(g, k):
    """hits and io_scenario_score read only the ratios of the
    multiplicities: every multiplicity times 2**k gives the same scores."""
    scaled = ImpactGraph(g.nodes, tuple((u, v, c * 2 ** k) for u, v, c in g.edges),
                         ratings=g.ratings, dropped_self_loops=g.dropped_self_loops)
    for op in (hits, io_scenario_score):
        assert _outcome(op, scaled) == _outcome(op, g)


def test_network_stats_memory_on_sparse_graph():
    """One dense 3000 x 3000 float64 matrix alone would be 72 MB."""
    rng = np.random.default_rng(2001)
    n = 3000
    pairs = set()
    while len(pairs) < 6000:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((f"n{u}", f"n{v}"))
    g = ImpactGraph(tuple(f"n{i}" for i in range(n)),
                    tuple((u, v, 1) for u, v in sorted(pairs)))
    tracemalloc.start()
    try:
        stats = network_stats(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert sum(rec["out_degree"] for rec in stats["per_node"].values()) == 6000


def test_hits_memory_on_sparse_graph():
    """A dense 3000 x 3000 float64 matrix alone would be 72 MB."""
    rng = np.random.default_rng(2002)
    n = 3000
    src, dst = rng.integers(0, n, (2, 6600)).tolist()
    g = build_impact_graph([(f"n{v}", f"n{u}") for u, v in zip(src, dst) if u != v],
                           ratings={f"n{i}": 1.0 for i in range(n)})
    assert g.n == n and 6500 <= g.m <= 6600
    tracemalloc.start()
    try:
        auth, hub = hits(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert np.linalg.norm(list(auth.values())) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(list(hub.values())) == pytest.approx(1.0, abs=1e-9)

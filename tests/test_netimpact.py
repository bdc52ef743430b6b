import numpy as np
import pytest

from ioscope.errors import InsufficientRatings, InvalidArgument, NoEdges
from ioscope.netimpact import (build_impact_graph, hits, io_scenario_score,
                               network_stats)


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

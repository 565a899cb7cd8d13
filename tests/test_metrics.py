from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocnet import (
    CooccurrenceNetwork,
    all_node_metrics,
    build_network,
    extract_sentences,
    from_edge_list,
    global_summary,
    load_document,
    undirected_projection,
)
from coocnet import metrics

import oracles


def star4() -> CooccurrenceNetwork:
    """Hub feeding three leaves; projection is a star on four nodes."""
    return from_edge_list([("hub", "x", 1), ("hub", "y", 2), ("hub", "z", 1)])


class TestDegreeFamily:
    def test_average_degree_two_nodes(self, two_node_net):
        assert global_summary(two_node_net).avg_degree == 2

    def test_average_degree_single_node(self):
        assert global_summary(build_network([["solo"]])).avg_degree == 0

    def test_average_degree_complete_triad(self, complete_triad):
        assert global_summary(complete_triad).avg_degree == 4

    def test_average_degree_empty_network(self):
        with pytest.raises(ValueError, match="empty network"):
            global_summary(build_network([]))

    def test_average_degree_equals_mean_stub_count(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=40)
            stubs = sum(row.in_degree + row.out_degree for row in all_node_metrics(net))
            assert global_summary(net).avg_degree == Fraction(stubs, net.n_nodes)

    def test_strength_sums_weights(self):
        net = from_edge_list(
            [("i", "p", 3), ("i", "q", 2), ("i", "r", 1), ("i", "s", 1)]
        )
        row = all_node_metrics(net)[net.node_id("i")]
        assert row.out_strength == 7
        assert row.out_degree == 4

    def test_isolated_node_strength_is_zero(self):
        (row,) = all_node_metrics(build_network([["solo"]]))
        assert row.in_strength == 0
        assert row.out_strength == 0


class TestSelectivity:
    def test_seven_weight_over_four_neighbors(self):
        net = from_edge_list(
            [("i", "p", 3), ("i", "q", 2), ("i", "r", 1), ("i", "s", 1)]
        )
        value = all_node_metrics(net)[net.node_id("i")].out_selectivity
        assert value == Fraction(7, 4)
        assert float(value) == 1.75

    def test_single_heavy_neighbor(self):
        net = from_edge_list([("to", "do", 3)])
        assert all_node_metrics(net)[net.node_id("do")].in_selectivity == 3

    def test_zero_degree_is_undefined(self):
        net = from_edge_list([("a", "want", 1), ("b", "want", 1)])
        want = all_node_metrics(net)[net.node_id("want")]
        assert want.in_selectivity == 1
        assert want.out_selectivity is None

    def test_identity_and_bounds_on_random_networks(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=40)
            for node, row in enumerate(all_node_metrics(net)):
                for side in ("in", "out"):
                    e = getattr(row, f"{side}_selectivity")
                    k = getattr(row, f"{side}_degree")
                    if k == 0:
                        assert e is None
                        continue
                    assert e * k == getattr(row, f"{side}_strength")
                    weights = (
                        net.in_weights(node) if side == "in" else net.out_weights(node)
                    )
                    assert 1 <= e <= max(weights.values())


def clustering_column(net: CooccurrenceNetwork) -> list[Fraction]:
    """Every node's local clustering, indexed by node id."""
    return [row.clustering for row in all_node_metrics(net)]


class TestClustering:
    def test_triangle_node(self, complete_triad):
        for row in all_node_metrics(complete_triad):
            assert row.clustering == 1

    def test_star_center(self):
        net = star4()
        assert all_node_metrics(net)[net.node_id("hub")].clustering == 0

    def test_low_degree_convention(self, two_node_net):
        assert all_node_metrics(two_node_net)[0].clustering == 0

    def test_cycle_with_chord(self):
        # square a-b-c-d-a plus chord a-c; node b sees neighbors {a, c},
        # which are linked: c_b = 1; node a sees {b, c, d} with two links
        # among them (b-c and c-d): c_a = 2*2/(3*2) = 2/3
        net = from_edge_list(
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1), ("a", "c", 1)]
        )
        clustering = clustering_column(net)
        assert clustering[net.node_id("b")] == 1
        assert clustering[net.node_id("a")] == Fraction(2, 3)
        for node in range(net.n_nodes):
            assert clustering[node] == oracles.local_clustering(net, node)

    def test_column_holds_one_object_per_distinct_ratio_pair(self):
        rng = np.random.default_rng(41)
        nets = [oracles.random_network(rng, max_nodes=40) for _ in range(20)]
        nets.append(build_network([["a", "b", "c", "a"], ["loner"], ["x", "y"]]))
        for net in nets:
            clustering = clustering_column(net)
            table = metrics._node_table(net)
            pairs = set(zip(table.twice_links, [k * (k - 1) for k in table.k]))
            assert len(set(map(id, clustering))) <= len(pairs)
            assert all(type(value) is Fraction for value in clustering)
            for node in range(net.n_nodes):
                assert clustering[node] == oracles.local_clustering(net, node)

    def test_average_over_all_nodes(self, complete_triad):
        assert global_summary(complete_triad).avg_clustering == 1
        assert global_summary(star4()).avg_clustering == 0

    def test_isolated_nodes_count_in_the_average(self, complete_triad):
        net = build_network(
            [["a", "b", "c", "a"], ["loner"]]
        )  # triangle plus isolated node
        assert global_summary(net).avg_clustering == Fraction(3, 4)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty network"):
            global_summary(build_network([]))


def undirected_graph(edges, order=None) -> CooccurrenceNetwork:
    """Network whose projection has the given undirected edges.

    Edges alternate between one direction and both, which the projection
    must merge.  ``order`` lists the node names in node-id order, so one
    graph can be laid out under several id orders.
    """
    weights = {}
    names = order or sorted({name for edge in edges for name in edge})
    ids = {name: i for i, name in enumerate(names)}
    for n, (a, b) in enumerate(edges):
        weights[(ids[a], ids[b])] = 1
        if n % 2:
            weights[(ids[b], ids[a])] = 2
    return CooccurrenceNetwork(names, weights)


def complete(n):
    return [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n)]


def cycle(n):
    return [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


def wheel(n):
    return cycle(n) + [("hub", f"v{i}") for i in range(n)]


# graphs full of (k, id) ties, where the forward orientation decides by id
TIED_GRAPHS = {
    **{f"K{n}": complete(n) for n in range(3, 8)},
    **{f"C{n}": cycle(n) for n in range(3, 8)},
    **{f"W{n}": wheel(n) for n in range(3, 8)},
    "two-triangles-sharing-an-edge": [
        ("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"), ("d", "c")
    ],
    "K5-with-pendant-path": complete(5) + [("v0", "p1"), ("p1", "p2"), ("p2", "p3")],
}


class TestTriangleOrientation:
    @pytest.mark.parametrize("name", TIED_GRAPHS)
    def test_every_node_matches_oracle_under_shuffled_ids(self, name):
        edges = TIED_GRAPHS[name]
        names = sorted({node for edge in edges for node in edge})
        rng = np.random.default_rng(41)
        for layout in range(4):
            order = names if layout == 0 else list(rng.permutation(names))
            net = undirected_graph(edges, order)
            expected = [oracles.local_clustering(net, v) for v in range(net.n_nodes)]
            assert clustering_column(net) == expected
            assert global_summary(net).avg_clustering == sum(expected) / net.n_nodes

    @pytest.mark.parametrize("n", range(3, 8))
    def test_closed_forms(self, n):
        clique = undirected_graph(complete(n))
        assert all(value == 1 for value in clustering_column(clique))
        ring = undirected_graph(cycle(n))
        assert global_summary(ring).avg_clustering == (1 if n == 3 else 0)
        spokes = undirected_graph(wheel(n))
        clustering = clustering_column(spokes)
        hub = spokes.node_id("hub")
        # the hub's n neighbors form an n-cycle: n links among them
        assert clustering[hub] == Fraction(2 * n, n * (n - 1))
        # a rim node sees the hub and two rim neighbors: two links, or three in W3
        rim = spokes.node_id("v0")
        assert clustering[rim] == (1 if n == 3 else Fraction(2, 3))

    def test_shared_edge_and_pendant_path(self):
        diamond = undirected_graph(TIED_GRAPHS["two-triangles-sharing-an-edge"])
        clustering = clustering_column(diamond)
        values = {w: clustering[diamond.node_id(w)] for w in "abcd"}
        assert values == {"a": 1, "b": Fraction(2, 3), "c": Fraction(2, 3), "d": 1}
        tail = undirected_graph(TIED_GRAPHS["K5-with-pendant-path"])
        clustering = clustering_column(tail)
        # v0 has its four clique neighbors plus p1: 6 links among 5 neighbors
        assert clustering[tail.node_id("v0")] == Fraction(12, 20)
        for word in ("p1", "p2", "p3"):
            assert clustering[tail.node_id(word)] == 0


class TestDensity:
    def test_complete_triad(self, complete_triad):
        assert global_summary(complete_triad).density == 1

    def test_two_nodes_both_edges(self, two_node_net):
        assert global_summary(two_node_net).density == 1

    def test_sparse_triple(self):
        net = build_network([["a", "b"], ["c"]])
        assert global_summary(net).density == Fraction(1, 6)

    def test_undefined_below_two_nodes(self):
        assert global_summary(build_network([["solo"]])).density is None


def distance_column(
    net: CooccurrenceNetwork, sample: int | None = None
) -> list[Fraction | None]:
    """Every node's average distance, indexed by node id."""
    return [row.avg_distance for row in all_node_metrics(net, sample)]


class TestDistances:
    def test_two_node_path(self):
        net = from_edge_list([("a", "b", 1)])
        assert distance_column(net)[net.node_id("a")] == Fraction(1, 2)

    def test_three_node_path_middle(self):
        net = from_edge_list([("a", "b", 1), ("b", "c", 1)])
        distance = distance_column(net)
        assert distance[net.node_id("b")] == Fraction(2, 3)
        assert distance[net.node_id("a")] == 1

    def test_singleton_component(self):
        net = build_network([["solo"]])
        assert distance_column(net)[0] == 0
        summary = global_summary(net)
        assert summary.avg_shortest_path is None
        assert summary.diameter is None

    def test_node_outside_largest_component(self):
        net = build_network([["a", "b", "c"], ["d"]])
        assert distance_column(net)[net.node_id("d")] is None

    def test_three_node_path_average(self):
        net = from_edge_list([("a", "b", 1), ("b", "c", 1)])
        assert global_summary(net).avg_shortest_path == Fraction(4, 3)

    def test_complete_graph_average_is_one(self, complete_triad):
        summary = global_summary(complete_triad)
        assert summary.avg_shortest_path == 1
        assert summary.diameter == 1

    def test_four_node_path(self, path4):
        summary = global_summary(path4)
        assert summary.avg_shortest_path == Fraction(5, 3)
        assert summary.diameter == 3

    def test_weights_do_not_affect_distances(self):
        light = from_edge_list([("a", "b", 1), ("b", "c", 1)])
        heavy = from_edge_list([("a", "b", 9), ("b", "c", 5)])
        light, heavy = global_summary(light), global_summary(heavy)
        assert light.avg_shortest_path == heavy.avg_shortest_path
        assert light.diameter == heavy.diameter


def assert_distances_match_oracle(net: CooccurrenceNetwork) -> None:
    """Exact L, D and every node average distance equal the matrix oracle."""
    want_l, want_d, want_node = oracles.path_stats(net)
    summary = global_summary(net)
    assert summary.avg_shortest_path == want_l
    assert summary.diameter == want_d
    distance = distance_column(net)
    for node in range(net.n_nodes):
        assert distance[node] == want_node.get(node)


def assert_sampled_distances_match_oracle(
    net: CooccurrenceNetwork, sample: int
) -> None:
    """Sampled values are the oracle's rows of the sampled sources."""
    _, _, want_node = oracles.path_stats(net)
    eccentricity = oracles.eccentricities(net)
    n_prime = len(want_node)
    values = dict(enumerate(distance_column(net, sample)))
    sources = [node for node, value in values.items() if value is not None]
    assert len(sources) == min(sample, n_prime)
    for node in sources:
        assert values[node] == want_node[node]
    summary = global_summary(net, sample=sample)
    if n_prime < 2:
        assert summary.avg_shortest_path is None
        assert summary.diameter is None
        return
    row_total = sum(want_node[node] * n_prime for node in sources)
    assert summary.avg_shortest_path == row_total / (len(sources) * (n_prime - 1))
    assert summary.diameter == max(eccentricity[n] for n in sources)


class TestOracleEquivalence:
    def test_distances_components_clustering(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            net = oracles.random_network(rng, max_nodes=50)
            assert_distances_match_oracle(net)
            clustering = clustering_column(net)
            for node in range(net.n_nodes):
                assert clustering[node] == oracles.local_clustering(net, node)

    def test_node_metrics_match_oracles(self):
        rng = np.random.default_rng(2025)
        for _ in range(40):
            net = oracles.random_network(rng, max_nodes=40)
            expected = oracles.degree_family(net)
            _, _, node_avg = oracles.path_stats(net)
            records = all_node_metrics(net)
            assert len(records) == net.n_nodes
            for node, rec in enumerate(records):
                assert rec.word == net.words[node]
                for name, column in expected.items():
                    assert getattr(rec, name) == column[node], name
                assert rec.clustering == oracles.local_clustering(net, node)
                assert rec.avg_distance == node_avg.get(node)

    @pytest.mark.parametrize("block", [1, 3])
    def test_distances_over_several_source_blocks(self, monkeypatch, block):
        monkeypatch.setattr(metrics, "_block_width", lambda n_prime: block)
        rng = np.random.default_rng(2024)
        for _ in range(60):
            net = oracles.random_network(rng, max_nodes=50)
            assert_distances_match_oracle(net)
            assert_sampled_distances_match_oracle(net, 5)

    @pytest.mark.parametrize("block", [1, 3])
    def test_small_components_over_several_source_blocks(self, monkeypatch, block):
        monkeypatch.setattr(metrics, "_block_width", lambda n_prime: block)
        pair_and_singletons = build_network([["a", "b"], ["c"], ["d"]])
        only_singletons = build_network([["solo"], ["other"]])
        for net in (pair_and_singletons, only_singletons):
            assert_distances_match_oracle(net)
            for sample in (1, 2):
                assert_sampled_distances_match_oracle(net, sample)
        pair_summary = global_summary(pair_and_singletons)
        assert pair_summary.avg_shortest_path == 1
        assert pair_summary.diameter == 1
        pair_distance = distance_column(pair_and_singletons)
        assert pair_distance[0] == Fraction(1, 2)
        assert pair_distance[2] is None
        singleton_distance = distance_column(only_singletons)
        assert singleton_distance[0] == 0
        assert singleton_distance[1] is None
        assert global_summary(only_singletons).diameter is None

    def test_l_never_exceeds_diameter(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=40)
            summary = global_summary(net)
            if summary.avg_shortest_path is not None:
                assert summary.avg_shortest_path <= summary.diameter


def largest_component_without_node_0() -> CooccurrenceNetwork:
    """A pair holding node 0, then a wheel of nine nodes and a tail."""
    edges = [("a0", "a1")] + wheel(8) + [("v0", "t0"), ("t0", "t1")]
    order = ["a0", "a1", "t1", "v3", "hub", "t0", "v0", "v1", "v2"]
    order += ["v4", "v5", "v6", "v7"]
    return undirected_graph(edges, order)


class TestSweepBudget:
    """The byte budget sets the sources per sweep; no value depends on it."""

    @staticmethod
    def budget(n_prime: int, width: int) -> int:
        """The fewest bytes that hold two bitsets of ``width`` bits per node."""
        return -(-2 * n_prime * width // 8)

    @staticmethod
    def assert_widest(n_prime: int, budget: int) -> int:
        """B is the widest block whose bitsets fit in ``budget``, at least 1."""
        widest = metrics._block_width(n_prime)
        assert 8 * budget < 2 * n_prime * (widest + 1)
        assert 2 * n_prime * widest <= 8 * budget or widest == 1
        return widest

    @pytest.mark.parametrize("n_prime", [3, 4, 10, 2_000, 16_789])
    @pytest.mark.parametrize("width", [1, 3, 1_000])
    def test_width_is_the_widest_that_fits(self, monkeypatch, n_prime, width):
        # the fewest bytes for ``width`` bits may also hold width + 1 (with
        # n_prime = width = 3, 3 bytes hold 4), so the test pins the
        # defining inequality rather than ``width`` itself
        budget = self.budget(n_prime, width)
        monkeypatch.setattr(metrics, "_SWEEP_BYTES", budget)
        assert self.assert_widest(n_prime, budget) >= width
        monkeypatch.setattr(metrics, "_SWEEP_BYTES", budget - 1)
        assert self.assert_widest(n_prime, budget - 1) < max(2, width)

    def test_default_budget(self):
        assert metrics._block_width(2_000) >= 2_000  # every source in one sweep
        assert metrics._block_width(11_585) == 11_585
        assert metrics._block_width(11_586) == 11_584
        assert metrics._block_width(16_789) == 7_994
        assert metrics._block_width(19_963) == 6_723

    @pytest.mark.parametrize("width", [1, 3, "all"])
    def test_distances_match_oracle_at_each_width(self, monkeypatch, width):
        widths: list[int] = []
        sweep = metrics._sweep

        def recording_sweep(adjacency, members, block, sums, by_source):
            widths.append(len(block))
            return sweep(adjacency, members, block, sums, by_source)

        monkeypatch.setattr(metrics, "_sweep", recording_sweep)
        rng = np.random.default_rng(2026)
        nets = [largest_component_without_node_0()]
        nets += [oracles.random_network(rng, max_nodes=40) for _ in range(30)]
        assert sum(0 not in oracles.largest_component(net) for net in nets) >= 3
        for net in nets:
            n_prime = len(oracles.largest_component(net))
            block = n_prime if width == "all" else width
            budget = self.budget(n_prime, block) if n_prime >= 3 else 0
            monkeypatch.setattr(metrics, "_SWEEP_BYTES", budget)
            for sample in (None, 5):
                widths.clear()
                if sample is None:
                    assert_distances_match_oracle(net)
                    n_sources = n_prime
                else:
                    assert_sampled_distances_match_oracle(net, sample)
                    n_sources = min(sample, n_prime)
                expect = min(block, n_sources) if n_prime >= 3 else 1
                full, last = divmod(n_sources, expect)
                assert widths == [expect] * full + [last] * (last > 0)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_oracle_at_any_width_and_sample(
        self, seed, isolate_node_0, data
    ):
        rng = np.random.default_rng(seed)
        words, weights = oracles.random_weights(rng, max_nodes=40)
        if isolate_node_0:  # outside the largest component once any edge exists
            words = ["isolated", *words]
            weights = {(src + 1, dst + 1): w for (src, dst), w in weights.items()}
        net = CooccurrenceNetwork(words, weights)
        comp = oracles.largest_component(net)
        n_prime = len(comp)
        width = data.draw(st.integers(1, n_prime), label="width")
        sample = data.draw(st.none() | st.integers(1, n_prime), label="sample")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_block_width", lambda n_prime: width)
            stats = metrics._distance_stats(net, sample)
        want_l, want_d, want_node = oracles.path_stats(net)
        eccentricity = oracles.eccentricities(net)
        sources = sorted(stats.node_sum)
        assert len(sources) == (n_prime if sample is None else sample)
        assert set(sources) <= comp
        want_sum = {node: want_node[node] * n_prime for node in sources}
        assert stats.node_sum == want_sum
        assert stats.total == sum(want_sum.values())
        assert stats.max_dist == max(eccentricity[node] for node in sources)
        if sample is None and n_prime >= 2:
            assert Fraction(stats.total, n_prime * (n_prime - 1)) == want_l
            assert stats.max_dist == want_d


class TestScaleInvariance:
    def test_weight_scaling(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=30)
            scaled = oracles.scaled_network(net, 7)
            for row, scaled_row in zip(all_node_metrics(net), all_node_metrics(scaled)):
                for side in ("in", "out"):
                    degree, selectivity = f"{side}_degree", f"{side}_selectivity"
                    assert getattr(scaled_row, degree) == getattr(row, degree)
                    base = getattr(row, selectivity)
                    if base is None:
                        assert getattr(scaled_row, selectivity) is None
                    else:
                        assert getattr(scaled_row, selectivity) == 7 * base
            # weights enter no whole-network measure
            assert global_summary(scaled) == global_summary(net)


class TestBatchViews:
    def test_node_records_for_two_node_net(self, two_node_net):
        records = all_node_metrics(two_node_net)
        a = records[two_node_net.node_id("a")]
        assert (a.in_degree, a.out_degree) == (1, 1)
        assert (a.in_strength, a.out_strength) == (1, 2)
        assert (a.in_selectivity, a.out_selectivity) == (1, 2)
        assert a.avg_distance == Fraction(1, 2)

    def test_empty_network_gives_empty_list(self):
        assert all_node_metrics(build_network([])) == []

    def test_records_satisfy_identities(self):
        rng = np.random.default_rng(4)
        net = oracles.random_network(rng, max_nodes=40)
        adjacency = undirected_projection(net)
        for node, rec in enumerate(all_node_metrics(net)):
            assert rec.word == net.words[node]
            if rec.in_selectivity is not None:
                assert rec.in_selectivity * rec.in_degree == rec.in_strength
            if rec.out_selectivity is not None:
                assert rec.out_selectivity * rec.out_degree == rec.out_strength
            if len(adjacency[node]) < 2:
                assert rec.clustering == 0

    def test_global_summary_triad(self, complete_triad):
        gm = global_summary(complete_triad)
        assert (gm.n_nodes, gm.n_edges) == (3, 6)
        assert gm.avg_degree == 4
        assert gm.avg_shortest_path == 1
        assert gm.diameter == 1
        assert gm.avg_clustering == 1
        assert gm.density == 1
        assert gm.n_components == 1
        assert gm.largest_component_size == 3

    def test_global_summary_single_node(self):
        gm = global_summary(build_network([["solo"]]))
        assert (gm.n_nodes, gm.n_edges) == (1, 0)
        assert gm.avg_degree == 0
        assert gm.avg_clustering == 0
        assert gm.avg_shortest_path is None
        assert gm.diameter is None
        assert gm.density is None
        assert gm.n_components == 1
        assert gm.largest_component_size == 1

    def test_global_summary_empty_network_rejected(self):
        with pytest.raises(ValueError):
            global_summary(build_network([]))

    def test_global_summary_matches_oracles(self):
        rng = np.random.default_rng(30)
        net = oracles.random_network(rng, max_nodes=30)
        gm = global_summary(net)
        want_l, want_d, _ = oracles.path_stats(net)
        assert gm.avg_shortest_path == want_l
        assert gm.diameter == want_d
        assert gm.n_components == len(oracles.components(net))
        assert gm.largest_component_size == len(oracles.largest_component(net))


class TestSampledEstimates:
    def test_sample_covering_component_is_exact(self, path4):
        summary = global_summary(path4, sample=10)
        assert summary.avg_shortest_path == Fraction(5, 3)
        assert summary.diameter == 3

    def test_sampled_diameter_is_a_lower_bound(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            net = oracles.random_network(rng, max_nodes=40)
            exact = global_summary(net).diameter
            estimate = global_summary(net, sample=3).diameter
            if exact is not None:
                assert estimate <= exact

    def test_sampling_is_deterministic(self):
        rng = np.random.default_rng(66)
        net = oracles.random_network(rng, max_nodes=40)
        first = global_summary(net, sample=5).avg_shortest_path
        assert global_summary(net, sample=5).avg_shortest_path == first

    def test_unsampled_sources_have_no_node_distance(self):
        net = from_edge_list(
            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1)]
        )
        values = distance_column(net, sample=2)
        assert sum(v is not None for v in values) == 2

    def test_sampled_values_match_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=50)
            for sample in (1, 3, 7):
                assert_sampled_distances_match_oracle(net, sample)

    def test_invalid_sample_size(self, path4):
        with pytest.raises(ValueError):
            global_summary(path4, sample=0)

    @pytest.mark.parametrize("sample", [0, -1])
    @pytest.mark.parametrize("sentences", [[], [["solo"]], [["a", "b"]]])
    def test_invalid_sample_size_on_tiny_networks(self, sentences, sample):
        net = build_network(sentences)
        with pytest.raises(ValueError, match="sample must be >= 1"):
            all_node_metrics(net, sample=sample)
        # the empty network has no summary, whatever the sample
        message = "sample must be >= 1" if net.n_nodes else "empty network"
        with pytest.raises(ValueError, match=message):
            global_summary(net, sample=sample)


class TestNetworkxCrossCheck:
    def test_formal_fixture_measures(self, formal_text_path):
        import networkx as nx  # declared in the test extra

        net = build_network(extract_sentences(load_document(formal_text_path)))
        graph = nx.Graph()
        graph.add_nodes_from(range(net.n_nodes))
        graph.add_edges_from(edge for edge, _ in net.edge_items())
        largest = max(nx.connected_components(graph), key=len)
        component = graph.subgraph(largest).copy()  # a view walks 10x slower
        lengths = dict(nx.all_pairs_shortest_path_length(component))
        n_prime = len(lengths)
        total = sum(sum(row.values()) for row in lengths.values())
        summary = global_summary(net)
        assert summary.avg_shortest_path == Fraction(total, n_prime * (n_prime - 1))
        assert summary.diameter == max(max(row.values()) for row in lengths.values())
        triangles = nx.triangles(graph)
        clustering = []
        values = clustering_column(net)
        for node in range(net.n_nodes):
            k = graph.degree(node)
            want = Fraction(2 * triangles[node], k * (k - 1)) if k > 1 else Fraction(0)
            assert values[node] == want
            clustering.append(want)
        assert summary.avg_clustering == sum(clustering) / net.n_nodes
        assert summary.n_components == nx.number_connected_components(graph)

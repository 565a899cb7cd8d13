import numpy as np
import pytest

from coocnet import (
    CooccurrenceNetwork,
    EdgeListFormatError,
    EdgeRecord,
    build_network,
    from_edge_list,
    read_edge_list,
    to_edge_list,
    undirected_projection,
    weak_components,
    write_edge_list,
)

import oracles


class TestConstruction:
    def test_repeated_pair_accumulates_weight(self):
        net = build_network([["a", "b", "a", "b"]])
        # adjacent pairs: (a,b), (b,a), (a,b)
        assert net.n_nodes == 2
        assert net.n_edges == 2
        assert net.weight(net.node_id("a"), net.node_id("b")) == 2
        assert net.weight(net.node_id("b"), net.node_id("a")) == 1

    def test_one_word_sentences_make_isolated_nodes(self):
        net = build_network([["a"], ["b"]])
        assert net.n_nodes == 2
        assert net.n_edges == 0

    def test_no_edges_across_sentences(self):
        net = build_network([["a", "b"], ["b", "a"]])
        assert net.weight(net.node_id("a"), net.node_id("b")) == 1
        assert net.weight(net.node_id("b"), net.node_id("a")) == 1

    def test_consecutive_duplicates_never_loop(self):
        net = build_network([["a", "a", "b"]])
        assert net.n_edges == 1
        assert net.weight(net.node_id("a"), net.node_id("b")) == 1

    def test_node_ids_in_first_appearance_order(self):
        net = build_network([["c", "a"], ["b", "a"]])
        assert net.words == ("c", "a", "b")

    def test_empty_stream(self):
        net = build_network([])
        assert net.n_nodes == 0 and net.n_edges == 0

    def test_reversed_sentences_transpose_the_network(self):
        sentences = [["a", "b", "c", "a"], ["b", "d"], ["d", "c", "d"]]
        forward = build_network(sentences)
        backward = build_network([list(reversed(s)) for s in sentences])
        flipped = {
            (backward.words[dst], backward.words[src]): w
            for (src, dst), w in backward.edge_items()
        }
        straight = {
            (forward.words[src], forward.words[dst]): w
            for (src, dst), w in forward.edge_items()
        }
        assert flipped == straight


class TestValidation:
    def test_duplicate_word_rejected(self):
        with pytest.raises(ValueError, match="duplicate word"):
            CooccurrenceNetwork(("a", "a"), {})

    def test_empty_or_spacey_word_rejected(self):
        with pytest.raises(ValueError, match="invalid word"):
            CooccurrenceNetwork(("a", ""), {})
        with pytest.raises(ValueError, match="invalid word"):
            CooccurrenceNetwork(("a", "b c"), {})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CooccurrenceNetwork(("a", "b"), {(0, 0): 1})

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            CooccurrenceNetwork(("a", "b"), {(0, 1): 0})

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CooccurrenceNetwork(("a", "b"), {(0, 2): 1})

    def test_equality_ignores_id_assignment(self):
        left = CooccurrenceNetwork(("a", "b"), {(0, 1): 2})
        right = CooccurrenceNetwork(("b", "a"), {(1, 0): 2})
        assert left == right
        assert left != CooccurrenceNetwork(("a", "b"), {(0, 1): 3})


class TestEdgeListConversion:
    def test_sorted_records(self, two_node_net):
        assert to_edge_list(two_node_net) == [
            EdgeRecord("a", "b", 2),
            EdgeRecord("b", "a", 1),
        ]

    def test_empty_network(self):
        assert to_edge_list(build_network([])) == []

    def test_from_records(self):
        net = from_edge_list([("a", "b", 2)])
        assert net.n_nodes == 2 and net.n_edges == 1

    def test_duplicate_record_rejected(self):
        with pytest.raises(EdgeListFormatError, match="duplicate"):
            from_edge_list([("a", "b", 1), ("a", "b", 1)])

    def test_self_loop_record_rejected(self):
        with pytest.raises(EdgeListFormatError, match="self-loop"):
            from_edge_list([("a", "a", 1)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(EdgeListFormatError, match="positive"):
            from_edge_list([("a", "b", 0)])

    def test_round_trip_on_random_networks(self):
        # records carry no isolated nodes, so compare against the network
        # restricted to words that touch at least one edge
        rng = np.random.default_rng(42)
        for _ in range(25):
            net = oracles.random_network(rng, max_nodes=30)
            touched = [
                word
                for node, word in enumerate(net.words)
                if net.in_weights(node) or net.out_weights(node)
            ]
            expected = CooccurrenceNetwork(
                touched,
                {
                    (touched.index(net.words[s]), touched.index(net.words[d])): w
                    for (s, d), w in net.edge_items()
                },
            )
            assert from_edge_list(to_edge_list(net)) == expected


class TestEdgeListFiles:
    def test_exact_bytes(self, two_node_net, tmp_path):
        path = tmp_path / "net.edges.tsv"
        write_edge_list(two_node_net, path)
        assert path.read_bytes() == b"a\tb\t2\nb\ta\t1\n"

    def test_empty_network_writes_empty_file(self, tmp_path):
        path = tmp_path / "net.edges.tsv"
        write_edge_list(build_network([]), path)
        assert path.read_bytes() == b""

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        net = oracles.random_network(rng, max_nodes=40)
        path = tmp_path / "net.edges.tsv"
        write_edge_list(net, path)
        assert read_edge_list(path) == net

    def test_field_count_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\nc\td\t2\nx y 3\n", encoding="utf-8")
        with pytest.raises(EdgeListFormatError, match="line 3"):
            read_edge_list(path)

    def test_bad_weight_cites_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\theavy\n", encoding="utf-8")
        with pytest.raises(EdgeListFormatError, match="line 1"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "weight", ["1\r", "+2", "1_000", "\u0661", " 3", "007", "0", "-1"]
    )
    def test_non_canonical_weight_rejected(self, tmp_path, weight):
        # only [1-9][0-9]* in ASCII, the spelling write_edge_list writes
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t1\nb\ta\t{weight}\n", encoding="utf-8", newline="")
        with pytest.raises(EdgeListFormatError, match="line 2") as info:
            read_edge_list(path)
        assert str(path) in str(info.value)
        assert repr(weight) in str(info.value)

    def test_duplicate_cites_both_lines(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\na\tb\t2\n", encoding="utf-8")
        with pytest.raises(EdgeListFormatError, match="line 2.*line 1"):
            read_edge_list(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a\tb\t1\n\xff\tc\t1\n")
        with pytest.raises(EdgeListFormatError, match="UTF-8"):
            read_edge_list(path)


class TestProjectionAndComponents:
    def test_reciprocal_edges_project_to_one_link(self, two_node_net):
        adjacency = undirected_projection(two_node_net)
        assert adjacency == [{1}, {0}]

    def test_chain_projection(self):
        net = from_edge_list([("a", "b", 1), ("b", "c", 1)])
        assert undirected_projection(net) == [{1}, {0, 2}, {1}]

    def test_projection_never_adds_links(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=30)
            links = sum(len(nbrs) for nbrs in undirected_projection(net)) // 2
            assert links <= net.n_edges

    def test_edge_plus_isolated_node(self):
        net = build_network([["a", "b"], ["c"]])
        labeling = weak_components(net)
        assert labeling.count == 2
        assert labeling.sizes[labeling.largest] == 2
        assert sum(labeling.sizes) == net.n_nodes

    def test_empty_network_has_no_components(self):
        labeling = weak_components(build_network([]))
        assert labeling.count == 0
        assert labeling.largest is None

    def test_size_tie_goes_to_smallest_component_id(self):
        net = from_edge_list([("a", "b", 1), ("c", "d", 1)])
        labeling = weak_components(net)
        assert labeling.largest == 0

    def test_labels_match_union_find_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            net = oracles.random_network(rng, max_nodes=100, max_weight=3)
            labeling = weak_components(net)
            expected = oracles.components(net)
            assert labeling.count == len(expected)
            mine = [set() for _ in range(labeling.count)]
            for node, comp in enumerate(labeling.labels):
                mine[comp].add(node)
            assert mine == expected


class TestHandshake:
    def test_degree_and_strength_totals(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=40)
            k_in = sum(len(net.in_weights(n)) for n in range(net.n_nodes))
            k_out = sum(len(net.out_weights(n)) for n in range(net.n_nodes))
            s_in = sum(sum(net.in_weights(n).values()) for n in range(net.n_nodes))
            s_out = sum(sum(net.out_weights(n).values()) for n in range(net.n_nodes))
            total = sum(w for _, w in net.edge_items())
            assert k_in == k_out == net.n_edges
            assert s_in == s_out == total

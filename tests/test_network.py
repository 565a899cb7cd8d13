import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from coocnet.network import _edgeless_count

import oracles


class TestConstruction:
    def test_repeated_pair_accumulates_weight(self):
        net = build_network([["a", "b", "a", "b"]])
        # adjacent pairs: (a,b), (b,a), (a,b)
        assert net.n_nodes == 2
        assert net.n_edges == 2
        a, b = net.node_id("a"), net.node_id("b")
        assert net.out_weights(a) == {b: 2}
        assert net.out_weights(b) == {a: 1}

    def test_one_word_sentences_make_isolated_nodes(self):
        net = build_network([["a"], ["b"]])
        assert net.n_nodes == 2
        assert net.n_edges == 0

    def test_no_edges_across_sentences(self):
        net = build_network([["a", "b"], ["b", "a"]])
        a, b = net.node_id("a"), net.node_id("b")
        assert net.out_weights(a) == {b: 1}
        assert net.out_weights(b) == {a: 1}

    def test_consecutive_duplicates_never_loop(self):
        net = build_network([["a", "a", "b"]])
        assert net.n_edges == 1
        a, b = net.node_id("a"), net.node_id("b")
        assert net.out_weights(a) == {b: 1}
        assert net.out_weights(b) == {}

    def test_node_ids_in_first_appearance_order(self):
        net = build_network([["c", "a"], ["b", "a"]])
        assert net.words == ("c", "a", "b")

    def test_empty_stream(self):
        net = build_network([])
        assert net.n_nodes == 0 and net.n_edges == 0

    def test_node_ids_out_of_range_are_refused(self, path4):
        n = path4.n_nodes
        with pytest.raises(IndexError, match="node id -1 out of range"):
            path4.out_weights(-1)
        with pytest.raises(IndexError, match=f"node id {n} out of range"):
            path4.in_weights(n)

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
        # bool subclasses int, but True would be written as "True"
        with pytest.raises(ValueError, match="weight"):
            CooccurrenceNetwork(("a", "b"), {(0, 1): True})

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CooccurrenceNetwork(("a", "b"), {(0, 2): 1})

    def test_equality_ignores_id_assignment(self):
        left = CooccurrenceNetwork(("a", "b"), {(0, 1): 2})
        right = CooccurrenceNetwork(("b", "a"), {(1, 0): 2})
        assert left == right
        assert left != CooccurrenceNetwork(("a", "b"), {(0, 1): 3})

    def test_equality_needs_the_same_words(self):
        # the same edge list, but c has no edge
        left = CooccurrenceNetwork(("a", "b"), {(0, 1): 2})
        right = CooccurrenceNetwork(("a", "b", "c"), {(0, 1): 2})
        assert to_edge_list(left) == to_edge_list(right)
        assert left != right

    def test_equality_with_another_type_is_not_implemented(self):
        net = CooccurrenceNetwork(("a", "b"), {(0, 1): 2})
        assert net.__eq__(1) is NotImplemented
        assert (net == 1) is False

    def test_repr_gives_the_sizes(self):
        net = CooccurrenceNetwork(("a", "b", "c"), {(0, 1): 2, (2, 1): 1})
        assert repr(net) == "CooccurrenceNetwork(n_nodes=3, n_edges=2)"


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

    def test_bool_weight_rejected(self):
        with pytest.raises(EdgeListFormatError, match="record 1: weight"):
            from_edge_list([("a", "b", True)])

    def test_invalid_word_rejected(self):
        with pytest.raises(EdgeListFormatError, match="record 2: invalid word"):
            from_edge_list([("a", "b", 1), ("b", "c d", 1)])

    def test_duplicate_cites_both_record_numbers(self):
        with pytest.raises(EdgeListFormatError, match="record 3: .*record 1"):
            from_edge_list([("a", "b", 1), ("b", "a", 1), ("a", "b", 2)])

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

    def test_unsorted_file_loads_and_rewrites_sorted(self, tmp_path):
        # the reader takes records in any order; the writer sorts them
        unsorted = tmp_path / "unsorted.tsv"
        unsorted.write_bytes(b"b\ta\t1\nc\ta\t3\na\tb\t2\n")
        ordered = tmp_path / "sorted.tsv"
        ordered.write_bytes(b"a\tb\t2\nb\ta\t1\nc\ta\t3\n")
        net = read_edge_list(unsorted)
        assert net == read_edge_list(ordered)
        rewritten = tmp_path / "rewritten.tsv"
        write_edge_list(net, rewritten)
        assert rewritten.read_bytes() == ordered.read_bytes()

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbfa\tb\t1\nb\ta\t2\n")
        plain = tmp_path / "plain.tsv"
        plain.write_bytes(b"a\tb\t1\nb\ta\t2\n")
        assert read_edge_list(marked) == read_edge_list(plain)
        assert read_edge_list(marked).n_nodes == 2

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

    @pytest.mark.parametrize(
        "line", ["\tb\t1", "a\t\t1", "x y\tb\t1", "a\tb c\t1", "a\r\tb\t1"]
    )
    def test_bad_word_cites_file_and_line(self, tmp_path, line):
        # a word is non-empty and holds no whitespace, CR included
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t1\n{line}\n", encoding="utf-8", newline="")
        with pytest.raises(EdgeListFormatError, match="line 2: invalid word") as info:
            read_edge_list(path)
        assert str(path) in str(info.value)

    def test_self_loop_cites_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\nb\tb\t1\n", encoding="utf-8")
        with pytest.raises(EdgeListFormatError, match="line 2: self-loop"):
            read_edge_list(path)

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


_WORD = st.text(alphabet="ab\u00e9 \r", max_size=3)
_LINE = st.tuples(_WORD, _WORD, st.sampled_from(["1", "2", "10", "0", "x"]))
_EDGE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(
        st.sampled_from(
            [b"a", b"\xc3\xa9", b"\t", b"\n", b"1", b"0", b" ", b"\r", b"\xff"]
        ),
        max_size=40,
    ).map(b"".join),
    st.lists(_LINE, max_size=6).map(
        lambda lines: "".join(f"{s}\t{d}\t{w}\n" for s, d, w in lines).encode("utf-8")
    ),
)


@given(_EDGE_BYTES)
@settings(max_examples=300, deadline=None)
def test_read_edge_list_round_trips_or_names_the_file(data):
    # any bytes: a network that survives a rewrite, or EdgeListFormatError
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.edges.tsv"
        path.write_bytes(data)
        try:
            net = read_edge_list(path)
        except EdgeListFormatError as exc:
            assert str(path) in str(exc)
            return
        rewritten = Path(tmp) / "out.edges.tsv"
        write_edge_list(net, rewritten)
        assert read_edge_list(rewritten) == net


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

    def test_edgeless_count_matches_projection_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=30)
            expected = sum(1 for nbrs in oracles.projection(net) if not nbrs)
            assert _edgeless_count(net) == expected
        assert _edgeless_count(build_network([["a", "b"], ["c"], ["b"]])) == 1
        assert _edgeless_count(build_network([])) == 0

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

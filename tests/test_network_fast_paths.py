"""The trusted build path, the edge lists, the lazy caches and the writer.

`build_network` fills the network's out-neighbor maps itself instead of
going through the validating constructor, every constructor copies them
into flat edge lists, whose accessors hand out new mappings, and no
constructor derives the in-edges: `in_weights` fills them on demand, and
the per-node table tallies the in-side from the out-edges;
`undirected_projection` builds fresh sets on each call, while
components, the per-node table and the distance sweeps read one cached
adjacency of int tuples, the sweeps in place; `to_edge_list` and
`write_edge_list` share one edge order, built on a word order cached
once for them and the rank series, and the writer writes each
source's lines into the open file instead of joining every line first;
the edge-record readers fill the out-maps directly and scan their records
again only to cite a duplicate.  Each is checked against an oracle, and a
built network, the same network read back, the reader's peak, the writer
and the sampled sweeps against a memory bound.
"""

import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocnet import (
    CooccurrenceNetwork,
    EdgeListFormatError,
    all_rank_series,
    build_network,
    from_edge_list,
    global_summary,
    read_edge_list,
    to_edge_list,
    undirected_projection,
    weak_components,
    write_edge_list,
)
from coocnet import cli, metrics, network
from coocnet.network import _adjacency

import oracles

# words whose order turns on case, accents, joiners and prefixes
_CLOSE_WORDS = ["a", "A", "a-", "a-b", "a'b", "ab", "b", "B", "e", "E", "é", "É"]
_CLOSE_WORDS += ["é-a", "ée", "z", "Z"]

_TOKEN = st.sampled_from(["a", "b", "c", "d", "e", "été", "don't", "x-y"])
_SENTENCE = st.one_of(
    st.just([]),
    st.lists(_TOKEN, min_size=1, max_size=1),
    st.lists(_TOKEN, max_size=10),
)


@given(st.lists(_SENTENCE, max_size=12))
@settings(max_examples=300, deadline=None)
def test_build_equals_validating_constructor(sentences):
    net = build_network(sentences)
    want = oracles.build_network(sentences)
    assert net.words == want.words
    assert net.n_edges == want.n_edges
    for node in range(net.n_nodes):
        assert net.out_weights(node) == want.out_weights(node)
        assert net.in_weights(node) == want.in_weights(node)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_edge_accessors_equal_the_weights_dict(seed):
    words, weights = oracles.random_weights(np.random.default_rng(seed))
    net = CooccurrenceNetwork(words, weights)
    nodes = range(net.n_nodes)
    outgoing = [{} for _ in nodes]
    incoming = [{} for _ in nodes]
    for (src, dst), weight in weights.items():
        outgoing[src][dst] = weight
        incoming[dst][src] = weight

    def check():
        assert net.n_edges == len(weights)
        assert set(net.edge_items()) == set(weights.items())
        assert [net.out_weights(node) for node in nodes] == outgoing
        assert [net.in_weights(node) for node in nodes] == incoming

    check()
    for node in nodes:  # the caller owns every mapping it was given
        for given_map in (net.out_weights(node), net.in_weights(node)):
            given_map.clear()
            given_map[node] = 1
    check()


@given(
    st.sampled_from(["constructor", "build", "records", "file"]),
    st.lists(_SENTENCE, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_in_edges_are_derived_on_demand(tmp_path_factory, route, sentences):
    want = oracles.build_network(sentences)  # the validating constructor
    records = oracles.edge_list(want)
    if route == "constructor":
        net = want
    elif route == "build":
        net = build_network(sentences)
    elif route == "records":
        net = from_edge_list(records[::-1])  # ids in another order
    else:
        path = tmp_path_factory.mktemp("edges") / "net.edges.tsv"
        path.write_text(
            "".join(f"{s}\t{d}\t{w}\n" for s, d, w in records), encoding="utf-8"
        )
        net = read_edge_list(path)
    incoming = oracles.in_edges(net)

    table = metrics._node_table(net)
    assert net._in_cache is None  # the table tallies the in-side itself
    assert table.in_degree == list(map(len, incoming))
    assert table.in_strength == [sum(weights.values()) for weights in incoming]
    assert table.in_selectivity == [
        Fraction(sum(weights.values()), len(weights)) if weights else None
        for weights in incoming
    ]
    assert [net.in_weights(node) for node in range(net.n_nodes)] == incoming


_RECORD_WORD = st.sampled_from(["a", "b", "c", "d", "e", "é", "x-y"])
_RECORD = st.tuples(_RECORD_WORD, _RECORD_WORD, st.sampled_from([1, 2, 3, 10**30]))
# a tab in a word splits a file's line, a bool weight is written "True"
_BAD_RECORD = st.tuples(
    _RECORD_WORD | st.sampled_from(["", "b c", "b\r", "\x85", "a\tb"]),
    _RECORD_WORD | st.sampled_from(["", " ", "c\td"]),
    st.sampled_from([1, 0, -1, True, False]),
)


@st.composite
def _records(draw):
    """Records with repeated pairs and self-loops, at times one bad record more."""
    records = draw(st.lists(_RECORD, max_size=12))
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(_BAD_RECORD))
    return records


def _outcome(read):
    """The network ``read()`` returns, or the message of its EdgeListFormatError."""
    try:
        return read()
    except EdgeListFormatError as exc:
        return str(exc)


@given(st.sampled_from(["list", "generator", "file"]), _records())
@settings(max_examples=400, deadline=None)
def test_readers_equal_the_tuple_keyed_reader(tmp_path_factory, route, records):
    if route == "file":
        path = tmp_path_factory.mktemp("edges") / "net.edges.tsv"
        text = "".join(f"{src}\t{dst}\t{weight}\n" for src, dst, weight in records)
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda: read_edge_list(path))
        lines = oracles.parse_edge_lines(path, text)
        want = _outcome(lambda: oracles.read_records(lines, "line", f"{path}: "))
    else:
        given_records = records if route == "list" else iter(records)
        got = _outcome(lambda: from_edge_list(given_records))
        want = _outcome(lambda: oracles.read_records(records, "record"))
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, CooccurrenceNetwork)
        assert got.words == want.words
        assert list(got.edge_items()) == list(want.edge_items())
        assert got == want


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "{formal}", "{informal}", "--svg"],
        ["build", "{formal}", "{informal}"],
        ["analyze", "{informal}", "--sample", "4"],
        ["rank", "{informal}"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_never_derive_in_edges(
    argv, monkeypatch, tmp_path, capsys, formal_text_path, informal_text_path
):
    nets = []

    def build_and_keep(sentences):
        nets.append(build_network(sentences))
        return nets[-1]

    monkeypatch.setattr(cli, "build_network", build_and_keep)
    paths = {"formal": formal_text_path, "informal": informal_text_path}
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert nets
    assert [net._in_cache for net in nets] == [None] * len(nets)


def _retained(function, *args):
    """What ``function(*args)`` returns, and the traced bytes held after and
    at the peak of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_built_network_keeps_its_out_edges_only(zipf_sentences, tmp_path):
    net, retained, _ = _retained(build_network, zipf_sentences)
    assert net.n_edges > 20_000
    # the edge lists, the offsets, the word table and one int per node take
    # ~36 bytes per edge here; one out-edge dict per node would take ~100,
    # and in-edge maps derived at once ~90 more
    assert retained < 60 * net.n_edges
    # the reader ends in the same trusted constructor; read back, the
    # network also holds its own word strings, ~56 bytes per edge in all
    path = tmp_path / "net.edges.tsv"
    write_edge_list(net, path)
    read, retained, peak = _retained(read_edge_list, path)
    assert read.n_edges == net.n_edges
    assert retained < 60 * read.n_edges
    # the reader fills the out-maps directly and peaks at ~194 bytes per
    # edge here; two dicts keyed by (src, dst) tuples first peaked at ~366
    assert peak < 250 * read.n_edges


@pytest.mark.parametrize("token", ["", "b c", "b\r"])
def test_build_rejects_a_word_the_constructor_rejects(token):
    with pytest.raises(ValueError, match="node 1: invalid word"):
        build_network([["a", token, "a"]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_projection_is_fresh_and_adjacency_holds_its_neighbors(seed):
    net = oracles.random_network(np.random.default_rng(seed), max_nodes=30)
    want = oracles.projection(net)

    given_out = undirected_projection(net)
    assert given_out == want
    for neighbors in given_out:  # the caller owns what it was given
        neighbors.clear()
    given_out.append({0})
    assert undirected_projection(net) == want

    adjacency = _adjacency(net)
    assert all(type(neighbors) is tuple for neighbors in adjacency)
    assert [len(set(neighbors)) for neighbors in adjacency] == list(
        map(len, adjacency)
    )
    assert list(map(set, adjacency)) == want
    assert _adjacency(net) is adjacency  # cached

    # the measures read the adjacency, not the sets mutated above
    assert weak_components(net).count == len(oracles.components(net))
    want_l, want_d, _ = oracles.path_stats(net)
    summary = global_summary(net)
    assert summary.avg_shortest_path == want_l
    assert summary.diameter == want_d
    assert summary.avg_clustering == Fraction(
        sum(oracles.local_clustering(net, node) for node in range(net.n_nodes)),
        net.n_nodes,
    )


def _synthetic_network(n_nodes: int = 2_000, out_degree: int = 10):
    """n_nodes * out_degree edges over words in shuffled order."""
    rng = random.Random(7)
    words = [f"wörd{i}" for i in range(n_nodes)]
    rng.shuffle(words)
    weights = {}
    for src in range(n_nodes):
        targets = rng.sample(range(n_nodes), out_degree + 1)
        for dst in [dst for dst in targets if dst != src][:out_degree]:
            weights[(src, dst)] = rng.randint(1, 500)
    return CooccurrenceNetwork(words, weights)


def test_write_edge_list_streams_its_lines(tmp_path):
    net = _synthetic_network()
    assert net.n_edges == 20_000
    path = tmp_path / "net.edges.tsv"
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_edge_list(net, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    # a list of every edge and line, then their join and its encoding,
    # peaks at ~8x here
    assert peak < 4 * written
    expected = "".join(f"{s}\t{d}\t{w}\n" for s, d, w in to_edge_list(net))
    assert path.read_bytes() == expected.encode("utf-8")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_edge_list_is_in_word_order(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, max_nodes=len(_CLOSE_WORDS), words=_CLOSE_WORDS)
    want = oracles.edge_list(net)
    assert to_edge_list(net) == want
    path = tmp_path_factory.mktemp("edges") / "net.edges.tsv"
    write_edge_list(net, path)
    lines = "".join(f"{src}\t{dst}\t{weight}\n" for src, dst, weight in want)
    assert path.read_bytes() == lines.encode("utf-8")


@pytest.mark.parametrize("first", ["rank series", "edge list"])
def test_word_order_is_filled_once_from_the_id_table(tmp_path, first):
    net = _synthetic_network(n_nodes=600, out_degree=2)
    path = tmp_path / "net.edges.tsv"
    readers = [lambda: all_rank_series(net), lambda: write_edge_list(net, path)]
    if first == "edge list":
        readers.reverse()
    readers[0]()
    order = net._word_order_cache
    assert order is not None
    readers[1]()
    assert net._word_order_cache is order  # read, not filled again
    assert [net.words[node] for node in order] == sorted(net.words)
    # the id table's ints, not equal copies: ids past 256 are not shared
    table_ints = {id(node) for node in net._ids.values()}
    assert all(id(node) in table_ints for node in order)


def test_sampled_distances_walk_the_adjacency_in_place(monkeypatch):
    net = _synthetic_network(n_nodes=6_000, out_degree=3)
    labeling = weak_components(net)  # fills the cached adjacency as well
    assert labeling.sizes[labeling.largest] > 5_000
    monkeypatch.setattr(metrics, "weak_components", lambda net: labeling)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        metrics._distance_stats(net, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # ~90 bytes per node here; a copy of the component's adjacency adds ~190
    assert peak < 160 * net.n_nodes


@pytest.mark.parametrize("out_degree", [10, 2])
def test_exact_sweep_holds_two_bitsets(monkeypatch, out_degree):
    net = _synthetic_network(out_degree=out_degree)
    labeling = weak_components(net)  # fills the cached adjacency as well
    n_prime = labeling.sizes[labeling.largest]
    width = min(metrics._block_width(n_prime), n_prime)
    assert width == n_prime > 1_900  # every source in one sweep
    monkeypatch.setattr(metrics, "weak_components", lambda net: labeling)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        metrics._distance_stats(net, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # two bitsets of B bits per node peak at ~2.8 N' * B / 8 bytes here
    # with Python's per-int overhead; a third one takes it past 4
    assert peak < 3.3 * n_prime * width / 8


def test_unencodable_word_leaves_no_file(tmp_path):
    # the API accepts a lone surrogate, which UTF-8 cannot encode
    net = CooccurrenceNetwork(("a", "b", "\ud800"), {(0, 1): 1, (1, 2): 1})
    path = tmp_path / "net.edges.tsv"
    with pytest.raises(UnicodeEncodeError):
        write_edge_list(net, path)
    assert not path.exists()


def test_weight_past_the_digit_limit_leaves_no_file(tmp_path):
    # the reader refuses a weight longer than int's digit limit, and the
    # writer fails on it too, after the lines of the sources before it
    net = CooccurrenceNetwork(("a", "b", "c"), {(0, 1): 1, (1, 2): 10**5000})
    path = tmp_path / "net.edges.tsv"
    with pytest.raises(ValueError, match="digits"):
        write_edge_list(net, path)
    assert not path.exists()


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "old"])
def test_an_interrupt_between_batches_leaves_the_old_bytes_or_no_file(
    tmp_path, monkeypatch, old
):
    # 3,000 one-edge sources go out in three batches of lines; Ctrl-C comes
    # after two of them, past the file buffer, so their bytes are on disk
    words = [f"w{i:04}" for i in range(3001)]
    net = from_edge_list([(a, b, 1) for a, b in zip(words, words[1:])])
    path = tmp_path / "net.edges.tsv"
    if old is not None:
        path.write_bytes(old)
    sorted_edges = network._sorted_edges

    def interrupted(net):
        yield from islice(sorted_edges(net), 2_500)
        raise KeyboardInterrupt

    monkeypatch.setattr(network, "_sorted_edges", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_edge_list(net, path)
    assert (path.read_bytes() if path.exists() else None) == old
    assert list(tmp_path.glob("*.coocnet-new")) == []

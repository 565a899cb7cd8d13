"""The trusted build path, the cached adjacency and the streamed writer.

`build_network` fills the network's neighbor maps itself instead of going
through the validating constructor; `undirected_projection` builds fresh
sets on each call, while components, the per-node table and the distance
sweeps read one cached adjacency of int tuples, the sweeps in place;
`to_edge_list` and `write_edge_list` share one edge order, and the writer
writes each source's lines into the open file instead of joining every
line first.  Each is checked against an oracle, and the writer and the
sampled sweeps against a memory bound.
"""

import gc
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocnet import (
    CooccurrenceNetwork,
    average_clustering,
    average_shortest_path,
    build_network,
    diameter,
    to_edge_list,
    undirected_projection,
    weak_components,
    write_edge_list,
)
from coocnet import metrics
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
    assert average_shortest_path(net) == want_l
    assert diameter(net) == want_d
    assert average_clustering(net) == Fraction(
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


def test_unencodable_word_leaves_no_file(tmp_path):
    # the API accepts a lone surrogate, which UTF-8 cannot encode
    net = CooccurrenceNetwork(("a", "b", "\ud800"), {(0, 1): 1, (1, 2): 1})
    path = tmp_path / "net.edges.tsv"
    with pytest.raises(UnicodeEncodeError):
        write_edge_list(net, path)
    assert not path.exists()

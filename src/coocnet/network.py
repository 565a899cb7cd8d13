"""Directed weighted word co-occurrence networks.

Nodes are word types (dense integer ids in first-appearance order), and a
directed edge ``i -> j`` with weight ``w`` records that word ``i`` was
immediately followed by word ``j`` inside a sentence ``w`` times.  The
graph is simple: consecutive duplicate tokens never create self-loops, and
sentence boundaries never create edges.

A network stores its out-edges and nothing else of its edges, in three
flat sequences in compressed sparse row order: the lists ``targets`` and
``weights`` hold one entry per edge, grouped by source id, and the array
``offsets`` holds N + 1 positions, so the out-edges of ``i`` are the
entries from ``offsets[i]`` up to ``offsets[i + 1]``.  The targets are
the int objects of the id table, and the offsets 8-byte machine ints; on
a 40,000-token text the network retains ~36 bytes per edge, its words
not counted (one dict of out-edges per node took ~100).  `out_weights`
and `in_weights` return a new dict on each call, which the caller owns.
A network is treated as immutable and caches six derived views on the
instance, each filled on first use and safe for concurrent readers: the
in-neighbor maps, a transpose of the out-edges that only `in_weights`
reads (`_in_edges`); the undirected projection as one tuple of neighbor
ids per node (`_adjacency`); the node ids sorted by word, as the id
table's own ints, which the edge-list writer and the rank series read
(`_word_order`); two per-node caches of `metrics`, the degree-family
columns from the edge lists alone and twice the links among each node's
neighbors from the projection; and the hop-distance aggregates of
`metrics` per sample size, with a sampled entry's per-source sums only
once `all_node_metrics` has asked for them.
The measures and writers read the edge lists alone, so the in-neighbor
maps are never filled unless a caller asks for them.
`undirected_projection` returns the projection as fresh sets on each
call and caches nothing; the tuples are filled from one such call, and
hold the int objects of the network's own lists rather than fresh ones.
`weak_components` floods the tuples breadth-first; the distances of
`metrics` sweep the largest component's members over the same tuples
from blocks of B sources at once, with 2 * N' * B / 8 bytes of bitsets,
B set by a byte budget.

The constructor and every edge-record reader keep one set of rules: a word
is non-empty and holds no whitespace, there is no self-loop, a weight is
an ``int >= 1`` (never a ``bool``), and a (src, dst) pair appears once.
`from_edge_list` errors cite the record number, `read_edge_list` errors
the file and line.  `read_edge_list` reads the file through
`pipeline.load_document`, the one reader of input files, and raises its
UTF-8 error as an EdgeListFormatError of the same text.  `build_network`
and the readers check each word and edge as they meet it and put it
straight into its source's out-neighbor map; a target already there is a
duplicate, and only then do the readers scan their records again, up to
the pair's first record.  A trusted constructor takes the maps
unchecked; every constructor copies them into the edge lists and drops
each map once copied.

On-disk edge-list format: UTF-8 TSV, one ``src<TAB>dst<TAB>weight`` record
per line, LF endings, sorted lexicographically by (src, dst).  Weights are
ASCII digits without sign or leading zero, no more of them than the
interpreter's int digit limit (4,300 by default).  The reader rejects
other spellings; the writer raises ValueError on a longer weight, as on a
word UTF-8 cannot hold.  Like every writer of the package, it leaves no
partial file on any exception (`_new_text_file`).  The reader accepts
records in any order and the writer sorts them, so rewriting an unsorted
file changes its bytes.  The writer is byte-deterministic so output files
can be hash-compared.  The format has no node section, so words without
any edge (from one-word sentences) do not survive a write/read round trip.
"""

from __future__ import annotations

import os
import re
from array import array
from contextlib import contextmanager, suppress
from itertools import chain, islice, pairwise, repeat
from operator import itemgetter, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .pipeline import IngestionError, load_document


class EdgeListFormatError(ValueError):
    """An edge-list record or file violates the format contract."""


# the weights write_edge_list writes: ASCII decimal, no sign, no leading zero
_WEIGHT = re.compile("[1-9][0-9]*")


class EdgeRecord(NamedTuple):
    src: str
    dst: str
    weight: int


def _word_problem(word: str) -> str | None:
    """Why ``word`` cannot name a node (empty, or holds whitespace), or None."""
    if word.split() != [word]:  # str.split() cuts at str.isspace() characters
        return f"invalid word {word!r}"
    return None


def _edge_problem(src: str, dst: str, weight: object) -> str | None:
    """Why an edge cannot exist (self-loop, weight not an int >= 1), or None."""
    if src == dst:
        return f"self-loop on {src!r}"
    if type(weight) is not int or weight < 1:  # a bool would be written "True"
        return f"weight must be a positive integer, got {weight!r}"
    return None


class CooccurrenceNetwork:
    """Immutable directed weighted graph over a word <-> node-id table."""

    def __init__(
        self,
        words: Sequence[str],
        edge_weights: Mapping[tuple[int, int], int],
    ):
        words = tuple(words)
        ids: dict[str, int] = {}
        for i, word in enumerate(words):
            problem = _word_problem(word)
            if problem:
                raise ValueError(f"node {i}: {problem}")
            if word in ids:
                raise ValueError(f"duplicate word in node table: {word!r}")
            ids[word] = i

        n = len(words)
        out_adj: list[dict[int, int]] = [dict() for _ in range(n)]
        for (src, dst), weight in edge_weights.items():
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) endpoint out of range")
            problem = _edge_problem(words[src], words[dst], weight)
            if problem:
                raise ValueError(f"edge ({src}, {dst}): {problem}")
            out_adj[src][dst] = weight
        self._adopt(ids, out_adj)

    @classmethod
    def _trusted(
        cls, ids: dict[str, int], out_adj: list[dict[int, int]]
    ) -> CooccurrenceNetwork:
        """A network over parts its caller has already checked, unchecked.

        ``ids`` maps each word to its id in insertion order 0..N-1, and
        ``out_adj[src]`` maps each out-neighbor of ``src`` to the edge's
        weight.  The network takes ownership of both and empties
        ``out_adj``.
        """
        net = cls.__new__(cls)
        net._adopt(ids, out_adj)
        return net

    def _adopt(self, ids: dict[str, int], out_adj: list[dict[int, int]]) -> None:
        """Take the checked parts; every derived view starts unfilled.

        The out-neighbor maps are copied into ``targets``, ``weights`` and
        ``offsets``, and each map is dropped as soon as it is copied, so
        the maps and the lists are never held in full at once.
        """
        targets: list[int] = []
        weights: list[int] = []
        offsets = array("q", [0])  # 8 bytes per node; a list of ints takes 36
        for node, out in enumerate(out_adj):
            targets += out
            weights += out.values()
            offsets.append(len(targets))
            out_adj[node] = None
        self._words = tuple(ids)
        self._ids = ids
        self._offsets = offsets
        self._targets = targets
        self._weights = weights
        # lazily filled caches, see _in_edges / _adjacency / _word_order / metrics
        self._in_cache: list[dict[int, int]] | None = None
        self._adjacency_cache: list[tuple[int, ...]] | None = None
        self._word_order_cache: list[int] | None = None
        self._side_cache = None  # metrics._side_table
        self._node_cache = None  # metrics._twice_links
        self._distance_cache: dict = {}  # metrics._distances

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._words)

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return len(self._targets)

    @property
    def words(self) -> tuple[str, ...]:
        """Node words indexed by node id."""
        return self._words

    def node_id(self, word: str) -> int:
        return self._ids[word]

    def out_weights(self, node: int) -> dict[int, int]:
        """dst id -> weight for the node's outgoing edges, as a new dict."""
        self._check_node(node)
        start, end = self._offsets[node], self._offsets[node + 1]
        return dict(zip(self._targets[start:end], self._weights[start:end]))

    def in_weights(self, node: int) -> dict[int, int]:
        """src id -> weight for the node's incoming edges, as a new dict.

        The first call derives every node's in-edges from the out-edges.
        """
        self._check_node(node)
        return dict(_in_edges(self)[node])

    def edge_items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Iterate ((src, dst), weight) over all directed edges."""
        return zip(zip(_edge_sources(self), self._targets), self._weights)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._words):
            raise IndexError(f"node id {node} out of range")

    def __eq__(self, other: object) -> bool:
        """Equality up to node-id relabeling: same words, same weighted edges."""
        if not isinstance(other, CooccurrenceNetwork):
            return NotImplemented
        if set(self._words) != set(other._words):
            return False
        return to_edge_list(self) == to_edge_list(other)

    def __repr__(self) -> str:
        return (
            f"CooccurrenceNetwork(n_nodes={self.n_nodes}, n_edges={self.n_edges})"
        )


class ComponentLabeling(NamedTuple):
    """Weak-component labels per node, component sizes, and the largest id."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]
    largest: int | None  # None only for the empty network; ties -> smallest id

    @property
    def count(self) -> int:  # the component count; shadows `tuple.count`
        return len(self.sizes)


def build_network(sentences: Iterable[Sequence[str]]) -> CooccurrenceNetwork:
    """Build the network from tokenized sentences.

    Every ordered pair of adjacent tokens inside one sentence increments the
    weight of the corresponding directed edge; pairs of identical tokens are
    skipped (no self-loops).  Edges never cross sentence boundaries.  Every
    observed token becomes a node, even from one-word sentences.
    """
    ids: dict[str, int] = {}
    out_adj: list[dict[int, int]] = []
    for sentence in sentences:
        prev: int | None = None
        for token in sentence:
            node = ids.get(token)
            if node is None:
                node = len(ids)
                problem = _word_problem(token)
                if problem:
                    raise ValueError(f"node {node}: {problem}")
                ids[token] = node
                out_adj.append({})
            if prev is not None and prev != node:
                out = out_adj[prev]
                out[node] = out.get(node, 0) + 1
            prev = node
    # each word was checked once, and an edge joins two distinct nodes with
    # a count >= 1, so the parts need no second check
    return CooccurrenceNetwork._trusted(ids, out_adj)


def _sorted_edges(net: CooccurrenceNetwork) -> Iterator[tuple[int, list[int]]]:
    """Each source id with out-edges, and its edges' positions, in word order.

    Each edge takes the rank of its target in the cached word order; each
    source's edge positions are then sorted by that rank, which orders the
    edges by (src, dst) word.  A source with one edge needs no sort.
    """
    order = _word_order(net)
    rank = [0] * net.n_nodes
    for place, node in enumerate(order):
        rank[node] = place
    edge_rank = list(map(rank.__getitem__, net._targets))
    offsets = net._offsets
    for src in order:
        start, end = offsets[src], offsets[src + 1]
        if end - start == 1:
            yield src, [start]
        elif start != end:
            yield src, sorted(range(start, end), key=edge_rank.__getitem__)


def to_edge_list(net: CooccurrenceNetwork) -> list[EdgeRecord]:
    """All edges as word-keyed records, sorted lexicographically by (src, dst)."""
    words, targets, weights = net.words, net._targets, net._weights
    return [
        EdgeRecord(words[src], words[targets[edge]], weights[edge])
        for src, edges in _sorted_edges(net)
        for edge in edges
    ]


def from_edge_list(records: Iterable[tuple[str, str, int]]) -> CooccurrenceNetwork:
    """Build a network from (src, dst, weight) records.

    Node ids are assigned in first-appearance order (src before dst within a
    record).  A record that breaks a rule raises EdgeListFormatError citing
    its 1-based number.
    """
    records = list(records)  # scanned again to find a duplicate's first record
    return _network_from_records(lambda: records, "record")


def _network_from_records(
    records: Callable[[], Iterable[tuple[str, str, int]]], unit: str, prefix: str = ""
) -> CooccurrenceNetwork:
    """Intern and validate the records that each ``records()`` call yields
    afresh; errors cite ``{prefix}{unit} {number}``."""
    ids: dict[str, int] = {}
    out_adj: list[dict[int, int]] = []
    for number, (src, dst, weight) in enumerate(records(), 1):
        problem = (
            _word_problem(src) or _word_problem(dst) or _edge_problem(src, dst, weight)
        )
        src_id, dst_id = ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids))
        while len(out_adj) < len(ids):
            out_adj.append({})
        if not problem and dst_id in out_adj[src_id]:
            pairs = map(itemgetter(0, 1), records())
            first = next(i for i, pair in enumerate(pairs, 1) if pair == (src, dst))
            problem = f"duplicate edge ({src!r}, {dst!r}), first seen on {unit} {first}"
        if problem:
            raise EdgeListFormatError(f"{prefix}{unit} {number}: {problem}")
        out_adj[src_id][dst_id] = weight
    return CooccurrenceNetwork._trusted(ids, out_adj)


# lines gathered before one write, by the edge-list and node CSV writers
_LINES_PER_WRITE = 1024


def write_edge_list(net: CooccurrenceNetwork, path: str | Path) -> None:
    """Write the TSV edge list (sorted, LF endings, bit-exact).

    Lines are collected across sources and written in batches of about
    `_LINES_PER_WRITE`, so no list of every edge or line is ever built, and
    a network of many one-edge sources costs few writes.
    """
    words, targets, weights = net.words, net._targets, net._weights
    lines: list[str] = []
    with _new_text_file(path) as file:
        for src, edges in _sorted_edges(net):
            head = words[src] + "\t"
            lines += [
                f"{head}{words[targets[edge]]}\t{weights[edge]}\n" for edge in edges
            ]
            if len(lines) >= _LINES_PER_WRITE:
                file.write("".join(lines))
                lines.clear()
        file.write("".join(lines))


def _staging_name(path: str | Path, kind: str) -> str:
    """The hidden name beside `path` for its new bytes or its old copy.

    `kind` is ``new`` or ``old``.  The name is ``.coocnet-``, the 64-bit
    FNV-1a hash of the final name's bytes as 16 hex digits, then ``.new``
    or ``.old``: 29 bytes however long the final name, so a name up to the
    system's limit can be staged, and the same on every run, so the next
    run overwrites a leftover of a killed one.  Not `hashlib`: it loads
    OpenSSL, which added 3.4–3.8 MiB to a process's peak resident set.
    """
    head, name = os.path.split(path)
    digest = 0xCBF29CE484222325
    for byte in os.fsencode(name):
        digest = (digest ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
    return os.path.join(head, f".coocnet-{digest:016x}.{kind}")


@contextmanager
def _new_text_file(path: str | Path) -> Iterator[TextIO]:
    """Write UTF-8 text for `path`, whole or not at all; no newline translation.

    The text goes to the staging name of `path` (`_staging_name`), which
    `os.replace` moves onto `path` once closed; on any exception, an
    interrupt included, it is removed, so `path` keeps its earlier bytes
    or stays absent.
    """
    new = _staging_name(path, "new")
    try:
        with open(new, "w", encoding="utf-8", newline="") as file:
            yield file
        os.replace(new, path)
    except BaseException:
        with suppress(OSError):  # not made, when `open` failed
            os.unlink(new)
        raise


def read_edge_list(path: str | Path) -> CooccurrenceNetwork:
    """Parse a TSV edge list; errors cite the file and the line number."""
    try:
        lines = load_document(path).split("\n")
    except IngestionError as exc:
        raise EdgeListFormatError(str(exc)) from exc
    if lines[-1] == "":
        lines.pop()  # trailing newline, not an empty record
    return _network_from_records(lambda: _parse_lines(path, lines), "line", f"{path}: ")


def _parse_lines(path: str | Path, lines: list[str]) -> Iterator[EdgeRecord]:
    """The records of the lines; raises on the syntax: field count, weight."""
    for lineno, line in enumerate(lines, 1):
        if line == "":
            raise EdgeListFormatError(f"{path}: line {lineno}: empty line")
        fields = line.split("\t")
        if len(fields) != 3:
            raise EdgeListFormatError(
                f"{path}: line {lineno}: expected 3 tab-separated fields, "
                f"got {len(fields)}"
            )
        src, dst, weight_text = fields
        try:
            if not _WEIGHT.fullmatch(weight_text):
                raise ValueError
            weight = int(weight_text)  # also raises past int's digit limit
        except ValueError:
            raise EdgeListFormatError(
                f"{path}: line {lineno}: weight {weight_text!r} is not a "
                f"positive decimal integer"
            ) from None
        yield EdgeRecord(src, dst, weight)


def undirected_projection(net: CooccurrenceNetwork) -> list[set[int]]:
    """Adjacency sets of the simple undirected projection.

    Node ``j`` is a neighbor of ``i`` iff at least one of the directed edges
    ``i -> j`` / ``j -> i`` exists; weights are discarded.  Built afresh on
    each call from the out-edges alone, so the caller owns the returned
    list and sets.
    """
    projection: list[set[int]] = [set() for _ in range(net.n_nodes)]
    for src, dst in zip(_edge_sources(net), net._targets):
        projection[src].add(dst)
        projection[dst].add(src)
    return projection


def _edgeless_count(net: CooccurrenceNetwork) -> int:
    """The number of nodes with no edge, which an edge-list file drops.

    Each edge target is marked in one byte per node; a node is edgeless
    when it is unmarked and its out-edge row is empty.
    """
    targeted = bytearray(net.n_nodes)
    for dst in net._targets:
        targeted[dst] = 1
    rows = zip(targeted, net._offsets, islice(net._offsets, 1, None))
    return sum(1 for marked, start, end in rows if not marked and start == end)


def _edge_sources(net: CooccurrenceNetwork) -> Iterator[int]:
    """The source id of each edge in storage order, as the id table's own ints."""
    degrees = map(sub, islice(net._offsets, 1, None), net._offsets)
    return chain.from_iterable(map(repeat, net._ids.values(), degrees))


def _side_totals(net: CooccurrenceNetwork) -> tuple[list[list[int]], list[list[int]]]:
    """The in- and out-degree lists, then the in- and out-strength lists.

    The in-side is tallied edge by edge from the edge lists, so no in-edge
    map is derived.
    """
    in_degree = [0] * net.n_nodes
    in_strength = [0] * net.n_nodes
    for dst, weight in zip(net._targets, net._weights):
        in_degree[dst] += 1
        in_strength[dst] += weight
    rows = list(pairwise(net._offsets))
    out_degree = [end - start for start, end in rows]
    out_strength = [sum(net._weights[start:end]) for start, end in rows]
    return [in_degree, out_degree], [in_strength, out_strength]


def _in_edges(net: CooccurrenceNetwork) -> list[dict[int, int]]:
    """src id -> weight for each node's incoming edges; cached on the network.

    The transpose of the out-edges, filled on the first call.  Only
    `in_weights` reads it, so a network holds this second copy of its
    weights only once a caller asks for a node's in-edges.
    """
    if net._in_cache is None:
        in_adj: list[dict[int, int]] = [{} for _ in range(net.n_nodes)]
        for (src, dst), weight in net.edge_items():
            in_adj[dst][src] = weight
        net._in_cache = in_adj
    return net._in_cache


def _adjacency(net: CooccurrenceNetwork) -> list[tuple[int, ...]]:
    """The projection's neighbors of each node as a tuple; cached on the network.

    The one cached form of the projection, which components, the triangle
    counts and the distance sweeps read.  Tuples take under a fifth of the
    memory of the sets they are filled from.
    """
    if net._adjacency_cache is None:
        adjacency: list = undirected_projection(net)
        for node, neighbors in enumerate(adjacency):
            adjacency[node] = tuple(neighbors)  # frees each set as it goes
        net._adjacency_cache = adjacency
    return net._adjacency_cache


def _word_order(net: CooccurrenceNetwork) -> list[int]:
    """The node ids sorted by word; cached on the network.

    Holds the id table's own int objects, so the cache adds one pointer
    per node.  The edge-list writer and the rank series read it.
    """
    if net._word_order_cache is None:
        ids = net._ids
        net._word_order_cache = list(map(ids.__getitem__, sorted(ids)))
    return net._word_order_cache


def weak_components(net: CooccurrenceNetwork) -> ComponentLabeling:
    """Connected components of the undirected projection.

    Component ids follow the smallest node id in each component, so the
    labeling is deterministic; ties for the largest component resolve to
    the smallest component id.
    """
    adjacency = _adjacency(net)
    labels = [-1] * net.n_nodes
    sizes: list[int] = []
    for start in range(net.n_nodes):
        if labels[start] != -1:
            continue
        labels[start] = label = len(sizes)
        queue = [start]
        for node in queue:  # the queue grows while it is walked
            for nbr in adjacency[node]:
                if labels[nbr] == -1:
                    labels[nbr] = label
                    queue.append(nbr)
        sizes.append(len(queue))
    largest = max(range(len(sizes)), key=sizes.__getitem__, default=None)
    return ComponentLabeling(labels=tuple(labels), sizes=tuple(sizes), largest=largest)

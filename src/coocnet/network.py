"""Directed weighted word co-occurrence networks.

Nodes are word types (dense integer ids in first-appearance order), and a
directed edge ``i -> j`` with weight ``w`` records that word ``i`` was
immediately followed by word ``j`` inside a sentence ``w`` times.  The
graph is simple: consecutive duplicate tokens never create self-loops, and
sentence boundaries never create edges.

A network stores its out-neighbor maps and nothing else of its edges.
It is treated as immutable and caches four derived views on the
instance, each filled on first use and safe for concurrent readers: the
in-neighbor maps, a transpose of the out-neighbor maps that only
`in_weights` reads (`_in_edges`); the undirected projection as one tuple
of neighbor ids per node (`_adjacency`); the per-node table of `metrics`
(degree family and neighbor links); and the hop-distance aggregates of
`metrics` per sample size.  The measures and writers read the
out-neighbor maps alone, so the in-neighbor maps are never filled unless
a caller asks for them.  `undirected_projection` returns the projection
as fresh sets on each call and caches nothing; the tuples are filled from
one such call, and hold the int objects of the network's own maps rather
than fresh ones.  `weak_components` floods the tuples breadth-first; the
distances of `metrics` sweep the largest component's members over the
same tuples from blocks of B sources at once, with 3 * N' * B / 8 bytes
of bitsets, B set by a byte budget.

The constructor and every edge-record reader keep one set of rules: a word
is non-empty and holds no whitespace, there is no self-loop, a weight is
an ``int >= 1`` (never a ``bool``), and a (src, dst) pair appears once.
`from_edge_list` errors cite the record number, `read_edge_list` errors
the file and line.  `build_network` and the readers check each word and
edge as they meet it, then hand the finished out-neighbor maps to a
trusted constructor that does not check them again.

On-disk edge-list format: UTF-8 TSV, one ``src<TAB>dst<TAB>weight`` record
per line, LF endings, sorted lexicographically by (src, dst).  Weights
are ASCII digits without sign or leading zero; the reader rejects other
spellings.  The reader accepts records in any order and the writer sorts
them, so rewriting an unsorted file changes its bytes.  The writer is
byte-deterministic so output files can be hash-compared.  The format has
no node section, so words without any edge (from one-word sentences) do
not survive a write/read round trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


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
        """A network over parts its caller has already checked, without copies.

        ``ids`` maps each word to its id in insertion order 0..N-1, and
        ``out_adj[src]`` maps each out-neighbor of ``src`` to the edge's
        weight.  The network takes ownership of both.
        """
        net = cls.__new__(cls)
        net._adopt(ids, out_adj)
        return net

    def _adopt(self, ids: dict[str, int], out_adj: list[dict[int, int]]) -> None:
        """Take the checked parts; every derived view starts unfilled."""
        self._words = tuple(ids)
        self._ids = ids
        self._out = out_adj
        self._edge_count = sum(map(len, out_adj))
        # lazily filled caches, see _in_edges / _adjacency / metrics
        self._in_cache: list[dict[int, int]] | None = None
        self._adjacency_cache: list[tuple[int, ...]] | None = None
        self._node_cache = None  # metrics._node_table
        self._distance_cache: dict = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._words)

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return self._edge_count

    @property
    def words(self) -> tuple[str, ...]:
        """Node words indexed by node id."""
        return self._words

    def node_id(self, word: str) -> int:
        return self._ids[word]

    def out_weights(self, node: int) -> Mapping[int, int]:
        """dst id -> weight for the node's outgoing edges (do not mutate)."""
        self._check_node(node)
        return self._out[node]

    def in_weights(self, node: int) -> Mapping[int, int]:
        """src id -> weight for the node's incoming edges (do not mutate).

        The first call derives every node's in-edges from the out-edges.
        """
        self._check_node(node)
        return _in_edges(self)[node]

    def weight(self, src: int, dst: int) -> int:
        """Edge weight, or 0 when the edge does not exist."""
        self._check_node(src)
        self._check_node(dst)
        return self._out[src].get(dst, 0)

    def edge_items(self) -> Iterable[tuple[tuple[int, int], int]]:
        """Iterate ((src, dst), weight) over all directed edges."""
        for src, nbrs in enumerate(self._out):
            for dst, weight in nbrs.items():
                yield (src, dst), weight

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


@dataclass(frozen=True)
class ComponentLabeling:
    """Weak-component labels per node, component sizes, and the largest id."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]
    largest: int | None  # None only for the empty network; ties -> smallest id

    @property
    def count(self) -> int:
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
    """Each source id with out-edges, and its out-neighbor ids, in word order.

    The node ids are sorted by word once; each source's out-neighbors are
    then sorted by that rank, which orders the edges by (src, dst) word.
    """
    order = sorted(range(net.n_nodes), key=net.words.__getitem__)
    rank = [0] * net.n_nodes
    for place, node in enumerate(order):
        rank[node] = place
    for src in order:
        out = net._out[src]
        if out:
            yield src, sorted(out, key=rank.__getitem__)


def to_edge_list(net: CooccurrenceNetwork) -> list[EdgeRecord]:
    """All edges as word-keyed records, sorted lexicographically by (src, dst)."""
    words = net.words
    return [
        EdgeRecord(words[src], words[dst], net._out[src][dst])
        for src, dsts in _sorted_edges(net)
        for dst in dsts
    ]


def from_edge_list(
    records: Iterable[EdgeRecord | tuple[str, str, int]],
) -> CooccurrenceNetwork:
    """Build a network from (src, dst, weight) records.

    Node ids are assigned in first-appearance order (src before dst within a
    record).  A record that breaks a rule raises EdgeListFormatError citing
    its 1-based number.
    """
    return _network_from_records(records, "record")


def _network_from_records(
    records: Iterable[EdgeRecord | tuple[str, str, int]], unit: str, prefix: str = ""
) -> CooccurrenceNetwork:
    """Intern and validate records; errors cite ``{prefix}{unit} {number}``."""
    ids: dict[str, int] = {}
    weights: dict[tuple[int, int], int] = {}
    first_seen: dict[tuple[int, int], int] = {}
    for number, (src, dst, weight) in enumerate(records, 1):
        problem = (
            _word_problem(src) or _word_problem(dst) or _edge_problem(src, dst, weight)
        )
        key = (ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids)))
        if not problem and key in first_seen:
            problem = (
                f"duplicate edge ({src!r}, {dst!r}), "
                f"first seen on {unit} {first_seen[key]}"
            )
        if problem:
            raise EdgeListFormatError(f"{prefix}{unit} {number}: {problem}")
        first_seen[key] = number
        weights[key] = weight
    out_adj: list[dict[int, int]] = [{} for _ in ids]
    for (src, dst), weight in weights.items():
        out_adj[src][dst] = weight
    return CooccurrenceNetwork._trusted(ids, out_adj)


def write_edge_list(net: CooccurrenceNetwork, path: str | Path) -> None:
    """Write the TSV edge list (sorted, LF endings, bit-exact).

    Each source's lines go into the open file in turn, so no list of every
    edge or line is ever built.
    """
    words = net.words
    try:
        with open(path, "w", encoding="utf-8", newline="") as file:
            for src, dsts in _sorted_edges(net):
                out = net._out[src]
                head = words[src] + "\t"
                lines = [f"{head}{words[dst]}\t{out[dst]}\n" for dst in dsts]
                file.write("".join(lines))
    except UnicodeEncodeError:  # a word UTF-8 cannot hold, e.g. a lone surrogate
        Path(path).unlink()  # leave no partial file behind
        raise


def read_edge_list(path: str | Path) -> CooccurrenceNetwork:
    """Parse a TSV edge list; errors cite the file and the line number."""
    try:
        decoded = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeListFormatError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc
    lines = decoded.split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline, not an empty record
    return _network_from_records(_parse_lines(path, lines), "line", f"{path}: ")


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
    projection = [set(out) for out in net._out]
    for src, out in zip(net._ids.values(), net._out):
        for dst in out:
            projection[dst].add(src)
    return projection


def _in_edges(net: CooccurrenceNetwork) -> list[dict[int, int]]:
    """src id -> weight for each node's incoming edges; cached on the network.

    The transpose of the out-edges, filled on the first call.  Only
    `in_weights` reads it, so a network holds this second copy of its
    weights only once a caller asks for a node's in-edges.
    """
    if net._in_cache is None:
        in_adj: list[dict[int, int]] = [{} for _ in net._out]
        for src, out in zip(net._ids.values(), net._out):
            for dst, weight in out.items():
                in_adj[dst][src] = weight
        net._in_cache = in_adj
    return net._in_cache


def _adjacency(net: CooccurrenceNetwork) -> list[tuple[int, ...]]:
    """The projection's neighbors of each node as a tuple; cached on the network.

    The one cached form of the projection, which components, the per-node
    table and the distance sweeps read.  Tuples take under a fifth of the
    memory of the sets they are filled from.
    """
    if net._adjacency_cache is None:
        adjacency: list = undirected_projection(net)
        for node, neighbors in enumerate(adjacency):
            adjacency[node] = tuple(neighbors)  # frees each set as it goes
        net._adjacency_cache = adjacency
    return net._adjacency_cache


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

"""Global and per-node structure measures for co-occurrence networks.

Degree-family measures (degree, strength, selectivity) respect edge
direction.  Distance-family measures (node average distance, average
shortest path, diameter) and clustering ignore direction and weights: they
are computed with unweighted hops on the simple undirected projection, and
path measures are restricted to the largest weak component.  Every
per-node measure but distances is read from one table, `_node_table`,
built in a single pass over the nodes and cached on the network.  Its
triangle counts come from the forward algorithm (Schank & Wagner, WEA
2005; Latapy, TCS 407, 2008): each projection edge points from the
endpoint lower in (k, id) order, k the projection degree, to the higher
one, so every triangle is found once, not once per corner and direction.

All ratios are exact `fractions.Fraction` values; a measure that has no
defined value (selectivity of an isolated direction, path lengths of a
trivial component, density of a single node) is None rather than NaN.
`NodeMetrics` and `GlobalMetrics` are named tuples, in the column order
of the node and summary CSVs, so a per-node row holds no dict of its own.

Pairwise distances come from bit-parallel breadth-first sweeps over the
largest component: one sweep walks the component's members once per
depth for a whole block of B sources, each source one bit of a Python int
per node.  The bits of a node are the sources within the current depth
of it, its ball, grown from its neighbors' balls by the exact recurrence
of ANF (Palmer, Gibbons & Faloutsos, KDD 2002).  The balls of the last
depth and of this one take 2 * N' * B / 8 bytes, and B is the widest
block that keeps them within a 32 MiB budget (every source at once up to
N' ~ 11,585), so memory stays bounded for any number of sources.
For very large networks the distance-family functions accept
``sample=m`` to sweep from m deterministically chosen source nodes only:
the average shortest path becomes an estimate, the diameter a lower
bound, and node average distances are only available for sampled
sources.  Exact computation (``sample=None``) is the default everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .network import (
    ComponentLabeling,
    CooccurrenceNetwork,
    _adjacency,
    _side_totals,
    weak_components,
)

_SAMPLE_SEED = 1729


class NodeMetrics(NamedTuple):
    """Per-node measures; selectivities and avg_distance may be None."""

    word: str
    in_degree: int
    out_degree: int
    in_strength: int
    out_strength: int
    in_selectivity: Fraction | None
    out_selectivity: Fraction | None
    clustering: Fraction
    avg_distance: Fraction | None


class GlobalMetrics(NamedTuple):
    """Whole-network measures; path measures and density may be None."""

    n_nodes: int
    n_edges: int
    avg_degree: Fraction
    avg_shortest_path: Fraction | None
    diameter: int | None
    avg_clustering: Fraction
    density: Fraction | None
    n_components: int
    largest_component_size: int


class _NodeTable(NamedTuple):
    """Per-node columns, lists indexed by node id.

    The degree-family fields of `NodeMetrics` in field order, then the
    projection degree k and 2E, twice the number of projection links among
    the node's neighbors, that is twice the triangles through the node.
    """

    in_degree: list[int]
    out_degree: list[int]
    in_strength: list[int]
    out_strength: list[int]
    in_selectivity: list[Fraction | None]
    out_selectivity: list[Fraction | None]
    k: list[int]
    twice_links: list[int]


def _node_table(net: CooccurrenceNetwork) -> _NodeTable:
    """Every per-node measure but distances, in one pass; cached on the network.

    The in-side degrees and strengths are tallied edge by edge from the
    out-edges, so the table never fills the network's in-edge cache.
    Triangles are counted with the forward algorithm (Schank & Wagner,
    "Finding, counting and listing all triangles in large graphs", WEA
    2005; Latapy, "Main-memory triangle computations for very large
    (sparse (power-law)) graphs", TCS 407, 2008).  Each projection edge is
    oriented from the endpoint lower in (k, id) order to the higher one,
    and a triangle u < v < w is found once, as w in the intersection of
    the higher-neighbor sets of u and v; it adds 2 to each corner's
    ``twice_links``.
    """
    if net._node_cache is None:
        degrees, strengths = _side_totals(net)
        selectivities = [
            _shared_ratios(side_s, side_k) for side_s, side_k in zip(strengths, degrees)
        ]
        adjacency = _adjacency(net)
        k = list(map(len, adjacency))
        position = [0] * net.n_nodes  # place in (k, id) order; sorted is stable
        for place, node in enumerate(sorted(range(net.n_nodes), key=k.__getitem__)):
            position[node] = place
        higher = [
            {nbr for nbr in neighbors if position[nbr] > position[node]}
            for node, neighbors in enumerate(adjacency)
        ]
        twice_links = [0] * net.n_nodes
        for u, above_u in enumerate(higher):
            for v in above_u:
                common = above_u & higher[v]
                if common:
                    twice_links[u] += 2 * len(common)
                    twice_links[v] += 2 * len(common)
                    for w in common:
                        twice_links[w] += 2
        net._node_cache = _NodeTable(
            *degrees, *strengths, *selectivities, k=k, twice_links=twice_links
        )
    return net._node_cache


def _shared_ratios(numerators: list[int], denominators: list[int]) -> list:
    """numerator/denominator per node, None where the denominator is 0.

    One `Fraction` per distinct pair, shared by every node that has it.
    """
    pairs = list(zip(numerators, denominators))
    ratios = {pair: Fraction(*pair) if pair[1] else None for pair in set(pairs)}
    return list(map(ratios.__getitem__, pairs))


def _side(
    net: CooccurrenceNetwork, node: int, direction: str, kind: str
) -> int | Fraction | None:
    """The node's in- or out-side value of one degree-family measure."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    net._check_node(node)  # a list index would accept -1
    return getattr(_node_table(net), f"{direction}_{kind}")[node]


def degree(net: CooccurrenceNetwork, node: int, direction: str) -> int:
    """Number of distinct in- or out-neighbors."""
    return _side(net, node, direction, "degree")


def strength(net: CooccurrenceNetwork, node: int, direction: str) -> int:
    """Sum of edge weights on the node's in- or out-side."""
    return _side(net, node, direction, "strength")


def selectivity(
    net: CooccurrenceNetwork, node: int, direction: str
) -> Fraction | None:
    """Strength divided by degree on one side; None when the degree is 0.

    Weights count repeated co-occurrences, so selectivity is the average
    weight per distinct neighbor and is always >= 1 when defined.
    """
    return _side(net, node, direction, "selectivity")


def average_degree(net: CooccurrenceNetwork) -> Fraction:
    """2K/N: every directed edge contributes one in- and one out-stub."""
    if net.n_nodes == 0:
        raise ValueError("average degree of an empty network is undefined")
    return Fraction(2 * net.n_edges, net.n_nodes)


def density(net: CooccurrenceNetwork) -> Fraction | None:
    """Fraction of the N(N-1) possible directed edges present; None if N < 2."""
    if net.n_nodes < 2:
        return None
    return Fraction(net.n_edges, net.n_nodes * (net.n_nodes - 1))


def local_clustering(net: CooccurrenceNetwork, node: int) -> Fraction:
    """2E/(k(k-1)) on the undirected projection; 0 when k < 2.

    E counts undirected links among the node's k projection neighbors.
    """
    net._check_node(node)
    table = _node_table(net)
    k = table.k[node]
    return Fraction(table.twice_links[node], k * (k - 1)) if k > 1 else Fraction(0)


def average_clustering(net: CooccurrenceNetwork) -> Fraction:
    """Mean local clustering over all nodes, isolated ones included.

    The numerators are summed as integers per projection degree k, so the
    exact sum takes one `Fraction` per distinct degree, not one per node.
    """
    if net.n_nodes == 0:
        raise ValueError("average clustering of an empty network is undefined")
    table = _node_table(net)
    links_by_k: dict[int, int] = {}
    for k, twice_links in zip(table.k, table.twice_links):
        links_by_k[k] = links_by_k.get(k, 0) + twice_links
    return Fraction(
        sum(Fraction(links, k * (k - 1)) for k, links in links_by_k.items() if k > 1),
        net.n_nodes,
    )


# A sweep of B sources over a component of N' nodes holds two bitsets (the
# balls of the last depth and of this one) of B bits per node, so B is the
# widest block with 2 * N' * B / 8 <= _SWEEP_BYTES: every source at once up
# to N' ~ 11,585, and ~8,000 sources at N' = 16,789.
_SWEEP_BYTES = 32 << 20


def _block_width(n_prime: int) -> int:
    """Sources per sweep on a component of ``n_prime`` nodes, at least 1."""
    return max(1, 8 * _SWEEP_BYTES // (2 * max(n_prime, 1)))


def _sweep(
    adjacency: Sequence[Sequence[int]],
    members: Sequence[int],
    block: Sequence[int],
    sums: list[int],
    by_source: bool,
) -> tuple[int, int]:
    """One breadth-first search from every source of ``block`` at once.

    A multi-source BFS after Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal" (PVLDB 8(4), 2014), stepped by the exact
    neighbourhood-function recurrence of ANF (Palmer, Gibbons & Faloutsos,
    KDD 2002): ball_d(v) = ball_{d-1}(v) | OR of ball_{d-1}(u) over the
    neighbors u of v.  ``adjacency`` holds the neighbor ids of every node,
    ``members`` the ids of the connected component that holds the sources,
    and source ``block[i]`` owns bit i of each member's ball, the sources
    within distance d of it.  One level ORs each member's ball with its
    neighbors' balls of the last depth; the bits it gains are the sources
    at distance exactly d, so a level costs one pass over the component
    however many sources the block holds.  A member whose ball did not grow
    shares its int between the two lists, and one that every source has
    reached drops out of later passes.  The two bitsets take
    2 * N' * len(block) / 8 bytes, plus Python's per-int overhead.

    Adds each hop distance d(s, v) to ``sums[v]``, which over all sources
    of the component is v's own distance sum as distances are symmetric;
    with ``by_source`` it adds it to ``sums[s]`` instead, from per-source
    counts of the nodes reached at each depth.  Returns the largest
    distance and the number of (source, node) pairs reached, sources
    included.
    """
    full = (1 << len(block)) - 1
    ball = [0] * len(adjacency)
    for bit, source in enumerate(block):
        ball[source] = 1 << bit
    reached = len(block)
    depth = 0
    todo = members
    while True:
        depth += 1
        next_ball = ball.copy()
        # by_source: how many nodes each source reached at this depth, bit
        # sliced; source i's count is the sum of (bit i of planes[j]) << j
        planes: list[int] = []
        unfinished = []
        level = 0
        for node in todo:
            old = grown = ball[node]
            for nbr in adjacency[node]:
                grown |= ball[nbr]
            if grown != old:
                next_ball[node] = grown
                new = grown ^ old
                count = new.bit_count()
                level += count
                if by_source:
                    j = 0
                    while new:  # ripple-carry add of one bit per source
                        if j == len(planes):
                            planes.append(0)
                        planes[j], new = planes[j] ^ new, planes[j] & new
                        j += 1
                else:
                    sums[node] += depth * count
            if grown != full:
                unfinished.append(node)
        for j, plane in enumerate(planes):
            while plane:
                low = plane & -plane  # lowest set bit
                sums[block[low.bit_length() - 1]] += depth << j
                plane ^= low
        if not level:
            return depth - 1, reached
        reached += level
        ball = next_ball
        todo = unfinished


class _DistanceStats(NamedTuple):
    """Hop-distance aggregates over the sources of the largest component."""

    labeling: ComponentLabeling
    n_prime: int  # size of the largest component
    n_sources: int
    node_sum: dict[int, int]  # source id -> sum of its hop distances
    total: int
    max_dist: int


def _distance_stats(
    net: CooccurrenceNetwork, sample: int | None
) -> _DistanceStats:
    """All-pairs (or sampled) hop-distance aggregates on the largest component.

    The sweeps walk the cached adjacency in place, and the sources are swept
    in blocks of `_block_width`, so the sweeps' bitsets stay within
    ``_SWEEP_BYTES`` (32 MiB) plus Python's per-int overhead.  Cached on the
    network, keyed by the sample size.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    cached = net._distance_cache.get(sample)
    if cached is not None:
        return cached

    labeling = weak_components(net)
    comp_nodes = [
        node
        for node in range(net.n_nodes)
        if labeling.labels[node] == labeling.largest
    ]
    n_prime = len(comp_nodes)
    sources = comp_nodes
    if sample is not None and sample < n_prime:
        rng = random.Random(_SAMPLE_SEED)
        sources = sorted(rng.sample(comp_nodes, sample))

    # with every component node a source, v's sum over the sources is its own
    by_source = len(sources) < n_prime
    adjacency = _adjacency(net)
    sums = [0] * net.n_nodes
    max_dist = 0
    width = _block_width(n_prime)
    for start in range(0, len(sources), width):
        block = sources[start : start + width]
        block_max, reached = _sweep(adjacency, comp_nodes, block, sums, by_source)
        assert reached == n_prime * len(block), "sources must reach their component"
        max_dist = max(max_dist, block_max)
    node_sum = {source: sums[source] for source in sources}

    stats = _DistanceStats(
        labeling=labeling,
        n_prime=n_prime,
        n_sources=len(sources),
        node_sum=node_sum,
        total=sum(node_sum.values()),
        max_dist=max_dist,
    )
    net._distance_cache[sample] = stats
    return stats


def node_average_distance(
    net: CooccurrenceNetwork, node: int, sample: int | None = None
) -> Fraction | None:
    """Mean hop distance from the node to the largest weak component.

    The average runs over all component members including the node itself
    (a zero term), matching a per-node breakdown of the average shortest
    path.  None for nodes outside the largest component, and for unsampled
    sources when ``sample`` is set.
    """
    net._check_node(node)
    stats = _distance_stats(net, sample)
    dist_sum = stats.node_sum.get(node)  # sources all lie in the component
    if dist_sum is None:
        return None
    return Fraction(dist_sum, stats.n_prime)


def average_shortest_path(
    net: CooccurrenceNetwork, sample: int | None = None
) -> Fraction | None:
    """Mean hop distance over ordered node pairs of the largest component.

    None when the component has fewer than two nodes.  With sampling the
    outer sum runs over the sampled sources only.
    """
    stats = _distance_stats(net, sample)
    if stats.n_prime < 2:
        return None
    return Fraction(stats.total, stats.n_sources * (stats.n_prime - 1))


def diameter(net: CooccurrenceNetwork, sample: int | None = None) -> int | None:
    """Longest shortest path (in hops) within the largest weak component.

    None when the component has fewer than two nodes.  With sampling this
    is max eccentricity over the sampled sources, a lower bound.
    """
    stats = _distance_stats(net, sample)
    if stats.n_prime < 2:
        return None
    return stats.max_dist


def all_node_metrics(
    net: CooccurrenceNetwork, sample: int | None = None
) -> list[NodeMetrics]:
    """NodeMetrics for every node, indexed by node id."""
    table = _node_table(net)
    return [
        NodeMetrics(
            word,
            *degree_family,
            clustering=local_clustering(net, node),
            avg_distance=node_average_distance(net, node, sample),
        )
        for node, (word, *degree_family) in enumerate(zip(net.words, *table[:6]))
    ]


def global_summary(
    net: CooccurrenceNetwork, sample: int | None = None
) -> GlobalMetrics:
    """All whole-network measures in one pass; raises on an empty network."""
    if net.n_nodes == 0:
        raise ValueError("global summary of an empty network is undefined")
    stats = _distance_stats(net, sample)
    return GlobalMetrics(
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        avg_degree=average_degree(net),
        avg_shortest_path=average_shortest_path(net, sample),
        diameter=diameter(net, sample),
        avg_clustering=average_clustering(net),
        density=density(net),
        n_components=stats.labeling.count,
        largest_component_size=stats.n_prime,
    )

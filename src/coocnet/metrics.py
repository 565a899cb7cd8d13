"""Global and per-node structure measures for co-occurrence networks.

Whole-network measures are the fields of the `GlobalMetrics` of
`global_summary`, per-node measures the fields of the `NodeMetrics` rows
of `all_node_metrics`.  The degree family (degree, strength, selectivity)
respects edge direction.  Clustering, 2E/(k(k-1)) with 0 below k = 2, and
the distance family (a node's mean hop distance to the largest weak
component, itself included; average shortest path; diameter) ignore
direction and weights: they are computed on the simple undirected
projection, paths in unweighted hops within the largest weak component.
Each per-node view is cached on the network and built from the one input
it reads: the degree family from the edge lists alone (`_side_table`),
so a rank series never builds the projection, and clustering's triangle
counts from the projection (`_twice_links`), where the forward algorithm
(Schank & Wagner, WEA 2005; Latapy, TCS 407, 2008) finds each one once.

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
For very large networks `global_summary` and `all_node_metrics` accept
``sample=m`` to sweep from m deterministically chosen source nodes only:
the average shortest path becomes an estimate, the diameter a lower
bound, and a node's average distance is None unless it is a sampled
source.  Exact computation (``sample=None``) is the default everywhere.
Only `all_node_metrics` pays for the per-source distance tallies of a
sampled sweep; `global_summary` reads totals, which a sweep counts alone.
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
    """One row of `all_node_metrics` and of nodes.csv.

    Degrees count distinct in- or out-neighbors and strengths sum the edge
    weights on that side.  A selectivity is strength / degree, the average
    weight per distinct neighbor (>= 1), None when that degree is 0.
    ``clustering`` is 2E/(k(k-1)), E the links among the node's k
    projection neighbors, 0 when k < 2.  ``avg_distance`` is the mean hop
    distance to the largest weak component, the node included; None
    outside it and for unsampled sources.
    """

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
    """The whole-network measures of `global_summary` and summary.csv.

    Over N nodes and K directed edges, ``avg_degree`` is 2K/N, one in- and
    one out-stub per edge, and ``density`` is K/(N(N-1)), the share of the
    possible directed edges present, None when N < 2.  ``n_components``
    counts the weak components, and the largest has N' nodes
    (``largest_component_size``).  On it, ``avg_shortest_path`` is the mean
    hop distance over ordered pairs of distinct nodes and ``diameter`` the
    longest hop distance, both None when N' < 2.  With ``sample=m`` both
    run over the pairs from m sampled sources only, so the mean is an
    estimate and the diameter a lower bound.  ``avg_clustering`` is the
    mean local clustering over all N nodes, isolated ones included.
    """

    n_nodes: int
    n_edges: int
    avg_degree: Fraction
    avg_shortest_path: Fraction | None
    diameter: int | None
    avg_clustering: Fraction
    density: Fraction | None
    n_components: int
    largest_component_size: int


def _side_table(net: CooccurrenceNetwork) -> tuple[list, ...]:
    """The degree-family columns of `NodeMetrics`, in its field order; cached.

    Lists indexed by node id, from the edge lists alone: `_side_totals`
    tallies the in-side edge by edge, so neither the network's in-edge
    cache nor its projection is filled.
    """
    if net._side_cache is None:
        degrees, strengths = _side_totals(net)
        selectivities = [
            _shared_ratios(side_s, side_k) for side_s, side_k in zip(strengths, degrees)
        ]
        net._side_cache = (*degrees, *strengths, *selectivities)
    return net._side_cache


def _twice_links(net: CooccurrenceNetwork) -> list[int]:
    """2E per node, twice the projection links among its neighbors; cached.

    That is twice the triangles through the node, counted with the forward
    algorithm (Schank & Wagner, "Finding, counting and listing all
    triangles in large graphs", WEA 2005; Latapy, "Main-memory triangle
    computations for very large (sparse (power-law)) graphs", TCS 407,
    2008).  Each projection edge is oriented from the endpoint lower in
    (k, id) order to the higher one, k the projection degree, and a
    triangle u < v < w is found once, as w in the intersection of the
    higher-neighbor sets of u and v; it adds 2 to each corner.
    """
    if net._twice_links_cache is None:
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
        net._twice_links_cache = twice_links
    return net._twice_links_cache


def _shared_ratios(numerators: list[int], denominators: list[int]) -> list:
    """numerator/denominator per node, None where the denominator is 0.

    One `Fraction` per distinct pair, shared by every node that has it.
    """
    pairs = list(zip(numerators, denominators))
    ratios = {pair: Fraction(*pair) if pair[1] else None for pair in set(pairs)}
    return list(map(ratios.__getitem__, pairs))


def average_clustering(net: CooccurrenceNetwork) -> Fraction:
    """The clustering step of `global_summary`, on a network of N >= 1 nodes.

    The numerators are summed as integers per projection degree k, so the
    exact sum takes one `Fraction` per distinct degree, not one per node.
    It is a function of its own only because the traced benchmark
    (``perfbench/spans.py``) times it and ``tests/test_hook_points.py``
    pins that call; once the benchmark reads an in-package stage recorder
    (ROADMAP item 1b), item 1c folds it into `global_summary`.
    """
    links_by_k: dict[int, int] = {}
    for neighbors, twice_links in zip(_adjacency(net), _twice_links(net)):
        k = len(neighbors)
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
    # source id -> sum of its hop distances; None after a sampled sweep
    # without per-source tallies
    node_sum: dict[int, int] | None
    total: int
    max_dist: int


def _check_sample(sample: int | None) -> None:
    """Refuse a sample that is not an int, a bool included, or is below 1;
    None is the exact computation."""
    if sample is None:
        return
    if type(sample) is not int:
        raise ValueError(f"sample must be an int, got {sample!r}")
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")


def _distance_stats(net: CooccurrenceNetwork, sample: int | None) -> _DistanceStats:
    """`_distances` without per-source tallies: the totals of `global_summary`.

    A later `all_node_metrics` sweeps a sample again; the other order sweeps once.
    """
    return _distances(net, sample, per_source=False)


def _distances(
    net: CooccurrenceNetwork, sample: int | None, per_source: bool
) -> _DistanceStats:
    """All-pairs (or sampled) hop-distance aggregates on the largest component.

    The sweeps walk the cached adjacency in place, and the sources are swept
    in blocks of `_block_width`, so the sweeps' bitsets stay within
    ``_SWEEP_BYTES`` (32 MiB) plus Python's per-int overhead.  Cached on the
    network, keyed by the sample size.  A sampled sweep tallies per-source
    sums only with ``per_source``, which sweeps an entry without them again.
    """
    _check_sample(sample)
    cached = net._distance_cache.get(sample)
    if cached is not None and (cached.node_sum is not None or not per_source):
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
    sampled = len(sources) < n_prime
    by_source = per_source and sampled
    adjacency = _adjacency(net)
    sums = [0] * net.n_nodes
    max_dist = 0
    width = _block_width(n_prime)
    for start in range(0, len(sources), width):
        block = sources[start : start + width]
        block_max, reached = _sweep(adjacency, comp_nodes, block, sums, by_source)
        assert reached == n_prime * len(block), "sources must reach their component"
        max_dist = max(max_dist, block_max)
    node_sum = {s: sums[s] for s in sources} if per_source or not sampled else None

    stats = _DistanceStats(
        labeling=labeling,
        n_prime=n_prime,
        n_sources=len(sources),
        node_sum=node_sum,
        total=sum(sums),
        max_dist=max_dist,
    )
    net._distance_cache[sample] = stats
    return stats


def all_node_metrics(
    net: CooccurrenceNetwork, sample: int | None = None
) -> list[NodeMetrics]:
    """NodeMetrics for every node, indexed by node id, built by columns.

    One sampled sweep serves it and a later `global_summary`; an earlier one costs two.
    """
    side = _side_table(net)
    twice_links = _twice_links(net)
    stats = _distances(net, sample, per_source=True)
    # 2E is 0 wherever k < 2, so a denominator of 1 gives them Fraction(0)
    denominators = [k * (k - 1) or 1 for k in map(len, _adjacency(net))]
    clustering = _shared_ratios(twice_links, denominators)
    distance: list[Fraction | None] = [None] * net.n_nodes
    for source, dist_sum in stats.node_sum.items():
        distance[source] = Fraction(dist_sum, stats.n_prime)
    return list(map(NodeMetrics, net.words, *side, clustering, distance))


def global_summary(
    net: CooccurrenceNetwork, sample: int | None = None
) -> GlobalMetrics:
    """Every `GlobalMetrics` field from one `_distance_stats` call.

    Raises ValueError on an empty network, which has no measure defined.
    """
    n, k = net.n_nodes, net.n_edges
    if n == 0:
        raise ValueError("global summary of an empty network is undefined")
    stats = _distance_stats(net, sample)
    has_paths = stats.n_prime >= 2
    return GlobalMetrics(
        n_nodes=n,
        n_edges=k,
        avg_degree=Fraction(2 * k, n),
        avg_shortest_path=(
            Fraction(stats.total, stats.n_sources * (stats.n_prime - 1))
            if has_paths
            else None
        ),
        diameter=stats.max_dist if has_paths else None,
        avg_clustering=average_clustering(net),
        density=Fraction(k, n * (n - 1)) if n > 1 else None,
        n_components=stats.labeling.count,
        largest_component_size=stats.n_prime,
    )

"""Brute-force reference implementations for cross-checking the library.

Each oracle takes a deliberately different algorithmic route than the
package: hop distances come from dense matrix relaxation instead of
breadth-first search, components from union-find instead of flood fill,
degrees and strengths from one tally per edge instead of the neighbor
maps, clustering from exhaustive neighbor-pair enumeration instead of
forward triangle counting, and rank order from one keyed sort instead of
grouping by value.  Agreement between the two routes is what the
equivalence tests assert.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from coocnet import CooccurrenceNetwork


def undirected_edges(net: CooccurrenceNetwork) -> set[tuple[int, int]]:
    """Projection edges as (min, max) id pairs."""
    edges = set()
    for (src, dst), _ in net.edge_items():
        edges.add((min(src, dst), max(src, dst)))
    return edges


def distance_matrix(net: CooccurrenceNetwork) -> np.ndarray:
    """All-pairs hop distances on the projection, O(N^3) relaxation."""
    n = net.n_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in undirected_edges(net):
        dist[i, j] = 1.0
        dist[j, i] = 1.0
    for mid in range(n):
        np.minimum(dist, dist[:, mid : mid + 1] + dist[mid : mid + 1, :], out=dist)
    return dist


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def components(net: CooccurrenceNetwork) -> list[set[int]]:
    """Weak components as node-id sets, ordered by smallest member."""
    uf = UnionFind(net.n_nodes)
    for i, j in undirected_edges(net):
        uf.union(i, j)
    groups: dict[int, set[int]] = {}
    for node in range(net.n_nodes):
        groups.setdefault(uf.find(node), set()).add(node)
    return [groups[root] for root in sorted(groups)]


def largest_component(net: CooccurrenceNetwork) -> set[int]:
    """Largest component; size ties go to the earliest (smallest ids)."""
    best: set[int] = set()
    for comp in components(net):
        if len(comp) > len(best):
            best = comp
    return best


def _component_distances(net: CooccurrenceNetwork):
    """(members in id order, their hop-distance matrix) of the largest component."""
    comp = sorted(largest_component(net))
    return comp, distance_matrix(net)[np.ix_(comp, comp)]


def path_stats(net: CooccurrenceNetwork):
    """(L, D, node -> d_i) on the largest component via the matrix route."""
    comp, sub = _component_distances(net)
    n_prime = len(comp)
    node_avg = {
        node: Fraction(int(sub[row].sum()), n_prime)
        for row, node in enumerate(comp)
    }
    if n_prime < 2:
        return None, None, node_avg
    avg_path = Fraction(int(sub.sum()), n_prime * (n_prime - 1))
    return avg_path, int(sub.max()), node_avg


def eccentricities(net: CooccurrenceNetwork) -> dict[int, int]:
    """Node -> largest hop distance within the largest component."""
    comp, sub = _component_distances(net)
    return {node: int(sub[row].max()) for row, node in enumerate(comp)}


def degree_family(net: CooccurrenceNetwork) -> dict[str, list]:
    """Per-node degree-family columns, keyed by `NodeMetrics` field name.

    Degrees and strengths are tallied edge by edge; a selectivity is the
    strength over the degree, None when the degree is 0.
    """
    columns = {
        f"{side}_{kind}": [0] * net.n_nodes
        for kind in ("degree", "strength")
        for side in ("in", "out")
    }
    for (src, dst), weight in net.edge_items():
        columns["out_degree"][src] += 1
        columns["out_strength"][src] += weight
        columns["in_degree"][dst] += 1
        columns["in_strength"][dst] += weight
    for side in ("in", "out"):
        columns[f"{side}_selectivity"] = [
            Fraction(s, k) if k else None
            for s, k in zip(columns[f"{side}_strength"], columns[f"{side}_degree"])
        ]
    return columns


def local_clustering(net: CooccurrenceNetwork, node: int) -> Fraction:
    """2E/(k(k-1)) by enumerating every neighbor pair."""
    edges = undirected_edges(net)
    neighbors = sorted(
        {j for i, j in edges if i == node} | {i for i, j in edges if j == node}
    )
    k = len(neighbors)
    if k < 2:
        return Fraction(0)
    links = sum(
        1 for a, b in combinations(neighbors, 2) if (min(a, b), max(a, b)) in edges
    )
    return Fraction(2 * links, k * (k - 1))


def rank_order(pairs) -> list[tuple]:
    """(word, value) pairs without None values, by descending value, then word.

    One stable sort keyed on (-value, word), so pairs with equal value and
    word keep their input order.
    """
    kept = [(word, value) for word, value in pairs if value is not None]
    kept.sort(key=lambda item: (-item[1], item[0]))
    return kept


def random_network(
    rng: np.random.Generator, max_nodes: int = 50, max_weight: int = 9
) -> CooccurrenceNetwork:
    """Random simple directed weighted graph with w0..w(n-1) node words."""
    n = int(rng.integers(1, max_nodes + 1))
    words = [f"w{i}" for i in range(n)]
    p = float(rng.uniform(0.02, 0.35))
    weights = {}
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < p:
                weights[(src, dst)] = int(rng.integers(1, max_weight + 1))
    return CooccurrenceNetwork(words, weights)


def scaled_network(net: CooccurrenceNetwork, factor: int) -> CooccurrenceNetwork:
    """Same graph with every weight multiplied by a positive integer."""
    weights = {edge: weight * factor for edge, weight in net.edge_items()}
    return CooccurrenceNetwork(net.words, weights)

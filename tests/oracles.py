"""Brute-force reference implementations for cross-checking the library.

Each oracle takes a deliberately different algorithmic route than the
package: hop distances come from dense matrix relaxation instead of
breadth-first search, components from union-find instead of flood fill,
degrees and strengths from one tally per edge instead of the neighbor
maps, clustering from exhaustive neighbor-pair enumeration instead of
forward triangle counting, rank order from one keyed sort instead of
grouping by value, and the rank CSV, pair CSV and SVG bytes from one row
per entry instead of one step per run of equal values, and text cleaning
and tokenization from per-character state machines instead of regular
expressions over a string of character classes, the network from one
weights dict through the validating constructor instead of the trusted
one, the projection from one walk over the directed edges instead of
sets of each node's stored targets, the in-edges from one transpose of
the edge iterator instead of the network's lazily filled cache, the
edge list from one tuple sort over every edge instead of one word rank
per node, and the edge-list reader from two dicts keyed by (src, dst)
pairs instead of out-maps filled directly, over lines cut by `str`
methods instead of a regular expression.  Agreement between the two
routes is what the equivalence tests assert.
"""

import math
import re
import unicodedata
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from pathlib import Path

import numpy as np

from coocnet import CooccurrenceNetwork, EdgeListFormatError, EdgeRecord
from coocnet.pipeline import DEFAULT_CONFIG, PipelineConfig, segment_sentences
from coocnet.ranking import (
    _COLOR_A,
    _COLOR_B,
    _MARGIN_LEFT,
    _MARGIN_TOP,
    _PLOT_H,
    _PLOT_W,
    _SVG_HEIGHT,
    _SVG_WIDTH,
    _svg_escape,
    _write_csv,
    format_value,
)


def undirected_edges(net: CooccurrenceNetwork) -> set[tuple[int, int]]:
    """Projection edges as (min, max) id pairs."""
    edges = set()
    for (src, dst), _ in net.edge_items():
        edges.add((min(src, dst), max(src, dst)))
    return edges


def in_edges(net: CooccurrenceNetwork) -> list[dict[int, int]]:
    """src id -> weight per node: a transpose of `edge_items()`."""
    incoming: list[dict[int, int]] = [{} for _ in range(net.n_nodes)]
    for (src, dst), weight in net.edge_items():
        incoming[dst][src] = weight
    return incoming


def edge_list(net: CooccurrenceNetwork) -> list[EdgeRecord]:
    """``to_edge_list``: one tuple sort over every (src word, dst word, weight).

    The (src, dst) pairs are unique, so the sort never reaches a weight.
    """
    words = net.words
    edges = [
        (words[src], words[dst], weight) for (src, dst), weight in net.edge_items()
    ]
    edges.sort()
    return list(map(EdgeRecord._make, edges))


def projection(net: CooccurrenceNetwork) -> list[set[int]]:
    """Neighbor sets of the undirected projection, one walk over the edges."""
    neighbors: list[set[int]] = [set() for _ in range(net.n_nodes)]
    for (src, dst), _ in net.edge_items():
        neighbors[src].add(dst)
        neighbors[dst].add(src)
    return neighbors


def build_network(sentences) -> CooccurrenceNetwork:
    """One weights dict over adjacent token pairs, then the validating constructor."""
    ids: dict[str, int] = {}
    weights: dict[tuple[int, int], int] = {}
    for sentence in sentences:
        prev = None
        for token in sentence:
            node = ids.setdefault(token, len(ids))
            if prev is not None and prev != node:
                weights[(prev, node)] = weights.get((prev, node), 0) + 1
            prev = node
    return CooccurrenceNetwork(list(ids), weights)


def read_records(records, unit: str, prefix: str = "") -> CooccurrenceNetwork:
    """The edge-record reader: two dicts keyed by (src, dst) id pairs.

    One holds each pair's weight and the other the number of the record
    that first named it, so a duplicate is cited without a second scan;
    the validating constructor builds the network from the weights.
    Errors carry the library's messages, ``{prefix}{unit} {number}: ...``.
    """
    ids: dict[str, int] = {}
    weights: dict[tuple[int, int], int] = {}
    first_seen: dict[tuple[int, int], int] = {}
    for number, (src, dst, weight) in enumerate(records, 1):
        bad_words = [w for w in (src, dst) if not w or any(map(str.isspace, w))]
        key = (ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids)))
        if bad_words:
            problem = f"invalid word {bad_words[0]!r}"
        elif src == dst:
            problem = f"self-loop on {src!r}"
        elif isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
            problem = f"weight must be a positive integer, got {weight!r}"
        elif key in first_seen:
            problem = (
                f"duplicate edge ({src!r}, {dst!r}), "
                f"first seen on {unit} {first_seen[key]}"
            )
        else:
            first_seen[key] = number
            weights[key] = weight
            continue
        raise EdgeListFormatError(f"{prefix}{unit} {number}: {problem}")
    return CooccurrenceNetwork(list(ids), weights)


def parse_edge_lines(path, text: str):
    """The records of an edge-list text, or the reader's error on a bad line.

    Fields come from `str.split` and weights are checked with `str.isdigit`
    on ASCII, not by the reader's regular expression.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, 1):
        where = f"{path}: line {lineno}"
        fields = line.split("\t")
        if line == "":
            raise EdgeListFormatError(f"{where}: empty line")
        if len(fields) != 3:
            raise EdgeListFormatError(
                f"{where}: expected 3 tab-separated fields, got {len(fields)}"
            )
        src, dst, digits = fields
        if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise EdgeListFormatError(
                f"{where}: weight {digits!r} is not a positive decimal integer"
            )
        yield EdgeRecord(src, dst, int(digits))


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


def random_weights(
    rng: np.random.Generator,
    max_nodes: int = 50,
    max_weight: int = 9,
    words: list[str] | None = None,
) -> tuple[list[str], dict[tuple[int, int], int]]:
    """The words and the (src, dst) -> weight dict of a random simple digraph.

    The node words are w0..w(n-1), or, given ``words``, n of them in a
    random order.
    """
    if words is None:
        n = int(rng.integers(1, max_nodes + 1))
        words = [f"w{i}" for i in range(n)]
    else:
        n = int(rng.integers(1, min(max_nodes, len(words)) + 1))
        words = [words[i] for i in rng.permutation(len(words))[:n]]
    p = float(rng.uniform(0.02, 0.35))
    weights = {}
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < p:
                weights[(src, dst)] = int(rng.integers(1, max_weight + 1))
    return words, weights


def random_network(
    rng: np.random.Generator,
    max_nodes: int = 50,
    max_weight: int = 9,
    words: list[str] | None = None,
) -> CooccurrenceNetwork:
    """Random simple directed weighted graph, see `random_weights`."""
    return CooccurrenceNetwork(*random_weights(rng, max_nodes, max_weight, words))


def scaled_network(net: CooccurrenceNetwork, factor: int) -> CooccurrenceNetwork:
    """Same graph with every weight multiplied by a positive integer."""
    weights = {edge: weight * factor for edge, weight in net.edge_items()}
    return CooccurrenceNetwork(net.words, weights)


# -- reference writers: one row (or point) per entry, as before runs --------


def rank_csv(series, path) -> None:
    """``export_rank_csv`` bytes, formatting the value of every entry."""
    _write_csv(
        path,
        ("rank", "value", "word"),
        ((e.rank, format_value(e.value), e.word) for e in series.entries),
    )


def pair_csv(series_a, series_b, path) -> None:
    """``export_pair_csv`` bytes, dividing and formatting row by row."""
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot pair {series_a.measure!r} with {series_b.measure!r}"
        )
    rows = []
    pairs = zip_longest(series_a.entries, series_b.entries)
    for rank, (entry_a, entry_b) in enumerate(pairs, 1):
        value_a = entry_a.value if entry_a else None
        value_b = entry_b.value if entry_b else None
        ratio = Fraction(value_a, value_b) if entry_a and value_b else None
        rows.append(
            (rank, format_value(value_a), format_value(value_b), format_value(ratio))
        )
    _write_csv(path, ("rank", "value_a", "value_b", "ratio_a_over_b"), rows)


def _polyline_points(series, x_span: float, y_span: float) -> str:
    points = []
    for entry in series.entries:
        x = _MARGIN_LEFT + math.log10(entry.rank) / x_span * _PLOT_W
        y = _MARGIN_TOP + _PLOT_H - math.log10(float(entry.value)) / y_span * _PLOT_H
        points.append(f"{x:.2f},{y:.2f}")
    return " ".join(points)


def rank_svg(series_a, series_b, label_a: str, label_b: str, path) -> None:
    """``render_rank_svg`` bytes, taking a log and a point per entry."""
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot plot {series_a.measure!r} against {series_b.measure!r}"
        )
    for series in (series_a, series_b):
        if series.entries and series.entries[-1].value <= 0:  # the smallest
            raise ValueError(
                f"cannot plot {series.measure!r}: a log-log plot needs positive "
                f"values, got {format_value(series.entries[-1].value)}"
            )
    max_rank = max((len(s) for s in (series_a, series_b)), default=0)
    max_value = 1.0
    for series in (series_a, series_b):
        if series.entries:
            max_value = max(max_value, float(series.entries[0].value))
    # at least one decade per axis so a flat series still renders
    x_span = max(math.log10(max_rank) if max_rank >= 1 else 0.0, 1.0)
    y_span = max(math.log10(max_value), 1.0)

    x_axis_y = _MARGIN_TOP + _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">\n',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>\n',
        f'<g font-family="sans-serif" font-size="12">\n',
    ]

    # axes
    parts.append(
        f'<line x1="{_MARGIN_LEFT:.2f}" y1="{_MARGIN_TOP:.2f}" '
        f'x2="{_MARGIN_LEFT:.2f}" y2="{x_axis_y:.2f}" stroke="black"/>\n'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT:.2f}" y1="{x_axis_y:.2f}" '
        f'x2="{_MARGIN_LEFT + _PLOT_W:.2f}" y2="{x_axis_y:.2f}" stroke="black"/>\n'
    )

    # decade ticks
    for decade in range(int(x_span) + 1):
        x = _MARGIN_LEFT + decade / x_span * _PLOT_W
        parts.append(
            f'<line x1="{x:.2f}" y1="{x_axis_y:.2f}" x2="{x:.2f}" '
            f'y2="{x_axis_y + 5:.2f}" stroke="black"/>\n'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{x_axis_y + 18:.2f}" '
            f'text-anchor="middle">{10 ** decade}</text>\n'
        )
    # every decade below 10**10; past it every step-th, down from the top
    top = int(y_span)
    step = 1 + top // 10
    for decade in range(top % step, top + 1, step):
        y = _MARGIN_TOP + _PLOT_H - decade / y_span * _PLOT_H
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{y:.2f}" '
            f'x2="{_MARGIN_LEFT:.2f}" y2="{y:.2f}" stroke="black"/>\n'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{y + 4:.2f}" '
            f'text-anchor="end">{10 ** decade}</text>\n'
        )

    # axis titles
    parts.append(
        f'<text x="{_MARGIN_LEFT + _PLOT_W / 2:.2f}" '
        f'y="{_SVG_HEIGHT - 12:.2f}" text-anchor="middle">rank</text>\n'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + _PLOT_H / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT_H / 2:.2f})">'
        f"{series_a.measure}</text>\n"
    )

    # data
    for series, color in ((series_a, _COLOR_A), (series_b, _COLOR_B)):
        if series.entries:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{_polyline_points(series, x_span, y_span)}"/>\n'
            )

    # legend, top right
    legend_x = _MARGIN_LEFT + _PLOT_W - 150
    for i, (label, color) in enumerate(((label_a, _COLOR_A), (label_b, _COLOR_B))):
        y = _MARGIN_TOP + 14 + 18 * i
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{y:.2f}" x2="{legend_x + 26:.2f}" '
            f'y2="{y:.2f}" stroke="{color}" stroke-width="1.5"/>\n'
        )
        parts.append(
            f'<text x="{legend_x + 32:.2f}" y="{y + 4:.2f}">{_svg_escape(label)}</text>\n'
        )

    parts.append("</g>\n</svg>\n")
    Path(path).write_bytes("".join(parts).encode("utf-8"))


# Typographic variants folded to ASCII so the same word type maps to one
# node regardless of which quote/hyphen the source text used.
# U+2018 / U+2019 single quotation marks, U+02BC modifier letter apostrophe
_APOSTROPHE_VARIANTS = "‘’ʼ"
# U+2010 hyphen, U+2011 non-breaking hyphen (en/em dashes are separators)
_HYPHEN_VARIANTS = "‐‑"

_SPACE_RUN = re.compile(" {2,}")


@lru_cache(maxsize=None)
def _char_class(ch: str) -> str:
    """Coarse character class: letter, mark, digit, space, or other."""
    if ch.isspace():
        return "space"
    cat = unicodedata.category(ch)
    if cat.startswith("L"):
        return "letter"
    if cat.startswith("M"):
        # combining marks ride along with the letter they modify
        return "mark"
    if cat == "Nd":
        return "digit"
    return "other"


def normalize(text: str, config: PipelineConfig | None = None) -> str:
    """Clean raw text into lowercase NFC-composed word material.

    Everything outside {letters, digits, whitespace, "-", "'", terminator
    set} becomes a space; whitespace runs collapse.  Idempotent.
    """
    cfg = config or DEFAULT_CONFIG
    text = unicodedata.normalize("NFC", text).lower()
    # lowercasing rarely decomposes a codepoint; re-compose to stay NFC
    text = unicodedata.normalize("NFC", text)

    pieces = []
    prev_is_word = False
    for ch in text:
        if ch in _APOSTROPHE_VARIANTS:
            ch = "'"
        elif ch in _HYPHEN_VARIANTS:
            ch = "-"
        if ch in cfg.terminators or ch in "-'":
            pieces.append(ch)
            prev_is_word = False
            continue
        cls = _char_class(ch)
        if cls == "letter" or (cls == "digit" and cfg.keep_digits):
            pieces.append(ch)
            prev_is_word = True
        elif cls == "mark" and prev_is_word:
            pieces.append(ch)
        else:
            # whitespace, punctuation, symbols, dropped digits, stray marks
            pieces.append(" ")
            prev_is_word = False
    return _SPACE_RUN.sub(" ", "".join(pieces)).strip()


def tokenize(sentence: str) -> list[str]:
    """Split a normalized sentence string into word tokens.

    Tokens are maximal runs of letters/digits; a hyphen or apostrophe is
    kept only when word characters sit on both sides of it.  Any other
    character acts as a separator, so the output is well formed even on
    text that skipped ``normalize``.
    """
    tokens: list[str] = []
    current: list[str] = []
    pending_joiner = ""

    def flush() -> None:
        if current:
            tokens.append("".join(current))
            current.clear()

    for ch in sentence:
        cls = _char_class(ch)
        if cls in ("letter", "digit"):
            if pending_joiner:
                current.append(pending_joiner)
                pending_joiner = ""
            current.append(ch)
        elif cls == "mark" and current and not pending_joiner:
            current.append(ch)
        elif ch in "-'" and current and not pending_joiner:
            pending_joiner = ch
        else:
            pending_joiner = ""
            flush()
    flush()
    return tokens


def extract_sentences(
    text: str, config: PipelineConfig | None = None
) -> list[list[str]]:
    """The pipeline composed from the reference `normalize` and `tokenize`."""
    cfg = config or DEFAULT_CONFIG
    sentences = []
    for part in segment_sentences(normalize(text, cfg), cfg):
        tokens = tokenize(part)
        if tokens:
            sentences.append(tokens)
    return sentences

"""Rank series, category comparison, and deterministic exports.

A rank series for one measure lists (rank, value, word) rows with values
in descending order, rank 1 first; ties are ordered by ascending word so
the series is reproducible.  Nodes whose value is zero or undefined are
left out: a node with no incoming edge carries no information about the
incoming side, and including a zero tail would only flatten log-log plots.

Every series comes from `network_rank_series`: a single stable sort, by
descending int key, of node ids that are already in the network's cached
word order (`network._word_order`), so ties stay in word order; the keys
are equal exactly when the values are, and a run of equal values ends
wherever the sorted keys change.  A degree or strength is its own key,
and a selectivity is keyed by the rank of its value among the column's
few hundred distinct values, the only place where `Fraction`s are
compared.

A series is stored as three flat tuples in rank order: the words, their
values, and the end of each run of equal value (a network's thousands of
nodes share a few hundred values).  The writers work once per run: one
formatted value cell per run in a rank CSV, one ratio per overlap of two
runs in a pair CSV, one logarithm per run in an SVG plot.  The lines of
a run (of an overlap, in a pair CSV) are made by one join and written by
one write.  The rank cells come from one table shared by every writer
(`_rank_cells`), so no rank is formatted twice in a process, and only
the word is handled row by row, and in C.  An SVG plot's x cells depend
only on the axis length, and are cached for the last two lengths.  A
series keeps two references per row and no object of its own per row;
the (rank, value, word) rows are built only when `RankSeries.entries` is
read.

Every CSV file is written by one row rule: the header and each row are
one ``",".join`` of ready cells.  A word or label cell is the text itself
unless it holds a comma, a double quote, CR or LF, and is then quoted as
the csv module quotes it (`_word_cells`).  A value cell is `format_value`
of an int, a `Fraction` or None, which holds only digits and ``.-+e``,
so it is never quoted.

Two networks built from different text categories are compared by pairing
their global summaries and their rank series measure by measure.  Each
side is profiled on its own (`profile_network`), so a caller drops one
network before it builds the other, and `size_mismatch` says when the two
node counts are too far apart for rank-by-rank comparison.  Exports (CSV
tables and an optional SVG rank plot) are byte-deterministic: same
inputs, same bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from operator import ne
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .metrics import GlobalMetrics, NodeMetrics, _node_table, global_summary
from .network import _LINES_PER_WRITE, CooccurrenceNetwork, _new_text_file, _word_order

MEASURES = (
    "in-degree",
    "out-degree",
    "in-strength",
    "out-strength",
    "in-selectivity",
    "out-selectivity",
)

# "label", then one column per GlobalMetrics field in field order
SUMMARY_COLUMNS = (
    "label",
    "N",
    "K",
    "avg_degree",
    "avg_shortest_path",
    "diameter",
    "avg_clustering",
    "density",
    "components",
    "largest_component",
)

# node-count gap (fraction of the larger network) that triggers a warning
_SIZE_GAP_LIMIT = Fraction(1, 5)


class RankEntry(NamedTuple):
    rank: int
    value: int | Fraction
    word: str


class _RankSeriesFields(NamedTuple):
    measure: str
    words: tuple[str, ...]
    values: tuple[int | Fraction, ...]
    ends: tuple[int, ...]


class RankSeries(_RankSeriesFields):
    """Descending values of one measure with 1-based ranks, in rank order.

    `words` holds the words and `values[i]` the value object that came
    with `words[i]`; the word at position i has rank i + 1.  `ends` holds
    the position just past each run of equal values: strictly increasing,
    its last entry equal to the length.  Within a run the words are sorted
    by word, and every word keeps its own value object, so a run may mix
    equal ints and Fractions.  `entries`, the (rank, value, word) rows, is
    derived on each access.  `network_rank_series` builds the series of a
    network.

    A named tuple of its four fields, but its length is its row count, so
    an empty series is falsy.  `typing.NamedTuple` allows no `__new__` in
    its own body, hence the subclass.
    """

    __slots__ = ()

    def __new__(cls, measure: str, words, values, ends):
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        return super().__new__(cls, measure, words, values, ends)

    @classmethod
    def _make(cls, iterable) -> RankSeries:
        # the inherited one checks `len`, which here counts rows, not fields
        return cls(*iterable)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        return tuple(map(RankEntry, itertools.count(1), self.values, self.words))


def _runs(series: RankSeries) -> Iterator[tuple[int, int]]:
    """(start, end) positions of each run of equal values, in rank order."""
    return zip((0, *series.ends), series.ends)


def network_rank_series(net: CooccurrenceNetwork, measure: str) -> RankSeries:
    """Rank series of one measure over a network's nodes.

    A node is in a series exactly when its degree on the measure's side
    is nonzero, so the in-degree, in-strength, and in-selectivity series
    of one network hold the same nodes (likewise for the out side).  The
    degree column decides for all three, as weights are at least 1: a
    strength is zero, and a selectivity None, exactly where the degree is
    zero.  So zeros are dropped like None, and no `Fraction` is asked for
    its truth.  The nodes come in the network's
    cached word order.  A degree or strength is its own key; a
    selectivity is keyed by the rank of its value among the column's
    distinct values, found over its shared objects (one per distinct
    (strength, degree) pair), not per node.  One stable sort by
    descending key keeps word order within each run of equal values, and
    a run ends wherever the sorted keys change.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    table = _node_table(net)
    column = getattr(table, measure.replace("-", "_"))
    degrees = getattr(table, measure.partition("-")[0] + "_degree")
    order = _word_order(net)
    active = itertools.compress(order, map(degrees.__getitem__, order))
    keys = column
    if measure.endswith("selectivity"):
        shared = dict(zip(map(id, column), column))
        ascending = sorted(set(filter(None, shared.values())))
        key_of = dict(zip(ascending, itertools.count()))
        key_of_id = {obj_id: key_of.get(value) for obj_id, value in shared.items()}
        keys = list(map(key_of_id.__getitem__, map(id, column)))
    ranked = sorted(active, key=keys.__getitem__, reverse=True)
    ranked_keys = list(map(keys.__getitem__, ranked))
    changes = map(ne, ranked_keys, itertools.islice(ranked_keys, 1, None))
    ends = [*itertools.compress(itertools.count(1), changes)]
    if ranked:
        ends.append(len(ranked))
    return RankSeries(
        measure,
        tuple(map(net.words.__getitem__, ranked)),
        tuple(map(column.__getitem__, ranked)),
        tuple(ends),
    )


def all_rank_series(net: CooccurrenceNetwork) -> dict[str, RankSeries]:
    return {measure: network_rank_series(net, measure) for measure in MEASURES}


def excluded_fraction(net: CooccurrenceNetwork) -> Fraction:
    """Share of nodes missing from at least one rank series.

    A node is counted when its in-degree or out-degree is zero, which is
    exactly the condition that drops it from some series.
    """
    if net.n_nodes == 0:
        raise ValueError("excluded fraction of an empty network is undefined")
    table = _node_table(net)
    sides = zip(table.in_degree, table.out_degree)
    excluded = sum(1 for k_in, k_out in sides if k_in == 0 or k_out == 0)
    return Fraction(excluded, net.n_nodes)


class NetworkProfile(NamedTuple):
    """One network's side of a comparison, which outlives the network."""

    summary: GlobalMetrics
    series: dict[str, RankSeries]
    excluded: Fraction


def profile_network(
    net: CooccurrenceNetwork, sample: int | None = None
) -> NetworkProfile:
    """The summary, six rank series and excluded fraction of one network.

    The profile holds no reference to the network, so a caller comparing
    two networks can drop the first before it builds the second.
    """
    return NetworkProfile(
        summary=global_summary(net, sample),
        series=all_rank_series(net),
        excluded=excluded_fraction(net),
    )


def size_mismatch(n_a: int, n_b: int) -> str | None:
    """The size warning for two node counts, or None when they are close.

    Counts that differ by more than 20% of the larger one get a warning,
    since rank-by-rank comparisons are only meaningful for samples of
    similar size.
    """
    bigger = max(n_a, n_b)
    gap = abs(n_a - n_b)
    if bigger == 0 or Fraction(gap, bigger) <= _SIZE_GAP_LIMIT:
        return None
    return (
        f"network sizes differ by {gap} nodes ({n_a} vs {n_b}); rank series "
        f"are not directly comparable"
    )


# 6 significant digits, half-even like float, at any exponent a Fraction's
# terms can reach (the default range raises decimal.Overflow past 10**999999)
_SIX_DIGITS = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)


def format_value(value: str | int | Fraction | None) -> str:
    """Render a measure value for CSV cells and reports.

    None becomes the empty string; a bool or a word prints as it is.  An
    integral value prints every digit through `Decimal`, which `str`'s int
    digit limit does not bind.  Any other value is rounded to 6 significant
    digits: by float's ``.6g`` in float's normal range, and exactly under
    `_SIX_DIGITS` past it, beyond float max or below `sys.float_info.min`.
    """
    if value is None:
        return ""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return str(value)
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    try:
        number = float(value)
        if abs(number) >= sys.float_info.min:
            return f"{number:.6g}"
    except OverflowError:
        pass
    exact = _SIX_DIGITS.divide(value.numerator, value.denominator)
    return f"{exact.normalize(_SIX_DIGITS):.6g}"


# the characters that may make the csv module quote a cell; which of them
# do depends on the Python version ("\r" alone is left bare on 3.11)
_CSV_SPECIALS = (",", '"', "\r", "\n")


def _csv_cell(text: str) -> str:
    """`text` as one cell of a CSV row, quoted as the csv module quotes it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,))
    return buffer.getvalue()[:-1]


def _word_cells(words: tuple[str, ...]) -> Sequence[str]:
    """The CSV cells of `words`: the words themselves unless one needs quoting.

    Words built from text never do.  An empty word is never passed to
    `_csv_cell`, which would quote it as a lone field.
    """
    joined = "".join(words)
    if not any(char in joined for char in _CSV_SPECIALS):
        return words
    return [
        _csv_cell(word) if any(char in word for char in _CSV_SPECIALS) else word
        for word in words
    ]


# "1", "2", ...: the rank cells of the longest series written so far
_RANK_CELLS: tuple[str, ...] = ()


def _rank_cells(n: int) -> tuple[str, ...]:
    """At least `n` rank cells: ``str(i + 1)`` at position i.

    One tuple serves every writer in the process.  A longer request builds
    a longer tuple, formatting only the ranks that are new, and rebinds
    the name; a tuple never changes once made, so a writer keeps using the
    one it got while another thread grows the table.  The table lives as
    long as the process: one short string per rank of the longest series
    written so far, about 0.5 MB at 8,000 ranks.
    """
    global _RANK_CELLS
    cells = _RANK_CELLS
    if len(cells) < n:
        cells = (*cells, *map(str, range(len(cells) + 1, n + 1)))
        _RANK_CELLS = cells
    return cells


def export_rank_csv(series: RankSeries, path: str | Path) -> None:
    """Write one rank series as ``rank,value,word`` rows (with header).

    The value cell is formatted once per run of equal values, and each
    run's rows are joined into one string and written at once.
    """
    words = _word_cells(series.words)
    ranks = _rank_cells(len(words))
    with _new_text_file(path) as handle:
        handle.write("rank,value,word\n")
        for start, end in _runs(series):
            middle = f",{format_value(series.values[start])},"
            fields = zip(
                ranks[start:end],
                itertools.repeat(middle),
                words[start:end],
                itertools.repeat("\n"),
            )
            handle.write("".join(itertools.chain.from_iterable(fields)))


def write_summary_csv(
    rows: Sequence[tuple[str, GlobalMetrics]], path: str | Path
) -> None:
    """Write labeled global summaries as one CSV table; None is an empty cell.

    A row is the label's cell and one `format_value` cell per measure.
    """
    with _new_text_file(path) as handle:
        handle.write(",".join(SUMMARY_COLUMNS) + "\n")
        for label, metrics in rows:
            cells = (*_word_cells((label,)), *map(format_value, metrics))
            handle.write(",".join(cells) + "\n")


NODE_COLUMNS = NodeMetrics._fields


def write_node_metrics_csv(
    records: Sequence[NodeMetrics], path: str | Path
) -> None:
    """Write per-node measures, one row per node in node-id order.

    A row is the word's cell and one `format_value` cell per measure.  The
    records are read once, in batches of `_LINES_PER_WRITE` rows, each
    written at once.
    """
    records = iter(records)
    with _new_text_file(path) as handle:
        handle.write(",".join(NODE_COLUMNS) + "\n")
        while batch := tuple(itertools.islice(records, _LINES_PER_WRITE)):
            words = _word_cells(tuple(record.word for record in batch))
            lines = (
                f"{word},{','.join(map(format_value, record[1:]))}\n"
                for word, record in zip(words, batch)
            )
            handle.write("".join(lines))


def export_pair_csv(
    series_a: RankSeries, series_b: RankSeries, path: str | Path
) -> None:
    """Write two same-measure series aligned rank by rank.

    Rows run to the longer series; a missing value and its ratio are empty
    cells.  The ratio column divides the first series by the second; it is
    empty where the second value is 0.  The run ends of both series cut
    the ranks into overlaps; within one, every row has the same three
    cells, so the ratio and the cells are computed once per overlap.
    """
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot pair {series_a.measure!r} with {series_b.measure!r}"
        )
    cuts = sorted({0, *series_a.ends, *series_b.ends})
    ranks = _rank_cells(cuts[-1])
    with _new_text_file(path) as handle:
        handle.write("rank,value_a,value_b,ratio_a_over_b\n")
        for start, end in zip(cuts, cuts[1:]):
            value_a, value_b = (
                series.values[start] if start < len(series) else None
                for series in (series_a, series_b)
            )
            ratio = (
                Fraction(value_a, value_b) if value_a is not None and value_b else None
            )
            cells = map(format_value, (value_a, value_b, ratio))
            tail = ",{},{},{}\n".format(*cells)
            handle.write(tail.join(ranks[start:end]) + tail)


# -- SVG rank plot ----------------------------------------------------------

_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 22.0
_MARGIN_BOTTOM = 52.0
_PLOT_W = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_COLOR_A = "#1f77b4"
_COLOR_B = "#d62728"


def _polyline_points(
    series: RankSeries, x_cells: Sequence[str], y_bottom: int, y_span: float
) -> str:
    """``x,y`` points of one series; `x_cells[i]` is position i's x cell.

    The y axis runs from decade `y_bottom` up `y_span` decades.  The y cell
    is computed once per run of equal values.
    """
    runs = []
    for start, end in _runs(series):
        log_value = _log10(series.values[start]) - y_bottom
        y_cell = f",{_MARGIN_TOP + _PLOT_H - log_value / y_span * _PLOT_H:.2f}"
        runs.append((y_cell + " ").join(x_cells[start:end]) + y_cell)
    return " ".join(runs)


@functools.lru_cache(maxsize=2)
def _x_cells(max_rank: int, x_span: float) -> tuple[str, ...]:
    """The x cell of each rank 1..`max_rank`, on an axis of `x_span` decades.

    `x_span` follows from `max_rank`, so the axis length alone tells the
    entries apart.  The in and out plots of `compare` alternate two lengths,
    so two entries serve all six plots.
    """
    return tuple(
        f"{_MARGIN_LEFT + math.log10(rank) / x_span * _PLOT_W:.2f}"
        for rank in range(1, max_rank + 1)
    )


def _log10(value: int | Fraction) -> float:
    """The base-10 logarithm of a positive value, also past float range.

    `math.log10` takes an int of any size, but converts a Fraction to float
    first; past float range at either end the terms are taken one by one.
    """
    try:
        return math.log10(value)
    except (OverflowError, ValueError):
        return math.log10(value.numerator) - math.log10(value.denominator)


def _line(
    x1: float, y1: float, x2: float, y2: float, paint: str = 'stroke="black"'
) -> str:
    """One ``<line>`` element; `paint` holds its stroke attributes."""
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {paint}/>\n'


def _text(x: float, y: float, body: object, anchor: str | None = None) -> str:
    """One ``<text>`` element, with a ``text-anchor`` when `anchor` is given."""
    anchored = "" if anchor is None else f' text-anchor="{anchor}"'
    return f'<text x="{x:.2f}" y="{y:.2f}"{anchored}>{body}</text>\n'


def render_rank_svg(
    series_a: RankSeries,
    series_b: RankSeries,
    label_a: str,
    label_b: str,
    path: str | Path,
) -> None:
    """Draw both series of one measure as log-log polylines.

    Plain hand-assembled SVG so the bytes depend only on the data.  Both
    axes are base-10 logarithmic with ticks at the decades.  The y axis
    starts at 10**0, or at the decade of the smallest value when that is
    below 1, and ends at 10**1 or the top value, whichever is higher.  It
    marks at most 10 decades: every one while the axis spans fewer than 10,
    and past that every (1 + span // 10)-th decade counted down from the
    top one, so a value of thousands of digits still gives a small plot.
    A log-log plot needs positive values, so a series holding a zero or a
    negative value (one built by hand) raises ValueError.  Network series
    hold values >= 1, as `network_rank_series` drops zeros, so their axis
    starts at 10**0.
    """
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot plot {series_a.measure!r} against {series_b.measure!r}"
        )
    for series in (series_a, series_b):
        if series.values and series.values[-1] <= 0:  # the smallest
            raise ValueError(
                f"cannot plot {series.measure!r}: a log-log plot needs positive "
                f"values, got {format_value(series.values[-1])}"
            )
    max_rank = max(len(series_a), len(series_b))
    # at least one decade per axis so a flat series still renders
    x_span = max(math.log10(max_rank) if max_rank >= 1 else 0.0, 1.0)
    plotted = [series for series in (series_a, series_b) if series.values]
    y_top = max([1.0] + [_log10(series.values[0]) for series in plotted])
    y_bottom = min([0] + [math.floor(_log10(series.values[-1])) for series in plotted])
    y_span = y_top - y_bottom

    x_axis_y = _MARGIN_TOP + _PLOT_H
    y_title = f"{_MARGIN_TOP + _PLOT_H / 2:.2f}"  # its x stays a literal 16

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">\n',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>\n',
        f'<g font-family="sans-serif" font-size="12">\n',
        # axes
        _line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y),
        _line(_MARGIN_LEFT, x_axis_y, _MARGIN_LEFT + _PLOT_W, x_axis_y),
    ]
    # decade ticks
    for decade in range(int(x_span) + 1):
        x = _MARGIN_LEFT + decade / x_span * _PLOT_W
        parts.append(_line(x, x_axis_y, x, x_axis_y + 5))
        parts.append(_text(x, x_axis_y + 18, 10**decade, "middle"))
    decades = int(y_top) - y_bottom
    step = 1 + decades // 10
    for decade in range(decades % step, decades + 1, step):
        y = _MARGIN_TOP + _PLOT_H - decade / y_span * _PLOT_H
        parts.append(_line(_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y))
        label = format_value(Fraction(10) ** (y_bottom + decade))
        parts.append(_text(_MARGIN_LEFT - 8, y + 4, label, "end"))
    # axis titles
    parts.append(_text(_MARGIN_LEFT + _PLOT_W / 2, _SVG_HEIGHT - 12, "rank", "middle"))
    parts.append(
        f'<text x="16" y="{y_title}" text-anchor="middle" '
        f'transform="rotate(-90 16 {y_title})">{series_a.measure}</text>\n'
    )

    # data; both series share the x cell of each rank
    x_cells = _x_cells(max_rank, x_span)
    for series, color in ((series_a, _COLOR_A), (series_b, _COLOR_B)):
        if series.values:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{_polyline_points(series, x_cells, y_bottom, y_span)}"/>\n'
            )

    # legend, top right
    legend_x = _MARGIN_LEFT + _PLOT_W - 150
    for i, (label, color) in enumerate(((label_a, _COLOR_A), (label_b, _COLOR_B))):
        y = _MARGIN_TOP + 14 + 18 * i
        paint = f'stroke="{color}" stroke-width="1.5"'
        parts.append(_line(legend_x, y, legend_x + 26, y, paint))
        parts.append(_text(legend_x + 32, y + 4, _svg_escape(label)))

    parts.append("</g>\n</svg>\n")
    with _new_text_file(path) as handle:
        handle.write("".join(parts))


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

"""Rank series, category comparison, and deterministic exports.

A rank series for one measure lists (rank, value, word) rows with values
in descending order, rank 1 first; ties are ordered by ascending word so
the series is reproducible.  Nodes whose value is zero or undefined are
left out: a node with no incoming edge carries no information about the
incoming side, and including a zero tail would only flatten log-log plots.

A series is stored as its runs of equal value (a network's thousands of
nodes share a few hundred values), and the writers work once per run: one
formatted value cell per run in a rank CSV, one ratio per overlap of two
runs in a pair CSV, one logarithm per run in an SVG plot.  Only the rank
and the word are handled row by row.  A run holds two tuples, its words
and their values, so a series keeps two references per row and no
object of its own per row; the (rank, value, word) rows are built only
when `RankSeries.entries` is read.

Two networks built from different text categories are compared by pairing
their global summaries and their rank series measure by measure.  Exports
(CSV tables and an optional SVG rank plot) are byte-deterministic: same
inputs, same bytes.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .metrics import GlobalMetrics, NodeMetrics, _node_table, global_summary
from .network import CooccurrenceNetwork

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


class SizeMismatchWarning(UserWarning):
    """Compared networks differ enough in size to skew the comparison."""


class RankEntry(NamedTuple):
    rank: int
    value: int | Fraction
    word: str


class Run(NamedTuple):
    """One run of equal values: its words sorted by word, and their values.

    ``values[i]`` is the value object that came with ``words[i]``.
    """

    words: tuple[str, ...]
    values: tuple[int | Fraction, ...]


@dataclass(frozen=True)
class RankSeries:
    """Descending values of one measure with 1-based ranks, as equal-value runs.

    `runs` holds the runs of equal value in rank order, each run being a
    `Run`: a tuple of its words sorted by word and a tuple of their values.
    Every word keeps its own value object, so a run may mix equal ints and
    Fractions.  Ranks count the words across the runs from 1.  `entries`,
    the (rank, value, word) rows, is derived from the runs on each access.
    Build a series with `rank_sequence`.
    """

    measure: str
    runs: tuple[Run, ...]

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")

    def __len__(self) -> int:
        return sum(len(run.words) for run in self.runs)

    @property
    def entries(self) -> tuple[RankEntry, ...]:
        values = itertools.chain.from_iterable(run.values for run in self.runs)
        words = itertools.chain.from_iterable(run.words for run in self.runs)
        return tuple(map(RankEntry, itertools.count(1), values, words))


def _run_spans(series: RankSeries) -> Iterator[tuple[int, int, Run]]:
    """(first rank, rank past the end, run) for each run, in rank order."""
    start = 1
    for run in series.runs:
        end = start + len(run.words)
        yield start, end, run
        start = end


@dataclass(frozen=True)
class PairComparison:
    """Everything needed to compare two text categories side by side."""

    label_a: str
    label_b: str
    summary_a: GlobalMetrics
    summary_b: GlobalMetrics
    series_a: dict[str, RankSeries]
    series_b: dict[str, RankSeries]
    excluded_a: Fraction
    excluded_b: Fraction


def rank_sequence(
    measure: str, pairs: Iterable[tuple[str, int | Fraction | None]]
) -> RankSeries:
    """Rank (word, value) pairs; None values are dropped, zeros are kept.

    Sorting is by descending value, then ascending word; ranks are the
    1-based positions after the sort.  The words and values are grouped by
    exact value in one dict keyed by (numerator, denominator), which equal
    ints and Fractions share and which, unlike `Fraction.__hash__`, is
    cheap.  Only the distinct values are sorted, and each group, sorted by
    word, becomes one run of the series: exact `Fraction` comparisons run
    over a network's few hundred distinct values, not its thousands of
    nodes, and the writers format, divide and take logs once per run.  A
    run is stored as one tuple of words and one tuple of values, so no pair
    is kept per word.  Every word keeps its own value object, and pairs
    with equal value and word keep their input order.
    """
    groups: dict[tuple[int, int], tuple[list[str], list[int | Fraction]]] = {}
    for word, value in pairs:
        if value is not None:
            key = (value.numerator, value.denominator)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [])
            group[0].append(word)
            group[1].append(value)
    runs = []
    for words, values in sorted(
        groups.values(), key=lambda group: group[1][0], reverse=True
    ):
        order = sorted(range(len(words)), key=words.__getitem__)  # stable
        runs.append(
            Run(
                tuple(map(words.__getitem__, order)),
                tuple(map(values.__getitem__, order)),
            )
        )
    return RankSeries(measure=measure, runs=tuple(runs))


def network_rank_series(net: CooccurrenceNetwork, measure: str) -> RankSeries:
    """Rank series of one measure over a network's nodes.

    Zero values are mapped to None before ranking, so a series only covers
    nodes active on the relevant side; the in-degree, in-strength, and
    in-selectivity series of one network therefore all have the same length
    (likewise for the out side).
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    values = getattr(_node_table(net), measure.replace("-", "_"))
    return rank_sequence(
        measure, ((word, value or None) for word, value in zip(net.words, values))
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


def compare_pair(
    net_a: CooccurrenceNetwork,
    net_b: CooccurrenceNetwork,
    label_a: str,
    label_b: str,
    sample: int | None = None,
) -> PairComparison:
    """Bundle summaries and rank series of two networks for comparison.

    Warns with SizeMismatchWarning when the node counts differ by more
    than 20% of the larger network, since rank-by-rank comparisons are
    only meaningful for samples of similar size.
    """
    bigger = max(net_a.n_nodes, net_b.n_nodes)
    gap = abs(net_a.n_nodes - net_b.n_nodes)
    if bigger > 0 and Fraction(gap, bigger) > _SIZE_GAP_LIMIT:
        warnings.warn(
            f"network sizes differ by {gap} nodes "
            f"({net_a.n_nodes} vs {net_b.n_nodes}); rank series are not "
            f"directly comparable",
            SizeMismatchWarning,
            stacklevel=2,
        )
    return PairComparison(
        label_a=label_a,
        label_b=label_b,
        summary_a=global_summary(net_a, sample),
        summary_b=global_summary(net_b, sample),
        series_a=all_rank_series(net_a),
        series_b=all_rank_series(net_b),
        excluded_a=excluded_fraction(net_a),
        excluded_b=excluded_fraction(net_b),
    )


def format_value(value: str | int | Fraction | None) -> str:
    """Render a measure value for CSV cells and reports.

    None becomes the empty string, words and integral values print as they
    are, and everything else is rounded to 6 significant digits.
    """
    if value is None:
        return ""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        try:
            return f"{float(value):.6g}"
        except OverflowError:
            return _format_huge(value)
    return str(value)


def _format_huge(value: Fraction) -> str:
    """float's ``.6g`` rendering, computed exactly, for |value| > float max."""
    if value < 0:
        return "-" + _format_huge(-value)
    exponent = len(str(value.numerator // value.denominator)) - 1
    digits = round(value / 10 ** (exponent - 5))  # half-even, like float
    if digits == 10**6:  # rounding carried into a new decade
        digits //= 10
        exponent += 1
    mantissa = f"{digits // 10**5}.{digits % 10**5:05d}".rstrip("0").rstrip(".")
    return f"{mantissa}e+{exponent:02d}"


def _write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write a header and rows as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_rank_csv(series: RankSeries, path: str | Path) -> None:
    """Write one rank series as ``rank,value,word`` rows (with header).

    The value cell is formatted once per run of equal values.
    """
    _write_csv(
        path,
        ("rank", "value", "word"),
        itertools.chain.from_iterable(
            zip(
                range(start, end),
                itertools.repeat(format_value(run.values[0])),
                run.words,
            )
            for start, end, run in _run_spans(series)
        ),
    )


def write_summary_csv(
    rows: Sequence[tuple[str, GlobalMetrics]], path: str | Path
) -> None:
    """Write labeled global summaries as one CSV table; None is an empty cell."""
    _write_csv(
        path,
        SUMMARY_COLUMNS,
        (
            [label]
            + [
                format_value(getattr(metrics, field.name))
                for field in fields(metrics)
            ]
            for label, metrics in rows
        ),
    )


NODE_COLUMNS = tuple(field.name for field in fields(NodeMetrics))


def write_node_metrics_csv(
    records: Sequence[NodeMetrics], path: str | Path
) -> None:
    """Write per-node measures, one row per node in node-id order."""
    _write_csv(
        path,
        NODE_COLUMNS,
        (
            [format_value(getattr(rec, name)) for name in NODE_COLUMNS]
            for rec in records
        ),
    )


def export_pair_csv(
    series_a: RankSeries, series_b: RankSeries, path: str | Path
) -> None:
    """Write two same-measure series aligned rank by rank.

    Rows run to the longer series; a missing value and its ratio are empty
    cells.  The ratio column divides the first series by the second; it is
    empty where the second value is 0.  Where a run of one series overlaps
    a run of the other, every row has the same three cells, so the ratio
    and the cells are computed once per overlap.
    """
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot pair {series_a.measure!r} with {series_b.measure!r}"
        )
    segments = []
    for start, end, value_a, value_b in _overlaps(series_a, series_b):
        ratio = Fraction(value_a, value_b) if value_a is not None and value_b else None
        cell_a, cell_b, cell_ratio = map(format_value, (value_a, value_b, ratio))
        segments.append(
            zip(
                range(start, end),
                itertools.repeat(cell_a),
                itertools.repeat(cell_b),
                itertools.repeat(cell_ratio),
            )
        )
    _write_csv(
        path,
        ("rank", "value_a", "value_b", "ratio_a_over_b"),
        itertools.chain.from_iterable(segments),
    )


def _overlaps(
    series_a: RankSeries, series_b: RankSeries
) -> Iterator[tuple[int, int, int | Fraction | None, int | Fraction | None]]:
    """(first rank, rank past the end, value_a, value_b) per overlap of runs.

    The overlaps run to the end of the longer series; past the end of the
    shorter one its value is None.
    """
    stop = max(len(series_a), len(series_b)) + 1
    ends_a = _run_ends(series_a, stop)
    ends_b = _run_ends(series_b, stop)
    end_a, value_a = next(ends_a)
    end_b, value_b = next(ends_b)
    start = 1
    while start < stop:
        end = min(end_a, end_b)
        yield start, end, value_a, value_b
        if end == end_a:
            end_a, value_a = next(ends_a)
        if end == end_b:
            end_b, value_b = next(ends_b)
        start = end


def _run_ends(
    series: RankSeries, stop: int
) -> Iterator[tuple[int, int | Fraction | None]]:
    """(rank past the end, value) per run, then (stop, None) for the rest."""
    for _, end, run in _run_spans(series):
        yield end, run.values[0]
    while True:
        yield stop, None


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


def _polyline_points(series: RankSeries, x_cells: Sequence[str], y_span: float) -> str:
    """``x,y`` points of one series; `x_cells[rank - 1]` is a rank's x cell.

    The y cell is computed once per run of equal values.
    """
    points = []
    for start, end, run in _run_spans(series):
        y = _MARGIN_TOP + _PLOT_H - math.log10(float(run.values[0])) / y_span * _PLOT_H
        y_cell = f",{y:.2f}"
        points.extend(x + y_cell for x in x_cells[start - 1 : end - 1])
    return " ".join(points)


def render_rank_svg(
    series_a: RankSeries,
    series_b: RankSeries,
    label_a: str,
    label_b: str,
    path: str | Path,
) -> None:
    """Draw both series of one measure as log-log polylines.

    Plain hand-assembled SVG so the bytes depend only on the data.  Both
    axes are base-10 logarithmic with ticks at the decades.  A log-log
    plot needs positive values, so a series holding a zero or a negative
    value (`rank_sequence` keeps zeros) raises ValueError.  Network series
    hold values >= 1, as `network_rank_series` drops zeros, so their logs
    are >= 0.
    """
    if series_a.measure != series_b.measure:
        raise ValueError(
            f"cannot plot {series_a.measure!r} against {series_b.measure!r}"
        )
    for series in (series_a, series_b):
        if series.runs and series.runs[-1].values[0] <= 0:  # the smallest
            raise ValueError(
                f"cannot plot {series.measure!r}: a log-log plot needs positive "
                f"values, got {format_value(series.runs[-1].values[0])}"
            )
    max_rank = max((len(s) for s in (series_a, series_b)), default=0)
    max_value = 1.0
    for series in (series_a, series_b):
        if series.runs:
            max_value = max(max_value, float(series.runs[0].values[0]))
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
    for decade in range(int(y_span) + 1):
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

    # data; both series share the x cell of each rank
    x_cells = [
        f"{_MARGIN_LEFT + math.log10(rank) / x_span * _PLOT_W:.2f}"
        for rank in range(1, max_rank + 1)
    ]
    for series, color in ((series_a, _COLOR_A), (series_b, _COLOR_B)):
        if series.runs:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{_polyline_points(series, x_cells, y_span)}"/>\n'
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


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )

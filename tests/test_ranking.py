import gc
import sys
import tempfile
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coocnet import (
    MEASURES,
    GlobalMetrics,
    NodeMetrics,
    all_node_metrics,
    all_rank_series,
    build_network,
    excluded_fraction,
    export_pair_csv,
    export_rank_csv,
    format_value,
    from_edge_list,
    global_summary,
    network_rank_series,
    profile_network,
    render_rank_svg,
    size_mismatch,
    write_node_metrics_csv,
    write_edge_list,
    write_summary_csv,
)

from coocnet import network, ranking
from coocnet.metrics import NodeMetrics, _side_table

import oracles


# small ranges so equal values of mixed type (2 and Fraction(2)), zeros,
# duplicate words and equal-value runs are all common
_RANK_VALUES = st.one_of(
    st.none(),
    st.just(0),
    st.integers(min_value=-3, max_value=6),
    st.fractions(min_value=-3, max_value=6, max_denominator=4),
)


def assert_matches_rank_order(series, pairs):
    """Entry for entry the oracle's pair, holding the same value object.

    The identity check also pins the value's type: 1 == Fraction(1).
    """
    expected = oracles.rank_order(pairs)
    assert [e.rank for e in series.entries] == list(range(1, len(expected) + 1))
    assert [(e.word, e.value) for e in series.entries] == expected
    assert all(
        entry.value is value for entry, (_, value) in zip(series.entries, expected)
    )


def written(writer, *args) -> bytes:
    """The bytes `writer(*args, path)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        writer(*args, path)
        return path.read_bytes()


# integral Fractions next to the same ints, so runs of mixed type are common;
# words that the csv module quotes, or leaves bare ("x\ry" on 3.11), as
# `rank` on an edge list can give
_CSV_PAIRS = st.lists(
    st.tuples(
        st.sampled_from(
            ["a", "b", "c", "ab", "ba", "é", "a,b", 'say"hi"', "x\ry", "x\ny"]
        ),
        st.one_of(_RANK_VALUES, st.integers(min_value=-3, max_value=6).map(Fraction)),
    ),
    max_size=40,
)
# pinned: a run of 2 and Fraction(2) above a fraction and a zero
_MIXED = [("a", 2), ("b", Fraction(2)), ("c", Fraction(1, 3)), ("d", 0)]
# positive only, for a log-log plot; large values give more than one y decade
_SVG_PAIRS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "ab", "ba", "é"]),
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=6).map(Fraction),
            st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
            st.integers(min_value=1, max_value=10**5),
            # below 1, several decades under the y axis's 10**0
            st.fractions(
                min_value=Fraction(1, 10**6), max_value=1, max_denominator=10**6
            ),
        ),
    ),
    max_size=40,
)

# labels and words holding what the csv module quotes (or leaves bare, as
# "\r" on 3.11), the empty one included
_CELL_TEXTS = st.text(alphabet=["a", "é", " ", ",", '"', "\r", "\n"], max_size=4)
# measure values: ints past `str`'s 4,300-digit limit, Fractions past float
# range at both ends, and None
_MEASURE_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=6),
    st.fractions(min_value=-3, max_value=6, max_denominator=4),
    st.builds(
        lambda digits, exponent: digits * 10**exponent,
        st.integers(-999, 999),
        st.integers(4_300, 4_400),
    ),
    st.builds(
        lambda digits, exponent: Fraction(digits, 7) * Fraction(10) ** exponent,
        st.integers(-999, 999).filter(bool),
        st.one_of(st.integers(-500, -310), st.integers(310, 500)),
    ),
)
_SUMMARY_ROWS = st.lists(
    st.tuples(
        _CELL_TEXTS,
        st.builds(GlobalMetrics, *[_MEASURE_VALUES] * 9),
    ),
    max_size=3,
)
_NODE_RECORDS = st.lists(
    st.builds(NodeMetrics, _CELL_TEXTS, *[_MEASURE_VALUES] * 8), max_size=20
)
# two batches of lines and one more row, whose word is quoted
_MANY_RECORDS = [
    NodeMetrics(f"w{i}", i, 1, i, 1, Fraction(i, 3), None, 0, None)
    for i in range(2 * network._LINES_PER_WRITE)
] + [NodeMetrics('a,"b"', 1, 1, 1, 1, None, None, 0, None)]


class TestWritersMatchOracles:
    """The run-based writers write the per-entry reference writers' bytes."""

    @settings(max_examples=200, deadline=None)
    @given(_CSV_PAIRS)
    @example(_MIXED)
    def test_rank_csv(self, pairs):
        series = oracles.rank_series("in-strength", pairs)
        assert written(export_rank_csv, series) == written(oracles.rank_csv, series)

    @settings(max_examples=200, deadline=None)
    @given(_CSV_PAIRS, _CSV_PAIRS)
    @example(_MIXED, [("x", Fraction(3)), ("y", 3), ("y", 3), ("z", 1)])
    @example([], _MIXED)
    @example([], [])
    def test_pair_csv(self, pairs_a, pairs_b):
        series_a = oracles.rank_series("out-selectivity", pairs_a)
        series_b = oracles.rank_series("out-selectivity", pairs_b)
        assert written(export_pair_csv, series_a, series_b) == written(
            oracles.pair_csv, series_a, series_b
        )

    @settings(max_examples=200, deadline=None)
    @given(_SVG_PAIRS, _SVG_PAIRS)
    @example(_MIXED[:3], [])
    def test_rank_svg(self, pairs_a, pairs_b):
        series_a = oracles.rank_series("in-degree", pairs_a)
        series_b = oracles.rank_series("in-degree", pairs_b)
        args = (series_a, series_b, "books", "blogs")
        assert written(render_rank_svg, *args) == written(oracles.rank_svg, *args)


    def test_rank_svg_x_cells_follow_the_axis_length(self):
        # lengths n, m, k, n: 3 and 8 share an x span of one decade, the
        # third length evicts the first from the two-entry cache, and no
        # entry may be served for another length
        for length in (3, 8, 40, 3):
            series = oracles.rank_series(
                "in-degree", [(f"w{i}", i // 2 + 1) for i in range(length)]
            )
            args = (series, series, "a", "b")
            assert written(render_rank_svg, *args) == written(oracles.rank_svg, *args)

    @settings(max_examples=200, deadline=None)
    @given(_SUMMARY_ROWS)
    @example([("", GlobalMetrics(*range(9))), ('a,"b"', GlobalMetrics(*[None] * 9))])
    def test_summary_csv(self, rows):
        assert written(write_summary_csv, rows) == written(oracles.summary_csv, rows)

    @settings(max_examples=200, deadline=None)
    @given(_NODE_RECORDS)
    @example(_MANY_RECORDS)
    def test_node_metrics_csv(self, records):
        assert written(write_node_metrics_csv, records) == written(
            oracles.node_metrics_csv, records
        )


def _stepped_series(measure: str, length: int, step: int):
    """A series of `length` rows whose value drops every `step` rows."""
    pairs = [(f"w{i:03d}", length // step - i // step + 1) for i in range(length)]
    return oracles.rank_series(measure, pairs)


class TestRankCells:
    """Every writer takes its rank cells from one table, grown on demand."""

    @pytest.fixture(autouse=True)
    def cold_table(self, monkeypatch):
        monkeypatch.setattr(ranking, "_RANK_CELLS", ())

    def test_a_shorter_series_between_longer_ones(self):
        for length in (40, 7, 90):
            series = _stepped_series("in-degree", length, 3)
            other = _stepped_series("in-degree", length // 2, 5)
            assert written(export_rank_csv, series) == written(oracles.rank_csv, series)
            for pair in ((series, other), (other, series)):
                assert written(export_pair_csv, *pair) == written(
                    oracles.pair_csv, *pair
                )

    def test_an_earlier_table_is_never_changed(self):
        short = ranking._rank_cells(5)
        assert ranking._rank_cells(3) is short
        longer = ranking._rank_cells(12)
        assert short == ("1", "2", "3", "4", "5")
        assert longer == tuple(map(str, range(1, 13)))

    def test_threads_share_a_cold_table(self):
        # four lengths, so the threads race to grow the table past each
        # other's needs while the others slice it
        jobs = []
        for length in (300, 17, 900, 120):
            series = _stepped_series("out-strength", length, 7)
            other = _stepped_series("out-strength", length // 3, 2)
            jobs.append((series, other))
        expected = [
            (written(oracles.rank_csv, series), written(oracles.pair_csv, series, other))
            for series, other in jobs
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ranking._RANK_CELLS = ()
                barrier = threading.Barrier(len(jobs))

                def write(job):
                    series, other = job
                    barrier.wait(timeout=60)
                    return (
                        written(export_rank_csv, series),
                        written(export_pair_csv, series, other),
                    )

                with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                    results = list(pool.map(write, jobs, timeout=60))
                assert results == expected
        finally:
            sys.setswitchinterval(interval)


def assert_network_series_match_rank_order(net):
    """Each measure's series is the oracle's order of the table's column,
    zeros dropped, with the same value objects and one run per value."""
    table = NodeMetrics(None, *_side_table(net), None, None)
    for measure in MEASURES:
        column = getattr(table, measure.replace("-", "_"))
        pairs = [(word, value or None) for word, value in zip(net.words, column)]
        series = network_rank_series(net, measure)
        assert_matches_rank_order(series, pairs)
        values = series.values
        changes = [i for i in range(1, len(values)) if values[i - 1] != values[i]]
        assert list(series.ends) == changes + [len(values)] * bool(values)


class TestNetworkSeriesOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(60)]  # "w10" sorts before "w2"
        net = oracles.random_network(rng, max_nodes=60, max_weight=4, words=words)
        assert_network_series_match_rank_order(net)

    def test_equal_ratios_of_distinct_pairs_share_a_run(self):
        # out-selectivities 2/1, 4/2 and 6/3 are equal, each its own object
        net = from_edge_list([
            ("c", "x", 2),
            ("b", "x", 3), ("b", "y", 1),
            ("a", "x", 1), ("a", "y", 2), ("a", "z", 3),
            ("d", "x", 1),
        ])
        series = network_rank_series(net, "out-selectivity")
        assert series.words == ("a", "b", "c", "d")
        assert series.values == (2, 2, 2, 1)
        assert len({id(value) for value in series.values[:3]}) == 3
        assert series.ends == (3, 4)
        assert_network_series_match_rank_order(net)

    def test_strengths_where_floats_collide(self):
        # 2**53 + 1 rounds to the float 2**53, as a strength and a ratio
        big = 2**53
        assert float(big + 1) == float(big) == float(Fraction(big + 1, 1))
        net = from_edge_list([
            ("a", "x", big + 1),
            ("b", "x", big),
            ("c", "x", big), ("c", "y", 2),
            ("d", "x", big), ("d", "y", 1),
            ("e", "x", big - 1),
        ])
        series = network_rank_series(net, "out-strength")
        assert series.words == ("c", "a", "d", "b", "e")
        assert series.ends == (1, 3, 4, 5)
        selectivity = network_rank_series(net, "out-selectivity")
        assert selectivity.words == ("a", "b", "e", "c", "d")
        assert_network_series_match_rank_order(net)

    def test_strengths_past_float_range(self):
        huge = 10**400
        net = from_edge_list([
            ("a", "x", huge),
            ("b", "x", huge + 1),
            ("c", "x", huge), ("c", "y", huge),
            ("d", "x", 2 * huge - 1), ("d", "y", 1),
        ])
        series = network_rank_series(net, "out-strength")
        assert series.words == ("c", "d", "b", "a")
        # 10**400 three ways: huge / 1, 2 * huge / 2 twice
        selectivity = network_rank_series(net, "out-selectivity")
        assert selectivity.words == ("b", "a", "c", "d")
        assert selectivity.ends == (1, 4)
        assert_network_series_match_rank_order(net)


class TestNetworkSeries:
    def test_zero_degree_nodes_are_absent(self):
        net = from_edge_list([("a", "b", 2), ("c", "b", 1)])
        in_series = network_rank_series(net, "in-degree")
        assert [e.word for e in in_series.entries] == ["b"]
        out_series = network_rank_series(net, "out-strength")
        assert {e.word for e in out_series.entries} == {"a", "c"}

    def test_series_length_counts_active_nodes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=40)
            expected = oracles.degree_family(net)
            for side in ("in", "out"):
                active = sum(1 for k in expected[f"{side}_degree"] if k > 0)
                for kind in ("degree", "strength", "selectivity"):
                    series = network_rank_series(net, f"{side}-{kind}")
                    assert len(series) == active
                    column = expected[f"{side}_{kind}"]
                    assert {e.word: e.value for e in series.entries} == {
                        word: value
                        for word, value in zip(net.words, column)
                        if value not in (0, None)
                    }

    def test_values_non_increasing(self):
        rng = np.random.default_rng(14)
        net = oracles.random_network(rng, max_nodes=40)
        for measure in MEASURES:
            values = [e.value for e in network_rank_series(net, measure).entries]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_all_six_series(self, two_node_net):
        series = all_rank_series(two_node_net)
        assert tuple(series) == MEASURES

    def test_series_keep_no_object_per_entry(self, zipf_sentences):
        net = build_network(zipf_sentences)
        _side_table(net)  # the values the series share, not measured
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = all_rank_series(net)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = sum(map(len, series.values()))
        assert entries > 20_000
        # a word and a value reference per entry take 16 bytes, a run's
        # tuples ~2 more here; a (word, value) tuple per entry adds ~48
        assert retained < 32 * entries

    def test_excluded_fraction_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            net = oracles.random_network(rng, max_nodes=40)
            expected = oracles.degree_family(net)
            sides = zip(expected["in_degree"], expected["out_degree"])
            excluded = sum(1 for k_in, k_out in sides if 0 in (k_in, k_out))
            assert excluded_fraction(net) == Fraction(excluded, net.n_nodes)

    def test_excluded_fraction(self):
        # b has both sides, a lacks in, c lacks out, d lacks both
        net = build_network([["a", "b", "c"], ["d"]])
        assert excluded_fraction(net) == Fraction(3, 4)

    def test_excluded_fraction_of_empty_network_raises(self):
        with pytest.raises(ValueError, match="empty network"):
            excluded_fraction(build_network([]))

    def test_network_series_refuses_unknown_measure(self, complete_triad):
        with pytest.raises(ValueError, match="unknown measure 'bogus'"):
            network_rank_series(complete_triad, "bogus")


class TestComparePair:
    """A comparison of two texts is one profile per network and a size check."""

    def test_profile_holds_the_measures_of_its_network(self, complete_triad):
        for sample in (None, 2):
            profile = profile_network(complete_triad, sample)
            assert profile.summary == global_summary(complete_triad, sample)
            assert profile.series == all_rank_series(complete_triad)
            assert profile.excluded == excluded_fraction(complete_triad)

    def test_size_gap_warns(self):
        assert size_mismatch(10, 2) == (
            "network sizes differ by 8 nodes (10 vs 2); rank series "
            "are not directly comparable"
        )
        assert size_mismatch(10, 7) is not None

    def test_close_sizes_stay_quiet(self):
        assert size_mismatch(10, 8) is None  # a gap of exactly a fifth
        assert size_mismatch(0, 0) is None

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            profile_network(build_network([]))


def _past_float_range(sign: int, digits: int, scale: int, exponent: int) -> Fraction:
    return sign * Fraction(digits, scale) * Fraction(10) ** exponent


# nonzero values beyond float max or below its smallest normal number, with
# 6-digit mantissas that round to even, carry into a new decade, or neither
_PAST_FLOAT_RANGE = st.builds(
    _past_float_range,
    st.sampled_from((1, -1)),
    st.one_of(
        st.integers(1, 10**15),
        st.sampled_from((2 * 10**6 - 1, 2 * 10**6 - 3, 2 * 10**5 + 1)),
    ),
    st.one_of(st.integers(1, 10**15), st.sampled_from((2, 2 * 10**6))),
    st.one_of(st.integers(290, 2_000), st.integers(-2_000, -290)),
).filter(lambda value: not sys.float_info.min <= abs(value) <= sys.float_info.max)


class TestValueFormatting:
    def test_rendering_rules(self):
        assert format_value(None) == ""
        assert format_value(3) == "3"
        assert format_value(Fraction(8, 4)) == "2"
        assert format_value(Fraction(7, 4)) == "1.75"
        assert format_value(Fraction(5, 3)) == "1.66667"
        assert format_value(Fraction(1, 1024)) == "0.000976562"

    def test_large_integral_values_stay_plain(self):
        assert format_value(Fraction(1234567, 1)) == "1234567"

    def test_values_beyond_float_range_render_exactly(self):
        assert format_value(Fraction(10**400 + 1, 2)) == "5e+399"
        assert format_value(Fraction(10**400, 3)) == "3.33333e+399"

    def test_integers_past_the_digit_limit_print_every_digit(self):
        # str() refuses ints of more than 4,300 digits by default
        ones = (10**5_000 - 1) // 9  # 5,000 ones
        assert format_value(ones) == "1" * 5_000
        assert format_value(Fraction(-(10**5_000))) == "-1" + "0" * 5_000
        assert format_value(10**1_200 + 7) == "1" + "0" * 1_199 + "7"
        assert format_value(Fraction(10**5_000, 3)) == "3.33333e+4999"

    def test_values_below_float_range_render_exactly(self):
        # float() gives 0.0 here, which printed as "0" and "-0"
        assert format_value(Fraction(1, 10**400)) == "1e-400"
        assert format_value(Fraction(-3, 10**400)) == "-3e-400"
        # a subnormal float keeps too few bits for 6 digits
        assert format_value(Fraction(1234567, 10**329)) == "1.23457e-323"

    def test_bools_print_as_words(self):
        assert (format_value(True), format_value(False)) == ("True", "False")

    @settings(max_examples=300, deadline=None)
    @given(_PAST_FLOAT_RANGE)
    @example(Fraction(2 * 10**6 - 1, 2) * 10**400)  # 999999.5e400: a carry
    @example(-Fraction(2 * 10**6 - 1, 2) / Fraction(10) ** 420)
    @example(Fraction(2 * 10**6 - 3, 2) * 10**400)  # 999998.5e400: to even
    def test_values_past_float_range_match_the_oracle(self, value):
        assert format_value(value) == oracles.format_value(value)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(10**4_300, 10**6_000).flatmap(
            lambda n: st.sampled_from((n, -n, Fraction(n), Fraction(-n)))
        )
    )
    def test_integers_past_the_digit_limit_match_the_oracle(self, value):
        assert format_value(value) == oracles.format_value(value)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    def test_the_lowest_digit_limit_does_not_cut_an_int(self):
        strength = 12 * (10**4_300 - 1)  # 4,302 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = format_value(strength)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == "11" + "9" * 4_298 + "88"


class TestCsvExports:
    def test_rank_csv_bytes(self, tmp_path):
        series = oracles.rank_series("in-degree", [("a", 3), ("b", 1), ("c", 2)])
        path = tmp_path / "series.csv"
        export_rank_csv(series, path)
        assert path.read_bytes() == b"rank,value,word\n1,3,a\n2,2,c\n3,1,b\n"

    def test_empty_series_is_header_only(self, tmp_path):
        path = tmp_path / "series.csv"
        export_rank_csv(oracles.rank_series("in-degree", []), path)
        assert path.read_bytes() == b"rank,value,word\n"

    def test_three_entries_make_four_lines(self, tmp_path):
        series = oracles.rank_series("out-degree", [("a", 3), ("b", 1), ("c", 2)])
        path = tmp_path / "series.csv"
        export_rank_csv(series, path)
        assert len(path.read_text("utf-8").splitlines()) == 4

    def test_re_export_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(19)
        net = oracles.random_network(rng, max_nodes=30)
        series = network_rank_series(net, "out-selectivity")
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        export_rank_csv(series, first)
        export_rank_csv(series, second)
        assert first.read_bytes() == second.read_bytes()

    def test_summary_csv_schema_and_empty_cells(self, tmp_path):
        gm = global_summary(build_network([["solo"]]))
        path = tmp_path / "summary.csv"
        write_summary_csv([("solo", gm)], path)
        header, row = path.read_text("utf-8").splitlines()
        assert header == (
            "label,N,K,avg_degree,avg_shortest_path,diameter,"
            "avg_clustering,density,components,largest_component"
        )
        assert row == "solo,1,0,0,,,0,,1,1"

    def test_summary_csv_lists_both_labels(self, tmp_path, complete_triad):
        summary = global_summary(complete_triad)
        path = tmp_path / "summary.csv"
        write_summary_csv([("first", summary), ("second", summary)], path)
        lines = path.read_text("utf-8").splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("first,") and lines[2].startswith("second,")

    def test_node_metrics_csv(self, tmp_path, two_node_net):
        path = tmp_path / "nodes.csv"
        write_node_metrics_csv(all_node_metrics(two_node_net), path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0] == (
            "word,in_degree,out_degree,in_strength,out_strength,"
            "in_selectivity,out_selectivity,clustering,avg_distance"
        )
        assert lines[1] == "a,1,1,1,2,1,2,0,0.5"

    def test_pair_csv_alignment_and_ratio(self, tmp_path):
        left = oracles.rank_series("in-degree", [("a", 3), ("b", 2)])
        right = oracles.rank_series("in-degree", [("x", 2)])
        path = tmp_path / "pair.csv"
        export_pair_csv(left, right, path)
        assert path.read_text("utf-8").splitlines() == [
            "rank,value_a,value_b,ratio_a_over_b",
            "1,3,2,1.5",
            "2,2,,",
        ]

    def test_pair_csv_zero_denominator_gives_empty_ratio(self, tmp_path):
        left = oracles.rank_series("in-strength", [("a", 3), ("b", 2), ("c", 0)])
        right = oracles.rank_series(
            "in-strength", [("x", 2), ("y", 0), ("z", Fraction(0))]
        )
        path = tmp_path / "pair.csv"
        export_pair_csv(left, right, path)
        assert path.read_text("utf-8").splitlines() == [
            "rank,value_a,value_b,ratio_a_over_b",
            "1,3,2,1.5",
            "2,2,0,",
            "3,0,0,",
        ]

    def test_pair_csv_ratio_below_float_range(self, tmp_path):
        small, huge = (
            network_rank_series(from_edge_list([("a", "b", weight)]), "out-strength")
            for weight in (1, 10**400)
        )
        path = tmp_path / "pair.csv"
        export_pair_csv(small, huge, path)
        assert path.read_text("utf-8").splitlines()[1] == f"1,1,1{'0' * 400},1e-400"

    @pytest.mark.parametrize("writer", ["rank", "summary", "nodes", "svg"])
    def test_a_word_utf8_cannot_hold_leaves_no_file(self, tmp_path, writer):
        word = "\ud800"  # a lone surrogate
        net = from_edge_list([("a", word, 1)])
        path = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            if writer == "rank":
                export_rank_csv(network_rank_series(net, "in-degree"), path)
            elif writer == "summary":
                write_summary_csv([(word, global_summary(net))], path)
            elif writer == "nodes":
                write_node_metrics_csv(all_node_metrics(net), path)
            else:
                series = network_rank_series(net, "in-degree")
                render_rank_svg(series, series, word, "b", path)
        assert not path.exists()

    def test_pair_csv_requires_matching_measures(self, tmp_path):
        left = oracles.rank_series("in-degree", [("a", 1)])
        right = oracles.rank_series("out-degree", [("a", 1)])
        with pytest.raises(ValueError):
            export_pair_csv(left, right, tmp_path / "pair.csv")


class _StoppingFile:
    """A text file that writes its first `limit` characters, then raises.

    The characters before the stop are flushed to disk, as a buffer that
    fills would flush them, so the stop lands partway through the file.
    """

    def __init__(self, file, limit: int, error: type[BaseException]) -> None:
        self._file, self._left, self._error = file, limit, error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._file.close()

    def write(self, text: str) -> int:
        if len(text) < self._left:
            self._left -= len(text)
            return self._file.write(text)
        self._file.write(text[: self._left])
        self._file.flush()
        raise self._error


def _writers(net):
    """Each writer of the package, as a call that writes one file for `net`."""
    series = network_rank_series(net, "in-strength")
    return {
        "edge list": lambda path: write_edge_list(net, path),
        "rank": lambda path: export_rank_csv(series, path),
        "pair": lambda path: export_pair_csv(series, series, path),
        "svg": lambda path: render_rank_svg(series, series, "a", "b", path),
        "summary": lambda path: write_summary_csv([("a", global_summary(net))], path),
        "nodes": lambda path: write_node_metrics_csv(all_node_metrics(net), path),
    }


class TestWholeOrNotAtAll:
    """A writer that fails partway leaves its name as it found it."""

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "old"])
    @pytest.mark.parametrize(
        "error", [KeyboardInterrupt, OSError], ids=["KeyboardInterrupt", "OSError"]
    )
    @pytest.mark.parametrize(
        "writer", ["edge list", "rank", "pair", "svg", "summary", "nodes"]
    )
    def test_an_exception_partway_leaves_the_old_bytes_or_no_file(
        self, tmp_path, monkeypatch, writer, error, old
    ):
        edges = [("a", "b", 3), ("b", "c", 1), ("c", "a", 2), ("a", "c", 1)]
        write = _writers(from_edge_list(edges))[writer]
        whole = tmp_path / "whole"
        write(whole)
        limit = len(whole.read_text(encoding="utf-8")) // 2
        path = tmp_path / "out"
        if old is not None:
            path.write_bytes(old)

        def stopping(*args, **kwargs):  # every writer opens through network
            return _StoppingFile(open(*args, **kwargs), limit, error)

        with monkeypatch.context() as patch:
            patch.setattr(network, "open", stopping, raising=False)
            with pytest.raises(error):
                write(path)
        assert (path.read_bytes() if path.exists() else None) == old
        assert list(tmp_path.glob(".coocnet-*.new")) == []


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "old"])
@pytest.mark.parametrize(
    "writer", ["edge list", "rank", "pair", "svg", "summary", "nodes"]
)
def test_every_writer_writes_a_name_of_255_bytes(tmp_path, writer, old):
    # the system's limit on most; the staging name stays 29 bytes long
    edges = [("a", "b", 3), ("b", "c", 1), ("c", "a", 2), ("a", "c", 1)]
    write = _writers(from_edge_list(edges))[writer]
    whole, path = tmp_path / "whole", tmp_path / ("n" * 255)
    write(whole)
    if old is not None:
        path.write_bytes(old)
    write(path)
    assert path.read_bytes() == whole.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, "whole"]


_POLYLINE = "{http://www.w3.org/2000/svg}polyline"
# positive values from 10**-500 to ~10**503, past float range at both ends
_POSITIVE_PAIRS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "ab", "ba", "é"]),
        st.builds(
            lambda digits, exponent: digits * Fraction(10) ** exponent,
            st.integers(1, 999),
            st.integers(-500, 500),
        ),
    ),
    max_size=20,
)


def y_axis_labels(root: ET.Element) -> list[str]:
    """The y axis's decade labels, bottom to top."""
    return [
        text.text
        for text in root.iter("{http://www.w3.org/2000/svg}text")
        if text.get("text-anchor") == "end"
    ]


class TestSvgRendering:
    def _series_pair(self):
        rng = np.random.default_rng(23)
        net_a = oracles.random_network(rng, max_nodes=30)
        net_b = oracles.random_network(rng, max_nodes=30)
        return (
            network_rank_series(net_a, "in-degree"),
            network_rank_series(net_b, "in-degree"),
        )

    def test_deterministic_bytes(self, tmp_path):
        series_a, series_b = self._series_pair()
        one = tmp_path / "one.svg"
        two = tmp_path / "two.svg"
        render_rank_svg(series_a, series_b, "books", "blogs", one)
        render_rank_svg(series_a, series_b, "books", "blogs", two)
        assert one.read_bytes() == two.read_bytes()

    def test_well_formed_with_two_polylines(self, tmp_path):
        series_a, series_b = self._series_pair()
        path = tmp_path / "plot.svg"
        render_rank_svg(series_a, series_b, "books", "blogs", path)
        root = ET.fromstring(path.read_text("utf-8"))
        tag = "{http://www.w3.org/2000/svg}polyline"
        assert len(root.findall(f".//{tag}")) == 2

    def test_labels_are_escaped(self, tmp_path):
        series_a, series_b = self._series_pair()
        path = tmp_path / "plot.svg"
        render_rank_svg(series_a, series_b, "a<b", "x&y", path)
        ET.fromstring(path.read_text("utf-8"))

    def test_mismatched_measures_rejected(self, tmp_path):
        left = oracles.rank_series("in-degree", [("a", 1)])
        right = oracles.rank_series("out-degree", [("a", 1)])
        with pytest.raises(ValueError):
            render_rank_svg(left, right, "a", "b", tmp_path / "plot.svg")

    @pytest.mark.parametrize(
        "measure, weights",
        # an int out-strength, and an out-selectivity of (10**400 + 1) / 2
        [("out-strength", (10**400, 2)), ("out-selectivity", (10**400, 1))],
    )
    def test_values_past_float_range_are_plotted(self, tmp_path, measure, weights):
        net = from_edge_list([("a", "b", weights[0]), ("a", "c", weights[1])])
        series = network_rank_series(net, measure)
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        root = ET.fromstring(path.read_text("utf-8"))
        tag = "{http://www.w3.org/2000/svg}polyline"
        tops = [line.get("points").split(",")[1] for line in root.iter(tag)]
        assert tops == ["22.00", "22.00"]  # the top value spans the y axis

    def test_values_past_the_digit_limit_are_plotted(self, tmp_path):
        # twelve weights of 4,300 nines: an out-strength of 4,302 digits
        weight = int("9" * 4_300)
        net = from_edge_list([("a", f"b{i}", weight) for i in range(12)])
        series = network_rank_series(net, "out-strength")
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        svg = path.read_text("utf-8")
        assert svg.count("<polyline") == 2
        assert f">1{'0' * 4_301}</text>" in svg  # the tick of the top decade

    def test_a_top_value_past_the_digit_limit_gives_a_small_plot(self, tmp_path):
        weight = int("9" * 4_300)
        net = from_edge_list([("a", f"b{i}", weight) for i in range(12)])
        series = network_rank_series(net, "out-strength")
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        svg = path.read_text("utf-8")
        assert svg.count('text-anchor="end"') == 10  # not one per decade, 4,302
        assert path.stat().st_size < 64_000

    def test_a_top_value_past_float_range_gets_at_most_10_y_labels(self, tmp_path):
        net = from_edge_list([("a", "b", 10**400), ("a", "c", 2)])
        series = network_rank_series(net, "out-strength")
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        root = ET.fromstring(path.read_text("utf-8"))
        y_labels = y_axis_labels(root)
        # every 41st decade, down from the top one
        assert y_labels == [f"1{'0' * decade}" for decade in range(31, 401, 41)]
        y_ticks = [
            line
            for line in root.iter("{http://www.w3.org/2000/svg}line")
            if line.get("x2") == "62.00" and line.get("x1") == "57.00"
        ]
        assert len(y_ticks) == len(y_labels) == 10

    def test_a_value_below_float_range_is_plotted(self, tmp_path):
        series = oracles.rank_series("in-selectivity", [("a", Fraction(1, 10**400))])
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        root = ET.fromstring(path.read_text("utf-8"))
        # the y axis starts at the value's decade, 10**-400, on the x axis
        points = [line.get("points") for line in root.iter(_POLYLINE)]
        assert points == ["62.00,428.00", "62.00,428.00"]
        # 401 decades up to 10**1: every 41st, down from the top one
        assert y_axis_labels(root) == [
            "1e-368", "1e-327", "1e-286", "1e-245", "1e-204",
            "1e-163", "1e-122", "1e-81", "1e-40", "10",
        ]

    def test_values_below_1_start_the_y_axis_at_their_decade(self, tmp_path):
        series = oracles.rank_series(
            "in-selectivity", [("a", Fraction(1, 2)), ("b", Fraction(3, 2))]
        )
        path = tmp_path / "plot.svg"
        render_rank_svg(series, series, "a", "b", path)
        root = ET.fromstring(path.read_text("utf-8"))
        assert y_axis_labels(root) == ["0.1", "1", "10"]
        # two decades from 10**-1 at y = 428.00, 203 units each
        points = [line.get("points") for line in root.iter(_POLYLINE)]
        assert points == ["62.00,189.25 230.58,286.11"] * 2

    @settings(max_examples=200, deadline=None)
    @given(_POSITIVE_PAIRS, _POSITIVE_PAIRS)
    @example([("a", Fraction(1, 2)), ("b", Fraction(3, 2))], [])
    @example([("a", Fraction(1, 10**400))], [("b", 10**400)])
    def test_every_point_lies_between_the_top_margin_and_the_x_axis(
        self, pairs_a, pairs_b
    ):
        series_a = oracles.rank_series("in-selectivity", pairs_a)
        series_b = oracles.rank_series("in-selectivity", pairs_b)
        root = ET.fromstring(written(render_rank_svg, series_a, series_b, "a", "b"))
        ys = [
            float(point.split(",")[1])
            for line in root.iter(_POLYLINE)
            for point in line.get("points").split()
        ]
        assert len(ys) == len(series_a) + len(series_b)
        assert all(22.0 <= y <= 428.0 for y in ys)
        assert len(y_axis_labels(root)) <= 10

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_zero_value_rejected_by_name(self, tmp_path, side):
        positive = oracles.rank_series("out-strength", [("a", 4), ("b", 1)])
        with_zero = oracles.rank_series("out-strength", [("a", 4), ("b", 0)])
        series = (with_zero, positive) if side == "a" else (positive, with_zero)
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="'out-strength'.*needs positive values"):
            render_rank_svg(*series, "a", "b", path)
        assert not path.exists()

import contextlib
import errno
import filecmp
import gc
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocnet import cli, metrics, ranking
from coocnet.cli import main, sanitize_label

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_text(tmp_path: Path, name: str, content: str) -> Path:
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


def snapshot(directory: Path) -> dict[str, bytes]:
    """The name and bytes of each file in a directory."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestLabels:
    def test_sanitize_keeps_word_characters(self):
        assert sanitize_label("blog-2024_a") == "blog-2024_a"

    def test_sanitize_replaces_the_rest(self):
        assert sanitize_label("my file (v2).txt") == "my_file__v2__txt"

    def test_sanitize_never_returns_empty(self):
        assert sanitize_label("***") == "___"
        assert sanitize_label("") == "network"


class TestBuild:
    def test_two_sentence_file(self, tmp_path, capsys):
        text = write_text(tmp_path, "mini.txt", "a b. a b.")
        code, out, err = run(capsys, "build", str(text), "--out", str(tmp_path))
        assert code == 0 and err == ""
        assert "N=2 K=1" in out
        assert (tmp_path / "mini.edges.tsv").read_bytes() == b"a\tb\t2\n"

    def test_empty_file(self, tmp_path, capsys):
        text = write_text(tmp_path, "empty.txt", "")
        code, out, _ = run(capsys, "build", str(text), "--out", str(tmp_path))
        assert code == 0
        assert "N=0 K=0" in out
        assert (tmp_path / "empty.edges.tsv").read_bytes() == b""

    def test_punctuation_only_file(self, tmp_path, capsys):
        text = write_text(tmp_path, "punct.txt", ",;: (!) ...")
        code, _, _ = run(capsys, "build", str(text), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "punct.edges.tsv").read_bytes() == b""

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "nope.txt" in err

    def test_invalid_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok so far \xff not utf8")
        code, _, err = run(capsys, "build", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "byte offset" in err

    def test_missing_second_input_writes_nothing(self, tmp_path, capsys):
        good = write_text(tmp_path, "good.txt", "a b.")
        out = tmp_path / "d"
        code, _, err = run(
            capsys, "build", str(good), str(tmp_path / "missing.txt"), "--out", str(out)
        )
        assert code == 1
        assert "missing.txt" in err
        assert not out.exists()

    def test_missing_second_input_restores_earlier_outputs(self, tmp_path, capsys):
        good = write_text(tmp_path, "good.txt", "x y. y z.")
        out = tmp_path / "d"
        assert run(capsys, "build", str(good), "--out", str(out))[0] == 0
        before = snapshot(out)
        good.write_text("a b.", encoding="utf-8")  # overwritten, then restored
        code, stdout, err = run(
            capsys, "build", str(good), str(tmp_path / "missing.txt"), "--out", str(out)
        )
        assert code == 1 and "missing.txt" in err
        assert "good.edges.tsv" in stdout
        assert snapshot(out) == before

    def test_holds_one_network_at_a_time(self, tmp_path, capsys, monkeypatch):
        texts = [write_text(tmp_path, f"t{i}.txt", "a b c. c a.") for i in range(3)]
        built = []  # a weak reference to each network built so far
        alive = []  # at the start of each build, how many are still held
        original = cli.build_network

        def tracked(sentences):
            alive.append(sum(1 for ref in built if ref() is not None))
            net = original(sentences)
            built.append(weakref.ref(net))
            return net

        monkeypatch.setattr(cli, "build_network", tracked)
        code, _, _ = run(capsys, "build", *map(str, texts), "--out", str(tmp_path))
        assert code == 0
        assert alive == [0, 0, 0]

    def test_equal_labels_rejected_before_any_write(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        write_text(first, "x.txt", "a b.")
        write_text(second, "x.txt", "c d.")
        out = tmp_path / "out"
        out.mkdir()
        inputs = [str(first / "x.txt"), str(second / "x.txt")]
        code, stdout, err = run(capsys, "build", *inputs, "--out", str(out))
        assert code == 1
        assert err == "error: labels must differ, two inputs are 'x'\n"
        assert stdout == ""
        assert list(out.iterdir()) == []

    def test_empty_config_path_named(self, tmp_path, capsys):
        text = write_text(tmp_path, "t.txt", "a b.")
        code, _, err = run(
            capsys, "build", str(text), "--out", str(tmp_path), "--config", ""
        )
        assert code == 1
        assert err == "error: config path is empty\n"

    def test_non_utf8_config_named(self, tmp_path, capsys):
        text = write_text(tmp_path, "t.txt", "a b.")
        conf = tmp_path / "bad.cfg"
        conf.write_bytes(b"terminators = \xff\n")
        code, _, err = run(
            capsys, "build", str(text), "--out", str(tmp_path), "--config", str(conf)
        )
        assert code == 1
        assert err == f"error: {conf}: invalid UTF-8 at byte offset 14\n"

    def test_config_changes_segmentation(self, tmp_path, capsys):
        text = write_text(tmp_path, "t.txt", "a b; a b")
        conf = write_text(tmp_path, "p.conf", "terminators = ;\n")
        out_a = tmp_path / "default"
        out_b = tmp_path / "custom"
        run(capsys, "build", str(text), "--out", str(out_a))
        run(capsys, "build", str(text), "--out", str(out_b), "--config", str(conf))
        # default reads one sentence (b -> a edge); custom splits at ";"
        assert (out_a / "t.edges.tsv").read_bytes() == b"a\tb\t2\nb\ta\t1\n"
        assert (out_b / "t.edges.tsv").read_bytes() == b"a\tb\t2\n"


class TestBuildEdgelessWords:
    """Words without an edge are not in the edge list; build and compare say
    how many."""

    def test_one_word_sentence_is_named_on_stderr(self, tmp_path, capsys):
        text = write_text(tmp_path, "t.txt", "the cat sat. dog. the dog ran. bird.")
        code, out, err = run(capsys, "build", str(text), "--out", str(tmp_path))
        assert code == 0
        assert out == f"t: N=6 K=4\nwrote {tmp_path / 't.edges.tsv'}\n"
        assert err == (
            "warning: t: 1 of 6 words have no edge and are not in the edge list\n"
        )

    def test_one_line_per_affected_input(
        self, tmp_path, capsys, formal_text_path, informal_text_path
    ):
        # three words of the informal fixture occur only as one-word
        # sentences ("Noted.", ...); the formal fixture has none
        code, out, err = run(
            capsys,
            "build",
            str(formal_text_path),
            str(informal_text_path),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert err == (
            "warning: informal_excerpt: 3 of 1475 words have no edge and are "
            "not in the edge list\n"
        )
        assert re.fullmatch(
            r"formal_excerpt: N=\d+ K=\d+\n"
            r"wrote .*formal_excerpt\.edges\.tsv\n"
            r"informal_excerpt: N=1475 K=\d+\n"
            r"wrote .*informal_excerpt\.edges\.tsv\n",
            out,
        )

    def test_compare_gives_the_same_line(
        self, tmp_path, capsys, formal_text_path, informal_text_path
    ):
        code, out, err = run(
            capsys,
            "compare",
            str(formal_text_path),
            str(informal_text_path),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert err == (
            "warning: informal_excerpt: 3 of 1475 words have no edge and are "
            "not in the edge list\n"
        )
        # stdout names the files, then prints the two summaries
        lines = out.splitlines()
        written = [line for line in lines if line.startswith("wrote ")]
        assert lines[: len(written)] == written and len(written) == 21
        assert written[:3] == [
            f"wrote {tmp_path / name}"
            for name in (
                "formal_excerpt.edges.tsv", "informal_excerpt.edges.tsv", "summary.csv"
            )
        ]
        assert lines[len(written)] == "network: formal_excerpt"
        assert "network: informal_excerpt" in lines
        assert len(lines) == len(written) + 22

    def test_formal_fixture_gives_no_line(self, tmp_path, capsys, formal_text_path):
        argv = ["build", str(formal_text_path), "--out", str(tmp_path)]
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""

    def test_edge_list_summary_differs_where_the_readme_says(self, tmp_path, capsys):
        # a triangle, a b c, and the word of a one-word sentence
        text = write_text(tmp_path, "t.txt", "a b c a. solo.")
        run(capsys, "build", str(text), "--out", str(tmp_path))
        run(capsys, "analyze", str(text), "--label", "text", "--out", str(tmp_path))
        run(capsys, "analyze", str(tmp_path / "t.edges.tsv"), "--label", "edges",
            "--out", str(tmp_path))
        header, text_row = (tmp_path / "text.summary.csv").read_text().split()
        edges_row = (tmp_path / "edges.summary.csv").read_text().split()[1]
        columns = zip(header.split(","), text_row.split(","), edges_row.split(","))
        differing = [name for name, a, b in columns if a != b]
        assert differing == [
            "label", "N", "avg_degree", "avg_clustering", "density", "components"
        ]


class TestAnalyze:
    def test_triangle_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "triangle.tsv"
        edges.write_text(
            "a\tb\t1\nb\ta\t1\nb\tc\t1\nc\tb\t1\na\tc\t1\nc\ta\t1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "triangle.summary.csv").read_text().splitlines()
        row = summary[1].split(",")
        header = summary[0].split(",")
        assert row[header.index("avg_clustering")] == "1"
        assert row[header.index("density")] == "1"
        assert row[header.index("avg_shortest_path")] == "1"
        assert row[header.index("diameter")] == "1"
        assert "average clustering" in out

    def test_single_edge_list(self, tmp_path, capsys):
        edges = tmp_path / "pair.tsv"
        edges.write_text("a\tb\t1\n", encoding="utf-8")
        code, _, _ = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "pair.summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        row = summary[1].split(",")
        assert row[header.index("avg_shortest_path")] == "1"
        assert row[header.index("diameter")] == "1"

    def test_an_empty_input_is_named(self, tmp_path, capsys):
        edges = write_text(tmp_path, "empty.tsv", "")
        code, _, err = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 1
        assert err == (
            f"error: {edges}: global summary of an empty network is undefined\n"
        )

    def test_writes_node_metrics_table(self, tmp_path, capsys):
        edges = tmp_path / "pair.tsv"
        edges.write_text("a\tb\t2\n", encoding="utf-8")
        code, _, _ = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "pair.nodes.csv").read_text().splitlines()
        assert lines[0].startswith("word,in_degree")
        assert len(lines) == 3

    def test_malformed_line_reported(self, tmp_path, capsys):
        edges = tmp_path / "bad.tsv"
        edges.write_text("a\tb\t1\nb\tc\t1\nbroken line\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 1
        assert "line 3" in err

    def test_crlf_weight_reported_without_traceback(self, tmp_path, capsys):
        edges = tmp_path / "crlf.tsv"
        edges.write_bytes(b"a\tb\t1\r\nb\ta\t1\r\n")
        code, _, err = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 1
        assert "line 1" in err
        assert "Traceback" not in err

    def test_bad_word_reported_with_file_and_line(self, tmp_path, capsys):
        edges = tmp_path / "spacey.tsv"
        edges.write_text("a\tb\t1\nx y\tb\t1\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(edges), "--out", str(tmp_path))
        assert code == 1
        assert err == f"error: {edges}: line 2: invalid word 'x y'\n"

    def test_empty_label_names_outputs_network(self, tmp_path, capsys):
        text = write_text(tmp_path, "x.txt", "a b. b c.")
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "analyze", str(text), "--label", "", "--out", str(out)
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "network.nodes.csv",
            "network.summary.csv",
        ]

    def test_text_input_via_format_flag(self, tmp_path, capsys):
        text = write_text(tmp_path, "story.dat", "a b. b c.")
        code, _, _ = run(
            capsys,
            "analyze", str(text), "--format", "text", "--out", str(tmp_path),
            "--label", "story",
        )
        assert code == 0
        assert (tmp_path / "story.summary.csv").exists()

    def test_failed_write_removes_earlier_outputs_only(self, tmp_path, capsys):
        edges = write_text(tmp_path, "tri.tsv", "a\tb\t1\nb\tc\t1\nc\ta\t1\n")
        out = tmp_path / "out"
        (out / "tri.nodes.csv").mkdir(parents=True)  # the second write fails
        code, stdout, err = run(capsys, "analyze", str(edges), "--out", str(out))
        assert code == 1 and err.startswith("error:")
        assert "tri.summary.csv" in stdout
        assert [path.name for path in out.iterdir()] == ["tri.nodes.csv"]
        assert (out / "tri.nodes.csv").is_dir()

    def test_failed_write_restores_an_overwritten_file(self, tmp_path, capsys):
        edges = write_text(tmp_path, "tri.tsv", "a\tb\t1\nb\tc\t1\nc\ta\t1\n")
        out = tmp_path / "out"
        (out / "tri.nodes.csv").mkdir(parents=True)  # the second write fails
        (out / "tri.summary.csv").write_bytes(b"old bytes\n")
        code, stdout, err = run(capsys, "analyze", str(edges), "--out", str(out))
        assert code == 1 and err.startswith("error:")
        assert "tri.summary.csv" in stdout
        assert sorted(path.name for path in out.iterdir()) == [
            "tri.nodes.csv",
            "tri.summary.csv",
        ]
        assert (out / "tri.nodes.csv").is_dir()
        assert (out / "tri.summary.csv").read_bytes() == b"old bytes\n"

    def test_sample_flag(self, tmp_path, capsys):
        text = write_text(tmp_path, "s.txt", "a b c d. b e f a.")
        code, _, _ = run(
            capsys, "analyze", str(text), "--out", str(tmp_path), "--sample", "2"
        )
        assert code == 0


class TestSampledSweeps:
    """compare sweeps for totals only; analyze's one sweep tallies per source."""

    @pytest.fixture
    def by_source(self, monkeypatch) -> list[bool]:
        """The ``by_source`` argument of each `metrics._sweep` call."""
        flags: list[bool] = []
        sweep = metrics._sweep

        def recording_sweep(adjacency, members, block, sums, by_source):
            flags.append(by_source)
            return sweep(adjacency, members, block, sums, by_source)

        monkeypatch.setattr(metrics, "_sweep", recording_sweep)
        return flags

    def test_analyze_row_is_compare_row(
        self, tmp_path, capsys, by_source, formal_text_path, informal_text_path
    ):
        compared, analyzed = tmp_path / "cmp", tmp_path / "analyze"
        texts = [str(formal_text_path), str(informal_text_path)]
        code, _, _ = run(
            capsys, "compare", *texts, "--sample", "4", "--out", str(compared)
        )
        assert code == 0
        assert by_source == [False, False]
        by_source.clear()
        code, _, _ = run(
            capsys, "analyze", texts[0], "--sample", "4", "--out", str(analyzed)
        )
        assert code == 0
        assert by_source == [True]
        row = (analyzed / "formal_excerpt.summary.csv").read_bytes().splitlines()[1]
        assert row.startswith(b"formal_excerpt,")
        assert row == (compared / "summary.csv").read_bytes().splitlines()[1]


class TestRank:
    def test_all_measures(self, tmp_path, capsys):
        text = write_text(tmp_path, "r.txt", "a b. b a. a c.")
        code, _, _ = run(capsys, "rank", str(text), "--out", str(tmp_path))
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("r.*.rank.csv"))
        assert written == [
            "r.in-degree.rank.csv",
            "r.in-selectivity.rank.csv",
            "r.in-strength.rank.csv",
            "r.out-degree.rank.csv",
            "r.out-selectivity.rank.csv",
            "r.out-strength.rank.csv",
        ]

    def test_single_measure(self, tmp_path, capsys):
        text = write_text(tmp_path, "r.txt", "a b. b a. a c.")
        code, _, _ = run(
            capsys,
            "rank", str(text), "--measure", "out-degree", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "r.out-degree.rank.csv").read_text().splitlines()
        assert lines[0] == "rank,value,word"
        assert lines[1] == "1,2,a"


    def test_value_beyond_float_range(self, tmp_path, capsys):
        edges = tmp_path / "big.tsv"
        edges.write_text("a\tb\t" + "9" * 400 + "\na\tc\t2\n", encoding="utf-8")
        code, _, err = run(capsys, "rank", str(edges), "--out", str(tmp_path))
        assert code == 0 and err == ""
        lines = (tmp_path / "big.out-selectivity.rank.csv").read_text().splitlines()
        assert lines[1] == "1,5e+399,a"


class TestValuesPastTheDigitLimit:
    # twelve weights of 4,300 nines, the most digits the reader accepts,
    # give an out-strength of 4,302 digits, more than `str` allows by default
    WEIGHT = "9" * 4_300
    STRENGTH = "11" + "9" * 4_298 + "88"  # 12 * (10**4300 - 1)

    @pytest.mark.parametrize(
        "command, written",
        [("analyze", "huge.nodes.csv"), ("rank", "huge.out-strength.rank.csv")],
    )
    def test_printed_in_full(self, tmp_path, capsys, monkeypatch, command, written):
        def refuse(limit):
            raise AssertionError("the interpreter's digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        edges = tmp_path / "huge.tsv"
        edges.write_text(
            "".join(f"a\tb{i}\t{self.WEIGHT}\n" for i in range(12)), encoding="utf-8"
        )
        code, _, err = run(capsys, command, str(edges), "--out", str(tmp_path))
        assert (code, err) == (0, "")
        rows = (tmp_path / written).read_text(encoding="utf-8").splitlines()
        row = {"analyze": "a,0,12,0,", "rank": "1,"}[command] + self.STRENGTH + ","
        assert any(line.startswith(row) for line in rows)


class TestCompare:
    def _write_pair(self, tmp_path):
        alpha = write_text(
            tmp_path, "alpha.txt", "a b c. c b a. a d. d c b. b d."
        )
        beta = write_text(
            tmp_path, "beta.txt", "p q r. r q p. q s. s p r. r s."
        )
        return alpha, beta

    def test_full_output_tree(self, tmp_path, capsys):
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        code, stdout, _ = run(
            capsys, "compare", str(alpha), str(beta), "--out", str(out), "--svg"
        )
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "alpha.edges.tsv").exists()
        assert (out / "beta.edges.tsv").exists()
        assert len(list(out.glob("*.rank.csv"))) == 12
        assert len(list(out.glob("*.pair.csv"))) == 6
        assert len(list(out.glob("*.svg"))) == 6
        assert "network: alpha" in stdout and "network: beta" in stdout

    def test_identical_inputs_give_identical_series(self, tmp_path, capsys):
        text = write_text(tmp_path, "same.txt", "a b c. c a.")
        twin = write_text(tmp_path, "twin.txt", "a b c. c a.")
        out = tmp_path / "cmp"
        code, _, _ = run(
            capsys,
            "compare", str(text), str(twin),
            "--labels", "one", "two", "--out", str(out),
        )
        assert code == 0
        for measure_file in out.glob("one.*.rank.csv"):
            twin_file = out / measure_file.name.replace("one.", "two.", 1)
            assert measure_file.read_bytes() == twin_file.read_bytes()

    def test_empty_label_names_outputs_network(self, tmp_path, capsys):
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        code, stdout, _ = run(
            capsys,
            "compare", str(alpha), str(beta),
            "--labels", "", "b", "--out", str(out),
        )
        assert code == 0
        assert (out / "network.edges.tsv").exists()
        assert (out / "network_vs_b.in-degree.pair.csv").exists()
        assert "network: network" in stdout

    def test_equal_labels_rejected(self, tmp_path, capsys):
        text = write_text(tmp_path, "same.txt", "a b.")
        code, _, err = run(capsys, "compare", str(text), str(text))
        assert code == 1
        assert "labels" in err

    def test_holds_one_network_at_a_time(self, tmp_path, capsys, monkeypatch):
        alpha, beta = self._write_pair(tmp_path)
        built = []  # a weak reference to each network built so far
        alive = []  # at the start of each build, how many are still held
        original = cli.build_network

        def tracked(sentences):
            alive.append(sum(1 for ref in built if ref() is not None))
            net = original(sentences)
            built.append(weakref.ref(net))
            return net

        monkeypatch.setattr(cli, "build_network", tracked)
        code, _, _ = run(
            capsys, "compare", str(alpha), str(beta), "--out", str(tmp_path / "cmp")
        )
        assert code == 0
        assert alive == [0, 0]

    @pytest.mark.parametrize(
        "second, options, message",
        [
            ("... !", (), "empty network"),
            ("p q r. r q p.", ("--sample", "0"), "sample"),
        ],
    )
    def test_failure_leaves_out_as_it_was(
        self, tmp_path, capsys, second, options, message
    ):
        alpha = write_text(tmp_path, "alpha.txt", "a b c. c b a.")
        beta = write_text(tmp_path, "beta.txt", second)
        out = tmp_path / "cmp"
        out.mkdir()
        code, _, err = run(
            capsys, "compare", str(alpha), str(beta), "--out", str(out), *options
        )
        assert code == 1
        assert err.startswith("error:") and message in err
        assert list(out.iterdir()) == []

    def test_sample_below_one_is_refused_before_any_read(self, tmp_path, capsys):
        alpha = write_text(tmp_path, "alpha.txt", "a b c. c b a.")
        beta = write_text(tmp_path, "beta.txt", "p q r. r q p.")
        out = tmp_path / "cmp"
        code, stdout, err = run(
            capsys, "compare", str(alpha), str(beta), "--out", str(out),
            "--sample", "0",
        )
        assert code == 1
        assert stdout == ""
        assert err == "error: sample must be >= 1, got 0\n"
        assert not out.exists()

    def test_an_empty_input_is_named(self, tmp_path, capsys):
        alpha = write_text(tmp_path, "alpha.txt", "a b c. c b a.")
        wordless = write_text(tmp_path, "wordless.txt", "... !")
        code, _, err = run(
            capsys, "compare", str(alpha), str(wordless), "--out", str(tmp_path / "cmp")
        )
        assert code == 1
        assert err == (
            f"error: {wordless}: global summary of an empty network is undefined\n"
        )

    def test_failure_removes_the_out_directory_it_made(self, tmp_path, capsys):
        alpha = write_text(tmp_path, "alpha.txt", "a b c. c b a.")
        beta = write_text(tmp_path, "beta.txt", "... !")
        code, _, _ = run(
            capsys, "compare", str(alpha), str(beta),
            "--out", str(tmp_path / "new" / "cmp"),
        )
        assert code == 1
        assert not (tmp_path / "new").exists()

    def test_equal_labels_with_a_missing_input_write_nothing(self, tmp_path, capsys):
        alpha = write_text(tmp_path, "alpha.txt", "a b.")
        out = tmp_path / "cmp"
        out.mkdir()
        code, _, err = run(
            capsys, "compare", str(alpha), str(tmp_path / "gone.txt"),
            "--labels", "same", "same", "--out", str(out),
        )
        assert code == 1
        assert err == "error: labels must differ, two inputs are 'same'\n"
        assert list(out.iterdir()) == []

    def test_missing_second_input_restores_earlier_outputs(self, tmp_path, capsys):
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        code, _, _ = run(capsys, "compare", str(alpha), str(beta), "--out", str(out))
        assert code == 0
        before = snapshot(out)
        alpha.write_text("a b.", encoding="utf-8")  # overwritten, then restored
        code, stdout, err = run(
            capsys, "compare", str(alpha), str(tmp_path / "beta.txt.gone"),
            "--labels", "alpha", "beta", "--out", str(out),
        )
        assert code == 1 and "beta.txt.gone" in err
        assert "alpha.edges.tsv" in stdout
        assert snapshot(out) == before

    def test_missing_input_fails(self, tmp_path, capsys):
        alpha = write_text(tmp_path, "alpha.txt", "a b.")
        code, _, err = run(capsys, "compare", str(alpha), str(tmp_path / "gone.txt"))
        assert code == 1
        assert err.startswith("error:")

    def test_size_mismatch_is_one_warning_line(
        self, tmp_path, capsys, formal_text_path
    ):
        small = write_text(tmp_path, "small.txt", "one two three four five.")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            code, _, err = run(
                capsys, "compare", str(formal_text_path), str(small),
                "--out", str(tmp_path / "cmp"),
            )
        assert code == 0
        assert re.fullmatch(
            r"warning: network sizes differ by \d+ nodes \(\d+ vs 5\); "
            r"rank series are not directly comparable\n",
            err,
        )

    def test_a_closed_stdout_stops_the_lines_not_the_outputs(self, tmp_path, capsys):
        # as `coocnet compare ... | head -1` once head has exited
        alpha, beta = self._write_pair(tmp_path)
        argv = ["compare", str(alpha), str(beta), "--svg", "--out"]
        assert run(capsys, *argv, str(tmp_path / "reference"))[0] == 0
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe raises BrokenPipeError
        with open(write_end, "w", encoding="utf-8", buffering=1) as stdout:
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, str(tmp_path / "piped")])
        assert code == 0
        assert capsys.readouterr().err == ""
        reference = snapshot(tmp_path / "reference")
        assert len(reference) == 27
        assert snapshot(tmp_path / "piped") == reference

    def test_a_closed_stderr_stops_the_warnings_not_the_outputs(
        self, tmp_path, capsys, formal_text_path, informal_text_path
    ):
        # as `coocnet compare ... 2>&1 | head -1`; the informal text has
        # three edgeless words, so compare warns on stderr
        argv = [
            "compare", str(formal_text_path), str(informal_text_path),
            "--svg", "--out",
        ]
        code, _, err = run(capsys, *argv, str(tmp_path / "reference"))
        assert code == 0 and err.startswith("warning: informal_excerpt:")
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe raises BrokenPipeError
        with open(write_end, "w", encoding="utf-8", buffering=1) as stderr:
            with contextlib.redirect_stderr(stderr):
                code = main([*argv, str(tmp_path / "piped")])
        assert code == 0
        reference = snapshot(tmp_path / "reference")
        assert len(reference) == 27
        assert snapshot(tmp_path / "piped") == reference

    def test_a_label_stdout_cannot_encode_costs_no_output(
        self, tmp_path, capsys, formal_text_path, informal_text_path
    ):
        # as a redirected stdout on Windows, whose ANSI code page is strict
        blog = tmp_path / "блог.txt"
        blog.write_bytes(informal_text_path.read_bytes())
        argv = ["compare", str(formal_text_path), str(blog), "--svg", "--out"]
        assert run(capsys, *argv, str(tmp_path / "reference"))[0] == 0
        raw = io.BytesIO()
        with io.TextIOWrapper(raw, encoding="ascii", write_through=True) as stdout:
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, str(tmp_path / "ascii")])
            printed = raw.getvalue()
        assert code == 0
        reference = snapshot(tmp_path / "reference")
        assert len(reference) == 27
        assert snapshot(tmp_path / "ascii") == reference
        line = f"wrote {tmp_path / 'ascii' / 'блог.edges.tsv'}\n"
        assert line.encode("ascii", "backslashreplace") in printed

    @pytest.mark.parametrize(
        "signum, status",
        [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
        ids=["SIGINT", "SIGTERM"],
    )
    def test_a_signal_is_one_line_and_leaves_out_as_it_was(
        self, tmp_path, capsys, formal_text_path, informal_text_path, signum, status
    ):
        out = tmp_path / "cmp"
        argv = ["compare", str(formal_text_path), str(informal_text_path)]
        assert run(capsys, *argv, "--svg", "--out", str(out))[0] == 0
        before = snapshot(out)
        fifo = tmp_path / "side_b.txt"
        os.mkfifo(fifo)
        # side A, the formal text labelled informal_excerpt, overwrites
        # informal_excerpt.edges.tsv with other bytes; then the child
        # blocks on the FIFO, its side B
        command = [
            sys.executable, "-m", "coocnet.cli", "compare",
            str(formal_text_path), str(fifo),
            "--labels", "informal_excerpt", "formal_excerpt", "--out", str(out),
        ]
        # a shell's background job starts with SIGINT ignored, and so would
        # the child; a caught signal is reset to the default by exec
        sigint = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            child = subprocess.Popen(
                command,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        finally:
            signal.signal(signal.SIGINT, sigint)
        with child:
            try:
                write_end = _open_once_read(fifo, child)
                child.send_signal(signum)
                os.close(write_end)
                stdout, err = child.communicate(timeout=60)
            finally:
                child.kill()  # after a failed step; a no-op once it has exited
        assert child.returncode == status
        assert err == b"error: interrupted\n"
        assert f"wrote {out / 'informal_excerpt.edges.tsv'}".encode() in stdout
        assert snapshot(out) == before

    def test_main_runs_in_a_worker_thread(self, tmp_path, capsys):
        # only the main thread may set a signal handler
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        codes = []
        argv = ["compare", str(alpha), str(beta), "--svg", "--out", str(out)]
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=60)
        assert codes == [0]
        assert len(snapshot(out)) == 27

    def test_main_puts_the_sigterm_handler_back(self, tmp_path, capsys, monkeypatch):
        alpha, beta = self._write_pair(tmp_path)
        before = signal.getsignal(signal.SIGTERM)
        during = []
        original = cli.write_summary_csv

        def noting(*args):
            during.append(signal.getsignal(signal.SIGTERM))
            original(*args)

        monkeypatch.setattr(cli, "write_summary_csv", noting)
        code, _, _ = run(
            capsys, "compare", str(alpha), str(beta), "--out", str(tmp_path / "cmp")
        )
        assert code == 0
        assert during == [cli._terminated]
        assert signal.getsignal(signal.SIGTERM) == before

    def test_an_interrupt_is_one_line_and_leaves_out_as_it_was(
        self, tmp_path, capsys, monkeypatch
    ):
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        argv = ["compare", str(alpha), str(beta), "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        before = snapshot(out)

        def interrupted(*args):  # as Ctrl-C while the first pair CSV is written
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "export_pair_csv", interrupted)
        try:
            code, _, err = run(capsys, *argv, "--svg")
        except KeyboardInterrupt:  # would end the whole test session
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert err == "error: interrupted\n"
        assert snapshot(out) == before

    def test_a_kill_leaves_old_or_whole_new_bytes_under_each_name(
        self, tmp_path, capsys, monkeypatch, formal_text_path, informal_text_path,
        zipf_sentences,
    ):
        out, fresh = tmp_path / "cmp", tmp_path / "fresh"
        texts = [str(formal_text_path), str(informal_text_path)]
        assert run(capsys, "compare", *texts, "--svg", "--out", str(out))[0] == 0
        before = snapshot(out)
        # the same names, some with other bytes: a 40,000-word text under the
        # formal label, whose rank CSVs pass the file buffer before their
        # last run of equal values
        zipf = "".join(" ".join(sentence) + ". " for sentence in zipf_sentences)
        texts[0] = str(write_text(tmp_path, "zipf.txt", zipf))
        swapped = [
            "compare", *texts,
            "--labels", "formal_excerpt", "informal_excerpt", "--svg",
        ]
        # a clean run of it gives the new bytes, and the number of
        # format_value calls up to the last run of the first rank CSV
        calls, ends = [], []
        formatted, export = ranking.format_value, cli.export_rank_csv

        def counted(value):
            calls.append(value)
            return formatted(value)

        def exported(series, path):
            export(series, path)
            ends.append((path.name, len(calls)))

        with monkeypatch.context() as patch:
            patch.setattr(ranking, "format_value", counted)
            patch.setattr(cli, "export_rank_csv", exported)
            assert run(capsys, *swapped, "--out", str(fresh))[0] == 0
        new = snapshot(fresh)
        killed, kill_at = ends[0]
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_AT_CALL, str(kill_at), *swapped,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            timeout=120,
        )
        assert child.returncode == 9, child.stderr
        after = snapshot(out)
        kept = {n for n in after if n.endswith((".coocnet-new", ".coocnet-old"))}
        assert set(before) <= set(after) and set(after) - kept <= set(new)
        for name in set(after) - kept:
            assert after[name] in (before[name], new[name]), name
        assert after[killed] == before[killed]
        # the kill landed inside the rank CSV, after a buffer was flushed
        partial = after[f"{killed}.coocnet-new"]
        assert partial and new[killed].startswith(partial) and partial != new[killed]
        for name in kept - {f"{killed}.coocnet-new"}:
            assert name.endswith(".coocnet-old")
            assert after[name] == before[name.removesuffix(".coocnet-old")]

    def test_overwritten_outputs_are_copied_on_disk_not_read(
        self, tmp_path, capsys, monkeypatch
    ):
        alpha, beta = self._write_pair(tmp_path)
        wordless = write_text(tmp_path, "wordless.txt", "... !")
        out = tmp_path / "cmp"
        argv = ["compare", str(alpha), str(beta), "--svg", "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        read, read_bytes = [], Path.read_bytes

        def noted(path):
            read.append(Path(path).resolve())
            return read_bytes(path)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "read_bytes", noted)
            assert run(capsys, *argv)[0] == 0  # overwrites all 27 files
            # overwrites both edge lists, then fails and puts them back
            assert run(
                capsys, "compare", str(beta), str(wordless),
                "--labels", "alpha", "beta", "--out", str(out),
            )[0] == 1
        assert read  # the inputs are read through it
        assert [path for path in read if out.resolve() in path.parents] == []

    def test_leftovers_of_a_killed_run_do_not_stop_the_next(self, tmp_path, capsys):
        alpha, beta = self._write_pair(tmp_path)
        argv = ["compare", str(alpha), str(beta), "--svg", "--out"]
        clean, out = tmp_path / "clean", tmp_path / "cmp"
        assert run(capsys, *argv, str(clean))[0] == 0
        assert run(capsys, *argv, str(out))[0] == 0
        (out / "summary.csv.coocnet-old").write_bytes(b"a stale copy\n")
        (out / "summary.csv.coocnet-new").write_bytes(b"label,N,K\nalp")
        assert run(capsys, *argv, str(out))[0] == 0
        assert snapshot(out) == snapshot(clean)

    def test_a_copy_that_fails_partway_is_deleted_not_moved_back(
        self, tmp_path, capsys, monkeypatch
    ):
        alpha, beta = self._write_pair(tmp_path)
        out = tmp_path / "cmp"
        argv = ["compare", str(alpha), str(beta), "--svg", "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        before = snapshot(out)
        copies = []

        def copied_in_part(source, copy):  # the disk fills halfway into the third
            copies.append(copy)
            data = Path(source).read_bytes()
            Path(copy).write_bytes(data[: len(data) // 2] if len(copies) == 3 else data)
            if len(copies) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shutil, "copy2", copied_in_part)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "No space left on device" in err
        assert len(copies) == 3
        assert snapshot(out) == before

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        alpha, beta = self._write_pair(tmp_path)
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        for out in (first, second):
            code, _, _ = run(
                capsys, "compare", str(alpha), str(beta), "--out", str(out), "--svg"
            )
            assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert mismatch == [] and errors == []


# `main` on the arguments after the first, which ends the process at the
# format_value call of that number, as SIGKILL would: no handler, no
# cleanup and no flush of the open file's buffer
_KILLED_AT_CALL = """\
import os, sys
from coocnet import cli, ranking
calls, formatted = 0, ranking.format_value
def counted(value):
    global calls
    calls += 1
    if calls == int(sys.argv[1]):
        os._exit(9)
    return formatted(value)
ranking.format_value = counted
sys.exit(cli.main(sys.argv[2:]))
"""


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore it."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


class TestCollectorPause:
    """`main` pauses the cyclic collector, which would find nothing to free."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", [0, 1, 130])
    def test_the_callers_setting_is_restored(
        self, tmp_path, capsys, monkeypatch, enabled, outcome
    ):
        text = write_text(tmp_path, "t.txt", "a b c. c b a.")
        if outcome == 1:
            text = tmp_path / "missing.txt"
        if outcome == 130:

            def interrupted(sentences):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "build_network", interrupted)
        with collector(enabled):
            code, _, _ = run(capsys, "build", str(text), "--out", str(tmp_path))
            assert code == outcome
            assert gc.isenabled() == enabled

    def test_no_collection_runs_during_a_command(
        self, tmp_path, formal_text_path, informal_text_path
    ):
        phases = []

        def record(phase, info):
            phases.append(phase)

        argv = [str(formal_text_path), str(informal_text_path), "--svg"]
        with collector(True):
            gc.collect()  # no collection falls due before main pauses it
            gc.callbacks.append(record)
            try:
                code = main(["compare", *argv, "--out", str(tmp_path)])
            finally:
                gc.callbacks.remove(record)
        assert code == 0
        assert phases == []

    @pytest.mark.parametrize(
        "command, inputs, options",
        [
            ("compare", 2, ["--svg", "--sample", "16"]),
            ("analyze", 1, ["--sample", "16"]),
            ("rank", 1, []),
            ("build", 2, []),
        ],
        ids=["compare", "analyze", "rank", "build"],
    )
    def test_a_command_leaves_as_much_cyclic_garbage_on_any_input_size(
        self,
        tmp_path,
        capsys,
        formal_text_path,
        informal_text_path,
        zipf_sentences,
        command,
        inputs,
        options,
    ):
        # the premise of the pause: had a command's per-node data cycles,
        # the count would grow with the input, and the paused collector
        # would let them pile up until the command ends
        big = tmp_path / "big.txt"
        big.write_text(
            "".join(" ".join(sentence) + ".\n" for sentence in zipf_sentences),
            encoding="utf-8",
        )
        big_too = tmp_path / "big_too.txt"
        big_too.write_text(big.read_text("utf-8")[::-1], encoding="utf-8")
        found = []
        with collector(False):
            for texts in ((formal_text_path, informal_text_path), (big, big_too)):
                argv = [command, *map(str, texts[:inputs]), *options]
                gc.collect()
                code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "out"))
                assert code == 0
                found.append(gc.collect())
        assert found[0] == found[1]


def _open_once_read(fifo: Path, child: subprocess.Popen) -> int:
    """The FIFO's write end, opened once `child` has opened it to read.

    A child that exits first, or has not opened it within a minute, fails
    the test instead of hanging it.
    """
    deadline = time.monotonic() + 60
    while child.poll() is None and time.monotonic() < deadline:
        try:
            return os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:  # ENXIO: nothing has it open to read yet
            if exc.errno != errno.ENXIO:
                raise
        time.sleep(0.01)
    pytest.fail(f"the child never opened {fifo.name} to read")


def _lines(lines: list[str]) -> bytes:
    return "\n".join(lines).encode("utf-8")


# any bytes, and bytes shaped like each input so that some calls succeed
_BYTES = st.binary(max_size=80)
_TEXT = st.text(max_size=80).map(str.encode)
_WORD = st.sampled_from(["a", "b", "c", "é", "\x00"])
_EDGE_LINE = (
    st.tuples(_WORD, _WORD, st.sampled_from(["1", "2", "9" * 30]))
    | st.tuples(
        _WORD | st.sampled_from(["", "a b", "b\r"]),
        _WORD,
        st.sampled_from(["0", "01", "-1", "x", "", "1\t2"]),
    )
).map("\t".join)
_EDGES = st.lists(_EDGE_LINE, max_size=6).map(_lines)
_CONFIG_LINE = st.sampled_from(
    [
        "terminators = .",
        "terminators = ",
        "terminators = b",
        "keep_digits = yes",
        "keep_digits = maybe",
        "# a comment",
        "",
        "depth = 2",
        "no equals sign",
    ]
)
_CONFIG = st.lists(_CONFIG_LINE, max_size=4).map(_lines)
_GIVEN_AS = {
    "in.txt": _BYTES | _TEXT,
    "in.tsv": _BYTES | _EDGES,
    "in.conf": _BYTES | _CONFIG,
}

# the given bytes go to the file named first: a text, an edge list or a
# config; build and compare take texts only, so they get no edge list
_CALLS = {
    "build": [
        ("in.txt", ["build", "ok.txt", "in.txt"]),
        ("in.conf", ["build", "ok.txt", "--config", "in.conf"]),
    ],
    "analyze": [
        ("in.txt", ["analyze", "in.txt"]),
        ("in.tsv", ["analyze", "in.tsv"]),
        ("in.conf", ["analyze", "ok.txt", "--config", "in.conf"]),
    ],
    "rank": [
        ("in.txt", ["rank", "in.txt"]),
        ("in.tsv", ["rank", "in.tsv"]),
        ("in.conf", ["rank", "ok.txt", "--config", "in.conf"]),
    ],
    "compare": [
        ("in.txt", ["compare", "ok.txt", "in.txt", "--svg"]),
        ("in.conf", ["compare", "ok.txt", "ok2.txt", "--config", "in.conf"]),
    ],
}
_FILES = {"ok.txt", "ok2.txt", *_GIVEN_AS}


@pytest.mark.parametrize("command", ["build", "analyze", "rank", "compare"])
@given(data=st.data())
@settings(max_examples=75, deadline=None)
def test_any_bytes_exit_0_or_1_and_a_failure_leaves_out_as_it_was(
    tmp_path_factory, command, data
):
    given_to, argv = data.draw(st.sampled_from(_CALLS[command]))
    folder = tmp_path_factory.mktemp("any")
    (folder / "ok.txt").write_text("a b c. c b a. b d.", encoding="utf-8")
    (folder / "ok2.txt").write_text("p q r. r q p.", encoding="utf-8")
    (folder / given_to).write_bytes(data.draw(_GIVEN_AS[given_to]))
    out = folder / "out"
    out.mkdir()
    # files of the names the command writes, which a failure must put back
    for name in ("ok.edges.tsv", "in.edges.tsv", "summary.csv", "in.nodes.csv"):
        (out / name).write_bytes(b"old\n")
    before = snapshot(out)
    argv = [str(folder / arg) if arg in _FILES else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv + ["--out", str(out)])
    assert code in (0, 1)
    if code == 1:
        assert snapshot(out) == before

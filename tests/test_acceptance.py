"""End-to-end acceptance checks.

Every test here guards one shipping requirement, prints a one-line
verdict, and enforces a wall-clock budget.  Run with ``pytest -s`` to see
the verdict lines:

    [acceptance] <behavior>: PASS (0.12s, budget 1s)
"""

import csv
import filecmp
import hashlib
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coocnet import (
    all_node_metrics,
    build_network,
    extract_sentences,
    format_value,
    from_edge_list,
    global_summary,
    load_document,
    network_rank_series,
    MEASURES,
)
from coocnet.cli import main

import oracles


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[acceptance] {name}: FAIL ({elapsed:.2f}s, budget {budget_s:g}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed <= budget_s else "FAIL"
    print(f"\n[acceptance] {name}: {verdict} ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed <= budget_s, f"{name}: {elapsed:.2f}s over {budget_s:g}s budget"


def test_selectivity_returns_exact_hand_computed_ratios():
    with criterion("selectivity matches hand-computed ratios", 1.0):
        heavy_out = from_edge_list(
            [("i", "p", 3), ("i", "q", 2), ("i", "r", 1), ("i", "s", 1)]
        )
        one_heavy_in = from_edge_list([("to", "do", 3)])
        two_light_in = from_edge_list([("x", "want", 1), ("y", "want", 1)])

        e_out = all_node_metrics(heavy_out)[heavy_out.node_id("i")].out_selectivity
        assert e_out == Fraction(7, 4)
        assert format_value(e_out) == "1.75"

        e_in = all_node_metrics(one_heavy_in)[one_heavy_in.node_id("do")].in_selectivity
        assert e_in == Fraction(3, 1)
        assert format_value(e_in) == "3"

        want = two_light_in.node_id("want")
        e_want = all_node_metrics(two_light_in)[want].in_selectivity
        assert e_want == Fraction(1, 1)
        assert format_value(e_want) == "1"


def test_zero_degree_nodes_have_no_selectivity_and_no_rank():
    with criterion("zero-degree nodes excluded from rank series", 10.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            net = oracles.random_network(rng, max_nodes=50)
            rows = all_node_metrics(net)
            for side in ("in", "out"):
                series_words = {
                    measure: {e.word for e in network_rank_series(net, measure).entries}
                    for measure in (f"{side}-degree", f"{side}-strength",
                                    f"{side}-selectivity")
                }
                for row in rows:
                    word = row.word
                    if getattr(row, f"{side}_degree") == 0:
                        assert getattr(row, f"{side}_selectivity") is None
                        for words in series_words.values():
                            assert word not in words
                    else:
                        for words in series_words.values():
                            assert word in words


def test_path_component_and_clustering_measures_match_bruteforce():
    with criterion("measures agree with brute-force oracles", 60.0):
        rng = np.random.default_rng(202)
        for _ in range(200):
            net = oracles.random_network(rng, max_nodes=50)
            want_l, want_d, want_node = oracles.path_stats(net)
            summary = global_summary(net)
            assert summary.avg_shortest_path == want_l
            assert summary.diameter == want_d
            rows = all_node_metrics(net)
            for node, expected in want_node.items():
                assert rows[node].avg_distance == expected
            assert summary.n_components == len(oracles.components(net))
            for node, row in enumerate(rows):
                assert row.clustering == oracles.local_clustering(net, node)


def test_degree_and_strength_totals_balance():
    with criterion("in/out degree and strength totals balance", 5.0):
        rng = np.random.default_rng(303)
        for _ in range(100):
            net = oracles.random_network(rng, max_nodes=50)
            rows = all_node_metrics(net)
            assert sum(row.in_degree for row in rows) == net.n_edges
            assert sum(row.out_degree for row in rows) == net.n_edges
            total = sum(w for _, w in net.edge_items())
            assert sum(row.in_strength for row in rows) == total
            assert sum(row.out_strength for row in rows) == total


def test_sentence_adjacency_defines_edges_and_weights():
    with criterion("sentence adjacency defines edges and weights", 1.0):
        from_tokens = build_network([["a", "b", "a", "b"]])
        assert from_tokens.n_nodes == 2
        pairs = {
            (from_tokens.words[s], from_tokens.words[d]): w
            for (s, d), w in from_tokens.edge_items()
        }
        assert pairs == {("a", "b"): 2, ("b", "a"): 1}

        from_text = build_network(extract_sentences("a b. a b."))
        pairs = {
            (from_text.words[s], from_text.words[d]): w
            for (s, d), w in from_text.edge_items()
        }
        assert pairs == {("a", "b"): 2}, "no edge may cross a sentence boundary"


def test_closed_form_fixture_measures_are_exact():
    with criterion("closed-form fixture measures are exact", 1.0):
        triangle = from_edge_list(
            [("a", "b", 1), ("b", "a", 1), ("b", "c", 1),
             ("c", "b", 1), ("a", "c", 1), ("c", "a", 1)]
        )
        summary = global_summary(triangle)
        assert summary.avg_clustering == 1
        assert summary.density == 1
        assert summary.avg_shortest_path == 1
        assert summary.diameter == 1
        assert summary.avg_degree == 4  # complete 3-node digraph

        path = from_edge_list([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
        summary = global_summary(path)
        assert summary.avg_shortest_path == Fraction(5, 3)
        assert summary.diameter == 3


def test_uniform_weight_scaling_moves_only_selectivity():
    with criterion("weight scaling moves selectivity alone", 10.0):
        rng = np.random.default_rng(404)
        for _ in range(50):
            net = oracles.random_network(rng, max_nodes=50)
            scaled = oracles.scaled_network(net, 7)
            for row, scaled_row in zip(all_node_metrics(net), all_node_metrics(scaled)):
                for side in ("in", "out"):
                    base = getattr(row, f"{side}_selectivity")
                    if base is None:
                        assert getattr(scaled_row, f"{side}_selectivity") is None
                    else:
                        assert getattr(scaled_row, f"{side}_selectivity") == 7 * base
            # weights enter no whole-network measure
            assert global_summary(scaled) == global_summary(net)


def _check_rank_csv(path):
    """Ranks must run 1..n without gaps and values must never increase."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["rank", "value", "word"]
    previous = None
    for expected_rank, row in enumerate(rows[1:], 1):
        rank, value, word = int(row[0]), float(row[1]), row[2]
        assert rank == expected_rank
        assert word
        if previous is not None:
            assert value <= previous
        previous = value
    return len(rows) - 1


def test_compare_is_deterministic_and_emits_all_rank_series(
    tmp_path, capsys, formal_text_path, informal_text_path
):
    with criterion("category comparison is byte-deterministic", 30.0):
        out_dirs = (tmp_path / "run1", tmp_path / "run2")
        for out in out_dirs:
            code = main(
                [
                    "compare",
                    str(formal_text_path),
                    str(informal_text_path),
                    "--out",
                    str(out),
                    "--svg",
                ]
            )
            assert code == 0
        capsys.readouterr()  # keep the verdict line readable

        names = sorted(p.name for p in out_dirs[0].iterdir())
        assert names == sorted(p.name for p in out_dirs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            out_dirs[0], out_dirs[1], names, shallow=False
        )
        assert mismatch == [] and errors == []

        rank_files = sorted(out_dirs[0].glob("*.rank.csv"))
        assert len(rank_files) == 12
        for path in rank_files:
            assert _check_rank_csv(path) > 0


def test_fixture_rank_series_are_monotone_with_selectivity_at_least_one(
    formal_text_path, informal_text_path
):
    with criterion("fixture rank series fall monotonically", 30.0):
        for path in (formal_text_path, informal_text_path):
            net = build_network(
                extract_sentences(load_document(path))
            )
            for measure in MEASURES:
                entries = network_rank_series(net, measure).entries
                assert entries, f"{measure} series is empty for {path.name}"
                values = [e.value for e in entries]
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
                if measure.endswith("selectivity"):
                    assert all(v >= 1 for v in values)


# sha256 of the fixture ``compare --svg`` output tree, of its stdout with the
# output directory printed as ``<out>``, and of its stderr; a refactor must
# keep all three
FIXTURE_TREE_DIGEST = "a86e4a6e3690633f0b0705a7a364a47494d47837a2f09130f960202cb0b39470"
FIXTURE_STDOUT_DIGEST = "2c2f9b273f6425825edd4fe8ea2075fd6a81e1b0d3865ef3cad691e7c96c9c5e"
FIXTURE_STDERR_DIGEST = "8cd0056a9899b5db29ff1bf88eb27580e40c33eef51e07d5f8bb8097b154c78e"


def _tree_digest(root: Path) -> str:
    """sha256 over the sorted files, each as relative path + NUL + file sha256."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _fixture_compare(out: Path, capsys, formal: Path, informal: Path):
    """Run the fixture ``compare --svg`` into ``out``; return (stdout, stderr).

    The output directory in stdout is printed as ``<out>``.
    """
    code = main(["compare", str(formal), str(informal), "--svg", "--out", str(out)])
    printed = capsys.readouterr()
    assert code == 0
    return printed.out.replace(str(out), "<out>"), printed.err


def test_fixture_compare_output_tree_matches_golden_digest(
    tmp_path, capsys, formal_text_path, informal_text_path
):
    with criterion("fixture compare --svg output bytes unchanged", 30.0):
        out = tmp_path / "out"
        _fixture_compare(out, capsys, formal_text_path, informal_text_path)
        assert _tree_digest(out) == FIXTURE_TREE_DIGEST


@pytest.mark.parametrize("seed", ["0", "1"])
def test_fixture_compare_output_tree_is_the_same_under_any_hash_seed(
    seed, tmp_path, formal_text_path, informal_text_path
):
    # a fresh interpreter per seed, since str hashes, and with them the order
    # of every set and dict of words, are fixed when the interpreter starts
    with criterion(f"fixture compare --svg bytes under PYTHONHASHSEED={seed}", 60.0):
        out = tmp_path / "out"
        src = Path(__file__).resolve().parent.parent / "src"
        run = subprocess.run(
            [sys.executable, "-m", "coocnet.cli", "compare", str(formal_text_path),
             str(informal_text_path), "--svg", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert _tree_digest(out) == FIXTURE_TREE_DIGEST


# the special words of the generated hash-seed example: NFC and NFD accents,
# ASCII and typographic apostrophes, joiners at word edges, digits, a
# combining mark after a space, Croatian letters and every default terminator
_GENERATED_POOL = (
    "Café", "cafe\u0301", "Résumé", "re\u0301sume\u0301",
    "don't", "don\u2019t", "o\u02bcclock", "rock'n'roll",
    "-pre", "post-", "'tis", "dogs'", "e-mail", "a--b",
    "1405", "2702", "x2", "3d",
    " \u0301", " \u0301a",
    "Đurđa", "ŠUMA", "žaba", "čekić", "ljubav", "Dž",
    ".", "!", "?", "…",
)
# the letters of the plain words, so a text has a few hundred word types
_GENERATED_LETTERS = "aeioučćđšžnrt"


def _generated_text(rng: random.Random, tokens: int) -> str:
    words = []
    for _ in range(tokens):
        if rng.random() < 0.3:
            words.append(rng.choice(_GENERATED_POOL))
        else:
            words.append("".join(rng.choices(_GENERATED_LETTERS, k=rng.randint(1, 3))))
    return " ".join(words)


def test_generated_outputs_are_the_same_under_any_hash_seed(tmp_path):
    # compare --svg of two generated texts, then analyze of the first edge
    # list it wrote, each in a fresh interpreter per PYTHONHASHSEED
    rng = random.Random(2014)
    texts = [tmp_path / "lit.txt", tmp_path / "blog.txt"]
    for path in texts:
        path.write_text(_generated_text(rng, 3000), encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    results = []
    with criterion("generated compare and analyze bytes under two hash seeds", 10.0):
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            printed = []
            for argv in (
                ["compare", *map(str, texts), "--svg", "--sample", "3"],
                ["analyze", str(out / "lit.edges.tsv"), "--sample", "3"],
            ):
                run = subprocess.run(
                    [sys.executable, "-m", "coocnet.cli", *argv, "--out", str(out)],
                    env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                    capture_output=True,
                    timeout=120,
                )
                assert run.returncode == 0, run.stderr
                for stream in (run.stdout, run.stderr):
                    printed.append(stream.replace(os.fsencode(out), b"<out>"))
            tree = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in out.rglob("*")
                if path.is_file()
            }
            results.append((tree, printed))
    assert len(results[0][0]) == 27 + 2  # compare --svg, then analyze
    assert results[0] == results[1]


def test_fixture_compare_stdout_and_stderr_match_golden_digests(
    tmp_path, capsys, formal_text_path, informal_text_path
):
    with criterion("fixture compare --svg printed bytes unchanged", 30.0):
        stdout, stderr = _fixture_compare(
            tmp_path / "out", capsys, formal_text_path, informal_text_path
        )
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == FIXTURE_STDOUT_DIGEST
        assert hashlib.sha256(stderr.encode("utf-8")).hexdigest() == FIXTURE_STDERR_DIGEST


# Fixture ``analyze`` and ``rank`` runs: (argv, where "formal" and "informal"
# name the fixture texts and "edges" the formal one's built edge list;
# sha256 of the output tree; sha256 of stdout with the output directory
# printed as ``<out>``).  A refactor must keep both digests.
FIXTURE_RUNS = {
    "analyze-formal-edges": (
        ("analyze", "edges"),
        "08ed9e889eae045bfb28486cef178f65bae3d8c41042aa0ee65c768e8ff227b9",
        "8f61f0eadad0cfb0a919f7c0ef6ea2a26a628415ce54ed90ed4cc755d7e922e9",
    ),
    "analyze-informal": (
        ("analyze", "informal"),
        "b97e4bbb39602f84ff301b96ae6ce3cc83001f25d49c95c3c352c37ee6e4ecc9",
        "565fc2d4e2417ad41b0e981078e0625f062f30776ee404c215d9c574eb45a115",
    ),
    "analyze-informal-sample": (
        ("analyze", "informal", "--sample", "4"),
        "0bcf128323444c5c3ee0fd101acd15497c7db6aed3d338fbdc570ba43bed9be6",
        "78d1cc73288ffe2d873283c281aed257be008c406610918dbe9cf787571fc223",
    ),
    "rank-formal": (
        ("rank", "formal"),
        "a4e1342b9137e600418a34f0808c3882807199cf1dbbdcaccd3c05dd1dbf7765",
        "61a31603eeafad4c5e721c1af86e51b6a51c3c502c0bc981981523d3f1656476",
    ),
}


@pytest.mark.parametrize("run", sorted(FIXTURE_RUNS))
def test_fixture_analyze_and_rank_outputs_match_golden_digests(
    run, tmp_path, capsys, formal_text_path, informal_text_path
):
    args, tree_digest, stdout_digest = FIXTURE_RUNS[run]
    with criterion(f"fixture {run} output bytes unchanged", 30.0):
        assert main(["build", str(formal_text_path), "--out", str(tmp_path)]) == 0
        inputs = {
            "formal": formal_text_path,
            "informal": informal_text_path,
            "edges": tmp_path / "formal_excerpt.edges.tsv",
        }
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([str(inputs.get(arg, arg)) for arg in args] + ["--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        assert code == 0
        assert _tree_digest(out) == tree_digest
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == stdout_digest

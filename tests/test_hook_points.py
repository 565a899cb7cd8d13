"""The module attributes the traced benchmark wraps must exist and be called.

The traced benchmark (``perfbench/spans.py``, ``_WRAPPED``) times each layer
by replacing these module attributes for the duration of one ``cli.main``
call.  A refactor that renames one, or stops calling through it, would
silently drop a span, so this test wraps the same attributes and checks that
the CLI still calls every one of them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from coocnet import cli, metrics, network, pipeline, ranking
from coocnet import (
    build_network,
    extract_sentences,
    global_summary,
    load_document,
    write_edge_list,
)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# (module, attribute) pairs copied from perfbench/spans.py::_WRAPPED;
# test_hook_points_are_the_wrapped_attributes checks the copy
HOOK_POINTS = (
    (cli, "load_document"),
    (cli, "extract_sentences"),
    (pipeline, "normalize"),
    (pipeline, "segment_sentences"),
    (pipeline, "tokenize"),
    (cli, "build_network"),
    (cli, "read_edge_list"),
    (cli, "write_edge_list"),
    (metrics, "weak_components"),
    (network, "undirected_projection"),
    (cli, "global_summary"),
    (ranking, "global_summary"),
    (metrics, "_distance_stats"),
    (metrics, "average_clustering"),
    (cli, "all_node_metrics"),
    (ranking, "all_rank_series"),
    (cli, "excluded_fraction"),
    (ranking, "excluded_fraction"),
    (cli, "export_rank_csv"),
    (cli, "export_pair_csv"),
    (cli, "render_rank_svg"),
    (cli, "write_summary_csv"),
    (cli, "write_node_metrics_csv"),
)


def _wrapped_pairs() -> tuple[tuple[str, str], ...] | None:
    """The (module, attribute) pairs of ``_WRAPPED`` in perfbench/spans.py.

    Read with `ast`, so the benchmark is not imported; None when the file
    or the name is gone.
    """
    try:
        tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_WRAPPED"
            for target in statement.targets
        ):
            return tuple(
                (entry.elts[0].id, entry.elts[1].value)
                for entry in statement.value.elts
            )
    return None


def test_hook_points_are_the_wrapped_attributes():
    wrapped = _wrapped_pairs()
    if wrapped is None:
        pytest.skip("perfbench/spans.py defines no _WRAPPED")
    copied = tuple(
        (module.__name__.removeprefix("coocnet."), attribute)
        for module, attribute in HOOK_POINTS
    )
    assert wrapped == copied


def _counting(calls: Counter, key: tuple[str, str], original):
    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch) -> Counter:
    counter: Counter = Counter()
    for module, attribute in HOOK_POINTS:
        key = (module.__name__, attribute)
        original = getattr(module, attribute)
        monkeypatch.setattr(module, attribute, _counting(counter, key, original))
    return counter


def test_cli_calls_every_hook_point(
    calls, tmp_path, capsys, formal_text_path, informal_text_path
):
    edges = tmp_path / "formal.edges.tsv"
    sentences = extract_sentences(load_document(formal_text_path))
    write_edge_list(build_network(sentences), edges)
    calls.clear()  # count only what the CLI calls

    compare_argv = [
        "compare", str(formal_text_path), str(informal_text_path),
        "--svg", "--sample", "4", "--out", str(tmp_path / "compare"),
    ]
    analyze_argv = [
        "analyze", str(edges), "--sample", "4", "--out", str(tmp_path / "analyze"),
    ]
    assert cli.main(compare_argv) == 0
    assert cli.main(analyze_argv) == 0
    capsys.readouterr()

    never_called = [
        key for key in ((m.__name__, a) for m, a in HOOK_POINTS) if calls[key] == 0
    ]
    assert never_called == []


def test_global_summary_caches_distances_by_sample(formal_text_path):
    # the traced benchmark times _distance_stats only while this cache is cold
    sentences = extract_sentences(load_document(formal_text_path))
    net = build_network(sentences)
    global_summary(net, 4)
    assert 4 in net._distance_cache

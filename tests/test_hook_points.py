"""The module attributes the traced benchmark wraps must exist and be called.

The traced benchmark (``perfbench/spans.py``, ``_WRAPPED``) times each layer
by replacing module attributes for the duration of one ``cli.main`` call.
A refactor that renames one, or stops calling through it, would silently
drop a span, so this test wraps the same attributes, read from ``_WRAPPED``
itself, and checks that the CLI still calls every one of them.  It skips
once ``perfbench/spans.py`` or its ``_WRAPPED`` is gone.
"""

import ast
import importlib
from pathlib import Path

import pytest

from coocnet import cli
from coocnet import (
    build_network,
    extract_sentences,
    global_summary,
    load_document,
    write_edge_list,
)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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


def _counting(calls: dict, key: tuple[str, str], original):
    def counted(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch) -> dict:
    wrapped = _wrapped_pairs()
    if wrapped is None:
        pytest.skip("perfbench/spans.py defines no _WRAPPED")
    counts = dict.fromkeys(wrapped, 0)
    for name, attribute in wrapped:
        module = importlib.import_module("coocnet." + name)
        original = getattr(module, attribute)
        key = (name, attribute)
        monkeypatch.setattr(module, attribute, _counting(counts, key, original))
    return counts


def test_cli_calls_every_hook_point(
    calls, tmp_path, capsys, formal_text_path, informal_text_path
):
    edges = tmp_path / "formal.edges.tsv"
    sentences = extract_sentences(load_document(formal_text_path))
    write_edge_list(build_network(sentences), edges)
    for key in calls:
        calls[key] = 0  # count only what the CLI calls

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

    never_called = [key for key, count in calls.items() if count == 0]
    assert never_called == []


def test_global_summary_caches_distances_by_sample(formal_text_path):
    # the traced benchmark times _distance_stats only while this cache is cold
    sentences = extract_sentences(load_document(formal_text_path))
    net = build_network(sentences)
    global_summary(net, 4)
    assert 4 in net._distance_cache

"""The record types keep their constructor, fields, repr and immutability.

Each public record is built twice from the same values, once positionally
and once by keyword, and both must equal the record the package built.
Importing the CLI must not load `dataclasses` or what it pulls in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coocnet import (
    DEFAULT_TERMINATORS,
    CooccurrenceNetwork,
    PipelineConfig,
    all_node_metrics,
    global_summary,
    profile_network,
    weak_components,
)
from coocnet.metrics import GlobalMetrics, NodeMetrics
from coocnet.network import ComponentLabeling
from coocnet.ranking import NetworkProfile, RankSeries

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"

# each record type's fields in their documented order
FIELDS = {
    PipelineConfig: ("terminators", "keep_digits"),
    ComponentLabeling: ("labels", "sizes", "largest"),
    NodeMetrics: (
        "word",
        "in_degree",
        "out_degree",
        "in_strength",
        "out_strength",
        "in_selectivity",
        "out_selectivity",
        "clustering",
        "avg_distance",
    ),
    GlobalMetrics: (
        "n_nodes",
        "n_edges",
        "avg_degree",
        "avg_shortest_path",
        "diameter",
        "avg_clustering",
        "density",
        "n_components",
        "largest_component_size",
    ),
    RankSeries: ("measure", "words", "values", "ends"),
    NetworkProfile: ("summary", "series", "excluded"),
}


@pytest.fixture
def records(two_node_net, path4):
    """One record of each type, as the package builds it; a bare series by hand."""
    return [
        PipelineConfig(terminators=";", keep_digits=False),
        weak_components(path4),
        all_node_metrics(two_node_net)[0],
        global_summary(path4),
        oracles.rank_series("out-strength", [("a", 4), ("b", 1), ("c", 1)]),
        profile_network(two_node_net),
    ]


def test_every_record_type_is_covered(records):
    assert [type(record) for record in records] == list(FIELDS)


def test_positional_and_keyword_construction_agree(records):
    for record in records:
        kind = type(record)
        values = [getattr(record, name) for name in FIELDS[kind]]
        positional = kind(*values)
        keyword = kind(**dict(zip(FIELDS[kind], values)))
        assert positional == keyword == record
        if kind is not NetworkProfile:  # its dict field is never hashed
            assert hash(positional) == hash(keyword) == hash(record)


def test_fields_cannot_be_assigned(records):
    for record in records:
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_repr_names_every_field_in_order(records):
    for record in records:
        kind = type(record)
        cells = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[kind])
        assert repr(record) == f"{kind.__name__}({cells})"


def test_pipeline_config_defaults():
    config = PipelineConfig()
    assert config.terminators == DEFAULT_TERMINATORS == ".!?…"
    assert config.keep_digits is True
    assert PipelineConfig(keep_digits=False).terminators == DEFAULT_TERMINATORS


def test_series_length_is_its_row_count():
    pairs = [("a", 3), ("b", 1), ("c", 3), ("d", None)]
    series = oracles.rank_series("in-degree", pairs)
    assert len(series) == 3
    assert series
    empty = oracles.rank_series("in-degree", [])
    assert len(empty) == 0
    assert not empty


@pytest.mark.parametrize("by_keyword", [False, True])
def test_unknown_measure_is_refused(by_keyword):
    values = ("in_degree", ("a",), (1,), (1,))
    with pytest.raises(ValueError, match=r"^unknown measure 'in_degree'$"):
        if by_keyword:
            RankSeries(**dict(zip(FIELDS[RankSeries], values)))
        else:
            RankSeries(*values)


def test_labeling_count_is_the_component_count(path4):
    assert weak_components(path4).count == 1
    split = CooccurrenceNetwork(("a", "b", "c", "d", "e"), {(0, 1): 1, (3, 2): 2})
    labeling = weak_components(split)
    assert labeling.count == len(labeling.sizes) == 3
    assert weak_components(CooccurrenceNetwork((), {})).count == 0


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter, so no module a test already imported is counted;
    # only what the import adds is checked, not what the site set up
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import coocnet.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    added = set(json.loads(run.stdout))
    assert "coocnet.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_records_copy_with_replace_and_unpack(records):
    for record in records:
        kind = type(record)
        assert kind._fields == FIELDS[kind]
        assert record._replace() == record
        assert tuple(record._asdict().values()) == tuple(record)
    series = oracles.rank_series("in-degree", [("a", 3), ("b", 1)])
    measure, words, values, ends = series
    assert series._replace(measure="out-degree") == ("out-degree", words, values, ends)
    with pytest.raises(ValueError, match=r"^unknown measure 'degree'$"):
        series._replace(measure="degree")

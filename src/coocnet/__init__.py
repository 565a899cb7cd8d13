"""Word co-occurrence networks: build, measure, rank, compare.

The package turns raw text into a directed weighted network of adjacent
words, computes global and per-node structure measures on it, and exports
rank series so two text categories can be compared side by side.  See the
module docstrings of `pipeline`, `network`, `metrics`, and `ranking` for
the exact conventions, and `cli` for the command-line front end.

Two texts are compared the way ``coocnet compare`` does it, one network at
a time: build the first network, take its `profile_network` and drop the
network; do the same for the second; then `size_mismatch` of the two node
counts says whether their rank series are comparable.

Every record type (`PipelineConfig`, `NodeMetrics`, `GlobalMetrics`,
`RankSeries`, `NetworkProfile`, ...) is a `typing.NamedTuple`: immutable,
equal by value, and unpacked or indexed like the tuple of its fields;
`_fields`, `_asdict` and `_replace` list, map and copy them.

A whole-network measure is a field of the `GlobalMetrics` that
`global_summary(net, sample)` returns, and a per-node measure a field of
the `NodeMetrics` rows of `all_node_metrics(net, sample)`, indexed by
node id.
"""

from .metrics import (
    GlobalMetrics,
    NodeMetrics,
    all_node_metrics,
    global_summary,
)
from .network import (
    CooccurrenceNetwork,
    EdgeListFormatError,
    EdgeRecord,
    build_network,
    from_edge_list,
    read_edge_list,
    to_edge_list,
    undirected_projection,
    weak_components,
    write_edge_list,
)
from .pipeline import (
    DEFAULT_CONFIG,
    DEFAULT_TERMINATORS,
    IngestionError,
    PipelineConfig,
    extract_sentences,
    load_config,
    load_document,
    normalize,
    segment_sentences,
    tokenize,
)
from .ranking import (
    MEASURES,
    NetworkProfile,
    RankEntry,
    RankSeries,
    all_rank_series,
    excluded_fraction,
    export_pair_csv,
    export_rank_csv,
    format_value,
    network_rank_series,
    profile_network,
    render_rank_svg,
    size_mismatch,
    write_node_metrics_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CooccurrenceNetwork",
    "DEFAULT_CONFIG",
    "DEFAULT_TERMINATORS",
    "EdgeListFormatError",
    "EdgeRecord",
    "GlobalMetrics",
    "IngestionError",
    "MEASURES",
    "NetworkProfile",
    "NodeMetrics",
    "PipelineConfig",
    "RankEntry",
    "RankSeries",
    "all_node_metrics",
    "all_rank_series",
    "build_network",
    "excluded_fraction",
    "export_pair_csv",
    "export_rank_csv",
    "extract_sentences",
    "format_value",
    "from_edge_list",
    "global_summary",
    "load_config",
    "load_document",
    "network_rank_series",
    "normalize",
    "profile_network",
    "read_edge_list",
    "render_rank_svg",
    "segment_sentences",
    "size_mismatch",
    "to_edge_list",
    "tokenize",
    "undirected_projection",
    "weak_components",
    "write_edge_list",
    "write_node_metrics_csv",
    "write_summary_csv",
]

"""Span recorder and traced call of ``coocnet.cli.main``.

A traced call makes the same ``coocnet.cli.main(argv)`` call as an
untraced one.  For its duration, the module attributes through which the
CLI and the package's modules call each other (``_WRAPPED``) are replaced
by wrappers that record a span around the real function, so the spans
follow the real call order and the real work.  One root span
``cli.<command>`` covers the whole ``main`` call; its time outside the
layer spans is the CLI's own work: argument parsing, labels, printing and
``mkdir``.  Nothing under ``src/`` is changed.

Span ``metrics.average_shortest_path`` times the distance kernel behind
``average_shortest_path`` (``metrics._distance_stats``) on its first call
per network and sample size, when the cache is cold and every
breadth-first search runs; later calls are cache hits and get no span.
``global_summary`` makes that first call, so its span holds the distance
span and the ``metrics.average_clustering`` span as children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path

from coocnet import cli, metrics, network, pipeline, ranking
from coocnet.network import undirected_projection, weak_components


def _distances_cold(net, sample) -> bool:
    return sample not in net._distance_cache


# (module, attribute, span name, condition for recording a span or None)
_WRAPPED = (
    (cli, "load_document", "pipeline.load_document", None),
    (cli, "extract_sentences", "pipeline.extract_sentences", None),
    (pipeline, "normalize", "pipeline.normalize", None),
    (pipeline, "segment_sentences", "pipeline.segment_sentences", None),
    (pipeline, "tokenize", "pipeline.tokenize", None),
    (cli, "build_network", "network.build_network", None),
    (cli, "read_edge_list", "network.read_edge_list", None),
    (cli, "write_edge_list", "network.write_edge_list", None),
    (metrics, "weak_components", "network.weak_components", None),
    (network, "undirected_projection", "network.undirected_projection", None),
    (cli, "global_summary", "metrics.global_summary", None),
    (ranking, "global_summary", "metrics.global_summary", None),
    (metrics, "_distance_stats", "metrics.average_shortest_path", _distances_cold),
    (metrics, "average_clustering", "metrics.average_clustering", None),
    (cli, "all_node_metrics", "metrics.all_node_metrics", None),
    (ranking, "all_rank_series", "ranking.all_rank_series", None),
    (cli, "excluded_fraction", "ranking.excluded_fraction", None),
    (ranking, "excluded_fraction", "ranking.excluded_fraction", None),
    (cli, "export_rank_csv", "ranking.export_rank_csv", None),
    (cli, "export_pair_csv", "ranking.export_pair_csv", None),
    (cli, "render_rank_svg", "ranking.render_rank_svg", None),
    (cli, "write_summary_csv", "ranking.write_summary_csv", None),
    (cli, "write_node_metrics_csv", "ranking.write_node_metrics_csv", None),
)
# spans whose arguments and results the work counters are computed from
_KEPT = {
    "pipeline.extract_sentences",
    "network.build_network",
    "network.read_edge_list",
    "network.write_edge_list",
}


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent_index]``.

    The parent index is -1 for the root span.  Spans are appended when
    they start, so a parent always precedes its children.  ``kept`` holds
    ``(args, result)`` of the calls whose span name is in ``keep``.
    """

    def __init__(self, keep=frozenset()) -> None:
        self.spans: list[list] = []
        self.keep = keep
        self.kept: dict[str, list[tuple]] = defaultdict(list)
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        record = [name, 0, 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def wrapping(self, module, attribute: str, name: str, when=None):
        original = getattr(module, attribute)

        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return original(*args, **kwargs)
            result = self.call(name, original, *args, **kwargs)
            if name in self.keep:
                self.kept[name].append((args, result))
            return result

        setattr(module, attribute, traced)
        try:
            yield
        finally:
            setattr(module, attribute, original)


def traced_main(argv: list[str]) -> tuple[int, list[list], dict[str, int]]:
    """One traced ``coocnet.cli.main`` call; return (exit status, spans, counters)."""
    tracer = Tracer(_KEPT)
    with ExitStack() as stack:
        for module, attribute, name, when in _WRAPPED:
            stack.enter_context(tracer.wrapping(module, attribute, name, when))
        code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    if code != 0:
        return code, tracer.spans, {}
    args = cli.build_parser().parse_args(argv)
    return code, tracer.spans, _counters(tracer.kept, Path(args.out), args.sample)


def _counters(kept: dict[str, list[tuple]], out: Path, sample) -> dict[str, int]:
    """Work counts of one traced call, computed after its spans have closed.

    ``metrics.bfs_sources`` and ``metrics.bfs_edge_visits`` are computed,
    not counted inside the kernel: one search per source, and each search
    visits every adjacency entry of the largest component once
    (2 x its undirected edges).
    """
    texts = [args[0] for args, _ in kept["pipeline.extract_sentences"]]
    sentence_lists = [result for _, result in kept["pipeline.extract_sentences"]]
    nets = [
        net for name in ("network.build_network", "network.read_edge_list") for _, net in kept[name]
    ]
    edge_files = [args[1] for args, _ in kept["network.write_edge_list"]]
    edge_files += [args[0] for args, _ in kept["network.read_edge_list"]]
    counts = {
        "pipeline.chars": sum(map(len, texts)),
        "pipeline.sentences": sum(map(len, sentence_lists)),
        "pipeline.tokens": sum(len(tokens) for s in sentence_lists for tokens in s),
        "network.nodes": 0,
        "network.edges": 0,
        "network.components": 0,
        "network.largest_component": 0,
        "network.edge_list_bytes": sum(Path(path).stat().st_size for path in edge_files),
        "metrics.bfs_sources": 0,
        "metrics.bfs_edge_visits": 0,
    }
    for net in nets:
        labeling = weak_components(net)
        adjacency = undirected_projection(net)
        n_prime = labeling.sizes[labeling.largest]
        sources = n_prime if sample is None else min(sample, n_prime)
        adjacency_entries = sum(
            len(adjacency[node])
            for node in range(net.n_nodes)
            if labeling.labels[node] == labeling.largest
        )
        counts["network.nodes"] += net.n_nodes
        counts["network.edges"] += net.n_edges
        counts["network.components"] += labeling.count
        counts["network.largest_component"] += n_prime
        counts["metrics.bfs_sources"] += sources
        counts["metrics.bfs_edge_visits"] += sources * adjacency_entries
    rows = written = 0
    for path in sorted(out.iterdir()):
        if path.name.endswith(".edges.tsv"):
            continue  # written by the network layer
        data = path.read_bytes()
        written += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1  # minus the header
    counts["ranking.rows_written"] = rows
    counts["ranking.bytes_written"] = written
    return counts

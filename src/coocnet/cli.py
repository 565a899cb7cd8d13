"""Command-line front end.

Subcommands:

* ``build``    text file(s) -> TSV edge list per input
* ``analyze``  text or edge list -> summary CSV + human-readable report
* ``rank``     text or edge list -> rank-series CSV per measure
* ``compare``  two text files -> edge lists, joint summary CSV, rank CSVs,
  rank-by-rank pairing CSVs, and optional SVG rank plots

All writers are byte-deterministic, so two runs over the same inputs
produce identical output trees (timestamps aside).  Exit status is 0 only
when every requested output was written.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .metrics import GlobalMetrics, all_node_metrics, global_summary
from .network import (
    CooccurrenceNetwork,
    build_network,
    read_edge_list,
    write_edge_list,
)
from .pipeline import (
    DEFAULT_CONFIG,
    PipelineConfig,
    extract_sentences,
    load_config,
    load_document,
)
from .ranking import (
    MEASURES,
    SizeMismatchWarning,
    compare_pair,
    excluded_fraction,
    export_pair_csv,
    export_rank_csv,
    format_value,
    network_rank_series,
    render_rank_svg,
    write_node_metrics_csv,
    write_summary_csv,
)

_EDGE_SUFFIXES = {".tsv", ".edges"}


def sanitize_label(label: str) -> str:
    """Restrict a label to filename-safe characters."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_-" else "_" for ch in label
    )
    return cleaned or "network"


def _label(given: str | None, path: str | Path) -> str:
    """The sanitized given label, or the input's file stem when none is given."""
    return sanitize_label(Path(path).stem if given is None else given)


def _build_from_text(path: str, config: PipelineConfig) -> CooccurrenceNetwork:
    document = load_document(path)
    return build_network(extract_sentences(document.content, config))


def _load_network(
    path: str, config: PipelineConfig, input_format: str
) -> CooccurrenceNetwork:
    if input_format == "auto":
        suffix = Path(path).suffix.lower()
        input_format = "edges" if suffix in _EDGE_SUFFIXES else "text"
    if input_format == "edges":
        return read_edge_list(path)
    return _build_from_text(path, config)


def _print_summary(label: str, metrics: GlobalMetrics, excluded) -> None:
    undef = "undefined"
    rows = [
        ("nodes (N)", str(metrics.n_nodes)),
        ("directed edges (K)", str(metrics.n_edges)),
        ("average degree", format_value(metrics.avg_degree) or undef),
        ("avg shortest path", format_value(metrics.avg_shortest_path) or undef),
        ("diameter", format_value(metrics.diameter) or undef),
        ("average clustering", format_value(metrics.avg_clustering) or undef),
        ("density", format_value(metrics.density) or undef),
        ("weak components", str(metrics.n_components)),
        ("largest component", str(metrics.largest_component_size)),
        ("rank-excluded nodes", f"{float(excluded):.1%}"),
    ]
    print(f"network: {label}")
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}}  {value}")


def _write(path: Path, writer, *args) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    writer(*args, path)
    print(f"wrote {path}")


def _cmd_build(args: argparse.Namespace, config: PipelineConfig) -> int:
    labels = [_label(None, path) for path in args.texts]
    for place, label in enumerate(labels):
        if label in labels[:place]:  # both would write <label>.edges.tsv
            raise ValueError(f"labels must differ, two inputs are {label!r}")
    # every input loads before the first write, so a failure writes nothing
    nets = [_build_from_text(path, config) for path in args.texts]
    for label, net in zip(labels, nets):
        print(f"{label}: N={net.n_nodes} K={net.n_edges}")
        # the format has no node section, so these words do not survive it;
        # counted from the out-edges alone, which derives no in-edges
        nodes = range(net.n_nodes)
        targets = {dst for node in nodes for dst in net.out_weights(node)}
        edgeless = sum(
            1 for node in nodes if not (net.out_weights(node) or node in targets)
        )
        if edgeless:
            print(
                f"warning: {label}: {edgeless} of {net.n_nodes} words have no "
                f"edge and are not in the edge list",
                file=sys.stderr,
            )
        _write(Path(args.out) / f"{label}.edges.tsv", write_edge_list, net)
    return 0


def _cmd_analyze(args: argparse.Namespace, config: PipelineConfig) -> int:
    net = _load_network(args.input, config, args.format)
    label = _label(args.label, args.input)
    metrics = global_summary(net, args.sample)
    excluded = excluded_fraction(net)
    _print_summary(label, metrics, excluded)
    out_dir = Path(args.out)
    _write(out_dir / f"{label}.summary.csv", write_summary_csv, [(label, metrics)])
    _write(
        out_dir / f"{label}.nodes.csv",
        write_node_metrics_csv,
        all_node_metrics(net, args.sample),
    )
    return 0


def _cmd_rank(args: argparse.Namespace, config: PipelineConfig) -> int:
    net = _load_network(args.input, config, args.format)
    label = _label(args.label, args.input)
    measures = MEASURES if args.measure == "all" else (args.measure,)
    out_dir = Path(args.out)
    for measure in measures:
        series = network_rank_series(net, measure)
        _write(out_dir / f"{label}.{measure}.rank.csv", export_rank_csv, series)
    return 0


def _cmd_compare(args: argparse.Namespace, config: PipelineConfig) -> int:
    net_a = _build_from_text(args.text_a, config)
    net_b = _build_from_text(args.text_b, config)
    given_a, given_b = args.labels or (None, None)
    label_a = _label(given_a, args.text_a)
    label_b = _label(given_b, args.text_b)
    if label_a == label_b:
        raise ValueError(f"labels must differ, both are {label_a!r}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SizeMismatchWarning)
        comparison = compare_pair(net_a, net_b, label_a, label_b, args.sample)
    for warning in caught:  # one line each, without Python's source excerpt
        print(f"warning: {warning.message}", file=sys.stderr)
    out_dir = Path(args.out)

    _write(out_dir / f"{label_a}.edges.tsv", write_edge_list, net_a)
    _write(out_dir / f"{label_b}.edges.tsv", write_edge_list, net_b)
    _write(
        out_dir / "summary.csv",
        write_summary_csv,
        [
            (label_a, comparison.summary_a),
            (label_b, comparison.summary_b),
        ],
    )
    for measure in MEASURES:
        series_a = comparison.series_a[measure]
        series_b = comparison.series_b[measure]
        _write(out_dir / f"{label_a}.{measure}.rank.csv", export_rank_csv, series_a)
        _write(out_dir / f"{label_b}.{measure}.rank.csv", export_rank_csv, series_b)
        _write(
            out_dir / f"{label_a}_vs_{label_b}.{measure}.pair.csv",
            export_pair_csv,
            series_a,
            series_b,
        )
        if args.svg:
            _write(
                out_dir / f"{label_a}_vs_{label_b}.{measure}.svg",
                render_rank_svg,
                series_a,
                series_b,
                label_a,
                label_b,
            )

    _print_summary(label_a, comparison.summary_a, comparison.excluded_a)
    _print_summary(label_b, comparison.summary_b, comparison.excluded_b)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=".", help="output directory (default: current)"
    )
    parser.add_argument(
        "--config", default=None, help="key=value pipeline configuration file"
    )


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="text file or TSV edge list")
    parser.add_argument(
        "--format",
        choices=("auto", "text", "edges"),
        default="auto",
        help="input kind; auto = by extension (.tsv/.edges are edge lists)",
    )
    parser.add_argument("--label", default=None, help="label (default: file stem)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coocnet",
        description=(
            "Word co-occurrence networks from raw text: build edge lists, "
            "compute structure measures, and compare text categories."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="text file(s) -> TSV edge list(s)")
    p_build.add_argument("texts", nargs="+", help="UTF-8 text file(s)")
    _add_common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_analyze = sub.add_parser(
        "analyze", help="compute global measures, write a summary CSV"
    )
    _add_input_options(p_analyze)
    _add_common(p_analyze)
    p_analyze.add_argument(
        "--sample",
        type=int,
        default=None,
        help="estimate path measures from this many source nodes",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_rank = sub.add_parser("rank", help="write rank-series CSVs")
    _add_input_options(p_rank)
    _add_common(p_rank)
    p_rank.add_argument(
        "--measure",
        choices=MEASURES + ("all",),
        default="all",
        help="which series to export (default: all six)",
    )
    p_rank.set_defaults(func=_cmd_rank)

    p_compare = sub.add_parser(
        "compare", help="build and compare networks from two text files"
    )
    p_compare.add_argument("text_a", help="first UTF-8 text file")
    p_compare.add_argument("text_b", help="second UTF-8 text file")
    p_compare.add_argument(
        "--labels",
        nargs=2,
        metavar=("LABEL_A", "LABEL_B"),
        default=None,
        help="category labels (default: file stems)",
    )
    p_compare.add_argument(
        "--svg", action="store_true", help="also render SVG rank plots"
    )
    p_compare.add_argument(
        "--sample",
        type=int,
        default=None,
        help="estimate path measures from this many source nodes",
    )
    _add_common(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = DEFAULT_CONFIG if args.config is None else load_config(args.config)
        return args.func(args, config)
    except (ValueError, OSError) as exc:  # the package's errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:

* ``build``    text file(s) -> TSV edge list per input
* ``analyze``  text or edge list -> summary CSV + human-readable report
* ``rank``     text or edge list -> rank-series CSV per measure
* ``compare``  two text files -> edge lists, joint summary CSV, rank CSVs,
  rank-by-rank pairing CSVs, and optional SVG rank plots

All writers are byte-deterministic, so two runs over the same inputs
produce identical output trees (timestamps aside).  Exit status is 0 only
when every requested output was written; a command that fails writes back
the earlier bytes of the files it overwrote, deletes the files it made
and removes the directories it made, so it leaves ``--out`` as it was.
An interrupt (Ctrl-C) does the same, prints one ``error: interrupted``
line and exits 130.  A stdout closed by its reader stops the printed
lines but not the command (`_say`).

``build`` and ``compare`` check that their labels differ before they read
an input, then hold one network at a time: each input in turn is read and
built, and its edge list is written before the next input is read.  Both
warn on stderr of the words that have no edge, which the edge list drops.
``compare`` also takes each network's summary, rank series and excluded
fraction (`ranking.profile_network`) before it drops the network.  The
size warning, ``summary.csv``, the rank, pair and SVG files and the
printed summaries follow from the two profiles.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Sequence

from .metrics import GlobalMetrics, all_node_metrics, global_summary
from .network import (
    CooccurrenceNetwork,
    _edgeless_count,
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
    NetworkProfile,
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


def _labels(given: Sequence[str | None], paths: Sequence[str]) -> list[str]:
    """The inputs' labels, checked to differ: equal ones name the same files."""
    labels = list(map(_label, given, paths))
    for place, label in enumerate(labels):
        if label in labels[:place]:
            raise ValueError(f"labels must differ, two inputs are {label!r}")
    return labels


def _build_from_text(path: str, config: PipelineConfig) -> CooccurrenceNetwork:
    # the text is freed once its sentences are extracted
    return build_network(extract_sentences(load_document(path).content, config))


def _load_network(
    path: str, config: PipelineConfig, input_format: str
) -> CooccurrenceNetwork:
    if input_format == "auto":
        suffix = Path(path).suffix.lower()
        input_format = "edges" if suffix in _EDGE_SUFFIXES else "text"
    if input_format == "edges":
        return read_edge_list(path)
    return _build_from_text(path, config)


def _say(line: str) -> None:
    """Print and flush one line of the report; a closed stdout is not an error.

    The files are the results, so a reader that stops reading
    (``coocnet compare ... | head -1``) must not fail the command.  On
    `BrokenPipeError` stdout's descriptor is pointed at ``os.devnull``, as
    the Python documentation's note on SIGPIPE advises, so the later lines
    and the flush at exit go nowhere.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    _say(f"network: {label}")
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        _say(f"  {name:<{width}}  {value}")


class _Outputs:
    """The files one command writes into ``--out``, put back if it fails.

    `write` makes the directory on first use, and before a writer runs it
    records the file's name with the bytes of the regular file already
    there, if any; those bytes are held until the command ends.  Leaving
    the ``with`` block by an exception writes the old bytes back, deletes
    the files that were not there, then removes the directories `write`
    made, innermost first, so a failed command leaves ``--out`` as it was.
    """

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self._files: list[tuple[Path, bytes | None]] = []
        self._dirs: list[Path] = []

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            return
        # a recorded name may be a directory that was there before; unlink
        # fails on it, and only the directories made here are removed
        for path, old in self._files:
            with contextlib.suppress(OSError):
                if old is None:
                    path.unlink(missing_ok=True)
                else:
                    path.write_bytes(old)
        for path in self._dirs:
            with contextlib.suppress(OSError):
                path.rmdir()

    def write(self, name: str, writer, *args) -> None:
        if not self.directory.is_dir():
            missing = (self.directory, *self.directory.parents)
            self._dirs.extend(d for d in missing if not d.exists())
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        self._files.append((path, path.read_bytes() if path.is_file() else None))
        writer(*args, path)
        _say(f"wrote {path}")


def _write_edges(out: _Outputs, label: str, net: CooccurrenceNetwork) -> None:
    """Warn of the words the edge list drops, then write the edge list.

    The format has no node section, so a word with no edge does not
    survive it.
    """
    edgeless = _edgeless_count(net)
    if edgeless:
        print(
            f"warning: {label}: {edgeless} of {net.n_nodes} words have "
            f"no edge and are not in the edge list",
            file=sys.stderr,
        )
    out.write(f"{label}.edges.tsv", write_edge_list, net)


def _cmd_build(args: argparse.Namespace, config: PipelineConfig) -> int:
    labels = _labels([None] * len(args.texts), args.texts)
    with _Outputs(args.out) as out:
        for label, path in zip(labels, args.texts):
            net = _build_from_text(path, config)
            _say(f"{label}: N={net.n_nodes} K={net.n_edges}")
            _write_edges(out, label, net)
            del net  # freed before the next input is built
    return 0


def _cmd_analyze(args: argparse.Namespace, config: PipelineConfig) -> int:
    net = _load_network(args.input, config, args.format)
    label = _label(args.label, args.input)
    metrics = global_summary(net, args.sample)
    excluded = excluded_fraction(net)
    _print_summary(label, metrics, excluded)
    with _Outputs(args.out) as out:
        out.write(f"{label}.summary.csv", write_summary_csv, [(label, metrics)])
        out.write(
            f"{label}.nodes.csv",
            write_node_metrics_csv,
            all_node_metrics(net, args.sample),
        )
    return 0


def _cmd_rank(args: argparse.Namespace, config: PipelineConfig) -> int:
    net = _load_network(args.input, config, args.format)
    label = _label(args.label, args.input)
    measures = MEASURES if args.measure == "all" else (args.measure,)
    with _Outputs(args.out) as out:
        for measure in measures:
            series = network_rank_series(net, measure)
            out.write(f"{label}.{measure}.rank.csv", export_rank_csv, series)
    return 0


def _profile_text(
    out: _Outputs,
    label: str,
    path: str,
    config: PipelineConfig,
    sample: int | None,
) -> NetworkProfile:
    """Build one input's network, write its edge list and profile it.

    The writer's transients are freed before the profile's projection and
    per-node table are built.  The network is dropped on return, so
    ``compare`` holds one at a time.
    """
    net = _build_from_text(path, config)
    _write_edges(out, label, net)
    return profile_network(net, sample)


def _cmd_compare(args: argparse.Namespace, config: PipelineConfig) -> int:
    inputs = (args.text_a, args.text_b)
    label_a, label_b = _labels(args.labels or (None, None), inputs)
    with _Outputs(args.out) as out:
        side_a = _profile_text(out, label_a, args.text_a, config, args.sample)
        side_b = _profile_text(out, label_b, args.text_b, config, args.sample)
        message = size_mismatch(side_a.summary.n_nodes, side_b.summary.n_nodes)
        if message is not None:
            print(f"warning: {message}", file=sys.stderr)
        out.write(
            "summary.csv",
            write_summary_csv,
            [(label_a, side_a.summary), (label_b, side_b.summary)],
        )
        for measure in MEASURES:
            series_a = side_a.series[measure]
            series_b = side_b.series[measure]
            out.write(f"{label_a}.{measure}.rank.csv", export_rank_csv, series_a)
            out.write(f"{label_b}.{measure}.rank.csv", export_rank_csv, series_b)
            out.write(
                f"{label_a}_vs_{label_b}.{measure}.pair.csv",
                export_pair_csv,
                series_a,
                series_b,
            )
            if args.svg:
                out.write(
                    f"{label_a}_vs_{label_b}.{measure}.svg",
                    render_rank_svg,
                    series_a,
                    series_b,
                    label_a,
                    label_b,
                )

    _print_summary(label_a, side_a.summary, side_a.excluded)
    _print_summary(label_b, side_b.summary, side_b.excluded)
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
    except KeyboardInterrupt:  # --out is already put back; no traceback
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

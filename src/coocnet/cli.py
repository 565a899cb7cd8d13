"""Command-line front end.

Subcommands:

* ``build``    text file(s) -> TSV edge list per input
* ``analyze``  text or edge list -> summary CSV + human-readable report
* ``rank``     text or edge list -> rank-series CSV per measure
* ``compare``  two text files -> edge lists, joint summary CSV, rank CSVs,
  rank-by-rank pairing CSVs, and optional SVG rank plots

All writers are byte-deterministic, so two runs over the same inputs
produce identical output trees (timestamps aside).  Exit status is 0 only
when every requested output was written.  Every output file is replaced
whole, never left part-written under its name, even by a kill; a command
that fails moves back a copy of each file it overwrote, kept on disk, and
deletes the files and directories it made, so ``--out`` is as it was.
An interrupt (Ctrl-C) or SIGTERM does the same, prints one
``error: interrupted`` line and exits 130 or 143; running out of memory
prints ``error: out of memory`` and exits 1.  Every line the command
prints, to stdout or stderr, goes through `_say`, so a stream closed by
its reader stops the lines but not the command, and a line the stream
cannot encode is printed with backslash escapes.

``build`` and ``compare`` check that their labels differ, in more than
letter case, before they read an input, then hold one network at a time:
each input in turn is read and built, and its edge list is written before
the next input is read.  Both warn on stderr of the words that have no
edge, which the edge list drops.
``compare`` also takes each network's summary, rank series and excluded
fraction (`ranking.profile_network`) before it drops the network.  The
size warning, ``summary.csv``, the rank, pair and SVG files and the
printed summaries follow from the two profiles.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Sequence

from .metrics import (
    GlobalMetrics,
    _check_sample,
    all_node_metrics,
    global_summary,
)
from .network import (
    CooccurrenceNetwork,
    _edgeless_count,
    _staging_name,
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
    """The inputs' labels, checked to differ in more than letter case: equal
    ones name the same files, and so do ones that differ only in case on a
    case-insensitive file system (the default on macOS and Windows)."""
    labels = list(map(_label, given, paths))
    for place, label in enumerate(labels):
        for first in labels[:place]:
            if first == label:
                raise ValueError(f"labels must differ, two inputs are {label!r}")
            if first.casefold() == label.casefold():
                raise ValueError(
                    f"labels must differ in more than letter case, "
                    f"two inputs are {first!r} and {label!r}"
                )
    return labels


def _build_from_text(path: str, config: PipelineConfig) -> CooccurrenceNetwork:
    # the text is freed once its sentences are extracted
    return build_network(extract_sentences(load_document(path), config))


def _check_not_empty(net: CooccurrenceNetwork, path: str) -> None:
    """Refuse, naming the input, a network that has no measure defined."""
    if net.n_nodes == 0:
        raise ValueError(f"{path}: global summary of an empty network is undefined")


def _load_network(
    path: str, config: PipelineConfig, input_format: str
) -> CooccurrenceNetwork:
    if input_format == "auto":
        suffix = Path(path).suffix.lower()
        input_format = "edges" if suffix in _EDGE_SUFFIXES else "text"
    if input_format == "edges":
        return read_edge_list(path)
    return _build_from_text(path, config)


def _say(line: str, stream=None) -> None:
    """Print and flush one line; a closed stream is not an error.

    `stream` is stdout when None, looked up at each call so that a
    redirected stdout is followed; warnings and errors pass ``sys.stderr``.
    The files are the results, so a reader that stops reading
    (``coocnet compare ... 2>&1 | head -1``) must not fail the command,
    whether the line is a report line or a warning or error.  A line the
    stream cannot encode (a label in Cyrillic, on an ASCII stdout) is
    printed again with backslash escapes, as Python prints to stderr.  On
    `BrokenPipeError` the stream's descriptor is pointed at
    ``os.devnull``, as the Python documentation's note on SIGPIPE advises,
    so the later lines and the flush at exit go nowhere.
    """
    stream = sys.stdout if stream is None else stream
    try:
        try:
            print(line, file=stream, flush=True)
        except UnicodeEncodeError:
            escaped = line.encode(stream.encoding, "backslashreplace")
            print(escaped.decode(stream.encoding), file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


# the report name of each GlobalMetrics field, in field order
_REPORT_NAMES = (
    "nodes (N)",
    "directed edges (K)",
    "average degree",
    "avg shortest path",
    "diameter",
    "average clustering",
    "density",
    "weak components",
    "largest component",
)


def _print_summary(label: str, metrics: GlobalMetrics, excluded) -> None:
    rows = [
        (name, format_value(value) or "undefined")
        for name, value in zip(_REPORT_NAMES, metrics)
    ]
    rows.append(("rank-excluded nodes", f"{float(excluded):.1%}"))
    _say(f"network: {label}")
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        _say(f"  {name:<{width}}  {value}")


class _Outputs:
    """The files one command writes into ``--out``, put back if it fails.

    `write` makes the directory on first use, and before a writer runs it
    records the file's name and copies a regular file already there to
    its ``.old`` staging name (`network._staging_name`) by `shutil.copy2`,
    a kernel copy that keeps mode and mtime.  Leaving the ``with`` block
    deletes the copies; leaving it by an exception moves each back,
    deletes the files that were not there, then removes the directories
    `write` made, innermost first, so a failed command leaves ``--out`` as
    it was.
    """

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self._files: list[tuple[Path, Path | None]] = []
        self._dirs: list[Path] = []

    def __enter__(self) -> _Outputs:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        # a recorded name may be a directory that was there before; unlink
        # fails on it, and only the directories made here are removed
        for path, old in self._files:
            with contextlib.suppress(OSError):
                if old is None:
                    if exc_type is not None:
                        path.unlink(missing_ok=True)
                elif exc_type is None:
                    old.unlink()
                else:
                    os.replace(old, path)
        for path in self._dirs if exc_type is not None else ():
            with contextlib.suppress(OSError):
                path.rmdir()

    def write(self, name: str, writer, *args) -> None:
        if not self.directory.is_dir():
            missing = (self.directory, *self.directory.parents)
            self._dirs.extend(d for d in missing if not d.exists())
            self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / name
        old = Path(_staging_name(path, "old")) if path.is_file() else None
        # until it is whole, a copy counts as made here: deleted on failure
        self._files.append((old or path, None))
        if old is not None:
            shutil.copy2(path, old)
        self._files[-1] = (path, old)
        writer(*args, path)
        _say(f"wrote {path}")


def _write_edges(out: _Outputs, label: str, net: CooccurrenceNetwork) -> None:
    """Warn of the words the edge list drops, then write the edge list.

    The format has no node section, so a word with no edge does not
    survive it.
    """
    edgeless = _edgeless_count(net)
    if edgeless:
        _say(
            f"warning: {label}: {edgeless} of {net.n_nodes} words have "
            f"no edge and are not in the edge list",
            sys.stderr,
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
    _check_not_empty(net, args.input)
    # rows first: their sampled sweep tallies per source and serves the summary
    # too, where the summary first would sweep for totals and then again
    rows = all_node_metrics(net, args.sample)
    metrics = global_summary(net, args.sample)
    excluded = excluded_fraction(net)
    _print_summary(label, metrics, excluded)
    with _Outputs(args.out) as out:
        out.write(f"{label}.summary.csv", write_summary_csv, [(label, metrics)])
        out.write(f"{label}.nodes.csv", write_node_metrics_csv, rows)
    return 0


def _cmd_rank(args: argparse.Namespace, config: PipelineConfig) -> int:
    net = _load_network(args.input, config, args.format)
    label = _label(args.label, args.input)
    with _Outputs(args.out) as out:
        for measure in MEASURES:
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

    An input with no words is refused before its edge list is written, so
    no ``wrote`` line names a file that the rollback deletes.  The
    writer's transients are freed before the profile's projection and
    per-node columns are built.  The network is dropped on return, so
    ``compare`` holds one at a time.
    """
    net = _build_from_text(path, config)
    _check_not_empty(net, path)
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
            _say(f"warning: {message}", sys.stderr)
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


def _add_sample(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="estimate path measures from this many source nodes",
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
        "analyze", help="compute global measures, write summary and node CSVs"
    )
    _add_input_options(p_analyze)
    _add_common(p_analyze)
    _add_sample(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_rank = sub.add_parser("rank", help="write the six rank-series CSVs")
    _add_input_options(p_rank)
    _add_common(p_rank)
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
    _add_sample(p_compare)
    _add_common(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    return parser


def _terminated(signum, frame):
    """SIGTERM's handler: take the interrupt path, with the signal's number."""
    raise KeyboardInterrupt(signum)


def main(argv: list[str] | None = None) -> int:
    # The cyclic collector is paused for the command and left as the caller
    # had it.  A command's data hold no reference cycle: a collection after
    # any command finds the same few hundred objects of argparse's, on any
    # input size, so its passes over the networks, tables and series would
    # free nothing.  The argparse objects wait for the next collection.
    collecting = gc.isenabled()
    gc.disable()
    previous = None
    try:
        args = build_parser().parse_args(argv)
        with contextlib.suppress(ValueError):  # only the main thread may set it
            previous = signal.signal(signal.SIGTERM, _terminated)
        _check_sample(getattr(args, "sample", None))  # before any input is read
        config = DEFAULT_CONFIG if args.config is None else load_config(args.config)
        return args.func(args, config)
    except (ValueError, OSError) as exc:  # the package's errors subclass ValueError
        _say(f"error: {exc}", sys.stderr)
        return 1
    except MemoryError:  # --out is already put back, as on any exception
        _say("error: out of memory", sys.stderr)
        return 1
    except KeyboardInterrupt as exc:  # --out is already put back; no traceback
        _say("error: interrupted", sys.stderr)
        return 143 if exc.args == (signal.SIGTERM,) else 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``coocnet`` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload zipf-exact --seed 0 --seconds 45 --trace 0

One run generates the workload's inputs from ``--seed`` (untimed), checks
``compare --svg`` on the two bundled fixtures against a golden digest,
then for ``--seconds`` starts fresh single-threaded interpreters that
each make one ``coocnet.cli.main`` call on the inputs.  Every output tree
is checked.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced calls with traced calls
(``spans.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A JSON record with the environment, the
input shape, every sample and the spans of the last traced call is
written to ``.bench_results/``.  See ``NOTES.md`` for why each workload
exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = (ROOT / "fixtures" / "formal_excerpt.txt", ROOT / "fixtures" / "informal_excerpt.txt")
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SAMPLE_TIMEOUT_S = 150
MIN_SETUP_STARTS = 15
# fixed hashing, so every measured process lays out its dicts the same way
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    words: int  # per generated corpus
    options: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-exact",
            "exact all-pairs BFS is ~86% of the time; a distance-kernel change "
            "and its memory cost show here",
            "compare",
            5_000,
            ("--svg",),
        ),
        Workload(
            "zipf-sampled",
            "16 sampled BFS sources leave ingestion, build, clustering, rank "
            "series and the CSV/SVG writers to do the work",
            "compare",
            40_000,
            ("--svg", "--sample", "16"),
        ),
        Workload(
            "edges-analyze",
            "reads an edge list instead of text: the edge-list parser, "
            "per-node measures and nodes.csv; no pipeline",
            "analyze",
            100_000,
            ("--sample", "16"),
        ),
    )
}

# per-layer metrics: spans named after the public function they time ...
SPAN_NAMES = (
    "pipeline.load_document",
    "pipeline.extract_sentences",
    "pipeline.normalize",
    "pipeline.segment_sentences",
    "pipeline.tokenize",
    "network.build_network",
    "network.write_edge_list",
    "network.read_edge_list",
    "network.undirected_projection",
    "network.weak_components",
    "metrics.average_shortest_path",
    "metrics.global_summary",
    "metrics.average_clustering",
    "metrics.all_node_metrics",
    "ranking.all_rank_series",
    "ranking.excluded_fraction",
    "ranking.export_rank_csv",
    "ranking.export_pair_csv",
    "ranking.render_rank_svg",
    "ranking.write_summary_csv",
    "ranking.write_node_metrics_csv",
)
LAYERS = ("pipeline", "network", "metrics", "ranking")
# ... and work counts of the traced call, which must repeat exactly
COUNTERS = (
    "pipeline.chars",
    "pipeline.sentences",
    "pipeline.tokens",
    "network.nodes",
    "network.edges",
    "network.components",
    "network.largest_component",
    "network.edge_list_bytes",
    "metrics.bfs_sources",
    "metrics.bfs_edge_visits",
    "ranking.rows_written",
    "ranking.bytes_written",
)
COUNTER_UNITS = {"network.edge_list_bytes": "bytes", "ranking.bytes_written": "bytes"}


PER_LAYER_UNITS = (
    {f"{name}_s": "s" for name in SPAN_NAMES}
    | {f"{layer}.self_s": "s" for layer in LAYERS}
    | {name: COUNTER_UNITS.get(name, "count") for name in COUNTERS}
    | {
        "pipeline.ns_per_token": "ns/token",
        "metrics.ns_per_edge_visit": "ns/visit",
        "cli.unaccounted_s": "s",
        "trace.overhead_s": "s",
        "trace.total_s": "s",
    }
)


END_TO_END_UNITS = {"wall_s": "s", "edges_per_s": "edges/s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Prepared:
    argv: list[str]  # CLI arguments without --out
    inputs: list[Path]  # files the measured process reads during set-up
    labels: list[str]
    counts: dict[str, tuple[int, int]]  # label -> (N, K) its summary row must show
    shape: list[dict]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_digests(prepared: Prepared) -> list[str]:
    """sha256 of every generated input, the edge lists written in set-up too."""
    return [
        digest
        for rec in prepared.shape
        for digest in (rec["sha256"], rec.get("edge_list", {}).get("sha256"))
        if digest
    ]


def prepare(workload: Workload, seed: int, work: Path) -> Prepared:
    """Write the workload's inputs and measure their shape with the package."""
    import corpus
    from coocnet.cli import sanitize_label
    from coocnet.network import build_network, weak_components, write_edge_list
    from coocnet.pipeline import extract_sentences

    streams = ("alpha", "beta") if workload.command == "compare" else ("corpus",)
    inputs, shape = [], []
    for stream in streams:
        text_path = work / f"{stream}.txt"
        text_path.write_text(
            corpus.zipf_text(seed, f"{workload.name}/{stream}", workload.words),
            encoding="utf-8",
        )
        sentences = extract_sentences(text_path.read_text(encoding="utf-8"))
        net = build_network(sentences)
        labeling = weak_components(net)
        record = {
            "file": text_path.name,
            "sha256": _sha256(text_path),
            "sentences": len(sentences),
            "tokens": sum(map(len, sentences)),
            "N": net.n_nodes,
            "K": net.n_edges,
            "N_prime": labeling.sizes[labeling.largest],
        }
        path = text_path
        if workload.command == "analyze":
            path = work / f"{stream}.edges.tsv"
            write_edge_list(net, path)
            # words of one-word sentences have no edge and are not in the file
            record["N"] = sum(
                1 for v in range(net.n_nodes) if net.out_weights(v) or net.in_weights(v)
            )
            record["edge_list"] = {"file": path.name, "sha256": _sha256(path)}
        inputs.append(path)
        shape.append(record)
    labels = [sanitize_label(path.stem) for path in inputs]
    return Prepared(
        argv=[workload.command, *map(str, inputs), *workload.options],
        inputs=inputs,
        labels=labels,
        counts={label: (rec["N"], rec["K"]) for label, rec in zip(labels, shape)},
        shape=shape,
    )


def fixture_digest(work: Path) -> str:
    """Digest of ``compare --svg`` on the bundled fixtures, run in-process."""
    from check import tree_digest
    from coocnet.cli import main

    out = work / "fixtures-out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["compare", *map(str, FIXTURES), "--svg", "--out", str(out)])
    return tree_digest(out) if code == 0 else f"exit status {code}"


def run_sample(mode: str, prepared: Prepared, work: Path, index: int) -> dict:
    """Start one measured process; return its result or the reason it failed."""
    out = work / f"out-{index}"
    result_path = work / f"result-{index}.json"
    spec = {
        "src": str(SRC),
        "argv": [*prepared.argv, "--out", str(out)],
        "inputs": [str(path) for path in prepared.inputs],
        "mode": mode,
        "result": str(result_path),
    }
    spec["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
            cwd=work,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"no result within {SAMPLE_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        return {"mode": mode, "error": f"exit status {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    result["mode"] = mode
    if mode != "setup" and result["exit"] != 0:
        result["error"] = f"main returned {result['exit']}"
    return result


class Run:
    """One benchmark run: its samples, checks and derived metrics."""

    def __init__(self, workload: Workload, seed: int, traced: bool, golden: dict):
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.golden = golden.get("workloads", {}).get(workload.name, {}).get(str(seed))
        self.samples: list[dict] = []
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def verify(self, sample: dict, prepared: Prepared, out: Path) -> None:
        """Check one output tree; mark the sample failed on any problem."""
        from check import expected_files, tree_digest, tree_problems
        from coocnet.ranking import MEASURES

        expected = expected_files(
            self.workload.command, prepared.labels, MEASURES, "--svg" in self.workload.options
        )
        problems = tree_problems(out, expected, prepared.counts)
        if not problems:
            digest = tree_digest(out)
            sample["digest"] = digest
            if self.golden and digest != self.golden["tree"]:
                problems.append(f"output digest {digest} differs from golden {self.golden['tree']}")
            if self.digests and digest not in self.digests:
                problems.append("output tree differs from an earlier call with the same inputs")
            self.digests.add(digest)
        if sample["mode"] == "traced":
            problems += self.counter_problems(sample["counters"], prepared)
        if problems:
            sample["error"] = "; ".join(problems)

    def counter_problems(self, counters: dict, prepared: Prepared) -> list[str]:
        problems = []
        first = next((s["counters"] for s in self.samples if s.get("counters")), None)
        if first is not None and counters != first:
            problems.append("work counters differ between traced calls on one seed")
        if self.golden and "counters" in self.golden and counters != self.golden["counters"]:
            problems.append("work counters differ from the golden counters of this seed")
        expected = {
            "network.nodes": sum(rec["N"] for rec in prepared.shape),
            "network.edges": sum(rec["K"] for rec in prepared.shape),
            "network.largest_component": sum(rec["N_prime"] for rec in prepared.shape),
        }
        if self.workload.command == "compare":
            expected["pipeline.tokens"] = sum(rec["tokens"] for rec in prepared.shape)
            expected["pipeline.sentences"] = sum(rec["sentences"] for rec in prepared.shape)
        for name, value in expected.items():
            if counters[name] != value:
                problems.append(f"{name} is {counters[name]}, the inputs give {value}")
        return problems

    def measure(self, prepared: Prepared, work: Path, seconds: float) -> None:
        modes = ("plain", "traced") if self.traced else ("plain",)
        deadline = time.monotonic() + seconds
        index = 0
        while index < len(modes) or time.monotonic() < deadline:
            sample = run_sample(modes[index % len(modes)], prepared, work, index)
            out = work / f"out-{index}"
            if "error" not in sample:
                self.verify(sample, prepared, out)
            shutil.rmtree(out, ignore_errors=True)
            self.samples.append(sample)
            index += 1
        # every sample is an interpreter start; top up with set-up-only starts
        for index in range(index, MIN_SETUP_STARTS):
            self.samples.append(run_sample("setup", prepared, work, index))
        for sample in self.samples:
            if "error" in sample:
                self.problems.append(f"{sample['mode']} call failed: {sample['error']}")

    def ok(self, mode: str) -> list[dict]:
        return [s for s in self.samples if s["mode"] == mode and "error" not in s]

    def end_to_end(self, prepared: Prepared) -> dict[str, float]:
        plain = self.ok("plain")
        if not plain:
            return {}
        # The fastest call, not the median: the host of a shared virtual
        # machine switches between a fast and a ~1.7x slower state for tens
        # of seconds at a time, which moves a run's median with the share of
        # slow time it happened to catch (see NOTES.md).
        wall = min(s["wall_s"] for s in plain)
        return {
            "wall_s": wall,
            "edges_per_s": sum(rec["K"] for rec in prepared.shape) / wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "setup_s": statistics.median(s["setup_s"] for s in self.samples if "setup_s" in s),
        }

    def per_layer(self) -> dict[str, float]:
        plain, traced = self.ok("plain"), self.ok("traced")
        if not plain or not traced:
            return {}
        derived = [derive_layers(s["spans"], s["counters"]) for s in traced]
        values = {name: statistics.median(d[name] for d in derived) for name in derived[0]}
        # the same in every traced call (checked), so kept as whole numbers
        values |= {name: derived[0][name] for name in COUNTERS}
        wall = statistics.median(s["wall_s"] for s in plain)
        values["trace.overhead_s"] = values["trace.total_s"] - wall
        return values


def derive_layers(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer times and ratios of one traced call.

    A span's self time is its duration minus its children's durations; a
    layer's self time sums the self times of its spans.
    ``cli.unaccounted_s`` is the root span's self time: the part of the
    ``main`` call outside every layer span.
    """
    durations = [(end - start) / 1e9 for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += durations[index]
    values = {f"{name}_s": 0.0 for name in SPAN_NAMES}
    values |= {f"{layer}.self_s": 0.0 for layer in LAYERS}
    asp_self = 0.0
    for index, (name, _, _, parent) in enumerate(spans):
        if parent < 0:
            continue
        values[f"{name}_s"] += durations[index]
        values[f"{name.partition('.')[0]}.self_s"] += durations[index] - children[index]
        if name == "metrics.average_shortest_path":
            asp_self += durations[index] - children[index]
    values |= {name: counters[name] for name in COUNTERS}
    tokens, visits = counters["pipeline.tokens"], counters["metrics.bfs_edge_visits"]
    values["pipeline.ns_per_token"] = values["pipeline.extract_sentences_s"] * 1e9 / tokens if tokens else 0.0
    values["metrics.ns_per_edge_visit"] = asp_self * 1e9 / visits if visits else 0.0
    values["trace.total_s"] = durations[0]
    values["cli.unaccounted_s"] = durations[0] - children[0]
    return values


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coocnet").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout, or 'unavailable' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def report(run: Run, prepared: Prepared, env: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    w = run.workload
    golden = "golden" if run.golden else "invariants only"
    print(f"workload {w.name} (seed {run.seed}, {golden}): {w.why}")
    print(
        f"environment: python {env['python']}, nproc {env['nproc']}, "
        f"git {env['git_sha'][:12]}, source {env['source_sha256'][:12]}"
    )
    for rec in prepared.shape:
        print(
            f"input {rec['file']}: {rec['tokens']} tokens, {rec['sentences']} sentences, "
            f"N={rec['N']} K={rec['K']} N'={rec['N_prime']}"
        )
    failed = sum("error" in s for s in run.samples)
    print(
        f"interpreter starts: {len(run.samples)}, failed {failed}, "
        f"error_rate {failed / len(run.samples):.3f}"
    )
    walls = sorted(s["wall_s"] for s in run.ok("plain"))
    if walls:
        print(
            f"untraced main() calls: {len(walls)}, min {walls[0]:.3f} s, "
            f"median {statistics.median(walls):.3f} s, max {walls[-1]:.3f} s"
        )
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    if run.traced and metrics:
        total = metrics["trace.total_s"]
        shares = {layer: metrics[f"{layer}.self_s"] / total for layer in LAYERS}
        print(
            "self-time share of the traced total: "
            + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
            + f"; average_shortest_path {metrics['metrics.average_shortest_path_s'] / total:.1%}"
        )
    for problem in run.problems:
        print(f"PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help=f"with --trace 1 and seed {DEFAULT_SEED} or {HELD_OUT_SEED}: store this "
        "run's input, output and counter digests in golden.json instead of checking them",
    )
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "coocnet" / "cli.py", *FIXTURES) if not p.is_file()]
    if missing:
        print(f"error: not a coocnet checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.record_golden and (not args.trace or args.seed not in (DEFAULT_SEED, HELD_OUT_SEED)):
        parser.error("--record-golden needs --trace 1 and the default or held-out seed")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    run = Run(workload, args.seed, bool(args.trace), {} if args.record_golden else golden)
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = prepare(workload, args.seed, work)
        fixtures = fixture_digest(work)
        fixtures_ok = args.record_golden or fixtures == golden.get("fixtures")
        if not fixtures_ok:
            run.problems.append(f"fixture compare --svg digest {fixtures} differs from golden")
        if run.golden:
            if input_digests(prepared) != run.golden["inputs"]:
                run.problems.append("generated inputs differ from the golden inputs of this seed")
        run.measure(prepared, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER_UNITS
    else:
        metrics, units = run.end_to_end(prepared), END_TO_END_UNITS
    env = environment(args.seed)
    report(run, prepared, env, metrics, units)

    # operations: every interpreter start, plus the fixture check
    attempted = 1 + len(run.samples)
    failed = sum("error" in s for s in run.samples) + (not fixtures_ok)
    if args.record_golden:
        record_golden(golden, workload, args.seed, prepared, run, fixtures)
    correct = not run.problems and bool(metrics)
    write_record(workload, args, env, prepared, run, metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record_golden(golden, workload, seed, prepared, run, fixtures) -> None:
    traced = run.ok("traced")
    if run.problems or len(run.digests) != 1 or not traced:
        raise SystemExit("not recording golden values from a run with problems")
    golden["fixtures"] = fixtures
    golden.setdefault("workloads", {}).setdefault(workload.name, {})[str(seed)] = {
        "inputs": input_digests(prepared),
        "tree": next(iter(run.digests)),
        "counters": traced[0]["counters"],
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def write_record(workload, args, env, prepared, run, metrics) -> None:
    """Keep the run's environment, input shape, samples and last spans."""
    last_spans = next((s["spans"] for s in reversed(run.ok("traced"))), None)
    samples = [{k: v for k, v in s.items() if k != "spans"} for s in run.samples]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "argv": [workload.command, *workload.options],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": prepared.shape,
        "problems": run.problems,
        "metrics": metrics,
        "samples": samples,
        "spans": [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent}
            for name, start, end, parent in last_spans or ()
        ],
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

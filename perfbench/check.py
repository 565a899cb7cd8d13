"""Correctness checks on one output tree of ``coocnet compare`` / ``analyze``.

``tree_digest`` hashes a whole output tree (relative paths and bytes), so
a run can be compared with a golden digest recorded for a fixed seed.
``tree_problems`` checks the invariants that hold for any seed: the
expected file set, rank CSVs with ranks 1..n and values that never
increase, summary N and K equal to independently obtained counts, and
edge-list / node-table sizes that agree with them.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

RANK_HEADER = ["rank", "value", "word"]


def tree_digest(root: Path) -> str:
    """sha256 over the sorted (relative path, file sha256) pairs of a tree."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def expected_files(command: str, labels: list[str], measures, svg: bool) -> set[str]:
    if command == "analyze":
        (label,) = labels
        return {f"{label}.summary.csv", f"{label}.nodes.csv"}
    label_a, label_b = labels
    names = {f"{label}.edges.tsv" for label in labels} | {"summary.csv"}
    for measure in measures:
        names |= {f"{label}.{measure}.rank.csv" for label in labels}
        names.add(f"{label_a}_vs_{label_b}.{measure}.pair.csv")
        if svg:
            names.add(f"{label_a}_vs_{label_b}.{measure}.svg")
    return names


def tree_problems(
    root: Path, expected: set[str], counts: dict[str, tuple[int, int]]
) -> list[str]:
    """Invariant violations in one output tree; empty when it is correct.

    ``counts`` maps each label to the (N, K) its summary row must show.
    """
    present = {p.name for p in root.iterdir()} if root.is_dir() else set()
    problems = []
    if present != expected:
        problems.append(
            f"file set differs: missing {sorted(expected - present)}, "
            f"unexpected {sorted(present - expected)}"
        )
        return problems
    for name in sorted(present):
        path = root / name
        if name.endswith(".rank.csv"):
            problems += _rank_problems(path)
        elif name.endswith("summary.csv"):
            problems += _summary_problems(path, counts)
        elif name.endswith(".edges.tsv"):
            label = name[: -len(".edges.tsv")]
            lines = path.read_bytes().count(b"\n")
            if lines != counts[label][1]:
                problems.append(f"{name}: {lines} edge lines, expected K={counts[label][1]}")
        elif name.endswith(".nodes.csv"):
            label = name[: -len(".nodes.csv")]
            rows = path.read_bytes().count(b"\n") - 1
            if rows != counts[label][0]:
                problems.append(f"{name}: {rows} node rows, expected N={counts[label][0]}")
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def _rank_problems(path: Path) -> list[str]:
    rows = _read_csv(path)
    if not rows or rows[0] != RANK_HEADER:
        return [f"{path.name}: header is not {RANK_HEADER}"]
    if len(rows) < 2:
        return [f"{path.name}: empty rank series"]
    previous = float("inf")
    for expected_rank, row in enumerate(rows[1:], 1):
        if len(row) != 3 or row[0] != str(expected_rank):
            return [f"{path.name}: row {expected_rank} is {row}, rank should be {expected_rank}"]
        value = float(row[1])
        if not 0 < value <= previous:
            return [f"{path.name}: value {row[1]} at rank {expected_rank} increases or is not positive"]
        previous = value
    return []


def _summary_problems(path: Path, counts: dict[str, tuple[int, int]]) -> list[str]:
    rows = _read_csv(path)
    found = {row[0]: (int(row[1]), int(row[2])) for row in rows[1:]}
    if rows[0][:3] != ["label", "N", "K"] or found != counts:
        return [f"{path.name}: (N, K) by label is {found}, expected {counts}"]
    return []

"""Side-by-side comparison of two text categories.

Builds a network for each bundled fixture (a formal-register excerpt and
an informal blog-style one) and profiles it at once, so only one network
is alive at a time, as in ``coocnet compare``.  Prints both global
summaries as one table, checks that the sizes are close enough to compare
rank by rank, and writes the full comparison bundle: summary CSV,
per-measure rank CSVs, rank-aligned pairing CSVs, and log-log SVG rank
plots.

Run from the repository root:  python3 demos/04_compare_texts.py
"""

from pathlib import Path

from coocnet import (
    MEASURES,
    build_network,
    export_pair_csv,
    export_rank_csv,
    extract_sentences,
    format_value,
    load_document,
    profile_network,
    render_rank_svg,
    size_mismatch,
    write_summary_csv,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "output"

profiles = {}
for label in ("formal", "informal"):
    path = ROOT / "fixtures" / f"{label}_excerpt.txt"
    net = build_network(extract_sentences(load_document(path)))
    profiles[label] = profile_network(net)
    del net  # the profile outlives it; the next text is built without it
formal, informal = profiles["formal"], profiles["informal"]

message = size_mismatch(formal.summary.n_nodes, informal.summary.n_nodes)
if message is not None:
    print(f"warning: {message}")

print(f"{'measure':<24}{'formal':>12}{'informal':>12}")
rows = [
    ("nodes N", lambda s: str(s.n_nodes)),
    ("edges K", lambda s: str(s.n_edges)),
    ("average degree", lambda s: format_value(s.avg_degree)),
    ("avg shortest path L", lambda s: format_value(s.avg_shortest_path)),
    ("diameter D", lambda s: format_value(s.diameter)),
    ("avg clustering C", lambda s: format_value(s.avg_clustering)),
    ("density d", lambda s: format_value(s.density)),
    ("components", lambda s: str(s.n_components)),
]
for name, pick in rows:
    print(f"{name:<24}{pick(formal.summary):>12}{pick(informal.summary):>12}")
print(f"{'rank-excluded share':<24}"
      f"{float(formal.excluded):>12.3f}{float(informal.excluded):>12.3f}\n")

OUT_DIR.mkdir(exist_ok=True)
write_summary_csv(
    [(label, profile.summary) for label, profile in profiles.items()],
    OUT_DIR / "summary.csv",
)
for measure in MEASURES:
    a, b = formal.series[measure], informal.series[measure]
    export_rank_csv(a, OUT_DIR / f"formal.{measure}.rank.csv")
    export_rank_csv(b, OUT_DIR / f"informal.{measure}.rank.csv")
    export_pair_csv(a, b, OUT_DIR / f"pair.{measure}.csv")
    render_rank_svg(a, b, "formal", "informal", OUT_DIR / f"{measure}.svg")

print(f"comparison bundle written to {OUT_DIR}")
print("open the .svg files for the log-log rank plots; identical inputs")
print("always reproduce identical bytes, so diffs mean real change")

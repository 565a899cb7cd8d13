"""Side-by-side comparison of two text categories.

Builds networks for both bundled fixtures (a formal-register excerpt and
an informal blog-style one), prints their global summaries as one table,
and writes the full comparison bundle: summary CSV, per-measure rank
CSVs, rank-aligned pairing CSVs, and log-log SVG rank plots.

Run from the repository root:  python3 demos/04_compare_pair.py
"""

from pathlib import Path

from coocnet import (
    MEASURES,
    build_network,
    compare_pair,
    export_pair_csv,
    export_rank_csv,
    extract_sentences,
    format_value,
    load_document,
    render_rank_svg,
    write_summary_csv,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "output"

nets = {}
for label in ("formal", "informal"):
    path = ROOT / "fixtures" / f"{label}_excerpt.txt"
    nets[label] = build_network(extract_sentences(load_document(path).content))

cmp = compare_pair(nets["formal"], nets["informal"], "formal", "informal")

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
    print(f"{name:<24}{pick(cmp.summary_a):>12}{pick(cmp.summary_b):>12}")
print(f"{'rank-excluded share':<24}"
      f"{float(cmp.excluded_a):>12.3f}{float(cmp.excluded_b):>12.3f}\n")

OUT_DIR.mkdir(exist_ok=True)
write_summary_csv(
    [(cmp.label_a, cmp.summary_a), (cmp.label_b, cmp.summary_b)],
    OUT_DIR / "summary.csv",
)
for measure in MEASURES:
    a, b = cmp.series_a[measure], cmp.series_b[measure]
    export_rank_csv(a, OUT_DIR / f"formal.{measure}.rank.csv")
    export_rank_csv(b, OUT_DIR / f"informal.{measure}.rank.csv")
    export_pair_csv(a, b, OUT_DIR / f"pair.{measure}.csv")
    render_rank_svg(a, b, "formal", "informal", OUT_DIR / f"{measure}.svg")

print(f"comparison bundle written to {OUT_DIR}")
print("open the .svg files for the log-log rank plots; identical inputs")
print("always reproduce identical bytes, so diffs mean real change")

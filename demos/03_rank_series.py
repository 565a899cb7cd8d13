"""Rank series: every word's measure value, sorted for log-log plotting.

Shows the top of the out-degree and out-selectivity series for one
fixture text, and why the two orderings disagree: degree rewards words
with many distinct neighbors, selectivity rewards words that repeat the
same few companions.

Run from the repository root:  python3 demos/03_rank_series.py
"""

from pathlib import Path

from coocnet import (
    build_network,
    export_rank_csv,
    extract_sentences,
    format_value,
    load_document,
    network_rank_series,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "informal_excerpt.txt"
OUT_DIR = Path(__file__).resolve().parent / "output"

net = build_network(extract_sentences(load_document(FIXTURE)))

for measure in ("out-degree", "out-selectivity"):
    series = network_rank_series(net, measure)
    print(f"{measure}: {len(series)} ranked words "
          f"(words inactive on that side are left out)")
    for entry in series.entries[:8]:
        print(f"  {entry.rank:>3}  {format_value(entry.value):>8}  {entry.word}")
    print()

print("function words crowd the degree top; selectivity surfaces words")
print("welded to a fixed companion (set phrases, names, compounds)\n")

OUT_DIR.mkdir(exist_ok=True)
for measure in ("out-degree", "out-selectivity"):
    path = OUT_DIR / f"informal.{measure}.rank.csv"
    export_rank_csv(network_rank_series(net, measure), path)
    print(f"wrote {path}")

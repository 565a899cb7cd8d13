"""Whole-network measures on a real ~5,000-word text.

Builds the network for the bundled formal-register fixture and walks
through its global summary: size, average degree, path lengths on the
largest weak component, clustering, and density.

Run from the repository root:  python3 demos/02_global_measures.py
"""

from pathlib import Path

from coocnet import (
    build_network,
    extract_sentences,
    format_value,
    global_summary,
    load_document,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "formal_excerpt.txt"

text = load_document(FIXTURE)
net = build_network(extract_sentences(text))
gm = global_summary(net)

print(f"text: {FIXTURE.name} ({len(text.split())} raw words)\n")

print(f"nodes (distinct words)      N = {gm.n_nodes}")
print(f"directed edges              K = {gm.n_edges}")
print(f"average degree          2K/N = {format_value(gm.avg_degree)}")
print("  every word keeps, on average, that many in+out neighbors\n")

print(f"weak components               {gm.n_components}")
print(f"largest component size        {gm.largest_component_size}")
print(f"average shortest path     L = {format_value(gm.avg_shortest_path)}")
print(f"diameter                  D = {gm.diameter}")
print("  hops on the undirected view of the largest component; a few")
print("  steps reach any word from any other, the small-world signature\n")

print(f"average clustering        C = {format_value(gm.avg_clustering)}")
print("  how often two neighbors of a word also neighbor each other\n")

print(f"density                   d = {format_value(gm.density)}")
print("  realized fraction of the N(N-1) possible directed edges")

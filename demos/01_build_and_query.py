#!/usr/bin/env python3
"""Walkthrough: index the mini hurricane corpus and ask it a question.

Shows the whole pipeline in one sitting: corpus + gazetteer + precomputed
labels in, per-dimension inverted indexes out, then a query decomposed
into dimension-tagged components, matched exact-first with a semantic
fallback, and ranked by coverage with full evidence.
"""

from pathlib import Path

import hyperrag as hr

DATA = Path(__file__).resolve().parent.parent / "data" / "hurricane_mini"

# --- 1. Load the corpus and its label sources -----------------------------
corpus = hr.load_corpus(DATA / "corpus.jsonl")
gazetteer = hr.load_gazetteer(DATA / "gazetteer.jsonl")
print(f"corpus: {len(corpus)} documents; gazetteer: {len(gazetteer)} phrases")

# Gazetteer extraction is the built-in label source...
labels = hr.extract_all(corpus, gazetteer)
# ...and label files produced offline (NER, keyphrase models) merge in.
labels = hr.load_precomputed_labels(DATA / "labels.jsonl", corpus, into=labels)

for doc_id in ("565", "246", "535"):
    pairs = {f"{dim}:{key}": count for (dim, key), count in sorted(labels[doc_id].counts.items())}
    print(f"  doc {doc_id}: {pairs}")

# --- 2. Build the cube index ----------------------------------------------
encoder = hr.TrigramEncoder()
index = hr.build_index(corpus, labels, encoder=encoder)
print(f"\nindex: {index.label_key_count()} label keys across {len(index.dimensions)} dimensions")
# A posting list holds document ordinals and counts; iterating it gives (doc_id, count) pairs.
print("THEME 'rain' posting list:", [tuple(posting) for posting in hr.lookup(index, "THEME", "rain")])

# One cube cell = one coordinate per participating dimension.
cell = {"LOCATION": "melbourne beach", "EVENT": "tropical storm fay", "THEME": "rain"}
print(f"documents in cell {cell}: {hr.cell_documents(index, cell)}")

# --- 3. Ask a question -----------------------------------------------------
query = "How much rainfall did Melbourne Beach, Florida receive from Tropical Storm Fay?"
result = hr.retrieve(query, index, encoder, tau=0.5, k=3)

print(f"\nquery: {query}")
print("components:")
for match in result.matches:
    target = match.matched_label or "-"
    print(f"  {match.dimension:<13} {match.component:<22} -> {target:<20} {match.kind} (sim {match.sim:.3f})")
print("ranked documents:")
for pos, doc in enumerate(result.ranked, 1):
    title = corpus.get(doc.doc_id).title
    print(
        f"  {pos}. doc {doc.doc_id} ({title!r}) covers {doc.coverage}/"
        f"{result.decomposition.component_count} components, freq {doc.freq_score}"
    )

# The "rainfall" component has no exact label; it reached doc 565 through
# the semantic fallback to the THEME label "rain". That is the whole trick.

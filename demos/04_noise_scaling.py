#!/usr/bin/env python3
"""Walkthrough: drowning the corpus in off-topic documents.

Noise documents carry none of the in-domain labels, so they land in no
cube cell: the cube engine's candidate sets — and its latency — barely
notice them, while BM25 has to score every extra document that shares a
stopword with the query. Desk-scale here; the effect grows with size.
"""

from pathlib import Path

import hyperrag as hr

DATA = Path(__file__).resolve().parent.parent / "data" / "hurricane_mini"
NOISE_DOCS = 2000

corpus = hr.load_corpus(DATA / "corpus.jsonl")
gazetteer = hr.load_gazetteer(DATA / "gazetteer.jsonl")
queries = hr.load_queries(DATA / "queries.jsonl")
encoder = hr.TrigramEncoder()

noisy = hr.inject_noise(corpus, NOISE_DOCS, seed=0, avoid_phrases=gazetteer.all_phrases())
print(f"corpus: {len(corpus)} in-domain docs; noisy corpus: {len(noisy)} docs")

# Noise documents produce zero labels, so retrieval results are identical.
base_ix = hr.build_index(corpus, hr.extract_all(corpus, gazetteer), encoder=encoder)
noisy_ix = hr.build_index(noisy, hr.extract_all(noisy, gazetteer), encoder=encoder)
for record in queries:
    before = [d.doc_id for d in hr.retrieve(record.question, base_ix, encoder, tau=0.5, k=3).ranked]
    after = [d.doc_id for d in hr.retrieve(record.question, noisy_ix, encoder, tau=0.5, k=3).ranked]
    marker = "unchanged" if before == after else "CHANGED (bug!)"
    print(f"  {record.id}: {before} -> {after}  [{marker}]")

print(f"\nper-query latency, clean vs +{NOISE_DOCS} noise docs (mean us over reps):")
rows = hr.bench_latency(
    corpus,
    gazetteer,
    queries,
    fractions=(1.0,),
    noise=NOISE_DOCS,
    repetitions=10,
    tau=0.5,
    encoder=encoder,
)
mean = {(row.engine, row.noise): row.mean_us for row in rows}
for engine in ("hypercube", "bm25"):
    clean, noisy_us = mean[(engine, 0)], mean[(engine, NOISE_DOCS)]
    print(f"  {engine:<10} {clean:>9.1f} -> {noisy_us:>9.1f}  ({noisy_us / clean:.1f}x)")

"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Each test enforces its own wall-clock budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    FIXTURE_TAU,
    MELBOURNE_QUERY,
    assignment_of,
    criterion,
    random_labeled_corpus,
    synth_in_domain_corpus,
)
from oracles import brute_bm25_all, brute_neighbors, brute_retrieve
from hyperrag import (
    Corpus,
    Document,
    LabelAssignment,
    QueryRecord,
    TrigramEncoder,
    bench_latency,
    bm25_build,
    bm25_score,
    build_index,
    eval_recall,
    extract_all,
    inject_noise,
    load_index,
    retrieve,
    save_index,
    semantic_neighbors,
)
from hyperrag.labeling import tokenize


def labeled_index(label_map, encoder=None):
    docs, labels = [], LabelAssignment()
    for doc_id, pairs in label_map.items():
        docs.append(Document(id=doc_id, text="body text placeholder"))
        for (dim, key), count in pairs.items():
            labels.add(doc_id, dim, key, count)
    return build_index(Corpus(docs), labels, encoder=encoder)


def test_c1_ranking_table_reproduction(trigram):
    """Four docs covering 3, 3, 2, 1 of three query components rank A,B | C | D."""
    with criterion("C1 ranking-table-reproduction", budget_s=1.0):
        coverage_pattern = {
            "A": {
                ("LOCATION", "melbourne beach"): 1,
                ("EVENT", "tropical storm fay"): 1,
                ("THEME", "rain"): 2,
            },
            "B": {
                ("LOCATION", "melbourne beach"): 1,
                ("EVENT", "tropical storm fay"): 1,
                ("THEME", "rain"): 1,
            },
            "C": {("EVENT", "tropical storm fay"): 1, ("THEME", "rain"): 1},
            "D": {("EVENT", "tropical storm fay"): 1},
        }
        query = "How much rainfall did Melbourne Beach receive from Tropical Storm Fay?"

        ix = labeled_index(coverage_pattern, encoder=trigram)
        result = retrieve(query, ix, trigram, tau=FIXTURE_TAU, k=4)
        assert result.decomposition.component_count == 3
        assert [d.doc_id for d in result.ranked] == ["A", "B", "C", "D"]
        assert [d.coverage for d in result.ranked] == [3, 3, 2, 1]

        # Same three components, docs A and B gone: the partial-coverage
        # fallback must lead with C. (The components are pinned via the
        # external path because the reduced index no longer carries the
        # melbourne beach label in its vocabulary.)
        components = [(c.dimension, c.text) for c in result.decomposition.components]
        without_full = labeled_index(
            {doc: pairs for doc, pairs in coverage_pattern.items() if doc in ("C", "D")},
            encoder=trigram,
        )
        fallback = retrieve(
            query, without_full, trigram, tau=FIXTURE_TAU, k=4, external=components
        )
        assert [d.doc_id for d in fallback.ranked] == ["C", "D"]
        assert fallback.decomposition.component_count == 3
        assert fallback.ranked[0].coverage == 2  # best partial, not full


def test_c2_case_study_reproduction(hurricane_index, trigram):
    """Melbourne Beach query: doc 565 first, two exact + one semantic match, freq 7."""
    with criterion("C2 case-study-reproduction", budget_s=1.0):
        result = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU, k=3)
        assert result.ranked[0].doc_id == "565"
        top = result.ranked[0]
        covered = {
            (ev.dimension, ev.matched_label, ev.kind)
            for ev in top.evidence
            if ev.doc_count > 0
        }
        assert covered == {
            ("LOCATION", "melbourne beach", "exact"),
            ("EVENT", "tropical storm fay", "exact"),
            ("THEME", "rain", "semantic"),
        }
        semantic_ev = [ev for ev in top.evidence if ev.kind == "semantic"]
        assert semantic_ev[0].component == "rainfall"
        assert top.freq_score == 7  # 1 + 1 + 5
        assert top.indicator_score == 2
        assert top.coverage == 3


def test_c3_oracle_equivalence():
    """1,000 randomized retrievals ordered identically to the brute-force oracle."""
    with criterion("C3 oracle-equivalence", budget_s=60.0):
        rng = np.random.default_rng(101)
        encoder = TrigramEncoder(dim=64)
        mismatches = 0

        for case in range(600):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=50)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder)
            components = []
            dims = sorted(vocab)
            for _ in range(int(rng.integers(1, 6))):
                roll = rng.random()
                if dims and roll < 0.5:
                    dim = dims[int(rng.integers(0, len(dims)))]
                    keys = vocab[dim]
                    components.append((dim, keys[int(rng.integers(0, len(keys)))]))
                elif dims and roll < 0.8:
                    dim = dims[int(rng.integers(0, len(dims)))]
                    keys = vocab[dim]
                    suffix = ["s", "er", "ing", "y"][int(rng.integers(0, 4))]
                    components.append((dim, keys[int(rng.integers(0, len(keys)))] + suffix))
                else:
                    components.append(("THEME", f"junk{int(rng.integers(0, 50))}"))
            tau = float(rng.uniform(0.15, 0.95))
            k = int(rng.integers(1, 9))
            result = retrieve("q", ix, encoder, tau=tau, k=k, external=components)
            got = [(d.doc_id, d.coverage, d.indicator_score, d.freq_score) for d in result.ranked]
            expected = brute_retrieve(labels, components, vocab, encoder, tau, k)
            if got != expected:
                mismatches += 1

        for case in range(400):
            # Built-in decomposition path: single-token labels make the
            # oracle's view of the decomposition trivial (token-in-vocab).
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=50)
            ix = build_index(corpus, assignment_of(labels))
            all_keys = sorted({key for keys in vocab.values() for key in keys})
            words = []
            for _ in range(int(rng.integers(1, 10))):
                if all_keys and rng.random() < 0.6:
                    words.append(all_keys[int(rng.integers(0, len(all_keys)))])
                else:
                    words.append(f"junk{int(rng.integers(0, 50))}")
            query = " ".join(words)
            k = int(rng.integers(1, 9))
            result = retrieve(query, ix, encoder=None, k=k)
            got = [(d.doc_id, d.coverage, d.indicator_score, d.freq_score) for d in result.ranked]
            components = [
                (dim, token)
                for token in tokenize(query)
                for dim in sorted(vocab)
                if token in vocab[dim]
            ]
            expected = brute_retrieve(labels, components, vocab, None, 1.0, k)
            if got != expected:
                mismatches += 1

        assert mismatches == 0


def test_c4_index_symmetry_and_persistence(tmp_path):
    """Postings equal the input label assignment, plus save/load equality, on 100 random indexes."""
    with criterion("C4 index-symmetry-persistence", budget_s=30.0):
        rng = np.random.default_rng(202)
        encoder = TrigramEncoder(dim=32)
        for case in range(100):
            corpus, labels, _vocab = random_labeled_corpus(rng, max_docs=30, multiword_labels=True)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder if case % 2 == 0 else None)

            # Independent cross-walk: rebuild the postings from the label
            # assignment the index was built from and demand exact agreement.
            rebuilt: dict[str, dict[str, list]] = {dim: {} for dim in ix.dimensions}
            for doc_id in sorted(labels):
                for (dim, key), count in labels[doc_id].counts.items():
                    rebuilt[dim].setdefault(key, []).append((doc_id, count))
            for dim in ix.dimensions:
                got_postings = {
                    key: [(p.doc_id, p.count) for p in postings]
                    for key, postings in ix.inverted.get(dim, {}).items()
                }
                assert got_postings == rebuilt[dim]
                assert set(ix.vocab.get(dim, set())) == set(rebuilt[dim])

            path = tmp_path / f"ix{case}.hcix"
            save_index(ix, path)
            assert load_index(path) == ix


def test_c5_noise_invariance_and_scaling(trigram):
    """Results invariant under 13k noise docs; latency scales flat vs BM25's blow-up."""
    with criterion("C5 noise-invariance-scaling", budget_s=300.0):
        corpus, gazetteer, queries = synth_in_domain_corpus(844, seed=77)
        noise_docs = 13_000

        base_ix = build_index(corpus, extract_all(corpus, gazetteer), encoder=trigram)
        noisy_corpus = inject_noise(
            corpus, noise_docs, seed=78, avoid_phrases=gazetteer.all_phrases()
        )
        noisy_ix = build_index(noisy_corpus, extract_all(noisy_corpus, gazetteer), encoder=trigram)
        assert len(noisy_corpus) == 844 + noise_docs

        for record in queries:
            base = retrieve(record.question, base_ix, trigram, tau=FIXTURE_TAU, k=3)
            noisy = retrieve(record.question, noisy_ix, trigram, tau=FIXTURE_TAU, k=3)
            assert [d.doc_id for d in base.ranked] == [d.doc_id for d in noisy.ranked], record.id

        rows = bench_latency(
            corpus,
            gazetteer,
            queries,
            fractions=(1.0,),
            noise=noise_docs,
            repetitions=20,
            tau=FIXTURE_TAU,
            encoder=trigram,
        )
        # Each configuration's fastest pass: a slow phase of the host during some passes does not move it.
        fastest = {(r.engine, r.noise): min(r.samples) for r in rows}
        hypercube_ratio = fastest[("hypercube", noise_docs)] / fastest[("hypercube", 0)]
        bm25_ratio = fastest[("bm25", noise_docs)] / fastest[("bm25", 0)]
        print(
            f"  latency ratio at {844 + noise_docs} docs vs 844: "
            f"hypercube {hypercube_ratio:.2f}x, bm25 {bm25_ratio:.2f}x",
            flush=True,
        )
        assert hypercube_ratio <= 2.0, f"hypercube slowed {hypercube_ratio:.2f}x under noise"
        assert bm25_ratio >= 5.0, f"bm25 only slowed {bm25_ratio:.2f}x under noise"


def test_c6_tau_threshold_behavior(trigram):
    """Recall@3 over the tau grid peaks then never recovers; 1.0 strictly below the peak."""
    with criterion("C6 tau-threshold-behavior", budget_s=10.0):
        # Gold doc for the first query is reachable in the top 3 only
        # through the semantic rainfall->rain match; distractors carry
        # higher exact-match frequency. The second query is exact-only.
        ix = labeled_index(
            {
                "gold": {("LOCATION", "florida"): 1, ("THEME", "rain"): 3},
                "dx1": {("LOCATION", "florida"): 5},
                "dx2": {("LOCATION", "florida"): 5},
                "dx3": {("LOCATION", "florida"): 5},
                "fay": {("EVENT", "tropical storm fay"): 1},
            },
            encoder=trigram,
        )
        queries = [
            QueryRecord(id="needs-semantic", question="rainfall in florida", gold_doc_ids=("gold",)),
            QueryRecord(id="exact-only", question="tropical storm fay", gold_doc_ids=("fay",)),
        ]
        taus = [0.5, 0.7, 0.9, 1.0]
        recalls = [
            eval_recall(ix, trigram, queries, k=3, tau=tau).recall_at[3] for tau in taus
        ]
        print(f"  recall@3 over tau {taus}: {recalls}", flush=True)
        assert recalls == [1.0, 0.5, 0.5, 0.5]
        peak_pos = recalls.index(max(recalls))
        for earlier, later in zip(recalls[peak_pos:], recalls[peak_pos + 1 :]):
            assert later <= earlier, "recall recovered after the peak"
        assert recalls[-1] < recalls[peak_pos], "tau=1.0 should fall below the peak"


def test_c7_bm25_reference_equivalence():
    """BM25 scores match the naive full-scan formula to 1e-9 on 100 random corpora."""
    with criterion("C7 bm25-reference-equivalence", budget_s=30.0):
        rng = np.random.default_rng(303)
        words = (
            "rain storm surge coast wind levee flood the of in and near county "
            "gauge crews bridge harbor basin models track warning"
        ).split()
        for _case in range(100):
            n_docs = int(rng.integers(1, 101))
            doc_texts = {
                f"d{i:03d}": " ".join(
                    words[int(rng.integers(0, len(words)))]
                    for _ in range(int(rng.integers(1, 60)))
                )
                for i in range(n_docs)
            }
            corpus = Corpus([Document(id=d, text=t) for d, t in doc_texts.items()])
            ix = bm25_build(corpus)
            for _q in range(2):
                query = " ".join(
                    words[int(rng.integers(0, len(words)))]
                    for _ in range(int(rng.integers(1, 7)))
                )
                expected = brute_bm25_all(doc_texts, query)
                query_tokens = tokenize(query)
                for doc_id in doc_texts:
                    got = bm25_score(ix, query_tokens, doc_id)
                    assert got == pytest.approx(expected[doc_id], abs=1e-9)


def test_c8_embedding_contract():
    """semantic_neighbors equals the brute-force scan; monotone in tau. 200 vocabularies."""
    with criterion("C8 embedding-contract", budget_s=30.0):
        rng = np.random.default_rng(404)
        encoder = TrigramEncoder(dim=64)
        letters = "abcdefghijklmnopqrstuvwxyz"

        def random_key():
            length = int(rng.integers(2, 9))  # the occasional 2-char key is unencodable
            return "".join(letters[int(rng.integers(0, 26))] for _ in range(length))

        for _case in range(200):
            keys = sorted({random_key() for _ in range(int(rng.integers(1, 40)))})
            doc = Document(id="d0", text="placeholder")
            labels = LabelAssignment()
            for key in keys:
                labels.add("d0", "THEME", key)
            ix = build_index(Corpus([doc]), labels, encoder=encoder)

            base = keys[int(rng.integers(0, len(keys)))]
            component = base + ["s", "er", "ing", ""][int(rng.integers(0, 4))]
            if len(component) < 3:
                component = component + "xyz"
            tau = float(rng.uniform(0.05, 0.99))

            got = semantic_neighbors(component, "THEME", ix, encoder, tau)
            expected = brute_neighbors(component, keys, encoder, tau)
            assert [k for k, _ in got] == [k for k, _ in expected]
            for (_k1, s1), (_k2, s2) in zip(got, expected):
                assert s1 == pytest.approx(s2, abs=1e-12)

            lower = {k for k, _ in semantic_neighbors(component, "THEME", ix, encoder, tau * 0.5)}
            higher = {
                k
                for k, _ in semantic_neighbors(
                    component, "THEME", ix, encoder, min(1.0, tau * 1.5)
                )
            }
            current = {k for k, _ in got}
            assert higher <= current <= lower

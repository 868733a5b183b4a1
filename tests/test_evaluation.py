from __future__ import annotations

import csv

import pytest

from helpers import FIXTURE_TAU, MELBOURNE_QUERY
from hyperrag import (
    MissingGold,
    QueryRecord,
    bench_latency,
    eval_recall,
    extract_all,
    format_bench_csv,
    inject_noise,
    retrieve,
)
from hyperrag.evaluation import EvalReport


class TestEvalRecall:
    def test_gold_hit_at_one(self, hurricane_index, trigram):
        queries = [
            QueryRecord(id="q1", question=MELBOURNE_QUERY, gold_doc_ids=("565",)),
        ]
        report = eval_recall(hurricane_index, trigram, queries, k=3, tau=FIXTURE_TAU)
        row = report.rows[0]
        assert row.hit_at[1] is True
        assert row.reciprocal_rank == 1.0
        assert report.recall_at[1] == 1.0
        assert report.mrr == 1.0
        assert row.retrieved_ids[0] == "565"

    def test_no_gold_rejected(self, hurricane_index, trigram):
        with pytest.raises(MissingGold):
            eval_recall(hurricane_index, trigram, [QueryRecord(id="q", question="x y z")])

    def test_zero_queries_rejected(self, hurricane_index, trigram):
        with pytest.raises(ValueError, match="zero queries"):
            eval_recall(hurricane_index, trigram, [])

    def test_report_over_zero_rows_rejected(self):
        with pytest.raises(ValueError, match="zero queries"):
            EvalReport.from_rows([], {})

    def test_gold_absent_from_corpus_rejected(self, hurricane_index, trigram):
        queries = [QueryRecord(id="q", question="rain", gold_doc_ids=("999",))]
        with pytest.raises(MissingGold):
            eval_recall(hurricane_index, trigram, queries)

    def test_miss_scores_zero(self, hurricane_index, trigram):
        queries = [
            QueryRecord(id="q", question="seepage erosion research", gold_doc_ids=("565",))
        ]
        report = eval_recall(hurricane_index, trigram, queries, tau=FIXTURE_TAU)
        assert report.rows[0].reciprocal_rank == 0.0
        assert report.recall_at[5] == 0.0

    def test_aggregates_recompute_from_rows(self, hurricane_index, trigram):
        queries = [
            QueryRecord(id="q1", question=MELBOURNE_QUERY, gold_doc_ids=("565",)),
            QueryRecord(id="q2", question="florida levee seepage", gold_doc_ids=("535",)),
        ]
        report = eval_recall(hurricane_index, trigram, queries, tau=FIXTURE_TAU)
        recomputed = EvalReport.from_rows(report.rows, report.config)
        assert recomputed.recall_at == report.recall_at
        assert recomputed.mrr == report.mrr
        assert recomputed.mean_us == report.mean_us

    def test_bad_tau_rejected_for_every_query(self, hurricane_index, trigram):
        # "florida" matches exactly and never reaches a semantic scan.
        queries = [QueryRecord(id="q", question="florida", gold_doc_ids=("565",))]
        with pytest.raises(ValueError, match="tau"):
            eval_recall(hurricane_index, trigram, queries, tau=42.0)

    def test_config_echo(self, hurricane_index, trigram):
        queries = [QueryRecord(id="q1", question=MELBOURNE_QUERY, gold_doc_ids=("565",))]
        report = eval_recall(hurricane_index, trigram, queries, k=4, tau=0.55)
        assert report.config == {
            "tau": 0.55,
            "k": 4,
            "encoder": "trigram",
            "corpus_size": 3,
        }


class TestInjectNoise:
    def test_zero_is_identity(self, hurricane_corpus):
        assert inject_noise(hurricane_corpus, 0, seed=9) == hurricane_corpus

    def test_deterministic(self, hurricane_corpus):
        first = inject_noise(hurricane_corpus, 100, seed=42)
        second = inject_noise(hurricane_corpus, 100, seed=42)
        assert first == second
        assert len(first) == len(hurricane_corpus) + 100

    def test_seed_changes_output(self, hurricane_corpus):
        assert inject_noise(hurricane_corpus, 10, seed=1) != inject_noise(
            hurricane_corpus, 10, seed=2
        )

    def test_noise_docs_carry_no_labels(self, hurricane_corpus, hurricane_gazetteer):
        noisy = inject_noise(
            hurricane_corpus, 200, seed=7, avoid_phrases=hurricane_gazetteer.all_phrases()
        )
        labels = extract_all(noisy, hurricane_gazetteer)
        for doc in noisy:
            if doc.id.startswith("noise-"):
                assert labels[doc.id].counts == {}

    def test_avoid_set_filters_vocabulary(self, hurricane_corpus):
        # A gazetteer claiming a noise-content word must push that word
        # out of the generated text entirely.
        noisy = inject_noise(hurricane_corpus, 50, seed=3, avoid_phrases=["ozone", "smog depot"])
        for doc in noisy:
            if doc.id.startswith("noise-"):
                tokens = set(doc.text.split())
                assert "ozone" not in tokens
                assert "smog" not in tokens
                assert "depot" not in tokens

    def test_negative_rejected(self, hurricane_corpus):
        with pytest.raises(ValueError):
            inject_noise(hurricane_corpus, -1, seed=0)


class TestNoiseInvariance:
    def test_topk_unchanged_by_noise(self, hurricane_corpus, hurricane_gazetteer, trigram):
        noisy = inject_noise(
            hurricane_corpus, 300, seed=11, avoid_phrases=hurricane_gazetteer.all_phrases()
        )
        from hyperrag import build_index

        base_ix = build_index(
            hurricane_corpus, extract_all(hurricane_corpus, hurricane_gazetteer), encoder=trigram
        )
        noisy_ix = build_index(noisy, extract_all(noisy, hurricane_gazetteer), encoder=trigram)
        for question in [MELBOURNE_QUERY, "florida flooding", "tropical storm fay"]:
            base = retrieve(question, base_ix, trigram, tau=FIXTURE_TAU, k=3)
            with_noise = retrieve(question, noisy_ix, trigram, tau=FIXTURE_TAU, k=3)
            assert [d.doc_id for d in base.ranked] == [d.doc_id for d in with_noise.ranked]


class TestBenchLatency:
    def test_empty_queries(self, hurricane_corpus, hurricane_gazetteer):
        with pytest.raises(ValueError, match="zero queries"):
            bench_latency(hurricane_corpus, hurricane_gazetteer, [])

    def test_sample_counts_and_rows(self, hurricane_corpus, hurricane_gazetteer, trigram):
        queries = [QueryRecord(id="q", question=MELBOURNE_QUERY)]
        rows = bench_latency(
            hurricane_corpus,
            hurricane_gazetteer,
            queries,
            fractions=(0.5, 1.0),
            repetitions=5,
            encoder=trigram,
            tau=FIXTURE_TAU,
        )
        assert [(r.engine, r.fraction, r.noise) for r in rows] == [
            ("hypercube", 0.5, 0),
            ("bm25", 0.5, 0),
            ("hypercube", 1.0, 0),
            ("bm25", 1.0, 0),
        ]
        assert all(len(r.samples) == 5 for r in rows)
        assert all(r.mean_us > 0 for r in rows)

    def test_noise_adds_full_fraction_row(self, hurricane_corpus, hurricane_gazetteer, trigram):
        queries = [QueryRecord(id="q", question="florida rain")]
        rows = bench_latency(
            hurricane_corpus,
            hurricane_gazetteer,
            queries,
            fractions=(1.0,),
            noise=50,
            repetitions=2,
            encoder=trigram,
            tau=FIXTURE_TAU,
        )
        assert [(r.engine, r.fraction, r.noise) for r in rows] == [
            ("hypercube", 1.0, 0),
            ("bm25", 1.0, 0),
            ("hypercube", 1.0, 50),
            ("bm25", 1.0, 50),
        ]

    def test_invalid_fraction(self, hurricane_corpus, hurricane_gazetteer):
        with pytest.raises(ValueError):
            bench_latency(
                hurricane_corpus, hurricane_gazetteer, ["q"], fractions=(0.0,), repetitions=1
            )

    def test_negative_noise_rejected(self, hurricane_corpus, hurricane_gazetteer):
        with pytest.raises(ValueError, match="noise"):
            bench_latency(hurricane_corpus, hurricane_gazetteer, ["rain in florida"], fractions=(1.0,), noise=-5)

    def test_csv_columns(self, hurricane_corpus, hurricane_gazetteer, trigram):
        queries = [QueryRecord(id="q", question="florida")]
        rows = bench_latency(
            hurricane_corpus,
            hurricane_gazetteer,
            queries,
            fractions=(1.0,),
            repetitions=2,
            encoder=trigram,
        )
        text = format_bench_csv(rows)
        assert "\r" not in text and not text.endswith("\n")
        parsed = list(csv.reader(text.split("\n")))
        assert parsed[0] == ["engine", "fraction", "noise", "mean_us", "median_us", "p95_us"]
        assert [(line[0], line[1], line[2]) for line in parsed[1:]] == [("hypercube", "1.0", "0"), ("bm25", "1.0", "0")]
        assert all(float(value) > 0 for line in parsed[1:] for value in line[3:])

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from helpers import MELBOURNE_QUERY
from oracles import brute_bm25_all, brute_bm25_score
from hyperrag import Corpus, Document, UnknownDocId, bm25_build, bm25_retrieve, bm25_score
from hyperrag.labeling import tokenize


class TestBuild:
    def test_single_doc_avg_len(self):
        corpus = Corpus([Document(id="d", text="storm surge warning")])
        ix = bm25_build(corpus)
        assert ix.avg_doc_len == 3.0
        assert ix.doc_ids == ("d",)
        assert ix.doc_len.tolist() == [3]

    def test_absent_term(self):
        corpus = Corpus([Document(id="d", text="storm surge")])
        ix = bm25_build(corpus)
        assert "tornado" not in ix.postings

    def test_df_counts_documents(self):
        corpus = Corpus(
            [Document(id="a", text="rain rain rain"), Document(id="b", text="rain stopped")]
        )
        ix = bm25_build(corpus)
        assert list(ix.postings["rain"]) == [("a", 3), ("b", 1)]

    def test_corpus_of_empty_documents(self):
        # Every document tokenizes to nothing, so the average length is 0
        # and no posting exists; the length norms must not divide 0 by 0.
        corpus = Corpus([Document(id="a", text=","), Document(id="b", text=",")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ix = bm25_build(corpus)
            assert ix.avg_doc_len == 0.0
            assert ix.postings == {}
            assert bm25_retrieve(ix, "rain", k=3) == []
            assert bm25_score(ix, ["rain"], "a") == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bm25_build(Corpus([]))


class TestScore:
    def test_absent_term_contributes_zero(self):
        corpus = Corpus([Document(id="d", text="storm surge")])
        ix = bm25_build(corpus)
        assert bm25_score(ix, ["tornado"], "d") == 0.0
        with_term = bm25_score(ix, ["storm"], "d")
        assert bm25_score(ix, ["storm", "tornado"], "d") == with_term

    def test_single_doc_single_term_closed_form(self):
        # One doc, one term, tf=1, len=avg_len: the length norm cancels
        # and the score reduces to idf = ln((1 - 1 + 0.5)/(1 + 0.5) + 1)
        # = ln(4/3).
        corpus = Corpus([Document(id="d", text="storm")])
        ix = bm25_build(corpus)
        assert bm25_score(ix, ["storm"], "d") == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_identical_docs_equal_scores(self):
        corpus = Corpus(
            [Document(id="a", text="rain over the coast"), Document(id="b", text="rain over the coast")]
        )
        ix = bm25_build(corpus)
        assert bm25_score(ix, ["rain", "coast"], "a") == bm25_score(ix, ["rain", "coast"], "b")

    def test_repeated_query_term_counts_twice(self):
        corpus = Corpus([Document(id="a", text="rain storm"), Document(id="b", text="dry spell")])
        ix = bm25_build(corpus)
        once = bm25_score(ix, ["rain"], "a")
        assert bm25_score(ix, ["rain", "rain"], "a") == once + once
        assert bm25_score(ix, ["rain"], "b") == 0.0

    def test_unknown_doc(self):
        ix = bm25_build(Corpus([Document(id="d", text="x y")]))
        with pytest.raises(UnknownDocId):
            bm25_score(ix, ["x"], "nope")

    def test_monotone_in_tf(self):
        # Holding doc length and df fixed, more occurrences of the query
        # term never lower the score.
        texts = {
            1: "rain pad pad pad pad",
            2: "rain rain pad pad pad",
            3: "rain rain rain pad pad",
        }
        corpus = Corpus(
            [Document(id=str(tf), text=text) for tf, text in texts.items()]
        )
        ix = bm25_build(corpus)
        scores = [bm25_score(ix, ["rain"], str(tf)) for tf in (1, 2, 3)]
        assert scores[0] < scores[1] < scores[2]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(13)
        words = ["rain", "storm", "surge", "coast", "wind", "levee", "flood", "the", "of"]
        for _case in range(30):
            n_docs = int(rng.integers(1, 20))
            doc_texts = {
                f"d{i}": " ".join(
                    words[int(rng.integers(0, len(words)))]
                    for _ in range(int(rng.integers(1, 40)))
                )
                for i in range(n_docs)
            }
            corpus = Corpus([Document(id=d, text=t) for d, t in doc_texts.items()])
            ix = bm25_build(corpus)
            query = " ".join(
                words[int(rng.integers(0, len(words)))] for _ in range(int(rng.integers(1, 6)))
            )
            for doc_id in doc_texts:
                assert bm25_score(ix, tokenize(query), doc_id) == pytest.approx(
                    brute_bm25_score(doc_texts, query, doc_id), abs=1e-9
                )


class TestRetrieve:
    def test_k_larger_than_matches(self):
        corpus = Corpus(
            [Document(id="a", text="rain today"), Document(id="b", text="dry spell")]
        )
        ix = bm25_build(corpus)
        assert [d for d, _s in bm25_retrieve(ix, "rain", k=10)] == ["a"]

    def test_no_query_term_in_corpus(self):
        ix = bm25_build(Corpus([Document(id="a", text="dry spell")]))
        assert bm25_retrieve(ix, "blizzard", k=3) == []

    def test_melbourne_query_hits_565(self, hurricane_corpus):
        ix = bm25_build(hurricane_corpus)
        top = [doc_id for doc_id, _score in bm25_retrieve(ix, MELBOURNE_QUERY, k=3)]
        assert "565" in top

    def test_each_query_term_read_once(self, monkeypatch):
        ix = bm25_build(Corpus([Document(id="a", text="rain rain storm"), Document(id="b", text="storm surge")]))
        query = "rain storm tornado rain"
        expected = bm25_retrieve(ix, query, k=2)
        expected_score = bm25_score(ix, tokenize(query), "a")
        table = type(ix.postings)
        reads, get = [], table.get

        def counted_get(self, key, default=None):
            reads.append(key)
            return get(self, key, default)

        monkeypatch.setattr(table, "get", counted_get)
        # A term's df comes from the postings already read, and an absent
        # term costs one probe of the span dict, not a caught KeyError.
        monkeypatch.setattr(table, "__getitem__", lambda self, key: pytest.fail(f"{key!r} read through []"))
        assert bm25_retrieve(ix, query, k=2) == expected
        assert reads == ["rain", "storm", "tornado", "rain"]
        reads.clear()
        assert bm25_score(ix, tokenize(query), "a") == expected_score
        assert reads == ["rain", "storm", "tornado", "rain"]

    def test_tie_breaks_by_doc_id(self):
        corpus = Corpus(
            [Document(id="z", text="rain rain"), Document(id="a", text="rain rain")]
        )
        ix = bm25_build(corpus)
        assert [d for d, _s in bm25_retrieve(ix, "rain", k=2)] == ["a", "z"]

    def test_k_validation(self):
        ix = bm25_build(Corpus([Document(id="a", text="x y")]))
        with pytest.raises(ValueError):
            bm25_retrieve(ix, "x", k=0)

    def test_scores_equal_per_document_scoring(self):
        # Term-at-a-time accumulation adds the same floats in the same
        # order as bm25_score, so the scores are equal, not just close.
        rng = np.random.default_rng(17)
        words = ["rain", "storm", "surge", "coast", "wind", "levee", "flood", "the", "of"]
        for _case in range(40):
            corpus = Corpus(
                [
                    Document(
                        id=f"d{i:02d}",
                        text=" ".join(words[int(rng.integers(0, len(words)))] for _ in range(int(rng.integers(1, 40)))),
                    )
                    for i in range(int(rng.integers(1, 25)))
                ]
            )
            ix = bm25_build(corpus)
            query = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(int(rng.integers(1, 8))))
            tokens = tokenize(query)
            expected = sorted(
                ((doc.id, bm25_score(ix, tokens, doc.id)) for doc in corpus if set(tokens) & set(tokenize(doc.text))),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert bm25_retrieve(ix, query, k=len(corpus)) == expected

    def test_top_k_equals_brute_force_ranking(self):
        # Doc ids are handed in shuffled and unpadded ("d10" sorts before
        # "d9"), so ordinal order must be string order, not input order.
        # Duplicated texts tie; queries repeat tokens and hold a word no
        # document has; k stays below the candidate count.
        rng = np.random.default_rng(23)
        words = ["rain", "storm", "surge", "coast", "wind", "levee", "flood", "the", "of"]
        truncated = ties = 0
        for _case in range(60):
            texts = [
                " ".join(words[int(rng.integers(0, len(words)))] for _ in range(int(rng.integers(1, 30))))
                for _ in range(int(rng.integers(2, 30)))
            ]
            texts += [texts[int(rng.integers(0, len(texts)))] for _ in range(int(rng.integers(1, 4)))]
            ids = [f"d{n}" for n in rng.permutation(len(texts)).tolist()]
            doc_texts = dict(zip(ids, texts))
            ix = bm25_build(Corpus([Document(id=d, text=t) for d, t in doc_texts.items()]))
            query_words = [words[int(rng.integers(0, len(words)))] for _ in range(int(rng.integers(1, 5)))]
            query = " ".join(query_words + query_words[:1] + ["tornado"])
            tokens = tokenize(query)
            candidates = {d for d, t in doc_texts.items() if set(tokens) & set(tokenize(t))}
            ranking = sorted(
                ((d, s) for d, s in brute_bm25_all(doc_texts, query).items() if d in candidates),
                key=lambda pair: (-pair[1], pair[0]),
            )
            k = int(rng.integers(1, len(candidates))) if len(candidates) > 1 else 1
            got = bm25_retrieve(ix, query, k=k)
            assert [d for d, _s in got] == [d for d, _s in ranking[:k]]
            ties += any(ranking[i][1] == ranking[i + 1][1] for i in range(k))
            for doc_id, score in got:
                assert score == bm25_score(ix, tokens, doc_id)
            truncated += k < len(candidates)
        assert truncated >= 50 and ties >= 10

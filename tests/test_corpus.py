from __future__ import annotations

import pytest

from helpers import DOC_246, DOC_535, DOC_565, write_jsonl
from hyperrag import (
    Corpus,
    Document,
    DuplicateId,
    EmptyText,
    IoFailure,
    MalformedRecord,
    MissingField,
    load_corpus,
    load_queries,
)


def corpus_file(tmp_path, records):
    return write_jsonl(tmp_path / "corpus.jsonl", records)


class TestLoadCorpus:
    def test_identity_load_preserves_order(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [
                {"id": "a", "title": "first", "text": "alpha beta"},
                {"id": "b", "text": "gamma"},
                {"id": "c", "title": "", "text": "delta epsilon zeta"},
            ],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert [d.id for d in corpus] == ["a", "b", "c"]
        assert corpus.get("a").word_count == 2
        assert corpus.get("c").word_count == 3
        assert corpus.get("b").title == ""

    def test_duplicate_id_rejected(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [{"id": "565", "text": "one"}, {"id": "565", "text": "two"}],
        )
        with pytest.raises(DuplicateId) as excinfo:
            load_corpus(path)
        assert excinfo.value.id == "565"

    def test_hurricane_fixture_loads(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [
                {"id": "565", "text": DOC_565},
                {"id": "246", "text": DOC_246},
                {"id": "535", "text": DOC_535},
            ],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert "565" in corpus and "246" in corpus and "535" in corpus

    def test_missing_id(self, tmp_path):
        path = corpus_file(tmp_path, [{"text": "body"}])
        with pytest.raises(MissingField) as excinfo:
            load_corpus(path)
        assert excinfo.value.field == "id"
        assert excinfo.value.line_no == 1

    def test_missing_text(self, tmp_path):
        path = corpus_file(tmp_path, [{"id": "x"}])
        with pytest.raises(MissingField) as excinfo:
            load_corpus(path)
        assert excinfo.value.field == "text"

    def test_blank_text_rejected(self, tmp_path):
        path = corpus_file(tmp_path, [{"id": "x", "text": "   "}])
        with pytest.raises(EmptyText):
            load_corpus(path)

    def test_invalid_utf8_is_malformed_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "text": "fine"}\n{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(MalformedRecord) as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 2

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(tmp_path / "nope.jsonl")

    def test_deterministic(self, tmp_path):
        path = corpus_file(
            tmp_path, [{"id": "a", "text": "x y z"}, {"id": "b", "text": "w"}]
        )
        assert load_corpus(path) == load_corpus(path)

    def test_long_documents_not_truncated(self, tmp_path):
        # Corpus documents range up to thousands of words; the loader
        # must keep all of them.
        text = " ".join(f"w{i}" for i in range(4782))
        path = corpus_file(tmp_path, [{"id": "long", "text": text}])
        assert load_corpus(path).get("long").word_count == 4782

    def test_word_count_invariant(self):
        for text in ["a", "a b", "  spaced   out  tokens ", "one\ntwo\tthree"]:
            doc = Document(id="d", text=text)
            assert doc.word_count == len(text.split())
            assert doc.word_count >= 1


class TestCorpusType:
    def test_id_index_bijection(self):
        corpus = Corpus([Document(id="a", text="x"), Document(id="b", text="y")])
        assert corpus.id_index == {"a": 0, "b": 1}
        assert [d.id for d in corpus] == ["a", "b"]

    def test_duplicate_in_memory(self):
        with pytest.raises(DuplicateId):
            Corpus([Document(id="a", text="x"), Document(id="a", text="y")])


class TestLoadQueries:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_queries(path) == []

    def test_gold_preserved(self, tmp_path):
        path = write_jsonl(
            tmp_path / "q.jsonl",
            [
                {
                    "id": "q1",
                    "question": "How much rainfall fell at Melbourne Beach?",
                    "gold_answer": "25.28 inches",
                    "gold_doc_ids": ["565"],
                }
            ],
        )
        records = load_queries(path)
        assert len(records) == 1
        assert records[0].gold_doc_ids == ("565",)
        assert records[0].gold_answer == "25.28 inches"

    def test_missing_question(self, tmp_path):
        path = write_jsonl(tmp_path / "q.jsonl", [{"id": "q1"}])
        with pytest.raises(MissingField) as excinfo:
            load_queries(path)
        assert excinfo.value.field == "question"

    def test_duplicate_query_id(self, tmp_path):
        path = write_jsonl(
            tmp_path / "q.jsonl",
            [{"id": "q", "question": "a?"}, {"id": "q", "question": "b?"}],
        )
        with pytest.raises(DuplicateId):
            load_queries(path)

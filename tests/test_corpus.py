from __future__ import annotations

import io
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import DOC_246, DOC_535, DOC_565, write_escaped_jsonl, write_jsonl
from oracles import json_lines_records
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
from hyperrag import corpus as corpus_module
from hyperrag.corpus import _iter_records


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
        assert corpus.get("a").text == "alpha beta"
        assert corpus.get("c").text == "delta epsilon zeta"
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
        # "\x1c\x1d" and "\u3000" are whitespace to str.split, so blank too.
        for text in ["   ", " ", "\x1c\x1d", "\u3000", " \t\n"]:
            path = corpus_file(tmp_path, [{"id": "x", "text": text}])
            with pytest.raises(EmptyText):
                load_corpus(path)

    def test_invalid_utf8_is_malformed_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "text": "fine"}\n{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(MalformedRecord) as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 2

    def test_invalid_utf8_offset_counts_from_the_file_start(self, tmp_path):
        blob = b'{"id": "a", "text": "fine"}\n\n{"id": "b", "text": "caf\xe9"}\n'
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(blob)
        with pytest.raises(MalformedRecord) as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 3
        assert f"invalid UTF-8 at byte {blob.index(bytes([0xE9]))}" in str(excinfo.value)

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_line_breaking_characters_inside_strings(self, tmp_path, char):
        # json.dumps(ensure_ascii=False) writes these raw; only "\n" ends a record.
        records = [
            {"id": "a", "text": f"rain{char}fall in miami"},
            {"id": "b", "title": f"t{char}", "text": f"{char}surge{char}"},
        ]
        corpus = load_corpus(corpus_file(tmp_path, records))
        assert [(d.id, d.title, d.text) for d in corpus] == [
            ("a", "", f"rain{char}fall in miami"),
            ("b", f"t{char}", f"{char}surge{char}"),
        ]

    def test_doc_id_with_newline_is_malformed(self, tmp_path):
        # An index stores its doc ids one per line.
        path = corpus_file(tmp_path, [{"id": "a", "text": "x"}, {"id": "b\nc", "text": "y"}])
        with pytest.raises(MalformedRecord, match="holds a newline") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("doc_id", ["a\ud800", "\udcff", "\udfff\ud800b"])
    def test_doc_id_with_lone_surrogate_is_malformed(self, tmp_path, doc_id):
        # JSON can spell a lone surrogate as an escape; no UTF-8 file can hold it.
        path = write_escaped_jsonl(tmp_path / "corpus.jsonl", [{"id": "a", "text": "x"}, {"id": doc_id, "text": "y"}])
        with pytest.raises(MalformedRecord, match="lone surrogate") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 2

    def test_crlf_file_with_blank_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x y"}\r\n\r\n{"id": "b", "text": "z"}\r\n')
        assert [(d.id, d.text) for d in load_corpus(path)] == [("a", "x y"), ("b", "z")]

    def test_lone_cr_does_not_separate_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "a", "text": "x"}\r{"id": "b", "text": "z"}\n')
        with pytest.raises(MalformedRecord) as excinfo:
            load_corpus(path)
        assert excinfo.value.line_no == 1
        assert "Extra data" in str(excinfo.value)

    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            load_corpus(tmp_path / "nope.jsonl")

    def test_failed_read_is_io_failure(self, monkeypatch, tmp_path):
        # A file that opens but cannot be read (a disk error) is a data error too.
        path = corpus_file(tmp_path, [{"id": "a", "text": "x"}])

        class Unreadable(io.BufferedReader):
            def readline(self, *args):
                raise OSError(5, "Input/output error")

        monkeypatch.setattr(corpus_module, "open", lambda *args: Unreadable(io.FileIO(path, "rb")), raising=False)
        with pytest.raises(IoFailure, match="Input/output error"):
            load_corpus(path)

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
        assert load_corpus(path).get("long").text == text


def _drain(records) -> tuple[str, tuple[int, str] | None]:
    """The records read before any MalformedRecord (as a repr, so NaN
    compares equal to itself), and that error's line number and text."""
    out = []
    try:
        for record in records:
            out.append(record)
    except MalformedRecord as exc:
        return repr(out), (exc.line_no, str(exc))
    return repr(out), None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# Characters that JSON, the line splitter or str.isspace treat specially, and any other.
_TEXT = st.text(
    st.sampled_from('ab \t\r"\\{}\u2028\u2029\u0085\u00a0\x0c\ufeff') | st.characters(codec="utf-8")
)


@st.composite
def _body(draw) -> str:
    """One line's content: a record, a non-object, truncated JSON or text."""
    kind = draw(st.sampled_from(["object", "value", "truncated", "text", "blank"]))
    if kind == "blank":
        return ""
    if kind == "text":
        return draw(_TEXT)
    if kind == "value":
        value = draw(_JSON_VALUES)
    else:
        value = draw(st.dictionaries(_TEXT, _JSON_VALUES, max_size=4))
    dumped = json.dumps(value, ensure_ascii=draw(st.booleans()))
    if kind == "truncated":
        dumped = dumped[: draw(st.integers(0, max(0, len(dumped) - 1)))]
    return dumped


# Put before and after a line's content: JSON whitespace, other whitespace, a BOM, garbage.
_EDGE = st.sampled_from(
    ["", " ", "\t", "\r", " \t\r ", "\u00a0", "\x0c", "\ufeff", "\u2028", "x", "}", " 1", "{}"]
)
_LINE = st.builds(lambda head, body, tail: head + body + tail, _EDGE, _body(), _EDGE)


class TestRecordDecoder:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(lines=st.lists(_LINE, max_size=5), final_newline=st.booleans())
    def test_matches_json_loads_per_line(self, tmp_path, lines, final_newline):
        text = "\n".join(lines) + ("\n" if final_newline else "")
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert _drain(_iter_records(path)) == _drain(json_lines_records(text))


class TestRecordStreaming:
    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        # About 2 MB of records; reading the whole file at once would hold it several times over.
        line = json.dumps({"id": "x", "text": "rain " * 16}) + "\n"
        path = tmp_path / "records.jsonl"
        path.write_text(line * (2_000_000 // len(line)), encoding="utf-8")
        assert path.stat().st_size > 1_900_000
        tracemalloc.start()
        try:
            n_records = sum(1 for _ in _iter_records(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_records == 2_000_000 // len(line)
        assert peak < 2**20, f"iterating peaked at {peak / 2**20:.1f} MiB"


class TestCorpusType:
    def test_id_index_bijection(self):
        corpus = Corpus([Document(id="a", text="x"), Document(id="b", text="y")])
        assert corpus.id_index == {"a": 0, "b": 1}
        assert [d.id for d in corpus] == ["a", "b"]

    def test_duplicate_in_memory(self):
        with pytest.raises(DuplicateId):
            Corpus([Document(id="a", text="x"), Document(id="a", text="y")])

    @pytest.mark.parametrize(
        "doc_id, message", [("a\nb", "holds a newline"), ("\n", "holds a newline"), ("a\ud800", "lone surrogate")]
    )
    def test_document_refuses_an_id_an_index_cannot_store(self, doc_id, message):
        with pytest.raises(MalformedRecord, match=message):
            Document(id=doc_id, text="x")

    @pytest.mark.parametrize("doc_id", ["a\rb", "a\u2028b", "a\u0085b", "a b", "\U0001d11e"])
    def test_document_keeps_other_line_breaking_characters(self, doc_id):
        assert Document(id=doc_id, text="x").id == doc_id


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", "q\ud800"), ("question", "rain \udcff totals"), ("gold_answer", "\udfff"),
            ("gold_doc_ids", ["\ud800"]),
        ],
    )
    def test_lone_surrogate_is_malformed(self, tmp_path, field, value):
        record = {"id": "q2", "question": "Where did it rain?", field: value}
        path = write_escaped_jsonl(tmp_path / "q.jsonl", [{"id": "q1", "question": "a?"}, record])
        with pytest.raises(MalformedRecord, match=f"{field} .* holds a lone surrogate") as excinfo:
            load_queries(path)
        assert excinfo.value.line_no == 2

    def test_duplicate_query_id(self, tmp_path):
        path = write_jsonl(
            tmp_path / "q.jsonl",
            [{"id": "q", "question": "a?"}, {"id": "q", "question": "b?"}],
        )
        with pytest.raises(DuplicateId):
            load_queries(path)

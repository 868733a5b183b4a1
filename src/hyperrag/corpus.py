"""Corpus loading: documents and query records from line-delimited JSON.

A corpus file holds one JSON object per line with keys ``id``, ``text``
and optional ``title``. A query file holds objects with ``id``,
``question`` and optional ``gold_answer`` / ``gold_doc_ids``. Loading is
fail-fast: the first structural error aborts and no partial corpus is
ever returned, so downstream indexes can assume ids resolve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import DuplicateId, EmptyText, IoFailure, MalformedRecord, MissingField


@dataclass(frozen=True)
class Document:
    """One corpus text; the unit of retrieval.

    ``word_count`` is derived from ``text`` (whitespace tokens) and is
    never read from the file.
    """

    id: str
    text: str
    title: str = ""
    word_count: int = field(init=False, compare=True, default=0)

    def __post_init__(self):
        if not self.id:
            raise MalformedRecord(0, "document id must be non-empty")
        words = self.text.split()
        if not words:
            raise EmptyText(self.id)
        object.__setattr__(self, "word_count", len(words))


@dataclass
class Corpus:
    """Ordered, immutable-by-convention collection of documents.

    Iteration order is insertion (file) order. ``id_index`` maps each id
    to its position and is rebuilt on construction.
    """

    documents: list[Document]
    id_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for pos, doc in enumerate(self.documents):
            if doc.id in index:
                raise DuplicateId(doc.id)
            index[doc.id] = pos
        self.id_index = index

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.id_index

    def get(self, doc_id: str) -> Document:
        return self.documents[self.id_index[doc_id]]


@dataclass(frozen=True)
class QueryRecord:
    id: str
    question: str
    gold_answer: str | None = None
    gold_doc_ids: tuple[str, ...] | None = None


def _iter_records(path: str | Path):
    """Yield (line_no, parsed object) for each non-blank line."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    for line_no, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, str(exc)) from exc
        if not isinstance(obj, dict):
            raise MalformedRecord(line_no, "record must be an object")
        yield line_no, obj


def _require(obj: dict, key: str, line_no: int) -> object:
    if key not in obj or obj[key] is None:
        raise MissingField(line_no, key)
    return obj[key]


def _as_str(value: object, line_no: int, key: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise MalformedRecord(line_no, f"{key} must be a string")


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited corpus file.

    Raises MissingField / DuplicateId / EmptyText on the first bad
    record; the order of documents matches the file.
    """
    documents: list[Document] = []
    seen: set[str] = set()
    for line_no, obj in _iter_records(path):
        doc_id = _as_str(_require(obj, "id", line_no), line_no, "id")
        if not doc_id:
            raise MissingField(line_no, "id")
        text = _as_str(_require(obj, "text", line_no), line_no, "text")
        if not text.split():
            raise EmptyText(doc_id)
        title = _as_str(obj.get("title", ""), line_no, "title")
        if doc_id in seen:
            raise DuplicateId(doc_id)
        seen.add(doc_id)
        documents.append(Document(id=doc_id, text=text, title=title))
    return Corpus(documents)


def load_queries(path: str | Path) -> list[QueryRecord]:
    """Load a line-delimited query file; ids must be unique."""
    records: list[QueryRecord] = []
    seen: set[str] = set()
    for line_no, obj in _iter_records(path):
        qid = _as_str(_require(obj, "id", line_no), line_no, "id")
        question = _as_str(_require(obj, "question", line_no), line_no, "question")
        if not question.strip():
            raise MissingField(line_no, "question")
        if qid in seen:
            raise DuplicateId(qid)
        seen.add(qid)
        gold_answer = obj.get("gold_answer")
        if gold_answer is not None:
            gold_answer = _as_str(gold_answer, line_no, "gold_answer")
        gold_ids = obj.get("gold_doc_ids")
        if gold_ids is not None:
            if not isinstance(gold_ids, list):
                raise MalformedRecord(line_no, "gold_doc_ids must be an array")
            gold_ids = tuple(_as_str(g, line_no, "gold_doc_ids") for g in gold_ids)
        records.append(
            QueryRecord(id=qid, question=question, gold_answer=gold_answer, gold_doc_ids=gold_ids)
        )
    return records

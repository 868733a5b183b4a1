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

    The id must be non-empty valid Unicode text (no lone surrogate) and
    hold no newline, since an index stores its ids one per line
    (MalformedRecord); the text must hold a non-whitespace character.
    """

    id: str
    text: str
    title: str = ""

    def __post_init__(self):
        doc_id = self.id
        # Neither "\n" nor a lone surrogate is printable, so one call clears a usual id.
        if not doc_id or not doc_id.isprintable() and ("\n" in doc_id or not _is_text(doc_id)):
            raise MalformedRecord(0, _id_fault(doc_id))
        if not self.text or self.text.isspace():
            raise EmptyText(self.id)


def _is_text(value: str) -> bool:
    """Whether ``value`` holds no lone surrogate, so that UTF-8 can encode it."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _id_fault(doc_id: str) -> str:
    if not doc_id:
        return "document id must be non-empty"
    if "\n" in doc_id:
        return f"document id {doc_id!r} holds a newline"
    return f"document id {doc_id!r} holds a lone surrogate, which is not valid Unicode text"


def _text_field(value: str, line_no: int, key: str) -> str:
    """``value``, unless it holds a lone surrogate, which no UTF-8 file or terminal can take (MalformedRecord)."""
    if not _is_text(value):
        raise MalformedRecord(line_no, f"{key} {value!r} holds a lone surrogate, which is not valid Unicode text")
    return value


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


# One decoder for every record: ``raw_decode`` skips the two regex
# whitespace scans ``json.loads`` makes around it; the checks those scans
# and ``loads`` make are done in ``_iter_records`` with the same messages.
_raw_decode = json.JSONDecoder().raw_decode

# JSON's whitespace, less "\n", which separates records.
_JSON_SPACE = " \t\r"


def _iter_records(path: str | Path):
    """Yield (line_no, parsed object) for each non-blank line.

    Records are separated by ``"\n"`` alone, so any other character may
    appear inside a JSON string, and ``"\r\n"`` works because ``"\r"`` is
    JSON whitespace. Each line is accepted or refused exactly as
    ``json.loads`` would, with its message. Invalid UTF-8 is a
    MalformedRecord naming the line that holds it and the offending
    byte's offset in the file.

    The file is read one line at a time, in binary, so memory does not
    grow with its size; a read that fails is an IoFailure.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    offset = line_no = 0
    with handle:
        while True:
            try:
                raw = handle.readline()
            except OSError as exc:
                raise IoFailure(str(exc)) from exc
            if not raw:
                return
            line_no += 1
            try:
                line = raw.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid UTF-8 at byte {offset + exc.start}") from None
            offset += len(raw)
            if not line or line.isspace():
                continue
            try:
                if line[0] == "\ufeff":
                    raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
                obj, end = _raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
                if end != len(line):
                    end = len(line) - len(line[end:].lstrip(_JSON_SPACE))
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
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


def _str_field(obj: dict, key: str, line_no: int) -> str:
    """The required field ``key`` as a string (an integer is spelled out)."""
    value = obj.get(key)
    if type(value) is str:
        return value
    if value is None:
        raise MissingField(line_no, key)
    return _as_str(value, line_no, key)


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited corpus file.

    Raises MissingField / MalformedRecord / EmptyText on the first bad
    record, and DuplicateId, from :class:`Corpus`, once the whole file is
    read; the order of documents matches the file. A
    blank text, and an id holding a newline or a lone surrogate (an
    escape such as ``"\\ud800"``), are rejected by :class:`Document`
    itself, as a MalformedRecord naming the line.
    """
    documents: list[Document] = []
    for line_no, obj in _iter_records(path):
        doc_id = _str_field(obj, "id", line_no)
        if not doc_id:
            raise MissingField(line_no, "id")
        text = _str_field(obj, "text", line_no)
        title = _as_str(obj.get("title", ""), line_no, "title")
        try:
            doc = Document(id=doc_id, text=text, title=title)
        except MalformedRecord as exc:
            raise MalformedRecord(line_no, exc.detail) from None
        documents.append(doc)
    return Corpus(documents)


def load_queries(path: str | Path) -> list[QueryRecord]:
    """Load a line-delimited query file; ids must be unique.

    A string holding a lone surrogate (an escape such as ``"\\udcff"``)
    is a MalformedRecord naming its line: a query's strings are encoded
    and written out, which no such string survives.
    """
    records: list[QueryRecord] = []
    seen: set[str] = set()
    for line_no, obj in _iter_records(path):
        qid = _text_field(_str_field(obj, "id", line_no), line_no, "id")
        question = _text_field(_str_field(obj, "question", line_no), line_no, "question")
        if not question.strip():
            raise MissingField(line_no, "question")
        if qid in seen:
            raise DuplicateId(qid)
        seen.add(qid)
        gold_answer = obj.get("gold_answer")
        if gold_answer is not None:
            gold_answer = _text_field(_as_str(gold_answer, line_no, "gold_answer"), line_no, "gold_answer")
        gold_ids = obj.get("gold_doc_ids")
        if gold_ids is not None:
            if not isinstance(gold_ids, list):
                raise MalformedRecord(line_no, "gold_doc_ids must be an array")
            gold_ids = tuple(
                _text_field(_as_str(g, line_no, "gold_doc_ids"), line_no, "gold_doc_ids") for g in gold_ids
            )
        records.append(
            QueryRecord(id=qid, question=question, gold_answer=gold_answer, gold_doc_ids=gold_ids)
        )
    return records

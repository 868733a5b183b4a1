"""Label extraction: dimensions, normalization, gazetteer matching.

Labels reach the index by one route, a :class:`LabelAssignment`, which
three writers fill:

* :func:`extract_all` — a deterministic phrase matcher driven by a
  hand-editable word list per dimension. Good for tests and desk-scale
  corpora; needs no models.
* :func:`load_precomputed_labels` — ingest of label files produced
  offline by whatever NER / keyphrase tooling the deployment uses.
* :meth:`LabelAssignment.add` — one record at a time, from code.

The two loaders normalize label keys with :func:`normalize_label`, so a
key always means the same thing no matter where it came from. Every
writer appends one record per label, held in integer columns, which
:func:`~hyperrag.hypercube.build_index` inverts with whole-array passes.
"""

from __future__ import annotations

import string
import unicodedata
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Iterator, Mapping

import numpy as np

from .corpus import Corpus, Document, _is_text, _iter_records, _str_field, _text_field
from .errors import MalformedRecord, NonPositiveCount, UnknownDocId

Dimension = str

CANONICAL_DIMENSIONS: tuple[Dimension, ...] = (
    "LOCATION",
    "DATE",
    "EVENT",
    "ORGANIZATION",
    "PERSON",
    "THEME",
)

# First token -> the distinct token counts of the phrases starting with it, longest first (see _phrase_table).
PhraseTable = dict[str, tuple[int, ...]]

# Characters stripped from both ends of a text token (but kept inside it,
# so "4-8" and "fay's" survive intact).
_TOKEN_STRIP = string.punctuation + "“”‘’‚„«»‹›…–—"


def normalize_label(surface: str) -> str:
    """Canonical key for a label surface string.

    Case-folds, applies Unicode NFC, collapses internal whitespace to
    single spaces, and strips surrounding whitespace plus terminal
    sentence punctuation. Idempotent by construction (iterated to a
    fixed point). All-punctuation input normalizes to the empty string,
    which callers must reject.

    The terminal strip is ``rstrip(" .,;:!?")``, and it removes exactly
    what the regex ``[\\s.,;:!?]+$`` would: after the collapse the only
    whitespace left is a single space between words, so the maximal
    trailing run of whitespace and punctuation is a run of those seven
    characters, and no trailing newline is left for ``$`` to stop before.
    """
    s = surface
    for _ in range(4):
        prev = s
        s = " ".join(unicodedata.normalize("NFC", s.casefold()).split()).rstrip(" .,;:!?")
        if s == prev:
            break
    return s


def _all_normalized(keys: list[str]) -> bool:
    """Whether every key is non-empty, equal to its own :func:`normalize_label` and UTF-8-encodable.

    Tested on all keys joined by newlines at once rather than key by
    key. A newline is a starter that composes with nothing, so case
    folding and NFC leave the joined string alone exactly when they
    leave every key alone. A key holds no whitespace but single inner
    spaces exactly when splitting the joined string on whitespace only
    turns its newlines into spaces, and no newline comes from a key.
    """
    joined = "\n".join(keys)
    return not keys or (
        all(keys)
        and joined.count("\n") == len(keys) - 1
        and " ".join(joined.split()) == joined.replace("\n", " ")
        and {key[-1] for key in keys}.isdisjoint(".,;:!?")
        and unicodedata.normalize("NFC", joined.casefold()) == joined
        and _is_text(joined)
    )


def tokenize(text: str) -> list[str]:
    """Normalized word tokens of free text.

    Case-folded NFC tokens split on whitespace with surrounding
    punctuation removed; internal punctuation is preserved. This is the
    shared tokenizer for gazetteer matching, query decomposition and the
    BM25 baseline, so phrase matches are always token-boundary anchored.
    """
    return [tok for raw in unicodedata.normalize("NFC", text.casefold()).split() if (tok := raw.strip(_TOKEN_STRIP))]


@dataclass(frozen=True)
class DocLabels:
    """A snapshot of one document's labels, grouped by (dimension, key) with counts.

    ``counts[(dim, key)]`` is how often the label occurs in the document
    (always >= 1). Keys are normalized; the strings a label was spelled
    with are not kept. Each read of ``assignment[doc_id]`` builds a new
    snapshot with a dict of its own, so changing it changes neither the
    :class:`LabelAssignment` nor a later read; labels are added with
    :meth:`LabelAssignment.add`.
    """

    doc_id: str
    counts: dict[tuple[Dimension, str], int]


def _count_fault(dim: Dimension, key: str, doc_id: str, count: int) -> NonPositiveCount:
    """The error for a document's count of a label that an index cannot hold."""
    return NonPositiveCount(f"({dim}, {key!r}) in doc {doc_id!r} -> {count}")


class LabelAssignment(Mapping[str, DocLabels]):
    """Every document's labels, held as records in integer columns: the one input of an index.

    :func:`extract_all`, :func:`load_precomputed_labels` and :meth:`add`
    append one record per label, and :func:`~hyperrag.hypercube.build_index`
    inverts the records with whole-array passes. An assignment holds a
    table of the distinct ``(dimension, key)`` pairs, the doc ids it has
    seen (labeled or not, each once, in the order first seen) and, per
    record, three ``array('i')`` columns: the document's number in that
    order, the pair's id and the count. Repeated ``(doc, dimension,
    key)`` records are kept as they came and merged where they are read,
    so a count may exceed what one record holds.

    It is a read-only ``Mapping[str, DocLabels]``: ``len``, ``in``,
    iteration (docs in the order first seen) and ``items()`` behave as a
    dict's. ``assignment[doc_id]`` builds a new :class:`DocLabels`
    snapshot on each read, its merged counts in the order their pairs
    first appear.
    """

    def __init__(self) -> None:
        self._pairs: list[tuple[Dimension, str]] = []
        self._pair_ids: dict[tuple[Dimension, str], int] = {}
        self._docs: dict[str, int] = {}
        self._doc_col = array("i")
        self._pair_col = array("i")
        self._count_col = array("i")
        # ((record count, doc count), record numbers grouped by doc, each doc's bounds in them)
        self._by_doc: tuple[tuple[int, int], np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[str]:
        return iter(self._docs)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._docs

    def __getitem__(self, doc_id: str) -> DocLabels:
        number = self._docs[doc_id]
        rows, bounds = self._rows_by_doc()
        pairs, pair_col, count_col = self._pairs, self._pair_col, self._count_col
        counts: dict[tuple[Dimension, str], int] = {}
        for row in rows[bounds[number] : bounds[number + 1]].tolist():
            pair = pairs[pair_col[row]]
            counts[pair] = counts.get(pair, 0) + count_col[row]
        return DocLabels(doc_id=doc_id, counts=counts)

    def add(self, doc_id: str, dim: Dimension, key: str, count: int = 1) -> None:
        """Append one record: ``(dim, key)`` occurs ``count`` times in ``doc_id``.

        A count that is not an ``int`` from 1 to 2**31 - 1 (a ``bool`` is
        not one) raises NonPositiveCount naming the doc and label, as
        :func:`~hyperrag.hypercube.build_index` does for a merged count; a
        refused record appends nothing and registers no doc. The key is
        taken as given: ``build_index`` refuses one that the
        :class:`~hyperrag.hypercube.HypercubeIndex` gate refuses, and the
        dimension one its index lacks.
        """
        if type(count) is not int or count < 1:
            raise _count_fault(dim, key, doc_id, count)
        # The count goes first: only its append can fail, so a refused record leaves no trace.
        try:
            self._count_col.append(count)
        except OverflowError:
            raise _count_fault(dim, key, doc_id, count) from None
        pair = (dim, key)
        pair_id = self._pair_ids.get(pair)
        if pair_id is None:
            pair_id = self._pair_ids[pair] = len(self._pairs)
            self._pairs.append(pair)
        self._pair_col.append(pair_id)
        # _doc_number, inlined: this runs once per record a loader reads.
        number = self._docs.get(doc_id)
        if number is None:
            number = self._docs[doc_id] = len(self._docs)
        self._doc_col.append(number)

    def _doc_number(self, doc_id: str) -> int:
        """The number of ``doc_id``, which is added to the docs seen if new."""
        number = self._docs.get(doc_id)
        if number is None:
            number = self._docs[doc_id] = len(self._docs)
        return number

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the doc number, pair id and count columns, as int32 arrays."""
        return tuple(np.array(col, dtype=np.int32) for col in (self._doc_col, self._pair_col, self._count_col))

    def _rows_by_doc(self) -> tuple[np.ndarray, np.ndarray]:
        """Record numbers grouped by doc, in append order within one, and doc ``n``'s bounds in them.

        Sorted once and kept, as two int arrays, until a record or a doc is appended.
        """
        shape = (len(self._doc_col), len(self._docs))
        if self._by_doc is None or self._by_doc[0] != shape:
            docs = np.array(self._doc_col, dtype=np.int32)
            bounds = np.zeros(len(self._docs) + 1, dtype=np.int64)
            np.cumsum(np.bincount(docs, minlength=len(self._docs)), out=bounds[1:])
            self._by_doc = (shape, np.argsort(docs, kind="stable"), bounds)
        return self._by_doc[1:]


def _gazetteer_key(phrase: str) -> str:
    """Normalized key of a gazetteer phrase; ValueError if it holds a lone surrogate, or if it is
    not 1-8 :func:`tokenize` tokens joined by spaces (no text could match it)."""
    key = normalize_label(phrase)
    if not _is_text(key):
        raise ValueError(f"gazetteer phrase {phrase!r} holds a lone surrogate, which is not valid Unicode text")
    tokens = tokenize(key)
    if " ".join(tokens) != key or not 1 <= len(tokens) <= 8:
        raise ValueError(f"gazetteer phrase {phrase!r} tokenizes to {tokens}, not 1-8 tokens that join to {key!r}")
    return key


def _all_gazetteer_keys(keys: list[str]) -> bool:
    """Whether every key is its own :func:`_gazetteer_key`, tested on all keys at once.

    Keys that pass :func:`_all_normalized` hold single inner spaces and
    no other whitespace, so ``key.split(" ")`` is what :func:`tokenize`
    splits a key into, and it keeps the key exactly when stripping
    leaves each of those tokens whole. The tokens of every key are
    checked in one list.
    """
    tokens = " ".join(keys).split(" ")
    return (
        _all_normalized(keys)
        and all(key.count(" ") < 8 for key in keys)
        and [token.strip(_TOKEN_STRIP) for token in tokens] == tokens
    )


def _refuse_entries(dim: Dimension, keys: Iterable[str]) -> None:
    """Raise ValueError naming ``dim`` and its first key (sorted) that is not its own :func:`_gazetteer_key`."""
    for key in sorted(keys):
        try:
            normalized = _gazetteer_key(key)
        except ValueError as exc:
            raise ValueError(f"gazetteer dimension {dim!r}: {exc}") from None
        if normalized != key:
            raise ValueError(f"gazetteer dimension {dim!r}: phrase {key!r} is not normalized ({normalized!r})")


@dataclass(frozen=True)
class Gazetteer:
    """Per-dimension phrase lists, stored in normalized form.

    The THEME list is the hand-curated part of a deployment: it lives in
    a checked-in file and is edited as reviewers find missing topics.
    Any dimension name is held; :func:`~hyperrag.hypercube.build_index`
    refuses a label of a dimension its index does not take. A phrase
    :func:`tokenize` changes, such as ``"(rain)"``, matches no text:
    :meth:`from_phrases` and :func:`load_gazetteer` refuse it, naming
    the phrase or its line. Construction refuses, with a ValueError
    naming the dimension and the phrase, any entry that is not already
    what they would make of it: one that is not normalized, holds a
    lone surrogate, or is not 1-8 :func:`tokenize` tokens joined by
    single spaces.
    ``tables`` holds one :func:`match_phrases` table per non-empty
    dimension, in sorted dimension order, probed against ``entries[dim]``,
    and ``dims_by_first_token`` maps each token at which some phrase can
    start to the dimensions, in that order, whose tables hold it. Both
    are derived from ``entries`` once, on construction, and shared by
    every document extracted.
    """

    entries: dict[Dimension, frozenset[str]]
    tables: dict[Dimension, PhraseTable] = field(init=False, repr=False, compare=False)
    dims_by_first_token: dict[str, tuple[Dimension, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for dim, keys in self.entries.items():
            if not _all_gazetteer_keys(list(keys)):
                _refuse_entries(dim, keys)
        tables = {dim: _phrase_table(self.entries[dim]) for dim in sorted(self.entries) if self.entries[dim]}
        dims_by_first_token: dict[str, tuple[Dimension, ...]] = {}
        for dim, table in tables.items():
            for token in table:
                dims_by_first_token[token] = dims_by_first_token.get(token, ()) + (dim,)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "dims_by_first_token", dims_by_first_token)

    @classmethod
    def from_phrases(cls, entries: Mapping[Dimension, Iterable[str]]) -> "Gazetteer":
        return cls(entries={dim: frozenset(map(_gazetteer_key, phrases)) for dim, phrases in entries.items()})

    def all_phrases(self) -> set[str]:
        out: set[str] = set()
        for phrases in self.entries.values():
            out.update(phrases)
        return out

    def __len__(self) -> int:
        return sum(len(p) for p in self.entries.values())


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Read a line-delimited gazetteer file with keys ``dim`` and ``phrase``.

    Each phrase is normalized once, where a failure can name its line.
    Any dimension name is read; :func:`~hyperrag.hypercube.build_index`
    decides which ones an index takes.
    """
    keys: dict[Dimension, set[str]] = {}
    for line_no, obj in _iter_records(path):
        dim = _str_field(obj, "dim", line_no)
        phrase = _str_field(obj, "phrase", line_no)
        try:
            keys.setdefault(dim, set()).add(_gazetteer_key(phrase))
        except ValueError as exc:
            raise MalformedRecord(line_no, str(exc)) from None
    return Gazetteer(entries={dim: frozenset(dim_keys) for dim, dim_keys in keys.items()})


def _phrase_table(phrases: Iterable[str]) -> PhraseTable:
    """Map the first token of distinct normalized phrases to their token counts, longest first.

    One pass: a normalized phrase holds single inner spaces, so its
    first token and token count are read without splitting it. Callers
    build it once per phrase set (per index, per gazetteer) and never
    once per text scanned.
    """
    table: PhraseTable = {}
    for phrase in phrases:
        first, n = phrase.partition(" ")[0], phrase.count(" ") + 1
        counts = table.get(first, ())
        if n not in counts:
            table[first] = tuple(sorted((*counts, n), reverse=True))
    return table


def phrase_starts(tokens: list[str], first_tokens: Container[str]) -> list[int]:
    """Ascending positions of the tokens that can start a phrase."""
    return [i for i, tok in enumerate(tokens) if tok in first_tokens]


def match_phrases(
    tokens: list[str], starts: Iterable[int], table: PhraseTable, keys: Container[str]
) -> list[tuple[int, int, str]]:
    """Longest-match-wins, non-overlapping scan of a token sequence.

    Left to right, at each position ``i`` of ``starts`` past the last
    match, the counts ``n`` that ``table`` lists for ``tokens[i]`` are
    probed longest first and the first with ``i + n <= len(tokens)`` and
    ``" ".join(tokens[i : i + n])`` in ``keys`` (the phrases ``table``
    was built from) is claimed; a token holds no whitespace, so only a
    key's own tokens join to it, and the end guard keeps a slice past the
    last token from joining to a shorter key. ``starts`` must ascend and
    include every position whose token is a key of ``table`` (any
    superset, such as :func:`phrase_starts` over a union of tables, gives
    the same hits). Returns (start, token count, key) triples in scan order.
    """
    hits: list[tuple[int, int, str]] = []
    end = 0
    for i in starts:
        if i < end:
            continue
        for n in table.get(tokens[i], ()):
            if i + n <= len(tokens) and (key := " ".join(tokens[i : i + n])) in keys:
                hits.append((i, n, key))
                end = i + n
                break
    return hits


def _gazetteer_counts(doc: Document, gazetteer: Gazetteer) -> dict[tuple[Dimension, str], int]:
    """Each ``(dimension, key)`` the gazetteer matches in a document, with its match count.

    Pairs appear in scan order: dimensions in the gazetteer's sorted
    order, each left to right. See :func:`extract_all`.
    """
    tokens = tokenize(doc.text)
    dims_by_first_token = gazetteer.dims_by_first_token
    starts: dict[Dimension, list[int]] = {}
    for i in phrase_starts(tokens, dims_by_first_token):
        for dim in dims_by_first_token[tokens[i]]:
            starts.setdefault(dim, []).append(i)
    # Each hit is a non-empty gazetteer key counted once, so a label's
    # count is summed here and added as one record.
    counts: dict[tuple[Dimension, str], int] = {}
    for dim, table in gazetteer.tables.items():
        for _pos, _n, key in match_phrases(tokens, starts.get(dim, ()), table, gazetteer.entries[dim]):
            counts[(dim, key)] = counts.get((dim, key), 0) + 1
    return counts


def extract_all(corpus: Corpus, gazetteer: Gazetteer) -> LabelAssignment:
    """Match every gazetteer phrase against every document, into a new :class:`LabelAssignment`.

    Every document is registered, in corpus order, labeled or not, and
    each label matched in it appends one record of its match count, so
    ``extract_all(Corpus([doc]), gazetteer)[doc.id]`` is one document's
    labels. Matching runs per dimension over the normalized token
    sequence, longest match wins at each position, and matches within
    one dimension never overlap. The occurrence count of a label is its
    number of matches. Phrases from different dimensions may overlap
    freely (each dimension scans independently). The per-dimension
    tables are the gazetteer's own, built once per gazetteer and probed
    against the dimension's phrases (:func:`match_phrases`). A document
    costs one tokenize and one pass that hands each position whose token
    starts some phrase to the dimensions that have a phrase starting
    with it (``dims_by_first_token``); each dimension then visits only
    its own positions, so text in which no phrase can start costs no
    more than that.
    """
    labels = LabelAssignment()
    for doc in corpus:
        labels._doc_number(doc.id)
        for (dim, key), count in _gazetteer_counts(doc, gazetteer).items():
            labels.add(doc.id, dim, key, count)
    return labels


def load_precomputed_labels(
    path: str | Path,
    corpus: Corpus,
    into: LabelAssignment | None = None,
) -> LabelAssignment:
    """Ingest a label file produced by an external extractor.

    Records carry ``doc_id``, ``dim``, ``label`` and ``count``; each one
    that passes its checks is appended, through
    :meth:`LabelAssignment.add`, to a new :class:`LabelAssignment`, or
    to ``into`` (which must be one, from :func:`extract_all`, an earlier
    call or ``add``; TypeError otherwise) and returned. Any ``dim`` is
    read; :func:`~hyperrag.hypercube.build_index` decides which
    dimensions an index takes. Label strings are normalized on ingest,
    each distinct spelling once per file, so records spelling a label
    alike share one key; a spelling holding a lone surrogate is a
    MalformedRecord naming its line. Repeated (doc, dim, label) records,
    in one file or across files, merge additively where the assignment
    is read. A count must be an integer >= 1 (NonPositiveCount naming the
    line); one too large for an index to hold (2**31 - 1) raises
    NonPositiveCount naming the doc and label, from ``add``. A record
    that fails a check appends nothing, and the records before it stay
    appended.
    """
    if into is not None and not isinstance(into, LabelAssignment):
        raise TypeError(f"into must be a LabelAssignment, not {type(into).__name__}")
    result = LabelAssignment() if into is None else into
    keys: dict[str, str] = {}
    ids = corpus.id_index
    for line_no, obj in _iter_records(path):
        doc_id = _str_field(obj, "doc_id", line_no)
        if doc_id not in ids:
            raise UnknownDocId(doc_id)
        dim = _str_field(obj, "dim", line_no)
        surface = _str_field(obj, "label", line_no)
        count = obj.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool):
            raise NonPositiveCount(f"line {line_no}: count {count!r} is not an integer")
        if count < 1:
            raise NonPositiveCount(f"line {line_no}: ({dim}, {surface!r}) -> {count}")
        key = keys.get(surface)
        if key is None:
            key = keys[surface] = normalize_label(_text_field(surface, line_no, "label"))
            if not key:
                raise MalformedRecord(line_no, f"label {surface!r} normalizes to empty")
        result.add(doc_id, dim, key, count)
    return result

"""Label extraction: dimensions, normalization, gazetteer matching.

Labels reach the index by one of two routes with the same output shape:

* :func:`gazetteer_extract` — a deterministic phrase matcher driven by a
  hand-editable word list per dimension. Good for tests and desk-scale
  corpora; needs no models.
* :func:`load_precomputed_labels` — ingest of label files produced
  offline by whatever NER / keyphrase tooling the deployment uses.

Both routes normalize label keys with :func:`normalize_label`, so a key
always means the same thing no matter where it came from.
"""

from __future__ import annotations

import json
import re
import string
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import Corpus, Document, _as_str, _iter_records, _require
from .errors import MalformedRecord, NonPositiveCount, UnknownDimension, UnknownDocId

Dimension = str

CANONICAL_DIMENSIONS: tuple[Dimension, ...] = (
    "LOCATION",
    "DATE",
    "EVENT",
    "ORGANIZATION",
    "PERSON",
    "THEME",
)

# Trailing runs of sentence punctuation and whitespace, removed from keys.
_TRAILING_JUNK = re.compile(r"[\s.,;:!?]+$")

# Characters stripped from both ends of a text token (but kept inside it,
# so "4-8" and "fay's" survive intact).
_TOKEN_STRIP = string.punctuation + "“”‘’‚„«»‹›…–—"


def ensure_dimension(name: str, extensions: Iterable[str] = ()) -> Dimension:
    """Validate a dimension name against the canonical set plus declared extensions."""
    if name in CANONICAL_DIMENSIONS or name in set(extensions):
        return name
    raise UnknownDimension(name)


def normalize_label(surface: str) -> str:
    """Canonical key for a label surface string.

    Case-folds, applies Unicode NFC, collapses internal whitespace to
    single spaces, and strips surrounding whitespace plus terminal
    sentence punctuation. Idempotent by construction (iterated to a
    fixed point). All-punctuation input normalizes to the empty string,
    which callers must reject.
    """
    s = surface
    for _ in range(4):
        prev = s
        s = unicodedata.normalize("NFC", s.casefold())
        s = " ".join(s.split())
        s = _TRAILING_JUNK.sub("", s)
        if s == prev:
            break
    return s


def tokenize(text: str) -> list[str]:
    """Normalized word tokens of free text.

    Case-folded NFC tokens split on whitespace with surrounding
    punctuation removed; internal punctuation is preserved. This is the
    shared tokenizer for gazetteer matching, query decomposition and the
    BM25 baseline, so phrase matches are always token-boundary anchored.
    """
    folded = unicodedata.normalize("NFC", text.casefold())
    tokens = []
    for raw in folded.split():
        tok = raw.strip(_TOKEN_STRIP)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class Label:
    dimension: Dimension
    surface: str
    key: str = ""

    def __post_init__(self):
        if not self.key:
            object.__setattr__(self, "key", normalize_label(self.surface))
        if not self.key:
            raise ValueError(f"label surface {self.surface!r} normalizes to empty")


@dataclass
class DocLabels:
    """A document's labels, grouped by (dimension, key) with counts.

    ``counts[(dim, key)]`` is how often the label occurs in the document
    (always >= 1); ``surfaces`` records the surface strings seen for
    each key.
    """

    doc_id: str
    counts: dict[tuple[Dimension, str], int] = field(default_factory=dict)
    surfaces: dict[tuple[Dimension, str], set[str]] = field(default_factory=dict)

    def add(self, dimension: Dimension, key: str, count: int = 1, surface: str | None = None) -> None:
        if count < 1:
            raise NonPositiveCount(f"({dimension}, {key!r}) -> {count}")
        if not key:
            raise ValueError("empty label key")
        pair = (dimension, key)
        self.counts[pair] = self.counts.get(pair, 0) + count
        self.surfaces.setdefault(pair, set()).add(surface if surface is not None else key)

    def label_count(self) -> int:
        """Number of distinct (dimension, key) pairs."""
        return len(self.counts)

    def keys_for(self, dimension: Dimension) -> set[str]:
        return {key for (dim, key) in self.counts if dim == dimension}

    def merge(self, other: "DocLabels") -> None:
        """Additive merge: counts add, surface sets union."""
        if other.doc_id != self.doc_id:
            raise ValueError(f"cannot merge labels of {other.doc_id!r} into {self.doc_id!r}")
        for pair, count in other.counts.items():
            self.counts[pair] = self.counts.get(pair, 0) + count
            self.surfaces.setdefault(pair, set()).update(other.surfaces.get(pair, set()))


def _gazetteer_key(phrase: str) -> str:
    """Normalized key of a gazetteer phrase; ValueError unless it has 1-8 tokens."""
    key = normalize_label(phrase)
    if not key:
        raise ValueError(f"gazetteer phrase {phrase!r} normalizes to empty")
    n_tokens = len(key.split())
    if n_tokens > 8:
        raise ValueError(f"gazetteer phrase {phrase!r} has {n_tokens} tokens (allowed 1..8)")
    return key


@dataclass(frozen=True)
class Gazetteer:
    """Per-dimension phrase lists, stored in normalized form.

    The THEME list is the hand-curated part of a deployment: it lives in
    a checked-in file and is edited as reviewers find missing topics.
    """

    entries: dict[Dimension, frozenset[str]]

    @classmethod
    def from_phrases(
        cls,
        entries: Mapping[Dimension, Iterable[str]],
        extensions: Iterable[str] = (),
    ) -> "Gazetteer":
        normalized: dict[Dimension, frozenset[str]] = {}
        for dim, phrases in entries.items():
            ensure_dimension(dim, extensions)
            normalized[dim] = frozenset(_gazetteer_key(phrase) for phrase in phrases)
        return cls(entries=normalized)

    def all_phrases(self) -> set[str]:
        out: set[str] = set()
        for phrases in self.entries.values():
            out.update(phrases)
        return out

    def __len__(self) -> int:
        return sum(len(p) for p in self.entries.values())


def load_gazetteer(path: str | Path, extensions: Iterable[str] = ()) -> Gazetteer:
    """Read a line-delimited gazetteer file with keys ``dim`` and ``phrase``."""
    raw: dict[Dimension, list[str]] = {}
    for line_no, obj in _iter_records(path):
        dim = _as_str(_require(obj, "dim", line_no), line_no, "dim")
        phrase = _as_str(_require(obj, "phrase", line_no), line_no, "phrase")
        try:
            raw.setdefault(dim, []).append(_gazetteer_key(phrase))
        except ValueError as exc:
            raise MalformedRecord(line_no, str(exc)) from None
    return Gazetteer.from_phrases(raw, extensions)


def _phrase_table(phrases: Iterable[str]) -> dict[str, list[tuple[str, ...]]]:
    """Index phrases by first token, longest first, for the matcher."""
    table: dict[str, list[tuple[str, ...]]] = {}
    for phrase in phrases:
        toks = tuple(phrase.split())
        table.setdefault(toks[0], []).append(toks)
    for cands in table.values():
        cands.sort(key=lambda t: (-len(t), t))
    return table


def match_phrases(tokens: list[str], table: dict[str, list[tuple[str, ...]]]) -> list[tuple[int, tuple[str, ...]]]:
    """Longest-match-wins, non-overlapping scan of a token sequence.

    At each position the longest phrase starting there is claimed and
    the scan skips past it; unmatched tokens advance one step. Returns
    (start position, phrase tokens) pairs in scan order.
    """
    hits: list[tuple[int, tuple[str, ...]]] = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = None
        for cand in table.get(tokens[i], ()):
            if tuple(tokens[i : i + len(cand)]) == cand:
                matched = cand
                break
        if matched is None:
            i += 1
        else:
            hits.append((i, matched))
            i += len(matched)
    return hits


def gazetteer_extract(doc: Document, gazetteer: Gazetteer) -> DocLabels:
    """Match every gazetteer phrase against the document text.

    Matching runs per dimension over the normalized token sequence,
    longest match wins at each position, and matches within one
    dimension never overlap. The occurrence count of a label is its
    number of matches. Phrases from different dimensions may overlap
    freely (each dimension scans independently).
    """
    tokens = tokenize(doc.text)
    labels = DocLabels(doc_id=doc.id)
    for dim in sorted(gazetteer.entries):
        phrases = gazetteer.entries[dim]
        if not phrases:
            continue
        table = _phrase_table(phrases)
        for _pos, phrase_tokens in match_phrases(tokens, table):
            labels.add(dim, " ".join(phrase_tokens))
    return labels


def extract_all(corpus: Corpus, gazetteer: Gazetteer) -> dict[str, DocLabels]:
    """Run gazetteer extraction over a whole corpus."""
    return {doc.id: gazetteer_extract(doc, gazetteer) for doc in corpus}


def load_precomputed_labels(
    path: str | Path,
    corpus: Corpus,
    extensions: Iterable[str] = (),
    into: dict[str, DocLabels] | None = None,
) -> dict[str, DocLabels]:
    """Ingest a label file produced by an external extractor.

    Records carry ``doc_id``, ``dim``, ``label`` and ``count``. Label
    strings are normalized on ingest; repeated (doc, dim, label) records
    merge additively, and passing ``into`` merges across files.
    """
    result: dict[str, DocLabels] = into if into is not None else {}
    for line_no, obj in _iter_records(path):
        doc_id = _as_str(_require(obj, "doc_id", line_no), line_no, "doc_id")
        if doc_id not in corpus:
            raise UnknownDocId(doc_id)
        dim = ensure_dimension(_as_str(_require(obj, "dim", line_no), line_no, "dim"), extensions)
        surface = _as_str(_require(obj, "label", line_no), line_no, "label")
        count = obj.get("count", 1)
        if not isinstance(count, int) or isinstance(count, bool):
            raise NonPositiveCount(f"line {line_no}: count {count!r} is not an integer")
        if count < 1:
            raise NonPositiveCount(f"line {line_no}: ({dim}, {surface!r}) -> {count}")
        key = normalize_label(surface)
        if not key:
            raise MalformedRecord(line_no, f"label {surface!r} normalizes to empty")
        result.setdefault(doc_id, DocLabels(doc_id=doc_id)).add(dim, key, count, surface=surface)
    return result


def write_labels(labels: Mapping[str, DocLabels], path: str | Path) -> None:
    """Serialize a label map back to the line-delimited file format."""
    lines = []
    for doc_id in sorted(labels):
        doc_labels = labels[doc_id]
        for (dim, key) in sorted(doc_labels.counts):
            lines.append(
                json.dumps(
                    {"doc_id": doc_id, "dim": dim, "label": key, "count": doc_labels.counts[(dim, key)]},
                    sort_keys=True,
                    ensure_ascii=False,
                )
            )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

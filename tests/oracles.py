"""Brute-force reference implementations, independent of the library's paths.

Everything here recomputes results the slow, obvious way: full scans over
documents and vocabularies, pure-Python dot products, direct formula
evaluation. Property tests compare library output against these.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
import zlib
from dataclasses import replace

import numpy as np

from hyperrag import DocLabels, MalformedRecord, MatchEvidence, ScoredDoc, UnencodableText
from hyperrag.labeling import tokenize


def py_dot(a, b) -> float:
    return float(sum(float(x) * float(y) for x, y in zip(a, b)))


def py_cosine(a, b) -> float:
    return min(1.0, max(-1.0, py_dot(a, b)))


_TRAILING_JUNK = re.compile(r"[\s.,;:!?]+$")


def brute_normalize_label(surface: str) -> str:
    """normalize_label as a regex: case fold, NFC, collapse whitespace, then
    drop the trailing run of whitespace and sentence punctuation, repeated
    until nothing changes (at most four rounds).
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


def brute_gazetteer_key(phrase: str) -> str:
    """Normalized key of a gazetteer phrase; ValueError if it holds a lone surrogate, or if it is
    not 1-8 :func:`tokenize` tokens joined by spaces (no text could match it)."""
    key = brute_normalize_label(phrase)
    try:
        key.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"gazetteer phrase {phrase!r} holds a lone surrogate, which is not valid Unicode text") from None
    tokens = tokenize(key)
    if " ".join(tokens) != key or not 1 <= len(tokens) <= 8:
        raise ValueError(f"gazetteer phrase {phrase!r} tokenizes to {tokens}, not 1-8 tokens that join to {key!r}")
    return key


def numpy_trigram_encode(text: str, dim: int) -> np.ndarray:
    """TrigramEncoder's formula term by term: one float add per trigram into
    its bucket, then division by ``np.linalg.norm``.

    Raises UnencodableText, with the encoder's message, where it does.
    """
    key = brute_normalize_label(text)
    if len(key) < 3:
        raise UnencodableText(text)
    values = np.zeros(dim, dtype=np.float64)
    for i in range(len(key) - 2):
        try:
            tri = key[i : i + 3].encode("utf-8")
        except UnicodeEncodeError:
            raise UnencodableText(text, reason="it holds a lone surrogate, which UTF-8 cannot encode") from None
        values[zlib.crc32(tri) % dim] += 1.0 if zlib.crc32(tri, 1) & 1 else -1.0
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise UnencodableText(text, reason="signed trigram buckets cancel to a zero vector")
    return values / norm


def dense_neighbors(keys: list[str], matrix: np.ndarray, query_vec: np.ndarray, tau: float) -> list[tuple[str, float]]:
    """Thresholded scan of one table the dense way: every sim clipped to
    [-1, 1], the rows at or above tau, sorted by sim descending then key.
    """
    sims = np.clip(matrix @ query_vec, -1.0, 1.0)
    hits = [(keys[row], float(sims[row])) for row in np.flatnonzero(sims >= tau)]
    hits.sort(key=lambda kv: (-kv[1], kv[0]))
    return hits


def brute_neighbors(component: str, vocab: list[str], encoder, tau: float) -> list[tuple[str, float]]:
    """Thresholded scan: every vocab key scored with a pure-Python cosine."""
    try:
        query_vec = encoder.encode(component)
    except Exception:
        return []
    hits = []
    for key in vocab:
        try:
            key_vec = encoder.encode(key)
        except Exception:
            continue
        sim = py_cosine(query_vec, key_vec)
        if sim >= tau:
            hits.append((key, sim))
    hits.sort(key=lambda kv: (-kv[1], kv[0]))
    return hits


def brute_resolve(
    dimension: str,
    key: str,
    vocab_by_dim: dict[str, list[str]],
    encoder,
    tau: float,
) -> tuple[str, str, float] | None:
    """(label, kind, sim) for one component, or None when unmatched."""
    vocab = sorted(vocab_by_dim.get(dimension, ()))
    if key in vocab:
        return (key, "exact", 1.0)
    if encoder is None:
        return None
    best = None
    for label in vocab:
        try:
            sim = py_cosine(encoder.encode(key), encoder.encode(label))
        except Exception:
            continue
        if sim >= tau and (best is None or sim > best[2]):
            best = (label, "semantic", sim)
    return best


def brute_retrieve(
    labels_by_doc: dict[str, DocLabels],
    components: list[tuple[str, str]],
    vocab_by_dim: dict[str, list[str]],
    encoder,
    tau: float,
    k: int,
) -> list[tuple[str, int, int, int]]:
    """Scan ALL documents, score coverage directly from their labels.

    Returns the top-k as (doc_id, coverage, indicator, freq) under the
    order: full-coverage tier first, then coverage desc, freq desc,
    indicator desc, doc id asc. Documents covering nothing never appear.
    Components are normalized and deduplicated by (dimension, key), the
    same contract a query decomposition guarantees.
    """
    unique: list[tuple[str, str]] = []
    for dim, text in components:
        pair = (dim, brute_normalize_label(text))
        if pair[1] and pair not in unique:
            unique.append(pair)
    components = unique
    resolved = [
        (dim, brute_resolve(dim, key, vocab_by_dim, encoder, tau)) for dim, key in components
    ]
    rows = []
    for doc_id in sorted(labels_by_doc):
        doc_labels = labels_by_doc[doc_id]
        coverage = indicator = freq = 0
        for dim, resolution in resolved:
            if resolution is None:
                continue
            label, kind, _sim = resolution
            count = doc_labels.counts.get((dim, label), 0)
            if count > 0:
                coverage += 1
                freq += count
                if kind == "exact":
                    indicator += 1
        if coverage > 0:
            rows.append((doc_id, coverage, indicator, freq))
    full = [r for r in rows if r[1] == len(components)]
    partial = [r for r in rows if r[1] != len(components)]
    order = lambda r: (-r[1], -r[3], -r[2], r[0])
    ranked = sorted(full, key=order) + sorted(partial, key=order)
    return ranked[:k]


def brute_score(
    labels_by_doc: dict[str, DocLabels], matches: list[MatchEvidence]
) -> list[ScoredDoc]:
    """Scan ALL documents and score each against every match from its own labels.

    Returns a ``ScoredDoc`` with full per-component evidence for every
    document covering at least one component, in doc id order. Evidence
    is built afresh for every document and component: a covered
    component is the match with the document's count, any other is an
    unmatched miss with a zero count.
    """
    out = []
    for doc_id in sorted(labels_by_doc):
        counts = labels_by_doc[doc_id].counts
        coverage = indicator = freq = 0
        evidence = []
        for match in matches:
            count = counts.get((match.dimension, match.matched_label), 0)
            if match.matched_label is not None and count > 0:
                coverage += 1
                freq += count
                if match.kind == "exact":
                    indicator += 1
                evidence.append(replace(match, doc_count=count))
            else:
                evidence.append(
                    MatchEvidence(match.dimension, match.component, None, "unmatched", 0.0)
                )
        if coverage > 0:
            out.append(ScoredDoc(doc_id, coverage, indicator, freq, evidence))
    return out


def brute_cell(labels_by_doc: dict[str, DocLabels], coords: dict[str, str]) -> list[str]:
    """Filter every document for containment of all cell coordinates."""
    out = []
    for doc_id, doc_labels in labels_by_doc.items():
        if all((dim, key) in doc_labels.counts for dim, key in coords.items()):
            out.append(doc_id)
    return sorted(out)


def brute_postings(labels_by_doc: dict[str, DocLabels]) -> dict[str, dict[str, list[tuple[str, int]]]]:
    """Every label's postings, ``dim -> key -> [(doc_id, count)]``, by one scan of a plain assignment.

    Documents are visited in doc-id order and appended to each of their
    labels' lists, so every list comes out in doc-id order; dimensions
    and keys without a posting are absent.
    """
    out: dict[str, dict[str, list[tuple[str, int]]]] = {}
    for doc_id in sorted(labels_by_doc):
        for (dim, key), count in labels_by_doc[doc_id].counts.items():
            out.setdefault(dim, {}).setdefault(key, []).append((doc_id, count))
    return out


def brute_merge(records: list[dict]) -> dict[str, dict[tuple[str, str], int]]:
    """Label file records merged by hand: doc id (in the order first seen) -> (dim, normalized key) -> summed count."""
    out: dict[str, dict[tuple[str, str], int]] = {}
    for record in records:
        counts = out.setdefault(record["doc_id"], {})
        pair = (record["dim"], brute_normalize_label(record["label"]))
        counts[pair] = counts.get(pair, 0) + record.get("count", 1)
    return out


def substring_occurrences(phrase_tokens: list[str], text_tokens: list[str]) -> int:
    """Occurrences of a token sequence inside a token list (overlaps allowed)."""
    n, m = len(text_tokens), len(phrase_tokens)
    return sum(1 for i in range(n - m + 1) if text_tokens[i : i + m] == phrase_tokens)


def brute_longest_match(tokens: list[str], phrases) -> list[tuple[int, str]]:
    """Longest-match-wins, non-overlapping scan with no table.

    Every position is tried against every phrase; the longest one that
    matches there is claimed and the scan skips past it. Returns
    (start position, phrase) pairs in scan order.
    """
    hits = []
    i = 0
    while i < len(tokens):
        best = None
        for phrase in phrases:
            words = phrase.split()
            if tokens[i : i + len(words)] == words and (best is None or len(words) > len(best.split())):
                best = phrase
        if best is None:
            i += 1
        else:
            hits.append((i, best))
            i += len(best.split())
    return hits


def brute_bm25_all(
    doc_texts: dict[str, str],
    query: str,
    k1: float = 1.5,
    b: float = 0.75,
) -> dict[str, float]:
    """Direct Okapi formula for every document; full scans, no index structures."""
    all_tokens = {d: tokenize(t) for d, t in doc_texts.items()}
    n_docs = len(all_tokens)
    avg_len = sum(len(toks) for toks in all_tokens.values()) / n_docs
    query_tokens = tokenize(query)
    df = {
        term: sum(1 for toks in all_tokens.values() if term in toks)
        for term in set(query_tokens)
    }
    scores = {}
    for doc_id, doc_tokens in all_tokens.items():
        score = 0.0
        for term in query_tokens:
            tf = doc_tokens.count(term)
            if tf == 0:
                continue
            idf = math.log((n_docs - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len(doc_tokens) / avg_len))
        scores[doc_id] = score
    return scores


def brute_bm25_score(
    doc_texts: dict[str, str],
    query: str,
    doc_id: str,
    k1: float = 1.5,
    b: float = 0.75,
) -> float:
    return brute_bm25_all(doc_texts, query, k1, b)[doc_id]


def json_lines_records(text: str):
    """(line_no, object) per non-blank line of a JSON Lines text, by ``json.loads``.

    Lines are split on ``"\n"`` alone. A line that ``json.loads`` refuses,
    or whose value is not an object, raises MalformedRecord with its line
    number and the decoder's message.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, str(exc)) from None
        if not isinstance(obj, dict):
            raise MalformedRecord(line_no, "record must be an object")
        yield line_no, obj

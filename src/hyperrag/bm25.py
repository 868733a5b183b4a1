"""Okapi BM25 over the same corpus, used as the sparse baseline.

Tokenization matches the rest of the package (normalized whitespace
tokens, stopwords kept, no stemming). The IDF uses the +1-inside-log
variant so scores are never negative.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

from .corpus import Corpus
from .errors import UnknownDocId
from .labeling import tokenize

DEFAULT_K1 = 1.5
DEFAULT_B = 0.75


@dataclass
class Bm25Index:
    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    avg_doc_len: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    @property
    def doc_count(self) -> int:
        return len(self.doc_len)

    def idf(self, term: str) -> float:
        n = self.doc_count
        df = len(self.postings.get(term, ()))
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)


def bm25_build(corpus: Corpus, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> Bm25Index:
    if len(corpus) == 0:
        raise ValueError("cannot build BM25 over an empty corpus")
    if not 0.0 <= k1 < math.inf:
        raise ValueError(f"k1 must be a finite number >= 0, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    doc_len: dict[str, int] = {}
    postings: dict[str, list[tuple[str, int]]] = {}
    for doc in corpus:
        tokens = tokenize(doc.text)
        doc_len[doc.id] = len(tokens)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((doc.id, tf))
    for plist in postings.values():
        plist.sort(key=lambda p: p[0])
    avg = sum(doc_len.values()) / len(doc_len)
    return Bm25Index(
        postings=postings,
        doc_len=doc_len,
        avg_doc_len=avg,
        k1=k1,
        b=b,
    )


def _term_score(ix: Bm25Index, idf: float, tf: int, doc_id: str) -> float:
    length_norm = ix.k1 * (1.0 - ix.b + ix.b * ix.doc_len[doc_id] / ix.avg_doc_len)
    return idf * (tf * (ix.k1 + 1.0)) / (tf + length_norm)


def bm25_score(ix: Bm25Index, query_tokens: list[str], doc_id: str) -> float:
    """Okapi score of one document for the given tokens.

    sum over terms of idf * tf*(k1+1) / (tf + k1*(1 - b + b*len/avglen));
    terms absent from the document contribute zero. Each tf is found by
    bisection in the term's doc-id-sorted posting list.
    """
    if doc_id not in ix.doc_len:
        raise UnknownDocId(doc_id)
    score = 0.0
    for term in query_tokens:
        plist = ix.postings.get(term, ())
        at = bisect.bisect_left(plist, (doc_id,))
        if at < len(plist) and plist[at][0] == doc_id:
            score += _term_score(ix, ix.idf(term), plist[at][1], doc_id)
    return score


def bm25_retrieve(ix: Bm25Index, query: str, k: int = 3) -> list[tuple[str, float]]:
    """Top-k (doc_id, score), score descending, doc id ascending on ties.

    Only documents containing at least one query term are scored or
    returned. Scoring runs term at a time over the posting lists, query
    tokens in order with repeats, so each document receives the same
    float additions in the same order as :func:`bm25_score` makes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores: dict[str, float] = {}
    for term in tokenize(query):
        plist = ix.postings.get(term)
        if not plist:
            continue
        idf = ix.idf(term)
        for doc_id, tf in plist:
            scores[doc_id] = scores.get(doc_id, 0.0) + _term_score(ix, idf, tf, doc_id)
    return heapq.nsmallest(k, scores.items(), key=lambda pair: (-pair[1], pair[0]))

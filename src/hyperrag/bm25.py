"""Okapi BM25 over the same corpus, used as the sparse baseline.

Tokenization matches the rest of the package (normalized whitespace
tokens, stopwords kept, no stemming). The IDF uses the +1-inside-log
variant so scores are never negative.

The index uses the label cube's postings layout. ``doc_ids`` is the
sorted tuple of document ids and a document's position in it is its
ordinal, so ordinal order is doc-id order. The term postings are one
:class:`~hyperrag.hypercube.PostingTable`: per-term lengths, int32
ordinals and term frequencies, three arrays for the whole vocabulary. The
parameters are fixed at ``K1`` = 1.5 and ``B`` = 0.75. Each document's
length norm ``K1 * (1 - B + B * len / avglen)`` is computed once, at
build.

A query is scored term at a time into one float64 accumulator with a
slot per document: each query token, in order and with repeats, adds
its term's contribution at its postings' ordinals. Every contribution is
strictly positive (idf > 0 because df <= N, and tf >= 1), so the nonzero
slots are exactly the documents holding at least one query term, the
candidates. Scoring is vectorized but still touches every posting of
every query term, so its cost grows with the postings a query touches:
noise documents that share common words with the query slow BM25, which
is what the noise-scaling criterion measures against the cube.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .errors import UnknownDocId
from .hypercube import PostingTable, _frozen
from .labeling import tokenize

K1 = 1.5
B = 0.75


@dataclass(eq=False)
class Bm25Index:
    """Term postings over doc ordinals, plus one length norm per document.

    ``postings`` is one :class:`~hyperrag.hypercube.PostingTable`, terms in first-seen order.
    ``doc_len[o]`` is the token count of document ``doc_ids[o]``.
    ``avg_doc_len`` and ``norm`` (``K1 * (1 - B + B * doc_len / avg_doc_len)``
    per ordinal) are derived from it once, in ``__post_init__``.
    """

    doc_ids: tuple[str, ...]
    postings: PostingTable
    doc_len: np.ndarray
    avg_doc_len: float = field(init=False)
    norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.avg_doc_len = int(self.doc_len.sum()) / len(self.doc_len)
        if self.avg_doc_len > 0:
            # Elementwise, in the formula's own order: each norm is the float a
            # per-document evaluation gives, so scores stay bit-identical.
            norm = K1 * (1.0 - B + B * self.doc_len / self.avg_doc_len)
        else:
            # Every document is empty, so no posting exists to read a norm.
            norm = np.zeros(len(self.doc_len))
        norm.flags.writeable = False
        self.norm = norm

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def _idf(n: int, df: int) -> float:
    """The +1-inside-log IDF of a term held by ``df`` of ``n`` documents."""
    return math.log((n - df + 0.5) / (df + 0.5) + 1.0)


def bm25_build(corpus: Corpus) -> Bm25Index:
    """Index ``corpus`` for Okapi BM25 at ``K1`` = 1.5 and ``B`` = 0.75; an empty corpus raises ValueError."""
    if len(corpus) == 0:
        raise ValueError("cannot build BM25 over an empty corpus")
    doc_ids = tuple(sorted(doc.id for doc in corpus))
    doc_len = []
    # term -> (ordinals, counts), appended in ordinal order.
    runs: dict[str, tuple[list[int], list[int]]] = {}
    for ordinal, doc_id in enumerate(doc_ids):
        tokens = tokenize(corpus.get(doc_id).text)
        doc_len.append(len(tokens))
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            run = runs.get(term)
            if run is None:
                run = runs[term] = ([], [])
            run[0].append(ordinal)
            run[1].append(tf)
    postings = PostingTable(
        doc_ids,
        list(runs),
        _frozen([len(ordinals) for ordinals, _tfs in runs.values()]),
        _frozen([o for ordinals, _tfs in runs.values() for o in ordinals]),
        _frozen([tf for _ordinals, tfs in runs.values() for tf in tfs]),
    )
    return Bm25Index(doc_ids=doc_ids, postings=postings, doc_len=_frozen(doc_len))


def bm25_score(ix: Bm25Index, query_tokens: list[str], doc_id: str) -> float:
    """Okapi score of one document for the given tokens.

    sum over terms of idf * tf*(K1+1) / (tf + K1*(1 - B + B*len/avglen));
    terms absent from the document contribute zero. Each term's postings
    are read once, giving its df, and its tf is found by binary search
    for the document's ordinal in the term's ordinals.
    """
    ordinal = bisect_left(ix.doc_ids, doc_id)
    if ordinal == len(ix.doc_ids) or ix.doc_ids[ordinal] != doc_id:
        raise UnknownDocId(doc_id)
    norm = float(ix.norm[ordinal])
    score = 0.0
    for term in query_tokens:
        postings = ix.postings.get(term)
        if postings is None:
            continue
        at = int(np.searchsorted(postings.ordinals, ordinal))
        if at < len(postings) and postings.ordinals[at] == ordinal:
            tf = int(postings.counts[at])
            score += _idf(ix.doc_count, len(postings)) * (tf * (K1 + 1.0)) / (tf + norm)
    return score


def bm25_retrieve(ix: Bm25Index, query: str, k: int = 3) -> list[tuple[str, float]]:
    """Top-k (doc_id, score), score descending, doc id ascending on ties.

    Only documents containing at least one query term are scored or
    returned. Scoring runs term at a time into one accumulator, query
    tokens in order with repeats, so each document receives the same
    float additions in the same order as :func:`bm25_score` makes. Each
    query token reads its term's postings once, which give its df too.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = ix.doc_count
    acc = np.zeros(n)
    for term in tokenize(query):
        postings = ix.postings.get(term)
        if postings is None:
            continue
        ordinals, tf = postings.ordinals, postings.counts
        acc[ordinals] += _idf(n, len(ordinals)) * (tf * (K1 + 1.0)) / (tf + ix.norm[ordinals])
    candidates = np.flatnonzero(acc)
    scores = acc[candidates]
    top = candidates[np.lexsort((candidates, -scores))[:k]]
    doc_ids = ix.doc_ids
    return [(doc_ids[o], score) for o, score in zip(top.tolist(), acc[top].tolist())]

"""Query pipeline: decompose, match, score by coverage, rank, explain.

A query is decomposed into dimension-tagged components. Each component
is matched against the cube labels of its dimension — exact key match
first (it is strictly preemptive), otherwise the best semantic neighbor
at or above the similarity threshold, otherwise unmatched. Candidate
documents come only from the posting lists of matched labels (never a
corpus scan), are scored by how many components they cover, and ranked
with full-coverage documents ahead of everything else.

Candidates are scored as arrays of counts over the matched postings;
only the k documents a query returns get per-component evidence, so
every returned document can answer "why was this retrieved" and, for
each component it misses, "why not". A document the query does not
return gets no evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import _as_str, _iter_records, _require, _str_field, _text_field
from .embedding import DEFAULT_TAU, Encoder, check_encoder_and_tau, semantic_neighbors
from .errors import MalformedRecord, MissingKey, UnencodableText
from .hypercube import HypercubeIndex, lookup
from .labeling import Dimension, match_phrases, normalize_label, tokenize

DEFAULT_K = 3

EXACT = "exact"
SEMANTIC = "semantic"
UNMATCHED = "unmatched"

# Function words ignored by the content-word fallback of the built-in
# query decomposer. Deliberately small: a candidate that survives this
# filter still has to match a THEME label, exactly or semantically, in
# the match phase, or retrieve drops it.
STOPWORDS = frozenset(
    """
    a an the and or but if then than that this these those such per also
    of in on at by for from to with without into onto over under between
    about against during before after above below out off up down again
    is are was were be been being am do does did done doing have has had
    having will would shall should can could may might must need dare
    what which who whom whose when where why how much many more most some
    any no not nor only own same so too very just it its they them their
    there here he she we you i me him her us our your my his hers ours
    yours theirs as
    """.split()
)


@dataclass(frozen=True, slots=True, init=False)
class QueryComponent:
    """One dimension-tagged piece of a query.

    ``text`` is the piece as the query or an external decomposition
    spelled it, and ``key`` its :func:`~hyperrag.labeling.normalize_label`
    form, the string matched against the dimension's labels.
    """

    dimension: Dimension
    text: str
    key: str

    def __init__(self, dimension: Dimension, text: str, key: str):
        # Stored through the slots' own setters, as MatchEvidence does: a
        # query builds one instance per candidate, and the generated frozen
        # __init__ goes through object.__setattr__.
        _set_component_dimension(self, dimension)
        _set_component_text(self, text)
        _set_component_key(self, key)


_set_component_dimension, _set_component_text, _set_component_key = (
    QueryComponent.__dict__[f.name].__set__ for f in fields(QueryComponent)
)


@dataclass
class QueryDecomposition:
    """Dimension-tagged components extracted from one query.

    Components are deduplicated by (dimension, key); order is the scan
    order of the first occurrence, ties broken by key then dimension.
    ``component_count`` is the denominator for full coverage once
    :func:`retrieve` has dropped the content-word candidates that match
    no label; straight from :func:`decompose_query` it still counts them.
    """

    query_id: str
    components: list[QueryComponent] = field(default_factory=list)

    @property
    def component_count(self) -> int:
        return len(self.components)


@dataclass(frozen=True, slots=True, init=False)
class MatchEvidence:
    """How one query component relates to one matched label.

    ``sim`` is 1.0 for exact matches and the cosine similarity for
    semantic ones. In per-document evidence, ``doc_count`` is the
    occurrence count of the matched label in that document; components
    the document does not cover appear with kind ``unmatched`` and a
    zero count.
    """

    dimension: Dimension
    component: str
    matched_label: str | None
    kind: str
    sim: float
    doc_count: int = 0

    def __init__(
        self, dimension: Dimension, component: str, matched_label: str | None, kind: str, sim: float, doc_count: int = 0
    ):
        # Each field is stored through its slot's own setter. A query builds
        # one instance per component of each document it returns, and the
        # generated frozen __init__, going through object.__setattr__, takes
        # about 60% longer.
        _set_dimension(self, dimension)
        _set_component(self, component)
        _set_matched_label(self, matched_label)
        _set_kind(self, kind)
        _set_sim(self, sim)
        _set_doc_count(self, doc_count)


_set_dimension, _set_component, _set_matched_label, _set_kind, _set_sim, _set_doc_count = (
    MatchEvidence.__dict__[f.name].__set__ for f in fields(MatchEvidence)
)


@dataclass
class ScoredDoc:
    doc_id: str
    coverage: int
    indicator_score: int
    freq_score: int
    evidence: list[MatchEvidence] = field(default_factory=list)


@dataclass
class PhaseTimings:
    decompose_us: float = 0.0
    match_us: float = 0.0
    score_us: float = 0.0
    total_us: float = 0.0


@dataclass
class RetrievalResult:
    query: str
    decomposition: QueryDecomposition
    matches: list[MatchEvidence]
    ranked: list[ScoredDoc]
    timing: PhaseTimings


class ExternalDecompositions:
    """Components produced offline (e.g. by an LLM prompt), keyed by query.

    File format: one JSON object per line with ``components`` (a list of
    ``{dim, text}``) plus ``id`` and/or ``query`` to address it. Lookup
    tries the query id first, then the normalized query text. A string
    holding a lone surrogate is a MalformedRecord naming its line.
    """

    def __init__(self):
        self._by_id: dict[str, list[tuple[str, str]]] = {}
        self._by_text: dict[str, list[tuple[str, str]]] = {}

    @classmethod
    def load(cls, path: str | Path) -> "ExternalDecompositions":
        out = cls()
        for line_no, obj in _iter_records(path):
            raw = _require(obj, "components", line_no)
            if not isinstance(raw, list) or not all(isinstance(entry, dict) for entry in raw):
                raise MalformedRecord(line_no, "components must be an array of objects")
            comps = [
                (
                    _text_field(_str_field(entry, "dim", line_no), line_no, "dim"),
                    _text_field(_str_field(entry, "text", line_no), line_no, "text"),
                )
                for entry in raw
            ]
            if "id" in obj:
                out._by_id[_text_field(_as_str(obj["id"], line_no, "id"), line_no, "id")] = comps
            if "query" in obj:
                query = _text_field(_as_str(obj["query"], line_no, "query"), line_no, "query")
                out._by_text[normalize_label(query)] = comps
        return out

    def for_query(self, query_id: str, query_text: str) -> list[tuple[str, str]] | None:
        if query_id and query_id in self._by_id:
            return self._by_id[query_id]
        return self._by_text.get(normalize_label(query_text))


def _dedupe(components: Iterable[QueryComponent]) -> list[QueryComponent]:
    """The first component of each (dimension, key), in the order first seen."""
    first: dict[tuple[str, str], QueryComponent] = {}
    for comp in components:
        first.setdefault((comp.dimension, comp.key), comp)
    return list(first.values())


def decompose_query(
    query: str,
    ix: HypercubeIndex,
    external: Sequence[tuple[str, str]] | None = None,
    *,
    query_id: str = "",
) -> QueryDecomposition:
    """Split a query into dimension-tagged components, lexically.

    With ``external`` given, those (dimension, text) pairs are used
    verbatim after normalization — including components no cube label
    will ever match. The built-in path instead scans the query with the
    union of all dimension vocabularies (longest match wins, matches
    tagged with every dimension carrying the phrase) and then adds a
    content-word fallback: leftover non-stopword unigrams and bigrams
    become THEME candidates. Nothing here meets a vector; :func:`retrieve`
    resolves every component once and drops the candidates that match
    no label. The phrase table and the key -> dimensions map it scans
    with are the index's own, derived once per index when it is built
    or loaded.
    """
    if external is not None:
        comps = []
        for dim, text in external:
            key = normalize_label(text)
            if key:
                comps.append(QueryComponent(dimension=dim, text=text, key=key))
        return QueryDecomposition(query_id=query_id, components=_dedupe(comps))

    tokens = tokenize(query)
    ordered: list[tuple[tuple, QueryComponent]] = []
    consumed = [False] * len(tokens)
    for pos, n, key in match_phrases(tokens, ix.phrase_table, ix.phrase_dims):
        for span in range(pos, pos + n):
            consumed[span] = True
        for dim in ix.phrase_dims[key]:
            ordered.append(((pos, key, dim), QueryComponent(dimension=dim, text=key, key=key)))

    # Content-word fallback over the unconsumed remainder.
    runs: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for pos, token in enumerate(tokens):
        if consumed[pos] or token in STOPWORDS:
            if current:
                runs.append(current)
                current = []
        else:
            current.append((pos, token))
    if current:
        runs.append(current)

    for run in runs:
        candidates = run + [(pos, f"{first} {second}") for (pos, first), (_, second) in zip(run, run[1:])]
        for pos, text in candidates:
            key = normalize_label(text)
            if key and key not in STOPWORDS:
                ordered.append(((pos, key, "THEME"), QueryComponent("THEME", text, key)))

    ordered.sort(key=itemgetter(0))
    return QueryDecomposition(query_id=query_id, components=_dedupe(c for _sort_key, c in ordered))


def match_component(
    component: QueryComponent,
    ix: HypercubeIndex,
    encoder: Encoder | None,
    tau: float = DEFAULT_TAU,
) -> MatchEvidence:
    """Resolve one component against its dimension's vocabulary.

    Exact key membership wins outright (sim 1.0). Otherwise the highest
    scoring semantic neighbor at or above tau is taken, ties going to
    the lexicographically smallest label. Components that cannot be
    encoded or match nothing resolve to ``unmatched``.
    """
    if component.key in ix.vocab.get(component.dimension, ()):
        return MatchEvidence(component.dimension, component.key, component.key, EXACT, 1.0)
    if encoder is not None:
        try:
            neighbors = semantic_neighbors(component.key, component.dimension, ix, encoder, tau)
        except (UnencodableText, MissingKey):
            neighbors = []
        if neighbors:
            label, sim = neighbors[0]
            return MatchEvidence(component.dimension, component.key, label, SEMANTIC, sim)
    return MatchEvidence(component.dimension, component.key, None, UNMATCHED, 0.0)


@dataclass(frozen=True, eq=False)
class Scores:
    """Every candidate document of one query, over its postings sorted by candidate.

    Entry ``j`` of ``ordinals``, ``coverage``, ``indicator`` and ``freq``
    is the candidate ``doc_ids[ordinals[j]]``: the number of components
    it covers, how many of those are exact matches, and the sum of its
    counts. Its postings are entries ``offsets[j]`` to ``offsets[j + 1]``
    of ``components`` (the index of the query component each posting
    matched, rising) and ``counts`` (the matched label's occurrence
    count in the document). ``len`` is the candidate count; iteration
    yields the rows ``(doc_id, coverage, indicator, freq, counts)`` as
    Python values, ``counts`` holding one entry per component (0 when
    not covered).
    """

    doc_ids: tuple[str, ...]
    component_count: int
    ordinals: np.ndarray
    coverage: np.ndarray
    indicator: np.ndarray
    freq: np.ndarray
    offsets: np.ndarray
    components: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self) -> Iterator[tuple[str, int, int, int, list[int]]]:
        doc_ids, offsets = self.doc_ids, self.offsets.tolist()
        components, counts = self.components.tolist(), self.counts.tolist()
        for j, (ordinal, coverage, indicator, freq) in enumerate(
            zip(self.ordinals.tolist(), self.coverage.tolist(), self.indicator.tolist(), self.freq.tolist())
        ):
            row = [0] * self.component_count
            for at in range(offsets[j], offsets[j + 1]):
                row[components[at]] = counts[at]
            yield doc_ids[ordinal], coverage, indicator, freq, row


_NO_INTS = np.zeros(0, dtype=np.int32)


def score_documents(matches: Sequence[MatchEvidence], ix: HypercubeIndex) -> Scores:
    """Score every candidate document by component coverage, in one sorted pass.

    Candidates and their counts come from the posting lists of the
    matched labels alone. Their ordinals are concatenated in component
    order and sorted once, stably, so each candidate's postings form one
    run, in doc-id order and, within the run, in component order. A
    candidate's coverage is the length of its run (one posting per
    covered component); its freq and indicator are sums over the run of
    the counts and of the exact-match flags; when every matched
    component is exact, the indicator is the coverage and is not summed
    again. Documents sharing no label with the query are never touched,
    and no array is sized by the corpus. Each component keeps its own
    postings, also when another resolves to the same label. No evidence
    is built here; :func:`rank` builds it for the documents it keeps.
    """
    columns = [i for i, match in enumerate(matches) if match.matched_label is not None]
    postings = [lookup(ix, matches[i].dimension, matches[i].matched_label) for i in columns]
    ordinals = np.concatenate([p.ordinals for p in postings] or [_NO_INTS])
    order = np.argsort(ordinals, kind="stable")
    ordinals = ordinals[order]
    components = np.repeat(np.array(columns, dtype=np.intp), [len(p) for p in postings])[order]
    counts = np.concatenate([p.counts for p in postings] or [_NO_INTS])[order]
    # A run starts at the first posting and wherever the ordinal changes;
    # the last offset closes the last run.
    bounds = np.ones(len(ordinals) + 1, dtype=bool)
    np.not_equal(ordinals[1:], ordinals[:-1], out=bounds[1:-1])
    offsets = bounds.nonzero()[0]
    starts = offsets[:-1]
    coverage = offsets[1:] - starts
    if all(matches[i].kind == EXACT for i in columns):
        # Every posting is an exact match, so each indicator is its coverage.
        indicator = coverage
    else:
        exact = np.array([match.kind == EXACT for match in matches], dtype=bool)
        indicator = np.add.reduceat(exact[components], starts)
    return Scores(
        doc_ids=ix.doc_ids,
        component_count=len(matches),
        ordinals=ordinals[starts],
        coverage=coverage,
        indicator=indicator,
        freq=np.add.reduceat(counts, starts, dtype=np.int64),
        offsets=offsets,
        components=components,
        counts=counts,
    )


def rank(scores: Scores, matches: Sequence[MatchEvidence], k: int = DEFAULT_K) -> list[ScoredDoc]:
    """Keep the top k candidates of :func:`score_documents`.

    Documents covering every one of the ``len(matches)`` components form
    the preferred tier; when none exists, the best partial coverage
    leads. Since no candidate covers more than ``len(matches)``
    components, both cases are one total order: coverage desc, then
    freq desc, then indicator desc, then doc id asc (ordinal order is
    doc-id order). A candidate below the k-th best coverage cannot be
    among the top k, so that coverage, read off the sorted coverages, is
    a cut: one stable ``np.lexsort`` orders only the candidates at or
    above it, and the result equals sorting every candidate and keeping
    k, ties included. Only the kept documents get evidence, one entry
    per component: the match with the document's count when covered, an
    unmatched miss with a zero count otherwise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordinals, coverage, indicator, freq = scores.ordinals, scores.coverage, scores.indicator, scores.freq
    # The cut: the k-th best coverage, the worst one when there are fewer
    # than k candidates, and no value (so nothing is picked) when there are none.
    cut = np.sort(coverage)[-k:][:1]
    picked = (coverage >= cut).nonzero()[0]
    kept = picked[np.lexsort((ordinals[picked], -indicator[picked], -freq[picked], -coverage[picked]))[:k]].tolist()
    doc_ids, offsets, components, counts = scores.doc_ids, scores.offsets, scores.components, scores.counts
    ranked = []
    for j in kept:
        start, end = offsets.item(j), offsets.item(j + 1)
        hits = dict(zip(components[start:end].tolist(), counts[start:end].tolist()))
        evidence = [
            MatchEvidence(match.dimension, match.component, match.matched_label, match.kind, match.sim, hits[i])
            if i in hits
            else MatchEvidence(match.dimension, match.component, None, UNMATCHED, 0.0)
            for i, match in enumerate(matches)
        ]
        ranked.append(ScoredDoc(doc_ids[ordinals.item(j)], coverage.item(j), indicator.item(j), freq.item(j), evidence))
    return ranked


def retrieve(
    query: str,
    ix: HypercubeIndex,
    encoder: Encoder | None = None,
    tau: float = DEFAULT_TAU,
    k: int = DEFAULT_K,
    external: Sequence[tuple[str, str]] | None = None,
    query_id: str = "",
) -> RetrievalResult:
    """Full pipeline for one query; deterministic for fixed inputs.

    The match phase is the only place a component meets the vocabulary
    or the vectors: :func:`match_component` runs once per component. On
    the built-in path (no ``external``) the components that resolve
    ``unmatched`` are dropped, from the matches and from the result's
    decomposition alike. Only content-word candidates can be dropped,
    since a phrase component's key is a label of each of its dimensions.
    tau and the encoder are checked once, up front, so an error for them
    never depends on the query text. Timing covers the decompose / match
    / score phases on a monotonic clock and is the only part of the
    result that varies between calls.
    """
    check_encoder_and_tau(ix, encoder, tau)
    t0 = time.perf_counter_ns()
    decomposition = decompose_query(query, ix, external, query_id=query_id)
    t1 = time.perf_counter_ns()
    matches = [match_component(comp, ix, encoder, tau) for comp in decomposition.components]
    if external is None:
        kept = [i for i, m in enumerate(matches) if m.kind != UNMATCHED]
        components = decomposition.components
        decomposition.components = [components[i] for i in kept]
        matches = [matches[i] for i in kept]
    t2 = time.perf_counter_ns()
    ranked = rank(score_documents(matches, ix), matches, k)
    t3 = time.perf_counter_ns()
    timing = PhaseTimings(
        decompose_us=(t1 - t0) / 1000.0,
        match_us=(t2 - t1) / 1000.0,
        score_us=(t3 - t2) / 1000.0,
        total_us=(t3 - t0) / 1000.0,
    )
    return RetrievalResult(
        query=query, decomposition=decomposition, matches=matches, ranked=ranked, timing=timing
    )


def result_to_dict(result: RetrievalResult) -> dict:
    """JSON-ready view of a result, without ``result.timing``, so equal inputs give equal output."""
    return {
        "query": result.query,
        "components": [
            {"dim": c.dimension, "text": c.text, "key": c.key}
            for c in result.decomposition.components
        ],
        "matches": [
            {
                "dim": m.dimension,
                "component": m.component,
                "matched_label": m.matched_label,
                "kind": m.kind,
                "sim": round(m.sim, 6),
            }
            for m in result.matches
        ],
        "results": [
            {
                "doc_id": doc.doc_id,
                "coverage": doc.coverage,
                "indicator_score": doc.indicator_score,
                "freq_score": doc.freq_score,
                "evidence": [
                    {
                        "dim": ev.dimension,
                        "component": ev.component,
                        "matched_label": ev.matched_label,
                        "kind": ev.kind,
                        "sim": round(ev.sim, 6),
                        "count": ev.doc_count,
                    }
                    for ev in doc.evidence
                ],
            }
            for doc in result.ranked
        ],
    }


def format_result(result: RetrievalResult, explain: bool = False) -> str:
    """Human-readable result block; stable across runs for fixed inputs."""
    lines = []
    if explain:
        lines.append(f"query: {result.query}")
        lines.append("components:")
        for match in result.matches:
            target = match.matched_label if match.matched_label is not None else "-"
            lines.append(
                f"  {match.dimension:<14} {match.component:<28} -> {target:<24} "
                f"{match.kind:<9} sim={match.sim:.4f}"
            )
        lines.append("ranked:")
    for rank_pos, doc in enumerate(result.ranked, start=1):
        lines.append(
            f"{rank_pos}. {doc.doc_id}  coverage={doc.coverage}/"
            f"{result.decomposition.component_count}  freq={doc.freq_score}  "
            f"indicator={doc.indicator_score}"
        )
        if explain:
            for ev in doc.evidence:
                target = ev.matched_label if ev.matched_label is not None else "-"
                lines.append(
                    f"     {ev.dimension:<11} {ev.component:<28} -> {target:<24} "
                    f"{ev.kind:<9} sim={ev.sim:.4f} count={ev.doc_count}"
                )
    return "\n".join(lines)

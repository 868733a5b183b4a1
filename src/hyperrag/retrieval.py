"""Query pipeline: decompose, match, score by coverage, rank, explain.

A query is decomposed into dimension-tagged components. Each component
is matched against the cube labels of its dimension — exact key match
first (it is strictly preemptive), otherwise the best semantic neighbor
at or above the similarity threshold, otherwise unmatched. Candidate
documents come only from the posting lists of matched labels (never a
corpus scan), are scored by how many components they cover, and ranked
with full-coverage documents ahead of everything else.

Every returned document carries per-component evidence, so a result can
always answer "why was this retrieved" — and "why not" for misses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import _as_str, _iter_records, _require
from .embedding import DEFAULT_TAU, Encoder, semantic_neighbors
from .errors import MalformedRecord, MissingKey, UnencodableText
from .hypercube import HypercubeIndex, lookup
from .labeling import Dimension, _phrase_table, match_phrases, normalize_label, tokenize

DEFAULT_K = 3

EXACT = "exact"
SEMANTIC = "semantic"
UNMATCHED = "unmatched"

# Function words ignored by the content-word fallback of the built-in
# query decomposer. Deliberately small: a candidate that survives this
# filter still has to earn a semantic match against the THEME vocabulary
# before it becomes a component.
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


@dataclass(frozen=True)
class QueryComponent:
    dimension: Dimension
    text: str
    key: str


@dataclass
class QueryDecomposition:
    """Dimension-tagged components extracted from one query.

    Components are deduplicated by (dimension, key); order is the scan
    order of the first occurrence, ties broken by key then dimension.
    ``component_count`` is the denominator for full coverage.
    """

    query_id: str
    components: list[QueryComponent] = field(default_factory=list)

    @property
    def component_count(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
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
    tries the query id first, then the normalized query text.
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
                    _as_str(_require(entry, "dim", line_no), line_no, "dim"),
                    _as_str(_require(entry, "text", line_no), line_no, "text"),
                )
                for entry in raw
            ]
            if "id" in obj:
                out._by_id[_as_str(obj["id"], line_no, "id")] = comps
            if "query" in obj:
                out._by_text[normalize_label(_as_str(obj["query"], line_no, "query"))] = comps
        return out

    def for_query(self, query_id: str, query_text: str) -> list[tuple[str, str]] | None:
        if query_id and query_id in self._by_id:
            return self._by_id[query_id]
        return self._by_text.get(normalize_label(query_text))


def _dedupe(components: Iterable[QueryComponent]) -> list[QueryComponent]:
    seen: set[tuple[str, str]] = set()
    out = []
    for comp in components:
        pair = (comp.dimension, comp.key)
        if pair not in seen:
            seen.add(pair)
            out.append(comp)
    return out


def decompose_query(
    query: str,
    ix: HypercubeIndex,
    external: Sequence[tuple[str, str]] | None = None,
    *,
    encoder: Encoder | None = None,
    tau: float = DEFAULT_TAU,
    query_id: str = "",
) -> QueryDecomposition:
    """Split a query into dimension-tagged components.

    With ``external`` given, those (dimension, text) pairs are used
    verbatim after normalization — including components no cube label
    will ever match. The built-in path instead scans the query with the
    union of all dimension vocabularies (longest match wins, matches
    tagged with every dimension carrying the phrase) and then applies a
    content-word fallback: leftover non-stopword unigrams and bigrams
    become THEME candidates, kept only if some THEME label accepts them
    semantically at the given threshold.
    """
    if external is not None:
        comps = []
        for dim, text in external:
            key = normalize_label(text)
            if key:
                comps.append(QueryComponent(dimension=dim, text=text, key=key))
        return QueryDecomposition(query_id=query_id, components=_dedupe(comps))

    tokens = tokenize(query)
    phrase_dims: dict[str, list[Dimension]] = {}
    for dim in ix.dimensions:
        for key in ix.vocab.get(dim, ()):
            phrase_dims.setdefault(key, []).append(dim)

    ordered: list[tuple[tuple, QueryComponent]] = []
    consumed = [False] * len(tokens)
    if phrase_dims:
        table = _phrase_table(phrase_dims)
        for pos, phrase_tokens in match_phrases(tokens, table):
            key = " ".join(phrase_tokens)
            for span in range(pos, pos + len(phrase_tokens)):
                consumed[span] = True
            for dim in sorted(phrase_dims[key]):
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

    candidates: list[tuple[int, str]] = []
    for run in runs:
        for pos, token in run:
            candidates.append((pos, token))
        for (pos, first), (_next_pos, second) in zip(run, run[1:]):
            candidates.append((pos, f"{first} {second}"))

    if encoder is not None:
        theme_vocab = ix.vocab.get("THEME", set())
        for pos, text in candidates:
            key = normalize_label(text)
            if not key or key in STOPWORDS:
                continue
            if key in theme_vocab:
                ordered.append(((pos, key, "THEME"), QueryComponent("THEME", text, key)))
                continue
            try:
                neighbors = semantic_neighbors(key, "THEME", ix, encoder, tau)
            except (UnencodableText, MissingKey):
                continue
            if neighbors:
                ordered.append(((pos, key, "THEME"), QueryComponent("THEME", text, key)))

    ordered.sort(key=lambda item: item[0])
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
        return MatchEvidence(
            dimension=component.dimension,
            component=component.key,
            matched_label=component.key,
            kind=EXACT,
            sim=1.0,
        )
    if encoder is not None:
        try:
            neighbors = semantic_neighbors(component.key, component.dimension, ix, encoder, tau)
        except (UnencodableText, MissingKey):
            neighbors = []
        if neighbors:
            label, sim = neighbors[0]
            return MatchEvidence(
                dimension=component.dimension,
                component=component.key,
                matched_label=label,
                kind=SEMANTIC,
                sim=sim,
            )
    return MatchEvidence(
        dimension=component.dimension,
        component=component.key,
        matched_label=None,
        kind=UNMATCHED,
        sim=0.0,
    )


def score_documents(
    decomposition: QueryDecomposition,
    matches: Sequence[MatchEvidence],
    ix: HypercubeIndex,
) -> list[ScoredDoc]:
    """Score every candidate document by component coverage.

    Candidates are the union of the posting lists of all matched labels;
    documents sharing no label with the query are never touched. For
    each candidate, ``coverage`` counts covered components,
    ``indicator_score`` counts those covered by exact matches, and
    ``freq_score`` sums the matched labels' occurrence counts.
    """
    candidate_ids: set[str] = set()
    for match in matches:
        if match.matched_label is not None:
            for posting in lookup(ix, match.dimension, match.matched_label):
                candidate_ids.add(posting.doc_id)

    scored = []
    for doc_id in sorted(candidate_ids):
        doc_labels = ix.forward[doc_id]
        coverage = 0
        indicator = 0
        freq = 0
        evidence = []
        for match in matches:
            count = 0
            if match.matched_label is not None:
                count = doc_labels.counts.get((match.dimension, match.matched_label), 0)
            if count > 0:
                coverage += 1
                freq += count
                if match.kind == EXACT:
                    indicator += 1
                evidence.append(replace(match, doc_count=count))
            else:
                evidence.append(
                    MatchEvidence(
                        dimension=match.dimension,
                        component=match.component,
                        matched_label=None,
                        kind=UNMATCHED,
                        sim=0.0,
                    )
                )
        scored.append(
            ScoredDoc(
                doc_id=doc_id,
                coverage=coverage,
                indicator_score=indicator,
                freq_score=freq,
                evidence=evidence,
            )
        )
    return scored


def _rank_key(doc: ScoredDoc) -> tuple:
    return (-doc.coverage, -doc.freq_score, -doc.indicator_score, doc.doc_id)


def rank(scored: Sequence[ScoredDoc], component_count: int, k: int = DEFAULT_K) -> list[ScoredDoc]:
    """Order candidates and keep the top k.

    Documents covering every component form the preferred tier; when
    none exists, the best partial coverage leads. Both cases reduce to
    one total order: coverage desc, then freq_score desc, then
    indicator_score desc, then doc id asc.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    full = [doc for doc in scored if doc.coverage == component_count]
    rest = [doc for doc in scored if doc.coverage != component_count]
    ordered = sorted(full, key=_rank_key) + sorted(rest, key=_rank_key)
    return ordered[:k]


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

    Timing covers the decompose / match / score phases on a monotonic
    clock and is the only part of the result that varies between calls.
    """
    t0 = time.perf_counter_ns()
    decomposition = decompose_query(
        query, ix, external, encoder=encoder, tau=tau, query_id=query_id
    )
    t1 = time.perf_counter_ns()
    matches = [match_component(comp, ix, encoder, tau) for comp in decomposition.components]
    t2 = time.perf_counter_ns()
    scored = score_documents(decomposition, matches, ix)
    ranked = rank(scored, decomposition.component_count, k)
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


def result_to_dict(result: RetrievalResult, include_timing: bool = False) -> dict:
    """JSON-ready view of a result (timing excluded by default so output is reproducible)."""
    payload = {
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
    if include_timing:
        payload["timing_us"] = {
            "decompose": result.timing.decompose_us,
            "match": result.timing.match_us,
            "score": result.timing.score_us,
            "total": result.timing.total_us,
        }
    return payload


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

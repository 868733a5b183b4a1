"""Evaluation harness: retrieval accuracy, latency scaling, noise resilience.

Gold-document recall and MRR stand in for answer-quality judging, which
needs an external LLM and is out of scope here. Latency benchmarks use
a monotonic clock, report microseconds, exclude index build and warm-up,
and scale the corpus two ways: by fraction, and by appending off-topic
noise documents that carry none of the in-domain labels.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .bm25 import bm25_build, bm25_retrieve
from .corpus import Corpus, Document, QueryRecord
from .embedding import DEFAULT_TAU, Encoder
from .errors import MissingGold
from .hypercube import HypercubeIndex, build_index
from .labeling import Gazetteer, extract_all, normalize_label
from .retrieval import DEFAULT_K, PhaseTimings, retrieve

# Word pools for synthetic noise documents. Content words are themed
# away from the environmental-hazard domain (industry, pollution,
# logistics); glue words keep the token distribution looking like prose
# so lexical baselines feel the extra corpus mass. Both pools are
# filtered against the caller's gazetteer before use, which guarantees
# noise documents can never produce an in-domain label.
NOISE_CONTENT_WORDS = (
    "smog ozone exhaust particulate chimney refinery solvent benzene asphalt "
    "diesel furnace smelter quarry landfill incinerator sulfur nitrogen oxide "
    "aerosol haze soot monoxide scrubber smokestack plume turbine generator "
    "pipeline compressor valve gasket coolant reactor silo warehouse freight "
    "cargo depot junction viaduct conveyor ledger invoice tariff customs "
    "dockyard gantry pallet forklift manifest spreadsheet audit quota permit "
    "inspection congestion roadway asphalt tunnel girder rivet"
).split()

NOISE_GLUE_WORDS = (
    "the a of in and near over under was were with for at on to as by from "
    "after before while its their this that"
).split()


def inject_noise(
    corpus: Corpus,
    n: int,
    seed: int,
    avoid_phrases: Iterable[str] = (),
) -> Corpus:
    """Append ``n`` synthetic off-topic documents.

    Every token of every phrase in ``avoid_phrases`` is removed from the
    generator's word pools first, so no avoided phrase can occur in the
    output — noise documents are guaranteed label-free under any
    gazetteer whose phrases were passed in. Deterministic for a fixed
    seed.
    """
    if n < 0:
        raise ValueError(f"noise document count must be >= 0, got {n}")
    if n == 0:
        return corpus
    avoid_tokens = {
        token for phrase in avoid_phrases for token in normalize_label(phrase).split()
    }
    content = [w for w in NOISE_CONTENT_WORDS if w not in avoid_tokens]
    glue = [w for w in NOISE_GLUE_WORDS if w not in avoid_tokens]
    if not content:
        raise ValueError("avoid set eliminated the entire noise vocabulary")
    rng = np.random.default_rng(seed)
    documents = list(corpus.documents)
    existing = set(corpus.id_index)
    for i in range(n):
        length = int(rng.integers(60, 181))
        words = []
        for j in range(length):
            pool = glue if (glue and j % 3 == 0) else content
            words.append(pool[int(rng.integers(0, len(pool)))])
        doc_id = f"noise-{i:06d}"
        while doc_id in existing:
            doc_id += "x"
        existing.add(doc_id)
        documents.append(Document(id=doc_id, text=" ".join(words), title=f"off-topic filler {i}"))
    return Corpus(documents)


@dataclass
class QueryEval:
    query_id: str
    retrieved_ids: list[str]
    gold_ids: list[str]
    hit_at: dict[int, bool]
    reciprocal_rank: float
    timing: PhaseTimings


@dataclass
class EvalReport:
    """Per-query rows plus aggregates; aggregates recompute from rows."""

    rows: list[QueryEval]
    recall_at: dict[int, float]
    mrr: float
    mean_us: float
    median_us: float
    p95_us: float
    config: dict

    REPORTED_KS = (1, 3, 5)

    @classmethod
    def from_rows(cls, rows: list[QueryEval], config: dict) -> "EvalReport":
        """The report over ``rows``; zero rows raise ValueError, as there is no recall over zero queries."""
        if not rows:
            raise ValueError("cannot report recall over zero queries")
        recall_at = {
            k: sum(1 for r in rows if r.hit_at.get(k, False)) / len(rows)
            for k in cls.REPORTED_KS
        }
        mrr = sum(r.reciprocal_rank for r in rows) / len(rows)
        totals = np.array([r.timing.total_us for r in rows])
        return cls(
            rows=rows,
            recall_at=recall_at,
            mrr=mrr,
            mean_us=float(totals.mean()),
            median_us=float(np.median(totals)),
            p95_us=float(np.percentile(totals, 95)),
            config=config,
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "aggregates": {
                "recall_at": {str(k): v for k, v in self.recall_at.items()},
                "mrr": self.mrr,
                "mean_us": self.mean_us,
                "median_us": self.median_us,
                "p95_us": self.p95_us,
            },
            "rows": [
                {
                    "query_id": r.query_id,
                    "retrieved_ids": r.retrieved_ids,
                    "gold_ids": r.gold_ids,
                    "hit_at": {str(k): v for k, v in r.hit_at.items()},
                    "reciprocal_rank": r.reciprocal_rank,
                    "latency_us": {
                        "decompose": r.timing.decompose_us,
                        "match": r.timing.match_us,
                        "score": r.timing.score_us,
                        "total": r.timing.total_us,
                    },
                }
                for r in self.rows
            ],
        }


def eval_recall(
    ix: HypercubeIndex,
    encoder: Encoder | None,
    queries: Sequence[QueryRecord],
    k: int = DEFAULT_K,
    tau: float = DEFAULT_TAU,
) -> EvalReport:
    """Recall@{1,3,5} and MRR against gold document ids.

    Every query must carry gold ids and every gold id must exist in the
    index; violations raise MissingGold up front, before any retrieval.
    An empty query list raises ValueError: there is no recall over zero
    queries.
    """
    if not queries:
        raise ValueError("cannot evaluate recall over zero queries")
    for record in queries:
        if not record.gold_doc_ids:
            raise MissingGold(record.id)
        for gold_id in record.gold_doc_ids:
            pos = bisect_left(ix.doc_ids, gold_id)
            if pos == len(ix.doc_ids) or ix.doc_ids[pos] != gold_id:
                raise MissingGold(record.id, f"gold doc {gold_id!r} not in corpus")

    depth = max(k, max(EvalReport.REPORTED_KS))
    rows = []
    for record in queries:
        result = retrieve(record.question, ix, encoder, tau=tau, k=depth, query_id=record.id)
        retrieved = [doc.doc_id for doc in result.ranked]
        gold = set(record.gold_doc_ids or ())
        hit_at = {kk: any(d in gold for d in retrieved[:kk]) for kk in EvalReport.REPORTED_KS}
        rr = 0.0
        for pos, doc_id in enumerate(retrieved, start=1):
            if doc_id in gold:
                rr = 1.0 / pos
                break
        rows.append(
            QueryEval(
                query_id=record.id,
                retrieved_ids=retrieved,
                gold_ids=list(record.gold_doc_ids or ()),
                hit_at=hit_at,
                reciprocal_rank=rr,
                timing=result.timing,
            )
        )
    config = {
        "tau": tau,
        "k": k,
        "encoder": getattr(encoder, "name", None),
        "corpus_size": ix.doc_count,
    }
    return EvalReport.from_rows(rows, config)


@dataclass
class BenchRow:
    engine: str
    fraction: float
    noise: int
    mean_us: float
    median_us: float
    p95_us: float
    samples: list[float] = field(default_factory=list, repr=False)


def _time_pass(run_query: Callable[[str], object], questions: Sequence[str]) -> float:
    """Mean per-query microseconds over one pass of ``questions``."""
    start = time.perf_counter_ns()
    for question in questions:
        run_query(question)
    return (time.perf_counter_ns() - start) / 1000.0 / len(questions)


def bench_latency(
    corpus: Corpus,
    gazetteer: Gazetteer,
    queries: Sequence[QueryRecord | str],
    fractions: Sequence[float] = (0.125, 0.25, 0.5, 1.0),
    noise: int = 0,
    repetitions: int = 5,
    tau: float = DEFAULT_TAU,
    k: int = DEFAULT_K,
    encoder: Encoder | None = None,
) -> list[BenchRow]:
    """Latency table of both engines across corpus fractions, optionally plus a noise row.

    For each fraction a prefix sub-corpus is indexed twice, for the
    label cube and for BM25, giving a ``hypercube`` row and then a
    ``bm25`` row. When ``noise`` > 0 an extra pair of rows at fraction
    1.0 measures the corpus with that many noise documents appended,
    drawn by :func:`inject_noise` with seed 0, so a table is repeatable;
    a negative ``noise`` raises ValueError, as do no queries, a fraction
    outside (0, 1] and ``repetitions`` < 1. Each index takes the
    canonical dimensions, so a gazetteer label of another dimension
    raises UnknownDimension while the configurations are built. Every
    configuration is built and warmed with one untimed pass first; then
    each repetition times one pass of every configuration in turn (one
    sample = mean per-query time of a pass), so a change in host speed
    during the run falls on all rows alike rather than on one block of
    them. Build time is never included.
    """
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fractions must lie in (0, 1], got {fraction}")
    if noise < 0:
        raise ValueError(f"noise document count must be >= 0, got {noise}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    questions = [q.question if isinstance(q, QueryRecord) else q for q in queries]
    if not questions:
        raise ValueError("cannot time zero queries")

    runs: list[tuple[float, int]] = [(fraction, 0) for fraction in fractions]
    if noise > 0:
        runs.append((1.0, noise))

    keys: list[tuple[str, float, int]] = []
    runners: list[Callable[[str], object]] = []
    for fraction, noise_docs in runs:
        n = max(1, round(fraction * len(corpus)))
        sub = Corpus(list(corpus.documents[:n]))
        if noise_docs:
            sub = inject_noise(sub, noise_docs, seed=0, avoid_phrases=gazetteer.all_phrases())
        ix = build_index(sub, extract_all(sub, gazetteer), encoder=encoder)
        bix = bm25_build(sub)

        def run_cube(question: str, _ix=ix) -> object:
            return retrieve(question, _ix, encoder, tau=tau, k=k)

        def run_bm25(question: str, _bix=bix) -> object:
            return bm25_retrieve(_bix, question, k=k)

        keys += [("hypercube", fraction, noise_docs), ("bm25", fraction, noise_docs)]
        runners += [run_cube, run_bm25]

    for run_query in runners:
        _time_pass(run_query, questions)  # warm-up
    samples: list[list[float]] = [[] for _ in runners]
    for _ in range(repetitions):
        for run_query, config_samples in zip(runners, samples):
            config_samples.append(_time_pass(run_query, questions))

    rows = []
    for (engine, fraction, noise_docs), config_samples in zip(keys, samples):
        arr = np.array(config_samples)
        rows.append(
            BenchRow(
                engine=engine,
                fraction=fraction,
                noise=noise_docs,
                mean_us=float(arr.mean()),
                median_us=float(np.median(arr)),
                p95_us=float(np.percentile(arr, 95)),
                samples=config_samples,
            )
        )
    return rows


def format_bench_csv(rows: Sequence[BenchRow]) -> str:
    """The latency table as CSV text: a header line, then one line per row, joined by bare newlines."""
    lines = ["engine,fraction,noise,mean_us,median_us,p95_us"]
    lines += [
        f"{row.engine},{row.fraction},{row.noise},{row.mean_us:.3f},{row.median_us:.3f},{row.p95_us:.3f}"
        for row in rows
    ]
    return "\n".join(lines)

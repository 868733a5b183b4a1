"""In-memory span recorder that wraps the engine's public functions.

Nothing inside the engine is instrumented: :meth:`Tracer.install`
replaces module attributes with timing wrappers, at the place each name
is looked up when it is called, and :meth:`Tracer.uninstall` puts the
originals back. A span is ``(name, start_ns, end_ns, parent, query_id)``;
``parent`` is the index of the enclosing span or -1. Counters are kept
per query id next to the spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.query_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[self.query_id][name] += n

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``on_result(tracer, args, kwargs, result)`` runs after the span
        closes, so its own cost is not charged to the span.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.query_id]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def counting(self, fn: Callable, name: str) -> Callable:
        """A wrapper that only counts calls (for functions called thousands of times)."""

        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self, engine, encoder) -> None:
        """Wrap every layer boundary of the engine package ``engine``.

        Top-level calls are patched on the package, where the benchmark
        looks them up. ``retrieve`` finds its phase functions,
        ``semantic_neighbors`` and ``lookup`` in ``hyperrag.retrieval``'s
        globals; ``build_index`` imports ``build_label_vectors`` from
        ``hyperrag.embedding`` at call time; ``bm25_retrieve`` calls
        ``bm25_score`` from ``hyperrag.bm25``.
        """
        top = {
            "load_corpus": "corpus.load_corpus",
            "load_gazetteer": "labeling.load_gazetteer",
            "extract_all": "labeling.extract_all",
            "load_precomputed_labels": "labeling.load_precomputed_labels",
            "build_index": "hypercube.build_index",
            "save_index": "hypercube.save_index",
            "load_index": "hypercube.load_index",
            "retrieve": "retrieval.retrieve",
            "bm25_build": "bm25.bm25_build",
            "bm25_retrieve": "bm25.bm25_retrieve",
        }
        for attr, name in top.items():
            self.patch(engine, attr, self.wrap(getattr(engine, attr), name))

        retrieval = engine.retrieval
        for attr, name, hook in (
            ("decompose_query", "retrieval.decompose_query", None),
            ("match_component", "retrieval.match_component", None),
            ("score_documents", "retrieval.score_documents", _count_candidates),
            ("rank", "retrieval.rank", None),
            ("semantic_neighbors", "embedding.semantic_neighbors", _count_scan),
            ("lookup", "hypercube.lookup", _count_postings),
        ):
            self.patch(retrieval, attr, self.wrap(getattr(retrieval, attr), name, hook))
        self.patch(
            engine.embedding,
            "build_label_vectors",
            self.wrap(engine.embedding.build_label_vectors, "embedding.build_label_vectors"),
        )
        self.patch(engine.bm25, "bm25_score", self.counting(engine.bm25.bm25_score, "bm25.scored"))
        self.patch(encoder, "encode", self.counting(encoder.encode, "embedding.encode"))

    def self_ns(self) -> list[int]:
        """Self time of each span: its duration minus its direct children's."""
        own = [end - start for _name, start, end, _parent, _qid in self.spans]
        for _name, start, end, parent, _qid in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str | Path) -> None:
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, qid), self_ns in zip(self.spans, own):
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                         "query_id": qid, "self_ns": self_ns}
                    )
                )
                fh.write("\n")


def _count_candidates(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("retrieval.candidates", len(result))


def _count_postings(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("hypercube.postings_touched", len(result))


def _count_scan(tracer: Tracer, args, kwargs, result) -> None:
    _component, dim, ix, encoder, _tau = args
    baked = ix.label_vectors
    if baked is not None and baked.encoder_name == encoder.name and baked.dim == encoder.dim:
        rows = len(baked.by_dimension.get(dim, ((), None))[0])
    else:
        rows = len(ix.vocab.get(dim, ()))
    tracer.count("embedding.scan_calls")
    tracer.count("embedding.rows_scanned", rows)

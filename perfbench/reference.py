"""Reference results for the output check, built from the generator's truth.

The reference re-derives what ``retrieve`` must return from the label
assignment the generator planted (``truth.jsonl``), never from the
engine's index or its retrieval module:

* decomposition: longest-match phrase scan over the union vocabulary,
  then leftover unigrams and bigrams kept as THEME components when they
  are THEME keys or reach tau against the THEME vocabulary;
* matching: exact by key membership, otherwise a numpy argmax over the
  benchmark's own encoded vocabulary (rows in sorted key order, so ties
  go to the smallest key), kept when it reaches tau;
* scoring and ranking: coverage, exact-match indicator and frequency
  over the union of matched postings, ordered by coverage, frequency,
  indicator (all descending), then doc id.

Text normalization (``tokenize``, ``normalize_label``), the stopword list
and the encoder are the engine's public primitives and are used as given.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXACT, SEMANTIC, UNMATCHED = "exact", "semantic", "unmatched"


def load_truth(path: str | Path) -> dict[str, dict[tuple[str, str], int]]:
    truth: dict[str, dict[tuple[str, str], int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            truth[rec["doc_id"]] = {(dim, key): count for dim, key, count in rec["labels"]}
    return truth


class Reference:
    def __init__(self, truth, engine, encoder, tau: float, k: int):
        self.engine = engine
        self.encoder = encoder
        self.tau = tau
        self.k = k
        self.postings: dict[tuple[str, str], dict[str, int]] = {}
        for doc_id, labels in truth.items():
            for pair, count in labels.items():
                self.postings.setdefault(pair, {})[doc_id] = count
        self.vocab: dict[str, set[str]] = {}
        for dim, key in self.postings:
            self.vocab.setdefault(dim, set()).add(key)
        self.phrase_dims: dict[str, list[str]] = {}
        for dim in sorted(self.vocab):
            for key in self.vocab[dim]:
                self.phrase_dims.setdefault(key, []).append(dim)
        self.max_phrase = max((len(key.split()) for key in self.phrase_dims), default=0)
        self._vectors: dict[str, tuple[list[str], np.ndarray]] = {}
        self.stopwords = engine.retrieval.STOPWORDS

    def vectors(self, dim: str) -> tuple[list[str], np.ndarray]:
        if dim not in self._vectors:
            keys, rows = [], []
            for key in sorted(self.vocab.get(dim, ())):
                try:
                    rows.append(self.encoder.encode(key))
                except self.engine.HyperRagError:
                    continue
                keys.append(key)
            matrix = np.vstack(rows) if rows else np.zeros((0, self.encoder.dim))
            self._vectors[dim] = (keys, matrix)
        return self._vectors[dim]

    def nearest(self, text: str, dim: str) -> tuple[str, float] | None:
        """Best label of ``dim`` for ``text`` when it reaches tau, else None."""
        keys, matrix = self.vectors(dim)
        if not keys:
            return None
        try:
            vec = self.encoder.encode(text)
        except self.engine.HyperRagError:
            return None
        sims = np.clip(matrix @ vec, -1.0, 1.0)
        best = int(np.argmax(sims))
        return (keys[best], float(sims[best])) if sims[best] >= self.tau else None

    def decompose(self, question: str, external) -> list[tuple[str, str, str]]:
        """Components as (dim, text, key), deduplicated by (dim, key)."""
        normalize = self.engine.normalize_label
        if external is not None:
            comps = [(dim, text, normalize(text)) for dim, text in external]
            return _dedupe(c for c in comps if c[2])
        tokens = self.engine.tokenize(question)
        ordered: list[tuple[tuple, tuple[str, str, str]]] = []
        consumed = [False] * len(tokens)
        pos = 0
        while pos < len(tokens):
            for length in range(min(self.max_phrase, len(tokens) - pos), 0, -1):
                key = " ".join(tokens[pos : pos + length])
                if key in self.phrase_dims:
                    for dim in self.phrase_dims[key]:
                        ordered.append(((pos, key, dim), (dim, key, key)))
                    consumed[pos : pos + length] = [True] * length
                    pos += length
                    break
            else:
                pos += 1
        runs, run = [], []
        for pos, token in enumerate(tokens):
            if consumed[pos] or token in self.stopwords:
                if run:
                    runs.append(run)
                    run = []
            else:
                run.append((pos, token))
        if run:
            runs.append(run)
        theme = self.vocab.get("THEME", set())
        for run in runs:
            candidates = list(run) + [(p, f"{a} {b}") for (p, a), (_q, b) in zip(run, run[1:])]
            for pos, text in candidates:
                key = normalize(text)
                if not key or key in self.stopwords:
                    continue
                if key in theme or self.nearest(key, "THEME") is not None:
                    ordered.append(((pos, key, "THEME"), ("THEME", text, key)))
        ordered.sort(key=lambda item: item[0])
        return _dedupe(comp for _sort_key, comp in ordered)

    def match(self, dim: str, key: str) -> tuple[str | None, str]:
        if key in self.vocab.get(dim, ()):
            return key, EXACT
        hit = self.nearest(key, dim)
        return (hit[0], SEMANTIC) if hit else (None, UNMATCHED)

    def expected(self, question: str, external=None) -> dict:
        """The fields of ``result_to_dict`` the check compares."""
        comps = self.decompose(question, external)
        matches = [(dim, key, *self.match(dim, key)) for dim, _text, key in comps]
        candidates: set[str] = set()
        for dim, _key, label, _kind in matches:
            if label is not None:
                candidates.update(self.postings[(dim, label)])
        scored = []
        for doc_id in candidates:
            coverage = indicator = freq = 0
            evidence = []
            for dim, key, label, kind in matches:
                count = self.postings[(dim, label)].get(doc_id, 0) if label is not None else 0
                if count:
                    coverage += 1
                    freq += count
                    indicator += kind == EXACT
                    evidence.append([dim, key, label, kind, count])
                else:
                    evidence.append([dim, key, None, UNMATCHED, 0])
            scored.append((-coverage, -freq, -indicator, doc_id, evidence))
        scored.sort(key=lambda row: row[:4])
        return {
            "components": [[dim, key] for dim, _text, key in comps],
            "matches": [list(m) for m in matches],
            "results": [[doc_id, -cov, -ind, -fr, ev] for cov, fr, ind, doc_id, ev in scored[: self.k]],
        }


def observed(result: dict) -> dict:
    """The compared fields of one ``result_to_dict`` output, shaped like :meth:`Reference.expected`."""
    return {
        "components": [[c["dim"], c["key"]] for c in result["components"]],
        "matches": [[m["dim"], m["component"], m["matched_label"], m["kind"]] for m in result["matches"]],
        "results": [
            [
                doc["doc_id"],
                doc["coverage"],
                doc["indicator_score"],
                doc["freq_score"],
                [[e["dim"], e["component"], e["matched_label"], e["kind"], e["count"]] for e in doc["evidence"]],
            ]
            for doc in result["results"]
        ],
    }


def _dedupe(components) -> list[tuple[str, str, str]]:
    seen: set[tuple[str, str]] = set()
    out = []
    for dim, text, key in components:
        if (dim, key) not in seen:
            seen.add((dim, key))
            out.append((dim, text, key))
    return out

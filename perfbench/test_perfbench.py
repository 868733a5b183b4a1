"""Self-tests of the benchmark: generator, output check, container walker, tracer.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import copy
import os
from dataclasses import replace
from pathlib import Path

import pytest

import run
from container import ContainerError, section_sizes
from reference import observed
from tracer import Tracer
from workloads import generate

h = run.import_engine()


def _read_all(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["ingest_noisy", "postings_20k"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    generate(name, 7, tmp_path / "a")
    generate(name, 7, tmp_path / "b")
    generate(name, 8, tmp_path / "c")
    first, again, other = (_read_all(tmp_path / d) for d in "abc")
    assert first == again
    assert first.keys() == other.keys()
    for fname in ("corpus.jsonl", "questions.jsonl", "truth.jsonl"):
        assert first[fname] != other[fname]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("ingest")
    w = run.Workload(h, "ingest_noisy", 3, work)
    _corpus, labels, ix = w.setup()
    return w, labels, ix


def test_reference_agrees_with_engine(pipeline):
    w, labels, ix = pipeline
    assert w.check_labels(labels, ix) == []
    verdict = w.check_results([(i, w.query(ix, i)) for i in range(20)])
    assert verdict["problems"] == []
    assert verdict["failed"] == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: setattr(r.ranked[0], "coverage", r.ranked[0].coverage + 1),
        lambda r: setattr(r.ranked[0], "doc_id", "noise-000000"),
        lambda r: r.ranked.reverse() if len(r.ranked) > 1 else r.ranked.clear(),
        lambda r: r.matches.__setitem__(0, replace(r.matches[0], matched_label=None, kind="unmatched")),
    ],
    ids=["coverage", "doc_id", "order", "match"],
)
def test_check_flags_a_corrupted_result(pipeline, corrupt):
    w, _labels, ix = pipeline
    good = w.query(ix, 0)
    assert good.ranked and good.matches
    bad = copy.deepcopy(good)
    corrupt(bad)
    assert observed(h.result_to_dict(bad)) != observed(h.result_to_dict(good))
    verdict = w.check_results([(0, bad)])
    assert verdict["failed"] == 1
    assert verdict["problems"]


def test_check_flags_a_wrong_label_assignment(pipeline):
    w, labels, ix = pipeline
    doc_id = next(d for d, doc in labels.items() if doc.counts)
    bad = copy.deepcopy(labels[doc_id])
    pair = next(iter(bad.counts))
    bad.counts[pair] += 1
    assert w.check_labels({**labels, doc_id: bad}, ix)


def test_check_counts_raised_queries_as_failed(pipeline):
    w, _labels, ix = pipeline
    verdict = w.check_results([(0, w.query(ix, 0)), (1, RuntimeError("boom"))])
    assert verdict["failed"] == 1


def test_section_walker_sums_to_file_size(pipeline, tmp_path):
    _w, _labels, ix = pipeline
    path = tmp_path / "index.hrix"
    h.save_index(ix, path)
    sizes = section_sizes(path)
    assert sum(sizes.values()) == os.path.getsize(path)
    assert all(sizes[part] > 0 for part in ("inverted", "forward", "vectors"))

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError):
        section_sizes(path)


def test_tracer_records_nested_spans_and_restores_engine(pipeline):
    w, _labels, ix = pipeline
    originals = (h.retrieve, h.retrieval.lookup, h.embedding.build_label_vectors, h.bm25.bm25_score)
    tracer = Tracer()
    tracer.install(h, w.encoder)
    try:
        tracer.query_id = "q0"
        w.query(ix, 0)
    finally:
        tracer.uninstall()
    assert (h.retrieve, h.retrieval.lookup, h.embedding.build_label_vectors, h.bm25.bm25_score) == originals
    assert "encode" not in vars(w.encoder)

    names = [span[0] for span in tracer.spans]
    assert names[0] == "retrieval.retrieve"
    assert {"retrieval.decompose_query", "retrieval.score_documents", "hypercube.lookup"} <= set(names)
    own = tracer.self_ns()
    root_duration = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == root_duration
    assert all(ns >= 0 for ns in own)

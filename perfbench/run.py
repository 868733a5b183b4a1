"""Benchmark runner: one workload, one seed, one process, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload postings_20k --seed 1 --seconds 30 --trace 0

The runner drives the engine in ``src/`` the way a user does: the
workload's inputs are generated into files (in a child process, so its
memory is not charged to this one), then corpus and labels are loaded,
the index is built with label vectors, saved, loaded, and queried by one
client in a closed loop (no threads; each query waits for the last).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs the
same pipeline once with every layer boundary wrapped by the span
recorder in ``tracer.py`` and reports the per-layer metrics; spans are
written to ``.bench_out/``. Both modes check query results against the
reference in ``reference.py`` outside the timed region (every result of
a loop's first pass, every raised query, and in the traced run every
pass) and print a sha256 over the ``result_to_dict`` outputs. The last
line of standard output is the JSON result. ``run_all.py`` runs every
workload both ways.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from container import section_sizes
from hostprobe import probe_items, probe_seconds, scale
from reference import Reference, load_truth, observed
from tracer import Tracer
from workloads import WORKLOADS

TAU = 0.5
K = 3
EMBED_DIM = 256
# The end-to-end run sets up this many times and reports the median
# set-up. After each set-up it runs cycles of save, load, a pass over
# every question and a BM25 pass, for a third of --seconds, so that
# every operation is timed many times, spread over the whole run. The
# shared hosts this runs on switch between a fast and a slow phase (up
# to 1.9x apart) every few seconds, and for minutes at a time are mostly
# in one or the other. A median follows that share; the best of many
# spaced calls does not. So save_s and load_s are the fastest call, and
# each question's latency (retrieve or BM25) is its fastest call, over
# which p50 and p90 are taken. Each time, setup_s included, is then
# scaled to a nominal host speed by the host probe (hostprobe.py), timed
# three times in every cycle; the unscaled times are printed before the
# result.
ROUNDS = 3
GENERATE_TIMEOUT_S = 120


def import_engine():
    """Import ``hyperrag`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import hyperrag
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hyperrag from {SRC}: {exc}")
    if Path(hyperrag.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: hyperrag imported from {hyperrag.__file__}, not {SRC}")
    return hyperrag


def timed(fn, samples: list[float]):
    """Call ``fn``, append its time in seconds to ``samples``, return its result."""
    t0 = time.perf_counter()
    result = fn()
    samples.append(time.perf_counter() - t0)
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Workload:
    """One generated workload: its input files and the pipeline over them."""

    def __init__(self, engine, name: str, seed: int, work: Path):
        self.h = engine
        self.params = WORKLOADS[name]
        self.dir = work
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
             "--out", str(work)],
            check=True,
            timeout=GENERATE_TIMEOUT_S,
        )
        self.encoder = engine.TrigramEncoder(EMBED_DIM)
        self.questions = engine.load_queries(work / "questions.jsonl")
        external = None
        if self.params["decomposer"] == "external":
            external = engine.ExternalDecompositions.load(work / "decompositions.jsonl")
        self.external = [
            external.for_query(q.id, q.question) if external is not None else None
            for q in self.questions
        ]

    def setup(self):
        """Input files on disk to an in-memory index with label vectors."""
        h = self.h
        corpus = h.load_corpus(self.dir / "corpus.jsonl")
        if self.params["label_source"] == "gazetteer":
            labels = h.extract_all(corpus, h.load_gazetteer(self.dir / "gazetteer.jsonl"))
        else:
            labels = h.load_precomputed_labels(self.dir / "labels.jsonl", corpus)
        ix = h.build_index(corpus, labels, encoder=self.encoder)
        return corpus, labels, ix

    def query(self, ix, i: int):
        qi = i % len(self.questions)
        q = self.questions[qi]
        return self.h.retrieve(q.question, ix, self.encoder, TAU, K, external=self.external[qi], query_id=q.id)

    def query_pass(self, ix, tracer: Tracer | None = None) -> tuple[list[float], list]:
        """One closed-loop pass of retrieve calls over every question.

        Question 0 is asked once first, untimed, to warm a freshly loaded
        index. Returns each question's latency in question order, and the
        results as (question index, result or exception) for the check.
        """
        if tracer is not None:
            tracer.query_id = "warmup"
        try:
            self.query(ix, 0)
        except Exception:  # the timed pass counts it
            pass
        latencies, results = [], []
        for i in range(len(self.questions)):
            if tracer is not None:
                tracer.query_id = f"q{i}"
            t0 = time.perf_counter()
            try:
                result = self.query(ix, i)
            except Exception as exc:  # a raising query is counted as failed
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append((i, result))
        return latencies, results

    def loop(self, ix, seconds: float, on_gc=None, tracer: Tracer | None = None) -> dict:
        """Passes over the questions until ``seconds`` have passed, at least one."""
        passes, results = [], []
        gc.collect()
        if on_gc is not None:
            gc.callbacks.append(on_gc)
        try:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                latencies, got = self.query_pass(ix, tracer)
                passes.append(latencies)
                results += got
            elapsed = time.perf_counter() - start
        finally:
            if on_gc is not None:
                gc.callbacks.remove(on_gc)
        return {"passes": passes, "results": results, "elapsed": elapsed}

    def bm25_pass(self, index, tracer: Tracer | None = None) -> list[float]:
        """Time ``bm25_retrieve`` on the first ``bm25_queries`` questions, in question order."""
        latencies = []
        for i in range(self.params["bm25_queries"]):
            if tracer is not None:
                tracer.query_id = f"bm25-{i}"
            t0 = time.perf_counter()
            self.h.bm25_retrieve(index, self.questions[i].question, K)
            latencies.append(time.perf_counter() - t0)
        return latencies

    def check_labels(self, labels, ix) -> list[str]:
        """The set-up's label assignment and key count against the generated truth.

        The truth is read per check and not kept, so the timed loop runs in a
        heap holding only the loaded index.
        """
        truth = load_truth(self.dir / "truth.jsonl")
        problems = []
        got = {doc_id: dict(doc.counts) for doc_id, doc in labels.items() if doc.counts}
        if got != truth:
            problems.append("label assignment differs from the generated truth")
        keys = {pair for pairs in truth.values() for pair in pairs}
        if ix.label_key_count() != len(keys):
            problems.append(f"index holds {ix.label_key_count()} label keys, truth {len(keys)}")
        return problems

    def check_results(self, results: list[tuple[int, object]]) -> dict:
        """Compare every result with the reference; repeats must match their first run."""
        h = self.h
        ref = Reference(load_truth(self.dir / "truth.jsonl"), h, self.encoder, TAU, K)
        n = len(self.questions)
        ok: list[bool] = [False] * n
        first: list[str | None] = [None] * n
        problems = []
        failed = hits = 0
        for qi, result in results:
            if isinstance(result, Exception):
                failed += 1
                continue
            payload = h.result_to_dict(result)
            text = json.dumps(payload, sort_keys=True)
            if first[qi] is None:
                first[qi] = text
                ok[qi] = observed(payload) == ref.expected(self.questions[qi].question, self.external[qi])
                if not ok[qi]:
                    problems.append(f"{self.questions[qi].id}: result differs from the reference")
                hits += self.questions[qi].gold_doc_ids[0] in [d["doc_id"] for d in payload["results"]]
            if text != first[qi] or not ok[qi]:
                failed += 1
        ran = [t for t in first if t is not None]
        return {
            "failed": failed,
            "problems": problems,
            "sha256": hashlib.sha256("\n".join(ran).encode("utf-8")).hexdigest(),
            "recall_at_3": hits / max(len(ran), 1),
        }


def best_per_item(passes: list[list[float]]) -> list[float]:
    """Per question, the smallest of its times over ``passes`` (lists in question order)."""
    return [min(times) for times in zip(*passes)]


def run_e2e(w: Workload, seconds: float, index_path: Path) -> tuple[dict, dict]:
    h = w.h
    setup_s, setup_scaled, save_s, load_s, probe_s = [], [], [], [], []
    passes, bm25_passes = [], []
    # Every result of a round's first pass is checked; later passes keep
    # only raised queries, so memory does not grow with the pass count.
    checked, attempted = [], 0
    for rnd in range(ROUNDS):
        gc.collect()
        around = [probe_items()]
        corpus, labels, ix = timed(w.setup, setup_s)
        around.append(probe_items())
        probe_s += around
        setup_scaled.append(setup_s[-1] * scale(probe_seconds(around)))
        if rnd == 0:
            problems = w.check_labels(labels, ix)
        del labels
        bm25 = h.bm25_build(corpus)
        del corpus
        start = time.perf_counter()
        first = True
        while first or time.perf_counter() - start < seconds / ROUNDS:
            timed(lambda: h.save_index(ix, index_path), save_s)
            probe_s.append(probe_items())
            # A querying process holds only the loaded index (and, here, BM25's).
            del ix
            gc.collect()
            ix = timed(lambda: h.load_index(index_path), load_s)
            probe_s.append(probe_items())
            latencies, results = w.query_pass(ix)
            passes.append(latencies)
            attempted += len(results)
            checked += results if first else [r for r in results if isinstance(r[1], Exception)]
            bm25_passes.append(w.bm25_pass(bm25))
            probe_s.append(probe_items())
            first = False
        del ix, bm25
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = w.check_results(checked)
    verdict["problems"] = problems + verdict["problems"]
    verdict["attempted"] = attempted
    verdict["samples"] = attempted
    best_ms = [s * 1000 for s in best_per_item(passes)]
    raw = {
        "setup_s": statistics.median(setup_s),
        "save_s": min(save_s),
        "load_s": min(load_s),
        "query_p50_ms": statistics.median(best_ms),
        "query_p90_ms": percentile(best_ms, 90),
        "bm25_query_p50_ms": statistics.median(best_per_item(bm25_passes)) * 1000,
    }
    factor = scale(probe_seconds(probe_s))
    print(f"probe_s {probe_seconds(probe_s):.6f} scale {factor:.4f} unscaled "
          + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "save_s": (raw["save_s"] * factor, "s"),
        "load_s": (raw["load_s"] * factor, "s"),
        "index_bytes": (os.path.getsize(index_path), "B"),
        "query_p50_ms": (raw["query_p50_ms"] * factor, "ms"),
        "query_p90_ms": (raw["query_p90_ms"] * factor, "ms"),
        "recall_at_3": (verdict["recall_at_3"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "bm25_query_p50_ms": (raw["bm25_query_p50_ms"] * factor, "ms"),
    }
    return metrics, verdict


class GcMeter:
    """gc.callbacks hook: generation-2 collections and total pause time."""

    def __init__(self):
        self.gen2 = 0
        self.pause_ns = 0
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
            self.gen2 += info["generation"] == 2
        else:
            self.pause_ns += time.perf_counter_ns() - self._start


def run_traced(w: Workload, seconds: float, index_path: Path, spans_path: Path) -> tuple[dict, dict]:
    h = w.h
    probe = probe_seconds([probe_items() for _ in range(3)])
    tracer = Tracer()
    tracer.install(h, w.encoder)
    try:
        tracer.query_id = "setup"
        corpus, labels, ix = w.setup()
        problems = w.check_labels(labels, ix)
        del labels
        h.save_index(ix, index_path)
        del ix
        tracer.query_id = "bm25-build"
        bm25_latencies = w.bm25_pass(h.bm25_build(corpus), tracer)
        del corpus
        gc.collect()
        tracer.query_id = "load"
        ix = h.load_index(index_path)
    finally:
        tracer.uninstall()
    sizes = section_sizes(index_path)

    t0 = time.perf_counter()
    first = w.query(ix, 0)
    first_query_ms = (time.perf_counter() - t0) * 1000

    # Untraced half: phase timings from result.timing, GC activity, qps.
    meter = GcMeter()
    plain = w.loop(ix, seconds / 2, on_gc=meter)
    plain_qps = len(plain["results"]) / plain["elapsed"]
    tracer.install(h, w.encoder)
    try:
        traced = w.loop(ix, seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_qps = len(traced["results"]) / traced["elapsed"]
    tracer.write(spans_path)

    verdict = w.check_results([(0, first)] + plain["results"] + traced["results"])
    verdict["problems"] = problems + verdict["problems"]
    verdict["attempted"] = 1 + len(plain["results"]) + len(traced["results"])
    verdict["samples"] = len(plain["results"])

    own = tracer.self_ns()
    setup_self: dict[str, float] = {}
    decompose_self_ms: list[float] = []
    scan_ns = 0
    for (name, start, end, _parent, qid), self_ns in zip(tracer.spans, own):
        if not qid.startswith("q"):
            setup_self[name] = setup_self.get(name, 0.0) + self_ns / 1e9
        elif name == "retrieval.decompose_query":
            decompose_self_ms.append(self_ns / 1e6)
        elif name == "embedding.semantic_neighbors":
            scan_ns += end - start
    executed = len(traced["results"])

    def total(counter: str, prefix: str = "q") -> float:
        return sum(c.get(counter, 0.0) for qid, c in tracer.counters.items() if qid.startswith(prefix))

    plain_ok = [r for _qi, r in plain["results"] if not isinstance(r, Exception)]
    kinds = {"exact": 0, "semantic": 0, "unmatched": 0}
    for r in plain_ok:
        for m in r.matches:
            kinds[m.kind] += 1
    n_ok = max(len(plain_ok), 1)
    phase_ms = {
        phase: [getattr(r.timing, f"{phase}_us") / 1000 for r in plain_ok] for phase in ("decompose", "match", "score")
    }
    metrics = {
        "retrieval.decompose_ms_p50": (statistics.median(phase_ms["decompose"]), "ms"),
        "retrieval.decompose_ms_p90": (percentile(phase_ms["decompose"], 90), "ms"),
        "retrieval.decompose_self_ms": (statistics.median(decompose_self_ms), "ms"),
        "retrieval.match_ms_p50": (statistics.median(phase_ms["match"]), "ms"),
        "retrieval.score_ms_p50": (statistics.median(phase_ms["score"]), "ms"),
        "retrieval.first_query_ms": (first_query_ms, "ms"),
        "retrieval.candidates": (total("retrieval.candidates") / executed, "count/query"),
        "retrieval.components_exact": (kinds["exact"] / n_ok, "count/query"),
        "retrieval.components_semantic": (kinds["semantic"] / n_ok, "count/query"),
        "retrieval.components_unmatched": (kinds["unmatched"] / n_ok, "count/query"),
        "runtime.gc_gen2": (meter.gen2 / len(plain["results"]), "1/query"),
        "runtime.gc_pause_ms": (meter.pause_ns / 1e6 / len(plain["results"]), "ms/query"),
        "embedding.scan_calls": (total("embedding.scan_calls") / executed, "count/query"),
        "embedding.rows_scanned": (total("embedding.rows_scanned") / executed, "count/query"),
        "embedding.encode_calls": (total("embedding.encode") / executed, "count/query"),
        "embedding.scan_ms": (scan_ns / 1e6 / executed, "ms/query"),
        "hypercube.postings_touched": (total("hypercube.postings_touched") / executed, "count/query"),
        "hypercube.bytes.header": (sizes["header"], "B"),
        "hypercube.bytes.inverted": (sizes["inverted"], "B"),
        "hypercube.bytes.forward": (sizes["forward"], "B"),
        "hypercube.bytes.vectors": (sizes["vectors"], "B"),
        # The label stage: extract_all on gazetteer workloads, else load_precomputed_labels.
        "labeling.labels_s": (
            setup_self.get("labeling.extract_all", 0.0) + setup_self.get("labeling.load_precomputed_labels", 0.0),
            "s"),
        "corpus.load_s": (setup_self.get("corpus.load_corpus", 0.0), "s"),
        "hypercube.build_s": (setup_self.get("hypercube.build_index", 0.0), "s"),
        "embedding.build_vectors_s": (setup_self.get("embedding.build_label_vectors", 0.0), "s"),
        "bm25.build_s": (setup_self.get("bm25.bm25_build", 0.0), "s"),
        "bm25.candidates": (total("bm25.scored", "bm25-") / len(bm25_latencies), "count/query"),
        "retrieval.qps": (plain_qps, "1/s"),
        "host.probe_s": (probe, "s"),
        "trace.overhead_pct": ((1 - traced_qps / plain_qps) * 100, "%"),
    }
    return metrics, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    engine = import_engine()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = ROOT / ".bench_work" / tag
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    try:
        w = Workload(engine, args.workload, args.seed, work)
        index_path = work / "index.hrix"
        if args.trace:
            metrics, verdict = run_traced(w, args.seconds, index_path, out / f"spans-{tag}.jsonl")
        else:
            metrics, verdict = run_e2e(w, args.seconds, index_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in verdict["problems"][:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"sha256 {args.workload} seed={args.seed} {verdict['sha256']}")
    print(f"samples {verdict['samples']} attempted {verdict['attempted']} failed {verdict['failed']} "
          f"failed_ratio {verdict['failed'] / verdict['attempted']:.4f}")
    result = {
        "correct": not verdict["problems"] and verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host probe: a fixed computation timed next to the engine's, to scale times.

The shared hosts this benchmark runs on change speed for minutes at a
time, by up to 1.9x, as other tenants come and go; the fastest of many
calls in a run (see run.py) still moved by 20% to 50% between such
phases. The probe is slowed by the same phases, though memory-heavy
engine calls (save, load, BM25) are slowed more than it is. The runner
times it three times in every cycle and reports each engine time as
``raw * NOMINAL_S / probe``, where ``raw`` and ``probe`` are each made
of the fastest calls seen in the run: the time the operation takes on a host where
the probe takes ``NOMINAL_S``. A change to the engine moves ``raw`` and
leaves the probe alone.

The probe is the benchmark's own code, not the engine's: it scores
candidate documents drawn from term postings with dict lookups (like
retrieval and BM25 scoring) and makes a JSON round trip of about 1 MB
(like save and load). It runs with the garbage collector off, so the
engine's heap and GC settings do not reach it.
"""

from __future__ import annotations

import gc
import json
import random
import time

# Probe time on the 2-vCPU host the benchmark was built on, in its fast phase.
NOMINAL_S = 0.050

_rng = random.Random(0)
_TERMS = [f"w{i}" for i in range(400)]
_DOCS = {f"d{i:06d}": {_rng.choice(_TERMS): _rng.randint(1, 3) for _ in range(6)} for i in range(20_000)}
_POSTINGS: dict[str, list[str]] = {}
for _doc, _tf in _DOCS.items():
    for _term in _tf:
        _POSTINGS.setdefault(_term, []).append(_doc)
_BLOB = {doc: {"labels": [[term, count] for term, count in tf.items()]} for doc, tf in list(_DOCS.items())[:8_000]}


_QUERIES = [_TERMS[q * 7 : q * 7 + 3] for q in range(10)]
_CHUNKS = [dict(list(_BLOB.items())[i : i + 800]) for i in range(0, len(_BLOB), 800)]


def _score(terms: list[str]) -> float:
    candidates = set()
    for term in terms:
        candidates.update(_POSTINGS[term])
    scored = [(doc, sum(_DOCS[doc].get(t, 0) * 1.5 / (1 + _DOCS[doc].get(t, 0)) for t in terms)) for doc in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[0][1]


def _round_trip(chunk: dict) -> int:
    return len(json.loads(json.dumps(chunk, sort_keys=True)))


def probe_items() -> list[float]:
    """Seconds each probe item takes now (10 scoring queries, 10 JSON round trips), GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for item, arg in [(_score, q) for q in _QUERIES] + [(_round_trip, c) for c in _CHUNKS]:
            t0 = time.perf_counter()
            item(arg)
            times.append(time.perf_counter() - t0)
        return times
    finally:
        if enabled:
            gc.enable()


def probe_seconds(samples: list[list[float]]) -> float:
    """The probe's time from ``samples`` of probe_items(): each item's fastest, summed.

    This is the same estimate the runner makes of query latency (each
    question's fastest call), so one lucky moment does not set it.
    """
    return sum(min(times) for times in zip(*samples))


def scale(probe_s: float) -> float:
    """Factor that turns a time measured while the probe took ``probe_s`` into a nominal-speed time."""
    return NOMINAL_S / probe_s

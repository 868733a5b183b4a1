"""Seeded input generator for the benchmark workloads.

Each workload is a named parameter set. ``generate(name, seed, out_dir)``
writes the JSONL inputs the engine reads (corpus, labels or gazetteer,
questions, external decompositions) plus ``truth.jsonl``, the label
assignment the generator planted, which the output check uses as its
reference. The same (name, seed) always writes identical bytes; label
vocabulary size and corpus size are independent parameters.

Run as a script to write one workload's inputs::

    python perfbench/workloads.py --workload postings_20k --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

# Parameters of each workload. ``why`` records the layer it stresses.
WORKLOADS: dict[str, dict] = {
    "postings_20k": {
        "why": "20k docs over 3x60 keys, external decompositions: ~1k candidates per query, so "
        "lookup, scoring and ranking do the work and the vocabulary axis is bypassed",
        "docs": 20_000,
        "noise_docs": 0,
        "dims": ["LOCATION", "EVENT", "PERSON", "THEME"],
        "labels_per_dim": 60,
        "words": 400,
        "labels_per_doc": 3,
        "max_count": 3,
        "label_source": "precomputed",
        "decomposer": "external",
        "queries": 100,
        "bm25_queries": 60,
        "query_labels": [3, 3],
        "perturb": 0.02,
    },
    "ingest_noisy": {
        "why": "gazetteer ingest of 2k in-domain plus 2k label-free noise docs: extract_all dominates "
        "set-up, decompose over 1.2k keys dominates queries; noise loads BM25, never the cube's query path",
        "docs": 2_000,
        "noise_docs": 2_000,
        "dims": ["LOCATION", "DATE", "EVENT", "ORGANIZATION", "PERSON", "THEME"],
        "labels_per_dim": 200,
        "words": 1_500,
        "labels_per_doc": 6,
        "max_count": 3,
        "label_source": "gazetteer",
        "decomposer": "builtin",
        "queries": 400,
        "bm25_queries": 60,
        "query_labels": [2, 3],
        "perturb": 0.3,
    },
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# English filler. None of these is a syllable word of the form the
# vocabulary uses (consonant-vowel pairs), so none can be a label token.
_GLUE = "the a of in and on at for with from by near after during over".split()
_FILLER = (
    "report notes crews residents officials morning evening statement damage local "
    "region coverage update record weather announced recorded observed heavy"
).split()
_LEFTOVER = (
    "timeline summary overview impact response details status outlook aftermath "
    "background analysis forecast"
).split()
_QUESTION_HEADS = ["what happened with", "tell me about", "news on", "find reports of"]


# Stopwords of the engine's decomposer that have the syllable form.
_SYLLABLE_STOPWORDS = frozenset({"before", "dare", "done", "more", "same", "some"})


def _syllable_words(rng: random.Random, n: int) -> list[str]:
    """n distinct lowercase words of 2-3 consonant-vowel syllables, sorted."""
    words: set[str] = set()
    while len(words) < n:
        syllables = rng.choice((2, 2, 3))
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
        if word not in _SYLLABLE_STOPWORDS:
            words.add(word)
    return sorted(words)


def _phrases(rng: random.Random, words: list[str], n: int) -> list[str]:
    """n distinct phrases of 1-3 tokens drawn from ``words``, in draw order."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        length = rng.choice((1, 2, 2, 3))
        phrase = " ".join(rng.choice(words) for _ in range(length))
        if phrase not in seen:
            seen.add(phrase)
            out.append(phrase)
    return out


def _perturb(rng: random.Random, phrase: str, words: set[str], keys: set[str]) -> str:
    """A paraphrase of ``phrase`` that is no label key: one token gets a suffix."""
    tokens = phrase.split()
    while True:
        i = rng.randrange(len(tokens))
        changed = tokens[i] + rng.choice(("s", "n", "ta", "ro"))
        if changed not in words:
            candidate = " ".join(tokens[:i] + [changed] + tokens[i + 1 :])
            if candidate not in keys:
                return candidate


def _surface(dim: str, key: str) -> str:
    return key.title() if dim in ("LOCATION", "PERSON", "ORGANIZATION") else key


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def generate(name: str, seed: int, out_dir: str | Path) -> None:
    """Write one workload's inputs into ``out_dir``."""
    params = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dims: list[str] = params["dims"]
    gazetteer_mode = params["label_source"] == "gazetteer"
    pool = _syllable_words(rng, params["words"])
    if gazetteer_mode:
        # Disjoint word pools per dimension, so extraction in one
        # dimension can never match a phrase planted for another.
        rng.shuffle(pool)
        share = len(pool) // len(dims)
        vocab_by_dim = {
            dim: _phrases(rng, sorted(pool[i * share : (i + 1) * share]), params["labels_per_dim"])
            for i, dim in enumerate(dims)
        }
    else:
        vocab_by_dim = {dim: _phrases(rng, pool, params["labels_per_dim"]) for dim in dims}
    word_set = set(pool)
    all_keys = {key for keys in vocab_by_dim.values() for key in keys}

    # Label assignment: labels_per_doc distinct (dim, key) pairs per doc,
    # spread round-robin over the dimensions, each with a count.
    doc_ids = [f"d{i:06d}" for i in range(params["docs"])]
    truth: dict[str, list[tuple[str, str, int]]] = {}
    for doc_id in doc_ids:
        picked: list[tuple[str, str, int]] = []
        used: set[tuple[str, str]] = set()
        for j in range(params["labels_per_doc"]):
            dim = dims[j % len(dims)]
            while True:
                key = rng.choice(vocab_by_dim[dim])
                if (dim, key) not in used:
                    break
            used.add((dim, key))
            picked.append((dim, key, rng.randint(1, params["max_count"])))
        truth[doc_id] = picked

    corpus = []
    for doc_id in doc_ids:
        words: list[str] = [rng.choice(_FILLER)]
        mentions = [(dim, key) for dim, key, count in truth[doc_id] for _ in range(count)]
        rng.shuffle(mentions)
        for dim, key in mentions:
            words.append(_surface(dim, key))
            # Gazetteer extraction must find exactly the planted mentions, so a
            # glue word keeps phrases from running together; precomputed
            # labels need no such care.
            words.append(rng.choice(_GLUE) if gazetteer_mode else ",")
        words.append(rng.choice(_FILLER) + ".")
        corpus.append({"id": doc_id, "text": " ".join(words), "title": f"doc {doc_id}"})

    if params["noise_docs"]:
        from hyperrag import Corpus, Document, inject_noise

        base = Corpus([Document(id=rec["id"], text=rec["text"], title=rec["title"]) for rec in corpus])
        noisy = inject_noise(base, params["noise_docs"], seed, avoid_phrases=all_keys)
        corpus += [
            {"id": doc.id, "text": doc.text, "title": doc.title}
            for doc in noisy.documents[len(corpus) :]
        ]
    _write_jsonl(out / "corpus.jsonl", corpus)

    if gazetteer_mode:
        _write_jsonl(
            out / "gazetteer.jsonl",
            ({"dim": dim, "phrase": _surface(dim, key)} for dim in dims for key in vocab_by_dim[dim]),
        )
    else:
        _write_jsonl(
            out / "labels.jsonl",
            (
                {"doc_id": doc_id, "dim": dim, "label": _surface(dim, key), "count": count}
                for doc_id in doc_ids
                for dim, key, count in truth[doc_id]
            ),
        )
    _write_jsonl(
        out / "truth.jsonl",
        ({"doc_id": doc_id, "labels": truth[doc_id]} for doc_id in doc_ids),
    )

    # Questions: 2-3 labels of a gold doc, some perturbed into non-key
    # paraphrases, plus one leftover content word. The mix (label count,
    # which label slots are perturbed, head, leftover word) follows the
    # question number, so every seed asks the same kinds of question and
    # only their content varies.
    questions, decompositions = [], []
    low, high = params["query_labels"]
    slot = 0
    for q in range(params["queries"]):
        gold = rng.choice(doc_ids)
        chosen = rng.sample(truth[gold], low + q % (high - low + 1))
        parts = []
        for dim, key, _count in chosen:
            # Exactly a ``perturb`` share of all label slots, evenly spaced.
            perturbed = int((slot + 1) * params["perturb"]) > int(slot * params["perturb"])
            slot += 1
            text = _perturb(rng, key, word_set, all_keys) if perturbed else key
            parts.append((dim, text))
        leftover = _LEFTOVER[q % len(_LEFTOVER)]
        question = (
            f"{_QUESTION_HEADS[q % len(_QUESTION_HEADS)]} "
            + " and ".join(_surface(dim, text) for dim, text in parts)
            + f" {leftover}?"
        )
        qid = f"q{q:04d}"
        questions.append({"id": qid, "question": question, "gold_doc_ids": [gold]})
        decompositions.append(
            {"id": qid, "components": [{"dim": dim, "text": text} for dim, text in parts]}
        )
    _write_jsonl(out / "questions.jsonl", questions)
    if params["decomposer"] == "external":
        _write_jsonl(out / "decompositions.jsonl", decompositions)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    # Noise documents come from the engine's inject_noise, in this checkout's src/.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

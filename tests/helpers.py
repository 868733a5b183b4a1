"""Shared fixture data and generators for the test suite."""

from __future__ import annotations

import json
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hyperrag import Corpus, DocLabels, Document, Gazetteer, LabelAssignment, QueryRecord, embedding, labeling

# --------------------------------------------------------------------------
# Three-document hurricane fixture. Label counts under the fixture gazetteer:
#   565 -> melbourne beach:1 (LOCATION), tropical storm fay:1 (EVENT), rain:5 (THEME)
#   246 -> florida:1 (LOCATION), tropical storm fay:1 (EVENT)
#   535 -> florida:1 (LOCATION)
# --------------------------------------------------------------------------

DOC_565 = (
    "September usually marks the busiest stretch of the storm year, and 2008 was no "
    "exception. Forecasters watched one system after another spin up off the African coast. "
    "Tropical Storm Fay never grew into a major hurricane, yet it crawled across the "
    "Southeast for ten days and dropped rain in staggering quantities. Melbourne Beach, "
    "Fl., recorded 25.28 inches of rain before the system finally cleared, the highest "
    "storm total reported anywhere that month. Gauges in southern Georgia measured more "
    "than seventeen inches of rain, and several Alabama counties logged six inches of rain "
    "in a single night. Emergency crews spent the following week pumping rain water out of "
    "flooded neighborhoods."
)

DOC_246 = (
    "State climatologists reviewing the 2008 season noted that Tropical Storm Fay caused "
    "more inland flooding than any landfalling hurricane that year. Insurance filings from "
    "across Florida showed water damage far from the coast, and county engineers spent the "
    "winter rebuilding washed-out culverts. The report urged planners to treat slow-moving "
    "storms as a distinct hazard class, since their losses concentrate along rivers rather "
    "than shorelines."
)

DOC_535 = (
    "A levee research group working in the Florida Panhandle documented how groundwater "
    "seepage gradually undermines earthen embankments. Their field measurements suggest "
    "that erosion of this kind slows over time but never stops entirely, which complicates "
    "lifespan estimates for structures that are no longer maintained. The team is sharing "
    "its findings with engineers responsible for aging flood-control works elsewhere in "
    "the Southeast."
)

MELBOURNE_QUERY = "How much rainfall did Melbourne Beach, Florida receive from Tropical Storm Fay?"

# Similarity threshold at which the fixture's semantic matches fire: the
# trigram cosine of "rainfall" vs "rain" is ~0.577, so 0.5 triggers the
# fallback while 0.7 and above do not.
FIXTURE_TAU = 0.5

# The packaged sample data set (corpus, gazetteer, labels, queries).
HURRICANE_MINI = Path(__file__).resolve().parent.parent / "data" / "hurricane_mini"


def make_hurricane_corpus() -> Corpus:
    return Corpus(
        [
            Document(id="565", text=DOC_565, title="Fay soaks the coast"),
            Document(id="246", text=DOC_246, title="Slow storms, inland losses"),
            Document(id="535", text=DOC_535, title="Seepage and aging levees"),
        ]
    )


def make_hurricane_gazetteer() -> Gazetteer:
    return Gazetteer.from_phrases(
        {
            "LOCATION": ["Melbourne Beach", "Florida"],
            "EVENT": ["Tropical Storm Fay"],
            "THEME": ["rain"],
        }
    )


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    return path


def write_escaped_jsonl(path: Path, records: list[dict]) -> Path:
    """Like :func:`write_jsonl`, with every non-ASCII character escaped, so a lone surrogate can be written."""
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
    return path


# The array types a version 6 or 7 ``inverted`` section may use, narrowest
# first, then one wider type, so a test can write an array the reader
# must refuse.
_ARRAY_TYPES = ("<u1", "<u2", "<i4", "<i8")
_ARRAYS = ("lengths", "docs", "counts")


def decode_inverted(raw: bytes) -> dict[str, list]:
    """A version 6 or 7 ``inverted`` section as ``{keys, lengths, docs, counts}``, arrays as lists of ints."""
    head_end = 4 + int.from_bytes(raw[:4], "big")
    head = json.loads(raw[4:head_end])
    types = [np.dtype(head[name]) for name in _ARRAYS]
    n_postings = (len(raw) - head_end - len(head["keys"]) * types[0].itemsize) // (
        types[1].itemsize + types[2].itemsize
    )
    section, offset = {"keys": head["keys"]}, head_end
    for name, kind, count in zip(_ARRAYS, types, (len(head["keys"]), n_postings, n_postings)):
        section[name] = np.frombuffer(raw, kind, count, offset).tolist()
        offset += count * kind.itemsize
    return section


def _encode_array(value: object) -> tuple[object, bytes]:
    """The type written for one array entry, and its bytes.

    A list of ints takes the first of ``_ARRAY_TYPES`` that holds its
    values. ``(type, values)`` forces the type, and ``(type, bytes)``
    writes the bytes verbatim. Anything else is written as the type
    itself, followed by no bytes.
    """
    if isinstance(value, tuple):
        kind, values = value
        return kind, values if isinstance(values, bytes) else np.asarray(values, dtype=kind).tobytes()
    if isinstance(value, list) and all(type(item) is int for item in value):
        low, high = min(value, default=0), max(value, default=0)
        kind = next(kind for kind in _ARRAY_TYPES if np.iinfo(kind).min <= low and high <= np.iinfo(kind).max)
        return kind, np.asarray(value, dtype=kind).tobytes()
    return value, b""


def encode_inverted(section: object, escape: bool = False) -> bytes:
    """Encode a (possibly malformed) ``inverted`` section by the version 6 and 7 layout.

    A dict gives the JSON part: its ``lengths``, ``docs`` and ``counts``
    entries are replaced by their types (see ``_encode_array``) and their
    bytes follow in that order; other entries stay in the JSON part. Any
    other value is the JSON part alone. ``escape`` escapes every
    non-ASCII character of the JSON part, so a lone surrogate can be written.
    """
    arrays = b""
    if isinstance(section, dict):
        section = dict(section)
        for name in _ARRAYS:
            if name in section:
                section[name], raw = _encode_array(section[name])
                arrays += raw
    head = json.dumps(section, sort_keys=True, separators=(",", ":"), ensure_ascii=escape).encode("utf-8")
    return len(head).to_bytes(4, "big") + head + arrays


def raw_sections(path: Path) -> tuple[dict, dict[str, bytes]]:
    """Header and undecoded sections of an index container, by the documented layout."""
    blob = Path(path).read_bytes()
    offset = 4

    def take() -> bytes:
        nonlocal offset
        start = offset + 4
        offset = start + int.from_bytes(blob[offset:start], "big")
        return blob[start:offset]

    header = json.loads(take())
    return header, {name: take() for name in header["sections"]}


def decode_section(name: str, raw: bytes) -> object:
    """One section by the version 7 layout: ``inverted`` ones by :func:`decode_inverted`,
    ``forward`` as its list of doc ids (split on newlines), the others as JSON."""
    if name.startswith("inverted:"):
        return decode_inverted(raw)
    if name == "forward":
        return raw.decode("utf-8").split("\n") if raw else []
    return json.loads(raw)


def encode_section(name: str, part: object) -> bytes:
    """Encode one (possibly malformed) section; see :func:`write_container`."""
    if isinstance(part, bytes):
        return part
    if name.startswith("inverted:"):
        return encode_inverted(part)
    if name == "forward" and isinstance(part, list) and all(type(doc_id) is str for doc_id in part):
        # A lone surrogate is written as UTF-8 would spell it, which a strict decoder refuses.
        return "\n".join(part).encode("utf-8", "surrogatepass")
    return json.dumps(part).encode("utf-8")


def read_container(path: Path) -> tuple[dict, dict[str, object]]:
    """Header and decoded sections, each by :func:`decode_section`."""
    header, sections = raw_sections(path)
    return header, {name: decode_section(name, raw) for name, raw in sections.items()}


def write_container(path: Path, header: object, sections: dict[str, object]) -> None:
    """Encode a (possibly malformed) container with a valid CRC.

    Every value of ``sections`` is written in order whatever the header
    lists: bytes verbatim, an ``inverted`` section with
    :func:`encode_inverted`, a ``forward`` list of strings joined by
    newlines, and anything else as JSON.
    """
    parts = [json.dumps(header).encode("utf-8")] + [encode_section(name, part) for name, part in sections.items()]
    body = b"HRIX" + b"".join(len(part).to_bytes(4, "big") + part for part in parts)
    Path(path).write_bytes(body + zlib.crc32(body).to_bytes(4, "big"))


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    """Print one PASS/FAIL line per acceptance criterion, enforcing its runtime budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"


def count_table_builds(monkeypatch) -> list[int]:
    """Record the phrase count of every phrase structure built (``phrase_index``), in every module that binds it."""
    builds: list[int] = []
    original = labeling.phrase_index

    def counted(keys_by_dim):
        phrase_dims, phrase_table = original(keys_by_dim)
        builds.append(len(phrase_dims))
        return phrase_dims, phrase_table

    for name, module in list(sys.modules.items()):
        if name.startswith("hyperrag") and getattr(module, "phrase_index", None) is original:
            monkeypatch.setattr(module, "phrase_index", counted)
    return builds


def count_derivations(monkeypatch) -> list[tuple]:
    """Record (encoder name, encoder dim, keys) of every label vector table encoded (``embedding._encode_keys``)."""
    calls: list[tuple] = []
    original = embedding._encode_keys

    def counted(keys, encoder):
        calls.append((encoder.name, encoder.dim, tuple(keys)))
        return original(keys, encoder)

    monkeypatch.setattr(embedding, "_encode_keys", counted)
    return calls


# --------------------------------------------------------------------------
# Random corpora with label assignments, for property tests.
# --------------------------------------------------------------------------

_DIM_POOL = ("LOCATION", "DATE", "EVENT", "ORGANIZATION", "PERSON", "THEME")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _random_word(rng: np.random.Generator, min_len: int = 3, max_len: int = 8) -> str:
    length = int(rng.integers(min_len, max_len + 1))
    return "".join(_LETTERS[int(rng.integers(0, 26))] for _ in range(length))


def assignment_of(labels_by_doc: dict[str, DocLabels]) -> LabelAssignment:
    """The engine's input for a plain assignment: one ``add`` per (doc, label), in the mapping's order.

    A document without labels is not registered; no index built from the
    result can tell, since an index lists every corpus document.
    """
    labels = LabelAssignment()
    for doc_id, doc_labels in labels_by_doc.items():
        for (dim, key), count in doc_labels.counts.items():
            labels.add(doc_id, dim, key, count)
    return labels


def random_labeled_corpus(
    rng: np.random.Generator,
    max_docs: int = 50,
    max_dims: int = 6,
    multiword_labels: bool = False,
    allow_unencodable: bool = False,
):
    """A random corpus plus per-document label assignment.

    Returns (corpus, labels, vocab_by_dim): ``labels`` maps a doc id to a
    hand-made ``DocLabels`` snapshot, the plain data the oracles read
    (pass it through :func:`assignment_of` to build an index), and
    vocab_by_dim is derived from it, independent of any index built later.
    """
    n_dims = int(rng.integers(1, max_dims + 1))
    dims = list(rng.choice(_DIM_POOL, size=n_dims, replace=False))
    vocab_by_dim: dict[str, list[str]] = {}
    for dim in dims:
        n_labels = int(rng.integers(1, 9))
        labels = set()
        while len(labels) < n_labels:
            if allow_unencodable and rng.random() < 0.1:
                labels.add(_random_word(rng, 1, 2))
            elif multiword_labels and rng.random() < 0.3:
                labels.add(f"{_random_word(rng)} {_random_word(rng)}")
            else:
                labels.add(_random_word(rng))
        vocab_by_dim[dim] = sorted(labels)

    n_docs = int(rng.integers(1, max_docs + 1))
    documents, labels_by_doc = [], {}
    for i in range(n_docs):
        doc_id = f"d{i:03d}-{_random_word(rng, 3, 5)}"
        text = " ".join(_random_word(rng) for _ in range(int(rng.integers(3, 30))))
        documents.append(Document(id=doc_id, text=text))
        counts = {}
        for dim in dims:
            for key in vocab_by_dim[dim]:
                if rng.random() < 0.3:
                    counts[(dim, key)] = int(rng.integers(1, 6))
        if counts or rng.random() < 0.8:
            labels_by_doc[doc_id] = DocLabels(doc_id=doc_id, counts=counts)
    # Drop vocab entries no document ended up carrying; the index vocab
    # only ever holds assigned labels.
    assigned = {
        (dim, key) for dl in labels_by_doc.values() for (dim, key) in dl.counts
    }
    vocab_by_dim = {
        dim: sorted({key for (d, key) in assigned if d == dim})
        for dim in dims
        if any(d == dim for (d, _k) in assigned)
    }
    return Corpus(documents), labels_by_doc, vocab_by_dim


# --------------------------------------------------------------------------
# Synthetic in-domain corpus at benchmark scale.
# --------------------------------------------------------------------------

SYNTH_GAZETTEER_PHRASES: dict[str, list[str]] = {
    "LOCATION": [
        "cedar key", "gulf shores", "port arthur", "outer banks", "key largo",
        "biloxi", "galveston", "cape romano", "sanibel island", "panama shore",
        "apalachee bay", "grand isle", "topsail beach", "matagorda", "pensacola",
        "saint marks", "bay minette", "dauphin island", "vero harbor", "cocoa strand",
    ],
    "EVENT": [
        "hurricane delia", "hurricane orin", "tropical storm brask", "hurricane venn",
        "tropical storm calia", "hurricane jut", "tropical storm mirel", "hurricane sable",
        "tropical storm quro", "hurricane tamsin",
    ],
    "DATE": [
        "july 1998", "august 2004", "september 2008", "october 2012", "june 2017",
        "august 2021", "september 1999",
    ],
    "ORGANIZATION": [
        "national storm bureau", "coastal survey office", "gulf research consortium",
        "emergency planning council", "levee inspection board",
    ],
    "PERSON": [
        "elena marsh", "victor okafor", "june albright", "raul cadenas",
    ],
    "THEME": [
        "rain", "rainfall totals", "storm surge", "flooding", "evacuation",
        "wind damage", "power outage", "landfall", "beach erosion", "levee breach",
        "drought", "water level", "shelter capacity", "road closure",
    ],
}

_SYNTH_FILLER = (
    "residents forecast county officials coastline waves advisory gusts track "
    "pressure models outlook warning shelters sandbags surge gauge crews repairs "
    "bridge ferry harbor marina recovery damage assessment inland upstream basin"
).split()

_SYNTH_GLUE = "the a of in and near over was were with for at on to as by from after".split()


def synth_in_domain_corpus(n_docs: int, seed: int):
    """Benchmark-scale corpus whose labels come from SYNTH_GAZETTEER_PHRASES.

    Every document weaves 2-5 gazetteer phrases into filler prose, so
    the gazetteer extractor assigns each one a handful of labels.
    Returns (corpus, gazetteer, queries).
    """
    rng = np.random.default_rng(seed)
    gazetteer = Gazetteer.from_phrases(SYNTH_GAZETTEER_PHRASES)
    dims = sorted(SYNTH_GAZETTEER_PHRASES)
    documents = []
    for i in range(n_docs):
        n_phrases = int(rng.integers(2, 6))
        phrases = []
        for _ in range(n_phrases):
            dim = dims[int(rng.integers(0, len(dims)))]
            pool = SYNTH_GAZETTEER_PHRASES[dim]
            phrases.append(pool[int(rng.integers(0, len(pool)))])
        words = []
        for phrase in phrases:
            for _ in range(int(rng.integers(6, 16))):
                pool = _SYNTH_GLUE if rng.random() < 0.35 else _SYNTH_FILLER
                words.append(pool[int(rng.integers(0, len(pool)))])
            words.append(phrase)
        for _ in range(int(rng.integers(10, 30))):
            words.append(_SYNTH_FILLER[int(rng.integers(0, len(_SYNTH_FILLER)))])
        documents.append(Document(id=f"syn-{i:05d}", text=" ".join(words)))
    corpus = Corpus(documents)

    templates = (
        "How much {theme} did {loc} report during {event}?",
        "What {theme} was recorded at {loc} after {event} in {date}?",
        "Did {org} warn {loc} about {theme} from {event}?",
        "When did {event} bring {theme} to {loc}?",
    )
    queries = []
    for i in range(12):
        template = templates[i % len(templates)]
        question = template.format(
            theme=SYNTH_GAZETTEER_PHRASES["THEME"][int(rng.integers(0, 14))],
            loc=SYNTH_GAZETTEER_PHRASES["LOCATION"][int(rng.integers(0, 20))],
            event=SYNTH_GAZETTEER_PHRASES["EVENT"][int(rng.integers(0, 10))],
            date=SYNTH_GAZETTEER_PHRASES["DATE"][int(rng.integers(0, 7))],
            org=SYNTH_GAZETTEER_PHRASES["ORGANIZATION"][int(rng.integers(0, 5))],
        )
        queries.append(QueryRecord(id=f"bench-q{i:02d}", question=question))
    return corpus, gazetteer, queries

"""The label cube: per-dimension inverted indexes over normalized keys.

Conceptually the index is a multidimensional array with one axis per
dimension and one coordinate per label; materializing that array is
infeasible (the cell count is the product of the vocabulary sizes), so
cells are computed lazily by intersecting per-dimension posting lists.
Lookup cost depends on the label vocabulary, not the corpus size.

The index is immutable after :func:`build_index`; concurrent reads need
no locking. There is no incremental update — rebuild to change it.
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .corpus import Corpus
from .embedding import Encoder, LabelVectors
from .errors import (
    ChecksumMismatch,
    FormatVersionMismatch,
    IoFailure,
    NonPositiveCount,
    UnknownDocId,
)
from .labeling import CANONICAL_DIMENSIONS, DocLabels, Dimension, PhraseTable, _phrase_table

_MAGIC = b"HRIX"
_FORMAT_VERSION = 3
_INVERTED = "inverted:"


class Posting(NamedTuple):
    doc_id: str
    count: int


@dataclass(frozen=True)
class CellAddress:
    """One coordinate per participating dimension; addresses one cube cell."""

    coords: Mapping[Dimension, str]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("cell address needs at least one coordinate")


@dataclass
class HypercubeIndex:
    """The document-to-label assignment, each fact held once.

    ``inverted[dim][key]`` is a posting list sorted strictly by doc id
    and is the only place a count is held. ``doc_ids`` lists every
    indexed document, unlabeled ones included. Labels are held by their
    normalized keys only.

    ``vocab[dim]`` (the key set of ``inverted[dim]``), ``phrase_dims`` (key
    -> sorted dimensions carrying it) and ``phrase_table`` (the
    first-token table over every key) are derived from ``inverted`` once
    per index, in ``__post_init__``, which both :func:`build_index` and
    :func:`load_index` pass through; they are never saved.
    """

    dimensions: tuple[Dimension, ...]
    inverted: dict[Dimension, dict[str, list[Posting]]]
    doc_ids: frozenset[str]
    label_vectors: LabelVectors | None = field(default=None)
    # Label vectors encoded on demand for an encoder the baked vectors do
    # not match, keyed by (encoder name, encoder dim, dimension).
    _vector_cache: dict[tuple[str, int, Dimension], tuple[list[str], np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    vocab: dict[Dimension, set[str]] = field(init=False, repr=False, compare=False)
    phrase_dims: dict[str, tuple[Dimension, ...]] = field(init=False, repr=False, compare=False)
    phrase_table: PhraseTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vocab = {dim: set(postings_by_key) for dim, postings_by_key in self.inverted.items()}
        dims_by_key: dict[str, list[Dimension]] = {}
        for dim in self.dimensions:
            for key in self.vocab.get(dim, ()):
                dims_by_key.setdefault(key, []).append(dim)
        self.phrase_dims = {key: tuple(sorted(dims)) for key, dims in dims_by_key.items()}
        self.phrase_table = _phrase_table(self.phrase_dims)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def label_key_count(self) -> int:
        return sum(len(keys) for keys in self.vocab.values())


def build_index(
    corpus: Corpus,
    labels: Mapping[str, DocLabels],
    dimensions: Iterable[Dimension] | None = None,
    encoder: Encoder | None = None,
) -> HypercubeIndex:
    """Index a corpus under a label assignment.

    Every labeled doc id must exist in the corpus, and no dimension may
    be given twice. Documents without labels are listed in ``doc_ids``
    and appear in no posting list. Each label's count goes into its
    posting. When an encoder is given, label vectors for the whole
    vocabulary are computed now and stored with the index.
    """
    for doc_id in labels:
        if doc_id not in corpus:
            raise UnknownDocId(doc_id)

    if dimensions is None:
        extras = sorted(
            {dim for doc_labels in labels.values() for (dim, _key) in doc_labels.counts}
            - set(CANONICAL_DIMENSIONS)
        )
        dims = CANONICAL_DIMENSIONS + tuple(extras)
    else:
        dims = tuple(dimensions)
        for pos, dim in enumerate(dims):
            if dim in dims[:pos]:
                raise ValueError(f"dimension {dim!r} appears twice in {dims}")

    inverted: dict[Dimension, dict[str, list[Posting]]] = {dim: {} for dim in dims}
    for doc in corpus:
        doc_labels = labels.get(doc.id)
        if doc_labels is None:
            continue
        for (dim, key), count in doc_labels.counts.items():
            postings_by_key = inverted.get(dim)
            if postings_by_key is None:
                raise ValueError(f"label dimension {dim!r} not among index dimensions {dims}")
            if count < 1:
                raise NonPositiveCount(f"({dim}, {key!r}) in doc {doc.id!r}")
            postings_by_key.setdefault(key, []).append(Posting(doc.id, count))

    for postings_by_key in inverted.values():
        for postings in postings_by_key.values():
            postings.sort(key=lambda p: p.doc_id)

    ix = HypercubeIndex(
        dimensions=dims,
        inverted=inverted,
        doc_ids=frozenset(doc.id for doc in corpus),
    )
    if encoder is not None:
        from .embedding import build_label_vectors

        ix.label_vectors = build_label_vectors(ix.vocab, encoder)
    return ix


def lookup(ix: HypercubeIndex, dim: Dimension, key: str) -> list[Posting]:
    """Posting list of one label; empty if the key (or dimension) is unseen.

    A hash lookup plus a list reference — cost independent of corpus
    size.
    """
    return ix.inverted.get(dim, {}).get(key, [])


def cell_documents(ix: HypercubeIndex, address: CellAddress | Mapping[Dimension, str]) -> list[str]:
    """Documents occupying the cube cell at the given coordinates.

    The sorted intersection of the coordinate posting lists; any
    coordinate with an empty posting list empties the cell.
    """
    coords = address.coords if isinstance(address, CellAddress) else address
    if not coords:
        raise ValueError("cell address needs at least one coordinate")
    id_sets = []
    for dim, key in coords.items():
        postings = lookup(ix, dim, key)
        if not postings:
            return []
        id_sets.append({p.doc_id for p in postings})
    id_sets.sort(key=len)
    common = set.intersection(*id_sets)
    return sorted(common)


def _canonical_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to a fresh sibling of ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a partial write; the
    sibling is removed when anything fails before the rename.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def save_index(ix: HypercubeIndex, path: str | Path) -> None:
    """Write the index as a single-file container, replacing ``path`` atomically.

    Layout: magic ``HRIX``, a length-prefixed JSON header, length-prefixed
    JSON sections, then a CRC-32 over everything before it; lengths are
    4-byte big-endian. The header holds only ``version`` and the ordered
    ``sections`` names. Each fact is stored once:

    * ``inverted:<DIM>``, one per dimension in index order: key ->
      ``[[doc_id, count], ...]``. The only place a count is written; the
      index's dimensions are read back from these section names.
    * ``forward``: ``doc_ids``, every document id sorted (unlabeled ones
      included), and nothing else.
    * ``vectors``, when label vectors are attached: encoder name, vector
      dim, and per dimension the encoded keys and matrix rows.

    Keys are written sorted and postings doc-id sorted, so identical
    indexes produce identical bytes. The bytes go to a temporary sibling
    that is renamed over ``path`` once complete, so a failed write leaves
    the previous file intact.
    """
    sections: list[tuple[str, bytes]] = []
    for dim in ix.dimensions:
        postings_by_key = {
            key: [[p.doc_id, p.count] for p in postings]
            for key, postings in ix.inverted.get(dim, {}).items()
        }
        sections.append((f"{_INVERTED}{dim}", _canonical_json(postings_by_key)))
    sections.append(("forward", _canonical_json({"doc_ids": sorted(ix.doc_ids)})))
    if ix.label_vectors is not None:
        vectors_payload = {
            "encoder": ix.label_vectors.encoder_name,
            "dim": ix.label_vectors.dim,
            "by_dimension": {
                dim: {"keys": keys, "matrix": [[float(x) for x in row] for row in matrix]}
                for dim, (keys, matrix) in ix.label_vectors.by_dimension.items()
            },
        }
        sections.append(("vectors", _canonical_json(vectors_payload)))

    header = {"version": _FORMAT_VERSION, "sections": [name for name, _payload in sections]}
    body = bytearray()
    body += _MAGIC
    header_bytes = _canonical_json(header)
    body += len(header_bytes).to_bytes(4, "big")
    body += header_bytes
    for _name, payload in sections:
        body += len(payload).to_bytes(4, "big")
        body += payload
    body += zlib.crc32(bytes(body)).to_bytes(4, "big")
    try:
        _replace_file(Path(path), bytes(body))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _malformed(path: str | Path, detail: str) -> FormatVersionMismatch:
    return FormatVersionMismatch(f"{path}: malformed index container: {detail}")


def _parse(raw: memoryview, path: str | Path, what: str, kind: type) -> object:
    """Decode one JSON part of a container and check its top-level type."""
    try:
        value = json.loads(bytes(raw))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise _malformed(path, f"{what} is not valid JSON ({exc})") from None
    if not isinstance(value, kind):
        raise _malformed(path, f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _str_list(value: object, path: str | Path, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise _malformed(path, f"{what} must be an array of strings")
    return value


def _load_postings(
    raw: memoryview, dim: Dimension, doc_ids: frozenset[str], path: str | Path
) -> dict[str, list[Posting]]:
    """Parse one ``inverted:<DIM>`` section; every posting's doc id must be in ``doc_ids``."""
    where = f"section {_INVERTED}{dim}"
    postings_by_key: dict[str, list[Posting]] = {}
    for key, entries in _parse(raw, path, where, dict).items():
        if not isinstance(entries, list) or not entries:
            raise _malformed(path, f"{where}, key {key!r}: postings must be a non-empty array")
        postings = []
        prev = None
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise _malformed(path, f"{where}, key {key!r}: {entry!r} is not a [doc_id, count] pair")
            doc_id, count = entry
            if not isinstance(doc_id, str) or doc_id not in doc_ids:
                raise _malformed(path, f"{where}, key {key!r}: doc id {doc_id!r} is not in forward")
            if type(count) is not int or count < 1:
                raise _malformed(path, f"{where}, key {key!r}, doc {doc_id!r}: count {count!r} is not an integer >= 1")
            if prev is not None and doc_id <= prev:
                raise _malformed(path, f"{where}, key {key!r}: doc ids not strictly increasing at {doc_id!r}")
            prev = doc_id
            postings.append(Posting(doc_id, count))
        postings_by_key[key] = postings
    return postings_by_key


def _load_vectors(raw: memoryview, path: str | Path) -> LabelVectors:
    payload = _parse(raw, path, "section vectors", dict)
    encoder_name, dim, by_dimension = payload.get("encoder"), payload.get("dim"), payload.get("by_dimension")
    if not isinstance(encoder_name, str) or type(dim) is not int or dim < 1 or not isinstance(by_dimension, dict):
        raise _malformed(path, "section vectors needs an encoder name, a dim >= 1 and a by_dimension object")
    tables: dict[Dimension, tuple[list[str], np.ndarray]] = {}
    for label_dim, entry in by_dimension.items():
        where = f"vectors of {label_dim}"
        if not isinstance(entry, dict) or not isinstance(entry.get("matrix"), list):
            raise _malformed(path, f"{where}: needs keys and a matrix array")
        keys = _str_list(entry.get("keys"), path, f"{where} keys")
        try:
            matrix = np.asarray(entry["matrix"], dtype=np.float64).reshape(len(keys), dim)
        except (TypeError, ValueError) as exc:
            raise _malformed(path, f"{where}: matrix is not {len(keys)} x {dim} numbers ({exc})") from None
        tables[label_dim] = (keys, matrix)
    return LabelVectors(encoder_name=encoder_name, dim=dim, by_dimension=tables)


def load_index(path: str | Path) -> HypercubeIndex:
    """Read a container written by :func:`save_index`.

    The CRC is verified before anything is parsed, so truncation or
    corruption anywhere raises ChecksumMismatch. No per-document object
    is built: the postings come from the ``inverted`` sections,
    ``doc_ids`` from ``forward``. An unknown magic or version raises
    FormatVersionMismatch; version-1 and version-2 files must be rebuilt.
    So does a container whose CRC passes but whose content is malformed:
    a header or section of the wrong shape, a ``forward`` holding
    anything but ``doc_ids``, a posting for a doc id missing from
    ``forward``, duplicate doc ids, or a count below 1.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if len(blob) < len(_MAGIC) + 8:
        raise ChecksumMismatch(f"{path}: file too short to be an index container")
    body, crc_bytes = memoryview(blob)[:-4], blob[-4:]
    if zlib.crc32(body) != int.from_bytes(crc_bytes, "big"):
        raise ChecksumMismatch(f"{path}: CRC-32 verification failed")
    if body[: len(_MAGIC)] != _MAGIC:
        raise FormatVersionMismatch(f"{path}: not an index container")
    offset = len(_MAGIC)

    def read_section() -> memoryview:
        nonlocal offset
        if offset + 4 > len(body):
            raise ChecksumMismatch(f"{path}: section table overruns file")
        length = int.from_bytes(body[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(body):
            raise ChecksumMismatch(f"{path}: section overruns file")
        payload = body[offset : offset + length]
        offset += length
        return payload

    header = _parse(read_section(), path, "header", dict)
    if header.get("version") != _FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: container version {header.get('version')!r}, reader supports {_FORMAT_VERSION}; "
            "rebuild the index from its corpus and labels"
        )
    if set(header) != {"version", "sections"}:
        raise _malformed(path, f"header holds {sorted(header)}, expected exactly version and sections")
    raw_sections: dict[str, memoryview] = {}
    for name in _str_list(header["sections"], path, "header sections"):
        if name in raw_sections:
            raise _malformed(path, f"section {name!r} appears twice")
        if not name.startswith(_INVERTED) and name not in ("forward", "vectors"):
            raise FormatVersionMismatch(f"{path}: unknown section {name!r}")
        raw_sections[name] = read_section()
    if offset != len(body):
        raise _malformed(path, f"{len(body) - offset} bytes after the last section")
    if "forward" not in raw_sections:
        raise _malformed(path, "no forward section")

    forward_payload = _parse(raw_sections["forward"], path, "section forward", dict)
    if set(forward_payload) != {"doc_ids"}:
        raise _malformed(path, "section forward must hold exactly doc_ids")
    doc_id_list = _str_list(forward_payload["doc_ids"], path, "forward doc_ids")
    doc_ids = frozenset(doc_id_list)
    if len(doc_ids) != len(doc_id_list):
        raise _malformed(path, "forward doc_ids holds duplicates")

    dimensions = tuple(name[len(_INVERTED) :] for name in raw_sections if name.startswith(_INVERTED))
    return HypercubeIndex(
        dimensions=dimensions,
        inverted={dim: _load_postings(raw_sections[_INVERTED + dim], dim, doc_ids, path) for dim in dimensions},
        doc_ids=doc_ids,
        label_vectors=_load_vectors(raw_sections["vectors"], path) if "vectors" in raw_sections else None,
    )

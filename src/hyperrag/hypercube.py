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
from .labeling import CANONICAL_DIMENSIONS, DocLabels, Dimension

_MAGIC = b"HRIX"
_FORMAT_VERSION = 2
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
    """Forward and inverted views of the same document-to-label assignment.

    ``inverted[dim][key]`` is a posting list sorted strictly by doc id;
    ``forward[doc_id]`` holds the document's DocLabels (possibly empty);
    ``vocab[dim]`` is the key set of ``inverted[dim]``. The two views
    stay symmetric by construction: a posting (d, c) exists exactly when
    the forward labels of d carry count c for that (dim, key).
    """

    dimensions: tuple[Dimension, ...]
    inverted: dict[Dimension, dict[str, list[Posting]]]
    forward: dict[str, DocLabels]
    vocab: dict[Dimension, set[str]]
    label_vectors: LabelVectors | None = field(default=None)
    # Label vectors encoded on demand for an encoder the baked vectors do
    # not match, keyed by (encoder name, encoder dim, dimension).
    _vector_cache: dict[tuple[str, int, Dimension], tuple[list[str], np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def doc_count(self) -> int:
        return len(self.forward)

    def label_key_count(self) -> int:
        return sum(len(keys) for keys in self.vocab.values())


def build_index(
    corpus: Corpus,
    labels: Mapping[str, DocLabels],
    dimensions: Iterable[Dimension] | None = None,
    encoder: Encoder | None = None,
) -> HypercubeIndex:
    """Index a corpus under a label assignment.

    Every labeled doc id must exist in the corpus. Documents without
    labels still get a forward entry (with zero labels) and appear in no
    posting list. When an encoder is given, label vectors for the whole
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
    dim_set = set(dims)

    inverted: dict[Dimension, dict[str, list[Posting]]] = {dim: {} for dim in dims}
    forward: dict[str, DocLabels] = {}
    for doc in corpus:
        doc_labels = labels.get(doc.id, DocLabels(doc_id=doc.id))
        forward[doc.id] = doc_labels
        for (dim, key), count in doc_labels.counts.items():
            if dim not in dim_set:
                raise ValueError(f"label dimension {dim!r} not among index dimensions {dims}")
            if count < 1:
                raise NonPositiveCount(f"({dim}, {key!r}) in doc {doc.id!r}")
            inverted[dim].setdefault(key, []).append(Posting(doc.id, count))

    for postings_by_key in inverted.values():
        for postings in postings_by_key.values():
            postings.sort(key=lambda p: p.doc_id)

    vocab = {dim: set(postings_by_key) for dim, postings_by_key in inverted.items()}
    ix = HypercubeIndex(dimensions=dims, inverted=inverted, forward=forward, vocab=vocab)
    if encoder is not None:
        from .embedding import build_label_vectors

        ix.label_vectors = build_label_vectors(vocab, encoder)
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


def verify_symmetry(ix: HypercubeIndex) -> None:
    """Full cross-walk of the forward <-> inverted invariant; raises on violation."""
    seen_pairs = 0
    for dim, postings_by_key in ix.inverted.items():
        if set(postings_by_key) != ix.vocab.get(dim, set()):
            raise AssertionError(f"vocab out of sync for dimension {dim}")
        for key, postings in postings_by_key.items():
            ids = [p.doc_id for p in postings]
            if ids != sorted(ids) or len(set(ids)) != len(ids):
                raise AssertionError(f"posting list for ({dim}, {key!r}) not strictly sorted")
            for posting in postings:
                forward_count = ix.forward[posting.doc_id].counts.get((dim, key))
                if forward_count != posting.count:
                    raise AssertionError(
                        f"posting ({dim}, {key!r}, {posting.doc_id}) count {posting.count} "
                        f"!= forward count {forward_count}"
                    )
                seen_pairs += 1
    forward_pairs = sum(len(labels.counts) for labels in ix.forward.values())
    if forward_pairs != seen_pairs:
        raise AssertionError(f"forward holds {forward_pairs} label pairs, inverted holds {seen_pairs}")


def _canonical_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _forward_payload(ix: HypercubeIndex) -> dict:
    """Every doc id, plus the surface sets that are not just ``{key}``."""
    surfaces: dict[str, dict[str, dict[str, list[str]]]] = {}
    for doc_id, doc_labels in ix.forward.items():
        for dim, key in doc_labels.counts:
            seen = doc_labels.surfaces.get((dim, key))
            if seen is not None and seen != {key}:
                surfaces.setdefault(doc_id, {}).setdefault(dim, {})[key] = sorted(seen)
    return {"doc_ids": sorted(ix.forward), "surfaces": surfaces}


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
      included), and ``surfaces``, doc id -> dimension -> key -> sorted
      surface strings, only where a key's surfaces are not just ``{key}``.
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
    sections.append(("forward", _canonical_json(_forward_payload(ix))))
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
    raw: memoryview, dim: Dimension, forward: dict[str, DocLabels], path: str | Path
) -> dict[str, list[Posting]]:
    """Parse one ``inverted:<DIM>`` section and enter each posting's count into ``forward``."""
    where = f"section {_INVERTED}{dim}"
    postings_by_key: dict[str, list[Posting]] = {}
    for key, entries in _parse(raw, path, where, dict).items():
        if not isinstance(entries, list) or not entries:
            raise _malformed(path, f"{where}, key {key!r}: postings must be a non-empty array")
        pair = (dim, key)
        postings = []
        prev = None
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise _malformed(path, f"{where}, key {key!r}: {entry!r} is not a [doc_id, count] pair")
            doc_id, count = entry
            doc_labels = forward.get(doc_id) if isinstance(doc_id, str) else None
            if doc_labels is None:
                raise _malformed(path, f"{where}, key {key!r}: doc id {doc_id!r} is not in forward")
            if type(count) is not int or count < 1:
                raise _malformed(path, f"{where}, key {key!r}, doc {doc_id!r}: count {count!r} is not an integer >= 1")
            if prev is not None and doc_id <= prev:
                raise _malformed(path, f"{where}, key {key!r}: doc ids not strictly increasing at {doc_id!r}")
            prev = doc_id
            doc_labels.counts[pair] = count
            doc_labels.surfaces[pair] = {key}
            postings.append(Posting(doc_id, count))
        postings_by_key[key] = postings
    return postings_by_key


def _load_surfaces(surfaces: object, forward: dict[str, DocLabels], path: str | Path) -> None:
    """Overwrite the default ``{key}`` surface sets with the recorded ones."""
    if not isinstance(surfaces, dict):
        raise _malformed(path, "forward surfaces must be a JSON object")
    for doc_id, by_dim in surfaces.items():
        doc_labels = forward.get(doc_id)
        if doc_labels is None or not isinstance(by_dim, dict):
            raise _malformed(path, f"forward surfaces of doc {doc_id!r}: unknown doc or not an object")
        for dim, by_key in by_dim.items():
            if not isinstance(by_key, dict):
                raise _malformed(path, f"forward surfaces of doc {doc_id!r}, {dim}: not an object")
            for key, seen in by_key.items():
                if (dim, key) not in doc_labels.counts:
                    raise _malformed(path, f"forward surfaces of doc {doc_id!r}: no posting for ({dim}, {key!r})")
                doc_labels.surfaces[(dim, key)] = set(_str_list(seen, path, "a surface set"))


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
    corruption anywhere surfaces as ChecksumMismatch. Each document's
    labels are rebuilt from the postings: counts from the ``inverted``
    sections, surfaces from ``forward`` where recorded and ``{key}``
    otherwise. An unknown magic or version surfaces as
    FormatVersionMismatch; version-1 files must be rebuilt. So does a
    container whose CRC passes but whose content is malformed: a header
    or section of the wrong shape, a posting for a doc id missing from
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
    if set(forward_payload) != {"doc_ids", "surfaces"}:
        raise _malformed(path, "section forward must hold exactly doc_ids and surfaces")
    doc_ids = _str_list(forward_payload["doc_ids"], path, "forward doc_ids")
    forward = {doc_id: DocLabels(doc_id=doc_id) for doc_id in doc_ids}
    if len(forward) != len(doc_ids):
        raise _malformed(path, "forward doc_ids holds duplicates")

    dimensions = tuple(name[len(_INVERTED) :] for name in raw_sections if name.startswith(_INVERTED))
    inverted = {dim: _load_postings(raw_sections[_INVERTED + dim], dim, forward, path) for dim in dimensions}
    _load_surfaces(forward_payload["surfaces"], forward, path)
    label_vectors = _load_vectors(raw_sections["vectors"], path) if "vectors" in raw_sections else None

    vocab = {dim: set(postings_by_key) for dim, postings_by_key in inverted.items()}
    return HypercubeIndex(
        dimensions=dimensions,
        inverted=inverted,
        forward=forward,
        vocab=vocab,
        label_vectors=label_vectors,
    )

"""The label cube: per-dimension inverted indexes over normalized keys.

Conceptually the index is a multidimensional array with one axis per
dimension and one coordinate per label; materializing that array is
infeasible (the cell count is the product of the vocabulary sizes), so
cells are computed lazily by intersecting per-dimension posting lists.
Lookup cost depends on the label vocabulary, not the corpus size. What
any index may hold is judged by :class:`HypercubeIndex` alone:
:func:`load_index` only parses and :func:`save_index` only serializes.

The postings are immutable after :func:`build_index`; there is no
incremental update — rebuild to change them. An index writes one
thing: a dimension's first semantic scan derives its label vector table
and stores it in ``label_vectors`` (``embedding._vocab_vectors``). Reads
need no locking even so, since two concurrent first scans of a
dimension by one encoder derive the same table.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, _is_text
from .embedding import Encoder, LabelVectors
from .errors import ChecksumMismatch, FormatVersionMismatch, IoFailure, UnknownDimension, UnknownDocId
from .labeling import (
    CANONICAL_DIMENSIONS,
    Dimension,
    LabelAssignment,
    PhraseTable,
    _all_normalized,
    _count_fault,
    phrase_index,
)

_MAGIC = b"HRIX"
_FORMAT_VERSION = 7
_INVERTED = "inverted:"
# Ordinals and counts are held as int32; a label count must fit.
MAX_COUNT = 2**31 - 1
# The raw arrays of an ``inverted`` section, in file order, and the types
# one may be written in, narrowest first, each with the largest value it holds.
_ARRAYS = ("lengths", "docs", "counts")
_ARRAY_TYPES = {"<u1": 2**8 - 1, "<u2": 2**16 - 1, "<i4": MAX_COUNT}


class Posting(NamedTuple):
    doc_id: str
    count: int


class Postings:
    """One label's posting list as two parallel, read-only int32 arrays.

    ``ordinals[i]`` is a position in the index's sorted ``doc_ids`` and
    rises strictly, so the list runs in doc-id order; ``counts[i]`` is
    the label's occurrence count in that document. The arrays are views
    of a :class:`PostingTable`'s arrays, the only copy of the postings,
    made when the key is read. ``len`` is the posting count, iteration
    yields ``Posting(doc_id, count)`` with Python values, and two lists
    are equal when their arrays are.
    """

    __slots__ = ("doc_ids", "ordinals", "counts")

    def __init__(self, doc_ids: tuple[str, ...], ordinals: np.ndarray, counts: np.ndarray):
        self.doc_ids = doc_ids
        self.ordinals = ordinals
        self.counts = counts

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self) -> Iterator[Posting]:
        doc_ids = self.doc_ids
        return map(Posting, [doc_ids[o] for o in self.ordinals.tolist()], self.counts.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Postings):
            return NotImplemented
        return np.array_equal(self.ordinals, other.ordinals) and np.array_equal(self.counts, other.counts)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Postings({[tuple(p) for p in self]})"


def _frozen(values: object) -> np.ndarray:
    array = np.array(values, dtype=np.int32)
    array.flags.writeable = False
    return array


_NO_POSTINGS = Postings((), _frozen([]), _frozen([]))


class PostingTable(Mapping[str, Postings]):
    """One dimension's postings, held as its ``inverted`` section stores them.

    Key ``i``, in key order (sorted, from :func:`build_index` and
    :func:`load_index` alike), owns the next ``lengths[i]`` entries of
    ``ordinals`` and ``counts``, all three read-only int32 arrays; reading
    a key slices a :class:`Postings` view. ``get`` reads the key -> span
    dict directly, so an absent key costs one dict probe.
    """

    __slots__ = ("doc_ids", "lengths", "ordinals", "counts", "_spans")

    def __init__(
        self, doc_ids: tuple[str, ...], keys: list[str], lengths: np.ndarray, ordinals: np.ndarray, counts: np.ndarray
    ):
        self.doc_ids, self.lengths, self.ordinals, self.counts = doc_ids, lengths, ordinals, counts
        self._spans = dict(zip(keys, pairwise(accumulate(lengths.tolist(), initial=0))))  # key -> (start, end)

    def __getitem__(self, key: str) -> Postings:
        start, end = self._spans[key]
        return Postings(self.doc_ids, self.ordinals[start:end], self.counts[start:end])

    def get(self, key: str, default=None):
        span = self._spans.get(key)
        if span is None:
            return default
        start, end = span
        return Postings(self.doc_ids, self.ordinals[start:end], self.counts[start:end])

    def __iter__(self) -> Iterator[str]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def keys(self) -> KeysView[str]:
        return self._spans.keys()


@dataclass
class HypercubeIndex:
    """The document-to-label assignment, each fact held once.

    It is the inverted form of a :class:`~hyperrag.labeling.LabelAssignment`:
    :func:`build_index` sorts the assignment's records into posting
    lists, after which the assignment is not needed.

    ``doc_ids`` is the sorted tuple of every indexed document id,
    unlabeled ones included; a document's position in it is its ordinal,
    so ordinal order is doc-id order. ``inverted[dim]`` is a read-only
    :class:`PostingTable`, the only place a count is held; labels are
    held by their normalized keys only; ``dimensions``, derived, names
    the tables of ``inverted`` in order. ``__post_init__``, which every
    index passes through, is the one statement of what one may hold
    (ValueError): names as :func:`_check_dimensions` says; ``str`` doc
    ids rising strictly from a non-empty first one; per table, the
    index's ``doc_ids``, ``str`` keys rising strictly and
    :func:`_all_normalized`, integer arrays of lengths (each >= 1, one
    per key) that partition the postings, ordinals that index
    ``doc_ids`` and rise within a key, and counts from 1 to
    ``MAX_COUNT``; and vectors with a UTF-8 encoder name, a dim >= 1 and
    a checksum in [0, 2**32) per dimension.

    ``vocab[dim]`` is a view of the keys of ``inverted[dim]``, not a
    copy. ``phrase_dims`` and ``phrase_table`` are the
    :func:`~hyperrag.labeling.phrase_index` of ``vocab``, as of a
    gazetteer's phrases, built in ``__post_init__``; none is saved.
    ``label_vectors`` names the build encoder, the only one the index
    answers to, and checksums each dimension's table.
    """

    dimensions: tuple[Dimension, ...] = field(init=False)
    inverted: dict[Dimension, PostingTable]
    doc_ids: tuple[str, ...]
    label_vectors: LabelVectors | None = field(default=None)
    vocab: dict[Dimension, KeysView[str]] = field(init=False, repr=False, compare=False)
    phrase_dims: dict[str, tuple[Dimension, ...]] = field(init=False, repr=False, compare=False)
    phrase_table: PhraseTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dimensions = tuple(self.inverted)
        _check_dimensions(self.dimensions)
        doc_ids = self.doc_ids
        # The empty string sorts first, so rising ids after a non-empty first one are all non-empty.
        if not _rise_strictly(doc_ids, "doc id") or (doc_ids and not doc_ids[0]):
            raise ValueError("the doc ids must rise strictly from a non-empty first one")
        for dim, table in self.inverted.items():
            _check_table(dim, table, doc_ids)
        vectors = self.label_vectors
        if vectors is not None:
            if not _is_text(vectors.encoder_name):
                raise ValueError(f"encoder name {vectors.encoder_name!r} holds a lone surrogate")
            if set(vectors.checksums) != set(self.dimensions):
                raise ValueError(f"vectors checksums must name exactly the index dimensions {list(self.dimensions)}")
            if vectors.dim < 1 or not all(0 <= crc < 2**32 for crc in vectors.checksums.values()):
                raise ValueError(f"label vectors need a dim >= 1, not {vectors.dim}, and checksums in [0, 2**32)")
        self.vocab = {dim: table.keys() for dim, table in self.inverted.items()}
        self.phrase_dims, self.phrase_table = phrase_index(self.vocab)

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def label_key_count(self) -> int:
        return sum(len(keys) for keys in self.vocab.values())


def _rise_strictly(values: Sequence[str], what: str, where: str = "") -> bool:
    """Whether ``values`` rise strictly; ValueError naming a non-``str`` one, seen in the first or as a TypeError."""
    with contextlib.suppress(TypeError):
        if not values or isinstance(values[0], str):
            return all(map(operator.lt, values, values[1:]))
    bad = next(value for value in values if not isinstance(value, str))
    raise ValueError(f"{what} {bad!r}{where} is not a str")


def _check_dimensions(dims: tuple[Dimension, ...]) -> None:
    """Refuse a dimension name that is not a ``str``, is blank, holds a lone surrogate or is repeated (ValueError)."""
    for pos, dim in enumerate(dims):
        if not isinstance(dim, str):
            raise ValueError(f"dimension name {dim!r} is not a str")
        if not dim.strip():
            raise ValueError(f"dimension name {dim!r} is blank")
        if not _is_text(dim):
            raise ValueError(f"dimension name {dim!r} holds a lone surrogate")
        if dim in dims[:pos]:
            raise ValueError(f"dimension {dim!r} appears twice in {dims}")


def _check_range(array: np.ndarray, low: int, high: int, what: str) -> None:
    if not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{what} has dtype {array.dtype}, not an integer one")
    if len(array) and (array.min() < low or array.max() > high):
        raise ValueError(f"{what} holds a value outside [{low}, {high}]")


def _check_table(dim: Dimension, table: PostingTable, doc_ids: tuple[str, ...]) -> None:
    """One table's part of the :class:`HypercubeIndex` gate, on whole arrays; a refused key is named by the same rule."""
    # Built and loaded tables hold the index's own tuple, so only a hand-built one is compared id by id.
    if table.doc_ids is not doc_ids and table.doc_ids != doc_ids:
        raise ValueError(f"the postings of dimension {dim!r} are over other doc ids than the index's")
    keys = list(table)
    # The table holds a repeated key once, so it then has more lengths than keys.
    if not _rise_strictly(keys, "label key", f" in dimension {dim!r}") or len(keys) != len(table.lengths):
        raise ValueError(f"the keys of dimension {dim!r} are not strictly increasing")
    if not _all_normalized(keys):
        key = next(key for key in keys if not _all_normalized([key]))
        fault = "is empty or not normalized" if _is_text(key) else "holds a lone surrogate"
        raise ValueError(f"label key {key!r} in dimension {dim!r} {fault}")
    lengths, ordinals, counts = table.lengths, table.ordinals, table.counts
    total = int(lengths.sum(dtype=np.int64))
    if not total == len(ordinals) == len(counts):
        raise ValueError(f"dimension {dim!r}: lengths sum to {total}, over {len(ordinals)}/{len(counts)} postings")
    _check_range(lengths, 1, total, f"dimension {dim!r} lengths")
    _check_range(ordinals, 0, len(doc_ids) - 1, f"dimension {dim!r} ordinals")
    _check_range(counts, 1, MAX_COUNT, f"dimension {dim!r} counts")
    rising = ordinals[1:] > ordinals[:-1]
    ends = np.cumsum(lengths, dtype=np.int64)
    rising[ends[:-1] - 1] = True  # a new key may start lower
    if not rising.all():
        key = keys[int(np.searchsorted(ends, int(np.argmin(rising)) + 1, side="right"))]
        raise ValueError(f"dimension {dim!r}, key {key!r}: ordinals not strictly increasing")


def build_index(
    corpus: Corpus,
    labels: LabelAssignment,
    dimensions: Iterable[Dimension] | None = None,
    encoder: Encoder | None = None,
) -> HypercubeIndex:
    """Index a corpus under a label assignment.

    ``labels`` must be a :class:`~hyperrag.labeling.LabelAssignment`, as
    :func:`~hyperrag.labeling.extract_all` and
    :func:`~hyperrag.labeling.load_precomputed_labels` return and
    :meth:`~hyperrag.labeling.LabelAssignment.add` fills; any other value
    raises TypeError naming its type. Every doc id the assignment has
    seen must exist in the corpus (UnknownDocId).

    ``dimensions`` are the index's dimensions, in order; ``None`` means
    ``CANONICAL_DIMENSIONS``, so an extension dimension is named here or
    nowhere. This is the one place a label's dimension is checked: one
    outside ``dimensions`` raises UnknownDimension, whichever loader read
    it. Names and keys pass the :class:`HypercubeIndex` gate, names
    first; a key that is not a ``str`` raises ValueError before any sort.
    Documents without labels are listed in ``doc_ids`` and appear in no
    posting list.

    The records are inverted with whole-array passes, no loop per
    posting: doc numbers become ordinals with one ``take``, pairs are
    ranked by (dimension order, key), one ``np.lexsort`` orders the
    records by (pair, ordinal), one ``np.add.reduceat`` merges repeated
    ``(doc, dimension, key)`` records, summing in int64, ``np.bincount``
    gives each key's posting count, and each dimension's
    :class:`PostingTable` holds slices of these arrays. A merged count
    outside 1 to ``MAX_COUNT`` raises NonPositiveCount naming the
    dimension, key and doc. With an encoder, each dimension's label
    vectors are encoded only for their checksum; the index answers to it alone.
    """
    if not isinstance(labels, LabelAssignment):
        raise TypeError(f"labels must be a LabelAssignment, not {type(labels).__name__}")
    doc_ids = tuple(sorted(doc.id for doc in corpus))
    ordinal_of = dict(zip(doc_ids, range(len(doc_ids))))
    try:
        doc_ordinals = np.array([ordinal_of[doc_id] for doc_id in labels._docs], dtype=np.int32)
    except KeyError as exc:
        raise UnknownDocId(exc.args[0]) from None

    dims = CANONICAL_DIMENSIONS if dimensions is None else tuple(dimensions)
    _check_dimensions(dims)
    dim_pos = {dim: pos for pos, dim in enumerate(dims)}
    pairs = labels._pairs
    for dim, key in pairs:
        if dim not in dim_pos:
            raise UnknownDimension(dim)
        if not isinstance(key, str):
            raise ValueError(f"label key {key!r} in dimension {dim!r} is not a str")

    # Pair ids in (dimension order, key) order; rank[pair id] is a pair's place in it.
    by_rank = sorted(range(len(pairs)), key=lambda pair_id: (dim_pos[pairs[pair_id][0]], pairs[pair_id][1]))
    rank = np.empty(len(pairs), dtype=np.int32)
    rank[by_rank] = np.arange(len(pairs), dtype=np.int32)
    doc_col, pair_col, count_col = labels._columns()
    ordinals = doc_ordinals.take(doc_col)
    ranks = rank.take(pair_col)
    order = np.lexsort((ordinals, ranks))
    ordinals, ranks = ordinals[order], ranks[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordinals[1:] != ordinals[:-1]) | (ranks[1:] != ranks[:-1])
    starts = np.flatnonzero(first)
    counts = np.add.reduceat(count_col.take(order).astype(np.int64), starts)
    ordinals, ranks = ordinals[starts], ranks[starts]
    faulty = (counts < 1) | (counts > MAX_COUNT)
    if faulty.any():
        at = int(np.argmax(faulty))
        dim, key = pairs[by_rank[ranks[at]]]
        raise _count_fault(dim, key, doc_ids[ordinals[at]], int(counts[at]))
    lengths = _frozen(np.bincount(ranks, minlength=len(pairs)))
    ordinals, counts = _frozen(ordinals), _frozen(counts)

    keys_by_dim: dict[Dimension, list[str]] = {dim: [] for dim in dims}
    for pair_id in by_rank:
        dim, key = pairs[pair_id]
        keys_by_dim[dim].append(key)
    inverted = {}
    first_rank = start = 0
    for dim, keys in keys_by_dim.items():
        dim_lengths = lengths[first_rank : first_rank + len(keys)]
        end = start + int(dim_lengths.sum())
        inverted[dim] = PostingTable(doc_ids, keys, dim_lengths, ordinals[start:end], counts[start:end])
        first_rank += len(keys)
        start = end

    vectors = None
    if encoder is not None:
        from .embedding import build_label_vectors

        vectors = build_label_vectors(keys_by_dim, encoder)
    return HypercubeIndex(inverted=inverted, doc_ids=doc_ids, label_vectors=vectors)


def lookup(ix: HypercubeIndex, dim: Dimension, key: str) -> Postings:
    """Posting list of one label, in doc-id order; empty if the key (or dimension) is unseen.

    Two hash lookups and a slice of the stored arrays — cost independent
    of corpus size.
    """
    return ix.inverted[dim].get(key, _NO_POSTINGS) if dim in ix.inverted else _NO_POSTINGS


def cell_documents(ix: HypercubeIndex, coords: Mapping[Dimension, str]) -> list[str]:
    """Documents occupying the cube cell at the given coordinates, one key per dimension.

    The intersection of the coordinate posting lists' ordinals, as doc
    ids in sorted order; any coordinate with an empty posting list
    empties the cell.
    """
    if not coords:
        raise ValueError("cell address needs at least one coordinate")
    common = None
    for dim, key in coords.items():
        ordinals = lookup(ix, dim, key).ordinals
        common = ordinals if common is None else np.intersect1d(common, ordinals, assume_unique=True)
        if not len(common):
            return []
    return [ix.doc_ids[o] for o in common.tolist()]


def _canonical_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _replace_file(path: Path, chunks: list[bytes]) -> None:
    """Write ``chunks``, in order, to a fresh sibling of ``path``, then rename it over ``path``.

    Readers see the old file or the new one, never a partial write; the
    sibling is removed when anything fails before the rename.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with tmp.open("xb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _narrowest_type(array: np.ndarray) -> str:
    """The first of ``_ARRAY_TYPES`` that holds every value of a non-negative int32 array."""
    top = int(array.max()) if len(array) else 0
    return next(kind for kind, limit in _ARRAY_TYPES.items() if top <= limit)


def _postings_section(table: PostingTable) -> bytes:
    """One ``inverted`` section, the table's keys and arrays as held: a length-prefixed JSON part, then the arrays."""
    arrays = {"lengths": table.lengths, "docs": table.ordinals, "counts": table.counts}
    types = {name: _narrowest_type(array) for name, array in arrays.items()}
    head = _canonical_json({"keys": list(table), **types})
    return b"".join(
        [len(head).to_bytes(4, "big"), head, *(arrays[name].astype(types[name]).tobytes() for name in _ARRAYS)]
    )


def _forward_section(doc_ids: tuple[str, ...]) -> bytes:
    """``forward``: the doc ids joined by newlines, in UTF-8; ValueError naming an id that holds a newline or lone surrogate."""
    try:
        data = "\n".join(doc_ids).encode("utf-8")
    except UnicodeEncodeError:
        bad = next(doc_id for doc_id in doc_ids if not _is_text(doc_id))
        raise ValueError(f"doc id {bad!r} cannot be saved: it holds a lone surrogate, which UTF-8 cannot encode") from None
    # Counted on the bytes in NumPy: no multi-byte UTF-8 character holds the newline byte.
    if doc_ids and np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")) != len(doc_ids) - 1:
        bad = next(doc_id for doc_id in doc_ids if "\n" in doc_id)
        raise ValueError(f"doc id {bad!r} cannot be saved: an id may hold no newline")
    return data


def save_index(ix: HypercubeIndex, path: str | Path) -> None:
    """Write the index as a single-file container, replacing ``path`` atomically.

    Layout: magic ``HRIX``, a length-prefixed JSON header, length-prefixed
    sections, then a CRC-32 over everything before it; lengths are 4-byte
    big-endian. The header holds only ``version`` (7) and the ordered
    ``sections`` names. Each fact is stored once:

    * ``inverted:<DIM>``, one per dimension in index order: a
      length-prefixed JSON part ``{keys, lengths, docs, counts}``, whose
      ``keys`` are the :class:`PostingTable`'s keys in its order, and
      whose other three entries name the type of the raw array of that
      name; then the three arrays, back to back, in that order. Key ``i``
      owns the next ``lengths[i]`` entries of ``docs`` (doc ordinals,
      rising within a key) and ``counts``. Each array is little-endian,
      in the narrowest of ``<u1``, ``<u2`` and ``<i4`` that holds its
      largest value. The only place a count is written; the index's
      dimensions are read back from these section names.
    * ``forward``: every document id, sorted (unlabeled ones included),
      joined by ``"\\n"`` and encoded as UTF-8, and nothing else; no
      documents give an empty section. An ordinal is a position in it;
      save refuses only an id holding a newline or a lone surrogate, which
      UTF-8 cannot encode (ValueError naming it).
    * ``vectors``, when the index has label vectors: JSON ``{encoder,
      dim, checksums}``, one CRC-32 per dimension; no vector is written.

    Each table is written as held, unsorted and unchecked: the gate
    judged it. Keys are held sorted and each array's type comes from its
    values alone, so identical builds produce identical bytes, and a
    loaded index saves back to the bytes it was read from. The bytes go
    to a temporary sibling that is renamed over ``path`` once complete,
    so a failed write leaves the previous file intact.
    """
    vectors = ix.label_vectors
    sections = [(f"{_INVERTED}{dim}", _postings_section(ix.inverted[dim])) for dim in ix.dimensions]
    sections.append(("forward", _forward_section(ix.doc_ids)))
    if vectors is not None:
        payload = {"encoder": vectors.encoder_name, "dim": vectors.dim, "checksums": vectors.checksums}
        sections.append(("vectors", _canonical_json(payload)))
    header_bytes = _canonical_json({"version": _FORMAT_VERSION, "sections": [name for name, _ in sections]})

    # The file is written chunk by chunk, the CRC taken over them in turn: the parts are never joined.
    chunks = [_MAGIC]
    for payload in [header_bytes, *(payload for _name, payload in sections)]:
        chunks += [len(payload).to_bytes(4, "big"), payload]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.append(crc.to_bytes(4, "big"))
    try:
        _replace_file(Path(path), chunks)
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
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise _malformed(path, f"{what} must be an array of strings")
    return value


def _load_postings(raw: memoryview, dim: Dimension, doc_ids: tuple[str, ...], path: str | Path) -> PostingTable:
    """Parse one ``inverted:<DIM>`` section, checking its form and none of its values.

    The keys must be a JSON array of strings, each array type one of
    ``_ARRAY_TYPES``, and the arrays must fill the section exactly: one
    length per key, then as many ordinals as counts. What the keys and
    arrays hold is the :class:`HypercubeIndex` gate's to judge. The
    arrays are widened to int32 once and held as a :class:`PostingTable`.
    """
    where = f"section {_INVERTED}{dim}"
    head_end = 4 + int.from_bytes(raw[:4], "big")
    if head_end > len(raw):
        raise _malformed(path, f"{where}: its JSON part overruns the section")
    payload = _parse(raw[4:head_end], path, where, dict)
    if set(payload) != {"keys", *_ARRAYS}:
        raise _malformed(path, f"{where} must hold exactly keys, lengths, docs and counts")
    keys = _str_list(payload["keys"], path, f"{where} keys")
    types = {}
    for name in _ARRAYS:
        kind = payload[name]
        if type(kind) is not str or kind not in _ARRAY_TYPES:
            raise _malformed(path, f"{where} {name} type {kind!r} is not one of {', '.join(_ARRAY_TYPES)}")
        types[name] = np.dtype(kind)
    lengths_end = head_end + len(keys) * types["lengths"].itemsize
    n_postings, odd = divmod(len(raw) - lengths_end, types["docs"].itemsize + types["counts"].itemsize)
    if n_postings < 0 or odd:
        raise _malformed(path, f"{where}: the arrays do not fill the section's {len(raw) - head_end} bytes exactly")
    counts_start = lengths_end + n_postings * types["docs"].itemsize
    lengths = np.frombuffer(raw, types["lengths"], len(keys), head_end)
    docs = np.frombuffer(raw, types["docs"], n_postings, lengths_end)
    counts = np.frombuffer(raw, types["counts"], n_postings, counts_start)
    return PostingTable(doc_ids, keys, _frozen(lengths), _frozen(docs), _frozen(counts))


def _load_forward(raw: memoryview, path: str | Path) -> tuple[str, ...]:
    """The doc ids of a ``forward`` section: UTF-8 text, split on newlines; an empty section holds none."""
    try:
        text = str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise _malformed(path, f"section forward is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    return tuple(text.split("\n")) if text else ()


def _load_vectors(raw: memoryview, path: str | Path) -> LabelVectors:
    """The ``vectors`` section: exactly an encoder name, an integer dim and an object of integer checksums."""
    payload = _parse(raw, path, "section vectors", dict)
    if set(payload) != {"encoder", "dim", "checksums"}:
        raise _malformed(path, "section vectors must hold exactly encoder, dim and checksums")
    encoder_name, dim, checksums = payload["encoder"], payload["dim"], payload["checksums"]
    if not isinstance(encoder_name, str) or type(dim) is not int:
        raise _malformed(path, "section vectors needs an encoder name and an integer dim")
    if not isinstance(checksums, dict) or not all(type(crc) is int for crc in checksums.values()):
        raise _malformed(path, "vectors checksums must be an object of integers")
    return LabelVectors(encoder_name=encoder_name, dim=dim, checksums=checksums)


def load_index(path: str | Path) -> HypercubeIndex:
    """Read a container written by :func:`save_index`.

    The CRC is verified before anything is parsed, so truncation or
    corruption anywhere raises ChecksumMismatch. The loader only parses,
    building no per-key object: each ``inverted`` section's raw arrays
    are read with ``np.frombuffer`` and widened to the int32 arrays of a
    :class:`PostingTable`, ``doc_ids`` comes from ``forward`` with one
    decode and one split, and label vectors are left for scans to
    derive; the :class:`HypercubeIndex` gate judges every value, once.
    An unknown magic or version raises FormatVersionMismatch; files of
    versions 1 to 6 must be rebuilt.
    So does a container whose CRC passes but whose content is malformed:
    a header or section of the wrong shape, a section whose form
    :func:`_load_postings`, :func:`_load_forward` or :func:`_load_vectors`
    refuses, or content the gate refuses.
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

    doc_ids = _load_forward(raw_sections["forward"], path)
    dimensions = tuple(name[len(_INVERTED) :] for name in raw_sections if name.startswith(_INVERTED))
    inverted = {dim: _load_postings(raw_sections[_INVERTED + dim], dim, doc_ids, path) for dim in dimensions}
    vectors = _load_vectors(raw_sections["vectors"], path) if "vectors" in raw_sections else None
    try:
        return HypercubeIndex(inverted=inverted, doc_ids=doc_ids, label_vectors=vectors)
    except ValueError as exc:
        raise _malformed(path, str(exc)) from None

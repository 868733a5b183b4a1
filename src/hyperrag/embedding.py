"""Encoders and thresholded similarity search over label vocabularies.

Query components and cube labels are projected into one vector space by
an encoder behind a small contract: ``dim``, a ``name`` and a pure
``encode(text) -> unit vector``. Two implementations ship here:

* :class:`TrigramEncoder` — deterministic character-trigram hashing,
  no model weights, suitable for tests and desk-scale corpora.
* :class:`PrecomputedVectorEncoder` — a lookup over vectors computed
  offline by a real neural encoder and loaded from a file.

Anything honoring the contract plugs into retrieval unchanged.
"""

from __future__ import annotations

import json
import math
import operator
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Protocol, runtime_checkable

import numpy as np

from .corpus import _iter_records, _require, _str_field
from .errors import DimMismatch, EncoderMismatch, IoFailure, MalformedRecord, MissingKey, UnencodableText
from .labeling import Dimension, normalize_label

if TYPE_CHECKING:
    from .hypercube import HypercubeIndex

DEFAULT_EMBED_DIM = 256
DEFAULT_TAU = 0.9
_EPS = 2.0**-52  # the gap between 1.0 and the next float
_SUBNORMAL = 2.0**-1074  # the smallest float above zero
_TRIGRAM_MEMO_ENTRIES = 2**14  # the most trigrams one TrigramEncoder's memo holds


@runtime_checkable
class Encoder(Protocol):
    """Contract for text encoders: pure, deterministic, unit-norm output."""

    name: str
    dim: int

    def encode(self, text: str) -> np.ndarray: ...


class TrigramEncoder:
    """Character-trigram hashing encoder.

    Each trigram of the normalized text is hashed to a bucket in
    ``[0, dim)`` and to a sign, accumulated, then L2-normalized. Same
    text always yields the identical vector (CRC-32 hashing, no process
    salt). The signed counts are summed as Python integers, the norm is
    ``sqrt`` of their exact sum of squares, and only the nonzero buckets
    are divided by it, each division correctly rounded as NumPy's is.
    So every bit equals adding each sign into a float bucket and
    dividing the whole vector by ``np.linalg.norm``, the formula saved
    indexes were checksummed with: the counts and their squares are
    small integers, which floats hold exactly. Raises
    UnencodableText for inputs shorter than 3 characters after
    normalization, for text holding a lone surrogate (which has no
    UTF-8 bytes to hash), or in the degenerate case where signed buckets
    cancel to an exact zero vector.

    Each encoder keeps a memo from trigram to its ``(bucket, sign)``, so
    a trigram is hashed once however many texts hold it. The memo takes
    the first ``_TRIGRAM_MEMO_ENTRIES`` (2**14) distinct trigrams it
    hashes and no more; at about 150 bytes an entry that is about
    2.5 MiB at worst. A trigram with a lone surrogate raises before it
    is stored. ``dim`` is read-only, so the memo's buckets are always
    this encoder's. The memo only saves work: ``encode`` stays a pure
    function of its text, the same bits with the memo cold or warm.
    Concurrent encodes need no lock: an entry depends on its trigram
    alone, so a race stores the same value twice, and can take the memo
    past its bound by at most one entry per other thread.
    """

    name = "trigram"

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim < 1:
            raise ValueError("embedding dim must be >= 1")
        self._dim = dim
        self._memo: dict[str, tuple[int, int]] = {}

    @property
    def dim(self) -> int:
        return self._dim

    def encode(self, text: str) -> np.ndarray:
        key = normalize_label(text)
        if len(key) < 3:
            raise UnencodableText(text)
        memo = self._memo
        counts: dict[int, int] = {}
        for i in range(len(key) - 2):
            tri = key[i : i + 3]
            hashed = memo.get(tri)
            if hashed is None:
                hashed = self._hash(tri, text)
            bucket, sign = hashed
            counts[bucket] = counts.get(bucket, 0) + sign
        signed = list(counts.values())
        norm = math.sqrt(sum(map(operator.mul, signed, signed)))
        if norm == 0.0:
            raise UnencodableText(text, reason="signed trigram buckets cancel to a zero vector")
        values = np.zeros(self._dim, dtype=np.float64)
        for bucket, count in counts.items():
            values[bucket] = count / norm
        return values

    def _hash(self, tri: str, text: str) -> tuple[int, int]:
        """The bucket and sign of one trigram of ``text``, stored in the memo while it has room."""
        try:
            raw = tri.encode("utf-8")
        except UnicodeEncodeError:
            raise UnencodableText(text, reason="it holds a lone surrogate, which UTF-8 cannot encode") from None
        hashed = (zlib.crc32(raw) % self._dim, 1 if zlib.crc32(raw, 1) & 1 else -1)
        if len(self._memo) < _TRIGRAM_MEMO_ENTRIES:
            self._memo[tri] = hashed
        return hashed


class PrecomputedVectorEncoder:
    """Encoder backed by a key -> vector table loaded from a file.

    ``dim`` is the length of the table's vectors, which must all be
    equal: the first vector sets it, and one of another length raises
    DimMismatch naming its key. An empty table sets no length
    (ValueError). ``encode`` looks up the normalized text; keys absent
    from the table raise MissingKey: :func:`build_index` refuses a label
    key without a vector, and retrieval treats such a component as
    unmatched.
    """

    name = "precomputed"

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValueError("no vectors, so no vector length")
        self._vectors = dict(vectors)
        self.dim = len(next(iter(self._vectors.values())))
        for key, vector in self._vectors.items():
            if len(vector) != self.dim:
                raise DimMismatch(self.dim, len(vector), f"the vector of {key!r}")

    def encode(self, text: str) -> np.ndarray:
        key = normalize_label(text)
        try:
            return self._vectors[key]
        except KeyError:
            raise MissingKey(key) from None


class LabelTable(NamedTuple):
    """One dimension's label vectors as one encoder derives them.

    ``keys`` are the dimension's encodable keys, sorted; row ``i`` of
    ``matrix`` is the vector of ``keys[i]``. ``by_bucket`` is
    ``matrix.T`` made contiguous, so the rows of a query's nonzero
    buckets are gathered in one take, and ``largest`` is the largest
    absolute entry of ``matrix``, which bounds the rounding of any
    product with it (:func:`semantic_neighbors`).
    """

    keys: list[str]
    matrix: np.ndarray
    encoder: Encoder
    by_bucket: np.ndarray
    largest: float


@dataclass
class LabelVectors:
    """The encoder an index was built with, the only one it answers to, and the tables derived with it.

    The identity, and all a container stores, is ``(encoder_name, dim,
    checksums)``: one CRC-32 per index dimension over its encodable keys
    and float64 rows. ``by_dimension`` holds the :class:`LabelTable` of
    each dimension a scan has derived, none after :func:`build_index`
    or :func:`load_index`. Keys the encoder cannot encode (UnencodableText)
    are left out; they can still match exactly but never semantically. A
    key a precomputed encoder lacks fails the build (MissingKey).
    """

    encoder_name: str
    dim: int
    checksums: dict[Dimension, int]
    by_dimension: dict[Dimension, LabelTable] = field(default_factory=dict, repr=False, compare=False)


def _encode_keys(keys: Iterable[str], encoder: Encoder) -> tuple[list[str], np.ndarray, int]:
    """The keys ``encoder`` encodes (not UnencodableText ones), sorted, their float64 rows, and the CRC-32 over both."""
    encoded, rows = [], []
    for key in sorted(keys):
        try:
            rows.append(encoder.encode(key))
        except UnencodableText:
            continue
        encoded.append(key)
    matrix = np.vstack(rows) if rows else np.zeros((0, encoder.dim), dtype=np.float64)
    crc = zlib.crc32(json.dumps(encoded, ensure_ascii=False, separators=(",", ":")).encode("utf-8"))
    return encoded, matrix, zlib.crc32(np.ascontiguousarray(matrix, dtype="<f8").tobytes(), crc)


def build_label_vectors(vocab: Mapping[Dimension, Iterable[str]], encoder: Encoder) -> LabelVectors:
    """Checksum each dimension's label vector table, as :func:`_encode_keys` derives it; no table is kept."""
    return LabelVectors(encoder.name, encoder.dim, {dim: _encode_keys(vocab[dim], encoder)[2] for dim in sorted(vocab)})


def check_encoder_and_tau(ix: "HypercubeIndex", encoder: Encoder | None, tau: float) -> None:
    """Refuse a tau outside [0, 1] (ValueError) and a query encoder the index was not built with.

    The encoder goes through :func:`check_encoder_identity`; no encoder
    passes. The check reads no query text.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if encoder is not None:
        check_encoder_identity(ix, encoder.name, encoder.dim)


def check_encoder_identity(ix: "HypercubeIndex", name: str, dim: int) -> None:
    """Refuse an encoder of another ``dim`` (DimMismatch) or ``name`` (EncoderMismatch) than the index's.

    An index built without an encoder refuses every encoder (EncoderMismatch).
    """
    vectors = ix.label_vectors
    if vectors is None:
        raise EncoderMismatch(
            f"the index was built without an encoder, so no label vectors answer {name!r} (dim {dim}); "
            "rebuild it with an encoder, or query with encoder=None for exact matches only"
        )
    if (vectors.dim, vectors.encoder_name) == (dim, name):
        return
    detail = (
        f"the index's label vectors come from encoder {vectors.encoder_name!r} (dim {vectors.dim}), "
        f"the query encoder is {name!r} (dim {dim}); "
        "query with the build encoder or rebuild the index"
    )
    if vectors.dim != dim:
        raise DimMismatch(vectors.dim, dim, detail)
    raise EncoderMismatch(detail)


def _vocab_vectors(ix: "HypercubeIndex", dim: Dimension, encoder: Encoder) -> LabelTable:
    """The index's :class:`LabelTable` for one of its dimensions, derived on the dimension's first scan by ``encoder``.

    The only way a table enters any index; it is kept for that encoder
    object only. The encoder must pass :func:`check_encoder_and_tau` and
    ``dim`` be an index dimension; an encoder that lacks one of the
    dimension's keys (MissingKey), or whose table misses the dimension's
    checksum, raises EncoderMismatch naming it.
    """
    vectors = ix.label_vectors
    table = vectors.by_dimension.get(dim)
    if table is None or table.encoder is not encoder:
        try:
            keys, matrix, crc = _encode_keys(ix.vocab[dim], encoder)
        except MissingKey:
            crc = None
        if crc != vectors.checksums[dim]:
            raise EncoderMismatch(
                f"the query encoder {encoder.name!r} (dim {encoder.dim}) does not reproduce the index's "
                f"label vectors of dimension {dim!r}; query with the build encoder or rebuild the index"
            )
        largest = float(np.abs(matrix).max(initial=0.0))
        table = vectors.by_dimension[dim] = LabelTable(keys, matrix, encoder, np.ascontiguousarray(matrix.T), largest)
    return table


def semantic_neighbors(
    component: str,
    dim: Dimension,
    ix: "HypercubeIndex",
    encoder: Encoder,
    tau: float,
) -> list[tuple[str, float]]:
    """Labels of one dimension whose similarity to the component reaches tau.

    Exhaustive over the dimension's vocabulary: one encode, then the
    dense ``matrix @ query_vec`` over every row, unless a cheaper bound
    shows that no row can reach tau. Results are ``(key, sim)`` with
    sim >= tau, a Python float capped at 1.0 (rounding can lift a
    product of unit vectors just above it), sorted by similarity
    descending then key ascending. Only the hits are capped: for tau in
    [0, 1] a sim reaches tau after capping exactly when it does before.
    tau and the encoder are checked first, by
    :func:`check_encoder_and_tau`; a dimension the index lacks yields
    ``[]`` unencoded, and encoding failures for the component propagate.

    The bound is taken when at most a quarter of the query vector's
    buckets are nonzero, as for a trigram query: every row's product is
    summed over those buckets alone, from ``by_bucket``. It only ever
    returns ``[]``, and only when the dense product would too, so every
    result is the dense product's, bit for bit.
    """
    check_encoder_and_tau(ix, encoder, tau)
    if dim not in ix.vocab:
        return []
    query_vec = encoder.encode(component)
    table = _vocab_vectors(ix, dim, encoder)
    buckets = query_vec.nonzero()[0]
    n = len(query_vec)
    if table.keys and 4 * len(buckets) <= n:
        weights = query_vec[buckets]
        bound = weights.dot(table.by_bucket.take(buckets, 0))
        # Row r's exact product s_r is a sum of the terms q_j * m_rj over
        # the nonzero buckets j; every other term is an exact zero, which
        # adds no rounding. Summed in any order, with or without fused
        # multiply-adds, n = len(q) terms land within
        # gamma_n * sum_j |q_j * m_rj| + n * 2**-1075 of s_r (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
        # section 3.1; the second term is products that underflow), where
        # gamma_n = n*u / (1 - n*u) <= n * eps for u = eps / 2, and
        # sum_j |q_j * m_rj| <= ||q||_1 * largest. So row r's dense sim
        # and its bound differ by at most 2*n*eps*||q||_1*largest +
        # n * 2**-1074, and the slack is twice that, a margin for the
        # rounding of the slack itself. No vector need be unit length. If
        # the bound's largest value plus the slack, rounded, lies below
        # tau, then so does it exactly (rounding is monotone and tau is a
        # float), and no dense sim reaches tau. A NaN or infinity anywhere
        # makes the test false, and the dense product runs.
        best = bound[bound.argmax()]
        slack = n * (4 * _EPS * sum(map(abs, weights.tolist())) * table.largest + 2 * _SUBNORMAL)
        if best + slack < tau:
            return []
    sims = table.matrix @ query_vec
    rows = (sims >= tau).nonzero()[0]
    hits = [(table.keys[row], min(sim, 1.0)) for row, sim in zip(rows.tolist(), sims[rows].tolist())]
    if len(hits) > 1:
        hits.sort(key=lambda kv: (-kv[1], kv[0]))
    return hits


def load_precomputed_vectors(path: str | Path, expected_keys: Iterable[str]) -> dict[str, np.ndarray]:
    """Load a line-delimited vectors file (keys ``key``, optional ``dim``, ``values``).

    The first record fixes the vector length. A later record that holds
    another number of values, or any record whose ``dim`` differs from
    its number of values, raises DimMismatch naming its line, its key and
    the figure at fault; ``values`` must be an array of numbers
    (MalformedRecord). Keys are normalized, and a key given twice (in
    any spelling) is a MalformedRecord naming its second line. A file
    that holds no vector raises IoFailure naming it. Vectors are
    L2-normalized on ingest. Every expected key must be present
    (MissingKey).
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, obj in _iter_records(path):
        key = normalize_label(_str_field(obj, "key", line_no))
        if key in vectors:
            raise MalformedRecord(line_no, f"key {key!r} appears twice (keys are compared normalized)")
        values = _require(obj, "values", line_no)
        if not isinstance(values, list):
            raise MalformedRecord(line_no, f"values of {key!r} must be an array")
        if dim is None:
            dim = len(values)
        if len(values) != dim:
            raise DimMismatch(dim, len(values), f"line {line_no}: {key!r} holds {len(values)} values")
        declared = obj.get("dim", dim)
        if declared != dim:
            raise DimMismatch(dim, declared, f"line {line_no}: {key!r} declares dim {declared!r}")
        if not all(type(x) in (int, float) for x in values):
            raise MalformedRecord(line_no, f"values of {key!r} must all be numbers")
        try:
            arr = np.asarray(values, dtype=np.float64)
        except OverflowError:
            raise MalformedRecord(line_no, f"values of {key!r} overflow a float") from None
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not np.all(np.isfinite(arr)):
            raise UnencodableText(key, reason="zero or non-finite vector in file")
        vectors[key] = arr / norm
    if not vectors:
        raise IoFailure(f"{path}: the vectors file holds no vector, so it sets no vector length")
    for key in expected_keys:
        norm_key = normalize_label(key)
        if norm_key not in vectors:
            raise MissingKey(norm_key)
    return vectors

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

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, runtime_checkable

import numpy as np

from .corpus import _as_str, _iter_records, _require
from .errors import DimMismatch, MissingKey, UnencodableText
from .labeling import Dimension, normalize_label

if TYPE_CHECKING:
    from .hypercube import HypercubeIndex

DEFAULT_EMBED_DIM = 256
DEFAULT_TAU = 0.9


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
    salt). Raises UnencodableText for inputs shorter than 3 characters
    after normalization, or in the degenerate case where signed buckets
    cancel to an exact zero vector.
    """

    name = "trigram"

    def __init__(self, dim: int = DEFAULT_EMBED_DIM):
        if dim < 1:
            raise ValueError("embedding dim must be >= 1")
        self.dim = dim

    def encode(self, text: str) -> np.ndarray:
        key = normalize_label(text)
        if len(key) < 3:
            raise UnencodableText(text)
        values = np.zeros(self.dim, dtype=np.float64)
        for i in range(len(key) - 2):
            tri = key[i : i + 3].encode("utf-8")
            bucket = zlib.crc32(tri) % self.dim
            sign = 1.0 if zlib.crc32(tri, 1) & 1 else -1.0
            values[bucket] += sign
        norm = float(np.linalg.norm(values))
        if norm == 0.0:
            raise UnencodableText(text, reason="signed trigram buckets cancel to a zero vector")
        return values / norm


class PrecomputedVectorEncoder:
    """Encoder backed by a key -> vector table loaded from a file.

    ``encode`` looks up the normalized text; keys absent from the table
    raise MissingKey (retrieval treats such components as unmatched).
    """

    name = "precomputed"

    def __init__(self, vectors: Mapping[str, np.ndarray], dim: int):
        self.dim = dim
        self._vectors = dict(vectors)

    def encode(self, text: str) -> np.ndarray:
        key = normalize_label(text)
        try:
            return self._vectors[key]
        except KeyError:
            raise MissingKey(key) from None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of unit vectors, clamped to [-1, 1]."""
    if a.shape != b.shape:
        raise DimMismatch(int(a.shape[0]), int(b.shape[0]))
    return float(np.clip(np.dot(a, b), -1.0, 1.0))


@dataclass
class LabelVectors:
    """Per-dimension vector table for an index's label vocabulary.

    Built once at index time so a query pays only one encode plus one
    vocabulary scan. Keys that the encoder cannot embed are left out;
    they can still match exactly but never semantically.
    """

    encoder_name: str
    dim: int
    by_dimension: dict[Dimension, tuple[list[str], np.ndarray]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelVectors):
            return NotImplemented
        if self.encoder_name != other.encoder_name or self.dim != other.dim:
            return False
        if set(self.by_dimension) != set(other.by_dimension):
            return False
        for dim, (keys, matrix) in self.by_dimension.items():
            other_keys, other_matrix = other.by_dimension[dim]
            if keys != other_keys or not np.array_equal(matrix, other_matrix):
                return False
        return True


def build_label_vectors(vocab: Mapping[Dimension, Iterable[str]], encoder: Encoder) -> LabelVectors:
    """Encode every encodable label key of every dimension."""
    by_dimension: dict[Dimension, tuple[list[str], np.ndarray]] = {}
    for dim in sorted(vocab):
        keys, rows = [], []
        for key in sorted(vocab[dim]):
            try:
                rows.append(encoder.encode(key))
            except (UnencodableText, MissingKey):
                continue
            keys.append(key)
        matrix = np.vstack(rows) if rows else np.zeros((0, encoder.dim), dtype=np.float64)
        by_dimension[dim] = (keys, matrix)
    return LabelVectors(encoder_name=encoder.name, dim=encoder.dim, by_dimension=by_dimension)


def _vocab_vectors(ix: "HypercubeIndex", dim: Dimension, encoder: Encoder) -> tuple[list[str], np.ndarray]:
    """Vectors for one dimension's vocabulary, preferring the tables baked into the index."""
    baked = ix.label_vectors
    if baked is not None and baked.encoder_name == encoder.name and baked.dim == encoder.dim:
        entry = baked.by_dimension.get(dim)
        if entry is not None:
            return entry
    cache = ix._vector_cache
    cache_key = (encoder.name, encoder.dim, dim)
    if cache_key not in cache:
        built = build_label_vectors({dim: ix.vocab.get(dim, set())}, encoder)
        cache[cache_key] = built.by_dimension[dim]
    return cache[cache_key]


def semantic_neighbors(
    component: str,
    dim: Dimension,
    ix: "HypercubeIndex",
    encoder: Encoder,
    tau: float,
) -> list[tuple[str, float]]:
    """Labels of one dimension whose similarity to the component reaches tau.

    Exhaustive scan over the dimension's vocabulary; results are
    ``(key, sim)`` with sim >= tau, sorted by similarity descending then
    key ascending. Encoding failures for the component propagate.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    query_vec = encoder.encode(component)
    keys, matrix = _vocab_vectors(ix, dim, encoder)
    if not keys:
        return []
    sims = np.clip(matrix @ query_vec, -1.0, 1.0)
    hits = [(key, float(sim)) for key, sim in zip(keys, sims) if sim >= tau]
    hits.sort(key=lambda kv: (-kv[1], kv[0]))
    return hits


def load_precomputed_vectors(
    path: str | Path,
    expected_keys: Iterable[str],
    dim: int = DEFAULT_EMBED_DIM,
) -> dict[str, np.ndarray]:
    """Load a line-delimited vectors file (keys ``key``, ``dim``, ``values``).

    Vectors are L2-normalized on ingest. Every expected key must be
    present (MissingKey) and every vector must have the declared length
    (DimMismatch).
    """
    vectors: dict[str, np.ndarray] = {}
    for line_no, obj in _iter_records(path):
        key = normalize_label(_as_str(_require(obj, "key", line_no), line_no, "key"))
        declared = obj.get("dim", dim)
        values = _require(obj, "values", line_no)
        if not isinstance(values, list):
            raise DimMismatch(dim, 0)
        if declared != dim or len(values) != dim:
            raise DimMismatch(dim, len(values))
        arr = np.asarray(values, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0 or not np.all(np.isfinite(arr)):
            raise UnencodableText(key, reason="zero or non-finite vector in file")
        vectors[key] = arr / norm
    for key in expected_keys:
        norm_key = normalize_label(key)
        if norm_key not in vectors:
            raise MissingKey(norm_key)
    return vectors

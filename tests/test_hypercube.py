from __future__ import annotations

import builtins
import dataclasses
import io
import json
import re
import time
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    assignment_of,
    decode_inverted,
    encode_inverted,
    random_labeled_corpus,
    raw_sections,
    read_container,
    write_container,
)
from oracles import brute_cell, brute_score
from hyperrag import (
    CANONICAL_DIMENSIONS,
    ChecksumMismatch,
    Corpus,
    DocLabels,
    Document,
    FormatVersionMismatch,
    HyperRagError,
    IoFailure,
    LabelAssignment,
    NonPositiveCount,
    Posting,
    TrigramEncoder,
    UnknownDimension,
    UnknownDocId,
    build_index,
    cell_documents,
    load_index,
    lookup,
    normalize_label,
    save_index,
)
from hyperrag import hypercube as hypercube_mod
from hyperrag.embedding import LabelVectors, _encode_keys
from hyperrag.hypercube import MAX_COUNT, HypercubeIndex
from hyperrag.retrieval import EXACT, SEMANTIC, MatchEvidence, rank, retrieve, score_documents


class TestBuildIndex:
    def test_fixture_event_postings(self, hurricane_index):
        assert list(hurricane_index.inverted["EVENT"]["tropical storm fay"]) == [
            Posting("246", 1),
            Posting("565", 1),
        ]

    def test_hand_built_index_passes_the_same_gate(self, hurricane_index):
        ix = hurricane_index
        renamed = dataclasses.replace(ix.label_vectors, encoder_name="trigram\ud800")
        with pytest.raises(ValueError, match=re.escape("encoder name 'trigram\\ud800' holds a lone surrogate")):
            dataclasses.replace(ix, label_vectors=renamed)
        # Scans look a dimension's checksum up, so an index without one would fail there with a KeyError.
        unchecked = dataclasses.replace(ix.label_vectors, checksums={})
        with pytest.raises(ValueError, match="checksums must name exactly the index dimensions"):
            dataclasses.replace(ix, label_vectors=unchecked)
        table = ix.inverted["LOCATION"]
        keys = list(table)[::-1]
        unsorted = hypercube_mod.PostingTable(ix.doc_ids, keys, table.lengths, table.ordinals, table.counts)
        with pytest.raises(ValueError, match="keys of dimension 'LOCATION' are not strictly increasing"):
            HypercubeIndex(inverted={"LOCATION": unsorted}, doc_ids=ix.doc_ids)

    def test_empty_label_map(self, hurricane_corpus):
        ix = build_index(hurricane_corpus, LabelAssignment())
        assert all(not keys for keys in ix.vocab.values())
        assert ix.doc_ids == ("246", "535", "565")

    def test_labels_must_be_an_assignment(self, hurricane_corpus, hurricane_labels):
        for labels in ({}, dict(hurricane_labels)):
            with pytest.raises(TypeError, match="labels must be a LabelAssignment, not dict"):
                build_index(hurricane_corpus, labels)

    def test_single_doc_single_label(self):
        corpus = Corpus([Document(id="d1", text="storm ahead")])
        labels = LabelAssignment()
        labels.add("d1", "THEME", "storm")
        ix = build_index(corpus, labels)
        assert list(ix.inverted["THEME"]["storm"]) == [Posting("d1", 1)]
        assert ix.vocab["THEME"] == {"storm"}

    def test_unknown_doc_id(self, hurricane_corpus):
        stray = LabelAssignment()
        stray.add("999", "THEME", "rain")
        with pytest.raises(UnknownDocId):
            build_index(hurricane_corpus, stray)

    def test_count_range(self, tmp_path):
        # Counts are held as int32: the largest one round-trips, one more is a data error.
        corpus = Corpus([Document(id="d1", text="storm ahead")])
        labels = LabelAssignment()
        labels.add("d1", "THEME", "storm", 2**31 - 1)
        ix = build_index(corpus, labels)
        path = tmp_path / "ix.hcix"
        save_index(ix, path)
        assert list(lookup(load_index(path), "THEME", "storm")) == [Posting("d1", 2**31 - 1)]
        labels.add("d1", "THEME", "storm", 1)
        with pytest.raises(NonPositiveCount):
            build_index(corpus, labels)

    def test_label_dimension_outside_dimensions_rejected(self, hurricane_corpus, hurricane_labels):
        stray = LabelAssignment()
        stray.add("565", "HAZARD", "breach")
        # No dimensions means the canonical ones, so an extension is named or refused.
        for labels, dimensions in ((stray, None), (hurricane_labels, ["LOCATION", "THEME"])):
            with pytest.raises(UnknownDimension) as excinfo:
                build_index(hurricane_corpus, labels, dimensions=dimensions)
            assert excinfo.value.name not in (dimensions or CANONICAL_DIMENSIONS)
        ix = build_index(hurricane_corpus, stray, dimensions=CANONICAL_DIMENSIONS + ("HAZARD",))
        assert ix.dimensions == CANONICAL_DIMENSIONS + ("HAZARD",)
        assert list(lookup(ix, "HAZARD", "breach")) == [Posting("565", 1)]

    @pytest.mark.parametrize("dimensions", [("THEME", "THEME"), ("LOCATION", "HAZARD", "HAZARD")])
    def test_repeated_dimension_rejected(self, hurricane_corpus, dimensions):
        # A repeated dimension would write two sections of one name,
        # which the loader rejects.
        with pytest.raises(ValueError, match="twice"):
            build_index(hurricane_corpus, LabelAssignment(), dimensions=dimensions)

    @pytest.mark.parametrize(
        "name, fault",
        [("", "is blank"), (" ", "is blank"), ("\t\n", "is blank"), ("THEME\ud800", "holds a lone surrogate")],
        ids=["", " ", "\t\n", "surrogate"],
    )
    def test_blank_dimension_rejected(self, hurricane_corpus, name, fault):
        # No container can name a dimension UTF-8 cannot encode, so build_index refuses it as it does a blank one.
        with pytest.raises(ValueError, match=re.escape(f"dimension name {name!r} {fault}")):
            build_index(hurricane_corpus, LabelAssignment(), dimensions=("THEME", name))

    @pytest.mark.parametrize("key", ["Rain.", "RAIN", " rain", "heavy  rain", "r\ud800ain"])
    def test_unnormalized_key_rejected(self, key):
        # load_index refuses a key that is not its own normalize_label, and
        # no query can reach one, so build_index refuses it before any save;
        # likewise a key UTF-8 cannot encode, which no container can hold.
        corpus = Corpus([Document(id="d1", text="rain ahead")])
        labels = LabelAssignment()
        labels.add("d1", "THEME", "rain")
        labels.add("d1", "THEME", key)
        with pytest.raises(ValueError, match=re.escape(f"{key!r} in dimension 'THEME'")):
            build_index(corpus, labels)

    @pytest.mark.parametrize("key", [5, ("heavy", "rain")])
    def test_key_that_is_not_a_str_rejected(self, key):
        # add takes any hashable key; build_index names the one it cannot
        # index, next to a str key it would have to sort and join it with.
        corpus = Corpus([Document(id="d1", text="rain ahead")])
        labels = LabelAssignment()
        labels.add("d1", "THEME", "rain")
        labels.add("d1", "THEME", key)
        with pytest.raises(ValueError, match=re.escape(f"{key!r} in dimension 'THEME' is not a str")):
            build_index(corpus, labels)

    def test_posting_lists_sorted(self, hurricane_index):
        for postings_by_key in hurricane_index.inverted.values():
            for postings in postings_by_key.values():
                ids = [p.doc_id for p in postings]
                assert ids == sorted(ids)
                assert len(set(ids)) == len(ids)


class TestLookup:
    def test_theme_rain(self, hurricane_index):
        assert list(lookup(hurricane_index, "THEME", "rain")) == [Posting("565", 5)]

    def test_unseen_key(self, hurricane_index):
        assert list(lookup(hurricane_index, "THEME", "blizzard")) == []
        assert list(lookup(hurricane_index, "NOPE", "rain")) == []

    def test_location_florida(self, hurricane_index):
        assert list(lookup(hurricane_index, "LOCATION", "florida")) == [
            Posting("246", 1),
            Posting("535", 1),
        ]

    def test_latency_corpus_size_independent(self):
        # Mean lookup time on a 10x corpus stays within 1.5x of the 1x
        # corpus (best of several trials to shed scheduler noise). The
        # trials alternate between the two corpora, so a change in host
        # speed during the test reaches both sides alike.
        def build_sized(n_docs):
            docs = [Document(id=f"d{i:05d}", text="storm text") for i in range(n_docs)]
            labels = LabelAssignment()
            for i, doc in enumerate(docs):
                labels.add(doc.id, "THEME", f"label{i % 50}")
            return build_index(Corpus(docs), labels)

        small, large = build_sized(200), build_sized(2000)

        def mean_ns(ix):
            start = time.perf_counter_ns()
            for i in range(20000):
                lookup(ix, "THEME", f"label{i % 50}")
            return (time.perf_counter_ns() - start) / 20000

        best_small = best_large = float("inf")
        for _trial in range(5):
            best_small = min(best_small, mean_ns(small))
            best_large = min(best_large, mean_ns(large))
        ratio = best_large / best_small
        assert ratio <= 1.5, f"lookup slowed {ratio:.2f}x on the 10x corpus"


class TestCellDocuments:
    def test_full_address(self, hurricane_index):
        addr = {"LOCATION": "melbourne beach", "EVENT": "tropical storm fay", "THEME": "rain"}
        assert cell_documents(hurricane_index, addr) == ["565"]

    def test_single_coordinate_degenerates_to_lookup(self, hurricane_index):
        docs = cell_documents(hurricane_index, {"LOCATION": "florida"})
        assert docs == [p.doc_id for p in lookup(hurricane_index, "LOCATION", "florida")]

    def test_disjoint_coordinates(self, hurricane_index):
        assert cell_documents(
            hurricane_index, {"LOCATION": "melbourne beach", "THEME": "nonexistent"}
        ) == []
        # melbourne beach is only on 565, florida only on 246/535.
        assert cell_documents(
            hurricane_index, {"LOCATION": "melbourne beach"}
        ) == ["565"]

    def test_empty_address_rejected(self, hurricane_index):
        with pytest.raises(ValueError):
            cell_documents(hurricane_index, {})

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(11)
        for _case in range(60):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=40)
            ix = build_index(corpus, assignment_of(labels))
            dims = [d for d in vocab if vocab[d]]
            if not dims:
                continue
            n_coords = int(rng.integers(1, min(3, len(dims)) + 1))
            picked = list(rng.choice(dims, size=n_coords, replace=False))
            coords = {d: vocab[d][int(rng.integers(0, len(vocab[d])))] for d in picked}
            assert cell_documents(ix, coords) == brute_cell(labels, coords)


class TestPersistence:
    def test_round_trip_fixture(self, hurricane_index, tmp_path):
        path = tmp_path / "fixture.hcix"
        save_index(hurricane_index, path)
        loaded = load_index(path)
        assert loaded == hurricane_index
        # A loaded index is saved as it is held, so it gives back the same bytes.
        again = tmp_path / "again.hcix"
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_byte_deterministic(self, hurricane_index, tmp_path):
        first, second = tmp_path / "a.hcix", tmp_path / "b.hcix"
        save_index(hurricane_index, first)
        save_index(hurricane_index, second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file(self, hurricane_index, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            load_index(path)

    def test_corrupted_byte(self, hurricane_index, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_index(path)

    def test_version_mismatch(self, hurricane_index, tmp_path, monkeypatch):
        path = tmp_path / "ix.hcix"
        monkeypatch.setattr(hypercube_mod, "_FORMAT_VERSION", 2)
        save_index(hurricane_index, path)
        monkeypatch.setattr(hypercube_mod, "_FORMAT_VERSION", 1)
        with pytest.raises(FormatVersionMismatch):
            load_index(path)

    def test_round_trip_without_vectors(self, hurricane_corpus, hurricane_labels, tmp_path):
        ix = build_index(hurricane_corpus, hurricane_labels)
        assert ix.label_vectors is None
        path = tmp_path / "bare.hcix"
        save_index(ix, path)
        assert load_index(path) == ix

    def test_round_trip_random_indexes(self, tmp_path):
        rng = np.random.default_rng(5)
        encoder = TrigramEncoder(dim=32)
        for case in range(20):
            corpus, labels, _vocab = random_labeled_corpus(rng, max_docs=25)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder if case % 2 else None)
            path = tmp_path / f"case{case}.hcix"
            save_index(ix, path)
            assert load_index(path) == ix
            again = tmp_path / f"case{case}.again.hcix"
            save_index(load_index(path), again)
            assert again.read_bytes() == path.read_bytes()


# Ids whose code-point order differs from numeric order ("10" < "9") and
# from case-insensitive order ("Z" < "d2"), with non-ASCII ids sorting
# after every ASCII one; each index inserts them in a shuffled order.
_TRICKY_IDS = ["9", "10", "100", "D1", "d2", "D10", "Z", "é1", "ä", "日本", "ß", "0", "-1", "1e3"]


class TestDocIdOrder:
    """Ordinal order is doc-id string order, whatever order documents arrive in."""

    def _random_index(self, rng):
        picked = rng.permutation(len(_TRICKY_IDS))[: int(rng.integers(4, len(_TRICKY_IDS) + 1))]
        ids = [_TRICKY_IDS[i] for i in picked]
        corpus = Corpus([Document(id=doc_id, text="storm text") for doc_id in ids])
        labels = {}
        for doc_id in ids:
            counts = {}
            for dim, key in (("THEME", "rain"), ("THEME", "surge"), ("LOCATION", "coast"), ("EVENT", "fay")):
                if rng.random() < 0.6:
                    # Counts of 1 or 2 leave many full ties for the doc id to break.
                    counts[(dim, key)] = int(rng.integers(1, 3))
            labels[doc_id] = DocLabels(doc_id=doc_id, counts=counts)
        return ids, labels, build_index(corpus, assignment_of(labels))

    def test_round_trip_lookup_and_rank_follow_string_order(self, tmp_path):
        rng = np.random.default_rng(29)
        tied = shuffled = 0
        for case in range(60):
            ids, labels, ix = self._random_index(rng)
            assert ix.doc_ids == tuple(sorted(ids))
            shuffled += list(ix.doc_ids) != ids

            path = tmp_path / f"case{case}.hcix"
            save_index(ix, path)
            assert load_index(path) == ix

            for dim, postings_by_key in ix.inverted.items():
                for key in postings_by_key:
                    expected = [
                        (doc_id, labels[doc_id].counts[(dim, key)])
                        for doc_id in sorted(ids)
                        if (dim, key) in labels[doc_id].counts
                    ]
                    assert [tuple(p) for p in lookup(ix, dim, key)] == expected

            matches = [
                MatchEvidence(dim, key, key, EXACT if rng.random() < 0.5 else SEMANTIC, 0.8)
                for dim, key in (("THEME", "rain"), ("LOCATION", "coast"), ("EVENT", "fay"))
                if rng.random() < 0.8
            ]
            expected = sorted(
                brute_score(labels, matches),
                key=lambda doc: (
                    doc.coverage != len(matches),
                    -doc.coverage,
                    -doc.freq_score,
                    -doc.indicator_score,
                    doc.doc_id,
                ),
            )
            scores = score_documents(matches, ix)
            assert len(scores) == len(expected)
            for k in range(1, len(expected) + 2):
                assert rank(scores, matches, k) == expected[:k]
            tied += sum(
                (a.coverage, a.freq_score, a.indicator_score) == (b.coverage, b.freq_score, b.indicator_score)
                for a, b in zip(expected, expected[1:])
            )
        assert shuffled > 50
        assert tied > 50


def _merged_counts_index(encoder=None):
    """Three docs: d1 and d2 each add one label twice, d3 has no label."""
    corpus = Corpus(
        [Document(id=doc_id, text="storm text") for doc_id in ("d2", "d1", "d3")]
    )
    labels = LabelAssignment()
    labels.add("d1", "THEME", "storm surge", 2)
    labels.add("d1", "THEME", "storm surge", 1)
    labels.add("d1", "LOCATION", "florida")
    labels.add("d2", "THEME", "storm surge", 4)
    labels.add("d2", "EVENT", "fay", 1)
    labels.add("d2", "EVENT", "fay", 1)
    return build_index(corpus, labels, encoder=encoder)


class TestContainerV3:
    def test_each_fact_stored_once(self, tmp_path):
        ix = _merged_counts_index(TrigramEncoder(dim=16))
        path = tmp_path / "ix.hcix"
        save_index(ix, path)
        header, sections = read_container(path)
        inverted = [f"inverted:{dim}" for dim in ix.dimensions]
        assert header == {"version": 7, "sections": inverted + ["forward", "vectors"]}
        # Counts live only in the postings, next to doc ordinals ...
        assert sections["inverted:THEME"] == {
            "keys": ["storm surge"], "lengths": [2], "docs": [0, 1], "counts": [3, 4]
        }
        assert sections["inverted:EVENT"] == {"keys": ["fay"], "lengths": [1], "docs": [1], "counts": [2]}
        assert sections["inverted:LOCATION"] == {
            "keys": ["florida"], "lengths": [1], "docs": [0], "counts": [1]
        }
        assert sections["inverted:DATE"] == {"keys": [], "lengths": [], "docs": [], "counts": []}
        # Each inverted section is a length-prefixed JSON part naming the
        # array types, then the raw lengths, docs and counts.
        head = b'{"counts":"<u1","docs":"<u1","keys":["storm surge"],"lengths":"<u1"}'
        assert raw_sections(path)[1]["inverted:THEME"] == len(head).to_bytes(4, "big") + head + bytes([2, 0, 1, 3, 4])
        # ... and forward holds the doc ids, whose positions the ordinals are, and nothing else:
        # one per line, in UTF-8, with no newline after the last.
        assert sections["forward"] == ["d1", "d2", "d3"]
        assert raw_sections(path)[1]["forward"] == b"d1\nd2\nd3"
        # vectors holds the encoder's identity and, per dimension, a CRC-32 of
        # its keys (a compact JSON array) then its little-endian float64 rows.
        encoder = TrigramEncoder(dim=16)
        expected = {}
        for dim in ix.dimensions:
            keys = sorted(ix.vocab[dim])
            crc = zlib.crc32(json.dumps(keys, separators=(",", ":")).encode("utf-8"))
            for key in keys:
                crc = zlib.crc32(encoder.encode(key).astype("<f8").tobytes(), crc)
            expected[dim] = crc
        assert expected["DATE"] == zlib.crc32(b"[]")
        assert sections["vectors"] == {"encoder": "trigram", "dim": 16, "checksums": expected}

    def test_round_trip_merged_counts_and_unlabeled_doc(self, tmp_path):
        for encoder in (None, TrigramEncoder(dim=16)):
            ix = _merged_counts_index(encoder)
            path = tmp_path / "ix.hcix"
            save_index(ix, path)
            loaded = load_index(path)
            assert loaded == ix
            assert loaded.doc_ids == ("d1", "d2", "d3")

    def test_round_trip_random_multiword(self, tmp_path):
        # Random indexes with multi-word keys; unlabeled docs ride along.
        rng = np.random.default_rng(17)
        encoder = TrigramEncoder(dim=16)
        unlabeled = multiword = 0
        for case in range(40):
            corpus, labels, _vocab = random_labeled_corpus(rng, max_docs=25, multiword_labels=True)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder if case % 2 else None)
            assert ix.doc_ids == tuple(sorted(doc.id for doc in corpus))
            unlabeled += sum(1 for doc in corpus if not (doc.id in labels and labels[doc.id].counts))
            multiword += sum(" " in key for keys in ix.vocab.values() for key in keys)
            path = tmp_path / f"case{case}.hcix"
            save_index(ix, path)
            assert load_index(path) == ix
        assert unlabeled > 0
        assert multiword > 0

    def test_version_1_file_rejected(self, hurricane_index, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header.update(version=1, dimensions=list(hurricane_index.dimensions), doc_count=3)
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)

    def test_version_2_file_rejected(self, hurricane_index, tmp_path):
        # Version 2 also kept label surface strings in forward.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header["version"] = 2
        sections["forward"] = {"doc_ids": sections["forward"], "surfaces": {}}
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)

    def test_version_3_file_rejected(self, hurricane_index, tmp_path):
        # Version 3 wrote each posting as a [doc_id, count] pair.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header["version"] = 3
        sections["inverted:THEME"] = {"rain": [["565", 5]]}
        sections["inverted:LOCATION"] = {"florida": [["246", 1], ["535", 1]], "melbourne beach": [["565", 1]]}
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)

    def test_version_4_file_rejected(self, hurricane_index, tmp_path):
        # Version 4 stored every dimension's label vectors as a JSON matrix.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header["version"] = 4
        keys, matrix, _crc = _encode_keys(hurricane_index.vocab["THEME"], TrigramEncoder())
        sections["vectors"] = {
            "encoder": "trigram",
            "dim": 256,
            "by_dimension": {"THEME": {"keys": keys, "matrix": matrix.tolist()}},
        }
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)

    def test_version_5_file_rejected(self, hurricane_index, tmp_path):
        # Version 5 wrote each inverted section as one JSON object of integer arrays.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header["version"] = 5
        for name, section in sections.items():
            if name.startswith("inverted:"):
                sections[name] = json.dumps(section).encode("utf-8")
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)

    def test_version_6_file_rejected(self, hurricane_index, tmp_path):
        # Version 6 wrote forward as a JSON object {"doc_ids": [...]}.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header["version"] = 6
        sections["forward"] = {"doc_ids": sections["forward"]}
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="container version 6, reader supports 7; rebuild"):
            load_index(path)

    def test_narrowest_type_at_each_boundary(self, tmp_path):
        # One dimension per boundary: its largest ordinal, count or posting
        # length sits on one side of 2**8 or 2**16.
        n_docs = 2**16 + 1
        doc_ids = [f"d{ordinal:05d}" for ordinal in range(n_docs)]
        corpus = Corpus([Document(id=doc_id, text="storm text") for doc_id in doc_ids])
        labels = LabelAssignment()
        expected = {}
        for top in (2**8 - 1, 2**8, 2**16 - 1, 2**16):
            kind = "<u1" if top < 2**8 else "<u2" if top < 2**16 else "<i4"
            # The largest ordinal and count are ``top``; the one key holds one posting.
            labels.add(doc_ids[top], f"AT{top}", "storm", top)
            expected[f"AT{top}"] = {"lengths": "<u1", "docs": kind, "counts": kind}
            # A key holding ``top`` postings, of ordinals below ``top`` and count 1.
            for doc_id in doc_ids[:top]:
                labels.add(doc_id, f"RUN{top}", "storm")
            below = "<u1" if top <= 2**8 else "<u2" if top <= 2**16 else "<i4"
            expected[f"RUN{top}"] = {"lengths": kind, "docs": below, "counts": "<u1"}
        labels.add(doc_ids[0], "MAX", "storm", MAX_COUNT)
        expected["MAX"] = {"lengths": "<u1", "docs": "<u1", "counts": "<i4"}
        ix = build_index(corpus, labels, dimensions=list(expected))
        path = tmp_path / "ix.hcix"
        save_index(ix, path)
        _header, sections = raw_sections(path)
        for dim, types in expected.items():
            raw = sections[f"inverted:{dim}"]
            head = json.loads(raw[4 : 4 + int.from_bytes(raw[:4], "big")])
            assert {name: head[name] for name in types} == types, dim
            # The test helper encodes a section exactly as the writer does.
            assert encode_inverted(decode_inverted(raw)) == raw
        assert load_index(path) == ix

    def test_ordinals_may_drop_across_a_key_boundary(self, tmp_path):
        # Key "alpha" holds the later document, so its run ends above
        # where "beta"'s starts; each key still rises on its own.
        corpus = Corpus([Document(id=doc_id, text="storm text") for doc_id in ("a", "b")])
        labels = LabelAssignment()
        labels.add("b", "THEME", "alpha", 2)
        labels.add("a", "THEME", "beta", 3)
        ix = build_index(corpus, labels)
        path = tmp_path / "ix.hcix"
        save_index(ix, path)
        _header, sections = read_container(path)
        assert sections["inverted:THEME"] == {
            "keys": ["alpha", "beta"], "lengths": [1, 1], "docs": [1, 0], "counts": [2, 3]
        }
        assert load_index(path) == ix


def _hand_built(
    doc_ids=("a", "b"), keys=("rain", "wind"), lengths=(1, 2), ordinals=(1, 0, 1), counts=(1, 2, 3),
    table_ids=None, dim=16, checksum=0,
) -> dict:
    """The fields of a hand-built one-dimension index: THEME's "rain" holds doc "b", "wind" holds both.

    Arrays are taken as given; other values become int64 arrays.
    """
    arrays = (np.asarray(values, dtype=getattr(values, "dtype", np.int64)) for values in (lengths, ordinals, counts))
    table = hypercube_mod.PostingTable(doc_ids if table_ids is None else table_ids, list(keys), *arrays)
    return {
        "inverted": {"THEME": table},
        "doc_ids": doc_ids,
        "label_vectors": LabelVectors("trigram", dim, {"THEME": checksum}),
    }


_IDS_RULE = "doc ids must rise strictly from a non-empty first one"
# One case per rule of the gate: the fields changed from _hand_built's, and the refusal's wording.
GATE_REFUSES = {
    "unsorted_ids": ({"doc_ids": ("b", "a")}, _IDS_RULE),
    "repeated_id": ({"doc_ids": ("a", "a")}, _IDS_RULE),
    "empty_alone": ({"doc_ids": ("",), "ordinals": (0, 0, 0)}, _IDS_RULE),
    "empty_first": ({"doc_ids": ("", "a")}, _IDS_RULE),
    "empty_last": ({"doc_ids": ("a", "")}, _IDS_RULE),
    "ordinal_past_doc_ids": ({"ordinals": (2, 0, 1)}, re.escape("ordinals holds a value outside [0, 1]")),
    "ordinal_negative": ({"ordinals": (-1, 0, 1)}, re.escape("ordinals holds a value outside [0, 1]")),
    "ordinals_falling": ({"ordinals": (1, 1, 0)}, "key 'wind': ordinals not strictly increasing"),
    "ordinals_repeating": ({"ordinals": (1, 0, 0)}, "key 'wind': ordinals not strictly increasing"),
    "count_zero": ({"counts": (1, 0, 3)}, re.escape(f"counts holds a value outside [1, {MAX_COUNT}]")),
    "ordinals_float": ({"ordinals": np.array([1.0, 0.0, 1.0])}, "ordinals has dtype float64, not an integer one"),
    "counts_float": ({"counts": np.array([1.0, 2.0, 3.0])}, "counts has dtype float64, not an integer one"),
    "count_2_31": ({"counts": (1, 2**31, 3)}, re.escape(f"counts holds a value outside [1, {MAX_COUNT}]")),
    "length_zero": ({"lengths": (0, 3)}, re.escape("lengths holds a value outside [1, 3]")),
    "lengths_sum_short": ({"lengths": (1, 1)}, "lengths sum to 2, over 3/3 postings"),
    "lengths_sum_long": ({"lengths": (2, 2)}, "lengths sum to 4, over 3/3 postings"),
    "counts_short": ({"counts": (1, 2)}, "lengths sum to 3, over 3/2 postings"),
    "table_over_other_ids": ({"table_ids": ("a", "c")}, "over other doc ids than the index's"),
    "vectors_dim_zero": ({"dim": 0}, re.escape("need a dim >= 1, not 0, and checksums in [0, 2**32)")),
    "checksum_negative": ({"checksum": -1}, re.escape("checksums in [0, 2**32)")),
    "checksum_2_32": ({"checksum": 2**32}, re.escape("checksums in [0, 2**32)")),
}


class TestGate:
    """``HypercubeIndex`` alone judges doc ids, postings and vectors, whoever makes the index."""

    def test_dimensions_is_derived(self):
        fields = _hand_built()
        fields["inverted"]["LOCATION"] = fields["inverted"]["THEME"]
        fields["label_vectors"].checksums["LOCATION"] = 0
        assert HypercubeIndex(**fields).dimensions == ("THEME", "LOCATION")
        with pytest.raises(TypeError, match="dimensions"):
            HypercubeIndex(dimensions=("THEME",), **_hand_built())

    @pytest.mark.parametrize("changes, match", GATE_REFUSES.values(), ids=GATE_REFUSES.keys())
    def test_refused(self, changes, match):
        valid = HypercubeIndex(**_hand_built())
        with pytest.raises(ValueError, match=match):
            HypercubeIndex(**_hand_built(**changes))
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(valid, **_hand_built(**changes))


@st.composite
def _hand_built_fields(draw) -> dict:
    """Fields for a hand-built index from small random arrays; each part is tidy unless drawn raw, so many pass."""

    def raw() -> bool:
        return draw(st.integers(0, 7)) == 7

    doc_ids = draw(st.lists(st.sampled_from(["a", "b", "c", "é"]), min_size=1, max_size=4))
    if raw():
        doc_ids.append(draw(st.sampled_from(["", "a", "a\nb", "z\ud800"])))
    doc_ids = tuple(doc_ids if raw() else sorted(set(doc_ids)))
    tidy_run = st.lists(st.integers(0, len(doc_ids) - 1), min_size=1, max_size=3, unique=True).map(sorted)
    raw_run = st.lists(st.integers(-1, len(doc_ids)), max_size=3)
    inverted = {}
    for dim in draw(st.lists(st.sampled_from(["THEME", "LOCATION"]), min_size=1, max_size=2, unique=True)):
        keys = draw(st.lists(st.sampled_from(["rain", "storm surge", "wind"]), min_size=1, max_size=3))
        if raw():
            keys = draw(st.permutations([*keys, draw(st.sampled_from(["Rain", "", "r\ud800n"]))]))
        else:
            keys = sorted(set(keys))
        runs = [draw(raw_run if raw() else tidy_run) for _key in keys]
        lengths = [len(run) for run in runs]
        if raw():
            lengths = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
        ordinals = [ordinal for run in runs for ordinal in run]
        counts = [draw(st.sampled_from([0, MAX_COUNT, 2**31]) if raw() else st.integers(1, 3)) for _o in ordinals]
        dtypes = [np.float64 if raw() else np.int64 for _array in range(3)]
        arrays = (np.array(values, dtype=dtype) for values, dtype in zip((lengths, ordinals, counts), dtypes))
        inverted[" " if raw() else dim] = hypercube_mod.PostingTable(("a", "c") if raw() else doc_ids, keys, *arrays)
    vectors = None
    if draw(st.booleans()):
        bad_crc = st.sampled_from([-1, 2**32])
        checksums = {dim: draw(bad_crc if raw() else st.integers(0, 2**32 - 1)) for dim in inverted}
        if checksums and raw():
            checksums.popitem()
        name = "tri\ud800" if raw() else "trigram"
        vectors = LabelVectors(name, 0 if raw() else draw(st.integers(1, 3)), checksums)
    return {"inverted": inverted, "doc_ids": doc_ids, "label_vectors": vectors}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=_hand_built_fields())
@example(fields=_hand_built(doc_ids=("b", "a")))
@example(fields=_hand_built(ordinals=(5, 0, 1), counts=(0, 1, 1)))
def test_what_the_gate_accepts_round_trips(tmp_path, fields):
    # The gate is the only judge: an index it accepts answers every key,
    # and either saves, loads back equal and saves to the same bytes, or
    # holds an id forward cannot hold. Only ValueError may refuse.
    try:
        ix = HypercubeIndex(**fields)
    except ValueError:
        return
    for dim, keys in ix.vocab.items():
        for key in keys:
            ranked = retrieve("q", ix, None, external=[(dim, key)]).ranked
            assert {doc.doc_id for doc in ranked} <= {posting.doc_id for posting in lookup(ix, dim, key)}
    path = tmp_path / "ix.hcix"
    if any("\n" in doc_id or not hypercube_mod._is_text(doc_id) for doc_id in ix.doc_ids):
        with pytest.raises(ValueError, match="cannot be saved"):
            save_index(ix, path)
        return
    save_index(ix, path)
    loaded = load_index(path)
    assert loaded == ix
    again = tmp_path / "again.hcix"
    save_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# Ids that hold what other tools take for a line break or a space; only "\n" separates ids.
_ID_CHARS = st.sampled_from(["a", "B", "7", " ", "\r", "\u2028", "\u0085", "\t", "é", "日", "\U0001d11e"])
_DOC_ID = st.one_of(
    st.text(_ID_CHARS, min_size=1, max_size=6),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"), min_size=1, max_size=6),
)


class TestForwardSection:
    """Version 7's ``forward``: the sorted doc ids joined by newlines, in UTF-8, and nothing else."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(_DOC_ID, min_size=1, max_size=8, unique=True))
    @example(ids=["only"])
    @example(ids=["a b", "a\rb", "a\u2028b", "a\u0085b", "\U0001d11e", " "])
    def test_doc_ids_round_trip(self, tmp_path, ids):
        corpus = Corpus([Document(id=doc_id, text="storm text") for doc_id in ids])
        labels = LabelAssignment()
        labels.add(ids[0], "THEME", "storm")
        ix = build_index(corpus, labels)
        path = tmp_path / "ids.hcix"
        save_index(ix, path)
        assert raw_sections(path)[1]["forward"] == "\n".join(sorted(ids)).encode("utf-8")
        loaded = load_index(path)
        assert loaded.doc_ids == tuple(sorted(ids))
        assert loaded == ix
        again = tmp_path / "ids.again.hcix"
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_index_without_documents_round_trips(self, tmp_path):
        ix = build_index(Corpus([]), LabelAssignment())
        path = tmp_path / "empty.hcix"
        save_index(ix, path)
        assert raw_sections(path)[1]["forward"] == b""
        loaded = load_index(path)
        assert loaded.doc_ids == ()
        assert loaded == ix

    @pytest.mark.parametrize(
        "payload",
        [
            b"\n246\n535\n565", b"246\n535\n565\n", b"\n\n", b"246\n535\n565\n565", b"246\n565\n535",
            b"246\n535\n5\xff65",
        ],
        ids=["leading_empty_id", "trailing_newline", "newlines_alone", "duplicate_id", "unsorted_ids", "invalid_utf8"],
    )
    def test_malformed_forward_rejected(self, hurricane_index, tmp_path, payload):
        # The fixture's doc ids are 246, 535 and 565; its postings stay valid over three ids.
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        sections["forward"] = payload
        write_container(path, header, sections)
        # The loader splits the text; the gate judges the ids.
        refusal = "doc ids must rise strictly from a non-empty first one|section forward is not valid UTF-8"
        with pytest.raises(FormatVersionMismatch, match=refusal):
            load_index(path)

    @pytest.mark.parametrize("doc_ids", [("a", "b\nc"), ("a\n",)], ids=["newline_inside", "newline_last"])
    def test_save_refuses_ids_forward_cannot_hold(self, tmp_path, doc_ids):
        # An empty id is refused when the index is made (TestGate); a newline only forward cannot hold.
        path = tmp_path / "ix.hcix"
        with pytest.raises(ValueError, match="an id may hold no newline"):
            save_index(HypercubeIndex(inverted={}, doc_ids=doc_ids), path)
        assert not path.exists()

    @pytest.mark.parametrize("doc_id", ["d\udcff", "d\ud800"], ids=["doc_id", "doc_id_high_surrogate"])
    def test_save_refuses_a_lone_surrogate(self, tmp_path, doc_id):
        # Keys and dimension names are refused when the index is made
        # (TestBuildIndex); a hand-made doc id reaches the save.
        doc_ids = (doc_id,)
        table = hypercube_mod.PostingTable(doc_ids, ["storm"], *(np.array([value]) for value in (1, 0, 1)))
        ix = HypercubeIndex(inverted={"THEME": table}, doc_ids=doc_ids)
        path = tmp_path / "ix.hcix"
        with pytest.raises(ValueError, match="lone surrogate") as excinfo:
            save_index(ix, path)
        # UnicodeEncodeError is a ValueError too; the error must name the fault and the id, not the codec.
        assert type(excinfo.value) is ValueError
        assert repr(doc_id) in str(excinfo.value)
        assert not path.exists()


def _drop_doc(sections, doc_id):
    sections["forward"].remove(doc_id)


def _duplicate_section(header, sections):
    header["sections"].append("forward")
    sections["forward again"] = sections["forward"]


def _rename_theme(header, sections, name):
    # Sections are written in order whatever the header names them, so only the header and the checksums change.
    header["sections"][header["sections"].index("inverted:THEME")] = f"inverted:{name}"
    sections["vectors"]["checksums"][name] = sections["vectors"]["checksums"].pop("THEME")


MALFORMED = {
    "header_without_version": lambda h, s: h.pop("version"),
    "header_without_sections": lambda h, s: h.pop("sections"),
    "header_extra_key": lambda h, s: h.update(dimensions=["THEME"]),
    "sections_not_names": lambda h, s: h.update(sections=[1, 2]),
    "unknown_section": lambda h, s: h["sections"].__setitem__(0, "inverse:LOCATION"),
    "duplicate_section": _duplicate_section,
    "section_not_listed": lambda h, s: h["sections"].remove("vectors"),
    "no_forward_section": lambda h, s: h["sections"].remove("forward") or s.pop("forward"),
    "section_not_json": lambda h, s: s.update(vectors=b"{not json"),
    # The fixture's doc ids are ("246", "535", "565"). THEME holds key
    # "rain" with ordinal 2, count 5; LOCATION holds "florida" (ordinals
    # 0, 1) and "melbourne beach" (ordinal 2), every count 1.
    "inverted_not_object": lambda h, s: s.update({"inverted:THEME": [["rain"], [1], [2], [5]]}),
    "inverted_extra_key": lambda h, s: s["inverted:THEME"].update(extra=[]),
    "inverted_without_counts": lambda h, s: s["inverted:THEME"].pop("counts"),
    "keys_not_strings": lambda h, s: s["inverted:THEME"].update(keys=[1]),
    "keys_repeat": lambda h, s: s["inverted:LOCATION"].update(keys=["florida", "florida"]),
    "keys_unsorted": lambda h, s: s["inverted:LOCATION"].update(keys=["melbourne beach", "florida"]),
    "key_empty": lambda h, s: s["inverted:LOCATION"].update(keys=["", "melbourne beach"]),
    "key_blank": lambda h, s: s["inverted:THEME"].update(keys=[" "]),
    # Keys no query can reach, since queries are normalized: each used to
    # load, and the first two then failed queries with a KeyError.
    "key_trailing_space": lambda h, s: s["inverted:LOCATION"].update(keys=["florida ", "melbourne beach"]),
    "key_double_space": lambda h, s: s["inverted:LOCATION"].update(keys=["florida", "melbourne  beach"]),
    "key_upper_case": lambda h, s: s["inverted:LOCATION"].update(keys=["Florida", "melbourne beach"]),
    # Names no index may hold: each used to load, and the last three then failed to save.
    "dimension_unnamed": lambda h, s: _rename_theme(h, s, ""),
    "dimension_blank": lambda h, s: _rename_theme(h, s, " "),
    "dimension_lone_surrogate": lambda h, s: _rename_theme(h, s, "THEME\ud800"),
    "key_lone_surrogate": lambda h, s: s.update(
        {"inverted:THEME": encode_inverted({**s["inverted:THEME"], "keys": ["r\ud800ain"]}, escape=True)}
    ),
    "vectors_encoder_lone_surrogate": lambda h, s: s["vectors"].update(encoder="trigram\ud800"),
    # Version 6 names each array's type in the JSON part and writes the
    # values raw, so an entry that used to hold a non-integer value now
    # names a type the reader does not allow (see helpers.encode_inverted).
    "postings_not_array": lambda h, s: s["inverted:THEME"].update(docs={"2": 5}),
    "postings_empty": lambda h, s: s["inverted:THEME"].update(lengths=[0], docs=[], counts=[]),
    "posting_not_pair": lambda h, s: s["inverted:THEME"].update(counts=[]),
    "posting_doc_not_in_forward": lambda h, s: _drop_doc(s, "565"),
    "posting_doc_not_string": lambda h, s: s["inverted:THEME"].update(docs=["565"]),
    "postings_unsorted": lambda h, s: s["inverted:LOCATION"].update(docs=[1, 0, 2]),
    "postings_repeat_doc": lambda h, s: s["inverted:LOCATION"].update(docs=[0, 0, 2]),
    "ordinal_past_doc_ids": lambda h, s: s["inverted:THEME"].update(docs=[3]),
    "ordinal_negative": lambda h, s: s["inverted:THEME"].update(docs=[-1]),
    "ordinal_boolean": lambda h, s: s["inverted:THEME"].update(docs=("|b1", [True])),
    "ordinal_float": lambda h, s: s["inverted:THEME"].update(docs=("<f8", [2.0])),
    "ordinal_huge": lambda h, s: s["inverted:THEME"].update(docs=[2**40]),
    "count_zero": lambda h, s: s["inverted:THEME"].update(counts=[0]),
    "count_negative": lambda h, s: s["inverted:THEME"].update(counts=[-5]),
    "count_not_integer": lambda h, s: s["inverted:THEME"].update(counts=("<U1", ["5"])),
    "count_boolean": lambda h, s: s["inverted:THEME"].update(counts=("|b1", [True])),
    "count_float": lambda h, s: s["inverted:THEME"].update(counts=("<f4", [5.0])),
    "count_huge": lambda h, s: s["inverted:THEME"].update(counts=[2**40]),
    "count_past_int32": lambda h, s: s["inverted:THEME"].update(counts=[2**31]),
    "lengths_fewer_than_keys": lambda h, s: s["inverted:LOCATION"].update(lengths=[3]),
    "lengths_sum_short": lambda h, s: s["inverted:LOCATION"].update(lengths=[1, 1]),
    "lengths_sum_long": lambda h, s: s["inverted:LOCATION"].update(lengths=[2, 2]),
    "length_zero": lambda h, s: s["inverted:LOCATION"].update(lengths=[3, 0]),
    "length_negative": lambda h, s: s["inverted:LOCATION"].update(lengths=[4, -1]),
    "length_boolean": lambda h, s: s["inverted:LOCATION"].update(lengths=("|b1", [True, True])),
    "length_float": lambda h, s: s["inverted:LOCATION"].update(lengths=("<f4", [2.0, 1.0])),
    "length_huge": lambda h, s: s["inverted:THEME"].update(lengths=[2**40]),
    # The binary layout itself: types outside <u1, <u2 and <i4, and arrays
    # that do not fill their section exactly.
    "type_unsigned_32": lambda h, s: s["inverted:THEME"].update(docs=("<u4", [2])),
    "type_big_endian": lambda h, s: s["inverted:THEME"].update(docs=(">u2", [2])),
    "type_not_string": lambda h, s: s["inverted:THEME"].update(counts=(1, b"\x05")),
    "type_missing": lambda h, s: s["inverted:THEME"].update(counts=(None, b"\x05")),
    "docs_not_whole_items": lambda h, s: s["inverted:THEME"].update(docs=("<u2", b"\x02\x00\x00")),
    "arrays_trailing_byte": lambda h, s: s.update({"inverted:THEME": encode_inverted(s["inverted:THEME"]) + b"\x00"}),
    "arrays_trailing_posting": lambda h, s: s.update(
        {"inverted:THEME": encode_inverted(s["inverted:THEME"]) + b"\x01\x01"}
    ),
    "arrays_missing_byte": lambda h, s: s.update({"inverted:THEME": encode_inverted(s["inverted:THEME"])[:-1]}),
    "json_part_overruns_section": lambda h, s: s.update({"inverted:THEME": b"\x00\x00\xff\xff{}"}),
    "json_part_prefix_cut": lambda h, s: s.update({"inverted:THEME": b"\x00\x00"}),
    "json_part_not_json": lambda h, s: s.update({"inverted:THEME": b"\x00\x00\x00\x02{x"}),
    "inverted_as_version_5_json": lambda h, s: s.update(
        {"inverted:THEME": json.dumps({"keys": ["rain"], "lengths": [1], "docs": [2], "counts": [5]}).encode()}
    ),
    # Version 7 writes forward as the doc ids joined by newlines, in UTF-8
    # (see helpers.encode_section), so the ids that used to break forward's
    # JSON now break that text. Version 6's JSON object reads as a single
    # doc id, which leaves the postings' ordinals 1 and 2 outside doc_ids.
    "forward_not_object": lambda h, s: s.update(forward={"doc_ids": ["246", "535", "565"]}),
    "forward_extra_key": lambda h, s: s["forward"].append(""),
    "duplicate_doc_ids": lambda h, s: s["forward"].append("565"),
    "doc_ids_unsorted": lambda h, s: s["forward"].reverse(),
    "doc_ids_not_strings": lambda h, s: s.update(forward=b"246\n535\n\xff565"),
    # Version 2 kept label surfaces in forward; these now break the id list.
    "surfaces_not_object": lambda h, s: s["forward"].insert(0, ""),
    "surfaces_of_unknown_doc": lambda h, s: s["forward"].insert(0, "999"),
    "surfaces_without_posting": lambda h, s: s["forward"].insert(1, ""),
    "surfaces_not_strings": lambda h, s: s["forward"].__setitem__(2, "565\ud800"),
    # The vectors section is {encoder, dim, checksums}, one checksum per
    # index dimension. The three ids naming a matrix or its keys date from
    # the stored-matrix layout; each now breaks the checksums' shape, their
    # values, or the encoder name.
    "vectors_not_object": lambda h, s: s.update(vectors=[]),
    "vectors_without_dim": lambda h, s: s["vectors"].pop("dim"),
    "vectors_matrix_misshapen": lambda h, s: s["vectors"].update(checksums=list(s["vectors"]["checksums"].values())),
    "vectors_matrix_not_numbers": lambda h, s: s["vectors"].update(checksums=dict.fromkeys(s["vectors"]["checksums"])),
    "vector_keys_not_strings": lambda h, s: s["vectors"].update(encoder=1),
    # A stored table, as in the reproduced phantom-key and non-unit-row files.
    "vectors_with_by_dimension": lambda h, s: s["vectors"].update(
        by_dimension={"THEME": {"keys": ["rain", "zzzz"], "matrix": [[1.0] * 256, [1.0] * 256]}}
    ),
    "vectors_with_matrix": lambda h, s: s["vectors"].update(matrix=[[100.0] * 256]),
    "vectors_dim_zero": lambda h, s: s["vectors"].update(dim=0),
    "checksum_of_unknown_dimension": lambda h, s: s["vectors"]["checksums"].update(NOPE=0),
    "checksum_missing": lambda h, s: s["vectors"]["checksums"].pop("THEME"),
    "checksum_string": lambda h, s: s["vectors"]["checksums"].update(THEME="0"),
    "checksum_boolean": lambda h, s: s["vectors"]["checksums"].update(THEME=True),
    "checksum_float": lambda h, s: s["vectors"]["checksums"].update(THEME=1.0),
    "checksum_negative": lambda h, s: s["vectors"]["checksums"].update(THEME=-1),
    "checksum_2_32": lambda h, s: s["vectors"]["checksums"].update(THEME=2**32),
}


@pytest.fixture(scope="module")
def wide_index():
    """300 documents; THEME's arrays take about 1.2 kB, and the three types all occur."""
    doc_ids = [f"d{ordinal:03d}" for ordinal in range(300)]
    corpus = Corpus([Document(id=doc_id, text="storm text") for doc_id in doc_ids])
    labels = LabelAssignment()
    for ordinal, doc_id in enumerate(doc_ids):
        labels.add(doc_id, "THEME", ("rain", "storm surge", "wind")[ordinal % 3], ordinal + 1)
        if ordinal % 7 == 0:
            labels.add(doc_id, "LOCATION", "florida", 2**16 + ordinal)
    return build_index(corpus, labels)


class TestMalformedContainer:
    """Containers whose CRC passes but whose content is wrong fail as data errors."""

    @pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected(self, hurricane_index, tmp_path, mutate):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        mutate(header, sections)
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch):
            load_index(path)

    def test_header_not_object(self, hurricane_index, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        _header, sections = read_container(path)
        write_container(path, ["version", 2], sections)
        with pytest.raises(FormatVersionMismatch):
            load_index(path)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        path_choice=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=5),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        ),
    )
    def test_fuzzed_json_raises_only_data_errors(self, hurricane_index, tmp_path, path_choice, value):
        path = tmp_path / "fuzz.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        # Walk a pseudo-random path into the decoded container, then replace what is there.
        root = {"header": header, **sections}
        parent, key = root, list(root)[path_choice[0] % len(root)]
        for step in path_choice[1:]:
            child = parent[key]
            if isinstance(child, dict) and child:
                parent, key = child, list(child)[step % len(child)]
            elif isinstance(child, list) and child:
                parent, key = child, step % len(child)
            else:
                break
        parent[key] = value
        write_container(path, root.pop("header"), root)
        try:
            load_index(path)
        except HyperRagError:
            pass


    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dim=st.sampled_from(["THEME", "LOCATION"]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["flip", "cut", "insert"]),
                # A position counted back from the section's end, where the arrays lie.
                st.integers(min_value=0, max_value=2**11),
                st.binary(min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_fuzzed_bytes_raise_only_data_errors(self, wide_index, tmp_path, dim, edits):
        path = tmp_path / "bytes.hcix"
        save_index(wide_index, path)
        header, sections = raw_sections(path)
        raw = bytearray(sections[f"inverted:{dim}"])
        for edit, back, data in edits:
            at = max(len(raw) - 1 - back % (len(raw) + 1), 0)
            if edit == "flip" and raw:
                raw[at] ^= data[0] or 0xFF
            elif edit == "cut":
                del raw[at:]
            else:
                raw[at:at] = data
        sections[f"inverted:{dim}"] = bytes(raw)
        # The CRC is recomputed, so the damaged section reaches the parser.
        write_container(path, header, sections)
        try:
            loaded = load_index(path)
        except HyperRagError:
            return
        # Whatever loads is a well-formed index: it saves and loads back unchanged.
        save_index(loaded, path)
        assert load_index(path) == loaded

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        keys=st.lists(
            st.lists(
                st.sampled_from(["a", "B", "ǰ", "j\u030c", "\u0301", "ß", " ", "\xa0", "\t", "\n", ".", "?", "-"]),
                max_size=4,
            ).map("".join),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    def test_keys_load_only_when_normalized(self, hurricane_index, tmp_path, keys):
        # LOCATION holds two keys; their postings stay valid whatever they are called.
        # They are written in increasing order, as a container must hold them.
        path = tmp_path / "keys.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        sections["inverted:LOCATION"]["keys"] = sorted(keys)
        write_container(path, header, sections)
        if all(key and normalize_label(key) == key for key in keys):
            assert set(load_index(path).vocab["LOCATION"]) == set(keys)
        else:
            with pytest.raises(FormatVersionMismatch, match="not normalized"):
                load_index(path)


class _HalfWriter:
    """A file that accepts half of its first write, then fails like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, data):
        self._handle.write(bytes(data[: len(data) // 2]))
        self._handle.flush()
        raise OSError(28, "No space left on device")


class TestAtomicSave:
    def test_failed_save_keeps_previous_index(self, hurricane_index, hurricane_corpus, tmp_path, monkeypatch):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        real_open = io.open

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _HalfWriter(handle) if set(mode) & set("wxa") else handle

        other = build_index(hurricane_corpus, LabelAssignment())
        with monkeypatch.context() as patch:
            patch.setattr(io, "open", failing_open)
            patch.setattr(builtins, "open", failing_open)
            with pytest.raises(IoFailure):
                save_index(other, path)
        assert load_index(path) == hurricane_index
        assert [p.name for p in tmp_path.iterdir()] == ["ix.hcix"]

    def test_save_replaces_existing_file(self, hurricane_index, hurricane_corpus, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        other = build_index(hurricane_corpus, LabelAssignment())
        save_index(other, path)
        assert load_index(path) == other
        assert [p.name for p in tmp_path.iterdir()] == ["ix.hcix"]

    def test_missing_directory_is_io_failure(self, hurricane_index, tmp_path):
        with pytest.raises(IoFailure):
            save_index(hurricane_index, tmp_path / "absent" / "ix.hcix")

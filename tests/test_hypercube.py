from __future__ import annotations

import builtins
import io
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_labeled_corpus, read_container, write_container
from oracles import brute_cell
from hyperrag import (
    CellAddress,
    ChecksumMismatch,
    Corpus,
    DocLabels,
    Document,
    FormatVersionMismatch,
    HyperRagError,
    IoFailure,
    Posting,
    TrigramEncoder,
    UnknownDocId,
    build_index,
    cell_documents,
    load_index,
    lookup,
    save_index,
    verify_symmetry,
)
from hyperrag import hypercube as hypercube_mod


class TestBuildIndex:
    def test_fixture_event_postings(self, hurricane_index):
        assert hurricane_index.inverted["EVENT"]["tropical storm fay"] == [
            Posting("246", 1),
            Posting("565", 1),
        ]

    def test_empty_label_map(self, hurricane_corpus):
        ix = build_index(hurricane_corpus, {})
        assert all(not keys for keys in ix.vocab.values())
        assert set(ix.forward) == {"565", "246", "535"}
        assert all(labels.label_count() == 0 for labels in ix.forward.values())

    def test_single_doc_single_label(self):
        corpus = Corpus([Document(id="d1", text="storm ahead")])
        labels = {"d1": DocLabels(doc_id="d1")}
        labels["d1"].add("THEME", "storm")
        ix = build_index(corpus, labels)
        assert ix.inverted["THEME"]["storm"] == [Posting("d1", 1)]
        assert ix.vocab["THEME"] == {"storm"}

    def test_unknown_doc_id(self, hurricane_corpus):
        stray = DocLabels(doc_id="999")
        stray.add("THEME", "rain")
        with pytest.raises(UnknownDocId):
            build_index(hurricane_corpus, {"999": stray})

    def test_symmetry_on_fixture(self, hurricane_index):
        verify_symmetry(hurricane_index)

    def test_symmetry_detects_corruption(self, hurricane_index):
        hurricane_index.forward["565"].counts[("THEME", "rain")] = 99
        with pytest.raises(AssertionError):
            verify_symmetry(hurricane_index)

    def test_posting_lists_sorted(self, hurricane_index):
        for postings_by_key in hurricane_index.inverted.values():
            for postings in postings_by_key.values():
                ids = [p.doc_id for p in postings]
                assert ids == sorted(ids)
                assert len(set(ids)) == len(ids)


class TestLookup:
    def test_theme_rain(self, hurricane_index):
        assert lookup(hurricane_index, "THEME", "rain") == [Posting("565", 5)]

    def test_unseen_key(self, hurricane_index):
        assert lookup(hurricane_index, "THEME", "blizzard") == []
        assert lookup(hurricane_index, "NOPE", "rain") == []

    def test_location_florida(self, hurricane_index):
        assert lookup(hurricane_index, "LOCATION", "florida") == [
            Posting("246", 1),
            Posting("535", 1),
        ]

    def test_latency_corpus_size_independent(self):
        # Mean lookup time on a 10x corpus stays within 1.5x of the 1x
        # corpus (best of several trials to shed scheduler noise).
        def build_sized(n_docs):
            docs = [Document(id=f"d{i:05d}", text="storm text") for i in range(n_docs)]
            labels = {}
            for i, doc in enumerate(docs):
                dl = DocLabels(doc_id=doc.id)
                dl.add("THEME", f"label{i % 50}")
                labels[doc.id] = dl
            return build_index(Corpus(docs), labels)

        small, large = build_sized(200), build_sized(2000)

        def best_mean_ns(ix):
            best = float("inf")
            for _trial in range(5):
                start = time.perf_counter_ns()
                for i in range(20000):
                    lookup(ix, "THEME", f"label{i % 50}")
                best = min(best, (time.perf_counter_ns() - start) / 20000)
            return best

        ratio = best_mean_ns(large) / best_mean_ns(small)
        assert ratio <= 1.5, f"lookup slowed {ratio:.2f}x on the 10x corpus"


class TestCellDocuments:
    def test_full_address(self, hurricane_index):
        addr = CellAddress(
            {"LOCATION": "melbourne beach", "EVENT": "tropical storm fay", "THEME": "rain"}
        )
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
        with pytest.raises(ValueError):
            CellAddress({})

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(11)
        for _case in range(60):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=40)
            ix = build_index(corpus, labels)
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
        verify_symmetry(loaded)

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
            ix = build_index(corpus, labels, encoder=encoder if case % 2 else None)
            path = tmp_path / f"case{case}.hcix"
            save_index(ix, path)
            assert load_index(path) == ix


def _surfaces_index(encoder=None):
    """Three docs: d1 carries a key with two surfaces differing only in case, d3 no label."""
    corpus = Corpus(
        [Document(id=doc_id, text="storm text") for doc_id in ("d2", "d1", "d3")]
    )
    d1, d2 = DocLabels(doc_id="d1"), DocLabels(doc_id="d2")
    d1.add("THEME", "storm surge", 2, surface="Storm Surge")
    d1.add("THEME", "storm surge", 1, surface="storm surge")
    d1.add("LOCATION", "florida")
    d2.add("THEME", "storm surge", 4)
    d2.add("EVENT", "fay", 1, surface="Fay")
    d2.add("EVENT", "fay", 1, surface="FAY.")
    return build_index(corpus, {"d1": d1, "d2": d2}, encoder=encoder)


class TestContainerV2:
    def test_each_fact_stored_once(self, tmp_path):
        ix = _surfaces_index(TrigramEncoder(dim=16))
        path = tmp_path / "ix.hcix"
        save_index(ix, path)
        header, sections = read_container(path)
        inverted = [f"inverted:{dim}" for dim in ix.dimensions]
        assert header == {"version": 2, "sections": inverted + ["forward", "vectors"]}
        # Counts live only in the postings ...
        assert sections["inverted:THEME"] == {"storm surge": [["d1", 3], ["d2", 4]]}
        assert sections["inverted:EVENT"] == {"fay": [["d2", 2]]}
        assert sections["inverted:LOCATION"] == {"florida": [["d1", 1]]}
        # ... and forward holds the doc ids plus the surfaces that differ from the key.
        assert sections["forward"] == {
            "doc_ids": ["d1", "d2", "d3"],
            "surfaces": {
                "d1": {"THEME": {"storm surge": ["Storm Surge", "storm surge"]}},
                "d2": {"EVENT": {"fay": ["FAY.", "Fay"]}},
            },
        }

    def test_round_trip_surfaces_and_unlabeled_doc(self, tmp_path):
        for encoder in (None, TrigramEncoder(dim=16)):
            ix = _surfaces_index(encoder)
            path = tmp_path / "ix.hcix"
            save_index(ix, path)
            loaded = load_index(path)
            assert loaded == ix
            assert loaded.forward["d3"] == DocLabels(doc_id="d3")
            assert loaded.forward["d1"].surfaces == {
                ("THEME", "storm surge"): {"Storm Surge", "storm surge"},
                ("LOCATION", "florida"): {"florida"},
            }
            verify_symmetry(loaded)

    def test_version_1_file_rejected(self, hurricane_index, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(hurricane_index, path)
        header, sections = read_container(path)
        header.update(version=1, dimensions=list(hurricane_index.dimensions), doc_count=3)
        write_container(path, header, sections)
        with pytest.raises(FormatVersionMismatch, match="rebuild"):
            load_index(path)


def _drop_doc(sections, doc_id):
    sections["forward"]["doc_ids"].remove(doc_id)


def _duplicate_section(header, sections):
    header["sections"].append("forward")
    sections["forward again"] = sections["forward"]


MALFORMED = {
    "header_without_version": lambda h, s: h.pop("version"),
    "header_without_sections": lambda h, s: h.pop("sections"),
    "header_extra_key": lambda h, s: h.update(dimensions=["THEME"]),
    "sections_not_names": lambda h, s: h.update(sections=[1, 2]),
    "unknown_section": lambda h, s: h["sections"].__setitem__(0, "inverse:LOCATION"),
    "duplicate_section": _duplicate_section,
    "section_not_listed": lambda h, s: h["sections"].remove("vectors"),
    "no_forward_section": lambda h, s: h["sections"].remove("forward") or s.pop("forward"),
    "section_not_json": lambda h, s: s.update(forward=b"{not json"),
    "inverted_not_object": lambda h, s: s.update({"inverted:THEME": [["rain", "565", 5]]}),
    "postings_not_array": lambda h, s: s["inverted:THEME"].update(rain={"565": 5}),
    "postings_empty": lambda h, s: s["inverted:THEME"].update(rain=[]),
    "posting_not_pair": lambda h, s: s["inverted:THEME"].update(rain=[["565"]]),
    "posting_doc_not_in_forward": lambda h, s: _drop_doc(s, "565"),
    "posting_doc_not_string": lambda h, s: s["inverted:THEME"].update(rain=[[565, 5]]),
    "postings_unsorted": lambda h, s: s["inverted:LOCATION"]["florida"].reverse(),
    "postings_repeat_doc": lambda h, s: s["inverted:THEME"].update(rain=[["565", 2], ["565", 3]]),
    "count_zero": lambda h, s: s["inverted:THEME"].update(rain=[["565", 0]]),
    "count_negative": lambda h, s: s["inverted:THEME"].update(rain=[["565", -5]]),
    "count_not_integer": lambda h, s: s["inverted:THEME"].update(rain=[["565", "5"]]),
    "count_boolean": lambda h, s: s["inverted:THEME"].update(rain=[["565", True]]),
    "forward_not_object": lambda h, s: s.update(forward=["565", "246", "535"]),
    "forward_extra_key": lambda h, s: s["forward"].update(labels={}),
    "duplicate_doc_ids": lambda h, s: s["forward"]["doc_ids"].append("565"),
    "doc_ids_not_strings": lambda h, s: s["forward"].update(doc_ids=[565, 246, 535]),
    "surfaces_not_object": lambda h, s: s["forward"].update(surfaces=[]),
    "surfaces_of_unknown_doc": lambda h, s: s["forward"].update(surfaces={"999": {}}),
    "surfaces_without_posting": lambda h, s: s["forward"].update(
        surfaces={"535": {"THEME": {"rain": ["Rain"]}}}
    ),
    "surfaces_not_strings": lambda h, s: s["forward"].update(
        surfaces={"565": {"THEME": {"rain": [["Rain"]]}}}
    ),
    "vectors_not_object": lambda h, s: s.update(vectors=[]),
    "vectors_without_dim": lambda h, s: s["vectors"].pop("dim"),
    "vectors_matrix_misshapen": lambda h, s: s["vectors"]["by_dimension"]["THEME"].update(matrix=[[1.0]]),
    "vectors_matrix_not_numbers": lambda h, s: s["vectors"]["by_dimension"]["THEME"].update(
        matrix=[["x"] * 256]
    ),
    "vector_keys_not_strings": lambda h, s: s["vectors"]["by_dimension"]["THEME"].update(keys=[1]),
}


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

        other = build_index(hurricane_corpus, {})
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
        other = build_index(hurricane_corpus, {})
        save_index(other, path)
        assert load_index(path) == other
        assert [p.name for p in tmp_path.iterdir()] == ["ix.hcix"]

    def test_missing_directory_is_io_failure(self, hurricane_index, tmp_path):
        with pytest.raises(IoFailure):
            save_index(hurricane_index, tmp_path / "absent" / "ix.hcix")

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HURRICANE_MINI, count_table_builds, write_jsonl
from oracles import brute_longest_match, substring_occurrences
from hyperrag import (
    DocLabels,
    Document,
    Gazetteer,
    MalformedRecord,
    NonPositiveCount,
    UnknownDimension,
    UnknownDocId,
    extract_all,
    gazetteer_extract,
    load_corpus,
    load_precomputed_labels,
    normalize_label,
)
from hyperrag import labeling
from hyperrag.labeling import load_gazetteer, tokenize


class TestNormalizeLabel:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            ("Tropical  Storm Fay.", "tropical storm fay"),
            ("rain", "rain"),
            ("  MELBOURNE Beach ", "melbourne beach"),
            ("Fay!?", "fay"),
            ("a .. .", "a"),
        ],
    )
    def test_examples(self, surface, expected):
        assert normalize_label(surface) == expected

    def test_all_punctuation_collapses_to_empty(self):
        assert normalize_label("...!?") == ""
        assert normalize_label("  ,; ") == ""

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, surface):
        once = normalize_label(surface)
        assert normalize_label(once) == once


class TestGazetteerExtract:
    def test_doc_565_counts(self, hurricane_corpus, hurricane_gazetteer):
        labels = gazetteer_extract(hurricane_corpus.get("565"), hurricane_gazetteer)
        assert labels.counts == {
            ("LOCATION", "melbourne beach"): 1,
            ("EVENT", "tropical storm fay"): 1,
            ("THEME", "rain"): 5,
        }

    def test_empty_gazetteer(self):
        doc = Document(id="d", text="rain everywhere")
        labels = gazetteer_extract(doc, Gazetteer.from_phrases({}))
        assert labels.counts == {}

    def test_longest_match_wins_per_position(self):
        # "rainfall" is claimed by the longer phrase; the standalone
        # "rain" token still matches the shorter one.
        doc = Document(id="d", text="rain rainfall")
        gaz = Gazetteer.from_phrases({"THEME": ["rain", "rainfall"]})
        labels = gazetteer_extract(doc, gaz)
        assert labels.counts == {("THEME", "rain"): 1, ("THEME", "rainfall"): 1}

    def test_nested_phrase_longest_wins(self):
        doc = Document(id="d", text="tropical storm fay hit while a tropical storm formed")
        gaz = Gazetteer.from_phrases({"EVENT": ["tropical storm", "tropical storm fay"]})
        labels = gazetteer_extract(doc, gaz)
        assert labels.counts == {
            ("EVENT", "tropical storm fay"): 1,
            ("EVENT", "tropical storm"): 1,
        }

    def test_word_boundary_anchoring(self):
        doc = Document(id="d", text="rough terrain everywhere, no moisture")
        gaz = Gazetteer.from_phrases({"THEME": ["rain"]})
        assert gazetteer_extract(doc, gaz).counts == {}

    def test_dimensions_scan_independently(self):
        # Overlapping phrases in different dimensions both count.
        doc = Document(id="d", text="the atlantic hurricane season began")
        gaz = Gazetteer.from_phrases(
            {"LOCATION": ["atlantic"], "THEME": ["atlantic hurricane season"]}
        )
        labels = gazetteer_extract(doc, gaz)
        assert labels.counts == {
            ("LOCATION", "atlantic"): 1,
            ("THEME", "atlantic hurricane season"): 1,
        }

    def test_deterministic(self, hurricane_corpus, hurricane_gazetteer):
        doc = hurricane_corpus.get("565")
        first = gazetteer_extract(doc, hurricane_gazetteer)
        second = gazetteer_extract(doc, hurricane_gazetteer)
        assert first == second

    def test_one_table_per_dimension_for_whole_corpus(self, monkeypatch):
        corpus = load_corpus(HURRICANE_MINI / "corpus.jsonl")
        builds = count_table_builds(monkeypatch)
        gazetteer = load_gazetteer(HURRICANE_MINI / "gazetteer.jsonl")
        per_dim = [len(gazetteer.entries[dim]) for dim in sorted(gazetteer.entries)]
        assert builds == per_dim
        labels = extract_all(corpus, gazetteer)
        assert len(corpus) > 1 and any(doc.counts for doc in labels.values())
        assert builds == per_dim

    def test_tables_skip_empty_dimensions_and_ignored_by_equality(self):
        gaz = Gazetteer.from_phrases({"THEME": ["rain", "storm surge"], "PERSON": []})
        assert list(gaz.tables) == ["THEME"]
        assert gaz == Gazetteer.from_phrases({"THEME": ["storm surge", "rain"], "PERSON": []})

    def test_count_soundness_random_texts(self):
        # Matched counts can never exceed raw (overlap-permitting)
        # occurrences of the phrase in the token stream.
        rng = np.random.default_rng(7)
        words = ["rain", "storm", "surge", "beach", "fay", "wind"]
        for _ in range(200):
            text = " ".join(words[int(rng.integers(0, len(words)))] for _ in range(30))
            phrases = ["rain", "storm surge", "rain storm", "beach fay wind"]
            gaz = Gazetteer.from_phrases({"THEME": phrases})
            doc = Document(id="d", text=text)
            labels = gazetteer_extract(doc, gaz)
            text_tokens = tokenize(doc.text)
            for phrase in phrases:
                count = labels.counts.get(("THEME", phrase), 0)
                assert count <= substring_occurrences(phrase.split(), text_tokens)

    @given(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=40),
        st.lists(
            st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_soundness_property(self, text_tokens, phrase_token_lists):
        doc = Document(id="d", text=" ".join(text_tokens))
        phrases = {" ".join(toks) for toks in phrase_token_lists}
        gaz = Gazetteer.from_phrases({"THEME": phrases})
        labels = gazetteer_extract(doc, gaz)
        for phrase in phrases:
            count = labels.counts.get(("THEME", phrase), 0)
            assert count <= substring_occurrences(phrase.split(), text_tokens)

    @given(
        st.lists(st.sampled_from(["aa", "Bb", "cc.", "dd", "ee"]), min_size=0, max_size=40),
        st.dictionaries(
            st.sampled_from(["LOCATION", "EVENT", "THEME"]),
            st.lists(
                st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=4),
                max_size=6,
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_brute_longest_match(self, words, phrase_lists):
        # Small shared alphabets make repeated tokens, phrases that are
        # prefixes of others, and first tokens shared across dimensions.
        doc = Document(id="d", text=" ".join(["zz", *words]))
        gaz = Gazetteer.from_phrases(
            {dim: {" ".join(toks) for toks in lists} for dim, lists in phrase_lists.items()}
        )
        tokens = tokenize(doc.text)
        expected = {}
        for dim in sorted(gaz.entries):
            for _pos, phrase in brute_longest_match(tokens, gaz.entries[dim]):
                expected[(dim, phrase)] = expected.get((dim, phrase), 0) + 1
        assert gazetteer_extract(doc, gaz).counts == expected


class TestGazetteerType:
    def test_phrases_normalized_and_validated(self):
        gaz = Gazetteer.from_phrases({"THEME": ["  Storm  Surge. "]})
        assert gaz.entries["THEME"] == frozenset({"storm surge"})

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            Gazetteer.from_phrases({"THEME": ["..."]})

    def test_too_long_phrase_rejected(self):
        with pytest.raises(ValueError):
            Gazetteer.from_phrases({"THEME": ["a b c d e f g h i"]})

    def test_unknown_dimension_rejected(self):
        with pytest.raises(UnknownDimension):
            Gazetteer.from_phrases({"FLAVOR": ["salty"]})

    def test_extension_dimension_allowed(self):
        gaz = Gazetteer.from_phrases({"HAZARD": ["levee breach"]}, extensions=["HAZARD"])
        assert gaz.entries["HAZARD"] == frozenset({"levee breach"})

    def test_load_gazetteer_file(self, tmp_path):
        path = write_jsonl(
            tmp_path / "gaz.jsonl",
            [
                {"dim": "THEME", "phrase": "Rain"},
                {"dim": "LOCATION", "phrase": "Melbourne Beach"},
            ],
        )
        gaz = load_gazetteer(path)
        assert gaz.entries["THEME"] == frozenset({"rain"})
        assert gaz.entries["LOCATION"] == frozenset({"melbourne beach"})

    def test_extensions_from_a_generator(self):
        gaz = Gazetteer.from_phrases(
            {"HAZARD": ["x y"], "SECTOR": ["y z"]}, extensions=(d for d in ["HAZARD", "SECTOR"])
        )
        assert gaz.entries == {"HAZARD": frozenset({"x y"}), "SECTOR": frozenset({"y z"})}

    def test_load_gazetteer_extensions_from_a_generator(self, tmp_path):
        path = write_jsonl(
            tmp_path / "gaz.jsonl",
            [{"dim": "HAZARD", "phrase": "x y"}, {"dim": "SECTOR", "phrase": "y z"}],
        )
        gaz = load_gazetteer(path, extensions=(d for d in ["HAZARD", "SECTOR"]))
        assert gaz.entries == {"HAZARD": frozenset({"x y"}), "SECTOR": frozenset({"y z"})}


class TestPrecomputedLabels:
    def test_ingest_normalizes(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [{"doc_id": "246", "dim": "EVENT", "label": "Tropical Storm Fay", "count": 1}],
        )
        labels = load_precomputed_labels(path, hurricane_corpus)
        assert labels["246"].counts == {("EVENT", "tropical storm fay"): 1}

    def test_unknown_doc_id(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [{"doc_id": "999", "dim": "EVENT", "label": "x y", "count": 1}],
        )
        with pytest.raises(UnknownDocId) as excinfo:
            load_precomputed_labels(path, hurricane_corpus)
        assert excinfo.value.id == "999"

    def test_additive_merge(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [
                {"doc_id": "565", "dim": "THEME", "label": "rain", "count": 2},
                {"doc_id": "565", "dim": "THEME", "label": "Rain.", "count": 3},
            ],
        )
        labels = load_precomputed_labels(path, hurricane_corpus)
        assert labels["565"].counts == {("THEME", "rain"): 5}

    def test_merge_across_files(self, hurricane_corpus, tmp_path):
        first = write_jsonl(
            tmp_path / "a.jsonl",
            [{"doc_id": "565", "dim": "THEME", "label": "rain", "count": 2}],
        )
        second = write_jsonl(
            tmp_path / "b.jsonl",
            [{"doc_id": "565", "dim": "THEME", "label": "rain", "count": 3}],
        )
        labels = load_precomputed_labels(first, hurricane_corpus)
        labels = load_precomputed_labels(second, hurricane_corpus, into=labels)
        assert labels["565"].counts == {("THEME", "rain"): 5}

    def test_nonpositive_count(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [{"doc_id": "565", "dim": "THEME", "label": "rain", "count": 0}],
        )
        with pytest.raises(NonPositiveCount):
            load_precomputed_labels(path, hurricane_corpus)

    def test_unknown_dimension_unless_declared(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [{"doc_id": "565", "dim": "HAZARD", "label": "breach", "count": 1}],
        )
        with pytest.raises(UnknownDimension):
            load_precomputed_labels(path, hurricane_corpus)
        labels = load_precomputed_labels(path, hurricane_corpus, extensions=["HAZARD"])
        assert labels["565"].counts == {("HAZARD", "breach"): 1}

    def test_extensions_from_a_generator(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [
                {"doc_id": "565", "dim": "HAZARD", "label": "breach", "count": 1},
                {"doc_id": "565", "dim": "SECTOR", "label": "ports", "count": 2},
            ],
        )
        labels = load_precomputed_labels(
            path, hurricane_corpus, extensions=(d for d in ["HAZARD", "SECTOR"])
        )
        assert labels["565"].counts == {("HAZARD", "breach"): 1, ("SECTOR", "ports"): 2}

    def test_each_spelling_normalized_once(self, hurricane_corpus, tmp_path, monkeypatch):
        calls = []

        def counted(surface):
            calls.append(surface)
            return normalize_label(surface)

        monkeypatch.setattr(labeling, "normalize_label", counted)
        records = [{"doc_id": "565", "dim": "THEME", "label": "Rain", "count": 1}] * 1000
        records += [
            {"doc_id": "246", "dim": "LOCATION", "label": "Florida ", "count": 2},
            {"doc_id": "246", "dim": "LOCATION", "label": "florida", "count": 3},
        ]
        labels = load_precomputed_labels(write_jsonl(tmp_path / "labels.jsonl", records), hurricane_corpus)
        assert sorted(calls) == ["Florida ", "Rain", "florida"]
        assert labels["565"].counts == {("THEME", "rain"): 1000}
        assert labels["246"].counts == {("LOCATION", "florida"): 5}

        records.append({"doc_id": "565", "dim": "THEME", "label": "?!", "count": 1})
        with pytest.raises(MalformedRecord) as excinfo:
            load_precomputed_labels(write_jsonl(tmp_path / "bad.jsonl", records), hurricane_corpus)
        assert excinfo.value.line_no == len(records)

class TestDocLabels:
    def test_rejects_nonpositive(self):
        labels = DocLabels(doc_id="d")
        with pytest.raises(NonPositiveCount):
            labels.add("THEME", "rain", 0)

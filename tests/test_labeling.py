from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import HURRICANE_MINI, assignment_of, count_table_builds, write_escaped_jsonl, write_jsonl
from oracles import (
    brute_gazetteer_key,
    brute_longest_match,
    brute_merge,
    brute_normalize_label,
    brute_postings,
    substring_occurrences,
)
from hyperrag import (
    CANONICAL_DIMENSIONS,
    Corpus,
    DocLabels,
    Document,
    Gazetteer,
    LabelAssignment,
    MalformedRecord,
    NonPositiveCount,
    Posting,
    UnknownDimension,
    UnknownDocId,
    build_index,
    extract_all,
    load_corpus,
    load_precomputed_labels,
    lookup,
    normalize_label,
    save_index,
)
from hyperrag import labeling
from hyperrag.hypercube import MAX_COUNT
from hyperrag.labeling import load_gazetteer, tokenize


# Unicode whitespace (str.split and the regex \s both take these), the
# sentence punctuation normalization strips, letters that case folding or
# NFC changes (to two characters, or composed with a combining mark), and
# the combining marks themselves.
_NORMALIZE_ALPHABET = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000" ".,;:!?" "aAẞÅﬁİǺ" "\u0301\u030a"


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

    @given(st.text(_NORMALIZE_ALPHABET, max_size=30))
    @example("a .")
    @example("a\u3000!")
    @example("\x1c.")
    @example("Ǻ .")
    @example("a . . . . .")
    @settings(max_examples=500, deadline=None)
    def test_equals_regex_formulation(self, surface):
        assert normalize_label(surface) == brute_normalize_label(surface)


def extract_one(doc: Document, gazetteer: Gazetteer) -> DocLabels:
    """One document's gazetteer labels, extracted from a corpus holding it alone."""
    return extract_all(Corpus([doc]), gazetteer)[doc.id]


class TestGazetteerExtract:
    def test_doc_565_counts(self, hurricane_corpus, hurricane_gazetteer):
        labels = extract_one(hurricane_corpus.get("565"), hurricane_gazetteer)
        assert labels.counts == {
            ("LOCATION", "melbourne beach"): 1,
            ("EVENT", "tropical storm fay"): 1,
            ("THEME", "rain"): 5,
        }

    def test_empty_gazetteer(self):
        doc = Document(id="d", text="rain everywhere")
        labels = extract_one(doc, Gazetteer.from_phrases({}))
        assert labels.counts == {}

    def test_longest_match_wins_per_position(self):
        # "rainfall" is claimed by the longer phrase; the standalone
        # "rain" token still matches the shorter one.
        doc = Document(id="d", text="rain rainfall")
        gaz = Gazetteer.from_phrases({"THEME": ["rain", "rainfall"]})
        labels = extract_one(doc, gaz)
        assert labels.counts == {("THEME", "rain"): 1, ("THEME", "rainfall"): 1}

    def test_nested_phrase_longest_wins(self):
        doc = Document(id="d", text="tropical storm fay hit while a tropical storm formed")
        gaz = Gazetteer.from_phrases({"EVENT": ["tropical storm", "tropical storm fay"]})
        labels = extract_one(doc, gaz)
        assert labels.counts == {
            ("EVENT", "tropical storm fay"): 1,
            ("EVENT", "tropical storm"): 1,
        }

    def test_word_boundary_anchoring(self):
        doc = Document(id="d", text="rough terrain everywhere, no moisture")
        gaz = Gazetteer.from_phrases({"THEME": ["rain"]})
        assert extract_one(doc, gaz).counts == {}

    def test_dimensions_scan_independently(self):
        # Overlapping phrases in different dimensions both count.
        doc = Document(id="d", text="the atlantic hurricane season began")
        gaz = Gazetteer.from_phrases(
            {"LOCATION": ["atlantic"], "THEME": ["atlantic hurricane season"]}
        )
        labels = extract_one(doc, gaz)
        assert labels.counts == {
            ("LOCATION", "atlantic"): 1,
            ("THEME", "atlantic hurricane season"): 1,
        }

    def test_deterministic(self, hurricane_corpus, hurricane_gazetteer):
        doc = hurricane_corpus.get("565")
        first = extract_one(doc, hurricane_gazetteer)
        second = extract_one(doc, hurricane_gazetteer)
        assert first == second

    def test_one_phrase_table_per_gazetteer_for_whole_corpus(self, monkeypatch):
        corpus = load_corpus(HURRICANE_MINI / "corpus.jsonl")
        builds = count_table_builds(monkeypatch)
        gazetteer = load_gazetteer(HURRICANE_MINI / "gazetteer.jsonl")
        phrases = len(set().union(*gazetteer.entries.values()))
        assert builds == [phrases] and gazetteer.all_phrases() == set(gazetteer.phrase_dims)
        labels = extract_all(corpus, gazetteer)
        assert len(corpus) > 1 and any(doc.counts for doc in labels.values())
        assert builds == [phrases]

    def test_derived_fields_ignored_by_equality_and_empty_dimension_adds_nothing(self):
        gaz = Gazetteer.from_phrases({"THEME": ["rain", "storm surge"], "PERSON": []})
        assert gaz.phrase_dims == {"rain": ("THEME",), "storm surge": ("THEME",)}
        assert gaz.phrase_table == Gazetteer.from_phrases({"THEME": ["rain", "storm surge"]}).phrase_table
        other = Gazetteer.from_phrases({"THEME": ["storm surge", "rain"], "PERSON": []})
        object.__setattr__(other, "phrase_dims", {})
        object.__setattr__(other, "phrase_table", {})
        assert gaz == other

    @given(
        st.dictionaries(
            st.sampled_from(["LOCATION", "EVENT", "THEME"]),
            st.lists(st.lists(st.sampled_from(["aa", "bb", "cc"]), min_size=1, max_size=3), max_size=6),
            max_size=3,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_phrase_structure_equals_an_index_of_the_same_phrases(self, phrase_lists):
        # Three words make phrases shared across dimensions and phrases that are prefixes of others.
        entries = {dim: {" ".join(toks) for toks in lists} for dim, lists in phrase_lists.items()}
        gaz = Gazetteer.from_phrases(entries)
        labels = LabelAssignment()
        for dim, phrases in entries.items():
            for phrase in phrases:
                labels.add("d", dim, phrase)
        ix = build_index(Corpus([Document(id="d", text="x")]), labels)
        assert gaz.phrase_dims == ix.phrase_dims
        assert gaz.phrase_table == ix.phrase_table

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
            labels = extract_one(doc, gaz)
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
        labels = extract_one(doc, gaz)
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
        assert extract_one(doc, gaz).counts == expected


# Gazetteer phrases of 0-10 tokens over letters (one that case folding turns into two characters),
# the sentence punctuation normalization strips, punctuation tokenize strips, and lone surrogates.
# Two tokens in three are letters only, so that many phrases are valid.
_LETTER_TOKENS = st.text("aBİ", min_size=1, max_size=3)
_GAZETTEER_PHRASES = st.lists(
    st.one_of(_LETTER_TOKENS, _LETTER_TOKENS, st.text("aBİ" ".,;:!?" "()'\"-…—" "\ud800\udcff", min_size=1, max_size=3)),
    max_size=10,
).flatmap(lambda tokens: st.sampled_from([" ", "  ", " \t"]).map(lambda sep: sep.join(tokens)))


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
        # The gazetteer holds any dimension; the build refuses one its index does not take.
        gaz = Gazetteer.from_phrases({"FLAVOR": ["salty"]})
        corpus = Corpus([Document(id="d", text="salty air")])
        with pytest.raises(UnknownDimension) as excinfo:
            build_index(corpus, extract_all(corpus, gaz))
        assert excinfo.value.name == "FLAVOR"

    @pytest.mark.parametrize("phrase", ["(rain)", "storm - surge", '"fay"', "rain (heavy"])
    def test_phrase_tokenize_would_change_rejected(self, phrase):
        # tokenize strips the punctuation around a token, so no text could match such a key:
        # a gazetteer built directly refuses it too, naming the dimension.
        with pytest.raises(ValueError, match="'THEME': .*not 1-8 tokens that join to"):
            Gazetteer(entries={"THEME": frozenset({normalize_label(phrase)})})
        with pytest.raises(ValueError, match="not 1-8 tokens that join to"):
            Gazetteer.from_phrases({"THEME": [phrase]})

    def test_load_gazetteer_names_the_line_of_a_phrase_no_text_can_match(self, tmp_path):
        path = write_jsonl(
            tmp_path / "gaz.jsonl", [{"dim": "THEME", "phrase": "rain"}, {"dim": "THEME", "phrase": "(rain)"}]
        )
        with pytest.raises(MalformedRecord, match=r"'\(rain\)' tokenizes to \['rain'\]") as excinfo:
            load_gazetteer(path)
        assert excinfo.value.line_no == 2

    def test_phrase_with_lone_surrogate_rejected(self):
        with pytest.raises(ValueError, match="lone surrogate"):
            Gazetteer.from_phrases({"THEME": ["rain\ud800"]})

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("Rain", "'Rain' is not normalized"),
            ("storm  surge", "'storm  surge' is not normalized"),
            ("rain.", "'rain.' is not normalized"),
            ("", "not 1-8 tokens"),
            ("rain\ud800", "lone surrogate"),
            ("a b c d e f g h i", "not 1-8 tokens"),
            (5, "phrase 5 is not a str"),
            (None, "phrase None is not a str"),
        ],
    )
    def test_built_directly_refuses_what_from_phrases_would_not_make(self, entry, message):
        # Every other entry is fine; the refusal names the dimension and the one at fault.
        entries = {"THEME": frozenset({"rain", "storm surge"}), "EVENT": frozenset({"fay", entry})}
        with pytest.raises(ValueError, match=f"'EVENT': .*{message}"):
            Gazetteer(entries=entries)
        with pytest.raises(ValueError, match=f"'EVENT': .*{message}"):
            Gazetteer(entries={"EVENT": frozenset({entry})})
        if not isinstance(entry, str):
            # from_phrases normalizes a str only, and leaves any other value to the same refusal.
            with pytest.raises(ValueError, match=f"'EVENT': .*{message}"):
                Gazetteer.from_phrases({"THEME": ["rain"], "EVENT": ["fay", entry]})

    @given(st.lists(_GAZETTEER_PHRASES, min_size=1, max_size=3))
    @example(["a b c d e f g h"])
    @example(["a b c d e f g h i"])
    @example(["(rain) x", "rain."])
    @settings(max_examples=400, deadline=None)
    def test_from_phrases_and_the_gate_equal_brute_gazetteer_key(self, phrases):
        keys = []
        for phrase in phrases:
            try:
                key = brute_gazetteer_key(phrase)
            except ValueError:
                with pytest.raises(ValueError, match=re.escape(f"phrase {normalize_label(phrase)!r} ")):
                    Gazetteer.from_phrases({"THEME": [phrase]})
            else:
                assert Gazetteer.from_phrases({"THEME": [phrase]}).entries == {"THEME": frozenset({key})}
            for candidate in (phrase, normalize_label(phrase)):
                try:
                    valid = brute_gazetteer_key(candidate) == candidate
                except ValueError:
                    valid = False
                # The explainer gives no reason exactly when the gate's rule holds for the key alone.
                assert (labeling._phrase_fault(candidate) is None) == labeling._all_gazetteer_keys([candidate]) == valid
                keys.append(candidate)
        # The rule tested on all keys at once holds exactly when it holds for each alone.
        assert labeling._all_gazetteer_keys(keys) == all(labeling._all_gazetteer_keys([key]) for key in keys)

    def test_load_gazetteer_names_the_first_faulty_line_as_spelled(self, tmp_path):
        # EVENT is read first and sorts first, but its fault is on line 4; THEME's, on line 2, is
        # named, spelled as there, though line 5 gives the same key.
        records = [
            {"dim": "EVENT", "phrase": "fay"},
            {"dim": "THEME", "phrase": "..."},
            {"dim": "THEME", "phrase": "rain"},
            {"dim": "EVENT", "phrase": "(Fay)"},
            {"dim": "THEME", "phrase": "!"},
        ]
        message = "gazetteer phrase '...' tokenizes to [], not 1-8 tokens that join to ''"
        with pytest.raises(MalformedRecord, match=re.escape(message)) as excinfo:
            load_gazetteer(write_jsonl(tmp_path / "gaz.jsonl", records))
        assert excinfo.value.line_no == 2

    def test_built_directly_refuses_a_dimension_name_that_is_not_a_str(self):
        with pytest.raises(ValueError, match="dimension name 7 is not a str"):
            Gazetteer(entries={"THEME": frozenset({"rain"}), 7: frozenset({"fay"})})

    def test_load_gazetteer_names_the_line_of_a_lone_surrogate(self, tmp_path):
        path = write_escaped_jsonl(
            tmp_path / "gaz.jsonl", [{"dim": "THEME", "phrase": "rain"}, {"dim": "THEME", "phrase": "storm \udcff"}]
        )
        with pytest.raises(MalformedRecord, match="lone surrogate") as excinfo:
            load_gazetteer(path)
        assert excinfo.value.line_no == 2

    def test_extension_dimension_allowed(self):
        gaz = Gazetteer.from_phrases({"HAZARD": ["levee breach"]})
        assert gaz.entries["HAZARD"] == frozenset({"levee breach"})
        corpus = Corpus([Document(id="d", text="a levee breach")])
        ix = build_index(corpus, extract_all(corpus, gaz), dimensions=CANONICAL_DIMENSIONS + ("HAZARD",))
        assert list(lookup(ix, "HAZARD", "levee breach")) == [Posting("d", 1)]

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


class TestPrecomputedLabels:
    def test_ingest_normalizes(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [{"doc_id": "246", "dim": "EVENT", "label": "Tropical Storm Fay", "count": 1}],
        )
        labels = load_precomputed_labels(path, hurricane_corpus)
        assert labels["246"].counts == {("EVENT", "tropical storm fay"): 1}

    def test_label_with_lone_surrogate_names_its_line(self, hurricane_corpus, tmp_path):
        path = write_escaped_jsonl(
            tmp_path / "labels.jsonl",
            [
                {"doc_id": "246", "dim": "THEME", "label": "rain", "count": 1},
                {"doc_id": "565", "dim": "THEME", "label": "Rain\ud800", "count": 1},
            ],
        )
        with pytest.raises(MalformedRecord, match="label 'Rain\\\\ud800' holds a lone surrogate") as excinfo:
            load_precomputed_labels(path, hurricane_corpus)
        assert excinfo.value.line_no == 2

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
        # The file is read whole; the build refuses the dimension unless it is named.
        labels = load_precomputed_labels(path, hurricane_corpus)
        assert labels["565"].counts == {("HAZARD", "breach"): 1}
        with pytest.raises(UnknownDimension) as excinfo:
            build_index(hurricane_corpus, labels)
        assert excinfo.value.name == "HAZARD"
        ix = build_index(hurricane_corpus, labels, dimensions=CANONICAL_DIMENSIONS + ("HAZARD",))
        assert list(lookup(ix, "HAZARD", "breach")) == [Posting("565", 1)]

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


# Four documents that label records may name, and one that none does.
_LABELED = ["d0", "d1", "d2", "d3"]
_CORPUS = Corpus([Document(id=doc_id, text="placeholder") for doc_id in _LABELED + ["d4"]])
_RECORDS = st.fixed_dictionaries(
    {
        "doc_id": st.sampled_from(_LABELED),
        "dim": st.sampled_from(["THEME", "LOCATION", "HAZARD"]),
        # Several spellings of one key, so records repeat a (doc, dim, key).
        "label": st.sampled_from(["Rain", "rain", "rain.", "storm surge", "Storm  Surge", "fay"]),
        "count": st.integers(1, 5),
    }
)


class TestLabelAssignment:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=st.lists(st.lists(_RECORDS, max_size=12), min_size=1, max_size=3))
    def test_files_merged_with_into_equal_brute_force(self, tmp_path, files):
        labels = None
        for i, records in enumerate(files):
            path = write_jsonl(tmp_path / f"labels{i}.jsonl", records)
            labels = load_precomputed_labels(path, _CORPUS, into=labels)
        merged = brute_merge([record for records in files for record in records])
        assert list(labels) == list(merged)
        assert {doc_id: doc.counts for doc_id, doc in labels.items()} == merged
        assert "d4" not in labels and len(labels) == len(merged)

        snapshots = {doc_id: DocLabels(doc_id=doc_id, counts=counts) for doc_id, counts in merged.items()}
        dimensions = CANONICAL_DIMENSIONS + ("HAZARD",)
        ix = build_index(_CORPUS, labels, dimensions=dimensions)
        assert ix.doc_ids == ("d0", "d1", "d2", "d3", "d4")
        built = {dim: {key: list(map(tuple, p)) for key, p in by_key.items()} for dim, by_key in ix.inverted.items()}
        assert {dim: by_key for dim, by_key in built.items() if by_key} == brute_postings(snapshots)
        save_index(ix, tmp_path / "assignment.hcix")
        # The plain side is built record by record with add, from the hand merge.
        save_index(build_index(_CORPUS, assignment_of(snapshots), dimensions=dimensions), tmp_path / "plain.hcix")
        assert (tmp_path / "assignment.hcix").read_bytes() == (tmp_path / "plain.hcix").read_bytes()

    def test_extract_all_equals_one_document_extraction(self, hurricane_corpus, hurricane_gazetteer):
        labels = extract_all(hurricane_corpus, hurricane_gazetteer)
        assert isinstance(labels, LabelAssignment)
        assert list(labels) == [doc.id for doc in hurricane_corpus]
        for doc in hurricane_corpus:
            assert labels[doc.id] == extract_one(doc, hurricane_gazetteer)

    def test_gazetteer_labels_and_files_merge(self, hurricane_corpus, hurricane_gazetteer, tmp_path):
        labels = extract_all(hurricane_corpus, hurricane_gazetteer)
        path = write_jsonl(tmp_path / "labels.jsonl", [{"doc_id": "565", "dim": "THEME", "label": "Rain", "count": 2}])
        assert load_precomputed_labels(path, hurricane_corpus, into=labels) is labels
        assert labels["565"].counts[("THEME", "rain")] == 5 + 2

    def test_a_read_is_a_snapshot(self, hurricane_corpus, tmp_path):
        path = write_jsonl(tmp_path / "labels.jsonl", [{"doc_id": "565", "dim": "THEME", "label": "rain", "count": 2}])
        labels = load_precomputed_labels(path, hurricane_corpus)
        read = labels["565"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.doc_id = "246"
        # Each read owns its counts: changing them changes no later read.
        read.counts[("THEME", "storm")] = 1
        read.counts[("THEME", "rain")] += 1
        assert read.counts == {("THEME", "rain"): 3, ("THEME", "storm"): 1}
        assert labels["565"].counts == {("THEME", "rain"): 2}

    def test_mapping_behaves_as_a_dict(self, hurricane_corpus, tmp_path):
        path = write_jsonl(
            tmp_path / "labels.jsonl",
            [
                {"doc_id": "565", "dim": "THEME", "label": "rain", "count": 2},
                {"doc_id": "246", "dim": "LOCATION", "label": "Florida", "count": 1},
                {"doc_id": "565", "dim": "EVENT", "label": "Fay", "count": 1},
            ],
        )
        labels = load_precomputed_labels(path, hurricane_corpus)
        assert len(labels) == 2 and "565" in labels and "535" not in labels
        assert list(labels) == ["565", "246"]
        assert list(labels["565"].counts) == [("THEME", "rain"), ("EVENT", "fay")]
        with pytest.raises(KeyError):
            labels["535"]
        assert LabelAssignment() == {} and len(LabelAssignment()) == 0

    def test_into_must_be_an_assignment(self, hurricane_corpus, tmp_path):
        path = write_jsonl(tmp_path / "labels.jsonl", [{"doc_id": "565", "dim": "THEME", "label": "rain"}])
        with pytest.raises(TypeError, match="LabelAssignment"):
            load_precomputed_labels(path, hurricane_corpus, into={})

    def test_into_from_another_corpus_checks_every_doc_against_this_one(
        self, hurricane_corpus, hurricane_gazetteer, tmp_path
    ):
        labels = extract_all(_CORPUS, hurricane_gazetteer)
        assert "d0" in labels and "d0" not in hurricane_corpus
        path = write_jsonl(tmp_path / "labels.jsonl", [{"doc_id": "d0", "dim": "THEME", "label": "rain"}])
        with pytest.raises(UnknownDocId, match="d0"):
            load_precomputed_labels(path, hurricane_corpus, into=labels)
        assert labels["d0"].counts == {}

    @pytest.mark.parametrize("files", [[[MAX_COUNT, 1]], [[MAX_COUNT], [1]]], ids=["one_file", "two_files"])
    def test_records_summing_past_max_count_refused_at_build(self, hurricane_corpus, tmp_path, files):
        labels = None
        for i, counts in enumerate(files):
            records = [{"doc_id": "565", "dim": "THEME", "label": "rain", "count": count} for count in counts]
            labels = load_precomputed_labels(write_jsonl(tmp_path / f"l{i}.jsonl", records), hurricane_corpus, into=labels)
        assert labels["565"].counts == {("THEME", "rain"): MAX_COUNT + 1}
        with pytest.raises(NonPositiveCount) as excinfo:
            build_index(hurricane_corpus, labels)
        assert str(excinfo.value) == (
            f"count must be an integer from 1 to {MAX_COUNT}: (THEME, 'rain') in doc '565' -> {MAX_COUNT + 1}"
        )

    @pytest.mark.parametrize("count", [MAX_COUNT + 1, 2**70])
    def test_a_count_no_index_holds_is_refused_with_the_build_message(self, hurricane_corpus, tmp_path, count):
        records = [
            {"doc_id": "246", "dim": "THEME", "label": "rain", "count": 1},
            {"doc_id": "565", "dim": "THEME", "label": "Rain", "count": count},
        ]
        labels = LabelAssignment()
        with pytest.raises(NonPositiveCount) as excinfo:
            load_precomputed_labels(write_jsonl(tmp_path / "labels.jsonl", records), hurricane_corpus, into=labels)
        message = f"count must be an integer from 1 to {MAX_COUNT}: (THEME, 'rain') in doc '565' -> {count}"
        assert str(excinfo.value) == message
        # The refused record appended nothing; the one before it stays.
        assert list(labels) == ["246"]
        # add refuses the same count with the same message.
        with pytest.raises(NonPositiveCount) as excinfo:
            LabelAssignment().add("565", "THEME", "rain", count)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "count", [0, -1, True, 2.5, MAX_COUNT + 1], ids=["zero", "negative", "bool", "float", "past_max_count"]
    )
    def test_add_refuses_a_bad_count(self, count):
        labels = LabelAssignment()
        labels.add("d0", "THEME", "rain", 2)
        with pytest.raises(NonPositiveCount) as excinfo:
            labels.add("d1", "THEME", "storm", count)
        assert str(excinfo.value) == (
            f"count must be an integer from 1 to {MAX_COUNT}: (THEME, 'storm') in doc 'd1' -> {count}"
        )
        # The refused record appended nothing and registered no doc: the
        # assignment builds the index it built before the call.
        assert list(labels) == ["d0"]
        ix = build_index(_CORPUS, labels)
        assert ix.vocab["THEME"] == {"rain"} and list(lookup(ix, "THEME", "rain")) == [Posting("d0", 2)]

    def test_add_merges_where_read(self):
        labels = LabelAssignment()
        labels.add("d1", "THEME", "storm surge", 2)
        labels.add("d0", "LOCATION", "florida")
        labels.add("d1", "THEME", "storm surge")
        assert list(labels) == ["d1", "d0"]
        assert labels["d1"] == DocLabels(doc_id="d1", counts={("THEME", "storm surge"): 3})
        assert list(lookup(build_index(_CORPUS, labels), "THEME", "storm surge")) == [Posting("d1", 3)]

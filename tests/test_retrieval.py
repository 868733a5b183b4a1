from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    FIXTURE_TAU,
    HURRICANE_MINI,
    MELBOURNE_QUERY,
    assignment_of,
    count_derivations,
    count_table_builds,
    random_labeled_corpus,
    write_jsonl,
)
from oracles import brute_longest_match, brute_retrieve, brute_score, py_cosine
from hyperrag import (
    CANONICAL_DIMENSIONS,
    Corpus,
    DocLabels,
    Document,
    ExternalDecompositions,
    LabelAssignment,
    PrecomputedVectorEncoder,
    QueryComponent,
    TrigramEncoder,
    UnencodableText,
    build_index,
    extract_all,
    load_corpus,
    load_gazetteer,
    load_index,
    load_precomputed_labels,
    load_queries,
    normalize_label,
    result_to_dict,
    retrieve,
    save_index,
)
from hyperrag import retrieval as retrieval_mod
from hyperrag.labeling import match_phrases, tokenize
from hyperrag.retrieval import (
    EXACT,
    SEMANTIC,
    UNMATCHED,
    MatchEvidence,
    ScoredDoc,
    Scores,
    decompose_query,
    match_component,
    rank,
    score_documents,
)


def doc_labels_of(label_map: dict[str, dict[tuple[str, str], int]]) -> dict[str, DocLabels]:
    return {doc_id: DocLabels(doc_id=doc_id, counts=dict(pairs)) for doc_id, pairs in label_map.items()}


def simple_index(label_map: dict[str, dict[tuple[str, str], int]], encoder=None, dimensions=None):
    docs = [Document(id=doc_id, text="placeholder body text") for doc_id in label_map]
    return build_index(Corpus(docs), assignment_of(doc_labels_of(label_map)), dimensions=dimensions, encoder=encoder)


def _kept_components(result):
    """The components ``retrieve`` kept, checked to line up with its matches one for one."""
    components = result.decomposition.components
    assert [(m.dimension, m.component) for m in result.matches] == [(c.dimension, c.key) for c in components]
    return components


@st.composite
def _prefix_keys_and_query(draw) -> tuple[list[tuple[str, str]], str]:
    """(dimension, key) labels, some keys prefixes of others, and a query ending on a prefix of one."""
    keys = draw(st.lists(st.lists(st.sampled_from(["aa", "bb", "cc"]), min_size=1, max_size=4), min_size=1, max_size=5))
    keys += [key[:n] for key in keys for n in range(1, len(key)) if draw(st.booleans())]
    dims = st.sampled_from(["LOCATION", "EVENT", "THEME"])
    labels = [(draw(dims), " ".join(key)) for key in keys for _dim in range(draw(st.integers(1, 2)))]
    tail = draw(st.sampled_from(keys))
    head = draw(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "then"]), max_size=6))
    return labels, " ".join(head + tail[: draw(st.integers(1, len(tail)))])


class TestDecomposeQuery:
    def test_melbourne_query_components(self, hurricane_index, trigram):
        result = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU)
        assert {(c.dimension, c.key) for c in _kept_components(result)} == {
            ("LOCATION", "melbourne beach"),
            ("LOCATION", "florida"),
            ("EVENT", "tropical storm fay"),
            ("THEME", "rainfall"),
        }
        assert result.decomposition.component_count == 4

    def test_fallback_candidate_needs_semantic_support(self, hurricane_index, trigram):
        # "receive" survives the stopword filter but matches no THEME
        # label, so retrieve drops it.
        result = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU)
        assert "receive" not in {c.key for c in _kept_components(result)}

    def test_lexical_decomposition_keeps_every_content_word(self, hurricane_index):
        # No encoder to vet them: both content words come back as THEME
        # candidates, in query order among the phrase components.
        decomposition = decompose_query(MELBOURNE_QUERY, hurricane_index)
        assert [(c.dimension, c.key) for c in decomposition.components] == [
            ("THEME", "rainfall"),
            ("LOCATION", "melbourne beach"),
            ("LOCATION", "florida"),
            ("THEME", "receive"),
            ("EVENT", "tropical storm fay"),
        ]

    def test_no_hits_yields_empty(self, hurricane_index, trigram):
        result = retrieve("did they watch it", hurricane_index, trigram, tau=FIXTURE_TAU)
        assert _kept_components(result) == []
        assert result.ranked == []

    def test_external_used_verbatim(self, hurricane_index):
        external = [("THEME", "Rainfall"), ("LOCATION", "Melbourne   Beach."), ("THEME", "rainfall")]
        decomposition = decompose_query("whatever text", hurricane_index, external)
        assert [(c.dimension, c.key) for c in decomposition.components] == [
            ("THEME", "rainfall"),
            ("LOCATION", "melbourne beach"),
        ]

    def test_external_keeps_unmatchable_components(self, hurricane_index):
        external = [("THEME", "quantum entanglement"), ("LOCATION", "florida")]
        decomposition = decompose_query("q", hurricane_index, external)
        assert decomposition.component_count == 2

    def test_precomputed_key_tokenize_changes_matches_only_externally(self, tmp_path):
        # A labels file keeps "(rain)" as its own key, but tokenize strips the
        # parentheses, so only an external decomposition reaches it exactly.
        corpus = Corpus([Document(id="d1", text="heavy (rain) today")])
        labels_path = write_jsonl(tmp_path / "labels.jsonl", [{"doc_id": "d1", "dim": "THEME", "label": "(Rain)"}])
        ix = build_index(corpus, load_precomputed_labels(labels_path, corpus))
        assert ix.vocab["THEME"] == {"(rain)"}
        builtin = decompose_query("heavy (rain) today", ix)
        assert "(rain)" not in {c.key for c in builtin.components}
        assert retrieve("heavy (rain) today", ix).ranked == []
        external = retrieve("heavy (rain) today", ix, external=[("THEME", "(rain)")])
        assert [(m.matched_label, m.kind) for m in external.matches] == [("(rain)", EXACT)]
        assert [doc.doc_id for doc in external.ranked] == ["d1"]

    def test_order_is_first_match_position(self, hurricane_index, trigram):
        result = retrieve("tropical storm fay drenched melbourne beach", hurricane_index, trigram)
        assert [c.key for c in _kept_components(result)] == [
            "tropical storm fay",
            "melbourne beach",
        ]

    def test_without_encoder_only_vocab_grounded(self, hurricane_index):
        result = retrieve(MELBOURNE_QUERY, hurricane_index)
        assert {c.key for c in _kept_components(result)} == {
            "melbourne beach",
            "florida",
            "tropical storm fay",
        }

    def test_dedup_by_dimension_and_key(self, hurricane_index, trigram):
        result = retrieve("florida and florida again", hurricane_index, trigram)
        assert [(c.dimension, c.key) for c in _kept_components(result)] == [
            ("LOCATION", "florida")
        ]

    @settings(max_examples=300, deadline=None)
    @given(case=_prefix_keys_and_query())
    @example(case=([("THEME", "aa bb"), ("THEME", "aa bb cc")], "then aa bb"))
    def test_phrase_components_equal_brute_longest_match(self, case):
        # Keys that are prefixes of others, in a query ending on a key's
        # prefix, make the matcher probe token counts past the last token.
        labels, query = case
        assignment = LabelAssignment()
        for dim, key in labels:
            assignment.add("d", dim, key)
        ix = build_index(Corpus([Document(id="d", text="x")]), assignment)
        tokens = tokenize(query)
        hits = brute_longest_match(tokens, ix.phrase_dims)
        triples = match_phrases(tokens, range(len(tokens)), ix.phrase_table, ix.phrase_dims)
        assert triples == [(pos, len(key.split()), key) for pos, key in hits]
        # A fallback candidate is never a key: the matcher would have claimed it.
        expected = dict.fromkeys((dim, key) for _pos, key in hits for dim in ix.phrase_dims[key])
        components = decompose_query(query, ix).components
        assert [(c.dimension, c.key) for c in components if c.key in ix.phrase_dims] == list(expected)

    def test_external_file_lookup(self, hurricane_index, tmp_path):
        path = write_jsonl(
            tmp_path / "decomp.jsonl",
            [
                {
                    "id": "q1",
                    "query": MELBOURNE_QUERY,
                    "components": [
                        {"dim": "LOCATION", "text": "Melbourne Beach"},
                        {"dim": "THEME", "text": "rainfall"},
                    ],
                }
            ],
        )
        table = ExternalDecompositions.load(path)
        assert table.for_query("q1", "") == table.for_query("", MELBOURNE_QUERY)
        assert table.for_query("other", "unknown") is None


class TestMatchComponent:
    def test_exact_match(self, hurricane_index, trigram):
        match = match_component(
            QueryComponent("EVENT", "tropical storm fay", "tropical storm fay"),
            hurricane_index,
            trigram,
        )
        assert match.kind == EXACT
        assert match.sim == 1.0
        assert match.matched_label == "tropical storm fay"

    def test_semantic_fallback(self, hurricane_index, trigram):
        match = match_component(
            QueryComponent("THEME", "rainfall", "rainfall"),
            hurricane_index,
            trigram,
            tau=FIXTURE_TAU,
        )
        assert match.kind == SEMANTIC
        assert match.matched_label == "rain"
        assert match.sim == pytest.approx(
            py_cosine(trigram.encode("rainfall"), trigram.encode("rain")), abs=1e-12
        )
        assert match.sim >= FIXTURE_TAU

    def test_tau_one_unmatched(self, hurricane_index, trigram):
        match = match_component(
            QueryComponent("THEME", "rainfall", "rainfall"), hurricane_index, trigram, tau=1.0
        )
        assert match.kind == UNMATCHED
        assert match.matched_label is None

    def test_exact_preempts_semantic(self, hurricane_index, trigram):
        # "rain" is in the vocabulary: even at a permissive threshold the
        # exact route wins and sim is pinned to 1.0.
        match = match_component(
            QueryComponent("THEME", "rain", "rain"), hurricane_index, trigram, tau=0.0
        )
        assert match.kind == EXACT and match.sim == 1.0

    def test_tie_breaks_to_smallest_label(self, trigram):
        # "xyxy" and "yxyx" have identical trigram multisets, hence
        # identical vectors and identical similarity to the component.
        ix = simple_index({"d1": {("THEME", "xyxy"): 1}, "d2": {("THEME", "yxyx"): 1}}, encoder=trigram)
        assert np.array_equal(trigram.encode("xyxy"), trigram.encode("yxyx"))
        match = match_component(
            QueryComponent("THEME", "xyxyx", "xyxyx"), ix, trigram, tau=0.1
        )
        assert match.kind == SEMANTIC
        assert match.matched_label == "xyxy"

    def test_unencodable_component_unmatched(self, hurricane_index, trigram):
        match = match_component(QueryComponent("THEME", "ab", "ab"), hurricane_index, trigram)
        assert match.kind == UNMATCHED

    def test_evidence_is_a_frozen_value_without_a_dict(self):
        # MatchEvidence stores its fields through its own __init__; it is
        # still the frozen dataclass value its fields define, with no
        # per-instance dict.
        ev = MatchEvidence("THEME", "rains", "rain", SEMANTIC, 0.8, 2)
        assert [f.name for f in fields(ev)] == ["dimension", "component", "matched_label", "kind", "sim", "doc_count"]
        assert ev == MatchEvidence(
            dimension="THEME", component="rains", matched_label="rain", kind=SEMANTIC, sim=0.8, doc_count=2
        )
        assert hash(ev) == hash(replace(ev)) and ev != replace(ev, doc_count=3)
        assert MatchEvidence("THEME", "rains", None, UNMATCHED, 0.0).doc_count == 0
        assert repr(ev) == (
            "MatchEvidence(dimension='THEME', component='rains', matched_label='rain', "
            "kind='semantic', sim=0.8, doc_count=2)"
        )
        with pytest.raises(FrozenInstanceError):
            ev.doc_count = 3
        assert not hasattr(ev, "__dict__")


def _fixture_matches(ix, encoder):
    return retrieve(MELBOURNE_QUERY, ix, encoder, tau=FIXTURE_TAU).matches


class TestScoreDocuments:
    def test_fixture_scores(self, hurricane_index, trigram):
        matches = _fixture_matches(hurricane_index, trigram)
        rows = score_documents(matches, hurricane_index)
        scored = {row[0]: row for row in rows}
        assert set(scored) == {"565", "246", "535"}
        assert scored["565"][1:4] == (3, 2, 7)
        assert scored["246"][1] == 2
        assert scored["535"][1] == 1
        ranked = {doc.doc_id: doc for doc in rank(rows, matches, k=len(rows))}
        assert {
            (ev.dimension, ev.matched_label)
            for ev in ranked["246"].evidence
            if ev.doc_count > 0
        } == {("LOCATION", "florida"), ("EVENT", "tropical storm fay")}

    def test_empty_decomposition(self, hurricane_index):
        assert list(score_documents([], hurricane_index)) == []

    def test_candidates_cover_every_posting(self, hurricane_index, trigram):
        matches = _fixture_matches(hurricane_index, trigram)
        scored_ids = {row[0] for row in score_documents(matches, hurricane_index)}
        from hyperrag import lookup

        for match in matches:
            if match.matched_label is None:
                continue
            for posting in lookup(hurricane_index, match.dimension, match.matched_label):
                assert posting.doc_id in scored_ids

    def test_every_candidate_covers_something(self, hurricane_index, trigram):
        matches = _fixture_matches(hurricane_index, trigram)
        for _doc_id, coverage, _indicator, freq, _counts in score_documents(
            matches, hurricane_index
        ):
            assert coverage >= 1
            assert freq >= coverage


def _components(n):
    """``n`` exact matches, one per query component."""
    return [MatchEvidence("THEME", f"c{i}", f"c{i}", EXACT, 1.0) for i in range(n)]


def make_row(doc_id, coverage, indicator, freq, n):
    """A score row whose first ``coverage`` of ``n`` components have count 1."""
    return (doc_id, coverage, indicator, freq, [int(i < coverage) for i in range(n)])


def rank_rows(rows, matches, k):
    """``rank`` over ``Scores`` holding the ``(doc_id, coverage, indicator, freq, counts)`` rows in order.

    Each row's postings are its nonzero counts, in component order; the
    ``Scores`` is checked to iterate back to the rows.
    """
    doc_ids = tuple(sorted({row[0] for row in rows}))
    postings = [[(i, count) for i, count in enumerate(row[4]) if count] for row in rows]

    def ints(values):
        return np.array(list(values), dtype=np.int64)

    scores = Scores(
        doc_ids=doc_ids,
        component_count=len(matches),
        ordinals=ints(doc_ids.index(row[0]) for row in rows),
        coverage=ints(row[1] for row in rows),
        indicator=ints(row[2] for row in rows),
        freq=ints(row[3] for row in rows),
        offsets=ints(np.cumsum([0] + [len(p) for p in postings])),
        components=ints(i for p in postings for i, _count in p),
        counts=ints(count for p in postings for _i, count in p),
    )
    assert list(scores) == [tuple(row) for row in rows]
    return rank(scores, matches, k)


def _evidence(matches, counts):
    """Evidence of a kept document, built afresh from its counts."""
    return [
        replace(match, doc_count=count)
        if count
        else MatchEvidence(match.dimension, match.component, None, UNMATCHED, 0.0)
        for match, count in zip(matches, counts)
    ]


class TestRank:
    def test_two_tier_ordering(self):
        rows = [
            make_row("D", 1, 1, 1, 3),
            make_row("C", 2, 2, 2, 3),
            make_row("B", 3, 3, 3, 3),
            make_row("A", 3, 3, 4, 3),
        ]
        ranked = rank_rows(rows, _components(3), k=4)
        assert [d.doc_id for d in ranked] == ["A", "B", "C", "D"]
        assert [d.coverage for d in ranked[:2]] == [3, 3]

    def test_fallback_when_no_full_coverage(self):
        rows = [make_row("D", 1, 1, 1, 3), make_row("C", 2, 2, 2, 3)]
        ranked = rank_rows(rows, _components(3), k=4)
        assert [d.doc_id for d in ranked] == ["C", "D"]

    def test_zero_coverage_docs_never_ranked(self):
        # score_documents never emits coverage-0 rows; rank over an empty
        # candidate list stays empty.
        assert rank_rows([], _components(2), k=3) == []

    def test_tie_break_chain(self):
        rows = [
            make_row("b", 2, 1, 5, 2),
            make_row("a", 2, 2, 5, 2),
            make_row("c", 2, 2, 6, 2),
        ]
        ranked = rank_rows(rows, _components(2), k=3)
        assert [d.doc_id for d in ranked] == ["c", "a", "b"]

    def test_doc_id_breaks_final_tie(self):
        rows = [make_row("z", 1, 1, 1, 1), make_row("a", 1, 1, 1, 1)]
        assert [d.doc_id for d in rank_rows(rows, _components(1), 2)] == ["a", "z"]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            rank_rows([], _components(1), k=0)

    def test_k_truncates(self):
        rows = [make_row(f"d{i}", 1, 1, i, 1) for i in range(6)]
        assert len(rank_rows(rows, _components(1), 2)) == 2

    def test_equals_sorting_every_candidate(self):
        # Random candidate rows, with repeated doc ids and any coverage up
        # to the component count (score_documents never exceeds it),
        # against sorting both tiers in full and building evidence for
        # every row.
        rng = np.random.default_rng(47)

        def order(doc):
            return (-doc.coverage, -doc.freq_score, -doc.indicator_score, doc.doc_id)

        for _case in range(300):
            component_count = int(rng.integers(1, 4))
            matches = [
                MatchEvidence("THEME", f"c{i}", f"l{i}", EXACT if rng.random() < 0.5 else SEMANTIC, 0.7)
                for i in range(component_count)
            ]
            rows = [
                (
                    f"d{int(rng.integers(0, 6))}",
                    int(rng.integers(0, component_count + 1)),
                    int(rng.integers(0, 3)),
                    int(rng.integers(0, 4)),
                    [int(rng.integers(0, 3)) for _ in range(component_count)],
                )
                for _ in range(int(rng.integers(0, 12)))
            ]
            scored = [
                ScoredDoc(doc_id, coverage, indicator, freq, _evidence(matches, counts))
                for doc_id, coverage, indicator, freq, counts in rows
            ]
            full = [doc for doc in scored if doc.coverage == component_count]
            rest = [doc for doc in scored if doc.coverage != component_count]
            reference = sorted(full, key=order) + sorted(rest, key=order)
            for k in range(1, len(rows) + 3):
                assert rank_rows(rows, matches, k) == reference[:k]


def _fully_sorted(label_map, matches):
    """Every document covering a component, scored by ``brute_score`` and sorted in full."""
    expected = brute_score(doc_labels_of(label_map), matches)
    expected.sort(
        key=lambda doc: (
            doc.coverage != len(matches),
            -doc.coverage,
            -doc.freq_score,
            -doc.indicator_score,
            doc.doc_id,
        )
    )
    return expected


# Three components, one of them a semantic match, so indicator and
# coverage differ.
_CUT_MATCHES = [
    MatchEvidence("THEME", "a", "a", EXACT, 1.0),
    MatchEvidence("THEME", "bee", "b", SEMANTIC, 0.8),
    MatchEvidence("HAZARD", "c", "c", EXACT, 1.0),
]
_CUT_PAIRS = [("THEME", "a"), ("THEME", "b"), ("HAZARD", "c")]
_CUT_DIMENSIONS = CANONICAL_DIMENSIONS + ("HAZARD",)


def _tiers(full, tied, single):
    """``full`` documents cover all three components, ``tied`` cover two, ``single`` one.

    Counts repeat, so many documents tie on coverage, freq and indicator
    alike, and doc ids are shuffled against the order they are made in.
    """
    label_map = {}
    for i in range(full):
        label_map[f"f{(i * 7) % full:02d}"] = {pair: 1 + i % 2 for pair in _CUT_PAIRS}
    for i in range(tied):
        pairs = [pair for j, pair in enumerate(_CUT_PAIRS) if j != i % 3]
        label_map[f"t{(i * 17) % tied:02d}"] = {pair: 1 + i % 2 for pair in pairs}
    for i in range(single):
        label_map[f"s{(i * 11) % single:02d}"] = {_CUT_PAIRS[i % 3]: 1 + i % 3}
    label_map["none"] = {("THEME", "other"): 4}
    return label_map


class TestTopKCut:
    """``rank`` sorts only the candidates at or above the k-th best coverage.

    Each case is checked against ``brute_score`` over every document,
    sorted in full.
    """

    def check(self, label_map, matches, ks):
        ix = simple_index(label_map, dimensions=_CUT_DIMENSIONS)
        expected = _fully_sorted(label_map, matches)
        scores = score_documents(matches, ix)
        assert len(scores) == len(expected)
        for k in ks:
            assert rank(scores, matches, k) == expected[:k], k

    def test_many_candidates_tie_at_the_cut(self):
        # 4 full, 40 at coverage 2: every k from 5 to 44 cuts at
        # coverage 2, inside runs of exact ties.
        self.check(_tiers(4, 40, 30), _CUT_MATCHES, range(5, 45))

    def test_k_around_the_count_above_the_cut(self):
        # k = 3, 4, 5 around the 4 full documents, and 43, 44, 45 around
        # the 44 at coverage 2 or more.
        self.check(_tiers(4, 40, 30), _CUT_MATCHES, (3, 4, 5, 43, 44, 45))

    def test_k_above_the_candidate_count(self):
        label_map = _tiers(2, 5, 4)
        candidates = len(label_map) - 1
        self.check(label_map, _CUT_MATCHES, (candidates, candidates + 1, 10**9))

    def test_zero_candidates(self):
        label_map = _tiers(2, 5, 4)
        absent = [
            MatchEvidence("THEME", "zzz", "zzz", SEMANTIC, 0.6),
            MatchEvidence("NOWHERE", "a", "a", EXACT, 1.0),
            MatchEvidence("THEME", "q", None, UNMATCHED, 0.0),
        ]
        for matches in ([], absent):
            assert len(score_documents(matches, simple_index(label_map, dimensions=_CUT_DIMENSIONS))) == 0
            self.check(label_map, matches, (1, 3))

    def test_single_component_every_candidate_ties_on_coverage(self):
        label_map = {f"d{(i * 13) % 30:02d}": {("THEME", "a"): 1 + i % 3} for i in range(30)}
        self.check(label_map, _CUT_MATCHES[:1], range(1, 33))
        self.check(label_map, [MatchEvidence("THEME", "ay", "a", SEMANTIC, 0.7)], range(1, 33))

    def test_random_tiers(self):
        rng = np.random.default_rng(53)
        for _case in range(60):
            n = int(rng.integers(1, 5))
            matches = [
                MatchEvidence("THEME", f"c{i}", f"c{i}", EXACT if rng.random() < 0.6 else SEMANTIC, 0.9)
                for i in range(n)
            ]
            label_map = {}
            for d in range(int(rng.integers(0, 120))):
                covered = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                label_map[f"d{d:03d}"] = {("THEME", f"c{i}"): int(rng.integers(1, 3)) for i in covered}
            label_map["anchor"] = {("THEME", "c0"): 1}
            self.check(label_map, matches, sorted({1, 2, 3, int(rng.integers(1, 130))}))


class TestRetrieve:
    def test_melbourne_query_ranks_565_first(self, hurricane_index, trigram):
        result = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU, k=3)
        assert [d.doc_id for d in result.ranked] == ["565", "246", "535"]
        top = result.ranked[0]
        assert (top.coverage, top.indicator_score, top.freq_score) == (3, 2, 7)

    def test_atlantic_outlook_query(self, trigram):
        # Two-document fixture mirroring the seasonal-outlook case: doc
        # 19 carries all three components, doc 230 only the theme.
        ix = simple_index(
            {
                "19": {
                    ("LOCATION", "atlantic"): 1,
                    ("ORGANIZATION", "climate prediction center"): 1,
                    ("THEME", "hurricane season"): 1,
                },
                "230": {("THEME", "hurricane season"): 1, ("ORGANIZATION", "noaa"): 1},
            },
            encoder=trigram,
        )
        query = (
            "What is the likelihood of an above-normal, near-normal and below-normal "
            "hurricane season at the Atlantic, according to the Climate Prediction Center?"
        )
        result = retrieve(query, ix, trigram, tau=FIXTURE_TAU, k=3)
        assert [d.doc_id for d in result.ranked] == ["19", "230"]
        assert result.ranked[0].coverage == result.decomposition.component_count == 3

    def test_single_label_query_takes_highest_count(self, trigram):
        label_map = {"low": {("THEME", "rain"): 2}, "high": {("THEME", "rain"): 7}}
        ix = simple_index(label_map, encoder=trigram)
        result = retrieve("rain", ix, trigram, tau=FIXTURE_TAU, k=1)
        labels = doc_labels_of(label_map)
        expected = brute_retrieve(labels, [("THEME", "rain")], {"THEME": ["rain"]}, trigram, FIXTURE_TAU, 1)
        assert [d.doc_id for d in result.ranked] == [row[0] for row in expected] == ["high"]

    @pytest.mark.parametrize("query", ["florida", "rainfall in florida"])
    def test_bad_tau_raises_for_every_query(self, hurricane_index, trigram, query):
        # "florida" matches exactly, so it never reaches a semantic scan.
        with pytest.raises(ValueError, match="tau"):
            retrieve(query, hurricane_index, trigram, tau=7.0)

    def test_deterministic_output(self, hurricane_index, trigram):
        first = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU, k=3)
        second = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU, k=3)
        assert json.dumps(result_to_dict(first), sort_keys=True) == json.dumps(
            result_to_dict(second), sort_keys=True
        )

    def test_each_component_scanned_once_per_query(self, trigram, monkeypatch):
        ix = _mini_index(trigram)
        scan = retrieval_mod.semantic_neighbors
        scanned = []

        def recording_scan(component, dim, *args):
            scanned.append((component, dim))
            return scan(component, dim, *args)

        monkeypatch.setattr(retrieval_mod, "semantic_neighbors", recording_scan)
        scans = 0
        for _round in range(5):
            for query in _fixture_queries():
                scanned.clear()
                retrieve(query, ix, trigram, tau=FIXTURE_TAU)
                assert len(scanned) == len(set(scanned)), (query, scanned)
                scans += len(scanned)
        assert scans

    def test_timing_phases_recorded(self, hurricane_index, trigram):
        result = retrieve(MELBOURNE_QUERY, hurricane_index, trigram, tau=FIXTURE_TAU)
        assert result.timing.total_us > 0
        assert result.timing.decompose_us >= 0
        assert result.timing.match_us >= 0
        assert result.timing.score_us >= 0

    def test_full_coverage_priority_property(self):
        rng = np.random.default_rng(31)
        encoder = TrigramEncoder(dim=64)
        for _case in range(60):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=30)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder)
            components = _random_components(rng, vocab)
            result = retrieve(
                "q", ix, encoder, tau=float(rng.uniform(0.2, 0.9)), k=8, external=components
            )
            count = result.decomposition.component_count
            seen_partial = False
            for doc in result.ranked:
                if doc.coverage != count:
                    seen_partial = True
                else:
                    assert not seen_partial, "full-coverage doc ranked below a partial one"

    def test_lower_tau_never_reduces_coverage(self, trigram):
        rng = np.random.default_rng(37)
        for _case in range(40):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=25)
            ix = build_index(corpus, assignment_of(labels), encoder=trigram)
            components = _random_components(rng, vocab)
            tau_low, tau_high = sorted([float(rng.uniform(0.1, 0.95)) for _ in range(2)])
            low = retrieve("q", ix, trigram, tau=tau_low, k=50, external=components)
            high = retrieve("q", ix, trigram, tau=tau_high, k=50, external=components)
            low_cov = {d.doc_id: d.coverage for d in low.ranked}
            for doc in high.ranked:
                assert low_cov.get(doc.doc_id, 0) >= doc.coverage


def _random_components(rng, vocab_by_dim):
    """Random (dim, text) pairs: some vocabulary hits, some mutations, some junk."""
    components = []
    dims = sorted(vocab_by_dim)
    for _ in range(int(rng.integers(1, 6))):
        roll = rng.random()
        if dims and roll < 0.5:
            dim = dims[int(rng.integers(0, len(dims)))]
            keys = vocab_by_dim[dim]
            key = keys[int(rng.integers(0, len(keys)))]
            components.append((dim, key))
        elif dims and roll < 0.8:
            dim = dims[int(rng.integers(0, len(dims)))]
            keys = vocab_by_dim[dim]
            key = keys[int(rng.integers(0, len(keys)))]
            suffix = ["s", "er", "ing"][int(rng.integers(0, 3))]
            components.append((dim, key + suffix))
        else:
            dim = dims[int(rng.integers(0, len(dims)))] if dims else "THEME"
            components.append((dim, f"zzz{int(rng.integers(0, 100))}"))
    return components


def _random_matches(rng, vocab_by_dim) -> list[MatchEvidence]:
    """Resolved components of every kind over a random index's vocabulary.

    Exact and semantic matches of labels the index holds, unmatched
    components, a second component resolved to a label already matched,
    and labels (in a known or an unknown dimension) the index lacks.
    """
    dims = sorted(vocab_by_dim)
    matches = []
    for j in range(int(rng.integers(0, 7))):
        resolved = [m for m in matches if m.matched_label is not None]
        roll = rng.random()
        dim = dims[int(rng.integers(0, len(dims)))] if dims else "THEME"
        keys = vocab_by_dim.get(dim, [])
        if keys and roll < 0.35:
            key = keys[int(rng.integers(0, len(keys)))]
            matches.append(MatchEvidence(dim, key, key, EXACT, 1.0))
        elif keys and roll < 0.6:
            key = keys[int(rng.integers(0, len(keys)))]
            sim = round(float(rng.uniform(0.3, 0.99)), 4)
            matches.append(MatchEvidence(dim, f"{key}s{j}", key, SEMANTIC, sim))
        elif resolved and roll < 0.75:
            twin = resolved[int(rng.integers(0, len(resolved)))]
            label = twin.matched_label
            matches.append(MatchEvidence(twin.dimension, f"twin{j}", label, SEMANTIC, 0.8))
        elif roll < 0.85:
            matches.append(MatchEvidence(dim, f"miss{j}", None, UNMATCHED, 0.0))
        else:
            absent_dim = dim if rng.random() < 0.5 else "NOWHERE"
            matches.append(MatchEvidence(absent_dim, f"zzz{j}", f"zzz{j}", SEMANTIC, 0.6))
    return matches


class TestOracleEquivalence:
    def test_score_documents_equals_full_scan(self):
        rng = np.random.default_rng(43)
        for _case in range(200):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=30)
            ix = build_index(corpus, assignment_of(labels))
            matches = _random_matches(rng, vocab)
            expected = brute_score(labels, matches)
            expected.sort(
                key=lambda doc: (
                    doc.coverage != len(matches),
                    -doc.coverage,
                    -doc.freq_score,
                    -doc.indicator_score,
                    doc.doc_id,
                )
            )
            rows = score_documents(matches, ix)
            assert len(rows) == len(expected)
            for k in range(1, len(expected) + 3):
                ranked = rank(rows, matches, k)
                assert ranked == expected[:k]
                assert len({id(doc.evidence) for doc in ranked}) == len(ranked)

    def test_every_scores_row_equals_full_scan(self):
        # Every candidate row, not only the ranked ones, against brute_score.
        # A list whose matched components are all exact (unmatched ones may
        # sit among them) takes each indicator to be its coverage; a list
        # mixing exact, semantic and unmatched matches sums exact flags.
        rng = np.random.default_rng(49)
        seen = {"exact only": 0, "mixed": 0}
        for _case in range(150):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=30)
            ix = build_index(corpus, assignment_of(labels))
            mixed = _random_matches(rng, vocab)
            exact = [m for m in mixed if m.kind != SEMANTIC] + [
                MatchEvidence(dim, key, key, EXACT, 1.0)
                for dim, keys in sorted(vocab.items())
                for key in keys[: int(rng.integers(0, 3))]
            ]
            for matches in (exact, mixed, []):
                expected = [
                    (doc.doc_id, doc.coverage, doc.indicator_score, doc.freq_score,
                     [ev.doc_count for ev in doc.evidence])
                    for doc in brute_score(labels, matches)
                ]
                assert list(score_documents(matches, ix)) == expected
                if expected:
                    seen["exact only" if all(m.kind != SEMANTIC for m in matches) else "mixed"] += 1
        assert min(seen.values()) > 20, seen

    def test_evidence_built_only_for_kept_documents(self, monkeypatch):
        # Counts what the score and rank phases create: a ScoredDoc per
        # kept document, one MatchEvidence per component of it (a hit per
        # component it covers, a miss per other component), and nothing
        # for candidates rank drops.
        rng = np.random.default_rng(45)
        built = {"evidence": 0, "docs": 0}

        def counting(name, make):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(retrieval_mod, "MatchEvidence", counting("evidence", MatchEvidence))
        monkeypatch.setattr(retrieval_mod, "ScoredDoc", counting("docs", ScoredDoc))
        for _case in range(50):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=50)
            ix = build_index(corpus, assignment_of(labels))
            matches = _random_matches(rng, vocab)
            candidates = len(brute_score(labels, matches))
            for k in (1, 3, max(candidates, 1)):
                built.update(evidence=0, docs=0)
                ranked = rank(score_documents(matches, ix), matches, k)
                assert len(ranked) == min(k, candidates)
                assert built == {"evidence": len(matches) * len(ranked), "docs": len(ranked)}
                hits = [[ev for ev in doc.evidence if ev.kind != UNMATCHED] for doc in ranked]
                misses = [[ev for ev in doc.evidence if ev.kind == UNMATCHED] for doc in ranked]
                assert [len(h) for h in hits] == [doc.coverage for doc in ranked]
                assert [len(m) for m in misses] == [len(matches) - doc.coverage for doc in ranked]
                assert all(ev.doc_count > 0 for h in hits for ev in h)
                assert all(ev.doc_count == 0 for m in misses for ev in m)

    def test_external_decomposition_cases(self):
        rng = np.random.default_rng(41)
        encoder = TrigramEncoder(dim=64)
        for _case in range(120):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=30)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder)
            components = _random_components(rng, vocab)
            tau = float(rng.uniform(0.15, 0.95))
            k = int(rng.integers(1, 9))
            result = retrieve("q", ix, encoder, tau=tau, k=k, external=components)
            got = [
                (d.doc_id, d.coverage, d.indicator_score, d.freq_score) for d in result.ranked
            ]
            expected = brute_retrieve(labels, components, vocab, encoder, tau, k)
            assert got == expected


def _mini_labels():
    corpus = load_corpus(HURRICANE_MINI / "corpus.jsonl")
    return corpus, extract_all(corpus, load_gazetteer(HURRICANE_MINI / "gazetteer.jsonl"))


def _mini_index(encoder):
    return build_index(*_mini_labels(), encoder=encoder)


def _mini_vectors_encoder() -> PrecomputedVectorEncoder:
    """Precomputed 64-dim vectors for every mini key and every query word (trigram-made, another dim)."""
    _corpus, labels = _mini_labels()
    words = {key for doc in labels.values() for _dim, key in doc.counts}
    words |= {normalize_label(word) for query in _fixture_queries() for word in query.split()}
    encoder = TrigramEncoder(dim=64)
    vectors = {}
    for word in sorted(words):
        try:
            vectors[word] = encoder.encode(word)
        except UnencodableText:
            pass
    return PrecomputedVectorEncoder(vectors)


def _fixture_queries() -> list[str]:
    return [q.question for q in load_queries(HURRICANE_MINI / "queries.jsonl")] + [
        MELBOURNE_QUERY,
        "hurricane season rains over the Atlantic",
        "nothing here matches",
    ]


class TestIndexTables:
    """Decomposition tables are derived once per index, never per query."""

    def test_built_once_at_build_and_at_load(self, trigram, tmp_path, monkeypatch):
        corpus, labels = _mini_labels()
        builds = count_table_builds(monkeypatch)
        ix = build_index(corpus, labels, encoder=trigram)
        assert builds == [ix.label_key_count()]
        save_index(ix, tmp_path / "mini.hcix")
        load_index(tmp_path / "mini.hcix")
        assert builds == [ix.label_key_count()] * 2

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_no_table_built_per_query(self, trigram, tmp_path, monkeypatch, source):
        ix = _mini_index(trigram)
        if source == "loaded":
            save_index(ix, tmp_path / "mini.hcix")
            ix = load_index(tmp_path / "mini.hcix")
        builds = count_table_builds(monkeypatch)
        for _round in range(5):
            for query in _fixture_queries():
                retrieve(query, ix, trigram, tau=FIXTURE_TAU)
        assert builds == []

    def test_loaded_index_answers_like_built(self, trigram, tmp_path):
        for encoder in (trigram, _mini_vectors_encoder()):
            ix = _mini_index(encoder)
            save_index(ix, tmp_path / "mini.hcix")
            loaded = load_index(tmp_path / "mini.hcix")
            for query in _fixture_queries():
                assert result_to_dict(retrieve(query, loaded, encoder, tau=FIXTURE_TAU)) == result_to_dict(
                    retrieve(query, ix, encoder, tau=FIXTURE_TAU)
                )

    def test_loaded_label_vectors_derived_once_per_scanned_dimension(self, trigram, tmp_path, monkeypatch):
        save_index(_mini_index(trigram), tmp_path / "mini.hcix")
        ix = load_index(tmp_path / "mini.hcix")
        assert ix.label_vectors.by_dimension == {}
        derivations = count_derivations(monkeypatch)
        scanned = []
        scan = retrieval_mod.semantic_neighbors

        def recording_scan(component, dim, *args):
            scanned.append(dim)
            return scan(component, dim, *args)

        monkeypatch.setattr(retrieval_mod, "semantic_neighbors", recording_scan)
        for _round in range(5):
            for query in _fixture_queries():
                retrieve(query, ix, trigram, tau=FIXTURE_TAU)
        assert scanned and set(scanned) < set(ix.dimensions)
        assert sorted(derivations) == sorted(("trigram", trigram.dim, tuple(ix.vocab[dim])) for dim in set(scanned))
        assert set(ix.label_vectors.by_dimension) == set(scanned)

    def test_each_scan_is_one_call_and_one_encode(self, tmp_path, monkeypatch):
        # The benchmark's tracer counts scans as semantic_neighbors calls on
        # hyperrag.retrieval and encodes as calls of the encoder's method;
        # each scan must encode its component once, a scan that returns
        # early included.
        encoder = TrigramEncoder()
        save_index(_mini_index(encoder), tmp_path / "mini.hcix")
        ix = load_index(tmp_path / "mini.hcix")
        for query in _fixture_queries():  # derives the scanned tables, each encoding every key
            retrieve(query, ix, encoder, tau=FIXTURE_TAU)
        products = []

        class CountedMatrix:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, vector):
                products.append(vector)
                return self.matrix @ vector

        tables = ix.label_vectors.by_dimension
        for dim, table in tables.items():
            tables[dim] = table._replace(matrix=CountedMatrix(table.matrix))
        encodes = []
        scans = []
        scan = retrieval_mod.semantic_neighbors

        def recording_scan(*args):
            before = len(encodes)
            hits = scan(*args)
            scans.append((len(encodes) - before, bool(hits)))
            return hits

        monkeypatch.setattr(retrieval_mod, "semantic_neighbors", recording_scan)
        monkeypatch.setattr(encoder, "encode", lambda text, encode=encoder.encode: encodes.append(text) or encode(text))
        for query in _fixture_queries():
            retrieve(query, ix, encoder, tau=FIXTURE_TAU)
        # Some scans find labels, some none, and some of those skip the dense product.
        assert {hit for _encodes, hit in scans} == {True, False}
        assert sum(hit for _encodes, hit in scans) <= len(products) < len(scans)
        assert [n for n, _hit in scans] == [1] * len(scans)
        assert len(encodes) == len(scans)

    def test_loaded_random_indexes_answer_like_built(self, tmp_path):
        rng = np.random.default_rng(47)
        encoder = TrigramEncoder(dim=32)
        for _case in range(40):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=25, multiword_labels=True)
            ix = build_index(corpus, assignment_of(labels), encoder=encoder)
            save_index(ix, tmp_path / "ix.hcix")
            loaded = load_index(tmp_path / "ix.hcix")
            for _query in range(4):
                components = _random_components(rng, vocab)
                tau = float(rng.uniform(0.15, 0.95))
                query = " ".join(text for _dim, text in components)
                for external in (components, None):
                    assert result_to_dict(
                        retrieve(query, loaded, encoder, tau=tau, external=external)
                    ) == result_to_dict(retrieve(query, ix, encoder, tau=tau, external=external))

    def test_built_and_loaded_copy_answer_every_encoder_alike(self, tmp_path):
        # The build encoder, one of its name, dim and keys with other vectors, and no encoder:
        # a built index, its saved-and-loaded copy, and a copy loaded afresh (no scan history)
        # answer each alike, or raise the same error class.
        def outcome(query, ix, encoder, tau, external):
            try:
                return result_to_dict(retrieve(query, ix, encoder, tau=tau, external=external))
            except Exception as exc:
                return type(exc)

        rng = np.random.default_rng(59)
        trigram = TrigramEncoder(dim=32)
        path = tmp_path / "ix.hcix"
        for _case in range(30):
            corpus, labels, vocab = random_labeled_corpus(rng, max_docs=25, multiword_labels=True)
            queries = [(_random_components(rng, vocab), float(rng.uniform(0.15, 0.95))) for _query in range(3)]
            texts = {key for keys in vocab.values() for key in keys}
            texts |= {normalize_label(text) for components, _tau in queries for _dim, text in components}
            vectors = {}
            for text in texts:
                try:
                    vectors[text] = trigram.encode(text)
                except UnencodableText:
                    pass
            build = PrecomputedVectorEncoder(vectors)
            other = PrecomputedVectorEncoder({text: np.roll(vector, 1) for text, vector in vectors.items()})
            ix = build_index(corpus, assignment_of(labels), encoder=build)
            save_index(ix, path)
            loaded = load_index(path)
            assert loaded == ix
            for encoder in (other, build, other, None):
                fresh = load_index(path)
                for components, tau in queries:
                    query = " ".join(text for _dim, text in components)
                    for external in (components, None):
                        expected = outcome(query, fresh, encoder, tau, external)
                        assert outcome(query, ix, encoder, tau, external) == expected
                        assert outcome(query, loaded, encoder, tau, external) == expected

    def test_tables_match_the_vocabulary(self):
        rng = np.random.default_rng(43)
        for _case in range(30):
            corpus, labels, _vocab = random_labeled_corpus(rng, max_docs=20, multiword_labels=True)
            ix = build_index(corpus, assignment_of(labels))
            expected = {}
            for dim in ix.dimensions:
                for key in ix.vocab[dim]:
                    expected.setdefault(key, set()).add(dim)
            assert {key: set(dims) for key, dims in ix.phrase_dims.items()} == expected
            assert all(list(dims) == sorted(dims) for dims in ix.phrase_dims.values())
            # Each key's token count is listed under its first token, longest first, and nothing else is.
            listed = {(first, n) for first, counts in ix.phrase_table.items() for n in counts}
            assert listed == {(key.split()[0], len(key.split())) for key in expected}
            assert all(all(map(int.__gt__, counts, counts[1:])) for counts in ix.phrase_table.values())

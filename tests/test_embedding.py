from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    HURRICANE_MINI,
    count_derivations,
    random_labeled_corpus,
    read_container,
    write_container,
    write_jsonl,
)
from oracles import brute_neighbors, dense_neighbors, numpy_trigram_encode, py_cosine
from hyperrag import (
    Corpus,
    DimMismatch,
    Document,
    EncoderMismatch,
    IoFailure,
    LabelAssignment,
    MalformedRecord,
    MissingKey,
    PrecomputedVectorEncoder,
    TrigramEncoder,
    UnencodableText,
    build_index,
    extract_all,
    load_corpus,
    load_gazetteer,
    load_index,
    load_precomputed_labels,
    load_precomputed_vectors,
    retrieve,
    save_index,
    semantic_neighbors,
)
from hyperrag import embedding


def index_over_vocab(keys, encoder=None, dim="THEME"):
    """Minimal one-document index whose vocabulary is exactly `keys`."""
    doc = Document(id="d0", text="placeholder body")
    labels = LabelAssignment()
    for key in keys:
        labels.add("d0", dim, key)
    return build_index(Corpus([doc]), labels, encoder=encoder)


def bits(hits):
    """Hits with each sim as its exact bits, so -0.0 and 0.0 differ and a numpy float fails."""
    return [(key, type(sim), sim.hex()) for key, sim in hits]


# Letters, spaces and punctuation that normalization strips, and non-ASCII
# characters: some fold to two characters ("İ", "ß"), some are several
# UTF-8 bytes, and "aécé"'s two trigrams share a bucket with opposite signs.
_ENCODE_ALPHABET = "abcé ß.İ東🌀-"

# Per-dimension label-vector checksums of the index that data/hurricane_mini
# builds with TrigramEncoder(256) (gazetteer plus labels file, as the CLI
# builds it). A saved index stores these and every query checks them, so
# an encoder that drifts by one bit fails every saved index with
# EncoderMismatch.
HURRICANE_MINI_CHECKSUMS = {
    "DATE": 2558189782,
    "EVENT": 1654101757,
    "LOCATION": 494368731,
    "ORGANIZATION": 981395207,
    "PERSON": 223132457,
    "THEME": 824054018,
}


class TestTrigramEncoder:
    def test_deterministic(self, trigram):
        first = trigram.encode("rain")
        second = trigram.encode("rain")
        assert np.array_equal(first, second)

    def test_self_similarity(self, trigram):
        vec = trigram.encode("rain")
        assert py_cosine(vec, trigram.encode("rain")) == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm(self, trigram):
        for text in ["rain", "tropical storm fay", "melbourne beach"]:
            assert np.linalg.norm(trigram.encode(text)) == pytest.approx(1.0, abs=1e-9)

    def test_shared_trigrams_raise_similarity(self, trigram):
        # "rainfall" shares trigrams with "rain" and none with "tornado";
        # both sides computed fresh from the reference hasher.
        rainfall = trigram.encode("rainfall")
        assert py_cosine(rainfall, trigram.encode("rain")) > py_cosine(
            rainfall, trigram.encode("tornado")
        )

    def test_too_short_rejected(self, trigram):
        with pytest.raises(UnencodableText):
            trigram.encode("ab")
        with pytest.raises(UnencodableText):
            trigram.encode("  !  ")

    @pytest.mark.parametrize("text", ["rain\udcff", "\ud800abc", "ab\udfffcd"])
    def test_lone_surrogate_is_unencodable(self, trigram, text):
        # A lone surrogate has no UTF-8 bytes to hash; command-line bytes that are not UTF-8 decode to one.
        with pytest.raises(UnencodableText, match="lone surrogate"):
            trigram.encode(text)

    def test_component_with_lone_surrogate_is_unmatched(self, trigram):
        labels = LabelAssignment()
        labels.add("d1", "THEME", "rain")
        labels.add("d1", "THEME", "rainfall totals")
        ix = build_index(Corpus([Document(id="d1", text="rain totals")]), labels, encoder=trigram)
        result = retrieve("rainfall \udcff\udcfeabc totals", ix, trigram, tau=0.3)
        # The component matches no label, so it is dropped; the rest of the query still answers.
        assert [comp.key for comp in result.decomposition.components] == ["rainfall", "totals"]
        assert [doc.doc_id for doc in result.ranked] == ["d1"]

    def test_normalization_applied_before_hashing(self, trigram):
        assert np.array_equal(trigram.encode("  RAIN. "), trigram.encode("rain"))

    def test_custom_dim(self):
        enc = TrigramEncoder(dim=64)
        assert enc.encode("storm").shape == (64,)

    @given(
        st.one_of(
            st.text(_ENCODE_ALPHABET, max_size=24),
            st.text(_ENCODE_ALPHABET, min_size=3, max_size=3),
            st.text(max_size=12),
        ),
        st.sampled_from([1, 2, 3, 16, 256]),
    )
    @example("aaad", 1)
    @example("aécé", 256)
    @example("abc", 256)
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_numpy_formula(self, text, dim):
        try:
            expected = numpy_trigram_encode(text, dim)
        except UnencodableText as exc:
            with pytest.raises(UnencodableText) as excinfo:
                TrigramEncoder(dim).encode(text)
            assert str(excinfo.value) == str(exc)
        else:
            assert TrigramEncoder(dim).encode(text).tobytes() == expected.tobytes()

    @given(
        st.lists(
            st.one_of(st.text(_ENCODE_ALPHABET, max_size=24), st.text(_ENCODE_ALPHABET, min_size=3, max_size=3)),
            max_size=30,
        ),
        st.sampled_from([1, 16, 256]),
    )
    @settings(max_examples=100, deadline=None)
    def test_warm_memo_bits_equal_numpy_formula(self, texts, dim):
        # One encoder over a stream of texts, so later texts read trigrams the earlier ones stored.
        encoder = TrigramEncoder(dim)
        for text in texts + texts:
            try:
                expected = numpy_trigram_encode(text, dim)
            except UnencodableText as exc:
                with pytest.raises(UnencodableText) as excinfo:
                    encoder.encode(text)
                assert str(excinfo.value) == str(exc)
            else:
                assert encoder.encode(text).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["rain\udcff", "\ud800abc", "ab\udfffcd", "rainfall totals\udcff"])
    def test_lone_surrogate_raises_from_warm_memo_and_stores_nothing_of_it(self, text):
        encoder = TrigramEncoder(256)
        encoder.encode("rainfall totals")
        for _ in range(2):
            with pytest.raises(UnencodableText) as excinfo:
                encoder.encode(text)
            with pytest.raises(UnencodableText) as oracle:
                numpy_trigram_encode(text, 256)
            assert str(excinfo.value) == str(oracle.value)
            assert not any("\ud800" <= ch <= "\udfff" for tri in encoder._memo for ch in tri)

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(embedding, "_TRIGRAM_MEMO_ENTRIES", 5)
        encoder = TrigramEncoder(16)
        texts = ["abcdefgh", "stuvwxyz", "rainfall", "abcdefgh"]
        for text in texts:
            assert encoder.encode(text).tobytes() == numpy_trigram_encode(text, 16).tobytes()
            assert len(encoder._memo) <= 5
        assert list(encoder._memo) == ["abc", "bcd", "cde", "def", "efg"]

    def test_memos_of_different_dims_keep_their_own_buckets(self):
        small, large = TrigramEncoder(3), TrigramEncoder(256)
        for text in ["rainfall", "rainfall", "storm rain"]:
            assert small.encode(text).tobytes() == numpy_trigram_encode(text, 3).tobytes()
            assert large.encode(text).tobytes() == numpy_trigram_encode(text, 256).tobytes()
        assert {bucket for bucket, _sign in small._memo.values()} <= {0, 1, 2}
        assert max(bucket for bucket, _sign in large._memo.values()) > 2
        with pytest.raises(AttributeError):
            small.dim = 256

    def test_hurricane_mini_checksums_pinned(self):
        corpus = load_corpus(HURRICANE_MINI / "corpus.jsonl")
        labels = extract_all(corpus, load_gazetteer(HURRICANE_MINI / "gazetteer.jsonl"))
        load_precomputed_labels(HURRICANE_MINI / "labels.jsonl", corpus, into=labels)
        ix = build_index(corpus, labels, encoder=TrigramEncoder(256))
        assert ix.label_vectors.checksums == HURRICANE_MINI_CHECKSUMS


class TestSemanticNeighbors:
    def test_rainfall_matches_rain(self, trigram):
        ix = index_over_vocab(["rain"], encoder=trigram)
        hits = semantic_neighbors("rainfall", "THEME", ix, trigram, tau=0.4)
        assert len(hits) == 1
        key, sim = hits[0]
        assert key == "rain"
        assert sim == pytest.approx(
            py_cosine(trigram.encode("rainfall"), trigram.encode("rain")), abs=1e-12
        )

    def test_tau_one_without_exact_twin_is_empty(self, trigram):
        ix = index_over_vocab(["rain"], encoder=trigram)
        assert semantic_neighbors("rainfall", "THEME", ix, trigram, tau=1.0) == []

    def test_empty_vocab(self, trigram):
        ix = index_over_vocab(["rain"], encoder=trigram, dim="THEME")
        assert semantic_neighbors("rainfall", "LOCATION", ix, trigram, tau=0.1) == []

    @pytest.mark.parametrize("component", ["rainfall", "ab"])
    def test_dimension_the_index_lacks_is_empty_and_unencoded(self, trigram, tmp_path, component):
        # Neither encoded (so "ab" does not raise UnencodableText) nor given a table.
        built = index_over_vocab(["rain"], encoder=trigram)
        for ix in (built, _saved_and_loaded(built, tmp_path / "ix.hcix")):
            tables = list(ix.label_vectors.by_dimension)
            for n in range(5):
                assert semantic_neighbors(component, f"BOGUS{n}", ix, trigram, tau=0.1) == []
            result = retrieve("q", ix, trigram, tau=0.1, external=[("BOGUS0", component)])
            assert [m.kind for m in result.matches] == ["unmatched"]
            assert list(ix.label_vectors.by_dimension) == tables

    def test_unencodable_component_propagates(self, trigram):
        ix = index_over_vocab(["rain"], encoder=trigram)
        with pytest.raises(UnencodableText):
            semantic_neighbors("ab", "THEME", ix, trigram, tau=0.5)

    def test_invalid_tau(self, trigram):
        ix = index_over_vocab(["rain"])
        with pytest.raises(ValueError):
            semantic_neighbors("rainfall", "THEME", ix, trigram, tau=1.5)

    def test_unencodable_vocab_keys_skipped(self, trigram):
        ix = index_over_vocab(["rain", "ab"], encoder=trigram)
        hits = semantic_neighbors("rainfall", "THEME", ix, trigram, tau=0.0)
        assert [key for key, _ in hits] == ["rain"]

    def test_precomputed_and_on_the_fly_agree(self, trigram, tmp_path):
        # Built and loaded indexes alike hold no table until a scan derives it.
        keys = ["rain", "rainfall totals", "storm surge", "flooding"]
        built = index_over_vocab(keys, encoder=trigram)
        loaded = _saved_and_loaded(built, tmp_path / "ix.hcix")
        assert built.label_vectors.by_dimension == loaded.label_vectors.by_dimension == {}
        for component in ["rains", "storm surging", "flood"]:
            assert bits(semantic_neighbors(component, "THEME", built, trigram, tau=0.2)) == bits(
                semantic_neighbors(component, "THEME", loaded, trigram, tau=0.2)
            )

    def test_matches_brute_force_random_vocab(self):
        rng = np.random.default_rng(23)
        encoder = TrigramEncoder(dim=64)
        for _case in range(40):
            _corpus, labels, vocab = random_labeled_corpus(
                rng, max_docs=10, allow_unencodable=True
            )
            dims = [d for d in vocab if vocab[d]]
            if not dims:
                continue
            dim = dims[int(rng.integers(0, len(dims)))]
            keys = vocab[dim]
            ix = index_over_vocab(keys, encoder=encoder, dim=dim)
            component = keys[int(rng.integers(0, len(keys)))] + "er"
            tau = float(rng.uniform(0.1, 0.9))
            got = semantic_neighbors(component, dim, ix, encoder, tau)
            expected = brute_neighbors(component, keys, encoder, tau)
            assert [k for k, _ in got] == [k for k, _ in expected]
            for (_k1, s1), (_k2, s2) in zip(got, expected):
                assert s1 == pytest.approx(s2, abs=1e-12)
            table = ix.label_vectors.by_dimension[dim]
            for edge in (tau, 0.0, 1.0):
                assert bits(semantic_neighbors(component, dim, ix, encoder, edge)) == bits(
                    dense_neighbors(table.keys, table.matrix, encoder.encode(component), edge)
                )

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_edges_equal_dense_reference(self, tau):
        # The query vector dots to 1.0000000000000002 with "rain" and
        # "rainy" (equal sims, ordered by key), to exactly 0.0 with
        # "snow" and to below -1 with "storm".
        eps = np.nextafter(1.0, 2.0)
        assert float(np.array([eps, 0.0]) @ np.array([1.0, 0.0])) == 1.0000000000000002
        vectors = {
            "rain": np.array([1.0, 0.0]),
            "rainy": np.array([1.0, 0.0]),
            "snow": np.array([0.0, 1.0]),
            "storm": np.array([-eps, 0.0]),
            "rainfall": np.array([eps, 0.0]),
        }
        encoder = PrecomputedVectorEncoder(vectors)
        ix = index_over_vocab(["rain", "rainy", "snow", "storm"], encoder=encoder)
        got = semantic_neighbors("rainfall", "THEME", ix, encoder, tau)
        # The scan derived THEME's table.
        table = ix.label_vectors.by_dimension["THEME"]
        assert bits(got) == bits(dense_neighbors(table.keys, table.matrix, vectors["rainfall"], tau))
        expected = [("rain", 1.0), ("rainy", 1.0)] + ([("snow", 0.0)] if tau == 0.0 else [])
        assert bits(got) == bits(expected)

    def test_tau_monotonicity(self, trigram):
        ix = index_over_vocab(["rain", "rainfall totals", "raining", "drain"], encoder=trigram)
        taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        previous = None
        for tau in taus:
            hits = {k for k, _ in semantic_neighbors("rains", "THEME", ix, trigram, tau)}
            if previous is not None:
                assert hits <= previous
            previous = hits


def scan_equals_dense(component, ix, encoder, tau):
    """``semantic_neighbors`` over THEME, asserted bit for bit equal to the dense product over the table it derived."""
    got = semantic_neighbors(component, "THEME", ix, encoder, tau)
    table = ix.label_vectors.by_dimension["THEME"]
    assert bits(got) == bits(dense_neighbors(table.keys, table.matrix, encoder.encode(component), tau))
    return got


def edge_tau(sims, row, step):
    """The dense sim of ``row``, moved to the next float up (step 1) or down (-1), clipped to [0, 1]."""
    tau = float(sims[row % len(sims)])
    if step:
        tau = float(np.nextafter(tau, step * np.inf))
    return min(max(tau, 0.0), 1.0)


class _Untouchable:
    """Stands in for a table array that a scan must not read."""

    def __matmul__(self, other):
        raise AssertionError("the dense product ran")

    def take(self, *args):
        raise AssertionError("the bound ran")


# Few letters, so that keys share trigrams and sims spread over [-1, 1].
_BOUND_ALPHABET = "abdgiru"


def _vector(entries, dim=64):
    """A vector of length ``dim`` holding ``entries`` (bucket -> value), zero elsewhere."""
    return np.array([entries.get(i, 0.0) for i in range(dim)])


# Vectors of length 64 with at most eight nonzero entries in [-1, 1].
_SPARSE_VECTOR = st.dictionaries(st.integers(0, 63), st.floats(-1.0, 1.0), max_size=8).map(_vector)


class TestScanBound:
    """A scan may skip the dense product only where the dense product finds nothing."""

    @given(
        st.lists(st.text(_BOUND_ALPHABET, min_size=3, max_size=8), min_size=1, max_size=12),
        st.text(_BOUND_ALPHABET, min_size=3, max_size=8),
        st.sampled_from([16, 64, 256]),
        st.floats(0.0, 1.0),
        st.integers(0, 11),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_trigram_tables_equal_dense(self, keys, component, dim, free_tau, row, step):
        encoder = TrigramEncoder(dim)
        try:
            encoder.encode(component)
        except UnencodableText:
            assume(False)
        ix = index_over_vocab(keys, encoder=encoder)
        scan_equals_dense(component, ix, encoder, 0.0)
        table = ix.label_vectors.by_dimension["THEME"]
        taus = [free_tau, 1.0]
        if table.keys:
            taus.append(edge_tau(table.matrix @ encoder.encode(component), row, step))
        for tau in taus:
            scan_equals_dense(component, ix, encoder, tau)

    @pytest.mark.parametrize("component, label", [("dadi", "giro"), ("duno", "giro"), ("fami", "bura")])
    def test_on_tau_pairs(self, component, label):
        # Each pair shares one of its two buckets, so the exact sim is 0.5;
        # the dense product rounds it to the float below.
        encoder = TrigramEncoder(256)
        ix = index_over_vocab([label, "zzzz"], encoder=encoder)
        below = 0.4999999999999999
        assert scan_equals_dense(component, ix, encoder, 0.5) == []
        assert scan_equals_dense(component, ix, encoder, below) == [(label, below)]

    @pytest.mark.parametrize("scale", [1e6, 1e-6])
    @given(
        rows=st.lists(_SPARSE_VECTOR, min_size=1, max_size=8),
        q=_SPARSE_VECTOR,
        orthogonal=st.lists(st.booleans(), min_size=8, max_size=8),
        free_tau=st.floats(0.0, 1.0),
        row=st.integers(0, 7),
        step=st.sampled_from([-1, 0, 1]),
    )
    # At scale 1e6 the dense product can put the first row's sim at 1.2e-4
    # and the bound at 4.6e-5 (how the two round depends on the BLAS kernel,
    # which the row count picks): a fixed slack far above rounding error at
    # unit scale would then drop the hit at tau = 1.2e-4.
    @example(
        rows=[_vector({57: -0.732, 26: -0.194, 2: -0.593, 60: -0.475, 51: 0.501, 8: -0.439}), _vector({})],
        q=_vector({57: 0.099, 26: -0.945, 2: 0.507, 60: 0.076, 51: -0.341, 8: 0.577, 44: -0.394, 29: -0.093}),
        orthogonal=[True, False],
        free_tau=0.0,
        row=0,
        step=0,
    )
    @settings(max_examples=150, deadline=None)
    def test_scaled_precomputed_vectors_equal_dense(self, scale, rows, q, orthogonal, free_tau, row, step):
        # A hand-built encoder's vectors need not be unit length. Rows made
        # orthogonal to the query have an exact sim near 0 that rounding, at
        # scale 1e6, moves by about 1e-4 either way: into [0, 1], where tau is.
        if q @ q:
            rows = [r - (r @ q) / (q @ q) * q if flag else r for r, flag in zip(rows, orthogonal)]
        keys = [f"k{i}" for i in range(len(rows))]
        vectors = {key: vector * scale for key, vector in zip(keys, rows)}
        vectors["query"] = q * scale
        encoder = PrecomputedVectorEncoder(vectors)
        ix = index_over_vocab(keys, encoder=encoder)
        scan_equals_dense("query", ix, encoder, 0.0)
        table = ix.label_vectors.by_dimension["THEME"]
        for tau in (free_tau, edge_tau(table.matrix @ vectors["query"], row, step)):
            scan_equals_dense("query", ix, encoder, tau)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_dense_precomputed_table_skips_the_bound(self, tau):
        rng = np.random.default_rng(7)
        vectors = {key: rng.uniform(0.5, 1.0, 8) for key in ["rain", "snow", "storm", "query"]}
        encoder = PrecomputedVectorEncoder(vectors)
        ix = index_over_vocab(["rain", "snow", "storm"], encoder=encoder)
        expected = scan_equals_dense("query", ix, encoder, tau)
        table = ix.label_vectors.by_dimension["THEME"]
        ix.label_vectors.by_dimension["THEME"] = table._replace(by_bucket=_Untouchable())
        assert bits(semantic_neighbors("query", "THEME", ix, encoder, tau)) == bits(expected)

    def test_no_shared_trigram_skips_the_dense_product(self, trigram):
        ix = index_over_vocab(["rain", "storm surge"], encoder=trigram)
        assert not set(trigram.encode("velvet").nonzero()[0]) & {
            bucket for key in ["rain", "storm surge"] for bucket in trigram.encode(key).nonzero()[0]
        }
        scan_equals_dense("rainfall", ix, trigram, 0.4)
        table = ix.label_vectors.by_dimension["THEME"]
        ix.label_vectors.by_dimension["THEME"] = table._replace(matrix=_Untouchable())
        assert semantic_neighbors("velvet", "THEME", ix, trigram, tau=0.1) == []
        # Every sim is then exactly 0, which tau 0 takes; and "rainfall" shares trigrams with "rain".
        for component, tau in [("velvet", 0.0), ("rainfall", 0.4)]:
            with pytest.raises(AssertionError, match="the dense product ran"):
                semantic_neighbors(component, "THEME", ix, trigram, tau)


class TestPrecomputedVectors:
    def make_file(self, tmp_path, entries, dim=4):
        return write_jsonl(
            tmp_path / "vectors.jsonl",
            [{"key": key, "dim": dim, "values": values} for key, values in entries],
        )

    def test_complete_map(self, tmp_path):
        path = self.make_file(
            tmp_path, [("rain", [1, 0, 0, 0]), ("storm", [0, 2, 0, 0])]
        )
        vectors = load_precomputed_vectors(path, ["rain", "storm"])
        assert set(vectors) == {"rain", "storm"}
        assert np.linalg.norm(vectors["storm"]) == pytest.approx(1.0)

    def test_missing_key(self, tmp_path):
        path = self.make_file(tmp_path, [("storm", [0, 1, 0, 0])])
        with pytest.raises(MissingKey) as excinfo:
            load_precomputed_vectors(path, ["rain"])
        assert excinfo.value.key == "rain"

    def test_wrong_length(self, tmp_path):
        path = self.make_file(tmp_path, [("rain", [1, 0])])
        with pytest.raises(DimMismatch):
            load_precomputed_vectors(path, ["rain"])

    @pytest.mark.parametrize(
        "record, got, detail",
        [
            ({"key": "Rain", "dim": 64, "values": [1, 0, 0, 0]}, 64, "line 2: 'rain' declares dim 64"),
            ({"key": "Rain", "dim": 4, "values": [1, 0]}, 2, "line 2: 'rain' holds 2 values"),
            ({"key": "Rain", "values": [1, 0, 0, 0, 0]}, 5, "line 2: 'rain' holds 5 values"),
        ],
        ids=["declared_dim", "length", "length_undeclared"],
    )
    def test_dim_mismatch_names_line_key_and_figure(self, tmp_path, record, got, detail):
        path = write_jsonl(tmp_path / "vectors.jsonl", [{"key": "storm", "dim": 4, "values": [0, 1, 0, 0]}, record])
        with pytest.raises(DimMismatch) as excinfo:
            load_precomputed_vectors(path, ["rain"])
        assert (excinfo.value.expected, excinfo.value.got) == (4, got)
        assert str(excinfo.value) == f"vector length mismatch: expected 4, got {got} ({detail})"

    def test_the_file_sets_the_length(self, tmp_path):
        path = write_jsonl(
            tmp_path / "vectors.jsonl", [{"key": "rain", "values": [3, 4, 0]}, {"key": "storm", "values": [0, 0, 1]}]
        )
        vectors = load_precomputed_vectors(path, ["rain", "storm"])
        assert vectors["rain"].tolist() == [0.6, 0.8, 0.0]
        assert {len(vector) for vector in vectors.values()} == {3}

    def test_first_record_fixes_the_length(self, tmp_path):
        path = write_jsonl(
            tmp_path / "vectors.jsonl", [{"key": "storm", "values": [0, 1, 0]}, {"key": "Rain", "values": [1, 0, 0, 0, 0]}]
        )
        with pytest.raises(DimMismatch) as excinfo:
            load_precomputed_vectors(path, [])
        assert str(excinfo.value) == "vector length mismatch: expected 3, got 5 (line 2: 'rain' holds 5 values)"

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank_lines"])
    def test_file_without_a_vector_is_refused(self, tmp_path, text):
        path = tmp_path / "vectors.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IoFailure, match="the vectors file holds no vector") as excinfo:
            load_precomputed_vectors(path, [])
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("values", ["1,0,0,0", {"0": 1}, 4], ids=["string", "object", "number"])
    def test_non_array_values_is_malformed(self, tmp_path, values):
        path = write_jsonl(
            tmp_path / "vectors.jsonl",
            [{"key": "storm", "dim": 4, "values": [0, 1, 0, 0]}, {"key": "rain", "dim": 4, "values": values}],
        )
        with pytest.raises(MalformedRecord) as excinfo:
            load_precomputed_vectors(path, ["rain"])
        assert excinfo.value.line_no == 2 and "'rain'" in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["x", True, None, [1.0], 10**400], ids=["string", "bool", "null", "array", "huge_int"])
    def test_non_numeric_value_is_malformed(self, tmp_path, bad):
        path = self.make_file(tmp_path, [("storm", [0, 1, 0, 0]), ("rain", [bad, 1, 2, 3])])
        with pytest.raises(MalformedRecord) as excinfo:
            load_precomputed_vectors(path, ["rain"])
        assert excinfo.value.line_no == 2

    def test_encoder_contract_interchangeable(self, trigram, tmp_path):
        # A vectors file mirroring the trigram encoder's output plugs in
        # behind the same contract and yields identical neighbors.
        keys = ["rain", "storm surge", "flooding"]
        component = "rainfall"
        path = write_jsonl(
            tmp_path / "vectors.jsonl",
            [
                {"key": text, "dim": trigram.dim, "values": list(trigram.encode(text))}
                for text in keys + [component]
            ],
        )
        vectors = load_precomputed_vectors(path, keys)
        file_encoder = PrecomputedVectorEncoder(vectors)
        ix = index_over_vocab(keys, encoder=file_encoder)
        trigram_ix = index_over_vocab(keys, encoder=trigram)
        assert semantic_neighbors(component, "THEME", ix, file_encoder, tau=0.3) == [
            (k, pytest.approx(s, abs=1e-9))
            for k, s in semantic_neighbors(component, "THEME", trigram_ix, trigram, tau=0.3)
        ]

    def test_duplicate_key_is_malformed(self, tmp_path):
        # "Rain" and "rain" normalize alike; the later record used to overwrite the earlier.
        path = write_jsonl(
            tmp_path / "vectors.jsonl",
            [{"key": "storm", "values": [0, 0, 1]}, {"key": "Rain", "values": [1, 0, 0]}, {"key": "rain", "values": [0, 1, 0]}],
        )
        with pytest.raises(MalformedRecord) as excinfo:
            load_precomputed_vectors(path, ["rain"])
        assert excinfo.value.line_no == 3 and "'rain'" in str(excinfo.value)

    def test_encoder_refuses_vectors_of_another_length(self):
        vectors = {"rain": np.ones(4) / 2.0, "storm": np.array([1.0, 0.0, 0.0, 0.0])}
        assert PrecomputedVectorEncoder(vectors).dim == 4
        vectors["surge"] = np.full(8, 8**-0.5)
        with pytest.raises(DimMismatch) as excinfo:
            PrecomputedVectorEncoder(vectors)
        assert (excinfo.value.expected, excinfo.value.got) == (4, 8)
        assert "'surge'" in str(excinfo.value)
        with pytest.raises(ValueError, match="no vectors"):
            PrecomputedVectorEncoder({})

    def test_missing_component_raises_missing_key(self, trigram):
        file_encoder = PrecomputedVectorEncoder({"rain": np.ones(4) / 2.0})
        with pytest.raises(MissingKey):
            file_encoder.encode("unseen phrase")


class _RolledTrigram(TrigramEncoder):
    """Same name and dim as TrigramEncoder, but every trigram hashes one bucket further."""

    def encode(self, text):
        return np.roll(super().encode(text), 1)


def _saved_and_loaded(ix, path):
    save_index(ix, path)
    return load_index(path)


class TestEncoderCoverage:
    """A precomputed encoder must hold a vector for every label key it is asked for."""

    def test_build_refuses_a_label_key_without_a_vector(self, trigram):
        partial = PrecomputedVectorEncoder({"rain": trigram.encode("rain")})
        with pytest.raises(MissingKey) as excinfo:
            index_over_vocab(["rain", "storm surge"], encoder=partial)
        assert excinfo.value.key == "storm surge"

    def test_loaded_index_refuses_a_partial_encoder_of_its_name_and_dim(self, trigram, tmp_path):
        keys = ["rain", "storm surge"]
        full = PrecomputedVectorEncoder({key: trigram.encode(key) for key in keys + ["rainfall"]})
        partial = PrecomputedVectorEncoder({key: trigram.encode(key) for key in ["rain", "rainfall"]})
        ix = _saved_and_loaded(index_over_vocab(keys, encoder=full), tmp_path / "ix.hcix")
        # "rainfall" encodes, so the scan derives THEME's table and finds "storm surge" missing:
        # a refusal, not an unmatched component.
        with pytest.raises(EncoderMismatch, match="dimension 'THEME'"):
            retrieve("rainfall totals", ix, partial, tau=0.3)
        assert ix.label_vectors.by_dimension == {}
        result = retrieve("rainfall totals", ix, full, tau=0.3)
        assert [(m.component, m.matched_label, m.kind) for m in result.matches][0] == ("rainfall", "rain", "semantic")


class TestEncoderMismatch:
    """An index with label vectors answers only to the encoder that made them."""

    def test_other_dim_raises_dim_mismatch(self, trigram, tmp_path, monkeypatch):
        ix = _saved_and_loaded(index_over_vocab(["rain", "storm surge"], encoder=trigram), tmp_path / "ix.hcix")
        derivations = count_derivations(monkeypatch)
        with pytest.raises(DimMismatch) as excinfo:
            semantic_neighbors("rainfall", "THEME", ix, TrigramEncoder(dim=64), tau=0.3)
        message = str(excinfo.value)
        assert "'trigram' (dim 256)" in message and "'trigram' (dim 64)" in message
        # A mismatch encodes nothing: no table is derived or kept.
        assert derivations == []
        assert ix.label_vectors.by_dimension == {}

    def test_other_name_raises_encoder_mismatch(self, trigram):
        ix = index_over_vocab(["rain", "storm surge"], encoder=trigram)
        file_encoder = PrecomputedVectorEncoder({"rainfall": trigram.encode("rainfall")})
        with pytest.raises(EncoderMismatch) as excinfo:
            semantic_neighbors("rainfall", "THEME", ix, file_encoder, tau=0.3)
        assert "'trigram'" in str(excinfo.value) and "'precomputed'" in str(excinfo.value)

    def test_retrieve_raises(self, trigram):
        ix = index_over_vocab(["rain", "storm surge"], encoder=trigram)
        with pytest.raises(DimMismatch):
            retrieve("rainfall totals", ix, TrigramEncoder(dim=64), tau=0.3)

    @pytest.mark.parametrize("query", ["rain", "rainfall totals"])
    def test_retrieve_raises_for_every_query(self, trigram, query):
        # "rain" matches exactly, so only a check made before matching can refuse it.
        ix = index_over_vocab(["rain", "storm surge"], encoder=trigram)
        with pytest.raises(DimMismatch, match="'trigram' \\(dim 64\\)"):
            retrieve(query, ix, TrigramEncoder(dim=64), tau=0.3)
        # The index's own vectors, under another encoder name.
        renamed = PrecomputedVectorEncoder({key: trigram.encode(key) for key in ["rain", "storm surge"]})
        with pytest.raises(EncoderMismatch, match="'precomputed' \\(dim 256\\)"):
            retrieve(query, ix, renamed, tau=0.3)

    @pytest.mark.parametrize("query", ["rain", "rainfall totals"])
    def test_index_without_vectors_refuses_every_encoder(self, trigram, monkeypatch, query):
        # "rain" matches exactly, so only a check made before matching can refuse it.
        ix = index_over_vocab(["rain", "storm surge"])
        derivations = count_derivations(monkeypatch)
        for encoder in (trigram, TrigramEncoder(dim=64)):
            with pytest.raises(EncoderMismatch, match="built without an encoder.*encoder=None"):
                retrieve(query, ix, encoder, tau=0.3)
            with pytest.raises(EncoderMismatch, match="built without an encoder"):
                semantic_neighbors("rainfall", "THEME", ix, encoder, tau=0.3)
        assert derivations == [] and ix.label_vectors is None
        # Exact-only retrieval still answers.
        result = retrieve("rain", ix, None)
        assert [(m.matched_label, m.kind) for m in result.matches] == [("rain", "exact")]
        assert [doc.doc_id for doc in result.ranked] == ["d0"]

    @pytest.mark.parametrize("source", ["vectors_file", "trigram_subclass"])
    def test_loaded_index_rejects_same_name_and_dim_with_other_output(self, trigram, tmp_path, source):
        keys = ["rain", "storm surge", "rainfall"]
        if source == "vectors_file":
            # Two vector files for the same keys: the second holds other vectors.
            def file_encoder(name, vectors_of):
                path = write_jsonl(
                    tmp_path / name, [{"key": key, "dim": 16, "values": list(vectors_of(key))} for key in keys]
                )
                return PrecomputedVectorEncoder(load_precomputed_vectors(path, keys))

            build_encoder = file_encoder("a.jsonl", TrigramEncoder(dim=16).encode)
            query_encoder = file_encoder("b.jsonl", _RolledTrigram(dim=16).encode)
        else:
            build_encoder, query_encoder = trigram, _RolledTrigram()
        assert (build_encoder.name, build_encoder.dim) == (query_encoder.name, query_encoder.dim)
        ix = _saved_and_loaded(index_over_vocab(keys[:2], encoder=build_encoder), tmp_path / "ix.hcix")
        with pytest.raises(EncoderMismatch, match="dimension 'THEME'"):
            semantic_neighbors("rainfall", "THEME", ix, query_encoder, tau=0.3)
        with pytest.raises(EncoderMismatch, match="dimension 'THEME'"):
            retrieve("rainfall totals", ix, query_encoder, tau=0.3)
        # The build encoder still answers, with the vectors it built.
        assert semantic_neighbors("rainfall", "THEME", ix, build_encoder, tau=0.3) == semantic_neighbors(
            "rainfall", "THEME", index_over_vocab(keys[:2], encoder=build_encoder), build_encoder, tau=0.3
        )

    def test_loaded_checksum_is_checked_on_first_scan(self, trigram, tmp_path):
        path = tmp_path / "ix.hcix"
        save_index(index_over_vocab(["rain", "storm surge"], encoder=trigram), path)
        header, sections = read_container(path)
        sections["vectors"]["checksums"]["THEME"] ^= 1
        write_container(path, header, sections)
        ix = load_index(path)
        assert semantic_neighbors("rainfall", "LOCATION", ix, trigram, tau=0.3) == []
        with pytest.raises(EncoderMismatch, match="dimension 'THEME'"):
            semantic_neighbors("rainfall", "THEME", ix, trigram, tau=0.3)

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    DOC_246,
    DOC_535,
    DOC_565,
    FIXTURE_TAU,
    MELBOURNE_QUERY,
    encode_inverted,
    read_container,
    write_container,
    write_escaped_jsonl,
    write_jsonl,
)
from hyperrag import TrigramEncoder, build_index, extract_all, load_corpus, load_gazetteer, load_index, save_index
from hyperrag import normalize_label
from hyperrag import cli as cli_mod, evaluation as evaluation_mod
from hyperrag.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def fixture_files(tmp_path):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            {"id": "565", "text": DOC_565},
            {"id": "246", "text": DOC_246},
            {"id": "535", "text": DOC_535},
        ],
    )
    gazetteer = write_jsonl(
        tmp_path / "gazetteer.jsonl",
        [
            {"dim": "LOCATION", "phrase": "Melbourne Beach"},
            {"dim": "LOCATION", "phrase": "Florida"},
            {"dim": "EVENT", "phrase": "Tropical Storm Fay"},
            {"dim": "THEME", "phrase": "rain"},
        ],
    )
    queries = write_jsonl(
        tmp_path / "queries.jsonl",
        [
            {"id": "q1", "question": MELBOURNE_QUERY, "gold_doc_ids": ["565"]},
        ],
    )
    index = tmp_path / "fixture.hcix"
    return {"corpus": corpus, "gazetteer": gazetteer, "queries": queries, "index": index}


def build_fixture_index(files):
    code = main(
        [
            "build",
            "--corpus", str(files["corpus"]),
            "--gazetteer", str(files["gazetteer"]),
            "--out", str(files["index"]),
        ]
    )
    assert code == 0
    return files["index"]


def write_vectors(path, keys, dim=16):
    """A vectors file holding the ``dim``-long trigram vector of each key."""
    encoder = TrigramEncoder(dim=dim)
    return write_jsonl(path, [{"key": key, "dim": dim, "values": encoder.encode(key).tolist()} for key in keys])


def build_args(files, encoder):
    return [
        "build",
        "--corpus", str(files["corpus"]),
        "--gazetteer", str(files["gazetteer"]),
        "--encoder", encoder,
        "--out", str(files["index"]),
    ]


def bench_args(files, vectors=None, out_path=None):
    """One-fraction, one-repetition bench arguments; a 16-dim vectors file and ``--out`` when given."""
    args = [
        "bench",
        "--corpus", str(files["corpus"]),
        "--gazetteer", str(files["gazetteer"]),
        "--queries", str(files["queries"]),
        "--fractions", "1",
        "--reps", "1",
    ]
    if vectors is not None:
        args += ["--encoder", f"file:{vectors}"]
    if out_path is not None:
        args += ["--out", str(out_path)]
    return args


class TestBuild:
    def test_build_writes_index(self, fixture_files):
        index_path = build_fixture_index(fixture_files)
        assert index_path.exists()

    def test_hurricane_mini_builds_are_byte_identical(self, tmp_path):
        data = README.parent / "data" / "hurricane_mini"
        records = (data / "labels.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "a.jsonl").write_text(records[0], encoding="utf-8")
        (tmp_path / "b.jsonl").write_text("".join(records[1:]), encoding="utf-8")

        def cli_build(out, *labels):
            argv = ["build", "--corpus", str(data / "corpus.jsonl"), "--gazetteer", str(data / "gazetteer.jsonl")]
            assert main([*argv, *(f"--labels={path}" for path in labels), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out).read_bytes()

        built = cli_build("built.hcix", data / "labels.jsonl")
        assert cli_build("again.hcix", data / "labels.jsonl") == built
        assert cli_build("split.hcix", tmp_path / "a.jsonl", tmp_path / "b.jsonl") == built
        save_index(load_index(tmp_path / "built.hcix"), tmp_path / "resaved.hcix")
        corpus = load_corpus(data / "corpus.jsonl")
        labels = extract_all(corpus, load_gazetteer(data / "gazetteer.jsonl"))
        for record in map(json.loads, records):
            labels.add(record["doc_id"], record["dim"], normalize_label(record["label"]), record.get("count", 1))
        save_index(build_index(corpus, labels, encoder=TrigramEncoder()), tmp_path / "added.hcix")
        assert (tmp_path / "resaved.hcix").read_bytes() == (tmp_path / "added.hcix").read_bytes() == built

    def test_build_requires_label_source(self, fixture_files, capsys):
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 1

    def test_missing_label_source_reported_before_reading_the_corpus(self, tmp_path, capsys):
        # The corpus need not exist: the usage error comes before any file is read.
        code = main(["build", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "x.hcix")])
        assert code == 1
        assert "build needs --gazetteer and/or --labels" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dimensions", [["THEME"], ["HAZARD", "HAZARD"]])
    def test_repeated_dimension_is_usage_error(self, tmp_path, capsys, dimensions):
        # Checked before any file is read: the inputs need not exist.
        out = tmp_path / "x.hcix"
        code = main(
            [
                "build",
                "--corpus", str(tmp_path / "absent.jsonl"),
                "--gazetteer", str(tmp_path / "absent.jsonl"),
                "--dimensions", *dimensions,
                "--out", str(out),
            ]
        )
        assert code == 1
        assert f"--dimensions: dimension {dimensions[-1]!r} appears twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_dimension_is_usage_error(self, tmp_path, capsys, blank):
        # As with a repeated name, the inputs need not exist.
        code = main(
            [
                "build",
                "--corpus", str(tmp_path / "absent.jsonl"),
                "--gazetteer", str(tmp_path / "absent.jsonl"),
                "--dimensions", "HAZARD", blank,
                "--out", str(tmp_path / "x.hcix"),
            ]
        )
        assert code == 1
        assert f"--dimensions: dimension name {blank!r} is blank" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_build_data_error_exit_2(self, fixture_files, tmp_path):
        bad = write_jsonl(tmp_path / "bad.jsonl", [{"id": "x"}])
        code = main(
            [
                "build",
                "--corpus", str(bad),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2

    def test_label_normalizing_to_empty_is_data_error(self, fixture_files, tmp_path, capsys):
        labels = write_jsonl(
            tmp_path / "labels.jsonl", [{"doc_id": "565", "dim": "THEME", "label": "...", "count": 1}]
        )
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--labels", str(labels),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2
        assert "line 1: malformed record" in capsys.readouterr().err

    def test_gazetteer_phrase_normalizing_to_empty_is_data_error(self, fixture_files, tmp_path, capsys):
        gazetteer = write_jsonl(
            tmp_path / "gaz.jsonl",
            [{"dim": "THEME", "phrase": "rain"}, {"dim": "THEME", "phrase": "?!"}],
        )
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(gazetteer),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2
        assert "line 2: malformed record" in capsys.readouterr().err

    @pytest.mark.parametrize("phrase", ["(rain)", "storm - surge", '"fay"'])
    def test_gazetteer_phrase_no_text_can_match_is_data_error(self, fixture_files, tmp_path, capsys, phrase):
        gazetteer = write_jsonl(
            tmp_path / "gaz.jsonl",
            [{"dim": "THEME", "phrase": "rain"}, {"dim": "THEME", "phrase": phrase}],
        )
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(gazetteer),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2
        assert "line 2: malformed record" in capsys.readouterr().err
        assert not fixture_files["index"].exists()

    def test_invalid_utf8_corpus_is_data_error(self, fixture_files, tmp_path, capsys):
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(b'{"id": "565", "text": "Melbourne Beach"}\n{"id": "246", "text": "Florida caf\xe9"}\n')
        code = main(
            [
                "build",
                "--corpus", str(corpus),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2
        assert "line 2: malformed record" in capsys.readouterr().err

    def test_non_numeric_vector_is_data_error(self, fixture_files, tmp_path, capsys):
        vectors = write_jsonl(tmp_path / "vec.jsonl", [{"key": "rain", "dim": 4, "values": ["x", 1, 2, 3]}])
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--encoder", f"file:{vectors}",
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 2
        assert "line 1: malformed record" in capsys.readouterr().err


    def test_vectors_file_missing_a_label_key_fails_before_writing(self, fixture_files, tmp_path, capsys):
        vectors = write_vectors(tmp_path / "vec.jsonl", ["rain", "melbourne beach", "tropical storm fay"])
        code = main(build_args(fixture_files, f"file:{vectors}"))
        assert code == 2
        assert "no vector for key 'florida'" in capsys.readouterr().err
        assert not fixture_files["index"].exists()

    def test_vectors_file_sets_the_vector_length(self, fixture_files, tmp_path):
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay"]
        assert main(build_args(fixture_files, f"file:{write_vectors(tmp_path / 'vec.jsonl', keys)}")) == 0
        vectors = load_index(fixture_files["index"]).label_vectors
        assert (vectors.encoder_name, vectors.dim) == ("precomputed", 16)

    def test_vectors_file_without_a_vector_is_data_error(self, fixture_files, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        code = main(build_args(fixture_files, f"file:{empty}"))
        assert code == 2
        assert f"{empty}: the vectors file holds no vector" in capsys.readouterr().err
        assert not fixture_files["index"].exists()

    def test_vectors_file_with_every_label_key_builds_queries_and_evals(self, fixture_files, tmp_path, capsys):
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay", "rainfall"]
        # query and eval take the vector length, 16, from the index.
        encoder = ["--encoder", f"file:{write_vectors(tmp_path / 'vec.jsonl', keys)}"]
        assert main(build_args(fixture_files, encoder[1])) == 0
        index = ["--index", str(fixture_files["index"]), "--tau", str(FIXTURE_TAU), *encoder]
        assert main(["query", *index, "--query", MELBOURNE_QUERY, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["results"][0]["doc_id"] == "565"
        assert {"dim": "THEME", "component": "rainfall", "matched_label": "rain"}.items() <= result["matches"][0].items()
        assert main(["eval", *index, "--queries", str(fixture_files["queries"])]) == 0


class TestQuery:
    def test_ranked_output(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", MELBOURNE_QUERY,
                "--tau", str(FIXTURE_TAU),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1. 565")
        assert "coverage=3/4" in lines[0]
        assert "freq=7" in lines[0]

    def test_explain_table(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", MELBOURNE_QUERY,
                "--tau", str(FIXTURE_TAU),
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "melbourne beach" in out
        assert "semantic" in out
        assert "rainfall" in out and "rain" in out

    def test_json_output_deterministic(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        argv = [
            "query",
            "--index", str(fixture_files["index"]),
            "--query", MELBOURNE_QUERY,
            "--tau", str(FIXTURE_TAU),
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["results"][0]["doc_id"] == "565"
        assert payload["results"][0]["freq_score"] == 7

    def test_external_decomposition_flag(self, fixture_files, tmp_path, capsys):
        build_fixture_index(fixture_files)
        decomp = write_jsonl(
            tmp_path / "decomp.jsonl",
            [
                {
                    "query": MELBOURNE_QUERY,
                    "components": [
                        {"dim": "LOCATION", "text": "Melbourne Beach"},
                        {"dim": "EVENT", "text": "Tropical Storm Fay"},
                        {"dim": "THEME", "text": "Rainfall"},
                    ],
                }
            ],
        )
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", MELBOURNE_QUERY,
                "--tau", str(FIXTURE_TAU),
                "--decomposition", str(decomp),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[0].startswith("1. 565")
        assert "coverage=3/3" in out

    def test_decomposition_without_an_entry_for_the_query_is_data_error(self, fixture_files, tmp_path, capsys):
        # The file is never passed over for the lexical decomposer.
        build_fixture_index(fixture_files)
        decomp = write_jsonl(
            tmp_path / "decomp.jsonl",
            [{"query": MELBOURNE_QUERY, "components": [{"dim": "LOCATION", "text": "Melbourne Beach"}]}],
        )
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", "florida storm",
                "--decomposition", str(decomp),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{decomp}: the decomposition file holds no entry for the query 'florida storm'" in captured.err

    def test_bad_tau_is_usage_error(self, fixture_files):
        build_fixture_index(fixture_files)
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", "rain",
                "--tau", "7",
            ]
        )
        assert code == 1

    def test_encoder_other_than_the_index_is_data_error(self, fixture_files, tmp_path, capsys):
        build_fixture_index(fixture_files)
        # The same vectors as the index's trigram-256 ones, under another encoder name.
        vectors = write_vectors(tmp_path / "vec.jsonl", ["rain", "melbourne beach", "florida", "tropical storm fay"], 256)
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", MELBOURNE_QUERY,
                "--tau", str(FIXTURE_TAU),
                "--encoder", f"file:{vectors}",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'trigram' (dim 256)" in captured.err and "'precomputed' (dim 256)" in captured.err

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_vectors_file_for_another_encoder_is_refused_before_it_is_read(
        self, fixture_files, tmp_path, capsys, command
    ):
        build_fixture_index(fixture_files)
        # The file covers one of the index's four keys, so reading it would fail first.
        vectors = write_vectors(tmp_path / "vec.jsonl", ["rain"], 256)
        capsys.readouterr()
        source = ["--query", MELBOURNE_QUERY] if command == "query" else ["--queries", str(fixture_files["queries"])]
        code = main([command, "--index", str(fixture_files["index"]), *source, "--encoder", f"file:{vectors}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no vector for key" not in err
        assert "'trigram' (dim 256)" in err and "'precomputed' (dim 256)" in err
        absent = f"file:{tmp_path / 'absent.jsonl'}"  # nor is a file that does not exist read
        assert main([command, "--index", str(fixture_files["index"]), *source, "--encoder", absent]) == 2
        assert "'trigram' (dim 256)" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["florida", "rainfall in florida"])
    def test_encoder_mismatch_does_not_depend_on_the_query(self, fixture_files, tmp_path, capsys, query):
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay"]
        assert main(build_args(fixture_files, f"file:{write_vectors(tmp_path / 'vec.jsonl', keys)}")) == 0
        capsys.readouterr()
        # "florida" matches exactly, so only an up-front check can refuse it.
        code = main(["query", "--index", str(fixture_files["index"]), "--query", query])
        assert code == 2
        assert "'precomputed' (dim 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "eval"])
    @pytest.mark.parametrize(
        "key_count, dim, message",
        [(3, 16, "no vector for key 'tropical storm fay'"), (4, 8, "expected 16, got 8")],
        ids=["missing_key", "other_length"],
    )
    def test_vectors_file_unfit_for_the_index_is_refused_before_any_query(
        self, fixture_files, tmp_path, monkeypatch, capsys, command, key_count, dim, message
    ):
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay"]
        assert main(build_args(fixture_files, f"file:{write_vectors(tmp_path / 'vec.jsonl', keys)}")) == 0
        unfit = write_vectors(tmp_path / "unfit.jsonl", keys[:key_count], dim)

        def no_query(*args, **kwargs):
            raise AssertionError("a query ran")

        monkeypatch.setattr(cli_mod, "retrieve", no_query)
        monkeypatch.setattr(cli_mod, "eval_recall", no_query)
        capsys.readouterr()
        # "florida" matches exactly, so only an up-front check can refuse it.
        source = ["--query", "florida"] if command == "query" else ["--queries", str(fixture_files["queries"])]
        code = main([command, "--index", str(fixture_files["index"]), *source, "--encoder", f"file:{unfit}"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_embed_dim_comes_from_the_index(self, fixture_files, capsys):
        # The CLI builds trigram indexes at 256 only; this one is built at 64 through the library.
        corpus = load_corpus(fixture_files["corpus"])
        labels = extract_all(corpus, load_gazetteer(fixture_files["gazetteer"]))
        save_index(build_index(corpus, labels, encoder=TrigramEncoder(dim=64)), fixture_files["index"])
        index = ["--index", str(fixture_files["index"]), "--tau", str(FIXTURE_TAU)]
        assert main(["query", *index, "--query", MELBOURNE_QUERY, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["doc_id"] == "565"
        assert main(["eval", *index, "--queries", str(fixture_files["queries"])]) == 0
        assert main(["query", *index, "--query", "rain", "--embed-dim", "64"]) == 1

    def test_missing_index_is_data_error(self, tmp_path):
        code = main(["query", "--index", str(tmp_path / "none.hcix"), "--query", "rain"])
        assert code == 2

    def test_malformed_container_is_data_error(self, fixture_files, capsys):
        index = build_fixture_index(fixture_files)
        header, sections = read_container(index)
        del header["sections"]
        write_container(index, header, sections)
        capsys.readouterr()
        code = main(["query", "--index", str(index), "--query", "rain"])
        assert code == 2
        assert "malformed index container" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_index_without_vectors_is_refused(self, fixture_files, capsys, command):
        index = build_fixture_index(fixture_files)
        header, sections = read_container(index)
        header["sections"].remove("vectors")
        del sections["vectors"]
        write_container(index, header, sections)
        capsys.readouterr()
        source = ["--query", "rain"] if command == "query" else ["--queries", str(fixture_files["queries"])]
        code = main([command, "--index", str(index), *source])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "holds no label vectors" in captured.err and "internal error" not in captured.err
        # The index still answers what needs no encoder.
        assert main(["inspect", "--index", str(index), "--dim", "THEME", "--label", "rain"]) == 0
        assert capsys.readouterr().out == "565\t5\n"

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_unnormalized_key_is_data_error(self, fixture_files, capsys, command):
        index = build_fixture_index(fixture_files)
        header, sections = read_container(index)
        location = sections["inverted:LOCATION"]
        location["keys"] = [key + " " if key == "florida" else key for key in location["keys"]]
        write_container(index, header, sections)
        capsys.readouterr()
        source = ["--query", MELBOURNE_QUERY] if command == "query" else ["--queries", str(fixture_files["queries"])]
        code = main([command, "--index", str(index), *source])
        assert code == 2
        assert "not normalized" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "components, message",
        [
            ([{"dim": "THEME"}], "line 1: missing field 'text'"),
            ("rain", "line 1: malformed record"),
        ],
        ids=["component_without_text", "components_not_array"],
    )
    def test_bad_decomposition_is_data_error(self, fixture_files, tmp_path, capsys, components, message):
        build_fixture_index(fixture_files)
        decomp = write_jsonl(tmp_path / "decomp.jsonl", [{"query": "rain", "components": components}])
        capsys.readouterr()
        code = main(
            [
                "query",
                "--index", str(fixture_files["index"]),
                "--query", "rain",
                "--decomposition", str(decomp),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err


class TestTextAnIndexCannotHold:
    """Doc ids with a newline and strings with a lone surrogate are data errors (exit 2), never internal ones."""

    @pytest.mark.parametrize("command", [["inspect", "--dim", "THEME"], ["query", "--query", "rain"]])
    def test_index_key_with_lone_surrogate(self, fixture_files, capsys, command):
        index = build_fixture_index(fixture_files)
        header, sections = read_container(index)
        theme = {**sections["inverted:THEME"], "keys": ["r\ud800ain"]}
        sections["inverted:THEME"] = encode_inverted(theme, escape=True)
        write_container(index, header, sections)
        capsys.readouterr()
        code = main([command[0], "--index", str(index), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{index}: malformed index container" in captured.err and "lone surrogate" in captured.err

    def _build(self, files, **paths):
        flags = [f"--{name}" for name in ("corpus", "gazetteer", "labels")]
        args = ["build", "--out", str(files["index"])]
        for flag, name in zip(flags, ("corpus", "gazetteer", "labels")):
            if paths.get(name, files.get(name)):
                args += [flag, str(paths.get(name, files.get(name)))]
        return main(args)

    def test_doc_id_with_newline(self, fixture_files, tmp_path, capsys):
        corpus = write_escaped_jsonl(
            tmp_path / "corpus.jsonl", [{"id": "565", "text": DOC_565}, {"id": "2\n46", "text": DOC_246}]
        )
        assert self._build(fixture_files, corpus=corpus) == 2
        assert "line 2: malformed record (document id '2\\n46' holds a newline)" in capsys.readouterr().err
        assert not fixture_files["index"].exists()

    @pytest.mark.parametrize("route", ["corpus", "gazetteer", "labels"])
    def test_lone_surrogate_names_its_line(self, fixture_files, tmp_path, capsys, route):
        records = {
            "corpus": [{"id": "565", "text": DOC_565}, {"id": "a\ud800", "text": "rain in florida"}],
            "gazetteer": [{"dim": "THEME", "phrase": "rain"}, {"dim": "THEME", "phrase": "rain\ud800"}],
            "labels": [
                {"doc_id": "565", "dim": "THEME", "label": "rain", "count": 1},
                {"doc_id": "565", "dim": "THEME", "label": "rain\ud800", "count": 1},
            ],
        }[route]
        path = write_escaped_jsonl(tmp_path / f"{route}.jsonl", records)
        assert self._build(fixture_files, **{route: path}) == 2
        err = capsys.readouterr().err
        assert "line 2: malformed record" in err and "lone surrogate" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("flags", [[], ["--explain"], ["--json"]], ids=["plain", "explain", "json"])
    def test_query_not_utf8(self, fixture_files, capsys, flags):
        # Command-line bytes that are not UTF-8 reach Python as lone surrogates.
        index = build_fixture_index(fixture_files)
        capsys.readouterr()
        query = "rainfall \udcff\udcfeabc totals"
        code = main(["query", "--index", str(index), "--tau", "0.5", *flags, "--query", query])
        captured = capsys.readouterr()
        assert code == 2
        assert "holds bytes that are not UTF-8" in captured.err and "internal error" not in captured.err
        assert captured.out == ""

    def test_queries_file_with_lone_surrogate(self, fixture_files, tmp_path, capsys):
        index = build_fixture_index(fixture_files)
        queries = write_escaped_jsonl(
            tmp_path / "queries.jsonl",
            [{"id": "q1", "question": MELBOURNE_QUERY}, {"id": "q2", "question": "rain \udcff totals"}],
        )
        capsys.readouterr()
        assert main(["eval", "--index", str(index), "--queries", str(queries)]) == 2
        err = capsys.readouterr().err
        assert "line 2: malformed record (question" in err and "internal error" not in err

    def test_decomposition_with_lone_surrogate(self, fixture_files, tmp_path, capsys):
        index = build_fixture_index(fixture_files)
        decomp = write_escaped_jsonl(
            tmp_path / "decomp.jsonl", [{"query": "rain", "components": [{"dim": "THEME", "text": "rain\udcff"}]}]
        )
        capsys.readouterr()
        code = main(["query", "--index", str(index), "--query", "rain", "--explain", "--decomposition", str(decomp)])
        assert code == 2
        assert "line 1: malformed record (text" in capsys.readouterr().err

    def test_dimension_not_utf8_is_usage_error(self, fixture_files, capsys):
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--dimensions", "HAZARD\udcff",
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 1
        assert "--dimensions: dimension name 'HAZARD\\udcff' holds a lone surrogate" in capsys.readouterr().err


class TestInspect:
    def test_posting_list(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "inspect",
                "--index", str(fixture_files["index"]),
                "--dim", "THEME",
                "--label", "rain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "565\t5"

    def test_cell(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "inspect",
                "--index", str(fixture_files["index"]),
                "--cell", "LOCATION=melbourne beach,EVENT=tropical storm fay,THEME=rain",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == ["565"]

    def test_summary(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"])])
        out = capsys.readouterr().out
        assert code == 0
        assert "documents: 3" in out

    def test_label_is_normalized(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "inspect",
                "--index", str(fixture_files["index"]),
                "--dim", "LOCATION",
                "--label", "Melbourne Beach",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "565\t1"

    def test_cell_labels_are_normalized(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "inspect",
                "--index", str(fixture_files["index"]),
                "--cell", "LOCATION=Florida,EVENT=Tropical Storm FAY",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out) == ["246"]

    @pytest.mark.parametrize(
        "flags",
        [["--dim", "theme", "--label", "rain"], ["--dim", "theme"], ["--cell", "NOPE=rain"]],
        ids=["dim_and_label", "dim_alone", "cell"],
    )
    def test_unknown_dimension_is_usage_error(self, fixture_files, capsys, flags):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "LOCATION, DATE, EVENT, ORGANIZATION, PERSON, THEME" in captured.err

    @pytest.mark.parametrize("cell", ["THEME=storm,THEME=rain", "THEME=rain,THEME=storm"])
    def test_repeated_cell_dimension_is_usage_error(self, fixture_files, capsys, cell):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), "--cell", cell])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "dimension 'THEME' twice" in captured.err

    @pytest.mark.parametrize("cell", ["THEME=", "LOCATION=florida,THEME= ?"])
    def test_blank_cell_label_is_usage_error(self, fixture_files, capsys, cell):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), "--cell", cell])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "blank label" in captured.err

    @pytest.mark.parametrize("label", [" ", "?", ""])
    def test_blank_label_is_usage_error(self, fixture_files, capsys, label):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), "--dim", "THEME", "--label", label])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "blank label" in captured.err

    def test_label_without_dim_is_usage_error(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), "--label", "rain"])
        assert code == 1
        assert "--label needs --dim" in capsys.readouterr().err

    def test_label_and_cell_together_is_usage_error(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(
            [
                "inspect",
                "--index", str(fixture_files["index"]),
                "--dim", "LOCATION",
                "--label", "florida",
                "--cell", "LOCATION=melbourne beach",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--json"], "--json needs --label or --cell"),
            (["--dim", "THEME", "--json"], "--json needs --label or --cell"),
            (["--dim", "THEME", "--cell", "LOCATION=florida"], "--cell names its own dimensions"),
            (["--dim", "THEME", "--label", "rain", "--verbose"], "--verbose applies only to the summary"),
            (["--cell", "LOCATION=florida", "--verbose", "--json"], "--verbose applies only to the summary"),
        ],
        ids=["json_summary", "json_dim_summary", "dim_with_cell", "verbose_with_label", "verbose_with_cell"],
    )
    def test_flag_the_request_cannot_apply_is_usage_error(self, tmp_path, capsys, flags, message):
        # Found before the index is read: the index file does not exist.
        code = main(["inspect", "--index", str(tmp_path / "absent.hcix"), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err

    def test_empty_cell_is_usage_error(self, fixture_files, capsys):
        build_fixture_index(fixture_files)
        capsys.readouterr()
        code = main(["inspect", "--index", str(fixture_files["index"]), "--cell", ""])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "bad --cell coordinate ''" in captured.err


class TestEval:
    def test_eval_report(self, fixture_files, tmp_path, capsys):
        build_fixture_index(fixture_files)
        out_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--index", str(fixture_files["index"]),
                "--queries", str(fixture_files["queries"]),
                "--k", "3",
                "--tau", str(FIXTURE_TAU),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["aggregates"]["recall_at"]["1"] == 1.0
        assert report["rows"][0]["retrieved_ids"][0] == "565"


    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_empty_queries_file_is_data_error(self, fixture_files, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        if command == "eval":
            args = ["eval", "--index", str(build_fixture_index(fixture_files)), "--queries", str(empty)]
        else:
            args = [*bench_args(fixture_files), "--queries", str(empty)]  # the last --queries wins
        capsys.readouterr()
        code = main([*args, "--out", str(out_path)])
        assert code == 2
        assert f"{empty}: the queries file holds no query" in capsys.readouterr().err
        assert not out_path.exists()


class TestBench:
    def test_bench_csv(self, fixture_files, tmp_path):
        out_path = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--queries", str(fixture_files["queries"]),
                "--fractions", "0.5,1",
                "--reps", "2",
                "--noise", "20",
                "--tau", str(FIXTURE_TAU),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "engine,fraction,noise,mean_us,median_us,p95_us"
        # 2 fractions x 2 engines + noise row x 2 engines
        assert len(lines) == 1 + 6

    def test_stdout_and_out_file_carry_one_table(self, fixture_files, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        assert main(bench_args(fixture_files)) == 0
        printed = capsys.readouterr().out
        assert main(bench_args(fixture_files, out_path=out_path)) == 0
        written = out_path.read_bytes().decode("utf-8")
        # Timings differ between runs; the layout, line endings and row keys do not.
        for text in (printed, written):
            assert "\r" not in text and text.endswith("\n")
        printed_keys, written_keys = ([line.split(",")[:3] for line in text.splitlines()] for text in (printed, written))
        assert printed_keys == written_keys == [
            ["engine", "fraction", "noise"], ["hypercube", "1.0", "0"], ["bm25", "1.0", "0"]
        ]

    @pytest.mark.parametrize("encoder", ["trigram", "file"])
    def test_corpus_extracted_once(self, fixture_files, tmp_path, monkeypatch, encoder):
        counted = []
        extract_all = evaluation_mod.extract_all

        def counting_extract_all(*args):
            counted.append(args)
            return extract_all(*args)

        for module in (cli_mod, evaluation_mod):
            monkeypatch.setattr(module, "extract_all", counting_extract_all)
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay"]
        vectors = write_vectors(tmp_path / "vec.jsonl", keys) if encoder == "file" else None
        assert main(bench_args(fixture_files, vectors, tmp_path / "bench.csv")) == 0
        # bench_latency extracts once per fraction; a vectors file adds no pass for its keys.
        assert len(counted) == 1

    def test_empty_corpus_is_data_error(self, fixture_files, tmp_path, capsys, monkeypatch):
        def no_timing(*args, **kwargs):
            raise AssertionError("bench_latency ran over an empty corpus")

        monkeypatch.setattr(cli_mod, "bench_latency", no_timing)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        out_path = tmp_path / "bench.csv"
        code = main([*bench_args(fixture_files, out_path=out_path), "--corpus", str(empty)])  # the last --corpus wins
        assert code == 2
        assert f"{empty}: the corpus file holds no document" in capsys.readouterr().err
        assert not out_path.exists()
        empty.write_bytes(b"")
        assert main([*bench_args(fixture_files, out_path=out_path), "--corpus", str(empty)]) == 2

    def test_vectors_file_missing_a_label_key_is_data_error(self, fixture_files, tmp_path, capsys):
        vectors = write_vectors(tmp_path / "vec.jsonl", ["rain"])
        out_path = tmp_path / "bench.csv"
        code = main(bench_args(fixture_files, vectors, out_path))
        assert code == 2
        assert "no vector for key" in capsys.readouterr().err
        assert not out_path.exists()

    def test_vectors_file_with_every_label_key(self, fixture_files, tmp_path):
        keys = ["rain", "melbourne beach", "florida", "tropical storm fay"]
        out_path = tmp_path / "bench.csv"
        code = main(bench_args(fixture_files, write_vectors(tmp_path / "vec.jsonl", keys), out_path))
        assert code == 0
        assert out_path.read_text().startswith("engine,fraction,noise,mean_us,median_us,p95_us")


class TestExtensionDimensions:
    """The build alone decides an index's dimensions: the canonical six, plus those ``--dimensions`` names."""

    @staticmethod
    def label_sources(files, tmp_path, source):
        """Label-source arguments whose labels include one of dimension HAZARD, from ``source``."""
        if source == "labels":
            labels = write_jsonl(
                tmp_path / "labels.jsonl", [{"doc_id": "565", "dim": "HAZARD", "label": "breach", "count": 1}]
            )
            return ["--gazetteer", str(files["gazetteer"]), "--labels", str(labels)]
        gazetteer = tmp_path / "hazard_gazetteer.jsonl"
        hazard = json.dumps({"dim": "HAZARD", "phrase": "inland flooding"})
        gazetteer.write_text(files["gazetteer"].read_text(encoding="utf-8") + hazard + "\n", encoding="utf-8")
        return ["--gazetteer", str(gazetteer)]

    @pytest.mark.parametrize("command, source", [("build", "labels"), ("build", "gazetteer"), ("bench", "gazetteer")])
    def test_undeclared_dimension_is_data_error(self, fixture_files, tmp_path, capsys, command, source):
        out_path = tmp_path / "out"
        sources = self.label_sources(fixture_files, tmp_path, source)
        if command == "build":
            args = ["build", "--corpus", str(fixture_files["corpus"]), *sources, "--out", str(out_path)]
        else:
            args = [*bench_args(fixture_files, out_path=out_path), *sources]  # the last --gazetteer wins
        code = main(args)
        assert code == 2
        assert "unknown dimension 'HAZARD'" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "source, label, posting", [("labels", "breach", "565\t1"), ("gazetteer", "inland flooding", "246\t1")]
    )
    def test_declared_dimension_is_indexed(self, fixture_files, tmp_path, capsys, source, label, posting):
        index = fixture_files["index"]
        sources = self.label_sources(fixture_files, tmp_path, source)
        args = ["build", "--corpus", str(fixture_files["corpus"]), *sources, "--dimensions", "HAZARD"]
        assert main([*args, "--out", str(index)]) == 0
        assert load_index(index).dimensions[-1] == "HAZARD"
        capsys.readouterr()
        assert main(["inspect", "--index", str(index), "--dim", "HAZARD", "--label", label]) == 0
        assert capsys.readouterr().out == posting + "\n"


class TestUnwritableOut:
    @pytest.mark.parametrize("command", ["query", "eval", "inspect", "bench"])
    def test_missing_out_directory_is_data_error(self, fixture_files, tmp_path, capsys, command):
        index = str(build_fixture_index(fixture_files))
        out = tmp_path / "absent" / "out.txt"
        args = {
            "query": ["--index", index, "--query", MELBOURNE_QUERY],
            "eval": ["--index", index, "--queries", str(fixture_files["queries"])],
            "inspect": ["--index", index],
            "bench": [
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--queries", str(fixture_files["queries"]),
                "--fractions", "1",
                "--reps", "1",
            ],
        }[command]
        capsys.readouterr()
        code = main([command, *args, "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err

    def test_closed_stdout_is_data_error(self, fixture_files, monkeypatch, capsys):
        def closed_pipe(text):
            raise BrokenPipeError(32, "Broken pipe")

        index = str(build_fixture_index(fixture_files))
        capsys.readouterr()
        monkeypatch.setattr("sys.stdout.write", closed_pipe)
        assert main(["query", "--index", index, "--query", MELBOURNE_QUERY, "--explain"]) == 2
        err = capsys.readouterr().err
        assert "stdout was closed" in err and "internal error" not in err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_into_a_closed_stdout(self, flag, unbuffered):
        # The pipe's read end is closed before the child starts, so its first write to stdout fails, every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperrag.cli", flag],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                         PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, "hyperrag: stdout was closed before all output was written\n")


class TestReadmeFlags:
    def test_readme_flag_lists_equal_the_parser(self):
        text = README.read_text(encoding="utf-8")
        section = re.search(r"^Every flag of each command.*?\n\n(.*?)\n\n", text, re.M | re.S).group(1)
        documented = {
            command: set(re.findall(r"`(--[\w-]+)`", flags))
            for command, flags in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", section, re.M | re.S)
        }
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            command: {a.option_strings[-1] for a in parser._actions if a.option_strings and a.dest != "help"}
            for command, parser in subparsers.choices.items()
        }
        assert documented == parsed


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["query", "--bogus"]) == 1

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

    @pytest.mark.parametrize("command", ["build", "bench", "query", "eval"])
    def test_unknown_encoder_is_refused_before_any_file_is_read(self, tmp_path, capsys, command):
        flags = {
            "build": "corpus gazetteer out", "bench": "corpus gazetteer queries", "query": "index query", "eval": "index queries"
        }[command]
        args = [arg for flag in flags.split() for arg in (f"--{flag}", str(tmp_path / "absent"))]
        for encoder in ("bogus", "file:"):
            assert main([command, *args, "--encoder", encoder]) == 1
            assert f"--encoder: expected 'trigram' or 'file:<vectors.jsonl>', got {encoder!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build", "bench"])
    def test_embed_dim_flag_is_gone(self, fixture_files, capsys, command):
        args = build_args(fixture_files, "trigram") if command == "build" else bench_args(fixture_files)
        assert main([*args, "--embed-dim", "256"]) == 1
        assert "unrecognized arguments: --embed-dim 256" in capsys.readouterr().err

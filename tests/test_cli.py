from __future__ import annotations

import json

import pytest

from helpers import (
    DOC_246,
    DOC_535,
    DOC_565,
    FIXTURE_TAU,
    MELBOURNE_QUERY,
    read_container,
    write_container,
    write_jsonl,
)
from hyperrag.cli import main


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


class TestBuild:
    def test_build_writes_index(self, fixture_files):
        index_path = build_fixture_index(fixture_files)
        assert index_path.exists()

    def test_build_requires_label_source(self, fixture_files, capsys):
        code = main(
            [
                "build",
                "--corpus", str(fixture_files["corpus"]),
                "--out", str(fixture_files["index"]),
            ]
        )
        assert code == 1

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

    def test_seed_env_honored(self, fixture_files, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERRAG_SEED", "123")
        out_path = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--corpus", str(fixture_files["corpus"]),
                "--gazetteer", str(fixture_files["gazetteer"]),
                "--queries", str(fixture_files["queries"]),
                "--fractions", "1",
                "--reps", "1",
                "--baseline", "none",
                "--out", str(out_path),
            ]
        )
        assert code == 0


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["query", "--bogus"]) == 1

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

"""Mutation checks: each entry breaks one rule of the engine, and names the tests that must catch it.

Run ``python tests/mutants.py`` (optionally followed by mutant names to
run only those). Each mutant is applied to its own copy of the
repository in a temporary directory, where only its tests are run. A
mutant is killed when one of its tests fails; the script prints one line
per mutant and exits 1 if any survived or could not be judged (a test id
pytest does not find, or a snippet that is not in its file).

``tests/test_mutants.py`` checks, in tier-1, that every snippet occurs
exactly once in its file, so the list cannot rot silently; it runs no
mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids; at least one must fail


_GATE = "tests/test_hypercube.py::TestGate::test_refused"
_GAZETTEER_REFUSAL = "tests/test_labeling.py::TestGazetteerType::test_built_directly_refuses_what_from_phrases_would_not_make"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "document_pass_shares_one_end",
        "src/hyperrag/labeling.py",
        "if ends[dim] <= i:\n                        ends[dim] = i + n",
        "if ends.get(None, 0) <= i:\n                        ends[None] = i + n",
        ("tests/test_labeling.py::TestGazetteerExtract::test_dimensions_scan_independently",),
    ),
    Mutant(
        "match_phrases_without_end_guard",
        "src/hyperrag/labeling.py",
        'if i + n <= len(tokens) and (key := " ".join(tokens[i : i + n])) in keys:',
        'if (key := " ".join(tokens[i : i + n])) in keys:',
        ("tests/test_retrieval.py::TestDecomposeQuery::test_phrase_components_equal_brute_longest_match",),
    ),
    Mutant(
        "doc_ids_compared_untyped",
        "src/hyperrag/hypercube.py",
        'if not _rise_strictly(doc_ids, "doc id") or',
        "if not all(map(operator.lt, doc_ids, doc_ids[1:])) or",
        (f"{_GATE}[first_id_not_str]", f"{_GATE}[later_id_not_str]"),
    ),
    Mutant(
        "keys_compared_untyped",
        "src/hyperrag/hypercube.py",
        'if not _rise_strictly(keys, "label key", f" in dimension {dim!r}") or',
        "if not all(map(operator.lt, keys, keys[1:])) or",
        (f"{_GATE}[first_key_not_str]", f"{_GATE}[later_key_not_str]"),
    ),
    Mutant(
        "first_value_type_untested",
        "src/hyperrag/hypercube.py",
        "if not values or isinstance(values[0], str):",
        "if True:",
        (f"{_GATE}[first_id_not_str]", f"{_GATE}[first_key_not_str]"),
    ),
    Mutant(
        "comparison_type_error_escapes",
        "src/hyperrag/hypercube.py",
        "with contextlib.suppress(TypeError):",
        "with contextlib.suppress(LookupError):",
        (f"{_GATE}[later_id_not_str]", f"{_GATE}[later_key_not_str]"),
    ),
    Mutant(
        "dimension_name_untyped",
        "src/hyperrag/hypercube.py",
        "        if not isinstance(dim, str):\n            raise ValueError(f\"dimension name {dim!r} is not a str\")\n",
        "",
        (f"{_GATE}[dimension_not_str]", "tests/test_hypercube.py::TestBuildIndex::test_blank_dimension_rejected[int]"),
    ),
    Mutant(
        "gazetteer_phrase_untyped",
        "src/hyperrag/labeling.py",
        '    if not isinstance(key, str):\n        return "is not a str"\n',
        "",
        (f"{_GAZETTEER_REFUSAL}[5-phrase 5 is not a str]", f"{_GAZETTEER_REFUSAL}[None-phrase None is not a str]"),
    ),
    Mutant(
        "gazetteer_join_type_error_escapes",
        "src/hyperrag/labeling.py",
        "    except TypeError:  # a key that is not a str\n",
        "    except LookupError:\n",
        (f"{_GAZETTEER_REFUSAL}[5-phrase 5 is not a str]", f"{_GAZETTEER_REFUSAL}[None-phrase None is not a str]"),
    ),
    Mutant(
        "from_phrases_normalizes_untyped",
        "src/hyperrag/labeling.py",
        "normalize_label(p) if isinstance(p, str) else p",
        "normalize_label(p)",
        (f"{_GAZETTEER_REFUSAL}[5-phrase 5 is not a str]", f"{_GAZETTEER_REFUSAL}[None-phrase None is not a str]"),
    ),
    Mutant(
        "load_gazetteer_names_the_last_faulty_line",
        "src/hyperrag/labeling.py",
        "line_no, phrase, fault = min(",
        "line_no, phrase, fault = max(",
        ("tests/test_labeling.py::TestGazetteerType::test_load_gazetteer_names_the_first_faulty_line_as_spelled",),
    ),
    Mutant(
        "gazetteer_takes_nine_tokens",
        "src/hyperrag/labeling.py",
        'key.count(" ") < 8',
        'key.count(" ") <= 8',
        (
            "tests/test_labeling.py::TestGazetteerType::test_too_long_phrase_rejected",
            "tests/test_labeling.py::TestGazetteerType::test_from_phrases_and_the_gate_equal_brute_gazetteer_key",
        ),
    ),
    Mutant(
        "index_key_named_by_a_weaker_rule",
        "src/hyperrag/hypercube.py",
        "key = next(key for key in keys if not _all_normalized([key]))",
        "key = next(key for key in keys if not key or not _is_text(key))",
        (
            "tests/test_hypercube.py::TestBuildIndex::test_unnormalized_key_rejected[Rain.]",
            "tests/test_hypercube.py::TestBuildIndex::test_unnormalized_key_rejected[RAIN]",
        ),
    ),
    Mutant(
        "normalize_strips_trailing_punctuation_only",
        "src/hyperrag/labeling.py",
        '.split()).rstrip(" .,;:!?")',
        '.split()).rstrip(".,;:!?")',
        ("tests/test_labeling.py::TestNormalizeLabel::test_equals_regex_formulation",),
    ),
    Mutant(
        "trigram_memo_shared_across_dims",
        "src/hyperrag/embedding.py",
        "self._memo: dict[str, tuple[int, int]] = {}",
        'self._memo: dict[str, tuple[int, int]] = globals().setdefault("_SHARED_MEMO", {})',
        ("tests/test_embedding.py::TestTrigramEncoder::test_memos_of_different_dims_keep_their_own_buckets",),
    ),
    Mutant(
        "trigram_memo_unbounded",
        "src/hyperrag/embedding.py",
        "if len(self._memo) < _TRIGRAM_MEMO_ENTRIES:",
        "if True:",
        ("tests/test_embedding.py::TestTrigramEncoder::test_memo_never_exceeds_its_bound",),
    ),
    Mutant(
        "trigram_memo_stores_a_surrogate",
        "src/hyperrag/embedding.py",
        '        try:\n            raw = tri.encode("utf-8")\n',
        '        self._memo[tri] = (0, 1)\n        try:\n            raw = tri.encode("utf-8")\n',
        ("tests/test_embedding.py::TestTrigramEncoder::test_lone_surrogate_raises_from_warm_memo_and_stores_nothing_of_it",),
    ),
    Mutant(
        "gazetteer_dimension_untyped",
        "src/hyperrag/labeling.py",
        "            if not isinstance(dim, str):\n                raise ValueError(f\"gazetteer dimension name {dim!r} is not a str\")\n",
        "",
        ("tests/test_labeling.py::TestGazetteerType::test_built_directly_refuses_a_dimension_name_that_is_not_a_str",),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a fresh copy of the repository, run its tests there, and return the verdict."""
    source = (ROOT / mutant.file).read_text(encoding="utf-8")
    if source.count(mutant.snippet) != 1:
        return "error: the snippet does not occur exactly once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", ".bench_*", ".hypothesis", ".pytest_cache", "__pycache__")
        shutil.copytree(ROOT, copy, ignore=ignore)
        (copy / mutant.file).write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 0 when all passed; otherwise it could not run them as named.
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "SURVIVED"
    return f"error: pytest exit {done.returncode}: {(done.stdout + done.stderr).strip().splitlines()[-1:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    verdicts = {}
    for mutant in MUTANTS:
        if not names or mutant.name in names:
            verdicts[mutant.name] = run(mutant)
            print(f"{mutant.name}: {verdicts[mutant.name]}", flush=True)
    killed = sum(verdict == "killed" for verdict in verdicts.values())
    print(f"{killed} of {len(verdicts)} mutants killed")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

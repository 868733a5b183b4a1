"""The mutant list of ``tests/mutants.py`` stays applicable; no mutant is run here."""

from __future__ import annotations

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_snippet_occurs_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for node in mutant.tests:
        path, *_classes, function = re.sub(r"\[.*\]$", "", node).split("::")
        assert re.search(rf"^\s*def {function}\(", (ROOT / path).read_text(encoding="utf-8"), re.MULTILINE), node

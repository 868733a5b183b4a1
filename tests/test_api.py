"""The README's ``## Public API`` section and the package agree.

The section lists the supported names as backticked identifiers; other
backticked text there (a module path, a statement) is not a name.
"""

from __future__ import annotations

import re
from pathlib import Path

import hyperrag

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, "README.md has no '## Public API' section"
    return re.findall(r"`([A-Za-z_]\w*)`", section.group(1))


def test_readme_list_equals_all():
    names = documented_names()
    assert len(names) == len(set(names)), "a name is listed twice"
    assert set(names) == set(hyperrag.__all__)
    assert len(hyperrag.__all__) == len(set(hyperrag.__all__))


def test_every_name_resolves():
    for name in documented_names():
        assert hasattr(hyperrag, name), name


def test_star_import_binds_exactly_the_list():
    namespace: dict = {}
    exec("from hyperrag import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(documented_names())

"""Mutation fuzz of the six JSONL loaders.

Each loader gets one valid record with a single mutation at any key
path: the value there is replaced by one of a fixed set of JSON values
of every type, or the key is deleted. The loader must either accept the
record or raise a ``HyperRagError``; anything else would reach the CLI
as an internal error.
"""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperrag import (
    Corpus,
    Document,
    ExternalDecompositions,
    HyperRagError,
    load_corpus,
    load_gazetteer,
    load_precomputed_labels,
    load_precomputed_vectors,
    load_queries,
)

VALID = {
    "corpus": {"id": "565", "title": "Fay soaks the coast", "text": "Rain over Melbourne Beach"},
    "queries": {
        "id": "q1",
        "question": "How much rain fell on Melbourne Beach?",
        "gold_answer": "25.28 inches",
        "gold_doc_ids": ["565", "246"],
    },
    "labels": {"doc_id": "565", "dim": "THEME", "label": "rain", "count": 2},
    "gazetteer": {"dim": "LOCATION", "phrase": "Melbourne Beach"},
    "decompositions": {
        "id": "q1",
        "query": "rain in Florida",
        "components": [{"dim": "THEME", "text": "rain"}, {"dim": "LOCATION", "text": "Florida"}],
    },
    "vectors": {"key": "rain", "dim": 4, "values": [0.5, 1, -2, 3]},
}

_CORPUS = Corpus([Document(id="565", text="rain over Melbourne Beach")])

LOADERS = {
    "corpus": load_corpus,
    "queries": load_queries,
    "labels": lambda path: load_precomputed_labels(path, _CORPUS),
    "gazetteer": load_gazetteer,
    "decompositions": ExternalDecompositions.load,
    "vectors": lambda path: load_precomputed_vectors(path, ["rain"]),
}

DELETE = object()

SUBSTITUTES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    2**70,
    -(2**70),
    1.5,
    math.nan,
    "",
    " ",
    "THEME",
    "565",
    [],
    [1],
    {},
    {"dim": "THEME", "text": "rain"},
]


def key_paths(value, prefix=()):
    """Every path of object keys and array indexes below ``value``."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutate(record: dict, path: tuple, value: object) -> dict:
    out = copy.deepcopy(record)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_record_loads(name, tmp_path):
    path = tmp_path / f"{name}.jsonl"
    path.write_text(json.dumps(VALID[name]) + "\n", encoding="utf-8")
    LOADERS[name](path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_record_loads_or_raises_data_error(name, tmp_path, data):
    key_path = data.draw(st.sampled_from(list(key_paths(VALID[name]))), label="key_path")
    value = data.draw(st.sampled_from(SUBSTITUTES + [DELETE]), label="value")
    path = tmp_path / f"{name}.jsonl"
    path.write_text(json.dumps(mutate(VALID[name], key_path, value)) + "\n", encoding="utf-8")
    try:
        LOADERS[name](path)
    except HyperRagError:
        pass

"""Fuzz the four input schemas through the command line.

Each example takes a valid triple, bundle, spectral-category or
fluctuation-terms file, changes one node, and runs the command that reads
it.  Whatever the change, ``ncg`` must exit 0, 1 or 2 and print no
traceback.  A schema violation (a node replaced by a value of another
JSON kind, or a required key removed) must exit 2.  Hypothesis runs
derandomised, so the examples are the same on every run.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import json_document, random_unitary

from ncg import (BlockStructure, build_triple_from_mass_matrix, categorify,
                 full_morita_bundle, triple_to_json)
from ncg.fellbundle import bundle_to_json
from ncg.cli import run

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=25,
                suppress_health_check=[HealthCheck.too_slow])

_TRIPLE = json_document(triple_to_json(
    build_triple_from_mass_matrix(np.array([[1.0]]))))
_N = len(_TRIPLE["D"])
BASES = {
    "triple": _TRIPLE,
    "bundle": json_document(
        bundle_to_json(full_morita_bundle(BlockStructure((1, 2))))),
    "category": json_document(categorify(build_triple_from_mass_matrix(
        np.array([[1.0]]))).to_json()),
    "terms": [{"r": 0.5, "U": [[[z.real, z.imag] for z in row] for row in
                              random_unitary(np.random.default_rng(3), _N)]}],
}
# Keys whose value may be null or absent.  A fibre or homset key ("i,j")
# may be absent too: the arrow then has the zero fibre.
OPTIONAL = {"gamma", "epsilon", "K", "homsets", "fibres"}


def kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def nodes(doc, path=()):
    """Path of every node below the root, depth first."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def roles(doc):
    """Node paths grouped by role: the path with array indices left out.
    Drawing a role first reaches a lone key such as a term's ``"r"`` as
    often as the many entries of a matrix."""
    out = {}
    for path in nodes(doc):
        out.setdefault(tuple(k for k in path if isinstance(k, str)),
                       []).append(path)
    return [out[role] for role in sorted(out)]


def draw_path(data, doc):
    return data.draw(st.sampled_from(roles(doc)).flatmap(st.sampled_from),
                     label="path")


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def required_keys(doc):
    """Paths of the object keys whose removal breaks the schema."""
    out = []
    for path in [()] + list(nodes(doc)):
        node = get(doc, path)
        if not isinstance(node, dict):
            continue
        for key in node:
            if key in OPTIONAL or (len(path) == 1 and path[0] in OPTIONAL):
                continue
            out.append(path + (key,))
    return out


def edited(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    parent = get(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_schema(schema, doc):
    """Run the command that reads ``schema`` on ``doc``; returns its exit
    code and everything it printed."""
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            return path

        out = os.path.join(tmp, "out.json")
        path = write("in.json", doc)
        argv = {"triple": ["check", "triple", path],
                "bundle": ["check", "bundle", path],
                "category": ["to-fell", path, "-o", out],
                "terms": ["fluctuate", write("t.json", _TRIPLE),
                          "--terms", path, "-o", out]}[schema]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = run(argv)
    return code, buf.getvalue()


numbers = st.one_of(st.integers(), st.floats())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=6)
# One strategy per JSON kind, so a violation draws its new kind first.
KINDS = {"null": st.none(), "bool": st.booleans(), "number": numbers,
         "string": st.text(max_size=4),
         "array": st.lists(json_values, max_size=3),
         "object": st.dictionaries(st.text(max_size=3), json_values,
                                   max_size=3)}


def test_base_documents_are_valid():
    for schema, doc in BASES.items():
        assert run_schema(schema, doc)[0] == 0, schema


@pytest.mark.parametrize("schema", sorted(BASES))
@FUZZ
@given(data=st.data())
def test_any_edit_exits_cleanly(schema, data):
    doc = BASES[schema]
    path = draw_path(data, doc)
    old = get(doc, path)
    if kind(old) == "number":
        value = data.draw(st.one_of(numbers, json_values), label="value")
    else:
        value = data.draw(json_values, label="value")
    code, out = run_schema(schema, edited(doc, path, value))
    assert code in (0, 1, 2)
    assert "Traceback" not in out


@pytest.mark.parametrize("schema", sorted(BASES))
@FUZZ
@given(data=st.data())
def test_schema_violation_exits_two(schema, data):
    doc = BASES[schema]
    if data.draw(st.booleans(), label="delete"):
        path = data.draw(st.sampled_from(required_keys(doc)), label="key")
        bad = edited(doc, path, delete=True)
    else:
        path = draw_path(data, doc)
        other = sorted(set(KINDS) - {kind(get(doc, path))})
        value = data.draw(st.sampled_from(other).flatmap(KINDS.get),
                          label="value")
        assume(not (value is None and path[-1] in OPTIONAL))
        bad = edited(doc, path, value)
    code, out = run_schema(schema, bad)
    assert code == 2, out
    assert out.startswith("input error:")

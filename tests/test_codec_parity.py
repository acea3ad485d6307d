"""The one-step decode of ``matops.matrix_from_json`` and
``subspace_from_json`` against the per-cell decoder behind it.

For every input the bulk step ``_checked_array`` either accepts, and its
values are bit for bit those of the per-cell loop ``_matrix_from_cells``,
or declines, and the reader then returns the loop's outcome: its matrix,
or its refusal text.  The inputs are the decoder table of ``test_matops``
at its three shapes, parts at and just past the magnitude bound, and
seeded edits of the matrices and bases of real ``categorify`` and
``to-fell`` documents.
"""

import copy

import numpy as np
import pytest

from conftest import json_document
from test_matops import DECODE_CASES

from ncg import (SubspaceBasis, build_triple_from_mass_matrix, categorify,
                 fell_triple_from_category)
from ncg.errors import InputError, NcgError
from ncg.matops import (ENTRY_BOUND, _checked_array, _matrix_from_cells,
                        matrix_from_json, subspace_from_json)


def outcome(fn, *args):
    """``("ok", dtype, shape, bytes)`` of the matrix or basis stack ``fn``
    returns, or ``("refused", error type, text)``."""
    try:
        out = fn(*args)
    except NcgError as exc:
        return ("refused", type(exc).__name__, str(exc))
    a = out.stack if isinstance(out, SubspaceBasis) else out
    return ("ok", a.dtype.str, a.shape, a.tobytes())


def cell_basis(data, rows, cols, label):
    """:func:`subspace_from_json` with the per-cell decoder alone."""
    if not isinstance(data, list):
        raise InputError(f"{label}: expected an array of matrices")
    return SubspaceBasis(rows, cols, [_matrix_from_cells(m, f"{label}[{k}]")
                                      for k, m in enumerate(data)])


def check_matrix(data, shape=None) -> bool:
    """Parity of one matrix input; whether the bulk step accepted it."""
    bulk = _checked_array(data, 2)
    if bulk is not None:
        assert outcome(_matrix_from_cells, data, "D") == (
            "ok", bulk.dtype.str, bulk.shape, bulk.tobytes())
    assert (outcome(matrix_from_json, data, "D", shape)
            == outcome(_matrix_from_cells, data, "D", shape))
    return bulk is not None


def check_basis(data, rows, cols) -> bool:
    """Parity of one basis list; whether the bulk step accepted it."""
    bulk = _checked_array(data, 3) if isinstance(data, list) else None
    if bulk is not None:
        for k, m in enumerate(data):
            assert outcome(_matrix_from_cells, m, "D") == (
                "ok", bulk.dtype.str, bulk.shape[1:], bulk[k].tobytes())
    assert (outcome(subspace_from_json, data, rows, cols, "fibre 1,2")
            == outcome(cell_basis, data, rows, cols, "fibre 1,2"))
    return bulk is not None


@pytest.mark.parametrize("shape", [None, (2, 2), (1, 2)])
@pytest.mark.parametrize("case", sorted(DECODE_CASES))
def test_decoder_table(case, shape):
    data, refusal = DECODE_CASES[case]
    accepted = check_matrix(data, shape)
    assert not (accepted and refusal)
    rows, cols = shape or (2, 2)
    for stack in ([data], [data, data], [data, [[[1.0, 0.0]]]]):
        check_basis(stack, rows, cols)


BOUND = int(ENTRY_BOUND)
ABOVE = float(np.nextafter(ENTRY_BOUND, np.inf))
# part: whether a matrix holding it is accepted
NEAR_BOUND = {BOUND: True, -BOUND: True, 10 ** 48: True, -10 ** 48: True,
              ENTRY_BOUND: True, -ENTRY_BOUND: True,
              BOUND + 1: False, -(BOUND + 1): False,
              ABOVE: False, -ABOVE: False}


@pytest.mark.parametrize("part", list(NEAR_BOUND), ids=repr)
def test_near_the_bound(part):
    """The bound is compared on the Python numbers: ``int(1e48) + 1``
    rounds to ``1e48`` as a float, yet is refused."""
    for data in ([[[part, 0.0], [1.0, -2.0]], [[0.5, part], [3, 4]]],
                 [[[1.0, 0.0], [2, part]]]):
        assert check_matrix(data) is NEAR_BOUND[part]
        assert check_basis([data], len(data), 2) is NEAR_BOUND[part]
    if not NEAR_BOUND[part]:
        with pytest.raises(InputError, match="exceeds the magnitude bound"):
            matrix_from_json([[[part, 0.0]]])


def _real_documents():
    t = build_triple_from_mass_matrix(np.array([[1.0, 2.0j], [0.5, -1.0]]))
    sc = categorify(t)
    return (json_document(sc.to_json()),
            json_document(fell_triple_from_category(sc).to_json()))


def _targets():
    """Every matrix and basis list of the real documents, as
    ``(data, ndim, (rows, cols))``."""
    cat, fell = _real_documents()
    out = [(m, 2, (len(m), len(m[0])))
           for m in list(cat["sigma"]["blocks"].values()) + [fell["PL"]]]
    for bases in (cat["homsets"], fell["fibres"]):
        out += [(b, 3, (len(b[0]), len(b[0][0]))) for b in bases.values()]
    return out


TARGETS = _targets()
POOL = [True, None, "1.0", 7, -0.0, 5e-324, 1e49, -1e49, BOUND, BOUND + 1,
        ENTRY_BOUND, ABOVE, 10 ** 400, float("nan"), float("inf"),
        float("-inf"), np.float64(0.5), [], [1.0], [1.0, 2.0, 3.0], {},
        (1.0, 2.0)]


def test_real_documents_take_the_bulk_step():
    assert len(TARGETS) == 5 + 16 + 16
    for data, ndim, shape in TARGETS:
        assert _checked_array(data, ndim) is not None
        assert (check_matrix(data, shape) if ndim == 2
                else check_basis(data, *shape))


def _edit(rng, data):
    """One seeded edit at a random node: replace it by a pool value,
    delete it, repeat it or wrap it in a list."""
    parent, key = None, None
    node = data
    while isinstance(node, list) and node and rng.random() < 0.8:
        parent, key = node, int(rng.integers(len(node)))
        node = node[key]
    if parent is None:
        return [data] if rng.random() < 0.5 else data[:-1]
    action = rng.integers(4)
    if action == 0:
        parent[key] = copy.deepcopy(POOL[rng.integers(len(POOL))])
    elif action == 1:
        del parent[key]
    elif action == 2:
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key] = [node]
    return data


@pytest.mark.parametrize("seed", range(12))
def test_edited_real_documents(seed):
    """Seeded edits: 40 inputs per seed, one to three edits each; the
    bulk step accepts some of them (a part swapped for another number)
    and declines the rest."""
    rng = np.random.default_rng([seed, 20261018])
    accepted = 0
    for _ in range(40):
        data, ndim, shape = TARGETS[rng.integers(len(TARGETS))]
        data = copy.deepcopy(data)
        for _ in range(rng.integers(1, 4)):
            data = _edit(rng, data)
        accepted += (check_matrix(data, shape) if ndim == 2
                     else check_basis(data, *shape))
    assert 0 < accepted < 40

"""``SubspaceBasis`` recognises the row-major matrix units, bit for bit,
and takes them as their own orthonormal basis and unit rows without an
SVD.  Every query must give the bits of the SVD path
(``oracles.svd_basis``), and every other explicit basis, full or not,
must still be ranked by the SVD."""

import numpy as np
import pytest

from conftest import crandn, json_document, random_unitary

from oracles import svd_basis

from ncg import (BlockStructure, InputError, SubspaceBasis,
                 build_triple_from_mass_matrix, categorify,
                 full_morita_bundle)
from ncg.fellbundle import _matrix_units
from ncg.geometry import spectral_category_from_json

SHAPES = [(1, 1), (1, 5), (5, 1), (4, 4), (16, 16)]


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the matrices passed to ``np.linalg.svd``."""
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: (
        calls.append(np.shape(a)) or svd(a, *args, **kw)))
    return calls


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_queries_equal_the_svd_path_bit_for_bit(shape, svd_calls):
    rows, cols = shape
    units = _matrix_units(rows, cols)
    fast = SubspaceBasis(rows, cols, units)
    assert svd_calls == []
    assert fast.units is fast.stack and fast.is_full
    slow = svd_basis(rows, cols, units)
    assert same_bits(fast.units, slow.units)
    rng = np.random.default_rng(rows * 100 + cols)
    for scale in (1e-100, 1.0, 1e40):
        x = crandn(rng, rows, cols) * scale
        stack = crandn(rng, 7, rows, cols) * scale
        a = crandn(rng, 3, rows * cols, rows * cols) * scale
        grams = a.conj().transpose(0, 2, 1) @ a
        assert same_bits(fast.residual(x), slow.residual(x))
        assert same_bits(fast.residuals(stack), slow.residuals(stack))
        assert same_bits(fast.coordinates(stack), slow.coordinates(stack))
        assert same_bits(fast.compress(grams), slow.compress(grams))
        assert same_bits(fast.project(x), slow.project(x))


def test_a_list_of_matrix_units_is_recognised(svd_calls):
    units = _matrix_units(3, 2)
    assert SubspaceBasis(3, 2, list(units)).is_full
    assert SubspaceBasis(3, 2, units.real).is_full
    assert svd_calls == []


def _permuted(rows, cols):
    return _matrix_units(rows, cols)[::-1]


def _recombined(rows, cols):
    u = random_unitary(np.random.default_rng(11), rows * cols)
    return u.reshape(-1, rows, cols)


def _negative_zero(rows, cols):
    units = _matrix_units(rows, cols)
    units[0, -1, -1] = -0.0
    return units


def _triangular(rows, cols):
    units = _matrix_units(rows, cols)
    units[0, -1, -1] = 0.5
    return units


def _scaled(rows, cols):
    return 2.0 * _matrix_units(rows, cols)


def _one_ulp(rows, cols):
    units = _matrix_units(rows, cols)
    units[-1, -1, -1] = np.nextafter(1.0, 2.0)
    return units


@pytest.mark.parametrize("make", [_permuted, _recombined, _negative_zero,
                                  _triangular, _scaled, _one_ulp],
                         ids=lambda f: f.__name__.strip("_"))
def test_other_full_bases_take_the_svd(make, svd_calls):
    stack = make(2, 3)
    basis = SubspaceBasis(2, 3, stack)
    assert svd_calls == [(1, 6, 6)] and basis.is_full
    assert same_bits(basis.units, svd_basis(2, 3, stack).units)


def test_a_dependent_list_of_full_length_is_refused(svd_calls):
    stack = _matrix_units(2, 2)
    stack[-1] = stack[0]
    with pytest.raises(InputError, match=r"linearly dependent \(rank 3 < 4\)"):
        SubspaceBasis(2, 2, stack)
    assert svd_calls == [(1, 4, 4)]


def test_full_morita_bundle_takes_no_svd(svd_calls):
    b = full_morita_bundle(BlockStructure((2, 3, 1, 5)))
    assert b.is_full and svd_calls == []


def test_reading_a_categorify_output_takes_no_svd(svd_calls):
    rng = np.random.default_rng(12)
    triple = build_triple_from_mass_matrix(crandn(rng, 3, 3))
    doc = json_document(categorify(triple).to_json())
    del svd_calls[:]
    sc = spectral_category_from_json(doc)
    assert svd_calls == []
    assert all(h.is_full for h in sc.bundle.fibres.values())

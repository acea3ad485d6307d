"""Saturation's Gram certificate against the products it stands for.

``check_saturated`` contracts the Gram matrices ``X = UᴴU`` of two
fibres' unit rows into the products' Gram matrix ``PᴴP`` (and, for a
target that is not full, the coordinates' ``CᴴC``) instead of forming
the products.  These seeded tests check that the contraction's ``λ_min``
and trace agree with those of the explicit unit-row products within the
rounding bound ``_gram_guard`` states, at very different fibre scales;
that the report equals the oracle that takes the SVD of every product
span (``oracles.all_products_saturation``), near the rank and
certificate thresholds, with zero fibres and on products that vanish
to rounding, which the guard must decline; and that the largest block
count certifies every span without forming a product.
"""

import numpy as np
import pytest

from conftest import crandn, random_unitary
from oracles import all_products_saturation
from test_fell_certificates import (TOLS, conjugated_bundle,
                                    generic_bundle, gram_spectra,
                                    planted_bundles, rank_threshold_bundle,
                                    spy_on_products)

import ncg.fellbundle as fellbundle
from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 check_saturated, full_morita_bundle)
from ncg.fellbundle import (MAX_BLOCKS, _arranged_gram, _basis_products,
                            _gram_guard)
from ncg.matops import unit_rows

ALL_TOLS = TOLS + [Tolerance(rel=1e-6), Tolerance(rel=0.9)]


def explicit_spectra(target, ug, uh):
    """``λ_min(CᴴC)`` and ``‖P‖_F²`` from the products themselves."""
    prods = _basis_products(ug, uh)
    flat = prods.reshape(len(prods), -1)
    onb = target.orthonormal.reshape(target.dim, -1)
    coords = flat if target.is_full else flat @ onb.conj().T
    lam = np.linalg.eigvalsh(coords.conj().T @ coords)[0]
    return lam, np.vdot(flat, flat).real


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e40])
@pytest.mark.parametrize("seed", range(40))
def test_contraction_matches_the_products(seed, scale):
    rng = np.random.default_rng([20261201, seed])
    ni, nj, nk = rng.integers(1, 6, size=3)
    dg = int(rng.integers(1, ni * nj + 1))
    dh = int(rng.integers(1, nj * nk + 1))
    ug = unit_rows(scale * crandn(rng, dg, ni, nj))
    uh = unit_rows(scale * crandn(rng, dh, nj, nk))
    dt = ni * nk if seed % 2 else int(rng.integers(1, ni * nk + 1))
    target = SubspaceBasis(ni, nk, crandn(rng, dt, ni, nk))
    lam, trace = gram_spectra(target, _arranged_gram(ug), _arranged_gram(uh))
    want_lam, want_trace = explicit_spectra(target, ug, uh)
    guard = _gram_guard(dg, dh, nj, ni * nk)
    assert abs(lam[0] - want_lam) <= guard
    assert abs(trace[0] - want_trace) <= guard
    assert want_trace > 0.0


def annihilating_bundle(rng, target_full):
    """Blocks (2, 2, 2): fibre (1,2) holds the first columns and (2,3) the
    second rows of the conjugated matrix units, so every product of the
    two vanishes, and is computed at rounding level."""
    u = [random_unitary(rng, 2) for _ in range(3)]
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    fibres = {(1, 2): SubspaceBasis(2, 2, u[0] @ units[[0, 2]] @ u[1].conj().T),
              (2, 3): SubspaceBasis(2, 2, u[1] @ units[[2, 3]] @ u[2].conj().T),
              (1, 3): SubspaceBasis(2, 2, u[0] @ (units if target_full
                                                  else units[:1])
                                    @ u[2].conj().T)}
    return FellBundleFD(BlockStructure((2, 2, 2)), fibres)


@pytest.mark.parametrize("target_full", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_products_vanishing_to_rounding_are_declined(seed, target_full,
                                                     monkeypatch):
    b = annihilating_bundle(np.random.default_rng([20261202, seed]),
                            target_full)
    g, h = b.fibres[(1, 2)], b.fibres[(2, 3)]
    prods = _basis_products(unit_rows(g.stack), unit_rows(h.stack))
    assert np.abs(prods).max() < 1e-15
    lam, trace = gram_spectra(b.fibres[(1, 3)],
                              _arranged_gram(unit_rows(g.stack)),
                              _arranged_gram(unit_rows(h.stack)))
    assert max(lam[0], trace[0]) <= _gram_guard(2, 2, 2, 4)
    for tol in ALL_TOLS:
        formed = spy_on_products(monkeypatch, b)
        assert check_saturated(b, tol) == all_products_saturation(b, tol)
        assert ((1, 2), (2, 3)) in formed


def dense_bundle(rng, sizes):
    """Every fibre a random subspace holding at least half of its matrix
    space, or (one in five) the zero fibre."""
    fibres = {}
    blocks = BlockStructure(sizes)
    for i, j in blocks.arrows():
        ni, nj = sizes[i - 1], sizes[j - 1]
        if rng.random() < 0.8:
            dim = int(rng.integers((ni * nj + 1) // 2, ni * nj + 1))
            fibres[(i, j)] = SubspaceBasis(ni, nj, crandn(rng, dim, ni, nj))
    return FellBundleFD(blocks, fibres)


def oracle_bundles():
    for seed in range(6):
        for sizes in [(1, 2), (2, 3), (3, 2, 2), (1, 2, 1, 2), (4, 4)]:
            rng = np.random.default_rng([20261203, seed, len(sizes)])
            yield dense_bundle(rng, sizes)
            yield generic_bundle(rng, sizes)
    for seed in range(3):
        rng = np.random.default_rng([20261204, seed])
        for side in (1 - 1e-6, 1 + 1e-6):
            for rel in (1e-17, 1e-9, 1e-6, 0.5, 0.9):
                yield rank_threshold_bundle(rng, rel * side)
            c = max(fellbundle._GRAM_FLOOR, 4.0 * 1e-6 ** 2)
            yield rank_threshold_bundle(rng, np.sqrt(2 * c / (1 - 2 * c)) * side)
        for scale in (1e-100, 1e40):
            yield conjugated_bundle(rng, (2, 3, 3), scale=scale)
        yield annihilating_bundle(rng, seed % 2 == 0)
    for b, _ in planted_bundles(np.random.default_rng(20261205)).values():
        yield b
    yield FellBundleFD(BlockStructure((2, 1)), {})


@pytest.mark.parametrize("tol", ALL_TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_saturation_equals_the_oracle(tol):
    for b in oracle_bundles():
        assert check_saturated(b, tol) == all_products_saturation(b, tol), b


def test_largest_block_count_certifies_without_products(monkeypatch):
    # 64 blocks of size 1: 262144 composable pairs, each span total.
    b = full_morita_bundle(BlockStructure((1,) * MAX_BLOCKS))

    def forbidden(*args):
        raise AssertionError("a span was ranked by its products")

    monkeypatch.setattr(fellbundle, "_basis_products", forbidden)
    monkeypatch.setattr(fellbundle, "numerical_rank", forbidden)
    row = check_saturated(b)
    assert (row.passed, row.residual, row.witness) == (
        True, 0.0, "every product span is total")

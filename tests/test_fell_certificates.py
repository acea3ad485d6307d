"""Axiom 4 and saturation skip SVDs whose outcome a norm bound decides.

``check_bundle`` takes the operator norm of a basis product only when its
Frobenius norm does not undercut ``‖e1‖‖e2‖`` by the margin, and the
numerical rank of a product span only when the Gram matrix of its
coordinates in the target fibre does not certify full rank.  These seeded
tests compare the whole report, as JSON text, with the oracles that take
every SVD (``oracles.exhaustive_rows``): on matrix-unit bundles, where
nearly every SVD is skipped, on generic fibres, where few are, at the
margin and at the rank threshold, at three tolerances and on bundles
that fail.
"""

import json

import numpy as np
import pytest

from conftest import crandn, random_unitary
from oracles import exhaustive_rows

import ncg.fellbundle as fellbundle
from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 check_bundle, check_fell_axioms, check_saturated)

TOLS = [Tolerance(rel=1e-17), Tolerance(), Tolerance(rel=0.5)]


def _units(rows, cols):
    return np.eye(rows * cols, dtype=complex).reshape(-1, rows, cols)


def conjugated_bundle(rng, sizes, split=None, scale=1.0):
    """Fibre ``(i, j) = u_i C u_j*`` for random unitaries ``u_i``, spanned
    by conjugated matrix units times ``scale``.  ``C`` is the full matrix
    space, or with ``split = k`` the subalgebra ``M_k + M_k`` of
    ``M_2k``."""
    us = [random_unitary(rng, s) for s in sizes]
    fibres = {}
    blocks = BlockStructure(sizes)
    for i, j in blocks.groupoid().arrows():
        units = _units(sizes[i - 1], sizes[j - 1])
        if split is not None:
            r, c = np.nonzero(units)[1:]
            units = units[(r < split) == (c < split)]
        fibres[(i, j)] = SubspaceBasis(
            sizes[i - 1], sizes[j - 1],
            scale * (us[i - 1] @ units @ us[j - 1].conj().T))
    return FellBundleFD(blocks, fibres)


def generic_bundle(rng, sizes):
    """Every fibre a random subspace of random dimension (possibly 0)."""
    fibres = {}
    blocks = BlockStructure(sizes)
    for i, j in blocks.groupoid().arrows():
        ni, nj = sizes[i - 1], sizes[j - 1]
        dim = int(rng.integers(0, ni * nj + 1))
        fibres[(i, j)] = SubspaceBasis(ni, nj, crandn(rng, dim, ni, nj))
    return FellBundleFD(blocks, fibres)


def same_report(b, tols=TOLS):
    for tol in tols:
        got = check_bundle(b, tol)
        want = exhaustive_rows(got, b, tol)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json()), tol


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("sizes,split", [((2, 3, 4), None), ((4, 4, 4), 2),
                                         ((6, 6), 3)])
def test_matrix_unit_bundles(sizes, split, seed):
    rng = np.random.default_rng([20261101, seed, len(sizes)])
    same_report(conjugated_bundle(rng, sizes, split))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sizes", [(2, 3), (3, 2, 2), (1, 2, 1, 2)])
def test_generic_fibres(sizes, seed):
    rng = np.random.default_rng([20261102, seed, len(sizes)])
    same_report(generic_bundle(rng, sizes))


@pytest.mark.parametrize("scale", [1e-100, 1e-75, 1e40])
def test_scaled_fibres(scale):
    # Products of 1e-100 fibres have entries near 1e-200, whose squares
    # underflow: their Frobenius norms read 0 and certify nothing.
    rng = np.random.default_rng([20261103, abs(int(np.log10(scale)))])
    same_report(conjugated_bundle(rng, (2, 3, 3), scale=scale))


@pytest.mark.parametrize("seed", range(300, 320))
def test_generic_fibres_near_underflow(seed):
    # Fibres scaled by 1e-84..1e-74 give products whose squared entries
    # fall among the subnormal numbers: the squared norms that decide the
    # saturation certificate have then lost their relative accuracy.
    rng = np.random.default_rng(seed)
    sizes = [(2, 2), (2, 1), (3, 2), (1, 2, 2)][seed % 4]
    fibres = {}
    blocks = BlockStructure(sizes)
    for i, j in blocks.groupoid().arrows():
        ni, nj = sizes[i - 1], sizes[j - 1]
        dim = int(rng.integers(1, ni * nj + 1))
        scale = 10.0 ** rng.uniform(-84, -74)
        fibres[(i, j)] = SubspaceBasis(
            ni, nj, scale * crandn(rng, dim, ni, nj), Tolerance(rel=0.0))
    same_report(FellBundleFD(blocks, fibres))


@pytest.mark.parametrize("side", [1 - 1e-12, 1.0, 1 + 1e-12])
@pytest.mark.parametrize("seed", range(4))
def test_products_at_the_axiom_4_margin(seed, side):
    # e1 = u diag(1, 0) u*, e2 = u diag(a, 1) u*: the product u diag(a, 0) u*
    # has Frobenius norm a against ‖e1‖‖e2‖ = 1.
    rng = np.random.default_rng([20261104, seed])
    u = random_unitary(rng, 2)
    a = (1.0 - fellbundle._SUBMULT_MARGIN) * side
    basis = [u @ np.diag(d) @ u.conj().T for d in ([1.0, 0.0], [a, 1.0])]
    same_report(FellBundleFD(BlockStructure((2,)),
                             {(1, 1): SubspaceBasis(2, 2, basis)}))


def rank_threshold_bundle(rng, t):
    """Blocks (2, 1): the products of fibre (1,2) (columns with singular
    values 1 and ``t``) with fibre (2,1) (orthonormal rows) span the full
    fibre (1,1) with singular values 1, 1, t, t.  Fibre (1,2) is built
    without a rank test, since ``t`` may be below rounding."""
    x = random_unitary(rng, 2) @ np.diag([1.0, t]) @ random_unitary(rng, 2)
    y = random_unitary(rng, 2)
    fibres = {(1, 1): SubspaceBasis(2, 2, _units(2, 2)),
              (1, 2): SubspaceBasis(2, 1, x.T[:, :, None],
                                    Tolerance(rel=0.0)),
              (2, 1): SubspaceBasis(1, 2, y[:, None, :]),
              (2, 2): SubspaceBasis(1, 1, [[[1.0]]])}
    return FellBundleFD(BlockStructure((2, 1)), fibres)


@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("seed", range(3))
def test_span_at_the_rank_threshold(seed, side, tol):
    rng = np.random.default_rng([20261105, seed])
    b = rank_threshold_bundle(rng, tol.rel * side)
    same_report(b, [tol])
    if tol.rel == 1e-9:
        assert check_saturated(b, tol).passed == (side > 1)


# At rel = 0.5 the threshold is ‖products‖_F², above the λ_min(CᴴC) ≤
# ‖products‖_F² / 4 of a four-dimensional target: it never fires.
@pytest.mark.parametrize("tol", TOLS[:2], ids=lambda t: f"rel{t.rel:g}")
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
def test_span_at_the_certificate_threshold(side, tol):
    # λ_min(CᴴC) = t² against max(1e-10, 4 rel²) ‖products‖_F² = c (2 + 2t²).
    c = max(fellbundle._GRAM_FLOOR, 4.0 * tol.rel ** 2)
    t = np.sqrt(2 * c / (1 - 2 * c)) * side
    rng = np.random.default_rng(20261106)
    same_report(rank_threshold_bundle(rng, t), [tol])


def planted_bundles(rng):
    # An element of the off-diagonal corner of M_4 in fibre (1,2) leaves
    # the product closure, the adjoint fibre and the product span.
    b = conjugated_bundle(rng, (4, 4, 4), 2)
    fibres = dict(b.fibres)
    corner = np.zeros((4, 4), dtype=complex)
    corner[0, 3] = 1.0
    fibres[(1, 2)] = SubspaceBasis(4, 4, list(fibres[(1, 2)].stack)
                                   + [corner])
    extra = FellBundleFD(b.blocks, fibres)
    # Without its off-diagonal fibres a two-object bundle is closed and
    # involutive but not saturated.
    b = conjugated_bundle(rng, (5, 5))
    dropped = FellBundleFD(b.blocks, {g: f for g, f in b.fibres.items()
                                      if g[0] == g[1]})
    return {"extra": (extra, ["fell.axiom.2", "fell.axiom.6",
                              "fell.saturated"]),
            "dropped": (dropped, ["fell.saturated"])}


@pytest.mark.parametrize("kind", ["extra", "dropped"])
def test_planted_violations(kind):
    b, failing = planted_bundles(np.random.default_rng(20261107))[kind]
    same_report(b)
    assert [c.axiom_id for c in check_bundle(b) if not c.passed] == failing


def test_matrix_unit_bundle_skips_the_idle_svds(monkeypatch):
    # On conjugated matrix units only the products E_ab E_bd = E_ad, one
    # in n_j, reach the operator-norm SVD, and every product span is
    # certified.  Each fibre also takes one SVD per element for its norms
    # and one for axiom 9.
    sizes = (2, 3, 4)
    b = conjugated_bundle(np.random.default_rng(20261108), sizes)
    svd, seen = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        seen.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    def no_rank(*args):
        raise AssertionError("a certified span reached numerical_rank")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(fellbundle, "numerical_rank", no_rank)
    assert check_saturated(b).passed
    assert seen == []
    check_fell_axioms(b)
    per_fibre = sum(2 * f.dim for f in b.fibres.values())
    # (n_i n_j)(n_j n_k) products over (i, j, k), one in n_j of them open.
    open_products = sum(si * sj * sk
                        for si in sizes for sj in sizes for sk in sizes)
    assert sum(seen) == per_fibre + open_products

"""Saturation skips the rank SVDs whose outcome a Gram certificate decides,
and the Fell axioms that are identities of matrix algebra are decided by
theorem.

``check_saturated`` takes the numerical rank of a product span only when
the Gram matrix of its coordinates in the target fibre does not certify
full rank.  These seeded tests compare the whole report, as JSON text,
with the oracle that takes every rank SVD (``oracles.exhaustive_rows``):
on matrix-unit bundles, where every SVD is skipped, on generic fibres,
where few are, at the rank threshold, at three tolerances and on bundles
that fail.  ``check_fell_axioms`` reports ``fell.axiom.3``, ``4``, ``7``,
``8``, ``9`` and ``10`` as analytic rows; on every bundle here the
numeric rows of ``oracles.theorem_rows`` agree with that verdict.
"""

import json

import numpy as np
import pytest

from conftest import crandn, random_unitary
from oracles import THEOREM_ROWS, exhaustive_rows, theorem_rows

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
    same_report(near_underflow_bundle(seed))


def near_underflow_bundle(seed):
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
    return FellBundleFD(blocks, fibres)


@pytest.mark.parametrize("side", [1 - 1e-12, 1.0, 1 + 1e-12])
@pytest.mark.parametrize("seed", range(4))
def test_products_at_the_axiom_4_margin(seed, side):
    # e1 = u diag(1, 0) u*, e2 = u diag(a, 1) u*: the product u diag(a, 0) u*
    # has Frobenius and operator norm a against ‖e1‖‖e2‖ = 1, around
    # a = 1 - 1e-8, where the Frobenius norm alone stops deciding
    # ‖e1 e2‖ ≤ ‖e1‖‖e2‖ with a margin far above rounding.  The SVD of
    # every product passes on both sides, as the analytic row does.
    rng = np.random.default_rng([20261104, seed])
    u = random_unitary(rng, 2)
    a = (1.0 - 1e-8) * side
    basis = [u @ np.diag(d) @ u.conj().T for d in ([1.0, 0.0], [a, 1.0])]
    b = FellBundleFD(BlockStructure((2,)), {(1, 1): SubspaceBasis(2, 2, basis)})
    same_report(b)
    for tol in TOLS:
        assert all(c.passed for c in theorem_rows(b, tol))
        assert check_bundle(b, tol).find("fell.axiom.4").residual == 0.0


def rank_threshold_bundle(rng, t):
    """Blocks (2, 1): fibre (1,2) is spanned by two unit columns at angle
    ``θ = 2 atan t``, whose singular values have ratio ``tan(θ/2) = t``,
    and fibre (2,1) by orthonormal rows.  Their products span the full
    fibre (1,1) with singular values in the same ratio.  The elements
    have unit norm, so saturation's rescaling keeps the ratio, and the
    small entry ``sin θ`` is exact even below rounding; fibre (1,2) is
    built without a rank test."""
    theta = 2 * np.arctan(t)
    phases = np.exp(2j * np.pi * rng.random(2))
    x = phases[:, None] * np.array([[1.0, np.cos(theta)],
                                    [0.0, np.sin(theta)]])
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
    # λ_min(CᴴC) = 1 - cos θ = 2t² / (1 + t²) against
    # max(1e-10, 4 rel²) ‖products‖_F² = 4c for the four unit products.
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
    # On conjugated matrix units every product span is certified, and the
    # axiom rows take no SVD or eigendecomposition at all: rows 2 and 6
    # are projections, the others analytic.
    b = conjugated_bundle(np.random.default_rng(20261108), (2, 3, 4))
    seen = []

    def forbidden(name):
        def call(*args, **kwargs):
            seen.append(name)
            raise AssertionError(f"{name} reached")
        return call

    monkeypatch.setattr(np.linalg, "svd", forbidden("svd"))
    monkeypatch.setattr(fellbundle, "numerical_rank",
                        forbidden("numerical_rank"))
    assert check_saturated(b).passed
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden("eigvalsh"))
    assert check_fell_axioms(b).all_passed
    assert seen == []


@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_theorem_rows_agree_with_the_numeric_oracle(tol):
    # Every bundle of this module, at each tolerance: the analytic rows
    # pass with residual 0, and the numeric rows pass too, except that a
    # relative tolerance below rounding (1e-17) fails them on the fibres
    # scaled by 1e40, by residuals of a few units in the last place.
    for name, b in bundle_fixtures():
        report = check_bundle(b, tol)
        for row in theorem_rows(b, tol):
            analytic = report.find(row.axiom_id)
            assert (analytic.passed, analytic.residual) == (True, 0.0)
            assert analytic.witness.startswith("analytic: ")
            below_rounding = tol.rel < 1e-16 and name == "scaled 1e+40"
            assert row.passed or (below_rounding and row.residual < 1e-14), \
                (name, row)
        assert [c.axiom_id for c in report if c.axiom_id in THEOREM_ROWS] \
            == list(THEOREM_ROWS)


def bundle_fixtures():
    for seed in range(2):
        for sizes, split in [((2, 3, 4), None), ((4, 4, 4), 2), ((6, 6), 3)]:
            rng = np.random.default_rng([20261109, seed, len(sizes)])
            yield f"conjugated {sizes} split {split}", conjugated_bundle(
                rng, sizes, split)
    for seed in range(4):
        for sizes in [(2, 3), (3, 2, 2), (1, 2, 1, 2)]:
            rng = np.random.default_rng([20261110, seed, len(sizes)])
            yield f"generic {sizes}", generic_bundle(rng, sizes)
    for scale in [1e-100, 1e-75, 1e40]:
        rng = np.random.default_rng([20261111, abs(int(np.log10(scale)))])
        yield f"scaled {scale:g}", conjugated_bundle(rng, (2, 3, 3),
                                                     scale=scale)
    for seed in range(300, 304):
        yield f"near underflow {seed}", near_underflow_bundle(seed)
    planted = planted_bundles(np.random.default_rng(20261112))
    for kind, (b, _) in planted.items():
        yield f"planted {kind}", b

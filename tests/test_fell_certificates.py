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
Closure into a full fibre is decided by theorem as well; on bundles that
mix full and other fibres every row passes or fails as in the
brute-force gate ``oracles.fell_gate``, which projects every product.
"""

import json
import re
from itertools import product

import numpy as np
import pytest

from conftest import crandn, json_document, random_unitary
from oracles import THEOREM_ROWS, exhaustive_rows, fell_gate, theorem_rows

import ncg.fellbundle as fellbundle
from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 bundle_from_json, bundle_to_json, check_bundle,
                 check_fell_axioms, check_saturated)
from ncg.matops import SpanStack, unit_rows

TOLS = [Tolerance(rel=1e-17), Tolerance(), Tolerance(rel=0.5)]
# Rows that measure distances to a fibre, exactly 0 for a full one.
DISTANCE_ROWS = ("fell.axiom.2", "fell.axiom.6", "fell.unital")


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
    for i, j in blocks.arrows():
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
    for i, j in blocks.arrows():
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
    for i, j in blocks.arrows():
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


def rank_threshold_bundle(rng, t, copies=1):
    """Blocks (2, 1): fibre (1,2) is spanned by two unit columns at angle
    ``θ = 2 atan t``, whose singular values have ratio ``tan(θ/2) = t``,
    and fibre (2,1) by orthonormal rows.  Their products span the full
    fibre (1,1) with singular values in the same ratio.  The elements
    have unit norm, so saturation's rescaling keeps the ratio, and the
    small entry ``sin θ`` is exact even below rounding; fibre (1,2) is
    built without a rank test.  With ``copies`` objects of size 1, each
    is attached to object 1 the same way, with its own phases and rows,
    and the fibres among them hold the scalars, so that several pairs
    share each shape class."""
    theta = 2 * np.arctan(t)
    ones = range(2, copies + 2)
    fibres = {(m, n): SubspaceBasis(1, 1, [[[1.0]]])
              for m in ones for n in ones}
    fibres[(1, 1)] = SubspaceBasis(2, 2, _units(2, 2))
    for m in ones:
        phases = np.exp(2j * np.pi * rng.random(2))
        x = phases[:, None] * np.array([[1.0, np.cos(theta)],
                                        [0.0, np.sin(theta)]])
        y = random_unitary(rng, 2)
        fibres[(1, m)] = SubspaceBasis(2, 1, x.T[:, :, None],
                                       Tolerance(rel=0.0))
        fibres[(m, 1)] = SubspaceBasis(1, 2, y[:, None, :])
    return FellBundleFD(BlockStructure((2,) + (1,) * copies), fibres)


@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("seed", range(3))
def test_span_at_the_rank_threshold(seed, side, tol):
    rng = np.random.default_rng([20261105, seed])
    for copies in (1, 3):
        b = rank_threshold_bundle(rng, tol.rel * side, copies)
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


def test_svd_and_eigvalsh_calls_follow_the_shape_classes(monkeypatch):
    # All fibres of a conjugated (2,)*16 bundle form one shape class, and
    # all its 4096 pairs another: reading it takes one SVD, and its normal
    # form, of full fibres, certifies every span with neither.  Without
    # the certificate saturation takes one eigvalsh per buffer of Gram
    # matrices, four in all, not one per fibre or per target fibre (256
    # each).
    b = conjugated_bundle(np.random.default_rng(20261121), (2,) * 16)
    doc = json_document(bundle_to_json(b))
    calls = []
    for name in ("svd", "eigvalsh"):
        kernel = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name,
                            kernel=kernel, **kw: (calls.append(name)
                                                  or kernel(*args, **kw)))
    read = bundle_from_json(doc)
    assert check_bundle(read).all_passed
    assert (calls.count("svd"), calls.count("eigvalsh")) == (1, 0)
    assert check_saturated(read, form=fellbundle._DECLINED).passed
    assert (calls.count("svd"), calls.count("eigvalsh")) == (1, 4)


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


def with_full_fibres(rng, b):
    """``b`` with about half of its fibres replaced by the whole matrix
    space, spanned by random matrices of the size of the fibre's first
    basis element (or of unit size for a zero fibre)."""
    fibres = {}
    for g, f in b.fibres.items():
        if rng.random() < 0.5:
            scale = np.linalg.norm(f.stack[0]) if f.dim else 1.0
            f = SubspaceBasis(f.rows, f.cols,
                              scale * crandn(rng, f.rows * f.cols, f.rows,
                                             f.cols))
        fibres[g] = f
    return FellBundleFD(b.blocks, fibres)


def mixed_bundles():
    for seed in range(4):
        for sizes in [(2, 3), (3, 2, 2), (1, 2, 1, 2)]:
            rng = np.random.default_rng([20261113, seed, len(sizes)])
            yield f"generic {sizes}", with_full_fibres(
                rng, generic_bundle(rng, sizes))
    for scale in [1e-100, 1e-75, 1e40]:
        rng = np.random.default_rng([20261114, abs(int(np.log10(scale)))])
        yield f"scaled {scale:g}", with_full_fibres(
            rng, conjugated_bundle(rng, (4, 4, 2), 2, scale=scale))
    for seed in range(300, 308):
        rng = np.random.default_rng([20261115, seed])
        yield f"near underflow {seed}", with_full_fibres(
            rng, near_underflow_bundle(seed))
    # Many small blocks, and sizes that make several shape classes of
    # fibres and of pairs in one bundle.
    for sizes in [(2,) * 8, (1,) * 12, (1, 2, 1, 3, 2, 2)]:
        rng = np.random.default_rng([20261119, len(sizes)])
        yield f"generic {sizes}", with_full_fibres(
            rng, generic_bundle(rng, sizes))
    # M_2 + M_2 fibres on six objects with an off-diagonal corner element
    # planted in fibre (1,2) and the pair of fibres (2,5), (5,2) dropped.
    rng = np.random.default_rng(20261120)
    b = conjugated_bundle(rng, (4,) * 6, 2)
    corner = np.zeros((4, 4), dtype=complex)
    corner[0, 3] = 1.0
    fibres = {g: f for g, f in b.fibres.items() if g not in ((2, 5), (5, 2))}
    fibres[(1, 2)] = SubspaceBasis(4, 4, list(fibres[(1, 2)].stack)
                                   + [corner])
    yield "split planted", FellBundleFD(b.blocks, fibres)
    # Fibre (1,1) holds the diagonal matrices, closed to rounding at unit
    # size, and the full fibre (2,2) has elements of size about 1e6, whose
    # products the oracle projects with residuals above rel 1e-17.
    rng = np.random.default_rng(20261117)
    yield "closed diagonal", FellBundleFD(BlockStructure((2, 3)), {
        (1, 1): SubspaceBasis(2, 2, _units(2, 2)[[0, 3]]),
        (2, 2): SubspaceBasis(3, 3, 1e6 * crandn(rng, 9, 3, 3))})


@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_mixed_bundles_decide_as_the_oracle(tol):
    # Below rounding (rel 1e-17) the oracle's projections of products,
    # adjoints and identities on a full fibre, and its numeric theorem
    # rows, can fail by residuals of a few units in the last place; the
    # library decides the theorem rows by theorem and measures distances
    # from a full fibre through its complement, which is empty.
    for name, b in mixed_bundles():
        got = check_bundle(b, tol)
        want = fell_gate(b, tol)
        for row, oracle in zip(got, want):
            assert row.axiom_id == oracle.axiom_id
            if row.passed == oracle.passed:
                continue
            assert tol.rel < 1e-16 and row.passed, (name, row, oracle)
            assert oracle.residual < 1e-14, (name, oracle)
            if oracle.axiom_id in THEOREM_ROWS:
                continue
            assert oracle.axiom_id in DISTANCE_ROWS, (name, oracle)
            assert b.fibres[_witness_target(oracle)].is_full, (name, oracle)


def _witness_target(row):
    """The fibre a failing closure, involution or unitality row names as
    the one its worst element leaves."""
    i, j = map(int, re.findall(r"\((\d+), ?(\d+)\)", row.witness)[-1])
    return (j, i) if row.axiom_id == "fell.axiom.6" else (i, j)


def test_full_targets_form_no_products_and_no_coordinates(monkeypatch):
    # Closure forms no basis product whose target fibre is full, and still
    # projects the products of the bundle's other targets.  Saturation
    # contracts the fibres' Gram matrices instead: on a bundle whose spans
    # all certify, with full and other targets, it forms no product and
    # takes no coordinates at all.
    rng = np.random.default_rng(20261116)
    # Closure batches pairs across targets, so the products it forms are
    # counted: exactly those of the pairs into fibres that are not full.
    b = with_full_fibres(rng, conjugated_bundle(rng, (4, 4, 2), 2))
    formed = []
    products = fellbundle._basis_products

    def spy_products(x, y):
        formed.append(x.size // x.shape[-1] // x.shape[-2] * y.shape[-3])
        return products(x, y)

    monkeypatch.setattr(fellbundle, "_basis_products", spy_products)
    check_fell_axioms(b)
    want = sum(b.fibres[(i, j)].dim * b.fibres[(j, k)].dim
               for i, j, k in product(range(1, 4), repeat=3)
               if not b.fibres[(i, k)].is_full)
    assert want and sum(formed) == want
    assert any(f.is_full for f in b.fibres.values())

    # Diagonal fibres M_2 + M_2 inside M_4, full fibres elsewhere: every
    # product span is total.
    b = conjugated_bundle(rng, (4, 4, 4), 2)
    b = FellBundleFD(b.blocks, {g: f if g[0] == g[1] else SubspaceBasis(
        4, 4, crandn(rng, 16, 4, 4)) for g, f in b.fibres.items()})
    assert not declined_pairs(b, Tolerance())

    def forbidden(*args):
        raise AssertionError("saturation formed products or coordinates")

    monkeypatch.setattr(fellbundle, "_basis_products", forbidden)
    monkeypatch.setattr(SubspaceBasis, "coordinates", forbidden)
    assert check_saturated(b).passed
    assert sum(f.is_full for f in b.fibres.values()) == 6


def declined_pairs(b, tol):
    """The composable pairs with nonzero fibres and target that saturation
    must rank by the SVD of their products: a fibre less than half full,
    or a Gram certificate that does not fire."""
    certify = max(fellbundle._GRAM_FLOOR, 4.0 * tol.rel ** 2)
    sizes = b.blocks.sizes
    declined = set()
    for i, j, k in product(range(1, b.blocks.p + 1), repeat=3):
        g, h, target = b.fibres[(i, j)], b.fibres[(j, k)], b.fibres[(i, k)]
        if not (g.dim and h.dim and target.dim):
            continue
        if 2 * g.dim < g.rows * g.cols or 2 * h.dim < h.rows * h.cols:
            declined.add(((i, j), (j, k)))
            continue
        grams = [fellbundle._arranged_gram(unit_rows(f.stack))
                 for f in (g, h)]
        lam, trace = gram_spectra(target, *grams)
        guard = fellbundle._gram_guard(g.dim, h.dim, sizes[j - 1],
                                       sizes[i - 1] * sizes[k - 1])
        if not (lam[0] > certify * trace[0] and lam[0] > guard
                and trace[0] > guard):
            declined.add(((i, j), (j, k)))
    return declined


def gram_spectra(target, x, y):
    """``fellbundle._gram_spectra`` of one pair of arranged Gram matrices
    into the fibre ``target``."""
    spans = None if target.is_full else SpanStack((target,))
    return fellbundle._gram_spectra(x[None], y[None], target.rows,
                                    target.cols, spans, [0])


def spy_on_products(monkeypatch, b):
    """Record the arrow pair of every basis-product stack formed from the
    unit rows of ``b``'s fibres."""
    formed = []
    products = fellbundle._basis_products
    units = {g: unit_rows(f.stack) for g, f in b.fibres.items() if f.dim}

    def arrow(x):
        return next(g for g, u in units.items()
                    if u.shape == x.shape and np.array_equal(u, x))

    def spy(x, y):
        formed.append((arrow(x), arrow(y)))
        return products(x, y)

    monkeypatch.setattr(fellbundle, "_basis_products", spy)
    return formed


@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
@pytest.mark.parametrize("kind", ["extra", "dropped"])
def test_planted_bundles_form_products_only_where_declined(kind, tol,
                                                           monkeypatch):
    b, _ = planted_bundles(np.random.default_rng(20261107))[kind]
    formed = spy_on_products(monkeypatch, b)
    check_saturated(b, tol)
    assert len(formed) == len(set(formed))
    assert set(formed) == declined_pairs(b, tol)
    if tol.rel == 1e-9:
        assert bool(formed) == (kind == "extra")


def test_closure_is_analytic_when_every_target_is_full():
    rng = np.random.default_rng(20261118)
    planted = planted_bundles(rng)
    for b in (conjugated_bundle(rng, (2, 3, 4)), planted["dropped"][0]):
        row = check_fell_axioms(b).find("fell.axiom.2")
        assert (row.passed, row.residual) == (True, 0.0)
        assert row.witness.startswith("analytic: ")
    row = check_fell_axioms(planted["extra"][0]).find("fell.axiom.2")
    assert not row.passed and " leaves fibre " in row.witness
    empty = FellBundleFD(BlockStructure((2, 1)), {})
    assert check_fell_axioms(empty).find("fell.axiom.2").witness == \
        "all basis products stay in their fibre"

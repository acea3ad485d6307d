"""Distances to a span through its orthogonal complement, and closure
batched per shape class of pairs, against the projection of ``oracles``.

``SubspaceBasis.residuals`` measures ``‖W̄ p‖`` on the complement ``W`` of
a basis at least half full, exactly 0 for a full one, and projects for a
thinner one; ``check_fell_axioms`` measures the products of the pairs of
one shape class in as few calls as its buffer allows.  These seeded
property tests compare both with ``oracles.projection_residuals``, pair
by pair, on targets that are thin, half full, more than half full, full
and explicit, the matrix units and empty, with out-of-fibre components
planted at ``(1 ± 1e-6)`` times the bound.  Each case must give the
planted verdict on both sides, residuals within ``1e-12`` relative, and a
witness whose oracle residual is the reported one.
"""

import re

import numpy as np
import pytest

from conftest import crandn
from oracles import (all_adjoints_involution, all_identities_unital,
                     all_products_closure, projection_residuals)

import ncg.fellbundle as fellbundle
from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 check_fell_axioms, check_unital)
from ncg.fellbundle import _matrix_units

KINDS = ("thin", "half", "more", "full", "units", "empty")
TOLS = (Tolerance(), Tolerance(rel=1e-6))
MARGINS = (1 - 1e-6, 1 + 1e-6)
SEEDS = range(3)
AGREE = 1e-12
# Rank threshold of a fibre that holds a plant: its component outside the
# span is near the bound, below the default threshold at rel 1e-9.
LOOSE = Tolerance(rel=1e-13)


def target(rng, kind, rows, cols):
    """A basis of the given kind and its orthonormal complement as
    ``(N - k, rows, cols)`` matrices, taken by a QR independent of the
    library's SVD."""
    n = rows * cols
    dim = {"thin": (n - 1) // 2, "half": n // 2, "more": n - 2,
           "full": n, "units": n, "empty": 0}[kind]
    if kind == "units":
        stack = _matrix_units(rows, cols)
    else:
        stack = crandn(rng, dim, rows, cols) * 10.0 ** rng.uniform(-2, 2)
    q, _ = np.linalg.qr(np.concatenate(
        [stack.reshape(dim, n).T, crandn(rng, n, n - dim)], axis=1))
    return (SubspaceBasis(rows, cols, stack),
            q[:, dim:].T.reshape(n - dim, rows, cols))


def planted(rng, basis, perp, tol, margin, scale):
    """An element ``t + δ w``: ``t`` in the span, of norm ``scale`` (0 for
    an empty span), and ``w`` a unit vector of the complement, with ``δ``
    ``margin`` times the bound of ``‖t‖``."""
    t = np.tensordot(crandn(rng, basis.dim), basis.stack, axes=1)
    t = scale * t / np.linalg.norm(t) if basis.dim else 0.0 * perp[0]
    w = np.tensordot(crandn(rng, len(perp)), perp, axes=1)
    delta = margin * tol.bound(float(np.linalg.norm(t)))
    return t + delta * w / np.linalg.norm(w)


def relative(raws, elements):
    norms = np.linalg.norm(elements.reshape(len(elements), -1), axis=1)
    return np.asarray(raws) / np.maximum(1.0, norms)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(3, 4), (4, 4), (1, 6)], ids=str)
@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_residuals_agree_with_the_projection(kind, shape, tol):
    for seed in SEEDS:
        rng = np.random.default_rng([20261120, seed, KINDS.index(kind),
                                     *shape])
        basis, perp = target(rng, kind, *shape)
        members = np.tensordot(crandn(rng, 4, basis.dim), basis.stack,
                               axes=1) if basis.dim else np.zeros((0, *shape))
        others = crandn(rng, 3, *shape) * 10.0 ** rng.uniform(-3, 3)
        stack = np.concatenate([members, others])
        expect = []
        if len(perp):
            plants = [planted(rng, basis, perp, tol, margin, scale)
                      for margin in MARGINS for scale in (0.5, 1e3)]
            stack = np.concatenate([stack, plants])
            expect = [margin > 1 for margin in MARGINS for _ in (0.5, 1e3)]

        got = basis.residuals(stack)
        want = projection_residuals(basis, stack)
        assert np.all(np.abs(relative(got - want, stack)) <= AGREE)
        assert [basis.residual(x) for x in stack] == pytest.approx(
            got, rel=0, abs=AGREE * np.abs(stack).max())
        if basis.is_full:
            assert not got.any()
        tail = slice(len(stack) - len(expect), None)
        norms = np.linalg.norm(stack[tail], axis=(1, 2))
        bounds = np.maximum(tol.abs, tol.rel * np.maximum(1.0, norms))
        assert list(got[tail] > bounds) == list(want[tail] > bounds) == expect


def closure_bundle(rng, kind, tol, margin, n=4):
    """Objects 1, 2, 3 of size ``n``: fibres (1,1) and (1,2) hold the
    identity, (1,3) is the target and (2,3) the target with a planted
    element, whose product with the identity leaves the target by
    ``margin`` times the bound.  Target (1,3) takes the pairs through
    objects 1 and 2, with and without the plant."""
    basis, perp = target(rng, kind, n, n)
    plus = basis.stack
    if len(perp):
        plus = np.concatenate([plus, [planted(rng, basis, perp, tol, margin,
                                              1.0)]])
    eye = SubspaceBasis(n, n, [np.eye(n)])
    return FellBundleFD(BlockStructure((n, n, n)), {
        (1, 1): eye, (1, 2): eye, (1, 3): basis,
        (2, 3): SubspaceBasis(n, n, plus, LOOSE)})


def involution_bundle(rng, kind, tol, margin, n=4):
    """Fibre (1,2) is the target and (2,1) the adjoints of its basis and
    of a planted element, whose adjoint leaves the target by ``margin``
    times the bound."""
    basis, perp = target(rng, kind, n, n)
    plus = basis.stack
    if len(perp):
        plus = np.concatenate([plus, [planted(rng, basis, perp, tol, margin,
                                              1.0)]])
    return FellBundleFD(BlockStructure((n, n)), {
        (1, 2): basis,
        (2, 1): SubspaceBasis(n, n, np.conj(np.swapaxes(plus, 1, 2)),
                              LOOSE)})


def unital_bundle(rng, kind, tol, margin, n=4):
    """One object; the diagonal fibre leaves the identity at ``margin``
    times the bound: it holds ``I - δ w`` and vectors orthogonal to ``w``,
    for a unit ``w`` with ``⟨w, I⟩ = δ``."""
    basis, perp = target(rng, kind, n, n)
    if len(perp) and basis.dim:
        delta = margin * tol.bound(float(np.sqrt(n)))
        v = crandn(rng, n, n)
        v -= np.trace(v) / n * np.eye(n)
        w = delta / n * np.eye(n) + np.sqrt(1 - delta ** 2 / n) * (
            v / np.linalg.norm(v))
        rest = basis.stack[1:]
        rest = rest - np.einsum("k,ij->kij",
                                np.einsum("ij,kij->k", w.conj(), rest), w)
        basis = SubspaceBasis(n, n, np.concatenate([[np.eye(n) - delta * w],
                                                    rest]))
    return FellBundleFD(BlockStructure((n,)), {(1, 1): basis})


def witnessed(b, row):
    """The relative oracle residual of the element a row's witness
    names."""
    nums = [int(x) for x in re.findall(r"\d+", row.witness)]
    if row.axiom_id == "fell.axiom.2":
        a, i, j, c, _, k = nums[:6]
        x = b.fibres[(i, j)].stack[a] @ b.fibres[(j, k)].stack[c]
        into, scale = b.fibres[(i, k)], np.linalg.norm(x)
    elif row.axiom_id == "fell.axiom.6":
        a, i, j = nums
        x = b.fibres[(i, j)].stack[a].conj().T
        into, scale = b.fibres[(j, i)], np.linalg.norm(x)
    else:
        i, _ = nums
        x = np.eye(b.blocks.sizes[i - 1], dtype=complex)
        into, scale = b.fibres[(i, i)], np.sqrt(len(x))
    return projection_residuals(into, x[None])[0] / max(1.0, scale)


def assert_agrees(b, row, oracle, planted_fails):
    assert row.axiom_id == oracle.axiom_id
    assert abs(row.residual - oracle.residual) <= AGREE, (row, oracle)
    if planted_fails is not None:
        assert row.passed is oracle.passed is not planted_fails, (row, oracle)
    else:
        assert row.passed is oracle.passed, (row, oracle)
    if row.residual:
        assert abs(witnessed(b, row) - row.residual) <= AGREE, row


def plant_of(kind, margin):
    """The planted verdict (True to fail), None for a full target, which
    leaves no room for a plant."""
    return None if kind in ("full", "units") else margin > 1


@pytest.mark.parametrize("cap", ["alone", "split", "shared"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_closure_agrees_with_the_oracle(kind, tol, cap, monkeypatch):
    # "alone" runs every pair with its own products, "split" gives the
    # buffer room for the products of one pair into the target, "shared"
    # is the default buffer.  The pairs through objects 1 and 2 differ in
    # shape class once the plant enlarges fibre (2,3).
    for seed in SEEDS:
        for margin in MARGINS:
            rng = np.random.default_rng([20261121, seed, KINDS.index(kind)])
            b = closure_bundle(rng, kind, tol, margin)
            size = 16 * b.fibres[(1, 3)].dim
            monkeypatch.setattr(fellbundle, "_BATCH_ENTRIES", {
                "alone": 1, "split": max(size, 16), "shared": 2 ** 16}[cap])
            row = check_fell_axioms(b, tol).find("fell.axiom.2")
            oracle = all_products_closure(b, tol)
            if b.fibres[(1, 3)].is_full:
                assert row.residual == 0.0 and row.passed
            assert_agrees(b, row, oracle, plant_of(kind, margin))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_involution_agrees_with_the_oracle(kind, tol):
    for seed in SEEDS:
        for margin in MARGINS:
            rng = np.random.default_rng([20261122, seed, KINDS.index(kind)])
            b = involution_bundle(rng, kind, tol, margin)
            row = check_fell_axioms(b, tol).find("fell.axiom.6")
            assert_agrees(b, row, all_adjoints_involution(b, tol),
                          plant_of(kind, margin))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tol", TOLS, ids=lambda t: f"rel{t.rel:g}")
def test_unitality_agrees_with_the_oracle(kind, tol):
    for seed in SEEDS:
        for margin in MARGINS:
            rng = np.random.default_rng([20261123, seed, KINDS.index(kind)])
            b = unital_bundle(rng, kind, tol, margin)
            expect = True if kind == "empty" else plant_of(kind, margin)
            assert_agrees(b, check_unital(b, tol),
                          all_identities_unital(b, tol), expect)


def test_batching_changes_no_row(monkeypatch):
    # Every cap gives the same rows, to rounding, on a bundle whose
    # targets take pairs of different sizes.
    rng = np.random.default_rng(20261124)
    b = closure_bundle(rng, "more", Tolerance(), 1e6)
    rows = {}
    for cap in (1, 16 * 15, 16 * 29, 2 ** 16):
        monkeypatch.setattr(fellbundle, "_BATCH_ENTRIES", cap)
        rows[cap] = check_fell_axioms(b).find("fell.axiom.2")
    first = rows[1]
    assert not first.passed
    for row in rows.values():
        assert (row.passed, row.witness) == (first.passed, first.witness)
        assert row.residual == pytest.approx(first.residual, rel=1e-14)


def test_runs_keep_the_report_order(monkeypatch):
    # Shape classes are measured out of report order: among equal worst
    # residuals the witness is the first in report order, whichever run
    # measured it first.  Fibre (2,1) shares the shape class of (1,1), so
    # the pairs and adjoints through it are measured before those of the
    # earlier fibre (1,2).  Each row has residual 1 on both sides of the
    # tie: E_11 E_12 leaves fibre (1,1) ahead of E_22 E_12 leaving the
    # zero fibre (2,2), and E_11* leaves span{E_12} ahead of E_12*
    # leaving span{E_11, E_22}.
    units = _matrix_units(2, 2)
    b = FellBundleFD(BlockStructure((2, 2)), {
        (1, 1): SubspaceBasis(2, 2, units[[0]]),
        (1, 2): SubspaceBasis(2, 2, units[[0, 3]]),
        (2, 1): SubspaceBasis(2, 2, units[[1]])})
    for cap in (1, 8, 2 ** 16):
        monkeypatch.setattr(fellbundle, "_BATCH_ENTRIES", cap)
        report = check_fell_axioms(b)
        rows = [(row.passed, row.residual, row.witness) for row in
                (report.find("fell.axiom.2"), report.find("fell.axiom.6"))]
        assert rows == [
            (False, 1.0,
             "basis 0 of (1, 2) x basis 0 of (2, 1) leaves fibre (1, 1)"),
            (False, 1.0, "adjoint of basis 0 of fibre (1, 2)")], cap
        assert report.find("fell.axiom.2") == all_products_closure(b)
        assert report.find("fell.axiom.6") == all_adjoints_involution(b)


def test_witnesses_follow_the_items_of_a_run(monkeypatch):
    # Every fibre a random line in M_2: one shape class of fibres and one
    # of pairs, so a run holds many items, and the worst residuals are
    # distinct.  The witness must name the item that measured it.
    rng = np.random.default_rng(20261127)
    blocks = BlockStructure((2, 2, 2))
    b = FellBundleFD(blocks, {g: SubspaceBasis(2, 2, crandn(rng, 1, 2, 2))
                              for g in blocks.arrows()})
    for cap in (1, 2 ** 16):
        monkeypatch.setattr(fellbundle, "_BATCH_ENTRIES", cap)
        report = check_fell_axioms(b)
        for row, oracle in ((report.find("fell.axiom.2"),
                             all_products_closure(b)),
                            (report.find("fell.axiom.6"),
                             all_adjoints_involution(b))):
            assert (row.passed, row.witness) == (oracle.passed,
                                                 oracle.witness), cap
            assert row.residual == pytest.approx(oracle.residual, rel=1e-12)

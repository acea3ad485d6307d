"""The normal-form certificate of ``check_bundle`` against the products it
stands for.

A unital saturated bundle has unitaries ``U_i`` with ``U_i* E_ij U_j =
⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}``; ``fellbundle.normal_form`` guesses them,
measures every fibre against them, and decides closure and saturation by
theorem when its margins hold.  These seeded tests build such bundles
with one to three summands, multiplicities 1 and 2, unequal ``k_ir``
across objects, bases recombined to be rescaled or ill-conditioned, full
explicit bases, planted off-block elements, elements moved until the
closure residual sits at ``(1 ± 1e-6)`` times the bound and noise on
every element, at tolerances from 0 to 0.5.  Every row must agree with the brute-force oracles in
verdict, and in witness where it fails, at tolerances above rounding;
every row but a certified
``fell.axiom.2`` must be the battery's row, byte for byte
(``oracles.declined_report``); and a certified bound must hold for the
oracle's residuals.  A bundle the certificate declines must cost no
product and no decomposition when its fibre dimensions already rule a
normal form out.
"""

import json

import numpy as np
import pytest

from conftest import crandn, random_unitary
from oracles import (all_adjoints_involution, all_identities_unital,
                     all_products_closure, all_products_saturation,
                     declined_report)

import ncg.fellbundle as fellbundle
from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 check_bundle)
from ncg.fellbundle import normal_form

TOLS = [Tolerance(rel=0.0), Tolerance(rel=1e-15), Tolerance(rel=1e-12),
        Tolerance(), Tolerance(rel=1e-6), Tolerance(rel=0.5)]
# Below this relative tolerance the battery's rows decided by theorem
# (closure into a full fibre, distances to one) pass where the oracles'
# projections fail on their own rounding, as they did before the
# certificate; there the rows are compared with the battery alone.
ABOVE_ROUNDING = 1e-12
ORACLES = (all_products_closure, all_adjoints_involution,
           all_products_saturation, all_identities_unital)
# (k, m): summand sizes per object and multiplicities.
SHAPES = {
    "one": ([[3], [2], [1]], [1]),
    "one_m2": ([[2], [1], [2]], [2]),
    "two": ([[2, 2], [2, 2], [2, 2]], [1, 1]),
    "two_unequal": ([[1, 2], [2, 1], [1, 1]], [1, 2]),
    "three": ([[1, 1, 2], [2, 1, 1]], [1, 2, 1]),
    "three_m2": ([[1, 1, 1], [1, 2, 1], [2, 1, 1]], [2, 1, 2]),
}


def model_basis(k, m, i, j):
    """The basis of ``F_ij = ⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}``: one element
    per summand and matrix unit, in the frame ordered summand, row of
    ``M_k``, copy of ``1_m``."""
    ni = sum(a * c for a, c in zip(k[i], m))
    nj = sum(a * c for a, c in zip(k[j], m))
    oi = np.cumsum([0] + [a * c for a, c in zip(k[i], m)])
    oj = np.cumsum([0] + [a * c for a, c in zip(k[j], m)])
    out = []
    for r, mr in enumerate(m):
        for a in range(k[i][r]):
            for c in range(k[j][r]):
                e = np.zeros((ni, nj), dtype=complex)
                for t in range(mr):
                    e[oi[r] + a * mr + t, oj[r] + c * mr + t] = 1.0
                out.append(e)
    return np.array(out)


def recombined(rng, stack, kind):
    """The same span: ``stack`` itself, its elements rescaled over six
    decades, recombined by a random unitary ("mixed", whose products
    have no ties), or by an ill-conditioned matrix (condition 1e4)."""
    d = len(stack)
    if kind == "units":
        return stack
    if kind == "rescaled":
        return stack * 10.0 ** rng.uniform(-3, 3, d)[:, None, None]
    if kind == "mixed":
        return np.tensordot(random_unitary(rng, d), stack, axes=1)
    q, _ = np.linalg.qr(crandn(rng, d, d))
    mix = q * np.logspace(0, -4, d)[None, :] @ random_unitary(rng, d)
    return np.tensordot(mix, stack, axes=1)


def form_bundle(rng, k, m, kind="units"):
    """A bundle in normal form ``(k, m)`` conjugated by random unitaries,
    as raw stacks keyed by arrow."""
    p = len(k)
    sizes = [sum(a * c for a, c in zip(k[i], m)) for i in range(p)]
    us = [random_unitary(rng, n) for n in sizes]
    return sizes, {(i + 1, j + 1): recombined(
        rng, us[i] @ model_basis(k, m, i, j) @ us[j].conj().T, kind)
        for i in range(p) for j in range(p)}


def bundle(sizes, stacks, tol=Tolerance(rel=0.0)):
    return FellBundleFD(BlockStructure(tuple(sizes)), {
        g: SubspaceBasis(sizes[g[0] - 1], sizes[g[1] - 1], s, tol)
        for g, s in stacks.items() if len(s)})


def assert_matches_oracles(b, tol):
    """The report against the battery and the oracles; returns the form
    and the report."""
    form = normal_form(b, tol)
    got = check_bundle(b, tol)
    for row, old in zip(got, declined_report(b, tol)):
        if row.witness.startswith("certified:"):
            assert row.axiom_id == "fell.axiom.2"
            assert (row.passed, row.residual, old.passed) == (True, 0.0, True)
            assert all_products_closure(b, tol).residual <= form.bound \
                <= tol.rel
        else:
            assert json.dumps(row.to_json()) == json.dumps(old.to_json())
    if form.spans:
        assert all_products_saturation(b, tol).passed
    if tol.rel < ABOVE_ROUNDING:
        return form, got
    for oracle in ORACLES:
        want = oracle(b, tol)
        row = got.find(want.axiom_id)
        assert row.passed == want.passed, (row, want)
        if not want.passed:
            assert row.witness == want.witness
    return form, got


def summands(form, perm=None):
    """The summands as sorted ``(k column, m)`` pairs, the column read in
    the objects' order ``perm`` (1-based) of a relabelled bundle."""
    k = form.k if perm is None else form.k[np.argsort(perm)]
    return sorted((tuple(k[:, r].tolist()), mr) for r, mr in
                  enumerate(form.m))


@pytest.mark.parametrize("kind", ["units", "mixed", "rescaled",
                                  "conditioned"])
@pytest.mark.parametrize("shape", SHAPES)
def test_normal_forms_are_found_and_agree_with_the_oracles(shape, kind):
    k, m = SHAPES[shape]
    for seed in range(2):
        rng = np.random.default_rng([20261201, seed, list(SHAPES).index(
            shape), len(kind)])
        b = bundle(*form_bundle(rng, k, m, kind))
        certified = []
        for tol in TOLS:
            form, _ = assert_matches_oracles(b, tol)
            assert form.k is not None
            assert summands(form) == sorted(
                (tuple(np.array(k)[:, r].tolist()), mr)
                for r, mr in enumerate(m))
            certified.append((form.bound <= tol.rel, form.spans))
        # (closure, saturation) certified at rel 0, 1e-15, 1e-12, 1e-9,
        # 1e-6 and 0.5: rounding rules closure out at rel 0 unless every
        # fibre is full, and an ill-conditioned basis rules saturation
        # out from 1e-6 on.
        assert certified[0] == (shape == "one", True)
        if kind in ("units", "mixed"):
            assert certified[3] == certified[4] == (True, True)
        if kind == "conditioned":
            assert not certified[4][1]


@pytest.mark.parametrize("kind", ["units", "generic", "rescaled"])
@pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 3), (2, 2, 2, 2)])
def test_full_bundles_certify_saturation_by_conditioning(sizes, kind):
    rng = np.random.default_rng([20261202, len(sizes), len(kind)])
    stacks = {}
    for i in range(len(sizes)):
        for j in range(len(sizes)):
            n = sizes[i] * sizes[j]
            stack = (np.eye(n, dtype=complex) if kind == "units"
                     else crandn(rng, n, n))
            if kind == "rescaled":
                stack = stack * 10.0 ** rng.uniform(-5, 5, n)[:, None]
            stacks[(i + 1, j + 1)] = stack.reshape(n, sizes[i], sizes[j])
    b = bundle(sizes, stacks)
    for tol in TOLS:
        form, got = assert_matches_oracles(b, tol)
        assert form.k.tolist() == [[n] for n in sizes] and form.m == (1,)
        assert got.find("fell.axiom.2").witness.startswith("analytic:")
        if kind == "units":
            assert form.spans == (0 <= tol.rel < 1)


def planted(rng, shape):
    """A bundle of ``SHAPES[shape]`` with one element of fibre (1,2) off
    the model: added to the basis (a dimension the form cannot have) or
    in place of an element (the same dimension, far from the form)."""
    k, m = SHAPES[shape]
    sizes, stacks = form_bundle(rng, k, m, "mixed")
    extra = crandn(rng, sizes[0], sizes[1])
    added = dict(stacks)
    added[(1, 2)] = np.concatenate([stacks[(1, 2)], [extra]])
    moved = dict(stacks)
    moved[(1, 2)] = stacks[(1, 2)].copy()
    moved[(1, 2)][0] += extra
    return bundle(sizes, added), bundle(sizes, moved)


@pytest.mark.parametrize("shape", ["two", "two_unequal", "three_m2"])
def test_planted_off_block_elements_fall_back(shape):
    rng = np.random.default_rng([20261203, list(SHAPES).index(shape)])
    for b in planted(rng, shape):
        for tol in TOLS[1:]:
            form, got = assert_matches_oracles(b, tol)
            assert form.bound == np.inf and not form.spans
            assert not got.find("fell.axiom.2").passed


def moved_to(rng, sizes, stacks, target, tol):
    """The bundle with element 0 of fibre (2,3) moved along a random
    direction until the oracle's closure residual is ``target``, by
    secant steps from a move of 1e-6."""
    direction = crandn(rng, sizes[1], sizes[2])
    direction /= np.linalg.norm(direction)

    def at(step):
        moved = dict(stacks)
        moved[(2, 3)] = stacks[(2, 3)].copy()
        moved[(2, 3)][0] += step * direction
        b = bundle(sizes, moved)
        return b, all_products_closure(b, tol).residual
    step = 1e-6
    for _ in range(4):
        b, residual = at(step)
        step *= target / residual
    b, residual = at(step)
    assert abs(residual / target - 1) < 1e-7
    return b


@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel=1e-6)],
                         ids=lambda t: f"rel{t.rel:g}")
@pytest.mark.parametrize("shape", ["two", "three_m2"])
def test_moves_at_the_closure_bound_take_the_battery(shape, tol, side):
    k, m = SHAPES[shape]
    for seed in range(2):
        rng = np.random.default_rng([20261204, seed, list(SHAPES).index(
            shape)])
        sizes, stacks = form_bundle(rng, k, m, "mixed")
        b = moved_to(rng, sizes, stacks, tol.rel * side, tol)
        form, got = assert_matches_oracles(b, tol)
        assert form.bound == np.inf
        assert got.find("fell.axiom.2").passed == (side < 1)


@pytest.mark.parametrize("shape", ["two", "two_unequal", "three_m2"])
def test_noisy_bundles_keep_the_bound(shape):
    # Every basis element moved by its own noise of relative size 1e-14
    # to 1e-10: the certificate fires on some and declines on others, and
    # where it fires its bound holds for the oracle's residuals.
    k, m = SHAPES[shape]
    fired = set()
    for seed in range(6):
        rng = np.random.default_rng([20261208, seed, list(SHAPES).index(
            shape)])
        sizes, stacks = form_bundle(rng, k, m, "mixed")
        for g, stack in stacks.items():
            noise = crandn(rng, *stack.shape)
            scale = 10.0 ** rng.uniform(-14, -10, len(stack))
            stacks[g] = stack + (scale * np.linalg.norm(
                stack, axis=(1, 2)) / np.linalg.norm(noise, axis=(1, 2)))[
                    :, None, None] * noise
        b = bundle(sizes, stacks)
        for tol in (Tolerance(rel=1e-12), Tolerance(), Tolerance(rel=1e-6)):
            form, _ = assert_matches_oracles(b, tol)
            fired.add((tol.rel, form.bound <= tol.rel))
    assert (1e-9, True) in fired and (1e-12, False) in fired


def spy(monkeypatch):
    """Count the basis products and the decompositions made."""
    calls = []
    products = fellbundle._basis_products
    monkeypatch.setattr(fellbundle, "_basis_products", lambda x, y: (
        calls.append("product") or products(x, y)))
    for name in ("svd", "eigh"):
        kernel = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, name=name,
                            kernel=kernel, **kw: (calls.append(name)
                                                  or kernel(*a, **kw)))
    return calls


def test_declining_forms_nothing_and_keeps_the_report(monkeypatch):
    # sub_4-4-4-4_extra: one extra element in fibre (1,2) of a M_2 + M_2
    # bundle; full_5-5_dropped: no off-diagonal fibres.  Their dimensions
    # rule a normal form out before any frame is guessed.
    rng = np.random.default_rng(20261205)
    sizes, stacks = form_bundle(rng, [[2, 2]] * 4, [1, 1])
    extra = dict(stacks)
    extra[(1, 2)] = np.concatenate([stacks[(1, 2)],
                                    [crandn(rng, 4, 4)]])
    sizes5, full = form_bundle(rng, [[5], [5]], [1])
    dropped = {g: s for g, s in full.items() if g[0] == g[1]}
    for b in (bundle(sizes, extra, Tolerance()),
              bundle(sizes5, dropped, Tolerance())):
        calls = spy(monkeypatch)
        assert normal_form(b) is fellbundle._DECLINED
        assert calls == []
        monkeypatch.undo()
        want = declined_report(b)
        assert json.dumps(check_bundle(b).to_json()) == json.dumps(
            want.to_json())
        assert not want.all_passed


def test_certified_bundle_forms_no_product(monkeypatch):
    rng = np.random.default_rng(20261206)
    b = bundle(*form_bundle(rng, [[4, 4]] * 4, [1, 1]), Tolerance())
    calls = spy(monkeypatch)
    report = check_bundle(b)
    assert report.all_passed and "product" not in calls
    assert report.find("fell.axiom.2").witness.startswith(
        "certified: normal form ⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}, "
        "k = [[4, 4], [4, 4], [4, 4], [4, 4]], m = [1, 1]; every basis "
        "product within ")
    assert report.find("fell.saturated").witness == \
        "every product span is total"


def test_unital_split_is_required():
    # A fibre (1,1) of diagonal matrices with one entry fixed at 0 is an
    # algebra without the identity: no frame spans C^n.
    rng = np.random.default_rng(20261207)
    sizes, stacks = form_bundle(rng, [[1, 1, 1]] * 2, [1, 1, 1])
    u = random_unitary(rng, 3)
    stacks = {g: s for g, s in stacks.items() if g != (1, 1)}
    stacks[(1, 1)] = u @ model_basis([[1, 1, 1]], [1, 1, 1], 0, 0)[:2] \
        @ u.conj().T
    b = bundle(sizes, stacks, Tolerance())
    assert normal_form(b) is fellbundle._DECLINED
    assert_matches_oracles(b, Tolerance())

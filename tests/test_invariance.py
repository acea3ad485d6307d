"""The batteries do not depend on how objects are numbered or on a change
of basis inside each object.

``check_bundle`` batches its closure and involution rows by shape class
and puts their residuals back in report order; ``check_triple`` takes
its algebra-unit rows from block sums.  Relabelling the objects of a
bundle by a permutation and conjugating it by a block unitary
``⊕ U_i`` (fibre ``(i, j)`` to ``U_i F U_j*``) must leave every row's
verdict unchanged and its residual equal to rounding, and so must a
block permutation of ``D``, ``γ``, ``ε`` and ``K``.  The seeded inputs
are conjugated full bundles and ``M_k ⊕ M_k`` sub-bundles on 2-4 objects
and triples of both generators in ``conftest``, each with one element
perturbed by 1e-10 to 1e-7, on both sides of the default bound.  The
witness of a failing row names the relabelled arrows, on sub-bundles
whose bases are recombined so that no two elements tie for the worst
residual.  A bundle certified by its normal form keeps the certificate
and its summands, the ``k_ir`` read in the objects' new order and the
``m_r``, under both moves.
"""

import re

import numpy as np
import pytest

from conftest import crandn, random_admissible_triple, random_unitary
from test_normal_form import SHAPES, bundle, form_bundle, summands

from ncg import (DEFAULT_TOL, BlockStructure, FellBundleFD,
                 FiniteSpectralTriple, SubspaceBasis,
                 build_triple_from_mass_matrix, check_bundle, check_triple)
from ncg.fellbundle import _matrix_units, normal_form

SEEDS = range(12)
# Relative residuals of one input measured in two bases differ by a few
# ulps of the elements' norms.
AGREE = 1e-12


def perturbation(rng, shape):
    """A random matrix of norm between 1e-10 and 1e-7, log-uniform."""
    e = crandn(rng, *shape)
    return 10.0 ** rng.uniform(-10, -7) * e / np.linalg.norm(e)


def perturbed_bundle(rng, kind, mixed=False):
    """Fibre ``(i, j) = u_i C u_j*`` for random unitaries ``u_i``, ``C``
    the full matrix space (``kind`` "full", block sizes 1-3) or the
    subalgebra ``M_k ⊕ M_k`` of ``M_2k`` ("sub", k = 1 or 2), with one
    basis element of one fibre moved by :func:`perturbation`.  With
    ``mixed`` each basis is recombined by a random unitary first."""
    p = int(rng.integers(2, 5))
    if kind == "full":
        sizes = tuple(int(s) for s in rng.integers(1, 4, p))
    else:
        k = int(rng.integers(1, 3))
        sizes = (2 * k,) * p
    us = [random_unitary(rng, s) for s in sizes]
    blocks = BlockStructure(sizes)
    arrows = blocks.arrows()
    moved = arrows[int(rng.integers(len(arrows)))]
    fibres = {}
    for i, j in arrows:
        units = _matrix_units(sizes[i - 1], sizes[j - 1])
        if kind == "sub":
            r, c = np.nonzero(units)[1:]
            units = units[(r < k) == (c < k)]
        stack = us[i - 1] @ units @ us[j - 1].conj().T
        if mixed:
            stack = np.tensordot(random_unitary(rng, len(stack)), stack,
                                 axes=1)
        if (i, j) == moved:
            stack[int(rng.integers(len(stack)))] += perturbation(
                rng, stack.shape[1:])
        fibres[(i, j)] = SubspaceBasis(sizes[i - 1], sizes[j - 1], stack)
    return FellBundleFD(blocks, fibres)


def relabelled(b, perm):
    """Object ``a`` of the result is object ``perm[a - 1]`` of ``b``."""
    sizes = tuple(b.blocks.sizes[q - 1] for q in perm)
    return FellBundleFD(BlockStructure(sizes), {
        (a, c): b.fibres[(perm[a - 1], perm[c - 1])]
        for a in range(1, len(perm) + 1) for c in range(1, len(perm) + 1)})


def conjugated(b, us):
    """Fibre ``(i, j)`` moved to ``us[i] F us[j]*``."""
    return FellBundleFD(b.blocks, {
        (i, j): SubspaceBasis(f.rows, f.cols,
                              us[i - 1] @ f.stack @ us[j - 1].conj().T)
        for (i, j), f in b.fibres.items() if f.dim})


def assert_same_rows(report, other, label):
    assert [c.axiom_id for c in report] == [c.axiom_id for c in other]
    for row, moved in zip(report, other):
        assert (row.passed, row.advisory) == (moved.passed, moved.advisory), (
            label, row, moved)
        assert abs(row.residual - moved.residual) <= AGREE, (label, row, moved)


@pytest.mark.parametrize("kind", ["full", "sub"])
def test_bundle_rows_ignore_labels_and_bases(kind):
    verdicts = set()
    for seed in SEEDS:
        rng = np.random.default_rng([20261125, seed, kind == "sub"])
        b = perturbed_bundle(rng, kind)
        perm = tuple(int(q) + 1 for q in rng.permutation(b.blocks.p))
        us = [random_unitary(rng, s) for s in b.blocks.sizes]
        report = check_bundle(b)
        verdicts.add(report.all_passed)
        assert_same_rows(report, check_bundle(relabelled(b, perm)),
                         (seed, perm))
        assert_same_rows(report, check_bundle(conjugated(b, us)), seed)
        assert_same_rows(report, check_bundle(
            relabelled(conjugated(b, us), perm)), (seed, perm))
    # A sub-bundle's perturbation crosses the bound on some seeds; a full
    # bundle holds every perturbed element.
    assert verdicts == ({True, False} if kind == "sub" else {True})


def renamed(witness, perm):
    """``witness`` with each arrow ``(a, c)`` of a relabelled bundle named
    by the original objects ``(perm[a - 1], perm[c - 1])``."""
    return re.sub(r"\((\d+)(, ?)(\d+)\)", lambda x: (
        f"({perm[int(x[1]) - 1]}{x[2]}{perm[int(x[3]) - 1]})"), witness)


def test_failing_witnesses_name_the_relabelled_arrows():
    failing = set()
    for seed in SEEDS:
        rng = np.random.default_rng([20261128, seed])
        b = perturbed_bundle(rng, "sub", mixed=True)
        perm = tuple(int(q) + 1 for q in rng.permutation(b.blocks.p))
        us = [random_unitary(rng, s) for s in b.blocks.sizes]
        report = check_bundle(b)
        for moved, names in ((relabelled(b, perm), perm),
                             (conjugated(b, us), range(1, b.blocks.p + 1)),
                             (relabelled(conjugated(b, us), perm), perm)):
            for row, other in zip(report, check_bundle(moved)):
                assert row.passed == other.passed, (seed, row, other)
                if not row.passed:
                    failing.add(row.axiom_id)
                    assert renamed(other.witness, names) == row.witness, (
                        seed, perm, row, other)
    assert failing >= {"fell.axiom.2", "fell.axiom.6"}


@pytest.mark.parametrize("shape", ["two", "three_m2", "two_unequal"])
def test_certified_summands_ignore_labels_and_bases(shape):
    k, m = SHAPES[shape]
    for seed in range(4):
        rng = np.random.default_rng([20261129, seed])
        b = bundle(*form_bundle(rng, k, m, "mixed"))
        perm = tuple(int(q) + 1 for q in rng.permutation(b.blocks.p))
        us = [random_unitary(rng, s) for s in b.blocks.sizes]
        form = normal_form(b)
        assert summands(form) == sorted(
            (tuple(np.array(k)[:, r].tolist()), mr) for r, mr in
            enumerate(m))
        report = check_bundle(b)
        assert report.find("fell.axiom.2").witness.startswith("certified:")
        for moved, names in ((relabelled(b, perm), perm),
                             (conjugated(b, us), None),
                             (relabelled(conjugated(b, us), perm), perm)):
            other = normal_form(moved)
            assert (other.bound <= DEFAULT_TOL.rel, other.spans) == (
                True, True)
            assert summands(other, names) == summands(form)
            assert_same_rows(report, check_bundle(moved), (seed, names))
            assert check_bundle(moved).find(
                "fell.axiom.2").witness.startswith("certified:")


def perturbed_triple(rng):
    """A four-sector triple of a random coupling (γ, ε and K present) or
    a triple of :func:`conftest.random_admissible_triple`, with one
    present operator moved by :func:`perturbation`."""
    if rng.random() < 0.5:
        l = int(rng.integers(1, 4))
        t = build_triple_from_mass_matrix(crandn(rng, l, l))
    else:
        t = random_admissible_triple(rng)
    ops = {name: getattr(t, name) for name in ("D", "gamma", "epsilon", "K")}
    present = [name for name, op in ops.items() if op is not None]
    name = present[int(rng.integers(len(present)))]
    ops[name] = ops[name] + perturbation(rng, ops[name].shape)
    return FiniteSpectralTriple(t.blocks, **ops)


def block_permuted(t, perm):
    """Block ``a`` of the result is block ``perm[a - 1]`` of ``t``: every
    operator conjugated by the permutation matrix that moves the blocks."""
    blocks = t.blocks
    index = np.concatenate([np.arange(blocks.total)[blocks.block_slice(q)]
                            for q in perm])
    moved = {name: None if op is None else op[np.ix_(index, index)]
             for name, op in (("D", t.D), ("gamma", t.gamma),
                              ("epsilon", t.epsilon), ("K", t.K))}
    return FiniteSpectralTriple(
        BlockStructure(tuple(blocks.sizes[q - 1] for q in perm)), **moved)


def test_triple_rows_ignore_block_order():
    verdicts = set()
    for seed in range(2 * len(SEEDS)):
        rng = np.random.default_rng([20261126, seed])
        t = perturbed_triple(rng)
        perm = tuple(int(q) + 1 for q in rng.permutation(t.blocks.p))
        report = check_triple(t)
        verdicts.add(report.all_passed)
        assert_same_rows(report, check_triple(block_permuted(t, perm)),
                         (seed, perm))
    assert verdicts == {True, False}

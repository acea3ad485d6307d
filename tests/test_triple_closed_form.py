"""The triple battery's algebra-unit rows against dense oracles.

``check_triple`` computes ``triple.even.algebra_commutes_gamma``,
``triple.real.opposite_algebra`` and the two commutant diagnostics in
closed form from rank-one matrix units; ``oracles.dense_unit_rows``
expands every unit into a dense matrix.  Both must give the same
residuals to rounding, the same decisions and, where the worst unit is
unique, the same witness.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import crandn, random_hermitian

from oracles import dense_unit_rows, unit_residuals

from ncg import (DEFAULT_TOL, BlockStructure, FiniteSpectralTriple,
                 build_triple_from_mass_matrix, check_triple)

LAYOUTS = [(1,), (1, 2, 2, 1), (3, 1, 2)] + [(l,) * 4 for l in range(1, 7)] \
    + [(2,) * 8]
# The algebra-unit row a perturbation of each operator moves.
THRESHOLD_ROW = {"gamma": "triple.even.algebra_commutes_gamma",
                 "K": "triple.real.opposite_algebra"}


def standard_triple(rng, sizes) -> FiniteSpectralTriple:
    """Block-alternating γ, a Hermitian D anticommuting with it and K the
    reversal permutation (block-compatible when ``sizes`` is a
    palindrome); the four-sector form for four equal blocks."""
    if len(sizes) == 4 and len(set(sizes)) == 1:
        return build_triple_from_mass_matrix(crandn(rng, sizes[0], sizes[0]))
    blocks = BlockStructure(sizes)
    signs = np.concatenate([np.full(s, (-1.0) ** i)
                            for i, s in enumerate(sizes)])
    D = random_hermitian(rng, blocks.total) * (signs[:, None] != signs)
    K = np.eye(blocks.total)[::-1]
    return FiniteSpectralTriple(blocks, D, np.diag(signs), None, K)


def generic_triple(rng, sizes) -> FiniteSpectralTriple:
    """Non-Hermitian γ and D and an invertible, non-unitary K."""
    n = sum(sizes)
    return FiniteSpectralTriple(BlockStructure(sizes), crandn(rng, n, n),
                                crandn(rng, n, n), None,
                                crandn(rng, n, n) + 2 * np.eye(n))


def assert_rows_agree(t, tol=DEFAULT_TOL):
    got = {c.axiom_id: c for c in check_triple(t, tol).checks}
    want = dense_unit_rows(t, tol)
    per_unit = unit_residuals(t)
    assert set(want) <= set(got)
    for axiom_id, expected in want.items():
        actual = got[axiom_id]
        assert actual.passed == expected.passed, axiom_id
        assert actual.advisory == expected.advisory, axiom_id
        assert abs(actual.residual - expected.residual) <= max(
            1e-12 * expected.residual, 1e-15), (
            axiom_id, actual.residual, expected.residual)
        values = np.sort(per_unit.get(axiom_id, np.zeros(2)))[::-1]
        if len(values) < 2 or values[0] > values[1] * (1 + 1e-9):
            assert actual.witness == expected.witness, axiom_id


@pytest.mark.parametrize("sizes", LAYOUTS, ids=str)
@pytest.mark.parametrize("make", [standard_triple, generic_triple],
                         ids=["standard", "generic"])
def test_closed_form_rows_match_dense_oracle(sizes, make):
    for seed in range(2):
        t = make(np.random.default_rng([seed, *sizes]), sizes)
        assert_rows_agree(t)


def _perturbed(t, operator, r, s, delta):
    m = getattr(t, operator).copy()
    m[r, s] += delta
    kwargs = dict(gamma=t.gamma, epsilon=t.epsilon, K=t.K)
    kwargs[operator] = m
    return FiniteSpectralTriple(t.blocks, t.D, **kwargs)


@pytest.mark.parametrize("sizes", [(1, 2, 2, 1), (2,) * 4, (3,) * 4,
                                   (2,) * 8], ids=str)
@pytest.mark.parametrize("operator", ["gamma", "K"])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_near_threshold_perturbation(sizes, operator, side):
    # γ or K perturbed by δ·E_rs, with δ chosen so the raw residual of
    # the row it moves sits at tol.bound(scale)·side.
    rng = np.random.default_rng([7, *sizes])
    t = standard_triple(rng, sizes)
    axiom_id = THRESHOLD_ROW[operator]
    assert dense_unit_rows(t)[axiom_id].residual == 0.0
    blocks = t.blocks
    probe = 1e-6
    for trial in range(3):
        slope = 0.0
        while slope == 0.0:
            # Entries that keep γ block-diagonal, or K a block
            # permutation, move nothing; draw again.
            r, s = (int(k) for k in rng.integers(blocks.total, size=2))
            slope = np.max(unit_residuals(
                _perturbed(t, operator, r, s, probe))[axiom_id]) / probe
        scale = (np.linalg.norm(t.gamma) if operator == "gamma" else 1.0)
        delta = DEFAULT_TOL.bound(scale) * side / slope
        near = _perturbed(t, operator, r, s, delta)
        raw = np.max(unit_residuals(near)[axiom_id])
        assert abs(raw / DEFAULT_TOL.bound(scale) - side) < 0.02
        assert dense_unit_rows(near)[axiom_id].passed == (side < 1)
        assert_rows_agree(near)


@pytest.mark.parametrize("scale", [1e-200, 1e60])
def test_rescaled_k_gives_the_same_rows(scale):
    # J b J⁻¹ is the same for every nonzero multiple of K, so the
    # algebra-unit rows must not move, however small or large K is.
    t = generic_triple(np.random.default_rng(11), (1, 2, 2, 1))
    scaled = FiniteSpectralTriple(t.blocks, t.D, t.gamma, None, scale * t.K)
    got = check_triple(scaled)
    for axiom_id, expected in dense_unit_rows(t).items():
        assert got.find(axiom_id).residual == pytest.approx(
            expected.residual, rel=1e-12)

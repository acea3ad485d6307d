"""Full bundles are accepted by theorem; every other bundle by the
exhaustive battery.

``category_from_bundle``, the bundle half of ``spectral_category``,
skips the battery when ``FellBundleFD.is_full``.  These seeded property
tests check, against the brute-force gate in ``oracles``, that the skip
never changes a decision: random full bundles with non-unit bases pass
every gating row, and a bundle one dimension short of full is refused by
both with the oracle's ids.
"""

import numpy as np
import pytest

from conftest import crandn, random_unitary
from oracles import BUNDLE_ROWS, failing_ids, fell_gate

from ncg import (AxiomRefusalError, BlockStructure, FellBundleFD,
                 SubspaceBasis, Tolerance, category_from_bundle,
                 full_morita_bundle, spectral_category)

SIZES = [(1,), (1, 2), (3, 1, 2), (2,) * 8, (6, 6, 6, 6)]


def _units(rows, cols):
    out = np.zeros((rows * cols, rows, cols), dtype=complex)
    for k in range(rows * cols):
        out[k, k // cols, k % cols] = 1.0
    return out


def random_full_bundle(rng, sizes) -> FellBundleFD:
    """Fibre ``(i, j) = u_i M_{n_i x n_j} u_j*`` for random unitaries
    ``u_i``, with a basis that is a random invertible recombination of the
    matrix units, scaled per fibre by a factor between 1e-6 and 1e6."""
    blocks = BlockStructure(sizes)
    us = [random_unitary(rng, s) for s in sizes]
    fibres = {}
    for i, j in blocks.arrows():
        ni, nj = sizes[i - 1], sizes[j - 1]
        mix = crandn(rng, ni * nj, ni * nj)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        basis = scale * np.einsum("ab,bij->aij", mix, _units(ni, nj))
        fibres[(i, j)] = SubspaceBasis(
            ni, nj, us[i - 1] @ basis @ us[j - 1].conj().T)
    return FellBundleFD(blocks, fibres)


def one_short(rng, b: FellBundleFD) -> FellBundleFD:
    """``b`` with the last basis element of one random fibre dropped."""
    arrows = b.blocks.arrows()
    g = arrows[int(rng.integers(len(arrows)))]
    fibres = dict(b.fibres)
    fibre = fibres[g]
    fibres[g] = SubspaceBasis(fibre.rows, fibre.cols, fibre.stack[:-1])
    return FellBundleFD(b.blocks, fibres)


# Two seeds per size; one for (6, 6, 6, 6), whose oracle takes seconds.
CASES = [(sizes, seed) for sizes in SIZES[:-1] for seed in (0, 1)] + [
    (SIZES[-1], 0)]


@pytest.mark.parametrize("sizes,seed", CASES)
def test_full_bundle_passes_the_oracle_and_both_gates(sizes, seed):
    rng = np.random.default_rng([20261018, seed, len(sizes)])
    b = random_full_bundle(rng, sizes)
    assert b.is_full
    assert failing_ids(fell_gate(b)) == []
    assert category_from_bundle(b) is b
    pl = np.eye(b.blocks.total, dtype=complex)
    assert spectral_category(b, pl).bundle is b


@pytest.mark.parametrize("sizes,seed", CASES)
def test_one_dimension_short_gets_the_oracle_refusal(sizes, seed):
    rng = np.random.default_rng([20261019, seed, len(sizes)])
    b = one_short(rng, random_full_bundle(rng, sizes))
    assert not b.is_full
    oracle = fell_gate(b)
    assert [c.axiom_id for c in oracle.checks] == list(BUNDLE_ROWS)

    expected = failing_ids(oracle)
    assert expected, "a short fibre must fail some bundle row"
    pl = np.eye(b.blocks.total, dtype=complex)
    for gate in (category_from_bundle,
                 lambda bundle: spectral_category(bundle, pl)):
        with pytest.raises(AxiomRefusalError,
                           match="not a full C\\*-category") as exc:
            gate(b)
        assert failing_ids(exc.value.report) == expected


def test_full_morita_bundle_is_full():
    assert full_morita_bundle(BlockStructure((3, 1, 2))).is_full


@pytest.mark.parametrize("rel,row", [(1e-17, "fell.axiom.2"),
                                     (0.5, "fell.saturated")])
def test_full_bundle_refused_by_the_oracle_is_accepted(rel, row):
    # Intended change: a relative tolerance below rounding makes the
    # oracle's residual rows fail on a full bundle with large basis
    # elements, and a loose one (0.5) makes its numerical rank drop
    # directions of the product span.  The fibres are still the whole
    # matrix spaces, so the gates accept.
    rng = np.random.default_rng(5)
    b = random_full_bundle(rng, (2, 3))
    tol = Tolerance(rel=rel)
    assert row in failing_ids(fell_gate(b, tol))
    category_from_bundle(b, tol)
    spectral_category(b, np.eye(5, dtype=complex), tol)

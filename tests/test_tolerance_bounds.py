"""Every row's pass/fail edge is ``raw ≤ Tolerance.bound(scale)``.

``report.residual_checks`` (one measurement) and ``report.worst_row``
(an array) must accept a raw residual at the bound and just below it,
refuse one just above, clamp a scale below 1 to 1, and let ``abs``
decide where it exceeds ``rel · scale``.  Hypothesis runs derandomised
over tolerances and scales.  ``worst_row`` must also agree with the
accumulator ``oracles.WorstResidual`` fed the same row in chunks, on
ties, zeros, empty rows and raws at the bound.  A planted
``fell.axiom.2`` violation then puts a real out-of-fibre component at the
bound ``· (1 ± 1e-6)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, Tolerance,
                 check_fell_axioms)
from ncg.report import residual_checks, worst_row
from oracles import WorstResidual

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=200)
SIDES = {"below": 1 - 1e-12, "at": 1.0, "above": 1 + 1e-12}

tolerances = st.builds(
    Tolerance,
    rel=st.floats(1e-17, 0.9),
    abs=st.one_of(st.just(0.0), st.floats(1e-300, 1e-3)))
scales = st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1e12))


def rows(tol, raw, scale):
    """Pass/fail and residual of one measurement and of a row of one."""
    single, = residual_checks(tol, ("row", raw, scale, "single"))
    batch = worst_row(tol, "row", np.array([raw]), np.array([scale]),
                      lambda i: "batch")
    return ((single.passed, single.residual),
            (batch.passed, batch.residual))


@PROPS
@given(tolerances, scales, st.sampled_from(sorted(SIDES)))
def test_the_edge_is_the_bound(tol, scale, side):
    bound = tol.bound(scale)
    raw = bound * SIDES[side]
    single, batch = rows(tol, raw, scale)
    assert single == batch
    assert single[0] == (side != "above")
    assert single[1] == raw / max(1.0, scale)


@PROPS
@given(tolerances, st.floats(0.0, 1.0))
def test_a_scale_below_one_counts_as_one(tol, scale):
    assert tol.bound(scale) == tol.bound(1.0) == max(tol.abs, tol.rel)
    for side, factor in SIDES.items():
        single, batch = rows(tol, tol.bound(1.0) * factor, scale)
        assert single[0] == batch[0] == (side != "above")


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("scale", [0.25, 1.0, 1e3])
def test_abs_decides_where_it_exceeds_rel_scale(scale, side):
    tol = Tolerance(rel=1e-15, abs=1e-9)
    assert tol.bound(scale) == 1e-9
    single, batch = rows(tol, 1e-9 * SIDES[side], scale)
    assert single[0] == batch[0] == (side != "above")


def test_a_batch_fails_on_any_row_past_its_own_bound():
    # Row 0, at the abs bound, has the worst relative residual and
    # passes; row 1 has a far smaller one but is past rel · scale.
    tol = Tolerance(rel=1e-9, abs=1e-6)
    row = worst_row(tol, "row", np.array([1e-6, 2e-5]), np.array([1.0, 1e4]),
                    lambda i: f"row {i}")
    assert not row.passed
    assert (row.residual, row.witness) == (1e-6, "row 0")


@st.composite
def chunked_rows(draw):
    """A tolerance, the raws and scales of one row and its cut into
    chunks listed in a shuffled order.  Elements are exact ties (one raw
    at one scale), zeros, raws at ``bound · (1 ± 1e-12)`` or free; scales
    reach below 1; the row may be empty."""
    tol = draw(tolerances)
    tie = (draw(st.floats(0.0, 1e3)), draw(scales))
    raws, row_scales = [], []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["tie", "zero", "below", "above",
                                     "free"]))
        raw, scale = tie if kind == "tie" else (None, draw(scales))
        if kind == "zero":
            raw = 0.0
        elif kind in ("below", "above"):
            raw = tol.bound(scale) * (1 + (1e-12 if kind == "above"
                                           else -1e-12))
        elif kind == "free":
            raw = draw(st.floats(0.0, 1e3))
        raws.append(raw)
        row_scales.append(scale)
    cuts = sorted(draw(st.sets(st.integers(1, max(len(raws) - 1, 1)))))
    bounds = [0, *(c for c in cuts if c < len(raws)), len(raws)]
    chunks = [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
    return (tol, np.array(raws), np.array(row_scales),
            draw(st.permutations(chunks)))


@PROPS
@given(chunked_rows())
def test_the_row_rule_matches_the_chunked_accumulator(case):
    # The library's runs write their chunks at the row's places in any
    # order; the accumulator takes the chunks in report order, so its
    # witness is the first worst element.  Fed in the shuffled order it
    # keeps the pass verdict and the residual, and names a worst element.
    tol, raws, row_scales, shuffled = case
    placed_raws, placed_scales = np.full((2, len(raws)), np.nan)
    for chunk in shuffled:
        placed_raws[chunk] = raws[chunk]
        placed_scales[chunk] = row_scales[chunk]
    row = worst_row(tol, "row", placed_raws, placed_scales, str, "none")
    in_order, in_shuffle = WorstResidual(tol), WorstResidual(tol)
    for chunk in sorted(shuffled, key=lambda c: c.start):
        in_order.update_batch(raws[chunk], row_scales[chunk],
                              lambda q, c=chunk: str(c.start + q))
    for chunk in shuffled:
        in_shuffle.update_batch(raws[chunk], row_scales[chunk],
                                lambda q, c=chunk: str(c.start + q))
    oracle = in_order.check("row", "none")
    assert (row.passed, row.residual, row.witness) == (
        oracle.passed, oracle.residual, oracle.witness)
    assert (in_shuffle.passed, in_shuffle.residual) == (
        oracle.passed, oracle.residual)
    if row.residual:
        q = int(in_shuffle.witness)
        assert raws[q] / max(1.0, row_scales[q]) == row.residual


def leaking_bundle(s, t):
    """Blocks (2, 1): fibre (1,1) = span{s E_11}, fibre (1,2) = span{v}
    with ``v = (1, t)ᵀ``.  The product ``s E_11 v = (s, 0)ᵀ`` leaves
    span{v} by ``r = s t / √(1 + t²)``, with Frobenius norm ``s``.  A
    rounding error ``δ`` along v, orthogonal to the leak, moves the
    residual only by about ``δ² / (2r)``."""
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = s
    return FellBundleFD(BlockStructure((2, 1)), {
        (1, 1): SubspaceBasis(2, 2, [e11]),
        (1, 2): SubspaceBasis(2, 1, [np.array([[1.0], [t]])]),
        (2, 2): SubspaceBasis(1, 1, [[[1.0]]])})


@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("s,tol", [
    (1.0, Tolerance()),                      # rel · 1
    (1e3, Tolerance()),                      # rel · scale
    (0.5, Tolerance(rel=1e-6)),              # scale clamped to 1
    (10.0, Tolerance(rel=1e-15, abs=1e-10)),  # abs above rel · scale
])
def test_planted_closure_leak_at_the_bound(s, tol, side):
    raw = tol.bound(s) * side
    r = raw / s
    b = leaking_bundle(s, r / np.sqrt(1.0 - r * r))
    row = check_fell_axioms(b, tol).find("fell.axiom.2")
    assert row.passed == (side < 1)
    assert row.witness.startswith("basis 0 of (1, 1) x basis 0 of (1, 2)")
    assert row.residual == pytest.approx(raw / max(1.0, s), rel=1e-9)

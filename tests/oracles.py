"""Brute-force oracles for the fast paths of ``ncg``.

Each oracle decides a question the slow, obvious way, so that a property
test can compare it with the shortcut the library takes.

``fell_gate`` is the exhaustive bundle gate: the ten Fell axioms,
saturation and unitality, run on every bundle whatever its fibre
dimensions.  ``category_from_bundle`` must refuse exactly the bundles
whose axiom or unitality rows (``CATEGORY_ROWS``) fail here, and
``fell_bundle_triple`` on the first failure of saturation, then
unitality (``TRIPLE_ROWS``).  Both accept full bundles without running
the battery, so on those this gate must pass every row.

``dense_unit_rows`` decides the four algebra-unit rows of the triple
battery by expanding every matrix unit into a dense ``n x n`` matrix and
conjugating it by ``J``; the battery computes the same rows in closed
form from rank-one matrix units.
"""

from __future__ import annotations

import numpy as np

from ncg.fellbundle import (BlockStructure, FellBundleFD, check_fell_axioms,
                            check_saturated, check_unital)
from ncg.matops import DEFAULT_TOL, Tolerance, frobenius
from ncg.report import AxiomCheck, AxiomReport, WorstResidual
from ncg.sptriple import FiniteSpectralTriple

CATEGORY_ROWS = tuple(f"fell.axiom.{k}" for k in range(1, 11)) + (
    "fell.unital",)
TRIPLE_ROWS = ("fell.saturated", "fell.unital")


def fell_gate(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Every gating row, decided exhaustively."""
    return AxiomReport(check_fell_axioms(b, tol).checks
                       + (check_saturated(b, tol), check_unital(b, tol)))


def failing_ids(report: AxiomReport, rows=None) -> list[str]:
    """Ids of the failing gating rows, optionally restricted to ``rows``,
    in report order."""
    return [c.axiom_id for c in report.checks
            if not c.advisory and not c.passed
            and (rows is None or c.axiom_id in rows)]


def unit_stack(blocks: BlockStructure) -> np.ndarray:
    """Dense ``(u, n, n)`` stack of the algebra's matrix units."""
    rows, cols = blocks.unit_indices()
    units = np.zeros((len(rows), blocks.total, blocks.total), dtype=complex)
    units[np.arange(len(rows)), rows, cols] = 1.0
    return units


def unit_residuals(t: FiniteSpectralTriple) -> dict[str, np.ndarray]:
    """Per algebra unit, in ``unit_indices`` order: ``‖[E_a, γ]‖`` and
    the off-block-diagonal norm of ``K conj(E_a) K⁻¹``, keyed by the row
    they decide (a row whose operator is absent is omitted)."""
    units = unit_stack(t.blocks)
    out = {}
    if t.gamma is not None:
        comm = np.einsum("aij,jk->aik", units, t.gamma) \
            - np.einsum("ij,ajk->aik", t.gamma, units)
        out["triple.even.algebra_commutes_gamma"] = np.linalg.norm(
            comm.reshape(comm.shape[0], -1), axis=1)
    if t.K is not None:
        out["triple.real.opposite_algebra"] = np.array([
            np.linalg.norm(c - t.blocks.block_diagonal_part(c))
            for c in opposite_stack(t)])
    return out


def opposite_stack(t: FiniteSpectralTriple) -> np.ndarray:
    """``J E_a J⁻¹ = K conj(E_a) K⁻¹`` for every algebra unit, dense."""
    return np.matmul(np.matmul(t.K, np.conj(unit_stack(t.blocks))),
                     np.linalg.inv(t.K))


def dense_unit_rows(t: FiniteSpectralTriple,
                    tol: Tolerance = DEFAULT_TOL) -> dict[str, AxiomCheck]:
    """``triple.even.algebra_commutes_gamma``, ``triple.real.opposite_algebra``
    and the two commutant diagnostics, keyed by id, from dense unit stacks
    (rows whose operator is absent are omitted)."""
    per_unit = unit_residuals(t)
    out = {}
    witnesses = {"triple.even.algebra_commutes_gamma": "[a, γ]",
                 "triple.real.opposite_algebra": "J b J⁻¹"}
    for axiom_id, values in per_unit.items():
        gamma_row = axiom_id == "triple.even.algebra_commutes_gamma"
        scale = frobenius(t.gamma) if gamma_row else 1.0
        row = WorstResidual(tol)
        for a, value in enumerate(values):
            row.update(float(value), scale,
                       f"{witnesses[axiom_id]} for algebra unit {a}")
        out[axiom_id] = row.check(
            axiom_id, "" if gamma_row
            else "conjugation by J stays block-diagonal")
    if t.K is None:
        return out
    zeroth, first = bimodule_diagnostics(t.D, opposite_stack(t), t.blocks)
    out["triple.real.zeroth_order_commutant"] = AxiomCheck(
        "triple.real.zeroth_order_commutant", zeroth <= tol.bound(1.0),
        zeroth, "diagnostic: worst ‖[a, J b J⁻¹]‖ over algebra unit pairs",
        advisory=True)
    first_scale = max(1.0, frobenius(t.D))
    out["triple.real.first_order_commutant"] = AxiomCheck(
        "triple.real.first_order_commutant", first <= tol.bound(first_scale),
        first / first_scale,
        "diagnostic: worst ‖[[D, a], J b J⁻¹]‖ over algebra unit pairs",
        advisory=True)
    return out


def bimodule_diagnostics(D: np.ndarray, opposite: np.ndarray,
                         blocks: BlockStructure) -> tuple[float, float]:
    """Worst-case norms of ``[E_rs, c]`` and ``[[D, E_rs], c]`` over all
    algebra units ``E_rs`` and all ``c`` in ``opposite``.

    ``[E_rs, c] = e_r c[s,:] - c[:,r] e_s^T`` and, with
    ``[D, E_rs] = D[:,r] e_s^T - e_r D[s,:]``,
    ``[[D, E_rs], c] = D[:,r] c[s,:] - e_r (Dc)[s,:] - (cD)[:,r] e_s^T
    + c[:,r] D[s,:]``; each commutator is summed as a dense matrix, one
    per unit, and its Frobenius norm taken directly.
    """
    n = D.shape[0]
    rows, cols = blocks.unit_indices()
    e_r = np.eye(n)[rows]
    e_s = np.eye(n)[cols]

    def norms(*terms):
        total = sum(sign * x[:, :, None] * y[:, None, :]
                    for sign, x, y in terms)
        return np.linalg.norm(total.reshape(len(rows), -1), axis=1)

    zeroth = first = 0.0
    for c in opposite:
        zeroth = max(zeroth, float(norms((1, e_r, c[cols]),
                                         (-1, c[:, rows].T, e_s)).max()))
        first = max(first, float(norms(
            (1, D[:, rows].T, c[cols]), (-1, e_r, (D @ c)[cols]),
            (-1, (c @ D)[:, rows].T, e_s), (1, c[:, rows].T, D[cols])).max()))
    return zeroth, first

"""Brute-force oracles for the fast paths of ``ncg``.

Each oracle decides a question the slow, obvious way, so that a property
test can compare it with the shortcut the library takes.

``fell_gate`` is the exhaustive bundle gate: the ten Fell axioms,
saturation and unitality, run on every bundle whatever its fibre
dimensions.  Its rows ``fell.axiom.4`` and ``fell.saturated`` come from
``all_products_submultiplicativity`` and ``all_products_saturation``
(``exhaustive_rows``), which take the SVD of every basis product and of
every product span; the library skips the SVDs whose outcome a norm
bound already decides.
``category_from_bundle`` must refuse exactly the bundles whose axiom or
unitality rows (``CATEGORY_ROWS``) fail here, and
``fell_bundle_triple`` on the first failure of saturation, then
unitality (``TRIPLE_ROWS``).  Both accept full bundles without running
the battery, so on those this gate must pass every row.

``dense_unit_rows`` decides the four algebra-unit rows of the triple
battery by expanding every matrix unit into a dense ``n x n`` matrix and
conjugating it by ``J``; the battery computes the same rows in closed
form from rank-one matrix units.

``dense_convergence_rows`` and ``dense_covariance_residual`` run the
lattice sweeps on the explicit ``n x n`` matrices of
``flat_lattice_dirac`` and ``gauge_unitary``; the library applies the
same operators as an O(n) stencil and a phase vector.

``indented_json`` is the text ``matops.write_json`` reproduces from
``%r`` templates, and ``matrix_to_json_loop`` is the per-cell matrix
encoder that the array encoder replaced.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ncg.climit import LatticeConfig, flat_lattice_dirac, gauge_unitary
from ncg.fellbundle import (BlockStructure, FellBundleFD, _basis_products,
                            check_bundle)
from ncg.matops import DEFAULT_TOL, Tolerance, frobenius, numerical_rank
from ncg.report import AxiomCheck, AxiomReport, WorstResidual
from ncg.sptriple import FiniteSpectralTriple

CATEGORY_ROWS = tuple(f"fell.axiom.{k}" for k in range(1, 11)) + (
    "fell.unital",)
TRIPLE_ROWS = ("fell.saturated", "fell.unital")


def fell_gate(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Every gating row, decided exhaustively."""
    return exhaustive_rows(check_bundle(b, tol), b, tol)


def exhaustive_rows(report: AxiomReport, b: FellBundleFD,
                    tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """``report`` on ``b`` with its rows ``fell.axiom.4`` and
    ``fell.saturated`` decided by the SVD of every basis product and of
    every product span."""
    oracles = {"fell.axiom.4": all_products_submultiplicativity,
               "fell.saturated": all_products_saturation}
    return AxiomReport(tuple(
        oracles[c.axiom_id](b, tol) if c.axiom_id in oracles else c
        for c in report.checks))


def _product_stacks(b: FellBundleFD):
    """``(g, h, products)`` for every composable pair of arrows whose
    fibres are both nonzero, products of basis elements in row-major
    ``(a, c)`` order.  They come from the library's product kernel, so
    that the rows compare a certificate with the SVD of the same bits;
    ``test_basis_products`` pins the kernel itself."""
    p = b.blocks.p
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                e1, e2 = b.fibres[(i, j)], b.fibres[(j, k)]
                if e1.dim and e2.dim:
                    yield (i, j), (j, k), _basis_products(e1.stack,
                                                          e2.stack)


def all_products_submultiplicativity(
        b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.axiom.4`` from the operator norm of every basis product."""
    opnorms = {g: np.linalg.svd(f.stack, compute_uv=False)[:, 0]
               for g, f in b.fibres.items() if f.dim}
    row = WorstResidual(tol)
    for g, h, prods in _product_stacks(b):
        bound = np.outer(opnorms[g], opnorms[h]).reshape(-1)
        norms = np.linalg.svd(prods, compute_uv=False)[:, 0]
        dim_h = b.fibres[h].dim
        row.update_batch(
            np.maximum(0.0, norms - bound), bound,
            lambda idx, g=g, h=h, dim_h=dim_h:
            f"basis {idx // dim_h} of {g} x basis {idx % dim_h} of {h}")
    return row.check("fell.axiom.4", "‖e1 e2‖ ≤ ‖e1‖ ‖e2‖ on all basis pairs")


def all_products_saturation(b: FellBundleFD,
                            tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.saturated`` from the numerical rank of every product span."""
    spans = {(g, h): numerical_rank(prods.reshape(len(prods), -1), tol.rel)
             for g, h, prods in _product_stacks(b)}
    worst, witness = 0, ""
    p = b.blocks.p
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                dim = b.fibres[(i, k)].dim
                rank = spans.get(((i, j), (j, k)), 0)
                if dim - rank > worst:
                    worst = dim - rank
                    witness = (f"products of {(i, j)} x {(j, k)} span "
                               f"{rank} of the {dim} dimensions of fibre "
                               f"{(i, k)}")
    return AxiomCheck("fell.saturated", worst == 0, float(worst),
                      witness or "every product span is total")


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


def exact_matvec(m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``m @ f`` with each row summed elementwise.

    A BLAS matrix-vector product may fuse a multiply into the running
    sum, so its rounding depends on ``n`` and on the BLAS build: with
    OpenBLAS 0.3.31 on x86_64, ``flat_lattice_dirac(cfg) @ f`` for the
    constant profile 2.7 is exactly zero at n = 8, 16, 32, 64 but
    4.4e-16 at n = 9 and 1.3e-15 at n = 31.
    Here the products are formed first and the exact zeros add nothing,
    so each entry of ``D f`` is the two-term sum, rounded once.
    """
    return (m * f).sum(axis=1)


def dense_convergence_rows(profile, ns, theta=None, matvec=np.matmul):
    """``(n, flat_error, fluct_error, order)`` for each size, as
    ``convergence_report`` defines them, from the explicit operators
    (no input validation)."""
    rows = []
    previous = previous_n = None
    for n in ns:
        cfg = LatticeConfig(n)
        dirac = flat_lattice_dirac(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            f = profile.sample(cfg)
            target_flat = -1j * profile.derivative(cfg)
            flat = float(np.max(np.abs(matvec(dirac, f) - target_flat)))
            fluct = None
            if theta is not None:
                u = gauge_unitary(theta, cfg)
                target = target_flat - theta.derivative(cfg) * f
                fluct = float(np.max(np.abs(
                    matvec(u @ dirac @ u.conj().T, f) - target)))
        primary = flat if fluct is None else fluct
        order = None
        if previous is not None and previous > 0 and primary > 0:
            order = math.log(previous / primary) / math.log(n / previous_n)
        rows.append((n, flat, fluct, order))
        previous, previous_n = primary, n
    return rows


def dense_covariance_residual(cfg, theta, f) -> float:
    """``max |(U D U*)(U f) - U (D f)|`` from the explicit matrices."""
    d = flat_lattice_dirac(cfg)
    u = gauge_unitary(theta, cfg)
    fvals = f.sample(cfg)
    lhs = (u @ d @ u.conj().T) @ (u @ fvals)
    return float(np.max(np.abs(lhs - u @ (d @ fvals))))


def indented_json(obj) -> str:
    """The document text every ``ncg`` output file and JSON report has."""
    return json.dumps(obj, indent=2, sort_keys=True)


def matrix_to_json_loop(m) -> list:
    """Rows of ``[re, im]`` pairs, one Python float per part."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]

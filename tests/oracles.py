"""Brute-force oracles for the fast paths of ``ncg``.

Each oracle decides a question the slow, obvious way, so that a property
test can compare it with the shortcut the library takes.

``fell_gate`` is the numeric bundle gate: the ten Fell axioms,
saturation and unitality, run on every bundle whatever its fibre
dimensions.  ``check_bundle`` decides ``fell.axiom.3``, ``4``, ``7``,
``8``, ``9`` and ``10`` by theorem, as identities of matrix algebra;
here ``theorem_rows`` computes them the numeric way: associativity on
seeded random elements, the SVD of every basis product, ``e** = e``, the
adjoint-side products of the antihomomorphism, and the SVD and
eigenvalues of every ``e* e``.  ``check_bundle`` also decides closure
into a full fibre by theorem; here ``all_products_closure`` projects
every basis product on its target fibre, full or not.  The library
measures a product's distance from a fibre at least half full through
the fibre's orthogonal complement, exactly 0 for a full one, and batches
the products of one shape class of pairs; ``projection_residuals`` keeps the
projection ``‖p - V̄ᵀ(V̄ p)‖`` on the fibre's orthonormal basis ``V``
for every fibre, and ``all_products_closure``, ``all_adjoints_involution``
and ``all_identities_unital`` decide ``fell.axiom.2``, ``fell.axiom.6``
and ``fell.unital`` by it, pair by pair.  The gate's row
``fell.saturated`` comes from
``all_products_saturation`` (``exhaustive_rows``), which takes the SVD of
every product span; the library skips the SVDs whose outcome a Gram
certificate already decides.  ``check_bundle`` decides closure and
saturation from a verified normal form where one is found;
``declined_report`` is its report with that certificate declined, the
battery that measures every pair.
``category_from_bundle``, and through it ``spectral_category``, must
refuse exactly the bundles for which one of the twelve rows of
``check_bundle`` (``BUNDLE_ROWS``) fails here, listing every failing
one.  Both accept full bundles without running the battery, so on those
this gate must pass every row.

``is_normaliser_bruteforce`` tests ``b* A b ⊆ A`` and ``b A b* ⊆ A``
on every matrix unit of ``A``, the question ``normaliser_support``
answers from block norms; ``loop_block_norms`` takes those norms block by
block, as ``BlockStructure.block_norms`` does by two reductions.
``linking_algebra`` assembles every fibre basis element of a bundle into
``M_n(C)``.  ``loop_domain_section`` decides a self-adjoint domain section
column by column, the question ``section_checks`` answers from
``block_support`` and one ``‖σ - σ*‖``.

The constructions at the end are used by the tests alone: one block
embedded in ``M_n(C)``, the pair groupoid as an object with arrow
composition and inverses (``PairGroupoid``; the library lists its arrows
as the index pairs ``BlockStructure.arrows()``), its global bisections
(``Bisection``) with their enumerations and products, the semidirect (unitary-transport) presentation of the
full bundle, the lift of a global bisection to a unitary normaliser, the
operator norm and the spectrum of a Hermitian matrix.

``WorstResidual`` accumulates one row measurement by measurement or
batch by batch, the way the oracles here and the tests' chunked
comparisons with ``report.worst_row`` feed it.

``dense_unit_rows`` decides the two algebra-unit rows of the triple
battery by expanding every matrix unit into a dense ``n x n`` matrix and
conjugating it by ``J``; the battery computes the same rows in closed
form from rank-one matrix units.

``dense_convergence_rows`` and ``dense_covariance_residual`` run the
lattice sweeps on the explicit ``n x n`` matrices of
``flat_lattice_dirac`` and ``gauge_unitary``; the library applies the
same operators as an O(n) stencil and a phase vector.

``svd_basis`` builds a basis the way ``SubspaceBasis`` does for an
explicit stack, by the SVD of its unit rows, also for the matrix units,
which the library recognises and takes as their own orthonormal basis.

``indented_json`` is the text ``matops.write_json`` reproduces from
``%r`` templates, and ``nested_lists`` spells a document's arrays entry
by entry, as the writer's one ``tolist()`` per array must.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from ncg.climit import LatticeConfig, flat_lattice_dirac, gauge_unitary
from ncg.errors import InputError, ShapeError
from ncg.fellbundle import (Arrow, BlockStructure, FellBundleFD, NormalForm,
                            _basis_products, _matrix_units, _ShapeClasses,
                            check_bundle, check_fell_axioms, check_saturated,
                            check_unital)
from ncg.matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, adjoint,
                        as_matrix, frobenius, numerical_rank, require_unitary,
                        unit_rows)
from ncg.report import AxiomCheck, AxiomReport
from ncg.sptriple import FiniteSpectralTriple

BUNDLE_ROWS = tuple(f"fell.axiom.{k}" for k in range(1, 11)) + (
    "fell.saturated", "fell.unital")
THEOREM_ROWS = tuple(f"fell.axiom.{k}" for k in (3, 4, 7, 8, 9, 10))
# Samples of the associativity spot check, as the numeric row drew them.
SPOT_CHECK_SEED = 20260810
SPOT_CHECK_LIMIT = 48


class WorstResidual:
    """Track the worst relative residual of one report row and its
    witness."""

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.residual = 0.0
        self.witness = ""
        self.passed = True

    def update(self, raw: float, scale: float, witness: str):
        rel = raw / max(1.0, scale)
        if rel > self.residual:
            self.residual = rel
            self.witness = witness
        if raw > self.tol.bound(scale):
            self.passed = False

    def update_batch(self, raws, scales, witness_fn):
        raws = np.asarray(raws, dtype=float)
        if raws.size == 0:
            return
        scales = np.maximum(1.0, np.asarray(scales, dtype=float))
        rels = raws / scales
        idx = int(np.argmax(rels))
        if rels[idx] > self.residual:
            self.residual = float(rels[idx])
            self.witness = witness_fn(idx)
        bounds = np.maximum(self.tol.abs, self.tol.rel * scales)
        if np.any(raws > bounds):
            self.passed = False

    def check(self, axiom_id: str, default_witness: str = "") -> AxiomCheck:
        return AxiomCheck(axiom_id, self.passed, self.residual,
                          self.witness or default_witness)


def fell_gate(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Every gating row, decided numerically and exhaustively."""
    return _replaced(check_bundle(b, tol), theorem_rows(b, tol)
                     + (all_products_closure(b, tol),
                        all_adjoints_involution(b, tol),
                        all_products_saturation(b, tol),
                        all_identities_unital(b, tol)))


def declined_report(b: FellBundleFD,
                    tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """:func:`check_bundle` with the normal-form certificate declined:
    closure and saturation measured by the battery on every bundle."""
    declined = NormalForm(_ShapeClasses(b))
    return AxiomReport(check_fell_axioms(b, tol, declined).checks + (
        check_saturated(b, tol, declined), check_unital(b, tol)))


def projection_residuals(basis: SubspaceBasis,
                         stack: np.ndarray) -> np.ndarray:
    """Distance of each element of a ``(k, rows, cols)`` stack from the
    span of ``basis``: the norm of what its orthogonal projection on the
    orthonormal basis leaves, whatever the dimension of the span."""
    flat = stack.reshape(len(stack), basis.rows * basis.cols)
    onb = basis._vh[:basis.dim]
    coords = flat @ onb.conj().T
    return np.linalg.norm(flat - coords @ onb, axis=1)


def exhaustive_rows(report: AxiomReport, b: FellBundleFD,
                    tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """``report`` on ``b`` with its row ``fell.saturated`` decided by the
    SVD of every product span."""
    return _replaced(report, (all_products_saturation(b, tol),))


def _replaced(report: AxiomReport, rows) -> AxiomReport:
    by_id = {c.axiom_id: c for c in rows}
    return AxiomReport(tuple(by_id.get(c.axiom_id, c) for c in report.checks))


def _product_stacks(b: FellBundleFD, unit: bool = False):
    """``(g, h, products)`` for every composable pair of arrows whose
    fibres are both nonzero, products of basis elements in row-major
    ``(a, c)`` order, with ``unit`` of the bases scaled to unit norm.
    They come from the library's product kernel, so that the rows compare
    a certificate with the SVD of the same bits; ``test_basis_products``
    pins the kernel itself."""
    stacks = {g: unit_rows(f.stack) if unit else f.stack
              for g, f in b.fibres.items()}
    p = b.blocks.p
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                if b.fibres[(i, j)].dim and b.fibres[(j, k)].dim:
                    yield (i, j), (j, k), _basis_products(stacks[(i, j)],
                                                          stacks[(j, k)])


def _pair_witness(b: FellBundleFD, g, h):
    dim_h = b.fibres[h].dim
    return lambda idx: (f"basis {idx // dim_h} of {g} x basis "
                        f"{idx % dim_h} of {h}")


def _composable_triples(p: int):
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                for l in range(1, p + 1):
                    yield (i, j), (j, k), (k, l)


def theorem_rows(b: FellBundleFD,
                 tol: Tolerance = DEFAULT_TOL) -> tuple[AxiomCheck, ...]:
    """``fell.axiom.3``, ``4``, ``7``, ``8``, ``9`` and ``10``, computed
    numerically in floating point, in report order."""
    fibres = {g: f for g, f in b.fibres.items() if f.dim}
    stacks = {g: f.stack for g, f in fibres.items()}
    adjoints = {g: np.conj(np.swapaxes(x, 1, 2)) for g, x in stacks.items()}
    fronorms = {g: np.linalg.norm(x.reshape(len(x), -1), axis=1)
                for g, x in stacks.items()}
    opnorms = {g: np.linalg.svd(x, compute_uv=False)[:, 0]
               for g, x in stacks.items()}

    # 3: associativity on seeded random elements of composable triples.
    rng = np.random.default_rng(SPOT_CHECK_SEED)
    assoc = WorstResidual(tol)
    count = 0
    for g, h, k in _composable_triples(b.blocks.p):
        if count >= SPOT_CHECK_LIMIT:
            break
        if not (g in fibres and h in fibres and k in fibres):
            continue
        x, y, z = (np.tensordot(rng.standard_normal(fibres[a].dim),
                                stacks[a], axes=1) for a in (g, h, k))
        raw = frobenius((x @ y) @ z - x @ (y @ z))
        scale = frobenius(x) * frobenius(y) * frobenius(z)
        assoc.update(raw, scale, f"random elements over {g}, {h}, {k}")
        count += 1

    # 8: (e1 e2)* = e2* e1*, both sides by GEMM; the right side comes in
    # (c, a) order and its residuals are put back in (a, c) order.
    antihom = WorstResidual(tol)
    for g, h, prods in _product_stacks(b):
        d1, d2 = fibres[g].dim, fibres[h].dim
        rhs = _basis_products(adjoints[h], adjoints[g])
        lhs = np.conj(prods.reshape(d1, d2, fibres[g].rows, fibres[h].cols)
                      .transpose(1, 0, 3, 2))
        raws = np.linalg.norm((lhs - rhs.reshape(lhs.shape)).reshape(
            len(rhs), -1), axis=1).reshape(d2, d1).T.reshape(-1)
        antihom.update_batch(raws, np.outer(fronorms[g], fronorms[h])
                             .reshape(-1), _pair_witness(b, g, h))

    # 7, 9, 10: e** = e, ‖e* e‖ = ‖e‖² and e* e ≥ 0 on every element.
    invol2 = WorstResidual(tol)
    cstar = WorstResidual(tol)
    positive = WorstResidual(tol)
    for g in sorted(fibres):
        def witness(idx, g=g):
            return f"basis {idx} of fibre {g}"

        double = np.conj(np.swapaxes(adjoints[g], 1, 2))
        invol2.update_batch(
            np.linalg.norm((double - stacks[g]).reshape(len(double), -1),
                           axis=1), fronorms[g], witness)
        grams = np.matmul(adjoints[g], stacks[g])
        squares = opnorms[g] ** 2
        cstar.update_batch(
            np.abs(np.linalg.svd(grams, compute_uv=False)[:, 0] - squares),
            squares, witness)
        positive.update_batch(
            np.maximum(0.0, -np.linalg.eigvalsh(grams)[:, 0]), squares,
            witness)

    return (assoc.check("fell.axiom.3",
                        "analytic, verified on sampled elements"),
            all_products_submultiplicativity(b, tol, opnorms),
            invol2.check("fell.axiom.7", "e** = e on every basis element"),
            antihom.check("fell.axiom.8", "(e1 e2)* = e2* e1*"),
            cstar.check("fell.axiom.9", "‖e* e‖ = ‖e‖²"),
            positive.check("fell.axiom.10", "e* e ≥ 0"))


def all_products_submultiplicativity(
        b: FellBundleFD, tol: Tolerance = DEFAULT_TOL,
        opnorms=None) -> AxiomCheck:
    """``fell.axiom.4`` from the operator norm of every basis product."""
    if opnorms is None:
        opnorms = {g: np.linalg.svd(f.stack, compute_uv=False)[:, 0]
                   for g, f in b.fibres.items() if f.dim}
    row = WorstResidual(tol)
    for g, h, prods in _product_stacks(b):
        bound = np.outer(opnorms[g], opnorms[h]).reshape(-1)
        norms = np.linalg.svd(prods, compute_uv=False)[:, 0]
        row.update_batch(np.maximum(0.0, norms - bound), bound,
                         _pair_witness(b, g, h))
    return row.check("fell.axiom.4", "‖e1 e2‖ ≤ ‖e1‖ ‖e2‖ on all basis pairs")


def all_products_closure(b: FellBundleFD,
                         tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.axiom.2`` from the projection of every basis product on its
    target fibre, a full one included, one pair at a time."""
    closure = WorstResidual(tol)
    for g, h, prods in _product_stacks(b):
        gh = (g[0], h[1])
        pair = _pair_witness(b, g, h)
        closure.update_batch(
            projection_residuals(b.fibres[gh], prods),
            np.linalg.norm(prods.reshape(prods.shape[0], -1), axis=1),
            lambda idx, pair=pair, gh=gh: f"{pair(idx)} leaves fibre {gh}")
    return closure.check("fell.axiom.2",
                         "all basis products stay in their fibre")


def all_adjoints_involution(b: FellBundleFD,
                            tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.axiom.6`` from the projection of the adjoint of every basis
    element on the reversed fibre."""
    invol = WorstResidual(tol)
    for g in b.blocks.arrows():
        stack = b.fibres[g].stack
        if len(stack):
            invol.update_batch(
                projection_residuals(b.fibres[(g[1], g[0])],
                                     np.conj(np.swapaxes(stack, 1, 2))),
                np.linalg.norm(stack.reshape(len(stack), -1), axis=1),
                lambda idx, g=g: f"adjoint of basis {idx} of fibre {g}")
    return invol.check("fell.axiom.6", "adjoint of every basis element lies "
                                       "in the reversed fibre")


def all_identities_unital(b: FellBundleFD,
                          tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.unital`` from the projection of each identity matrix on its
    diagonal fibre."""
    worst = WorstResidual(tol)
    for i, size in enumerate(b.blocks.sizes, start=1):
        raw = projection_residuals(b.fibres[(i, i)],
                                   np.eye(size, dtype=complex)[None])[0]
        worst.update(float(raw), float(np.sqrt(size)),
                     f"identity of diagonal fibre ({i},{i})")
    return worst.check("fell.unital", "every diagonal fibre is unital")


def all_products_saturation(b: FellBundleFD,
                            tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """``fell.saturated`` from the numerical rank of every product span,
    the products formed from the bases scaled to unit norm."""
    spans = {(g, h): numerical_rank(prods.reshape(len(prods), -1), tol.rel)
             for g, h, prods in _product_stacks(b, unit=True)}
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


def linking_algebra(b: FellBundleFD) -> SubspaceBasis:
    """Assemble every fibre basis element into its block position inside
    ``M_n(C)``.

    The result spans the bundle's sectional algebra; for the full bundle
    this is all of ``M_n(C)``.  When the bundle passes the axioms the span
    is closed under products and adjoints.
    """
    n = b.blocks.total
    mats = []
    for g in b.blocks.arrows():
        for e in b.fibres[g].stack:
            mats.append(embed_block(b.blocks, g[0], g[1], e))
    return SubspaceBasis(n, n, mats)


def is_normaliser_bruteforce(bmat, blocks: BlockStructure,
                             tol: Tolerance = DEFAULT_TOL) -> bool:
    """Direct test of ``b* A b ⊆ A`` and ``b A b* ⊆ A``.

    Runs over every matrix unit of the block-diagonal algebra and measures
    the off-block-diagonal leakage of the two sandwiches.
    """
    n = blocks.total
    m = as_matrix(bmat, "is_normaliser_bruteforce", (n, n))
    madj = adjoint(m)
    scale = max(1.0, frobenius(m)) ** 2
    bound = tol.bound(scale)
    for a in unit_stack(blocks):
        for sandwich in (madj @ a @ m, m @ a @ madj):
            leak = frobenius(sandwich - blocks.block_diagonal_part(sandwich))
            if leak > bound:
                return False
    return True


def loop_block_norms(blocks: BlockStructure, m: np.ndarray) -> np.ndarray:
    """(p, p) array of Frobenius norms of the blocks of ``m``, one
    ``np.linalg.norm`` per block."""
    out = np.zeros((blocks.p, blocks.p))
    for i in range(1, blocks.p + 1):
        for j in range(1, blocks.p + 1):
            out[i - 1, j - 1] = float(np.linalg.norm(blocks.block(m, i, j)))
    return out


def loop_domain_section(sigma, blocks: BlockStructure,
                        tol: Tolerance = DEFAULT_TOL):
    """The support of ``sigma`` as a self-adjoint domain section, or None,
    decided column by column: every block column carries exactly one
    block above ``rel * ‖σ‖_F`` (block norms by ``loop_block_norms``),
    the designated rows form a permutation, ``‖σ - σ*‖`` is within
    ``tol.bound(‖σ‖_F)`` and the permutation is an involution."""
    n = blocks.total
    m = as_matrix(sigma, "loop_domain_section", (n, n))
    threshold = tol.rel * frobenius(m)
    norms = loop_block_norms(blocks, m)
    support = []
    for j in range(1, blocks.p + 1):
        rows = [i for i in range(1, blocks.p + 1)
                if norms[i - 1, j - 1] > threshold]
        if len(rows) != 1:
            return None
        support.append(rows[0])
    if sorted(support) != list(range(1, blocks.p + 1)):
        return None
    if frobenius(m - adjoint(m)) > tol.bound(max(1.0, frobenius(m))):
        return None
    if any(support[i - 1] != j for j, i in enumerate(support, start=1)):
        return None
    return tuple(support)


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
    """``triple.even.algebra_commutes_gamma`` and
    ``triple.real.opposite_algebra``, keyed by id, from dense unit stacks
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
    return out


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


def nested_lists(obj):
    """``obj`` with every ndarray replaced, entry by entry, by nested
    lists of Python numbers, a complex entry as an ``[re, im]`` pair."""
    if isinstance(obj, (np.ndarray, np.generic)):
        if obj.ndim:
            return [nested_lists(x) for x in obj]
        z = obj.item()
        return [z.real, z.imag] if isinstance(z, complex) else z
    if isinstance(obj, dict):
        return {key: nested_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [nested_lists(value) for value in obj]
    return obj


def svd_basis(rows: int, cols: int, stack,
              tol: Tolerance = DEFAULT_TOL) -> SubspaceBasis:
    """A :class:`SubspaceBasis` of an independent ``(k, rows, cols)``
    stack whose one factor is ``vh`` of the SVD of its unit rows, whatever
    the stack, with the complement rows of that SVD where the basis fills
    at least half its space."""
    stack = np.array(stack, dtype=complex)
    k, n = len(stack), rows * cols
    units = unit_rows(stack)
    _, s, vh = np.linalg.svd(units.reshape(k, n), full_matrices=2 * k >= n)
    assert np.count_nonzero(s > tol.rel * s[0]) == k
    basis = object.__new__(SubspaceBasis)
    basis.rows, basis.cols, basis.stack, basis.units = rows, cols, stack, units
    basis.unit_sigmas, basis._vh = (float(s[-1]), float(s[0])), vh
    return basis


class UnsupportedConfigurationError(InputError):
    """The requested construction is valid only for a restricted
    configuration (e.g. equal block sizes) that the input violates."""


def embed_block(blocks: BlockStructure, i: int, j: int,
                blk: np.ndarray) -> np.ndarray:
    """``blk`` placed at block ``(i, j)`` of an ``n x n`` zero matrix."""
    blk = as_matrix(blk, f"block ({i},{j})",
                    (blocks.sizes[i - 1], blocks.sizes[j - 1]))
    out = np.zeros((blocks.total, blocks.total), dtype=complex)
    out[blocks.block_slice(i), blocks.block_slice(j)] = blk
    return out


def operator_norm(m) -> float:
    """Largest singular value; realizes the C*-norm on matrices."""
    m = as_matrix(m, "operator_norm")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def hermitian_spectrum(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises :class:`InputError` when the input is not Hermitian within
    tolerance.  The sum of the returned values equals the trace up to
    rounding.
    """
    m = as_matrix(m, "hermitian_spectrum")
    if m.shape[0] != m.shape[1]:
        raise ShapeError("hermitian_spectrum: matrix must be square")
    herm_defect = frobenius(m - adjoint(m))
    if herm_defect > tol.bound(max(1.0, frobenius(m))):
        raise InputError(
            f"hermitian_spectrum: input is not Hermitian "
            f"(‖m - m*‖ = {herm_defect:.3e})"
        )
    return np.linalg.eigvalsh((m + adjoint(m)) / 2.0)


@dataclass(frozen=True)
class PairGroupoid:
    """The pair groupoid on ``p`` objects: all ordered pairs ``(i, j)``."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise InputError("PairGroupoid: p must be >= 1")

    def objects(self) -> range:
        return range(1, self.p + 1)

    def arrows(self) -> Iterator[Arrow]:
        for i in self.objects():
            for j in self.objects():
                yield (i, j)

    def contains(self, g: Arrow) -> bool:
        i, j = g
        return 1 <= i <= self.p and 1 <= j <= self.p

    def require(self, g: Arrow) -> Arrow:
        if not self.contains(g):
            raise InputError(f"arrow {g} is not in the pair groupoid on "
                             f"{self.p} objects")
        return (int(g[0]), int(g[1]))

    def inverse(self, g: Arrow) -> Arrow:
        i, j = self.require(g)
        return (j, i)

    def compose_arrows(self, g: Arrow, h: Arrow) -> Optional[Arrow]:
        """``(i, j) ∘ (j, k) = (i, k)``; ``None`` when not composable."""
        i, j = self.require(g)
        j2, k = self.require(h)
        if j != j2:
            return None
        return (i, k)


@dataclass(frozen=True)
class Bisection:
    """A global bisection: a permutation ``j -> images[j-1]`` of the
    objects, i.e. the arrow set ``{(π(j), j)}``."""

    images: tuple[int, ...]

    def __post_init__(self):
        p = len(self.images)
        if p < 1 or sorted(self.images) != list(range(1, p + 1)):
            raise InputError(f"Bisection: {self.images} is not a "
                             f"permutation of 1..{p}")

    @classmethod
    def identity(cls, p: int) -> "Bisection":
        return cls(tuple(range(1, p + 1)))

    @classmethod
    def transposition(cls, p: int, a: int, b: int) -> "Bisection":
        images = list(range(1, p + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @property
    def p(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def arrows(self) -> list[Arrow]:
        return [(self(j), j) for j in range(1, self.p + 1)]

    def inverse(self) -> "Bisection":
        inv = [0] * self.p
        for j, i in enumerate(self.images, start=1):
            inv[i - 1] = j
        return Bisection(tuple(inv))

    def to_json(self) -> list[int]:
        return list(self.images)


def compose_bisections(x: Bisection, y: Bisection) -> Bisection:
    """Permutation composition ``(x ∘ y)(j) = x(y(j))``.

    The global bisections of the pair groupoid on ``p`` objects form the
    symmetric group on ``p`` symbols under this product.
    """
    if x.p != y.p:
        raise InputError("compose_bisections: different object counts")
    return Bisection(tuple(x(y(j)) for j in range(1, x.p + 1)))


@dataclass(frozen=True)
class LocalBisection:
    """A partial injective map on the objects; these form an inverse
    semigroup under partial composition."""

    p: int
    pairs: tuple[tuple[int, int], ...]  # sorted (source j, target i) pairs

    def __post_init__(self):
        mapping = dict(self.pairs)
        if len(mapping) != len(self.pairs):
            raise InputError("LocalBisection: duplicate sources")
        if not is_local_bisection(mapping, self.p):
            raise InputError(f"LocalBisection: {mapping} is not injective")

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], p: int) -> "LocalBisection":
        return cls(p, tuple(sorted((int(j), int(i))
                                   for j, i in mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def inverse(self) -> "LocalBisection":
        return LocalBisection(self.p,
                              tuple(sorted((i, j) for j, i in self.pairs)))

    def compose(self, other: "LocalBisection") -> "LocalBisection":
        """``(self ∘ other)(j) = self(other(j))`` where both are defined."""
        if self.p != other.p:
            raise InputError("compose: different object counts")
        mine = self.as_dict()
        out = {}
        for j, i in other.pairs:
            if i in mine:
                out[j] = mine[i]
        return LocalBisection.from_mapping(out, self.p)


def is_local_bisection(mapping: Mapping[int, int], p: int) -> bool:
    """True iff the partial map is injective on its domain.

    Out-of-range labels are an input error, not ``False``.
    """
    for j, i in mapping.items():
        if not (1 <= j <= p and 1 <= i <= p):
            raise InputError(f"label out of range in {j} -> {i} (p={p})")
    values = list(mapping.values())
    return len(set(values)) == len(values)


def all_local_bisections(p: int) -> Iterator[LocalBisection]:
    """Enumerate every partial injective map on ``{1..p}``."""
    objects = list(range(1, p + 1))
    for k in range(p + 1):
        for domain in itertools.combinations(objects, k):
            for image in itertools.permutations(objects, k):
                yield LocalBisection.from_mapping(dict(zip(domain, image)), p)


def all_bisections(p: int) -> Iterator[Bisection]:
    for perm in itertools.permutations(range(1, p + 1)):
        yield Bisection(perm)


class UnitaryField:
    """An assignment of unitaries to arrows between equal-size blocks,
    compatible with units and inversion: ``u_(i,i) = 1`` and
    ``u_(j,i) = u_(i,j)*``."""

    __slots__ = ("blocks", "assignment")

    def __init__(self, blocks: BlockStructure,
                 assignment: Mapping[Arrow, np.ndarray],
                 tol: Tolerance = DEFAULT_TOL):
        groupoid = PairGroupoid(blocks.p)
        fixed: dict[Arrow, np.ndarray] = {}
        for g, u in assignment.items():
            g = groupoid.require(g)
            ni, nj = blocks.sizes[g[0] - 1], blocks.sizes[g[1] - 1]
            if ni != nj:
                raise UnsupportedConfigurationError(
                    f"arrow {g}: blocks have different sizes {ni} != {nj}")
            fixed[g] = require_unitary(u, ni, tol, f"matrix over {g}")
        for g, u in list(fixed.items()):
            rev = (g[1], g[0])
            if rev in fixed:
                if frobenius(fixed[rev] - adjoint(u)) > tol.bound(frobenius(u)):
                    raise InputError(f"field over {rev} is not the adjoint "
                                     f"of the field over {g}")
            else:
                fixed[rev] = adjoint(u)
        for i in range(1, blocks.p + 1):
            unit = (i, i)
            eye = np.eye(blocks.sizes[i - 1], dtype=complex)
            if unit in fixed:
                if frobenius(fixed[unit] - eye) > tol.bound(1.0):
                    raise InputError(f"field over unit arrow {unit} must be "
                                     f"the identity")
            else:
                fixed[unit] = eye
        self.blocks = blocks
        self.assignment = fixed

    @classmethod
    def identity(cls, blocks: BlockStructure) -> "UnitaryField":
        """Identity unitaries on every arrow between equal-size blocks."""
        assignment = {}
        for i in range(1, blocks.p + 1):
            for j in range(1, blocks.p + 1):
                if blocks.sizes[i - 1] == blocks.sizes[j - 1]:
                    assignment[(i, j)] = np.eye(blocks.sizes[j - 1],
                                                dtype=complex)
        return cls(blocks, assignment)

    def unitary_for(self, g: Arrow) -> np.ndarray:
        g = PairGroupoid(self.blocks.p).require(g)
        if g not in self.assignment:
            raise InputError(f"field has no unitary over arrow {g}")
        return self.assignment[g]

    def is_total(self) -> bool:
        return all(g in self.assignment
                   for g in self.blocks.arrows())


@dataclass(frozen=True)
class SemidirectBundle:
    """A full bundle presented by transport records ``(g, a)``.

    ``a`` lives over the domain object of ``g`` and embeds as the matrix
    ``u_g a`` in block position ``g``.  The record product and involution
    below multiply identically to the embedded matrices.
    """

    blocks: BlockStructure
    field: UnitaryField
    bundle: FellBundleFD

    def alpha(self, g: Arrow, a: np.ndarray) -> np.ndarray:
        """Fibre transport along ``g``: conjugation by the field unitary."""
        u = self.field.unitary_for(g)
        return u @ a @ adjoint(u)

    def embed(self, element: tuple[Arrow, np.ndarray]) -> np.ndarray:
        g, a = element
        u = self.field.unitary_for(g)
        return embed_block(self.blocks, g[0], g[1],
                           u @ np.asarray(a, dtype=complex))

    def product(self, e1: tuple[Arrow, np.ndarray],
                e2: tuple[Arrow, np.ndarray]) -> tuple[Arrow, np.ndarray]:
        g, a = e1
        h, bmat = e2
        gh = PairGroupoid(self.blocks.p).compose_arrows(g, h)
        if gh is None:
            raise InputError(f"arrows {g} and {h} are not composable")
        carried = self.alpha((h[1], h[0]), np.asarray(a, dtype=complex))
        return gh, carried @ np.asarray(bmat, dtype=complex)

    def involution(self, element: tuple[Arrow, np.ndarray]) -> tuple[Arrow, np.ndarray]:
        g, a = element
        return (g[1], g[0]), self.alpha(g, adjoint(np.asarray(a, dtype=complex)))


def semidirect_bundle(blocks: BlockStructure, field: UnitaryField,
                      tol: Tolerance = DEFAULT_TOL) -> SemidirectBundle:
    """Build the semidirect-product presentation of the full bundle.

    Requires equal block sizes (the transport maps are fibre
    *-isomorphisms) and a total, multiplicative field:
    ``u_(i,k) = u_(i,j) u_(j,k)``.  Multiplicativity is exactly the
    condition under which record products agree with matrix products of
    the embeddings, and it holds automatically on two objects.
    """
    if len(set(blocks.sizes)) != 1:
        raise UnsupportedConfigurationError(
            f"semidirect bundle needs equal block sizes, got {blocks.sizes}; "
            f"use a general bundle for mixed sizes")
    if field.blocks != blocks:
        raise InputError("field was built over a different block structure")
    if not field.is_total():
        raise InputError("field must assign a unitary to every arrow")

    size = blocks.sizes[0]
    for i in range(1, blocks.p + 1):
        for j in range(1, blocks.p + 1):
            for k in range(1, blocks.p + 1):
                lhs = field.unitary_for((i, k))
                rhs = field.unitary_for((i, j)) @ field.unitary_for((j, k))
                defect = frobenius(lhs - rhs)
                if defect > tol.bound(float(np.sqrt(size))):
                    raise InputError(
                        f"field is not multiplicative along ({i},{j},{k}) "
                        f"(residual {defect:.3e}); the record and matrix "
                        f"presentations would disagree")

    units = _matrix_units(size, size)
    fibres = {g: SubspaceBasis(size, size, field.unitary_for(g) @ units)
              for g in blocks.arrows()}
    return SemidirectBundle(blocks, field, FellBundleFD(blocks, fibres))


def bisection_to_normaliser(x: Bisection, blocks: BlockStructure,
                            field: Optional[UnitaryField] = None) -> np.ndarray:
    """Lift a global bisection to a unitary normaliser.

    Places a unitary (identity by default) in block position
    ``(π(j), j)`` for every ``j``; the block projection of the result
    recovers the bisection, and lifts of composable bisections multiply
    to a lift of the composite at the support level (exactly, for
    identity fields).
    """
    if x.p != blocks.p:
        raise InputError(f"bisection on {x.p} objects does not match "
                         f"{blocks.p} blocks")
    for j in range(1, blocks.p + 1):
        if blocks.sizes[x(j) - 1] != blocks.sizes[j - 1]:
            raise UnsupportedConfigurationError(
                f"bisection sends block {j} (size {blocks.sizes[j - 1]}) to "
                f"block {x(j)} (size {blocks.sizes[x(j) - 1]}); a unitary "
                f"lift needs equal sizes")
    n = blocks.total
    out = np.zeros((n, n), dtype=complex)
    for j in range(1, blocks.p + 1):
        i = x(j)
        if field is not None:
            u = field.unitary_for((i, j))
        else:
            u = np.eye(blocks.sizes[j - 1], dtype=complex)
        out[blocks.block_slice(i), blocks.block_slice(j)] = u
    return out

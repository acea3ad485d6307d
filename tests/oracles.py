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
the products of one target; ``projection_residuals`` keeps the
projection ``‖p - V̄ᵀ(V̄ p)‖`` on the fibre's orthonormal basis ``V``
for every fibre, and ``all_products_closure``, ``all_adjoints_involution``
and ``all_identities_unital`` decide ``fell.axiom.2``, ``fell.axiom.6``
and ``fell.unital`` by it, pair by pair.  The gate's row
``fell.saturated`` comes from
``all_products_saturation`` (``exhaustive_rows``), which takes the SVD of
every product span; the library skips the SVDs whose outcome a Gram
certificate already decides.
``category_from_bundle`` must refuse exactly the bundles whose axiom or
unitality rows (``CATEGORY_ROWS``) fail here, and
``fell_bundle_triple`` exactly those whose saturation or unitality rows
(``TRIPLE_ROWS``) fail, listing every failing one.  Both accept full
bundles without running the battery, so on those this gate must pass
every row.

``is_normaliser_bruteforce`` tests ``b* A b ⊆ A`` and ``b A b* ⊆ A``
on every matrix unit of ``A``, the question ``normaliser_support``
answers from block norms; ``loop_block_norms`` takes those norms block by
block, as ``BlockStructure.block_norms`` does by two reductions.
``linking_algebra`` assembles every fibre basis element of a bundle into
``M_n(C)``.

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

import json
import math

import numpy as np

from ncg.climit import LatticeConfig, flat_lattice_dirac, gauge_unitary
from ncg.fellbundle import (BlockStructure, FellBundleFD, _basis_products,
                            check_bundle)
from ncg.matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, adjoint,
                        as_matrix, frobenius, numerical_rank, unit_rows)
from ncg.report import AxiomCheck, AxiomReport, WorstResidual
from ncg.sptriple import FiniteSpectralTriple

CATEGORY_ROWS = tuple(f"fell.axiom.{k}" for k in range(1, 11)) + (
    "fell.unital",)
TRIPLE_ROWS = ("fell.saturated", "fell.unital")
THEOREM_ROWS = tuple(f"fell.axiom.{k}" for k in (3, 4, 7, 8, 9, 10))
# Samples of the associativity spot check, as the numeric row drew them.
SPOT_CHECK_SEED = 20260810
SPOT_CHECK_LIMIT = 48


def fell_gate(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Every gating row, decided numerically and exhaustively."""
    return _replaced(check_bundle(b, tol), theorem_rows(b, tol)
                     + (all_products_closure(b, tol),
                        all_adjoints_involution(b, tol),
                        all_products_saturation(b, tol),
                        all_identities_unital(b, tol)))


def projection_residuals(basis: SubspaceBasis,
                         stack: np.ndarray) -> np.ndarray:
    """Distance of each element of a ``(k, rows, cols)`` stack from the
    span of ``basis``: the norm of what its orthogonal projection on the
    orthonormal basis leaves, whatever the dimension of the span."""
    flat = stack.reshape(len(stack), basis.rows * basis.cols)
    coords = flat @ basis._onb_conj.T
    return np.linalg.norm(flat - coords @ basis._onb, axis=1)


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
    for g in b.arrows():
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
    for g in b.arrows():
        for e in b.fibres[g].stack:
            mats.append(b.blocks.embed_block(g[0], g[1], e))
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
    stack whose orthonormal basis is ``vh`` of the SVD of its unit rows,
    whatever the stack, with the complement of that SVD where the basis
    fills at least half its space."""
    stack = np.array(stack, dtype=complex)
    k, n = len(stack), rows * cols
    units = unit_rows(stack)
    _, s, vh = np.linalg.svd(units.reshape(k, n), full_matrices=2 * k >= n)
    assert np.count_nonzero(s > tol.rel * s[0]) == k
    basis = object.__new__(SubspaceBasis)
    basis.rows, basis.cols, basis.stack, basis.units = rows, cols, stack, units
    basis._onb, basis._onb_conj = vh[:k], vh[:k].conj()
    basis._perp = vh[k:].conj().T if 2 * k >= n else None
    return basis

"""Finite Fell bundles over pair groupoids.

A bundle assigns to every arrow ``(i, j)`` a linear subspace of
``n_i x n_j`` matrices (the fibre), stored as an explicit basis.  The ten
Fell axioms, saturation and unitality are decidable at this scale.  The
report entry points, :func:`check_fell_axioms` and :func:`check_bundle`,
decide every row that depends on the data exhaustively on every bundle,
and the axioms that are identities of matrix algebra by theorem.  The
pass/refuse gates of the conversions (``category_from_bundle``,
``fell_bundle_triple``) accept a bundle that :attr:`FellBundleFD.is_full`
by theorem: a fibre of dimension ``n_i n_j`` is the whole matrix space, so
the bundle's sectional algebra is ``M_n(C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Mapping

import numpy as np

from .errors import (InputError, ShapeError,
                     UnsupportedConfigurationError)
from .groupoid import Arrow, PairGroupoid
from .matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, adjoint,
                     as_matrix, frobenius, numerical_rank, require_unitary,
                     subspace_from_json, unit_rows)
from .report import AxiomCheck, AxiomReport, WorstResidual

# A Frobenius norm below this may have lost its relative accuracy to
# gradual underflow of the squared entries, so it certifies nothing.
_TINY_NORM = 1e-140
# Saturation's certificate needs λ_min(CᴴC) above this share of the
# products' squared Frobenius norm even for a relative tolerance near 0.
# Rounding moves λ_min by about 1e-13 of it for a few thousand products.
_GRAM_FLOOR = 1e-10


@dataclass(frozen=True)
class BlockStructure:
    """Ordered block sizes ``[n_1..n_p]`` splitting ``C^n`` into sectors.

    Defines the block-diagonal algebra ``A = ⊕_i M_{n_i}(C)`` inside
    ``B = M_n(C)`` with ``n = Σ n_i``.
    """

    sizes: tuple[int, ...]
    # Start of each block along ``C^n``.
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InputError(f"BlockStructure: sizes must be positive, "
                             f"got {self.sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets",
                           tuple(accumulate(sizes[:-1], initial=0)))

    @property
    def p(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def groupoid(self) -> PairGroupoid:
        return PairGroupoid(self.p)

    def block_slice(self, i: int) -> slice:
        if not 1 <= i <= self.p:
            raise InputError(f"block index {i} out of range 1..{self.p}")
        off = self.offsets[i - 1]
        return slice(off, off + self.sizes[i - 1])

    def block(self, m: np.ndarray, i: int, j: int) -> np.ndarray:
        return m[self.block_slice(i), self.block_slice(j)]

    def embed_block(self, i: int, j: int, blk: np.ndarray) -> np.ndarray:
        blk = as_matrix(blk, f"block ({i},{j})",
                        (self.sizes[i - 1], self.sizes[j - 1]))
        out = np.zeros((self.total, self.total), dtype=complex)
        out[self.block_slice(i), self.block_slice(j)] = blk
        return out

    def block_norms(self, m: np.ndarray) -> np.ndarray:
        """(p, p) array of Frobenius norms of the blocks of ``m``."""
        out = np.zeros((self.p, self.p))
        for i in range(1, self.p + 1):
            for j in range(1, self.p + 1):
                out[i - 1, j - 1] = float(np.linalg.norm(self.block(m, i, j)))
        return out

    def block_diagonal_part(self, m: np.ndarray) -> np.ndarray:
        """Zero the off-diagonal blocks of ``m`` (keeps diagonal blocks)."""
        out = np.zeros_like(np.asarray(m, dtype=complex))
        for i in range(1, self.p + 1):
            sl = self.block_slice(i)
            out[sl, sl] = m[sl, sl]
        return out

    def unit_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Global (row, column) index of every matrix unit of ``A``: block
        by block, row-major within a block.  Witnesses name a unit by its
        position ``k`` in this order (``algebra unit {k}``)."""
        spans = tuple(zip(self.offsets, self.sizes))
        rows = [off + r for off, s in spans for r in range(s) for _ in range(s)]
        cols = [off + c for off, s in spans for _ in range(s) for c in range(s)]
        return np.array(rows), np.array(cols)

    def algebra_basis(self) -> Iterator[np.ndarray]:
        """Matrix units spanning the block-diagonal algebra ``A``."""
        n = self.total
        for r, c in zip(*self.unit_indices()):
            unit = np.zeros((n, n), dtype=complex)
            unit[r, c] = 1.0
            yield unit

    def algebra_dim(self) -> int:
        return sum(s * s for s in self.sizes)


def _matrix_units(rows: int, cols: int) -> np.ndarray:
    """``(rows*cols, rows, cols)`` stack of matrix units, row-major."""
    return np.eye(rows * cols, dtype=complex).reshape(-1, rows, cols)


class FellBundleFD:
    """A finite Fell bundle over the pair groupoid on ``p`` objects.

    Every arrow carries a fibre; arrows omitted from ``fibres`` get the
    zero fibre.  Construction validates shapes only — a bundle violating
    the Fell axioms must be representable so that the checkers can report
    the violation.
    """

    __slots__ = ("blocks", "fibres")

    def __init__(self, blocks: BlockStructure,
                 fibres: Mapping[Arrow, SubspaceBasis]):
        groupoid = blocks.groupoid()
        complete: dict[Arrow, SubspaceBasis] = {}
        for g, fibre in fibres.items():
            g = groupoid.require(g)
            want = (blocks.sizes[g[0] - 1], blocks.sizes[g[1] - 1])
            if fibre.ambient_shape != want:
                raise ShapeError(
                    f"fibre over {g}: ambient shape {fibre.ambient_shape} "
                    f"does not match {want}"
                )
            complete[g] = fibre
        for g in groupoid.arrows():
            if g not in complete:
                complete[g] = SubspaceBasis(blocks.sizes[g[0] - 1],
                                            blocks.sizes[g[1] - 1], [])
        self.blocks = blocks
        self.fibres = complete

    @property
    def groupoid(self) -> PairGroupoid:
        return self.blocks.groupoid()

    def fibre(self, g: Arrow) -> SubspaceBasis:
        return self.fibres[self.groupoid.require(g)]

    def arrows(self) -> list[Arrow]:
        return sorted(self.fibres)

    @property
    def is_full(self) -> bool:
        """Every fibre has dimension ``n_i n_j``.  Bases are independent
        by construction, so each fibre is then the whole matrix space and
        the Fell axioms, saturation and unitality hold by theorem."""
        return all(f.dim == f.rows * f.cols for f in self.fibres.values())

    def __repr__(self):
        dims = {g: f.dim for g, f in sorted(self.fibres.items())}
        return f"FellBundleFD(blocks={self.blocks.sizes}, dims={dims})"


def full_morita_bundle(blocks: BlockStructure) -> FellBundleFD:
    """The bundle whose fibre over ``(i, j)`` is the full ``n_i x n_j``
    matrix space (basis: matrix units).

    Its sectional algebra is all of ``M_n(C)``; it passes every axiom,
    saturation and unitality.
    """
    fibres = {}
    for i in range(1, blocks.p + 1):
        for j in range(1, blocks.p + 1):
            fibres[(i, j)] = SubspaceBasis(
                blocks.sizes[i - 1], blocks.sizes[j - 1],
                _matrix_units(blocks.sizes[i - 1], blocks.sizes[j - 1]))
    return FellBundleFD(blocks, fibres)


def _composable_arrow_pairs(p: int) -> Iterator[tuple[Arrow, Arrow]]:
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            for k in range(1, p + 1):
                yield (i, j), (j, k)


def _basis_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every product ``x[a] @ y[b]`` of two ``(a, i, j)`` and ``(b, j, k)``
    stacks as an ``(a*b, i, k)`` stack in row-major ``(a, b)`` order,
    formed by one GEMM and one transposing copy."""
    (a, i, j), (b, _, k) = x.shape, y.shape
    flat = x.reshape(a * i, j) @ y.transpose(1, 0, 2).reshape(j, b * k)
    return flat.reshape(a, i, b, k).transpose(0, 2, 1, 3).reshape(-1, i, k)


def _analytic(k: int, identity: str) -> AxiomCheck:
    return AxiomCheck(f"fell.axiom.{k}", True, 0.0, f"analytic: {identity}")


def check_fell_axioms(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Verify the ten Fell axioms on a finite bundle.

    Fibres are subspaces of matrix spaces, the product is matrix
    multiplication, the involution is the conjugate transpose and the norm
    is the operator norm.  Axioms 1 and 5 (compatibility of the projection
    with product and involution) hold structurally, because fibres are
    keyed by arrows and results are placed at the composed / reversed
    arrow.  Axioms 3, 4, 7, 8, 9 and 10 are identities of matrix algebra
    that hold for every input; their rows pass with residual 0 and an
    ``analytic:`` witness naming the identity.  Only axioms 2 and 6
    depend on the data, and both are decided on every basis element:
    closure of all basis products in the target fibre, formed by one GEMM
    per pair of arrows (:func:`_basis_products`), and adjoints landing in
    the reversed fibre.
    """
    closure = WorstResidual(tol)
    for g, h in _composable_arrow_pairs(b.blocks.p):
        e1, e2 = b.fibres[g], b.fibres[h]
        if e1.dim == 0 or e2.dim == 0:
            continue
        gh = (g[0], h[1])
        prods = _basis_products(e1.stack, e2.stack)
        closure.update_batch(
            b.fibres[gh].residuals(prods),
            np.linalg.norm(prods.reshape(prods.shape[0], -1), axis=1),
            lambda idx, g=g, h=h, gh=gh, dim=e2.dim:
            f"basis {idx // dim} of {g} x basis {idx % dim} of {h} "
            f"leaves fibre {gh}")

    invol = WorstResidual(tol)
    for g in b.arrows():
        stack = b.fibres[g].stack
        if stack.shape[0] == 0:
            continue
        invol.update_batch(
            b.fibres[(g[1], g[0])].residuals(np.conj(np.swapaxes(stack, 1, 2))),
            np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1),
            lambda idx, g=g: f"adjoint of basis {idx} of fibre {g}")

    return AxiomReport((
        AxiomCheck("fell.axiom.1", True, 0.0,
                   "structural: products are placed at the composed arrow"),
        closure.check("fell.axiom.2", "all basis products stay in their fibre"),
        _analytic(3, "matrix multiplication is associative"),
        _analytic(4, "the operator norm is submultiplicative"),
        AxiomCheck("fell.axiom.5", True, 0.0,
                   "structural: adjoints are placed at the reversed arrow"),
        invol.check("fell.axiom.6", "adjoint of every basis element lies in "
                                    "the reversed fibre"),
        _analytic(7, "the conjugate transpose is an involution"),
        _analytic(8, "the conjugate transpose reverses products"),
        _analytic(9, "the operator norm satisfies ‖e* e‖ = ‖e‖²"),
        _analytic(10, "e* e is positive semidefinite"),
    ))


def check_saturated(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """Saturation: products of two fibres must span the whole target fibre.

    The rank of the stacked basis products (singular values below
    ``rel * s_max`` treated as zero) is compared with the target dimension
    ``d`` for every composable pair of arrows.  Let ``C`` hold the
    products' coordinates in the target's orthonormal basis.  Then
    ``σ_d(products) ≥ σ_d(C)``, so when ``λ_min(CᴴC)`` exceeds
    ``max(1e-10, 4 rel²) ‖products‖_F²`` the rank is at least ``d`` and
    the SVD is skipped; otherwise the rank is computed.  Only the rank
    reaches the report, which is the one the SVD of every product span
    gives.  The products are formed by one GEMM per pair of arrows
    (:func:`_basis_products`) from copies of the two fibre bases scaled
    to unit Frobenius norm (:func:`matops.unit_rows`).  Rescaling basis
    elements by positive numbers leaves every span unchanged, and the
    rank then counts elements of very different size alike.
    """
    certify = max(_GRAM_FLOOR, 4.0 * tol.rel ** 2)
    units = {g: unit_rows(f.stack) for g, f in b.fibres.items()}
    worst_deficiency = 0
    witness = ""
    for g, h in _composable_arrow_pairs(b.blocks.p):
        e1, e2 = b.fibres[g], b.fibres[h]
        target = b.fibres[(g[0], h[1])]
        if target.dim == 0:
            continue
        if e1.dim == 0 or e2.dim == 0:
            rank = 0
        else:
            prods = _basis_products(units[g], units[h])
            if _spans(target, prods, certify):
                rank = target.dim
            else:
                rank = numerical_rank(prods.reshape(len(prods), -1), tol.rel)
        if target.dim - rank > worst_deficiency:
            worst_deficiency = target.dim - rank
            witness = (f"products of {g} x {h} span {rank} of the "
                       f"{target.dim} dimensions of fibre {(g[0], h[1])}")
    return AxiomCheck("fell.saturated", worst_deficiency == 0,
                      float(worst_deficiency),
                      witness or "every product span is total")


def _spans(target: SubspaceBasis, prods: np.ndarray, certify: float) -> bool:
    """Whether ``λ_min(CᴴC) > certify ‖prods‖_F²`` for the coordinates
    ``C`` of ``prods`` in ``target``; a norm small enough to have lost
    accuracy to underflow certifies nothing."""
    fro2 = np.vdot(prods, prods).real
    if not fro2 > _TINY_NORM ** 2:
        return False
    coords = target.coordinates(prods)
    return bool(np.linalg.eigvalsh(coords.conj().T @ coords)[0]
                > certify * fro2)


def check_unital(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """Unitality: each diagonal fibre must contain its identity matrix."""
    worst = WorstResidual(tol)
    for i in range(1, b.blocks.p + 1):
        size = b.blocks.sizes[i - 1]
        raw = b.fibres[(i, i)].residual(np.eye(size, dtype=complex))
        worst.update(raw, float(np.sqrt(size)),
                     f"identity of diagonal fibre ({i},{i})")
    return worst.check("fell.unital", "every diagonal fibre is unital")


def check_bundle(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Full battery: ten axioms plus saturation and unitality."""
    axioms = check_fell_axioms(b, tol)
    return AxiomReport(axioms.checks + (check_saturated(b, tol),
                                        check_unital(b, tol)))


class UnitaryField:
    """An assignment of unitaries to arrows between equal-size blocks,
    compatible with units and inversion: ``u_(i,i) = 1`` and
    ``u_(j,i) = u_(i,j)*``."""

    __slots__ = ("blocks", "assignment")

    def __init__(self, blocks: BlockStructure,
                 assignment: Mapping[Arrow, np.ndarray],
                 tol: Tolerance = DEFAULT_TOL):
        groupoid = blocks.groupoid()
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
        g = self.blocks.groupoid().require(g)
        if g not in self.assignment:
            raise InputError(f"field has no unitary over arrow {g}")
        return self.assignment[g]

    def is_total(self) -> bool:
        return all(g in self.assignment
                   for g in self.blocks.groupoid().arrows())


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
        return self.blocks.embed_block(g[0], g[1], u @ np.asarray(a, dtype=complex))

    def product(self, e1: tuple[Arrow, np.ndarray],
                e2: tuple[Arrow, np.ndarray]) -> tuple[Arrow, np.ndarray]:
        g, a = e1
        h, bmat = e2
        gh = self.blocks.groupoid().compose_arrows(g, h)
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
    the embeddings, and it holds automatically on two objects.  The
    construction verifies the agreement on all basis record pairs.
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
              for g in blocks.groupoid().arrows()}
    sd = SemidirectBundle(blocks, field, FellBundleFD(blocks, fibres))

    # Cross-check: record products must embed to matrix products.
    for g, h in _composable_arrow_pairs(blocks.p):
        for a in units[:2]:
            for c in units[:2]:
                left = sd.embed(sd.product((g, a), (h, c)))
                right = sd.embed((g, a)) @ sd.embed((h, c))
                if frobenius(left - right) > tol.bound(1.0):
                    raise InputError(
                        f"presentations disagree on {g} x {h}")
    return sd


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


def blocks_from_json(data) -> BlockStructure:
    """Decode a ``blocks`` value: a nonempty array of positive integers."""
    if (not isinstance(data, list) or not data
            or not all(type(s) is int and s >= 1 for s in data)):
        raise InputError(f"blocks: expected a nonempty array of positive "
                         f"integers, got {data!r}")
    return BlockStructure(tuple(data))


def fibres_to_json(fibres: Mapping[Arrow, SubspaceBasis]) -> dict:
    """The basis stacks of the nonzero fibres (or homsets) keyed
    ``"i,j"``."""
    return {f"{i},{j}": fibre.stack
            for (i, j), fibre in sorted(fibres.items()) if fibre.dim}


def fibres_from_json(data, blocks: BlockStructure,
                     label: str = "fibre") -> dict[Arrow, SubspaceBasis]:
    """Decode ``{"i,j": [matrix, ...]}``; a missing value (``None``) has
    no fibres.  ``label`` names the entries in diagnostics."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InputError(f"{label}s: expected an object keyed by 'i,j'")
    fibres = {}
    for key, mats in data.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise InputError(f"{label} key {key!r} is not of the form 'i,j'")
        if not (1 <= i <= blocks.p and 1 <= j <= blocks.p):
            raise InputError(f"{label} key {key!r} out of range for "
                             f"{blocks.p} objects")
        if (i, j) in fibres:
            raise InputError(f"{label} key {key!r} repeats arrow ({i},{j})")
        fibres[(i, j)] = subspace_from_json(
            mats, blocks.sizes[i - 1], blocks.sizes[j - 1], f"{label} {key}")
    return fibres


def bundle_to_json(b: FellBundleFD) -> dict:
    return {"blocks": list(b.blocks.sizes), "fibres": fibres_to_json(b.fibres)}


def bundle_from_json(data) -> FellBundleFD:
    """Decode ``{"blocks": [...], "fibres": {"i,j": [matrix, ...]}}``;
    omitted arrows get the zero fibre."""
    if not isinstance(data, dict) or "blocks" not in data:
        raise InputError("bundle: expected an object with a 'blocks' key")
    blocks = blocks_from_json(data["blocks"])
    return FellBundleFD(blocks, fibres_from_json(data.get("fibres"), blocks))

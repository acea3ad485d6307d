"""Full C*-categories over block structures and the normaliser calculus.

The objects of a category here are the diagonal matrix algebras
``M_{n_i}(C)`` and ``Hom(j -> i)`` is a subspace of ``n_i x n_j`` matrices,
so composition is literal matrix multiplication.  The enveloping algebra
``M_n(C)`` carries the block-diagonal subalgebra ``A``; matrices with at
most one nonzero block per block-row and block-column are exactly the
normalisers of ``A``, and self-adjoint matrices whose block support is a
permutation are domain sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import (DomainSectionError, InputError,
                     UnsupportedConfigurationError)
from .fellbundle import (BlockStructure, FellBundleFD, UnitaryField,
                         check_fell_axioms, check_unital)
from .groupoid import Arrow, Bisection
from .matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, adjoint,
                     as_matrix, frobenius, matrix_from_json)
from .report import AxiomReport

NORMALISER_KINDS = ("not_normaliser", "normaliser", "free", "invertible",
                    "unitary")


@dataclass(frozen=True)
class CStarCategoryFD:
    """A finite full C*-category: block objects plus homset bases."""

    blocks: BlockStructure
    homsets: Mapping[Arrow, SubspaceBasis]

    def homset(self, i: int, j: int) -> SubspaceBasis:
        return self.homsets[(i, j)]

    @property
    def object_count(self) -> int:
        return self.blocks.p

    def as_bundle(self) -> FellBundleFD:
        return FellBundleFD(self.blocks, dict(self.homsets))


def category_from_bundle(b: FellBundleFD,
                         tol: Tolerance = DEFAULT_TOL) -> CStarCategoryFD:
    """View a Fell bundle as a category: fibres become homsets.

    The bundle must pass the axioms and be unital (each diagonal fibre
    then is a unital C*-algebra, giving the category its identities);
    otherwise the failing report is attached to the refusal.  A full
    bundle (:attr:`~ncg.fellbundle.FellBundleFD.is_full`) is accepted by
    theorem; any other bundle runs the exhaustive battery.
    """
    if not b.is_full:
        AxiomReport(check_fell_axioms(b, tol).checks + (check_unital(b, tol),)
                    ).require("bundle fails {}; not a C*-category")
    return CStarCategoryFD(b.blocks, dict(b.fibres))


def conditional_expectation(bmat, blocks: BlockStructure) -> np.ndarray:
    """Block-diagonal truncation ``P``: the faithful conditional
    expectation of ``M_n(C)`` onto the block-diagonal algebra.

    ``P`` is an idempotent *-map fixing the diagonal algebra; its kernel
    is spanned by the free normalisers when all blocks have size one.
    """
    n = blocks.total
    m = as_matrix(bmat, "conditional_expectation", (n, n))
    return blocks.block_diagonal_part(m)


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
    for a in blocks.algebra_basis():
        for sandwich in (madj @ a @ m, m @ a @ madj):
            leak = frobenius(sandwich - blocks.block_diagonal_part(sandwich))
            if leak > bound:
                return False
    return True


@dataclass(frozen=True)
class NormaliserClass:
    """Block-support classification of a matrix against the diagonal
    algebra.  ``support`` maps block-column ``j`` to the block-row
    carrying its (unique) nonzero block; empty for ``not_normaliser``."""

    kind: str
    support: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind not in NORMALISER_KINDS:
            raise InputError(f"unknown normaliser kind {self.kind!r}")

    def support_map(self) -> dict[int, int]:
        return dict(self.support)

    @property
    def is_normaliser(self) -> bool:
        return self.kind != "not_normaliser"


def normaliser_support(bmat, blocks: BlockStructure,
                       tol: Tolerance = DEFAULT_TOL) -> NormaliserClass:
    """Classify a matrix by its block-support pattern.

    Normalisers have at most one nonzero block per block-row and
    block-column; ``free`` additionally squares to zero, ``invertible``
    needs a full permutation support with invertible square blocks, and
    ``unitary`` needs those blocks unitary.  A block counts as nonzero
    when its Frobenius norm exceeds ``rel * ‖b‖_F``.
    """
    n = blocks.total
    m = as_matrix(bmat, "normaliser_support", (n, n))
    threshold = tol.rel * frobenius(m)
    norms = blocks.block_norms(m)
    entries = [(i, j) for i in range(1, blocks.p + 1)
               for j in range(1, blocks.p + 1)
               if norms[i - 1, j - 1] > threshold]
    rows = [i for i, _ in entries]
    cols = [j for _, j in entries]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return NormaliserClass("not_normaliser", ())
    support = tuple(sorted((j, i) for i, j in entries))

    sq_defect = frobenius(m @ m)
    if sq_defect <= tol.bound(max(1.0, frobenius(m)) ** 2):
        return NormaliserClass("free", support)

    if len(support) == blocks.p:
        sizes_match = all(blocks.sizes[i - 1] == blocks.sizes[j - 1]
                          for j, i in support)
        if sizes_match:
            invertible = True
            unitary = True
            for j, i in support:
                blk = blocks.block(m, i, j)
                s = np.linalg.svd(blk, compute_uv=False)
                if s[-1] <= tol.rel * max(1.0, float(s[0])):
                    invertible = False
                    unitary = False
                    break
                if frobenius(adjoint(blk) @ blk - np.eye(blk.shape[0])) \
                        > tol.bound(float(np.sqrt(blk.shape[0]))):
                    unitary = False
            if unitary:
                return NormaliserClass("unitary", support)
            if invertible:
                return NormaliserClass("invertible", support)
    return NormaliserClass("normaliser", support)


@dataclass(frozen=True)
class DomainSection:
    """A choice, per object, of one morphism with that domain, with the
    target objects forming a permutation.

    ``blocks_data[j]`` is the block at row ``support[j-1]``, column ``j``;
    ``assembled`` is the full matrix with zeros elsewhere.  Self-adjoint
    sections have involutive support and conjugate-paired blocks; every
    section built by :func:`is_domain_section` is self-adjoint.
    """

    support: tuple[int, ...]
    blocks_data: Mapping[int, np.ndarray]
    assembled: np.ndarray

    @property
    def p(self) -> int:
        return len(self.support)

    def permutation(self) -> Bisection:
        return Bisection(self.support)

    def to_json(self) -> dict:
        return {"perm": list(self.support),
                "blocks": {str(j): blk
                           for j, blk in sorted(self.blocks_data.items())}}


def domain_section_from_json(data, blocks: BlockStructure,
                             tol: Tolerance = DEFAULT_TOL) -> DomainSection:
    if (not isinstance(data, dict) or not isinstance(data.get("perm"), list)
            or not isinstance(data.get("blocks"), dict)):
        raise InputError("domain section: expected {'perm': [...], "
                         "'blocks': {...}}")
    perm = data["perm"]
    if (not all(type(x) is int for x in perm)
            or sorted(perm) != list(range(1, blocks.p + 1))):
        raise InputError(f"domain section: perm {perm} is not a permutation "
                         f"of 1..{blocks.p}")
    assembled = np.zeros((blocks.total, blocks.total), dtype=complex)
    seen = set()
    for key, mat in data["blocks"].items():
        try:
            j = int(key)
        except ValueError:
            j = 0
        if not 1 <= j <= blocks.p or j in seen:
            raise InputError(f"domain section: block key {key!r} is not a "
                             f"new object in 1..{blocks.p}")
        seen.add(j)
        i = perm[j - 1]
        assembled[blocks.block_slice(i), blocks.block_slice(j)] = \
            matrix_from_json(mat, f"sigma block {key}",
                             (blocks.sizes[i - 1], blocks.sizes[j - 1]))
    missing = sorted(set(range(1, blocks.p + 1)) - seen)
    if missing:
        raise InputError(f"domain section: blocks has no key for "
                         f"column(s) {missing}")
    return is_domain_section(assembled, blocks, tol)


def is_domain_section(sigma, blocks: BlockStructure,
                      tol: Tolerance = DEFAULT_TOL) -> DomainSection:
    """Decompose a self-adjoint matrix with permutation block support.

    Accepts iff every block-column carries exactly one nonzero block, the
    designated rows form a permutation, and ``σ = σ*`` (which forces the
    permutation to be an involution).  Rejections raise
    :class:`DomainSectionError` with the column or residual at fault.
    """
    n = blocks.total
    m = as_matrix(sigma, "is_domain_section", (n, n))
    threshold = tol.rel * frobenius(m)
    norms = blocks.block_norms(m)
    support = []
    for j in range(1, blocks.p + 1):
        rows = [i for i in range(1, blocks.p + 1)
                if norms[i - 1, j - 1] > threshold]
        if not rows:
            raise DomainSectionError(
                f"column {j} has no nonzero block, so the section has no "
                f"support there; pass the identity section explicitly if a "
                f"degenerate operator was intended")
        if len(rows) > 1:
            raise DomainSectionError(
                f"column {j} has {len(rows)} nonzero blocks (rows {rows}); "
                f"a section designates exactly one")
        support.append(rows[0])
    if sorted(support) != list(range(1, blocks.p + 1)):
        raise DomainSectionError(
            f"designated rows {support} do not form a permutation")
    sa_defect = frobenius(m - adjoint(m))
    if sa_defect > tol.bound(max(1.0, frobenius(m))):
        raise DomainSectionError(
            f"matrix is not self-adjoint (‖σ - σ*‖ = {sa_defect:.3e})")
    # σ = σ* forces the support to pair (j, π(j)) symmetrically.
    for j, i in enumerate(support, start=1):
        if support[i - 1] != j:
            raise DomainSectionError(
                f"support {support} is not an involution despite "
                f"self-adjointness; block thresholds are inconsistent")
    blocks_data = {j: blocks.block(m, support[j - 1], j).copy()
                   for j in range(1, blocks.p + 1)}
    assembled = np.zeros((n, n), dtype=complex)
    for j, blk in blocks_data.items():
        assembled[blocks.block_slice(support[j - 1]),
                  blocks.block_slice(j)] = blk
    return DomainSection(tuple(support), blocks_data, assembled)


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

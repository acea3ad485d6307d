"""Full C*-categories over block structures and the normaliser calculus.

The objects of a category here are the diagonal matrix algebras
``M_{n_i}(C)`` and ``Hom(j -> i)`` is a subspace of ``n_i x n_j`` matrices,
so composition is literal matrix multiplication: a full category is a
:class:`~ncg.fellbundle.FellBundleFD`, homsets as fibres, that passes
every row of :func:`~ncg.fellbundle.check_bundle` (fullness is
saturation), as :func:`category_from_bundle` decides.  The enveloping
algebra ``M_n(C)`` carries the block-diagonal subalgebra ``A``; matrices
with at most one nonzero block per block-row and block-column are
exactly the normalisers of ``A``, and self-adjoint matrices whose block
support is an involutive permutation are domain sections, as
:func:`is_domain_section` decides by the rows of :func:`section_checks`;
it returns σ as that ``n x n`` matrix, zero off its support.
:func:`category_from_bundle` and :func:`is_domain_section` are the two
halves of the one gate of a spectral category,
:func:`ncg.geometry.spectral_category`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fellbundle import BlockStructure, FellBundleFD, check_bundle
from .matops import (DEFAULT_TOL, Tolerance, adjoint, as_matrix, frobenius,
                     matrix_from_json)
from .report import AxiomCheck, AxiomReport, residual_checks

NORMALISER_KINDS = ("not_normaliser", "normaliser", "free", "invertible",
                    "unitary")


def category_from_bundle(b: FellBundleFD,
                         tol: Tolerance = DEFAULT_TOL) -> FellBundleFD:
    """The bundle half of the spectral-category gate: returns ``b``
    itself, its fibres read as the homsets of a full C*-category.

    The bundle must pass every row of
    :func:`~ncg.fellbundle.check_bundle`: the Fell axioms, saturation
    (the category is full) and unitality (each diagonal fibre then is a
    unital C*-algebra, giving the category its identities); otherwise the
    failing report is attached to the refusal.  A full bundle
    (:attr:`~ncg.fellbundle.FellBundleFD.is_full`) passes them by
    theorem; any other bundle runs the battery.
    """
    if not b.is_full:
        check_bundle(b, tol).require("bundle fails {}; not a full C*-category")
    return b


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


def block_support(m: np.ndarray, blocks: BlockStructure,
                  tol: Tolerance = DEFAULT_TOL):
    """The nonzero blocks of an ``n x n`` matrix as sorted ``(column,
    row)`` pairs, a block counting as nonzero when its Frobenius norm
    exceeds ``rel * ‖m‖_F``; None when a block row or column carries two,
    so that ``m`` is no normaliser of the diagonal algebra."""
    rows, cols = np.nonzero(blocks.block_norms(m) > tol.rel * frobenius(m))
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        return None
    return tuple(sorted(zip((cols + 1).tolist(), (rows + 1).tolist())))


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
    support = block_support(m, blocks, tol)
    if support is None:
        return NormaliserClass("not_normaliser", ())

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


def domain_section_from_json(data, blocks: BlockStructure) -> np.ndarray:
    """Decode a ``sigma`` value, ``{"perm": [...], "blocks": {...}}``,
    into its ``n x n`` matrix: block ``j`` at block row ``perm[j]``, zeros
    elsewhere.  Decoding decides no row; :func:`is_domain_section` does,
    inside :func:`ncg.geometry.spectral_category`."""
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
    return assembled


def section_checks(m: np.ndarray, blocks: BlockStructure,
                   tol: Tolerance = DEFAULT_TOL):
    """The one decision that ``m`` is a self-adjoint domain section: its
    :func:`block_support` and the two rows ``ncg check bundle`` prints
    for a path-lifting operator.

    ``fell.path_lifting.normaliser`` passes when the support is that of a
    normaliser on a global bisection ``π`` that is an involution; its
    residual counts the block columns ``j`` with ``π(π(j)) ≠ j``, those
    outside the support included, all ``p`` of them for a matrix that is
    no normaliser.  ``fell.path_lifting.selfadjoint`` bounds ``‖m - m*‖``
    by ``tol.bound(‖m‖_F)``.  Self-adjointness pairs the blocks, but a
    pair straddling the threshold ``rel * ‖m‖_F`` can still leave ``π``
    no involution, which only the first row sees."""
    p = blocks.p
    support = block_support(m, blocks, tol)
    if support is None:
        unpaired, witness = p, "not a normaliser of the diagonal algebra"
    else:
        pi = dict(support)
        cols = [j for j in range(1, p + 1) if pi.get(pi.get(j)) != j]
        unpaired = len(cols)
        if len(support) < p:
            witness = (f"support {pi} covers {len(support)} of the {p} "
                       f"block columns")
        elif cols:
            witness = (f"support {pi} is not an involution: columns {cols} "
                       f"are unpaired")
        else:
            witness = f"support {pi} is a global bisection"
    return support, (
        AxiomCheck("fell.path_lifting.normaliser", unpaired == 0,
                   float(unpaired), witness),
        *residual_checks(tol, ("fell.path_lifting.selfadjoint",
                               frobenius(m - adjoint(m)), frobenius(m),
                               "‖PL - PL*‖")))


def is_domain_section(sigma, blocks: BlockStructure,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The section half of the spectral-category gate: σ, a self-adjoint
    ``n x n`` matrix with involutive block support, zero off its support.

    The rows of :func:`section_checks` decide; a failing one refuses
    ``sigma`` through :meth:`~ncg.report.AxiomReport.require`, the refusal
    carrying the rows.  The blocks at ``(π(j), j)`` are written into
    zeros, so an entry off the support, below the block threshold or
    ``-0.0``, comes out ``+0.0``.
    """
    n = blocks.total
    m = as_matrix(sigma, "is_domain_section", (n, n))
    support, rows = section_checks(m, blocks, tol)
    AxiomReport(rows).require(
        "section fails {}; not a self-adjoint domain section")
    out = np.zeros((n, n), dtype=complex)
    for j, i in support:
        out[blocks.block_slice(i), blocks.block_slice(j)] = \
            blocks.block(m, i, j)
    return out

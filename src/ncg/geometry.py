"""Equivalences between triples, spectral categories and bundle triples,
plus operator fluctuations.

A spectral category (a full C*-category with a self-adjoint domain
section σ) and a bundle triple (a saturated unital bundle with a
path-lifting operator ``PL`` on a global bisection) are one record,
:class:`SpectralCStarCategoryFD`, with two file spellings: the homsets
are the fibres, fullness of the category is saturation of the bundle,
and σ, held as its ``n x n`` matrix, is ``PL``: the record is the pair
``(bundle, PL)``, and σ's support ``perm`` is read off ``PL``.  One
constructor, :func:`spectral_category`, decides the record by every row
``ncg check bundle`` prints on it.  The round trips below are exact on
matrix entries.  A fluctuation term ``r · U D U*`` is held as the pair
``(r, U)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cstarcat import (category_from_bundle, domain_section_from_json,
                       is_domain_section, section_checks)
from .errors import InputError, ShapeError
from .fellbundle import (BlockStructure, FellBundleFD, blocks_from_json,
                         bundle_from_json, bundle_to_json, check_bundle,
                         fibres_from_json, fibres_to_json, full_morita_bundle)
from .matops import (DEFAULT_TOL, ENTRY_BOUND, Tolerance, adjoint, as_matrix,
                     frobenius, matrix_from_json, require_unitary)
from .report import AxiomCheck, AxiomReport, worst_row
from .sptriple import FiniteSpectralTriple, check_triple


@dataclass(frozen=True)
class SpectralCStarCategoryFD:
    """A full C*-category, held as the bundle of its homsets, with a
    self-adjoint domain section σ held as its ``n x n`` matrix, zero off
    its support; as a bundle triple, σ is the path-lifting operator
    ``PL``."""

    bundle: FellBundleFD
    PL: np.ndarray

    @property
    def blocks(self) -> BlockStructure:
        return self.bundle.blocks

    @property
    def perm(self) -> tuple[int, ...]:
        """The support of σ: ``perm[j - 1]`` is the block row of its
        nonzero block in block column ``j``."""
        nonzero = self.blocks.block_norms(self.PL) > 0
        return tuple((np.argmax(nonzero, axis=0) + 1).tolist())

    @property
    def hilbert_dim(self) -> int:
        return self.blocks.total

    def to_json(self) -> dict:
        perm = self.perm
        return {"blocks": list(self.blocks.sizes),
                "homsets": fibres_to_json(self.bundle.fibres),
                "sigma": {"perm": list(perm),
                          "blocks": {str(j): self.blocks.block(self.PL, i, j)
                                     for j, i in enumerate(perm, start=1)}}}


def spectral_category(bundle: FellBundleFD, section,
                      tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    """The one gate of the record: ``bundle`` (its fibres the homsets)
    with the ``n x n`` operator ``section``, σ, which is ``PL``.

    After the shape of ``section``, the bundle half
    (:func:`~ncg.cstarcat.category_from_bundle`: every row of
    :func:`~ncg.fellbundle.check_bundle`) and the section half (the rows of
    :func:`~ncg.cstarcat.is_domain_section`, then
    ``fell.path_lifting.in_fibres``) decide; each refuses with its own
    text."""
    n = bundle.blocks.total
    pl = as_matrix(section, "section", (n, n))
    category = category_from_bundle(bundle, tol)
    sigma = is_domain_section(pl, category.blocks, tol)
    AxiomReport((_in_fibres_check(category, pl, tol),)).require(
        "section fails {}; not a spectral category")
    return SpectralCStarCategoryFD(category, sigma)


def spectral_category_from_json(data,
                                tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    """Decode a spectral category file, σ included, before any row is
    decided, then gate it through :func:`spectral_category`."""
    if not isinstance(data, dict) or "blocks" not in data or "sigma" not in data:
        raise InputError("spectral category: expected 'blocks' and 'sigma'")
    blocks = blocks_from_json(data["blocks"])
    fibres = fibres_from_json(data.get("homsets"), blocks, "homset")
    section = domain_section_from_json(data["sigma"], blocks)
    return spectral_category(FellBundleFD(blocks, fibres), section, tol)


def _in_fibres_check(bundle: FellBundleFD, pl: np.ndarray,
                     tol: Tolerance) -> AxiomCheck:
    """``fell.path_lifting.in_fibres``: each nonzero block ``(i, j)`` of
    ``PL`` (or σ) lies in fibre ``(i, j)``, by its residual relative to its
    norm (:meth:`~ncg.matops.SubspaceBasis.residual`, 0 into a full fibre)."""
    blocks = bundle.blocks
    support = (np.argwhere(blocks.block_norms(pl) > 0) + 1).tolist()
    pieces = [blocks.block(pl, i, j) for i, j in support]
    return worst_row(
        tol, "fell.path_lifting.in_fibres",
        [bundle.fibres[(i, j)].residual(blk)
         for (i, j), blk in zip(support, pieces)],
        [frobenius(blk) for blk in pieces],
        lambda q: "block ({0},{1}) leaves fibre ({0},{1})".format(*support[q]))


def check_bundle_document(data, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """The report of ``ncg check bundle`` on a decoded file: the bundle
    battery (:func:`~ncg.fellbundle.check_bundle`), then, for a bundle
    triple carrying ``PL``, the rows of :func:`~ncg.cstarcat.section_checks`
    and :func:`_in_fibres_check`.  A ``hilbert_dim`` other than ``Σ n_i``
    is an input error."""
    bundle = bundle_from_json(data)
    n = bundle.blocks.total
    dim = data.get("hilbert_dim", n)
    if type(dim) is not int or dim != n:
        raise InputError(f"hilbert_dim {dim!r} is not the total block "
                         f"dimension {n}")
    pl = matrix_from_json(data["PL"], "PL", (n, n)) if "PL" in data else None
    report = check_bundle(bundle, tol)
    return report if pl is None else AxiomReport(
        report.checks + section_checks(pl, bundle.blocks, tol)[1]
        + (_in_fibres_check(bundle, pl, tol),))


def categorify(t: FiniteSpectralTriple,
               tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    """Present a finite triple as a spectral category.

    The objects are the algebra's simple summands, the homsets are the
    full rectangular matrix spaces between them, and the section is the
    block decomposition of ``D``.  Refused when the triple fails its own
    axioms or when ``D`` fails the rows of
    :func:`~ncg.cstarcat.section_checks` (a zero ``D`` has no support).
    The bundle is full, so the record skips :func:`spectral_category`:
    its bundle rows and fibre membership hold by theorem.
    """
    check_triple(t, tol).require("triple fails {}")
    sigma = is_domain_section(t.D, t.blocks, tol)
    return SpectralCStarCategoryFD(
        category_from_bundle(full_morita_bundle(t.blocks), tol), sigma)


def triple_from_category(sc: SpectralCStarCategoryFD,
                         gamma=None, epsilon=None, K=None,
                         tol: Tolerance = DEFAULT_TOL) -> FiniteSpectralTriple:
    """Inverse of :func:`categorify`: the section σ, as a Dirac operator
    on the enveloping algebra.

    Supplied optional operators are validated by re-running the
    batteries; with none supplied only the self-adjointness of the
    assembled ``D`` is in force.
    """
    triple = FiniteSpectralTriple(sc.blocks, sc.PL, gamma, epsilon, K)
    check_triple(triple, tol).require("supplied operators fail {}")
    return triple


def fell_triple_from_category(sc: SpectralCStarCategoryFD) -> dict:
    """The bundle-triple spelling of the record, the document ``ncg
    to-fell`` writes: the homsets as fibres, ``hilbert_dim`` and σ as
    ``PL``.  The record already holds a bundle triple, so nothing is
    decided here; the way back is :func:`spectral_category`."""
    return {**bundle_to_json(sc.bundle), "hilbert_dim": sc.hilbert_dim,
            "PL": sc.PL}


def fluctuate(D, terms: Iterable[tuple[float, np.ndarray]],
              tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Form ``Σ_j r_j U_j D U_j*`` for the ``(r_j, U_j)`` pairs of
    ``terms``, real coefficients and unitaries.

    Preserves self-adjointness of ``D`` for real coefficients, and
    anticommutation with a grading when every unitary commutes with it.
    The coefficients need not sum to anything in particular.
    """
    D = as_matrix(D, "fluctuate")
    n = D.shape[0]
    if D.shape[0] != D.shape[1]:
        raise ShapeError("fluctuate: operator must be square")
    out = np.zeros_like(D)
    for idx, (r, U) in enumerate(terms):
        r, U = float(r), require_unitary(U, n, tol, f"term {idx} unitary")
        out = out + r * (U @ D @ adjoint(U))
    return out


def one_form(D, U, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Gauge potential of a unitary: ``ω = U [D, U*]``.

    Satisfies ``U D U* = D + ω`` up to rounding, so conjugation by ``U``
    shifts ``D`` by an inner differential term.
    """
    D = as_matrix(D, "one_form")
    U = as_matrix(U, "one_form unitary")
    if D.shape != U.shape or D.shape[0] != D.shape[1]:
        raise ShapeError(f"one_form: incompatible shapes {D.shape}, {U.shape}")
    require_unitary(U, D.shape[0], tol, "one_form unitary")
    return U @ (D @ adjoint(U) - adjoint(U) @ D)


def fluctuation_terms_from_json(data) -> list[tuple[float, np.ndarray]]:
    """Decode ``[{"r": real, "U": matrix}, ...]`` into ``(r, U)`` pairs;
    like a matrix entry, a coefficient larger than ``1e48`` in magnitude
    is refused."""
    if not isinstance(data, list):
        raise InputError("fluctuation terms: expected an array")
    terms = []
    for idx, item in enumerate(data):
        if not isinstance(item, dict) or "r" not in item or "U" not in item:
            raise InputError(f"term {idx}: expected {{'r': ..., 'U': ...}}")
        r = item["r"]
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise InputError(f"term {idx}: coefficient must be real")
        # ``abs(nan) > bound`` is False, so finiteness is tested too; the
        # bound comes first because an int beyond float range cannot be
        # tested for finiteness.
        if abs(r) > ENTRY_BOUND or not math.isfinite(r):
            raise InputError(f"term {idx}: coefficient must be finite and "
                             f"at most {ENTRY_BOUND:g} in magnitude")
        terms.append((float(r), matrix_from_json(item["U"], f"term {idx} U")))
    return terms

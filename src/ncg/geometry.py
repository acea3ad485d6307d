"""Equivalences between triples, spectral categories and bundle triples,
plus path-lifting application and operator fluctuations.

A spectral category is a full C*-category together with a self-adjoint
domain section σ; a bundle triple is a saturated unital bundle with a
path-lifting operator supported on a global bisection.  Both are different
presentations of the same block data, and the round trips below are exact
on matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cstarcat import (CStarCategoryFD, DomainSection, category_from_bundle,
                       domain_section_from_json, is_domain_section,
                       normaliser_support)
from .errors import AxiomRefusalError, InputError, ShapeError
from .fellbundle import (BlockStructure, FellBundleFD, blocks_from_json,
                         bundle_to_json, check_saturated, check_unital,
                         fibres_from_json, fibres_to_json, full_morita_bundle)
from .matops import (DEFAULT_TOL, ENTRY_BOUND, Tolerance, adjoint, as_matrix,
                     frobenius, matrix_from_json, require_unitary)
from .report import AxiomReport
from .sptriple import FiniteSpectralTriple, check_triple


@dataclass(frozen=True)
class SpectralCStarCategoryFD:
    """A full C*-category with a chosen self-adjoint domain section."""

    category: CStarCategoryFD
    sigma: DomainSection

    @property
    def blocks(self) -> BlockStructure:
        return self.category.blocks

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks.sizes),
                "homsets": fibres_to_json(self.category.homsets),
                "sigma": self.sigma.to_json()}


def spectral_category(category: CStarCategoryFD, sigma: DomainSection,
                      tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    """Pair a category with a section, verifying that the section's
    blocks actually are morphisms of the category."""
    if len(sigma.support) != category.blocks.p:
        raise InputError(
            f"section over {len(sigma.support)} objects does not match "
            f"{category.blocks.p} category objects")
    for j, blk in sigma.blocks_data.items():
        homset = category.homset(sigma.support[j - 1], j)
        residual = homset.residual(blk)
        if residual > tol.bound(max(1.0, frobenius(blk))):
            raise InputError(
                f"section block for column {j} is not a morphism "
                f"{j} -> {sigma.support[j - 1]} (residual {residual:.3e})")
    return SpectralCStarCategoryFD(category, sigma)


def spectral_category_from_json(data,
                                tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    if not isinstance(data, dict) or "blocks" not in data or "sigma" not in data:
        raise InputError("spectral category: expected 'blocks' and 'sigma'")
    blocks = blocks_from_json(data["blocks"])
    fibres = fibres_from_json(data.get("homsets"), blocks, "homset")
    category = category_from_bundle(FellBundleFD(blocks, fibres), tol)
    sigma = domain_section_from_json(data["sigma"], blocks, tol)
    return spectral_category(category, sigma, tol)


@dataclass(frozen=True)
class FellBundleTriple:
    """A saturated unital bundle, a Hilbert space dimension, and a
    path-lifting operator supported on a global bisection."""

    bundle: FellBundleFD
    hilbert_dim: int
    PL: np.ndarray

    def to_json(self) -> dict:
        return {**bundle_to_json(self.bundle), "hilbert_dim": self.hilbert_dim,
                "PL": self.PL}


def fell_bundle_triple(bundle: FellBundleFD, pl,
                       tol: Tolerance = DEFAULT_TOL) -> FellBundleTriple:
    """Validate and assemble a bundle triple.

    The path-lifting operator must be a normaliser of the diagonal
    algebra whose block support is a full permutation (a global
    bisection); the bundle must be saturated and unital, which a full
    bundle (:attr:`~ncg.fellbundle.FellBundleFD.is_full`) is by theorem.
    """
    n = bundle.blocks.total
    pl = as_matrix(pl, "path-lifting operator", (n, n))
    classification = normaliser_support(pl, bundle.blocks, tol)
    if not classification.is_normaliser:
        raise InputError("path-lifting operator is not a normaliser of the "
                         "diagonal algebra")
    if len(classification.support) != bundle.blocks.p:
        raise InputError(
            f"path-lifting support {classification.support_map()} is not a "
            f"global bisection")
    if not bundle.is_full:
        for check in (check_saturated(bundle, tol), check_unital(bundle, tol)):
            if not check.passed:
                raise AxiomRefusalError(
                    f"bundle fails {check.axiom_id}: {check.witness}",
                    AxiomReport((check,)))
    return FellBundleTriple(bundle, n, pl)


def categorify(t: FiniteSpectralTriple,
               tol: Tolerance = DEFAULT_TOL) -> SpectralCStarCategoryFD:
    """Present a finite triple as a spectral category.

    The objects are the algebra's simple summands, the homsets are the
    full rectangular matrix spaces between them, and the section is the
    block decomposition of ``D``.  Refused when the triple fails its own
    axioms or when ``D`` is not a domain section (a zero ``D`` has no
    support; the refusal suggests the identity section instead).
    """
    check_triple(t, tol).require("triple fails {}")
    sigma = is_domain_section(t.D, t.blocks, tol)
    category = category_from_bundle(full_morita_bundle(t.blocks), tol)
    return SpectralCStarCategoryFD(category, sigma)


def triple_from_category(sc: SpectralCStarCategoryFD,
                         gamma=None, epsilon=None, K=None,
                         tol: Tolerance = DEFAULT_TOL) -> FiniteSpectralTriple:
    """Inverse of :func:`categorify`: assemble the section back into a
    Dirac operator on the enveloping algebra.

    Supplied optional operators are validated by re-running the
    batteries; with none supplied only the self-adjointness of the
    assembled ``D`` is in force.
    """
    triple = FiniteSpectralTriple(sc.blocks, sc.sigma.assembled,
                                  gamma, epsilon, K)
    check_triple(triple, tol).require("supplied operators fail {}")
    return triple


def fell_triple_from_category(sc: SpectralCStarCategoryFD,
                              tol: Tolerance = DEFAULT_TOL) -> FellBundleTriple:
    """Homsets become fibres and the section becomes the path-lifting
    operator; inverse direction is :func:`category_from_bundle` plus
    :func:`~ncg.cstarcat.is_domain_section` on ``PL``."""
    bundle = sc.category.as_bundle()
    return fell_bundle_triple(bundle, sc.sigma.assembled, tol)


def apply_path_lifting(pl, psi) -> np.ndarray:
    """Transport a state: ``ψ' = PL ψ``.

    When ``PL`` has block support ``π`` and ``ψ`` is supported in block
    ``j``, the result is supported in block ``π(j)``.
    """
    pl = as_matrix(pl, "path-lifting operator")
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.shape[0] != pl.shape[1]:
        raise ShapeError(f"state of length {psi.shape} does not match "
                         f"operator of shape {pl.shape}")
    return pl @ psi


@dataclass(frozen=True)
class FluctuationTerm:
    """One summand ``r · U D U*`` of a fluctuated operator."""

    r: float
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "U", as_matrix(self.U, "fluctuation unitary"))


def fluctuate(D, terms: Sequence, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Form ``Σ_j r_j U_j D U_j*`` for real coefficients and unitaries.

    Preserves self-adjointness of ``D`` for real coefficients, and
    anticommutation with a grading when every unitary commutes with it.
    The coefficients need not sum to anything in particular.
    """
    D = as_matrix(D, "fluctuate")
    n = D.shape[0]
    if D.shape[0] != D.shape[1]:
        raise ShapeError("fluctuate: operator must be square")
    out = np.zeros_like(D)
    for idx, term in enumerate(terms):
        if not isinstance(term, FluctuationTerm):
            r, u = term
            term = FluctuationTerm(r, u)
        require_unitary(term.U, n, tol, f"term {idx} unitary")
        out = out + term.r * (term.U @ D @ adjoint(term.U))
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


def fluctuation_terms_from_json(data) -> list[FluctuationTerm]:
    """Decode ``[{"r": real, "U": matrix}, ...]``; like a matrix entry, a
    coefficient larger than ``1e48`` in magnitude is refused."""
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
        terms.append(FluctuationTerm(
            float(r), matrix_from_json(item["U"], f"term {idx} U")))
    return terms


def fluctuation_terms_to_json(terms: Sequence[FluctuationTerm]) -> list:
    return [{"r": t.r, "U": t.U} for t in terms]

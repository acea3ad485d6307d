"""Finite even / real / S°-real spectral triples.

A triple is block data for the algebra ``A = ⊕ M_{n_i}(C)`` acting
block-diagonally on ``C^n`` plus operators: a self-adjoint ``D``
anticommuting with the grading ``γ``, optionally an extra grading ``ε``
splitting the space into two halves, and optionally a real structure
``J = K ∘ conj`` given by its matrix part ``K``.

The four-sector layout (``blocks = [l, l, l, l]``) admits a closed block
form for ``D`` in terms of one ``l x l`` coupling matrix ``M``:

    D = [[0, M*, 0, 0], [M, 0, 0, 0], [0, 0, 0, M^T], [0, 0, conj(M), 0]]

with ``γ = diag(+I, -I, +I, -I)``, ``ε = diag(+I, +I, -I, -I)`` and ``K``
the block permutation swapping sectors 1<->3 and 2<->4.
:func:`build_triple_from_mass_matrix` constructs it and
:func:`extract_mass_matrix` inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, InputError, StructureError
from .fellbundle import BlockStructure, blocks_from_json
from .matops import (DEFAULT_TOL, Tolerance, adjoint, as_matrix, frobenius,
                     hermitian_spectrum, matrix_from_json)
from .report import (AxiomCheck, AxiomReport, WorstResidual,
                     residual_checks)


@dataclass(frozen=True, eq=False)
class FiniteSpectralTriple:
    """Block structure plus the operators ``D``, ``γ``, ``ε``, ``K``.

    Only shapes are validated here; the numeric axioms are the checkers'
    job, so a violating triple is representable (and reportable).
    ``gamma`` may be ``None`` for reduced data coming from a bare domain
    section.
    """

    blocks: BlockStructure
    D: np.ndarray
    gamma: Optional[np.ndarray] = None
    epsilon: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.blocks.total
        object.__setattr__(self, "D", as_matrix(self.D, "D", (n, n)))
        for name in ("gamma", "epsilon", "K"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_matrix(value, name, (n, n)))

    @property
    def n(self) -> int:
        return self.blocks.total


def _unit_commutator_sq(blocks: BlockStructure, row_off: np.ndarray,
                        col_off: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """``‖[E_rs, c]‖² = Σ_{j≠s}|c_sj|² + Σ_{i≠r}|c_ir|² + |c_ss - c_rr|²``
    for every algebra unit ``E_rs`` at once, from the off-diagonal row and
    column sums and the diagonal of ``c`` (a leading axis on them gives one
    result row per ``c``).  No term cancels."""
    rows, cols = blocks.unit_indices()
    return (row_off[..., cols] + col_off[..., rows]
            + np.abs(diag[..., cols] - diag[..., rows]) ** 2)


def check_even_axioms(t: FiniteSpectralTriple,
                      tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Self-adjointness of ``D``, grading axioms, and commutation of the
    block-diagonal algebra with ``γ``.

    ``[D, a] ∈ M_n(C)`` is automatic here and recorded as analytic.  When
    ``gamma`` is absent the grading rows are reported as not applicable.
    """
    checks = residual_checks(
        tol, ("triple.even.d_selfadjoint", frobenius(t.D - adjoint(t.D)),
              frobenius(t.D), "‖D - D*‖"))
    if t.gamma is None:
        for axiom_id in ("triple.even.gamma_selfadjoint",
                         "triple.even.gamma_square",
                         "triple.even.anticommute_gamma",
                         "triple.even.algebra_commutes_gamma"):
            checks.append(AxiomCheck(axiom_id, True, 0.0,
                                     "not applicable: no grading present",
                                     advisory=True))
    else:
        g = t.gamma
        off_sq = np.abs(g - np.diag(np.diag(g))) ** 2
        comm_sq = _unit_commutator_sq(t.blocks, off_sq.sum(axis=1),
                                      off_sq.sum(axis=0), np.diag(g))
        worst = int(np.argmax(comm_sq))
        checks += residual_checks(
            tol,
            ("triple.even.gamma_selfadjoint", frobenius(g - adjoint(g)),
             frobenius(g), "‖γ - γ*‖"),
            ("triple.even.gamma_square", frobenius(g @ g - np.eye(t.n)),
             frobenius(g) ** 2, "‖γ² - I‖"),
            ("triple.even.anticommute_gamma", frobenius(t.D @ g + g @ t.D),
             frobenius(t.D) * max(1.0, frobenius(g)), "‖Dγ + γD‖"),
            ("triple.even.algebra_commutes_gamma",
             float(np.sqrt(comm_sq[worst])), frobenius(g),
             f"[a, γ] for algebra unit {worst}"))
    checks.append(AxiomCheck(
        "triple.even.inner_derivation", True, 0.0,
        "analytic: [D, a] lands in the enveloping matrix algebra"))
    return AxiomReport(tuple(checks))


def check_real_axioms(t: FiniteSpectralTriple,
                      tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Axioms of the real structure ``J = K ∘ conj``.

    Gating rows: ``J`` antiunitary (``K`` unitary), ``J² = 1``
    (``K conj(K) = I``, which with unitarity also gives ``J = J* = J⁻¹``),
    ``DJ = JD`` (``DK = K conj(D)``), ``[J, γ] = 0`` (``γK = K conj(γ)``)
    and ``J A J⁻¹ ⊆ A``: conjugation by ``J`` must land back in the
    block-diagonal algebra, which is what makes the space an
    ``A``-bimodule in this finite multiplicity-one representation.

    The strict commutant-sense bimodule conditions
    ``[a, J b J⁻¹] = 0`` and ``[[D, a], J b J⁻¹] = 0`` over all algebra
    pairs are strictly stronger than the four-sector layout satisfies for
    a generic coupling matrix; their residuals are still computed and
    reported as advisory diagnostics.
    """
    if t.K is None:
        return AxiomReport((), note="not applicable: no real structure present")
    K = t.K
    n = t.n
    checks = residual_checks(
        tol,
        ("triple.real.antiunitary", frobenius(adjoint(K) @ K - np.eye(n)),
         float(np.sqrt(n)), "‖K*K - I‖"),
        ("triple.real.square", frobenius(K @ np.conj(K) - np.eye(n)),
         frobenius(K) ** 2, "‖K conj(K) - I‖"),
        ("triple.real.commute_D", frobenius(t.D @ K - K @ np.conj(t.D)),
         max(1.0, frobenius(t.D)) * max(1.0, frobenius(K)),
         "‖DK - K conj(D)‖"))
    if t.gamma is not None:
        checks += residual_checks(
            tol, ("triple.real.commute_gamma",
                  frobenius(t.gamma @ K - K @ np.conj(t.gamma)),
                  frobenius(t.gamma) * max(1.0, frobenius(K)),
                  "‖γK - K conj(γ)‖"))

    # J E_rs J⁻¹ = K[:,r] K⁻¹[s,:] is rank one and unchanged by scaling K.
    # Scaled to ‖K‖₂ = 1, and singular below numpy.linalg.matrix_rank's
    # threshold, K gives finite squared norms below for any input size.
    sv = np.linalg.svd(K, compute_uv=False)
    if not sv[-1] > sv[0] * n * np.finfo(float).eps:
        return AxiomReport(tuple(checks) + (
            AxiomCheck("triple.real.opposite_algebra", False, 1.0,
                       "K is not invertible, so J⁻¹ is undefined"),
            *(AxiomCheck(f"triple.real.{order}_order_commutant", True, 0.0,
                         "not applicable: K is not invertible", advisory=True)
              for order in ("zeroth", "first"))))
    K = K / sv[0]
    K_inv = np.linalg.inv(K)
    # Off-block-diagonal part: Σ_{i≠j} ‖K[block i, r]‖² ‖K⁻¹[s, block j]‖².
    rows, cols = t.blocks.unit_indices()
    col_mass = np.add.reduceat(np.abs(K) ** 2, t.blocks.offsets, axis=0).T
    row_mass = np.add.reduceat(np.abs(K_inv) ** 2, t.blocks.offsets, axis=1)
    leak_sq = np.einsum("ui,ij,uj->u", col_mass[rows],
                        1.0 - np.eye(t.blocks.p), row_mass[cols])
    row = WorstResidual(tol)
    row.update_batch(np.sqrt(leak_sq), np.ones(len(rows)),
                     lambda a: f"J b J⁻¹ for algebra unit {a}")
    checks.append(row.check("triple.real.opposite_algebra",
                            "conjugation by J stays block-diagonal"))

    zeroth, first = _bimodule_diagnostics(t.D, K, K_inv, t.blocks)
    for order, raw, scale, what in (
            ("zeroth", zeroth, 1.0, "[a, J b J⁻¹]"),
            ("first", first, max(1.0, frobenius(t.D)), "[[D, a], J b J⁻¹]")):
        checks.append(AxiomCheck(
            f"triple.real.{order}_order_commutant", raw <= tol.bound(scale),
            raw / scale, f"diagnostic: worst ‖{what}‖ over algebra unit pairs",
            advisory=True))
    return AxiomReport(tuple(checks))


def _bimodule_diagnostics(D: np.ndarray, K: np.ndarray, K_inv: np.ndarray,
                          blocks: BlockStructure) -> tuple[float, float]:
    """Worst ``‖[E_rs, c]‖`` and ``‖[[D, E_rs], c]‖`` over all algebra units
    ``E_rs`` and all ``c = J E_r's' J⁻¹ = x yᵀ``, ``x = K[:,r']``,
    ``y = K⁻¹[s',:]``, in closed form.

    With ``D₀`` the off-diagonal part of ``D``,
    ``[[D, E_rs], x yᵀ] = U yᵀ + x Vᵀ`` where ``U = x_s D₀[:,r] + ρ e_r``,
    ``ρ = x_s (D_rr - D_ss) - (D₀x)_s``, ``V = y_r D₀[s,:]ᵀ + τ e_s`` and
    ``τ = y_r (D_ss - D_rr) - (yᵀD₀)_r``, so the squared norm is
    ``‖U‖²‖y‖² + ‖x‖²‖V‖² + 2 Re((U*x)(y*V))``.
    """
    d = np.diag(D)
    D0 = D - np.diag(d)
    D0_sq = np.abs(D0) ** 2
    D0K, D0hK = D0 @ K, adjoint(D0) @ K
    KiD0, KiD0h = K_inv @ D0, K_inv @ adjoint(D0)
    rows, cols = blocks.unit_indices()
    d_rs = d[rows] - d[cols]
    u_col, v_row = D0_sq.sum(axis=0)[rows], D0_sq.sum(axis=1)[cols]
    zeroth_sq = first_sq = 0.0
    for i in range(1, blocks.p + 1):    # units E_r's' with r', s' in block i
        sl = blocks.block_slice(i)
        y = K_inv[sl]
        y_sq = np.abs(y) ** 2
        ny = y_sq.sum(axis=1, keepdims=True)
        yr, ys = y[:, rows], y[:, cols]
        tau = -yr * d_rs - KiD0[sl][:, rows]
        v_sq = np.abs(yr) ** 2 * v_row + np.abs(tau) ** 2
        y_v = yr * np.conj(KiD0h[sl][:, cols]) + tau * np.conj(ys)
        for r2 in range(sl.start, sl.stop):
            x = K[:, r2]
            x_sq = np.abs(x) ** 2
            nx = x_sq.sum()
            zeroth_sq = max(zeroth_sq, float(_unit_commutator_sq(
                blocks, x_sq * (ny - y_sq), y_sq * (nx - x_sq), x * y).max()))
            xs = x[cols]
            rho = xs * d_rs - D0K[cols, r2]
            u_sq = np.abs(xs) ** 2 * u_col + np.abs(rho) ** 2
            u_x = np.conj(xs) * D0hK[rows, r2] + np.conj(rho) * x[rows]
            total = u_sq * ny + nx * v_sq + 2.0 * (u_x * y_v).real
            first_sq = max(first_sq, float(total.max()))
    return np.sqrt(zeroth_sq), np.sqrt(first_sq)


def check_so_real(t: FiniteSpectralTriple,
                  tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Axioms of the extra grading ``ε``: self-adjoint involution with
    balanced ±1 eigenspaces, commuting with ``D`` and anticommuting with
    ``J``."""
    if t.epsilon is None:
        return AxiomReport((), note="not applicable: no extra grading present")
    eps = t.epsilon
    n = t.n
    checks = residual_checks(
        tol,
        ("triple.so_real.selfadjoint", frobenius(eps - adjoint(eps)),
         frobenius(eps), "‖ε - ε*‖"),
        ("triple.so_real.square", frobenius(eps @ eps - np.eye(n)),
         frobenius(eps) ** 2, "‖ε² - I‖"),
        ("triple.so_real.commute_D", frobenius(t.D @ eps - eps @ t.D),
         max(1.0, frobenius(t.D)) * max(1.0, frobenius(eps)), "‖[D, ε]‖"))
    if t.K is not None:
        checks += residual_checks(
            tol, ("triple.so_real.anticommute_J",
                  frobenius(eps @ t.K + t.K @ np.conj(eps)),
                  frobenius(eps) * max(1.0, frobenius(t.K)),
                  "‖εK + K conj(ε)‖"))

    if n % 2 == 1:
        checks.append(AxiomCheck(
            "triple.so_real.multiplicity", False, 1.0,
            f"space dimension {n} is odd; the ±1 eigenspaces cannot balance"))
    else:
        try:
            spectrum = hermitian_spectrum(eps, tol)
            target = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
            deviation = float(np.max(np.abs(spectrum - target)))
            checks.append(AxiomCheck(
                "triple.so_real.multiplicity",
                deviation <= tol.bound(1.0), deviation,
                f"eigenvalues must be -1 and +1, each with multiplicity "
                f"{n // 2}"))
        except InputError:
            checks.append(AxiomCheck(
                "triple.so_real.multiplicity", False, 1.0,
                "spectrum unavailable: ε is not Hermitian"))
    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class PoincareResult:
    """±1 eigenspace dimensions of the grading and their comparison."""

    dim_right: int
    dim_left: int

    @property
    def distinct(self) -> bool:
        return self.dim_right != self.dim_left

    def as_check(self) -> AxiomCheck:
        verdict = ("satisfied" if self.distinct else "not satisfied")
        return AxiomCheck(
            "triple.poincare", self.distinct, 0.0,
            f"dim H_R = {self.dim_right}, dim H_L = {self.dim_left}; "
            f"dimension inequality {verdict}", advisory=True)


def check_poincare(t: FiniteSpectralTriple,
                   tol: Tolerance = DEFAULT_TOL) -> PoincareResult:
    """Compare the multiplicities of +1 and -1 in the spectrum of ``γ``.

    The four-sector construction with a square coupling matrix always has
    balanced dimensions, so this is reported rather than enforced.
    """
    if t.gamma is None:
        raise InputError("check_poincare: triple has no grading")
    spectrum = hermitian_spectrum(t.gamma, tol)
    plus = int(np.count_nonzero(spectrum > 0))
    return PoincareResult(dim_right=plus, dim_left=t.n - plus)


def check_triple(t: FiniteSpectralTriple,
                 tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """The full triple battery: the even, real and S°-real rows, a "not
    applicable" row for a battery that does not apply, and the advisory
    Poincaré row when a grading is present."""
    rows = list(check_even_axioms(t, tol).checks)
    for prefix, battery in (("triple.real", check_real_axioms(t, tol)),
                            ("triple.so_real", check_so_real(t, tol))):
        rows.extend(battery.checks or (AxiomCheck(
            prefix, True, 0.0, battery.note, advisory=True),))
    if t.gamma is not None:
        try:
            rows.append(check_poincare(t, tol).as_check())
        except InputError:
            rows.append(AxiomCheck("triple.poincare", True, 0.0,
                                   "not applicable: γ is not Hermitian",
                                   advisory=True))
    return AxiomReport(tuple(rows))


def standard_operators(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``γ``, ``ε`` and ``K`` for the four-sector layout with block size
    ``l``: chirality alternates per sector, the extra grading splits the
    sector pairs, and ``K`` swaps sectors 1<->3 and 2<->4."""
    def sectors(pattern):
        return np.kron(pattern, np.eye(l)).astype(complex)

    return (sectors(np.diag([1.0, -1.0, 1.0, -1.0])),
            sectors(np.diag([1.0, 1.0, -1.0, -1.0])),
            sectors(np.roll(np.eye(4), 2, axis=1)))


def build_triple_from_mass_matrix(m, l: Optional[int] = None) -> FiniteSpectralTriple:
    """Assemble the four-sector triple generated by a square coupling
    matrix ``M``.

    The result passes the even, real and S°-real batteries for any ``M``.
    """
    m = as_matrix(m, "mass matrix")
    if m.shape[0] != m.shape[1]:
        raise InputError(f"mass matrix must be square, got {m.shape}")
    if l is not None and m.shape != (l, l):
        raise InputError(f"mass matrix has shape {m.shape}, expected "
                         f"({l}, {l})")
    l = m.shape[0]
    zero = np.zeros((l, l))
    D = np.block([[zero, adjoint(m), zero, zero],
                  [m, zero, zero, zero],
                  [zero, zero, zero, m.T],
                  [zero, zero, np.conj(m), zero]])
    gamma, epsilon, K = standard_operators(l)
    return FiniteSpectralTriple(BlockStructure((l, l, l, l)), D,
                                gamma, epsilon, K)


_MASS_SUPPORT = ((1, 2), (2, 1), (3, 4), (4, 3))


def extract_mass_matrix(t: FiniteSpectralTriple,
                        tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Recover the coupling matrix from a four-sector triple.

    Verifies that ``D`` is supported exactly on the four coupling blocks
    and that those blocks are the adjoint / transpose / conjugate of one
    matrix ``M``; inverse of :func:`build_triple_from_mass_matrix`.
    """
    blocks = t.blocks
    if blocks.p != 4 or len(set(blocks.sizes)) != 1:
        raise InputError(f"four equal sectors required, got {blocks.sizes}")
    bound = tol.bound(max(1.0, frobenius(t.D)))
    norms = blocks.block_norms(t.D)
    for i, j in zip(*np.nonzero(norms > bound)):
        if (i + 1, j + 1) not in _MASS_SUPPORT:
            raise StructureError(
                f"D has an unexpected block at ({i + 1},{j + 1}) with norm "
                f"{norms[i, j]:.3e}; support must be "
                f"{{(1,2),(2,1),(3,4),(4,3)}}")
    m = blocks.block(t.D, 2, 1).copy()
    relations = (
        ("(1,2)", blocks.block(t.D, 1, 2), adjoint(m), "M*"),
        ("(3,4)", blocks.block(t.D, 3, 4), m.T, "M^T"),
        ("(4,3)", blocks.block(t.D, 4, 3), np.conj(m), "conj(M)"),
    )
    for name, actual, expected, what in relations:
        residual = float(np.linalg.norm(actual - expected))
        if residual > bound:
            raise ConsistencyError(
                f"block {name} differs from {what} by {residual:.3e}")
    return m


def triple_to_json(t: FiniteSpectralTriple) -> dict:
    return {"blocks": list(t.blocks.sizes), "D": t.D, "gamma": t.gamma,
            "epsilon": t.epsilon, "K": t.K}


def triple_from_json(data) -> FiniteSpectralTriple:
    if not isinstance(data, dict) or "blocks" not in data or "D" not in data:
        raise InputError("triple: expected an object with 'blocks' and 'D'")
    blocks = blocks_from_json(data["blocks"])

    def dec(key):
        value = data.get(key)
        return None if value is None else matrix_from_json(value, key)

    return FiniteSpectralTriple(blocks, matrix_from_json(data["D"], "D"),
                                dec("gamma"), dec("epsilon"), dec("K"))

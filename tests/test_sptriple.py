import numpy as np
import pytest

from conftest import crandn, json_document, random_partial_isometry
from oracles import hermitian_spectrum

from ncg import (DEFAULT_TOL, AxiomCheck, BlockStructure, ConsistencyError,
                 FiniteSpectralTriple, InputError, StructureError,
                 build_triple_from_mass_matrix, check_even_axioms,
                 check_poincare, check_real_axioms, check_so_real,
                 check_triple, extract_mass_matrix, is_partial_isometry,
                 standard_operators, triple_from_json, triple_to_json)


def blocks4(l):
    return BlockStructure((l, l, l, l))


class TestBuildFromMassMatrix:
    def test_scalar_mass_entries(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_array_equal(t.D, expected)

    def test_zero_mass(self):
        t = build_triple_from_mass_matrix(np.zeros((2, 2)))
        assert np.all(t.D == 0)
        assert check_even_axioms(t).all_passed
        assert check_real_axioms(t).all_passed
        assert check_so_real(t).all_passed

    def test_random_mass_passes_all_batteries(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, 2, 2)
        t = build_triple_from_mass_matrix(m)
        for battery in (check_even_axioms, check_real_axioms, check_so_real):
            report = battery(t)
            assert report.all_passed
            assert report.worst_residual <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            build_triple_from_mass_matrix(np.ones((1, 2)))

    def test_explicit_size_checked(self):
        with pytest.raises(InputError):
            build_triple_from_mass_matrix(np.eye(2), l=3)


class TestEvenAxioms:
    def test_identity_grading_breaks_anticommutation(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        bad = FiniteSpectralTriple(t.blocks, t.D, np.eye(4, dtype=complex),
                                   t.epsilon, t.K)
        report = check_even_axioms(bad)
        row = report.find("triple.even.anticommute_gamma")
        assert not row.passed
        # residual is ‖Dγ + γD‖ = 2 ‖D‖ before scaling
        assert row.residual > 0.5

    def test_zero_dirac_passes(self):
        gamma, _, _ = standard_operators(1)
        t = FiniteSpectralTriple(blocks4(1), np.zeros((4, 4)), gamma)
        assert check_even_axioms(t).all_passed

    def test_missing_grading_reports_reduced_battery(self):
        t = FiniteSpectralTriple(blocks4(1), np.eye(4))
        report = check_even_axioms(t)
        assert report.find("triple.even.d_selfadjoint").passed
        assert report.find("triple.even.gamma_square").advisory


class TestRealAxioms:
    def test_standard_construction_any_mass(self):
        rng = np.random.default_rng(5)
        for l in (1, 2, 3):
            t = build_triple_from_mass_matrix(crandn(rng, l, l))
            assert check_real_axioms(t).all_passed

    def test_trivial_k_fails_commutation_for_complex_dirac(self):
        rng = np.random.default_rng(7)
        m = crandn(rng, 1, 1)
        assert abs(m[0, 0].imag) > 1e-6
        t = build_triple_from_mass_matrix(m)
        swapped = FiniteSpectralTriple(t.blocks, t.D, t.gamma, t.epsilon,
                                       np.eye(4, dtype=complex))
        report = check_real_axioms(swapped)
        assert not report.find("triple.real.commute_D").passed

    def test_zero_dirac_with_block_swap(self):
        _, _, K = standard_operators(1)
        gamma, epsilon, _ = standard_operators(1)
        t = FiniteSpectralTriple(blocks4(1), np.zeros((4, 4)), gamma,
                                 epsilon, K)
        report = check_real_axioms(t)
        assert report.all_passed

    def test_absent_real_structure(self):
        t = FiniteSpectralTriple(blocks4(1), np.eye(4))
        assert check_real_axioms(t).checks == (AxiomCheck(
            "triple.real", True, 0.0,
            "not applicable: no real structure present", advisory=True),)


def _rows(prefix, names, advisory=False):
    return [(f"{prefix}.{name}", advisory) for name in names]


EVEN_ROWS = _rows("triple.even", ["d_selfadjoint", "gamma_selfadjoint",
                                  "gamma_square", "anticommute_gamma",
                                  "algebra_commutes_gamma",
                                  "inner_derivation"])
EVEN_ROWS_NO_GAMMA = (
    EVEN_ROWS[:1]
    + _rows("triple.even", ["gamma_selfadjoint", "gamma_square",
                            "anticommute_gamma", "algebra_commutes_gamma"],
            advisory=True)
    + EVEN_ROWS[-1:])
REAL_ROWS = _rows("triple.real", ["antiunitary", "square", "commute_D",
                                  "commute_gamma", "opposite_algebra"])
SO_REAL_ROWS = _rows("triple.so_real", ["selfadjoint", "square", "commute_D",
                                        "anticommute_J", "multiplicity"])
POINCARE_ROW = [("triple.poincare", True)]
ROW_INVENTORY = {
    "four_sector": EVEN_ROWS + REAL_ROWS + SO_REAL_ROWS + POINCARE_ROW,
    "no_K": (EVEN_ROWS + [("triple.real", True)]
             + [row for row in SO_REAL_ROWS
                if row[0] != "triple.so_real.anticommute_J"]
             + POINCARE_ROW),
    "no_gamma": (EVEN_ROWS_NO_GAMMA
                 + [row for row in REAL_ROWS
                    if row[0] != "triple.real.commute_gamma"]
                 + SO_REAL_ROWS),
    "no_epsilon": (EVEN_ROWS + REAL_ROWS + [("triple.so_real", True)]
                   + POINCARE_ROW),
    "singular_K": EVEN_ROWS + REAL_ROWS + SO_REAL_ROWS + POINCARE_ROW,
}


@pytest.mark.parametrize("case", sorted(ROW_INVENTORY))
def test_triple_battery_row_inventory(case):
    # The battery's rows in report order with their advisory flags; the
    # commutant-sense bimodule conditions are not among them.
    t = build_triple_from_mass_matrix(np.array([[1.0, 2j], [0.5, -1.0]]))
    operators = dict(gamma=t.gamma, epsilon=t.epsilon, K=t.K)
    if case == "singular_K":
        operators["K"] = np.diag([1.0] * 7 + [0.0])
    elif case != "four_sector":
        operators[case[3:]] = None
    report = check_triple(FiniteSpectralTriple(t.blocks, t.D, **operators))
    assert [(c.axiom_id, c.advisory)
            for c in report.checks] == ROW_INVENTORY[case]
    if case == "singular_K":
        assert not report.find("triple.real.opposite_algebra").passed


class TestSoRealAxioms:
    def test_standard_construction(self):
        t = build_triple_from_mass_matrix(np.array([[0.5, 1.0],
                                                    [2.0, 1.0j]]))
        report = check_so_real(t)
        assert report.all_passed
        eps = t.epsilon
        expected = np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex)
        np.testing.assert_array_equal(eps, expected)

    def test_identity_grading_fails_multiplicity(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        bad = FiniteSpectralTriple(t.blocks, t.D, t.gamma,
                                   np.eye(4, dtype=complex), t.K)
        report = check_so_real(bad)
        assert not report.find("triple.so_real.multiplicity").passed

    def test_chirality_as_extra_grading_fails_anticommutation(self):
        # γ commutes with J in this signature, so using it as the extra
        # grading breaks the anticommutation requirement.
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        bad = FiniteSpectralTriple(t.blocks, t.D, t.gamma, t.gamma, t.K)
        report = check_so_real(bad)
        assert not report.find("triple.so_real.anticommute_J").passed

    def test_absent_grading(self):
        t = FiniteSpectralTriple(blocks4(1), np.eye(4))
        assert check_so_real(t).checks == (AxiomCheck(
            "triple.so_real", True, 0.0,
            "not applicable: no extra grading present", advisory=True),)


class TestPoincare:
    def test_standard_square_mass_is_balanced(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        row = check_poincare(t)
        assert not row.passed
        assert row.witness.startswith("dim H_R = 2, dim H_L = 2;")

    def test_unbalanced_grading(self):
        t = FiniteSpectralTriple(blocks4(1), np.zeros((4, 4)),
                                 np.diag([1.0, 1.0, 1.0, -1.0]))
        row = check_poincare(t)
        assert row.passed
        assert row.witness.startswith("dim H_R = 3, dim H_L = 1;")

    def test_identity_grading(self):
        t = FiniteSpectralTriple(blocks4(1), np.zeros((4, 4)), np.eye(4))
        row = check_poincare(t)
        assert row.witness.startswith("dim H_R = 4, dim H_L = 0;")
        assert row.passed


def _spectrum_or_none(m):
    try:
        return hermitian_spectrum(m)
    except InputError:
        return None


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_non_hermitian_fallback_rows_at_the_bound(factor):
    # ε and γ miss self-adjointness by ``factor`` times the bound
    # ``tol.bound(‖·‖_F)`` (‖·‖_F = 2 to within 1e-18).  The multiplicity
    # and Poincaré rows must decide as ``hermitian_spectrum`` does: a
    # spectrum below the bound, the fallback row above it.
    t = build_triple_from_mass_matrix(np.array([[1.0]]))
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = factor * DEFAULT_TOL.bound(2.0) / np.sqrt(2.0)
    eps, gamma = t.epsilon + skew, t.gamma + skew
    report = check_triple(FiniteSpectralTriple(t.blocks, t.D, gamma, eps,
                                               t.K))
    rows = (report.find("triple.so_real.multiplicity"),
            report.find("triple.poincare"))
    eps_spectrum, gamma_spectrum = (_spectrum_or_none(eps),
                                    _spectrum_or_none(gamma))
    assert (eps_spectrum is None) == (gamma_spectrum is None) == (factor > 1)
    if factor > 1:
        assert rows == (
            AxiomCheck("triple.so_real.multiplicity", False, 1.0,
                       "spectrum unavailable: ε is not Hermitian"),
            AxiomCheck("triple.poincare", True, 0.0,
                       "not applicable: γ is not Hermitian", advisory=True))
        return
    deviation = float(np.max(np.abs(eps_spectrum - [-1, -1, 1, 1])))
    plus = int(np.count_nonzero(gamma_spectrum > 0))
    assert rows == (
        AxiomCheck("triple.so_real.multiplicity",
                   deviation <= DEFAULT_TOL.bound(1.0), deviation,
                   "eigenvalues must be -1 and +1, each with multiplicity 2"),
        AxiomCheck("triple.poincare", False, 0.0,
                   f"dim H_R = {plus}, dim H_L = {4 - plus}; dimension "
                   f"inequality not satisfied", advisory=True))
    assert plus == 2


class TestExtractMassMatrix:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for l in (1, 2, 3):
            m = crandn(rng, l, l)
            np.testing.assert_array_equal(
                extract_mass_matrix(build_triple_from_mass_matrix(m)), m)

    def test_stray_block_is_structural_error(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        d = t.D.copy()
        d[0, 2] = 1.0
        d[2, 0] = 1.0
        bad = FiniteSpectralTriple(t.blocks, d, t.gamma, t.epsilon, t.K)
        with pytest.raises(StructureError, match=r"\(1,3\)"):
            extract_mass_matrix(bad)

    def test_wrong_transpose_is_consistency_error(self):
        rng = np.random.default_rng(13)
        m = crandn(rng, 2, 2)
        t = build_triple_from_mass_matrix(m)
        d = t.D.copy()
        blocks = t.blocks
        # overwrite the (3,4) block with M instead of M^T
        d[blocks.block_slice(3), blocks.block_slice(4)] = m
        d[blocks.block_slice(4), blocks.block_slice(3)] = m.conj().T
        bad = FiniteSpectralTriple(blocks, d, t.gamma, t.epsilon, t.K)
        with pytest.raises(ConsistencyError):
            extract_mass_matrix(bad)

    def test_wrong_block_count_rejected(self):
        t = FiniteSpectralTriple(BlockStructure((1, 1)), np.eye(2))
        with pytest.raises(InputError):
            extract_mass_matrix(t)


class TestGeodesicEquation:
    """The equation of motion ``M (M*M - I) = 0`` of a coupling matrix,
    decided by :func:`is_partial_isometry`."""

    def test_projection_satisfies(self):
        assert is_partial_isometry(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_scaled_scalar_fails(self):
        m = np.array([[2.0]])
        assert not is_partial_isometry(m)
        # raw residual is |2 (4 - 1)| = 6
        assert abs(np.linalg.norm(m @ (m.conj().T @ m - np.eye(1))) - 6.0) \
            < 1e-12

    def test_polar_factors_satisfy_and_scaling_breaks(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            a = crandn(rng, rows, cols)
            u, _, vh = np.linalg.svd(a, full_matrices=False)
            factor = u @ vh
            assert is_partial_isometry(factor)
            assert not is_partial_isometry(1.1 * factor)

    def test_agrees_with_partial_isometry_predicate(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            kind = rng.integers(0, 3)
            if kind == 0:
                m = crandn(rng, rows, cols)
            elif kind == 1:
                m = random_partial_isometry(rng, rows, cols)
            else:
                m = 1.3 * random_partial_isometry(rng, rows, cols)
            # Oracle: the equation-of-motion residual M (M*M - I), on the
            # scale max(1, ‖M‖_F)³ that is_partial_isometry uses.
            residual = np.linalg.norm(m @ (m.conj().T @ m - np.eye(cols)))
            bound = DEFAULT_TOL.bound(max(1.0, np.linalg.norm(m)) ** 3)
            assert is_partial_isometry(m) == (residual <= bound)


class TestMassFormClosure:
    def test_two_hundred_random_draws(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(200):
            l = int(rng.integers(1, 5))
            t = build_triple_from_mass_matrix(crandn(rng, l, l))
            for battery in (check_even_axioms, check_real_axioms,
                            check_so_real):
                report = battery(t)
                assert report.all_passed
                worst = max(worst, report.worst_residual)
        assert worst <= 1e-12


class TestTripleJson:
    def test_round_trip(self):
        rng = np.random.default_rng(29)
        t = build_triple_from_mass_matrix(crandn(rng, 2, 2))
        decoded = triple_from_json(json_document(triple_to_json(t)))
        np.testing.assert_array_equal(decoded.D, t.D)
        np.testing.assert_array_equal(decoded.gamma, t.gamma)
        np.testing.assert_array_equal(decoded.epsilon, t.epsilon)
        np.testing.assert_array_equal(decoded.K, t.K)
        assert decoded.blocks == t.blocks

    def test_optional_operators_null(self):
        t = FiniteSpectralTriple(BlockStructure((1, 1)), np.eye(2))
        decoded = triple_from_json(json_document(triple_to_json(t)))
        assert decoded.gamma is None and decoded.K is None

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            triple_from_json({"blocks": [1, 1]})

import numpy as np
import pytest

from conftest import crandn, random_unitary

from ncg import (DEFAULT_TOL, InputError, ShapeError, SubspaceBasis,
                 Tolerance, hermitian_spectrum, is_partial_isometry,
                 operator_norm)
from ncg.matops import matrix_from_json, matrix_to_json


def unit(n, r, c):
    m = np.zeros((n, n), dtype=complex)
    m[r, c] = 1.0
    return m


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0

    def test_diagonal_matches_bruteforce_sup(self):
        # Independent oracle: maximize ‖m x‖ over random unit vectors.
        m = np.diag([2.0, -1.0]).astype(complex)
        rng = np.random.default_rng(7)
        best = 0.0
        for _ in range(4000):
            x = crandn(rng, 2)
            x /= np.linalg.norm(x)
            best = max(best, float(np.linalg.norm(m @ x)))
        value = operator_norm(m)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert best <= value + 1e-12
        assert value - best < 5e-3

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            operator_norm(np.zeros((0, 3)))

    def test_submultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = crandn(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            b = crandn(rng, a.shape[1], int(rng.integers(1, 7)))
            assert operator_norm(a @ b) <= \
                operator_norm(a) * operator_norm(b) * (1 + 1e-12) + 1e-12

    def test_cstar_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            a = crandn(rng, int(rng.integers(1, 7)), n)
            lhs = operator_norm(a.conj().T @ a)
            rhs = operator_norm(a) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestPartialIsometry:
    def test_projection(self):
        assert is_partial_isometry(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_scaled_identity_is_not(self):
        # v v* v = 8 I while v = 2 I.
        assert not is_partial_isometry(2.0 * np.eye(2))

    def test_qr_unitary_is(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            assert is_partial_isometry(random_unitary(rng, n))


class TestHermitianSpectrum:
    def test_diagonal_sorted(self):
        np.testing.assert_allclose(
            hermitian_spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_flip(self):
        np.testing.assert_allclose(
            hermitian_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])),
            [-1.0, 1.0], atol=1e-14)

    def test_gram_matrix_psd(self):
        rng = np.random.default_rng(5)
        a = crandn(rng, 4, 4)
        vals = hermitian_spectrum(a.conj().T @ a)
        assert vals[0] >= -1e-9 * operator_norm(a) ** 2

    def test_trace_identity(self):
        rng = np.random.default_rng(17)
        a = crandn(rng, 5, 5)
        h = (a + a.conj().T) / 2
        assert np.sum(hermitian_spectrum(h)) == pytest.approx(
            np.trace(h).real, rel=1e-12, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpanResidual:
    def test_member_is_zero(self):
        basis = SubspaceBasis(2, 2, [unit(2, 0, 0), unit(2, 1, 1)])
        assert basis.residual(unit(2, 0, 0)) <= 1e-14

    def test_orthogonal_keeps_norm(self):
        basis = SubspaceBasis(2, 2, [unit(2, 0, 0), unit(2, 1, 1)])
        x = 3.0 * unit(2, 0, 1)
        assert basis.residual(x) == pytest.approx(3.0, abs=1e-12)

    def test_off_diagonal_unit_against_diagonal_span(self):
        # Independent oracle: Gram-Schmidt projection by hand.
        basis_mats = [unit(2, 0, 0), unit(2, 1, 1)]
        x = unit(2, 0, 1)
        residual = x.copy()
        for b in basis_mats:
            q = b / np.linalg.norm(b)
            residual = residual - np.vdot(q, residual) * q
        expected = float(np.linalg.norm(residual))
        assert expected == pytest.approx(1.0, abs=1e-14)
        basis = SubspaceBasis(2, 2, basis_mats)
        assert basis.residual(x) == pytest.approx(expected, abs=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(23)
        basis = SubspaceBasis(3, 2, [crandn(rng, 3, 2) for _ in range(3)])
        x = crandn(rng, 3, 2)
        proj = basis.project(x)
        assert basis.residual(proj) <= DEFAULT_TOL.abs

    def test_shape_mismatch(self):
        basis = SubspaceBasis(2, 2, [unit(2, 0, 0)])
        with pytest.raises(ShapeError):
            basis.residual(np.eye(3))

    def test_dependent_basis_rejected(self):
        with pytest.raises(InputError):
            SubspaceBasis(2, 2, [unit(2, 0, 0), 2.0 * unit(2, 0, 0)])

    def test_empty_basis(self):
        basis = SubspaceBasis(2, 2, [])
        assert basis.dim == 0
        assert basis.residual(np.eye(2)) == pytest.approx(np.sqrt(2))


class TestTolerance:
    def test_bound_clamps_scale(self):
        tol = Tolerance(rel=1e-9, abs=1e-12)
        assert tol.bound(0.5) == 1e-9
        assert tol.bound(100.0) == pytest.approx(1e-7)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Tolerance(rel=-1.0)

    @pytest.mark.parametrize("kwargs", [{"rel": float("nan")},
                                        {"abs": float("nan")},
                                        {"rel": float("inf")}])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(InputError, match="finite"):
            Tolerance(**kwargs)


class TestJsonCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(31)
        m = crandn(rng, 3, 2)
        decoded = matrix_from_json(matrix_to_json(m))
        np.testing.assert_array_equal(decoded, m)

    def test_bool_entry_rejected(self):
        with pytest.raises(InputError, match=r"\(0,0\)"):
            matrix_from_json([[[True, 0.0]]])

    def test_ragged_rejected(self):
        with pytest.raises(InputError, match="row 1"):
            matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])

    def test_bad_pair_rejected(self):
        with pytest.raises(InputError, match=r"\(0,1\)"):
            matrix_from_json([[[1.0, 0.0], [2.0]]])

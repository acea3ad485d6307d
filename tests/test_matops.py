import json

import numpy as np
import pytest

from conftest import crandn, json_document, random_unitary, written_text
from oracles import indented_json, nested_lists

from ncg import (DEFAULT_TOL, InputError, ShapeError, SubspaceBasis,
                 Tolerance, hermitian_spectrum, is_partial_isometry,
                 operator_norm)
from ncg.matops import ENTRY_BOUND, matrix_from_json


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

    @pytest.mark.parametrize("call,arg", [
        ("project", np.ones((3, 2))),
        ("residuals", np.ones((1, 3, 2))),
        ("residuals", np.ones((0, 3, 2))),
        ("residuals", np.ones((6,))),
        ("coordinates", np.ones((1, 3, 2))),
        ("coordinates", np.ones((2, 6)))])
    def test_transposed_or_flat_input_is_a_shape_error(self, call, arg):
        # Same size, other shape: before the shape test these reshaped
        # silently and answered for the wrong matrix.
        basis = SubspaceBasis(2, 3, [np.eye(2, 3)])
        with pytest.raises(ShapeError):
            getattr(basis, call)(arg)

    def test_residuals_and_coordinates_match_the_projection(self):
        rng = np.random.default_rng(29)
        basis = SubspaceBasis(2, 3, crandn(rng, 4, 2, 3))
        stack = crandn(rng, 5, 2, 3)
        flat = stack.reshape(5, -1)
        onb = basis._onb
        coords = flat @ onb.conj().T
        np.testing.assert_array_equal(basis.coordinates(stack), coords)
        np.testing.assert_array_equal(
            basis.residuals(stack),
            np.linalg.norm(flat - coords @ onb, axis=1))
        assert basis.residuals(np.zeros((0, 2, 3))).shape == (0,)
        assert basis.coordinates(np.zeros((0, 2, 3))).shape == (0, 4)

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
        decoded = matrix_from_json(json_document(m))
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

    @pytest.mark.parametrize("view", [
        "c_order", "fortran", "transposed", "sliced", "real", "real_sliced",
        "signed_zeros", "non_finite", "real_non_finite", "empty_stack",
        "empty_rows", "real_empty"])
    def test_encoder_matches_per_cell_loop(self, view):
        """The writer's text for an array is ``json.dumps`` of its entries,
        spelled one by one; a real array's is that of ``a.tolist()``."""
        rng = np.random.default_rng(37)
        m = crandn(rng, 7, 5)
        m = {"c_order": m, "fortran": np.asfortranarray(m),
             "transposed": m.T, "sliced": m[1::2, ::-2],
             "real": m.real.copy(), "real_sliced": m.imag[::-3, 1::2],
             "signed_zeros": np.array([[-0.0, complex(0.0, -0.0)],
                                       [complex(-0.0, -0.0), 5e-324]]),
             "non_finite": np.array([[complex(np.nan, 1.0), np.inf],
                                     [-0.0, complex(2.0, -np.inf)]]),
             "real_non_finite": np.array([[np.nan, -np.inf], [1.5, -0.0]]),
             "empty_stack": np.zeros((0, 2, 3), dtype=complex),
             "empty_rows": np.zeros((2, 0), dtype=complex),
             "real_empty": np.zeros((0, 4))}[view]
        assert written_text(m) == indented_json(nested_lists(m))
        if m.dtype.kind == "f":
            assert written_text(m) == indented_json(m.tolist())
        assert written_text({"m": m}) == indented_json({"m": nested_lists(m)})

    def test_stack_encoder_matches_per_matrix_loop(self):
        stack = crandn(np.random.default_rng(38), 3, 2, 4)
        basis = SubspaceBasis(2, 4, stack)
        assert written_text(basis.stack) == indented_json(
            [nested_lists(m) for m in stack])
        assert written_text(SubspaceBasis(2, 4, []).stack) == "[]"


def _entry(value):
    return [[[1.0, 0.0], [value, 0.0]], [[0.0, value], [2, 3]]]


BIG_INT = int(ENTRY_BOUND) + 1
TOO_LARGE = "exceeds the magnitude bound 1e+48"
NOT_PAIR = "is not an [re, im] pair"
NO_ROWS = "expected a nonempty array of rows"
# name: (data, the refusal text after "D: ", or None when accepted)
DECODE_CASES = {
    "int_above_bound": (_entry(BIG_INT), f"entry (0,1) {TOO_LARGE}"),
    "negative_int_above_bound": (_entry(-BIG_INT), f"entry (0,1) {TOO_LARGE}"),
    "int_at_bound": (_entry(int(ENTRY_BOUND)), None),
    "power_of_ten": (_entry(10 ** 48), None),
    "negative_power_of_ten": (_entry(-10 ** 48), None),
    "float_at_bound": (_entry(ENTRY_BOUND), None),
    "huge_int": (_entry(10 ** 400), f"entry (0,1) {TOO_LARGE}"),
    "float_above_bound": (_entry(1e49), f"entry (0,1) {TOO_LARGE}"),
    "inf": (_entry(float("inf")), f"entry (0,1) {TOO_LARGE}"),
    "negative_inf": (_entry(float("-inf")), f"entry (0,1) {TOO_LARGE}"),
    "nan": (_entry(float("nan")), "entries must be finite"),
    "nan_before_big": ([[[float("nan"), 0.0], [1e60, 0.0]]],
                       f"entry (0,1) {TOO_LARGE}"),
    "bool": (_entry(True), f"entry (0,1) {NOT_PAIR}"),
    "string": (_entry("1.0"), f"entry (0,1) {NOT_PAIR}"),
    "none": (_entry(None), f"entry (0,1) {NOT_PAIR}"),
    "ragged": ([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
               "row 1 has length 2, expected 1"),
    "empty_row": ([[[1.0, 0.0]], []], "row 1 is not a nonempty array"),
    "row_not_list": ([[[1.0, 0.0]], 7], "row 1 is not a nonempty array"),
    "three_part_cell": ([[[1.0, 0.0, 0.0]]], f"entry (0,0) {NOT_PAIR}"),
    "cell_not_list": ([[1.0]], f"entry (0,0) {NOT_PAIR}"),
    "tuple_cell": ([[(1.0, -0.0), (2, 3)]], None),
    "signed_zeros": ([[[-0.0, 0.0], [0.0, -0.0]]], None),
    "tiny": ([[[5e-324, -5e-324]]], None),
    "ints": ([[[1, 2], [-3, 0]], [[4, 5], [6, 7]]], None),
    "empty": ([], NO_ROWS),
    "not_a_list": ({"0": [[1.0, 0.0]]}, NO_ROWS),
    # Several faults: the first in reading order is named.
    "bad_cell_before_ragged_row": (
        [[[True, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], f"entry (0,0) {NOT_PAIR}"),
    "ragged_row_before_bad_cell": (
        [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]], [[None, 0.0]]],
        "row 1 has length 2, expected 1"),
    "bad_cell_before_empty_row": (
        [[[1.0, 0.0]], [[1.0, "x"]], []], f"entry (1,0) {NOT_PAIR}"),
    "large_before_bad_pair": (
        [[[1e60, 0.0], [None, 0.0]]], f"entry (0,0) {TOO_LARGE}"),
    "large_and_bad_pair_in_one_cell": (
        [[[1e60, None]]], f"entry (0,0) {NOT_PAIR}"),
}


@pytest.mark.parametrize("shape", [None, (2, 2), (1, 2)])
@pytest.mark.parametrize("case", sorted(DECODE_CASES))
def test_decoder_values_and_refusals(case, shape):
    """Each part as ``complex(re, im)``, bit for bit, or the exact
    refusal text; a wrong ``shape`` is named only for valid entries."""
    data, refusal = DECODE_CASES[case]
    if refusal is None:
        expected = np.array([[complex(*cell) for cell in row]
                             for row in data])
        if shape in (None, expected.shape):
            m = matrix_from_json(data, "D", shape)
            assert m.dtype == complex and m.shape == expected.shape
            assert m.tobytes() == expected.tobytes()
            return
        refusal = f"shape {expected.shape}, expected {shape}"
    with pytest.raises((InputError, ShapeError)) as info:
        matrix_from_json(data, "D", shape)
    assert str(info.value) == f"D: {refusal}"


SPECIAL_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1e48, -1e48, 1e308, -1e308,
                   1.5, -2, 0, 10 ** 20, -(10 ** 30), 10 ** 400]
NEAR_MISSES = {
    "bool_in_pair": [[[True, 0.0]]],
    "none_in_pair": [[[None, 0.0]]],
    "nan": [[[float("nan"), 0.0]]],
    "inf": [[[0.0, float("inf")]], [[1.0, 2.0]]],
    "three_part_cell": [[[1.0, 2.0, 3.0]]],
    "ragged": [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]],
    "ragged_depth": [[[1.0, 2.0]], [1.0, 2.0]],
    "empty_list": [],
    "empty_dict": {},
    "empty_rows": [[], []],
    "non_pairs": [1, 2, 3],
    "one_pair": [1.5, -0.0],
    "string_pair": [["1", "2"]],
    "float_subclass": [[np.float64(0.5), 1.0]],
    "tuple_pair": [(1.0, 2.0)],
    "keys": {"1,2": [[[1.0, 0.0]]], "é": {"ß\n": "ünïcode\u2028"},
             "": None, "a b": [True, False]},
}


SCALARS = [None, True, "s", 1, -0.0, 1e-300, "ä,\""]


def _random_json(rng, depth):
    """A seeded nested document of dicts, lists, complex arrays, lists of
    pairs with special numbers planted in them, near misses and
    scalars."""
    kind = rng.integers(0, 6 if depth else 3)
    if kind == 0:
        return SCALARS[rng.integers(0, len(SCALARS))]
    if kind in (1, 2):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4))) + (2,)
        parts = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6)
        if kind == 1:
            return parts.view(complex)[..., 0]
        out = parts.tolist()
        for _ in range(3):
            *where, last = np.unravel_index(rng.integers(0, parts.size),
                                            shape)
            cell = out
            for i in where:
                cell = cell[i]
            cell[last] = SPECIAL_NUMBERS[rng.integers(0,
                                                      len(SPECIAL_NUMBERS))]
        return out
    if kind == 3:
        keys = ["a", "1,2", "é", "z", "0", "10", "ü,ö", " "]
        return {keys[k]: _random_json(rng, depth - 1)
                for k in rng.choice(len(keys), rng.integers(0, 5),
                                    replace=False)}
    if kind == 4:
        return [_random_json(rng, depth - 1)
                for _ in range(rng.integers(0, 4))]
    return list(NEAR_MISSES.values())[rng.integers(0, len(NEAR_MISSES))]


class TestWriteJson:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (3, 5),
                                       (8, 8), (17, 33), (33, 17)])
    def test_matrix_and_stack(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        m = crandn(rng, *shape) * 10.0 ** rng.integers(-300, 300, shape)
        for obj in (m, np.stack([m] * 3), {"D": m, "blocks": list(shape)},
                    {"homsets": {"1,1": m[None], "1,2": []}},
                    [{"r": 0.5, "U": m}, {"r": -1, "U": m.T}]):
            assert written_text(obj) == indented_json(nested_lists(obj))

    @pytest.mark.parametrize("number", SPECIAL_NUMBERS, ids=repr)
    def test_special_numbers(self, number):
        for obj in ([[[number, 1.0]]], [[[1.0, number], [number, -0.0]]],
                    {"x": [[[[number, number]]]]}):
            assert written_text(obj) == indented_json(obj)

    @pytest.mark.parametrize("case", sorted(NEAR_MISSES))
    def test_near_misses(self, case):
        obj = NEAR_MISSES[case]
        for doc in (obj, [obj], {"k": [obj, {"m": obj}]}):
            assert written_text(doc) == indented_json(doc)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_documents(self, seed):
        rng = np.random.default_rng(seed)
        doc = {"doc": _random_json(rng, 4), "more": _random_json(rng, 4)}
        assert written_text(doc) == indented_json(nested_lists(doc))

    def test_matrices_are_formatted_by_template(self, monkeypatch):
        """A matrix or stack never reaches ``json.dumps``; only its key
        does."""
        m = crandn(np.random.default_rng(5), 33, 17)
        expected = indented_json(nested_lists({"U": [m, m[None]]}))
        calls, dumps = [], json.dumps
        monkeypatch.setattr(json, "dumps",
                            lambda o, **kw: calls.append(o) or dumps(o, **kw))
        assert written_text({"U": [m, m[None]]}) == expected
        assert calls == ["U"]

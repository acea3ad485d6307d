import numpy as np
import pytest

from conftest import crandn, json_document, random_unitary

from ncg import (BlockStructure, FellBundleFD, InputError, ShapeError,
                 SubspaceBasis, UnitaryField, UnsupportedConfigurationError,
                 bundle_from_json, bundle_to_json, check_bundle,
                 check_fell_axioms, check_saturated, check_unital,
                 full_morita_bundle, hermitian_spectrum, linking_algebra,
                 operator_norm, semidirect_bundle)


def unit(rows, cols, r, c):
    m = np.zeros((rows, cols), dtype=complex)
    m[r, c] = 1.0
    return m


def spans_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.dim != b.dim:
        return False
    return (max(a.residuals(b.stack), default=0.0) < 1e-12
            and max(b.residuals(a.stack), default=0.0) < 1e-12)


class TestBlockStructure:
    def test_offsets(self):
        blocks = BlockStructure((1, 2, 3))
        assert blocks.total == 6
        assert blocks.offsets == (0, 1, 3)

    def test_invalid_sizes(self):
        with pytest.raises(InputError):
            BlockStructure((1, 0))

    def test_algebra_basis_count(self):
        blocks = BlockStructure((1, 2))
        assert sum(1 for _ in blocks.algebra_basis()) == 5
        assert blocks.algebra_dim() == 5

    def test_unit_order_is_block_by_block_row_major(self):
        # Witnesses print "algebra unit {k}" in this order; the loop below
        # is the reference for unit_indices and both ways to build the units.
        blocks = BlockStructure((2, 1, 3))
        want = [(off + r, off + c) for off, s in ((0, 2), (2, 1), (3, 3))
                for r in range(s) for c in range(s)]
        rows, cols = blocks.unit_indices()
        assert list(zip(rows.tolist(), cols.tolist())) == want
        reference = np.zeros((len(want), 6, 6), dtype=complex)
        for k, (r, c) in enumerate(want):
            reference[k, r, c] = 1.0
        np.testing.assert_array_equal(np.stack(list(blocks.algebra_basis())),
                                      reference)


class TestFullMoritaBundle:
    def test_two_points_is_full_matrix_algebra(self):
        # Four one-dimensional fibres assembling to all of M_2.
        b = full_morita_bundle(BlockStructure((1, 1)))
        assert len(b.fibres) == 4
        assert all(f.dim == 1 for f in b.fibres.values())
        assert linking_algebra(b).dim == 4
        assert check_bundle(b).all_passed

    def test_single_point(self):
        b = full_morita_bundle(BlockStructure((1,)))
        assert len(b.fibres) == 1
        assert b.fibres[(1, 1)].dim == 1

    def test_rectangular_fibre_dimension(self):
        b = full_morita_bundle(BlockStructure((1, 2)))
        assert b.fibres[(1, 2)].dim == 2
        assert b.fibres[(1, 2)].ambient_shape == (1, 2)


class TestFellAxioms:
    def test_full_bundle_three_points(self):
        report = check_fell_axioms(full_morita_bundle(BlockStructure((1, 1, 1))))
        assert report.all_passed
        assert report.worst_residual == pytest.approx(0.0, abs=1e-12)

    def test_broken_involution_detected(self):
        # Fibre over (1,2) carries a matrix whose adjoint is missing from
        # the fibre over (2,1).
        blocks = BlockStructure((1, 1))
        fibres = {
            (1, 1): SubspaceBasis(1, 1, [np.eye(1)]),
            (2, 2): SubspaceBasis(1, 1, [np.eye(1)]),
            (1, 2): SubspaceBasis(1, 1, [np.ones((1, 1))]),
        }
        report = check_fell_axioms(FellBundleFD(blocks, fibres))
        involution = report.find("fell.axiom.6")
        assert not involution.passed
        assert involution.residual == pytest.approx(1.0)
        assert not report.all_passed

    def test_product_closure_checked_for_partial_fibres(self):
        # Single-unit fibres over every arrow: brute-forcing all basis
        # products keeps everything inside the corner subspaces, so
        # closure passes even though the bundle is far from full.
        blocks = BlockStructure((2, 2))
        corner = unit(2, 2, 0, 0)
        fibres = {g: SubspaceBasis(2, 2, [corner])
                  for g in blocks.groupoid().arrows()}
        bundle = FellBundleFD(blocks, fibres)
        report = check_fell_axioms(bundle)
        assert report.find("fell.axiom.2").passed
        assert report.find("fell.axiom.6").passed
        # The cross product (1,2) x (2,1) in particular must land in the
        # diagonal fibre.
        e = bundle.fibres[(1, 2)].stack[0]
        assert bundle.fibres[(1, 1)].residual(e @ e.conj().T) < 1e-12
        # Not unital, though: the corner span misses the identity.
        assert not check_unital(bundle).passed

    def test_closure_violation_detected(self):
        # Product of the off-diagonal units is the diagonal unit e11,
        # but the diagonal fibre only contains the other corner.
        blocks = BlockStructure((2,))
        fibres = {(1, 1): SubspaceBasis(2, 2, [unit(2, 2, 1, 1),
                                               unit(2, 2, 0, 1),
                                               unit(2, 2, 1, 0)])}
        report = check_fell_axioms(FellBundleFD(blocks, fibres))
        assert not report.find("fell.axiom.2").passed

    def test_cstar_identity_and_positivity_on_fibres(self):
        rng = np.random.default_rng(41)
        b = full_morita_bundle(BlockStructure((2, 3)))
        for g, fibre in b.fibres.items():
            coeff = crandn(rng, fibre.dim)
            e = np.tensordot(coeff, fibre.stack, axes=1)
            assert operator_norm(e.conj().T @ e) == pytest.approx(
                operator_norm(e) ** 2, rel=1e-9)
            assert hermitian_spectrum(e.conj().T @ e)[0] >= \
                -1e-9 * operator_norm(e) ** 2


class TestSaturation:
    def test_full_bundle_saturated(self):
        for sizes in ((1,), (1, 1), (2, 1), (2, 2, 1)):
            assert check_saturated(full_morita_bundle(BlockStructure(sizes))).passed

    def test_zero_off_diagonal_fails(self):
        blocks = BlockStructure((1, 1))
        fibres = {
            (1, 1): SubspaceBasis(1, 1, [np.eye(1)]),
            (2, 2): SubspaceBasis(1, 1, [np.eye(1)]),
        }
        check = check_saturated(FellBundleFD(blocks, fibres))
        assert not check.passed
        assert "fibre (1, 1)" in check.witness or "(1, 1)" in check.witness

    def test_line_fibre_saturated(self):
        blocks = BlockStructure((1, 1))
        fibres = {
            (1, 1): SubspaceBasis(1, 1, [np.eye(1)]),
            (2, 2): SubspaceBasis(1, 1, [np.eye(1)]),
            (1, 2): SubspaceBasis(1, 1, [np.ones((1, 1))]),
            (2, 1): SubspaceBasis(1, 1, [np.ones((1, 1))]),
        }
        assert check_saturated(FellBundleFD(blocks, fibres)).passed


class TestUnitality:
    def test_full_bundle_unital(self):
        assert check_unital(full_morita_bundle(BlockStructure((2, 1)))).passed

    def test_identity_free_diagonal_fails(self):
        blocks = BlockStructure((2,))
        fibres = {(1, 1): SubspaceBasis(2, 2, [unit(2, 2, 0, 1)])}
        assert not check_unital(FellBundleFD(blocks, fibres)).passed

    def test_identity_span_is_unital(self):
        blocks = BlockStructure((2,))
        fibres = {(1, 1): SubspaceBasis(2, 2, [np.eye(2)])}
        assert check_unital(FellBundleFD(blocks, fibres)).passed


class TestSemidirectBundle:
    def test_identity_field_reproduces_full_bundle(self):
        blocks = BlockStructure((1, 1))
        sd = semidirect_bundle(blocks, UnitaryField.identity(blocks))
        full = full_morita_bundle(blocks)
        for g in full.arrows():
            assert spans_equal(sd.bundle.fibres[g], full.fibres[g])

    def test_flip_field_product_rule(self):
        # Transport by the flip unitary: the record product carries the
        # first component through the second arrow's transport.
        blocks = BlockStructure((2, 2))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        field = UnitaryField(blocks, {(1, 2): x})
        sd = semidirect_bundle(blocks, field)
        rng = np.random.default_rng(43)
        a, b = crandn(rng, 2, 2), crandn(rng, 2, 2)
        arrow, component = sd.product(((1, 2), a), ((2, 1), b))
        assert arrow == (1, 1)
        np.testing.assert_allclose(component, x @ a @ x @ b, atol=1e-12)

    def test_involution_is_involutive(self):
        blocks = BlockStructure((2, 2))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        sd = semidirect_bundle(
            blocks, UnitaryField(blocks, {(1, 2): x}))
        rng = np.random.default_rng(47)
        for _ in range(50):
            g = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            a = crandn(rng, 2, 2)
            h, c = sd.involution(sd.involution((g, a)))
            assert h == g
            np.testing.assert_allclose(c, a, atol=1e-12)

    def test_record_products_embed_to_matrix_products(self):
        rng = np.random.default_rng(53)
        blocks = BlockStructure((3, 3))
        u = random_unitary(rng, 3)
        sd = semidirect_bundle(
            blocks, UnitaryField(blocks, {(1, 2): u}))
        for _ in range(20):
            g = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            h = (g[1], int(rng.integers(1, 3)))
            a, b = crandn(rng, 3, 3), crandn(rng, 3, 3)
            left = sd.embed(sd.product((g, a), (h, b)))
            right = sd.embed((g, a)) @ sd.embed((h, b))
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_unequal_blocks_rejected(self):
        blocks = BlockStructure((1, 2))
        with pytest.raises(UnsupportedConfigurationError):
            semidirect_bundle(blocks, UnitaryField(blocks, {}))

    def test_non_multiplicative_field_rejected(self):
        # On three objects the transport unitaries must compose; an
        # incompatible triple is refused.
        blocks = BlockStructure((2, 2, 2))
        rng = np.random.default_rng(59)
        gens = {(1, 2): random_unitary(rng, 2), (2, 3): random_unitary(rng, 2),
                (1, 3): random_unitary(rng, 2)}
        with pytest.raises(InputError, match="multiplicative"):
            semidirect_bundle(blocks, UnitaryField(blocks, gens))

    def test_cocycle_field_accepted_on_three_objects(self):
        blocks = BlockStructure((2, 2, 2))
        rng = np.random.default_rng(61)
        u12, u23 = random_unitary(rng, 2), random_unitary(rng, 2)
        gens = {(1, 2): u12, (2, 3): u23, (1, 3): u12 @ u23}
        sd = semidirect_bundle(blocks, UnitaryField(blocks, gens))
        assert check_bundle(sd.bundle).all_passed


class TestLinkingAlgebra:
    def test_full_two_blocks(self):
        assert linking_algebra(full_morita_bundle(BlockStructure((1, 2)))).dim == 9

    def test_diagonal_only(self):
        blocks = BlockStructure((1, 1))
        fibres = {
            (1, 1): SubspaceBasis(1, 1, [np.eye(1)]),
            (2, 2): SubspaceBasis(1, 1, [np.eye(1)]),
        }
        assert linking_algebra(FellBundleFD(blocks, fibres)).dim == 2

    def test_dimension_is_sum_of_fibre_dimensions(self):
        b = full_morita_bundle(BlockStructure((2, 1, 2)))
        assert linking_algebra(b).dim == sum(f.dim for f in b.fibres.values())
        assert linking_algebra(b).dim == b.blocks.total ** 2

    def test_closed_under_product_and_adjoint(self):
        rng = np.random.default_rng(67)
        b = full_morita_bundle(BlockStructure((1, 2)))
        algebra = linking_algebra(b)
        x = np.tensordot(crandn(rng, algebra.dim), algebra.stack, axes=1)
        y = np.tensordot(crandn(rng, algebra.dim), algebra.stack, axes=1)
        assert algebra.residual(x @ y) < 1e-9
        assert algebra.residual(x.conj().T) < 1e-9


class TestBundleJson:
    def test_round_trip(self):
        b = full_morita_bundle(BlockStructure((1, 2)))
        decoded = bundle_from_json(json_document(bundle_to_json(b)))
        for g in b.arrows():
            np.testing.assert_array_equal(decoded.fibres[g].stack,
                                          b.fibres[g].stack)

    def test_omitted_arrows_default_to_zero_fibre(self):
        data = {"blocks": [1, 1],
                "fibres": {"1,1": [[[[1.0, 0.0]]]], "2,2": [[[[1.0, 0.0]]]]}}
        b = bundle_from_json(data)
        assert b.fibres[(1, 2)].dim == 0

    def test_bad_key_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            bundle_from_json({"blocks": [1], "fibres": {"1,2": []}})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            FellBundleFD(BlockStructure((1, 2)),
                         {(1, 2): SubspaceBasis(2, 2, [np.eye(2)])})

import itertools

import numpy as np
import pytest

from conftest import crandn, json_document, random_normaliser, random_unitary

from ncg import (AxiomRefusalError, Bisection, BlockStructure,
                 DomainSectionError, FellBundleFD, SubspaceBasis,
                 UnitaryField, UnsupportedConfigurationError, all_bisections,
                 bisection_to_normaliser, build_triple_from_mass_matrix,
                 category_from_bundle, conditional_expectation,
                 full_morita_bundle, is_domain_section,
                 is_normaliser_bruteforce, normaliser_support)
from ncg.cstarcat import domain_section_from_json


def unit(n, r, c):
    m = np.zeros((n, n), dtype=complex)
    m[r, c] = 1.0
    return m


class TestCategoryFromBundle:
    def test_four_scalar_objects(self):
        cat = category_from_bundle(full_morita_bundle(BlockStructure((1, 1, 1, 1))))
        assert cat.object_count == 4
        assert all(cat.homset(i, j).dim == 1
                   for i in range(1, 5) for j in range(1, 5))

    def test_rectangular_homset_dimension(self):
        cat = category_from_bundle(full_morita_bundle(BlockStructure((1, 2))))
        assert cat.homset(1, 2).dim == 2

    def test_non_unital_bundle_refused(self):
        blocks = BlockStructure((2,))
        fibres = {(1, 1): SubspaceBasis(2, 2, [unit(2, 0, 0)])}
        with pytest.raises(AxiomRefusalError) as excinfo:
            category_from_bundle(FellBundleFD(blocks, fibres))
        assert not excinfo.value.report.find("fell.unital").passed


class TestNormaliserBruteforce:
    def test_block_diagonal_elements_normalise(self):
        rng = np.random.default_rng(3)
        blocks = BlockStructure((1, 2))
        a = np.zeros((3, 3), dtype=complex)
        a[blocks.block_slice(1), blocks.block_slice(1)] = crandn(rng, 1, 1)
        a[blocks.block_slice(2), blocks.block_slice(2)] = crandn(rng, 2, 2)
        assert is_normaliser_bruteforce(a, blocks)

    def test_single_entry_per_line_rule(self):
        blocks = BlockStructure((1, 1, 1))
        good = unit(3, 0, 1) + unit(3, 1, 2)
        bad = unit(3, 0, 1) + unit(3, 0, 2)
        assert is_normaliser_bruteforce(good, blocks)
        assert not is_normaliser_bruteforce(bad, blocks)

    def test_identity(self):
        assert is_normaliser_bruteforce(np.eye(3), BlockStructure((1, 2)))


class TestNormaliserSupport:
    def test_mass_dirac_support(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        cls = normaliser_support(t.D, t.blocks)
        assert cls.is_normaliser
        assert cls.support_map() == {1: 2, 2: 1, 3: 4, 4: 3}

    def test_off_diagonal_unit_is_free(self):
        cls = normaliser_support(unit(2, 0, 1), BlockStructure((1, 1)))
        assert cls.kind == "free"
        assert cls.support_map() == {2: 1}

    def test_block_diagonal_unitary(self):
        rng = np.random.default_rng(5)
        blocks = BlockStructure((2, 3))
        u = np.zeros((5, 5), dtype=complex)
        u[blocks.block_slice(1), blocks.block_slice(1)] = random_unitary(rng, 2)
        u[blocks.block_slice(2), blocks.block_slice(2)] = random_unitary(rng, 3)
        cls = normaliser_support(u, blocks)
        assert cls.kind == "unitary"
        assert cls.support_map() == {1: 1, 2: 2}

    def test_two_blocks_in_a_row_rejected(self):
        cls = normaliser_support(unit(2, 0, 0) + unit(2, 0, 1),
                                 BlockStructure((1, 1)))
        assert cls.kind == "not_normaliser"

    def test_invertible_but_not_unitary(self):
        cls = normaliser_support(np.diag([2.0, 3.0]), BlockStructure((1, 1)))
        assert cls.kind == "invertible"

    def test_oracle_agreement_exhaustive(self):
        # All 16 block-support patterns on two objects, random nonzero
        # blocks: the sandwich test and the support classifier agree.
        rng = np.random.default_rng(7)
        for sizes in ((1, 1), (1, 2)):
            blocks = BlockStructure(sizes)
            cells = list(itertools.product((1, 2), repeat=2))
            for mask in itertools.product((0, 1), repeat=4):
                for _ in range(3):
                    m = np.zeros((blocks.total, blocks.total), dtype=complex)
                    for on, (i, j) in zip(mask, cells):
                        if on:
                            blk = crandn(rng, blocks.sizes[i - 1],
                                         blocks.sizes[j - 1])
                            blk /= np.linalg.norm(blk)
                            m[blocks.block_slice(i), blocks.block_slice(j)] = blk
                    assert is_normaliser_bruteforce(m, blocks) == \
                        normaliser_support(m, blocks).is_normaliser


class TestMonoidClosure:
    def test_products_adjoints_identity(self):
        rng = np.random.default_rng(11)
        for sizes in ((1, 1), (1, 2), (2, 2)):
            blocks = BlockStructure(sizes)
            assert is_normaliser_bruteforce(np.eye(blocks.total), blocks)
            for _ in range(60):
                b = random_normaliser(rng, blocks)
                c = random_normaliser(rng, blocks)
                assert is_normaliser_bruteforce(b, blocks)
                assert is_normaliser_bruteforce(b @ c, blocks)
                assert is_normaliser_bruteforce(b.conj().T, blocks)


class TestConditionalExpectation:
    def test_truncation_formula(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        np.testing.assert_array_equal(
            conditional_expectation(m, BlockStructure((1, 1))),
            np.diag([1.0, 4.0]).astype(complex))

    def test_off_diagonal_unit_in_kernel(self):
        blocks = BlockStructure((1, 1))
        np.testing.assert_array_equal(
            conditional_expectation(unit(2, 0, 1), blocks), np.zeros((2, 2)))

    def test_fixes_block_diagonal(self):
        rng = np.random.default_rng(13)
        blocks = BlockStructure((2, 1))
        a = np.zeros((3, 3), dtype=complex)
        a[blocks.block_slice(1), blocks.block_slice(1)] = crandn(rng, 2, 2)
        np.testing.assert_array_equal(conditional_expectation(a, blocks), a)

    def test_idempotent_and_star_preserving(self):
        rng = np.random.default_rng(17)
        blocks = BlockStructure((1, 2))
        m = crandn(rng, 3, 3)
        p = conditional_expectation(m, blocks)
        np.testing.assert_array_equal(conditional_expectation(p, blocks), p)
        np.testing.assert_array_equal(
            conditional_expectation(m.conj().T, blocks), p.conj().T)

    def test_kernel_spanned_by_free_normalisers_for_scalar_blocks(self):
        # Maximal diagonal in M_4: the kernel has dimension 12 and every
        # off-diagonal matrix unit is free.
        blocks = BlockStructure((1, 1, 1, 1))
        images = []
        for r in range(4):
            for c in range(4):
                images.append(conditional_expectation(unit(4, r, c),
                                                      blocks).reshape(-1))
        rank = np.linalg.matrix_rank(np.stack(images))
        assert 16 - rank == 12
        for r in range(4):
            for c in range(4):
                if r != c:
                    cls = normaliser_support(unit(4, r, c), blocks)
                    assert cls.kind == "free"


class TestDomainSection:
    def test_mass_dirac_accepted(self):
        t = build_triple_from_mass_matrix(np.array([[2.0]]))
        section = is_domain_section(t.D, t.blocks)
        assert section.support == (2, 1, 4, 3)
        np.testing.assert_array_equal(section.assembled,
                                      section.assembled.conj().T)
        np.testing.assert_array_equal(section.assembled, t.D)

    def test_identity_accepted(self):
        section = is_domain_section(np.eye(3), BlockStructure((1, 2)))
        assert section.support == (1, 2)

    def test_missing_column_rejected_with_diagnostic(self):
        with pytest.raises(DomainSectionError, match="column 1"):
            is_domain_section(unit(2, 0, 1), BlockStructure((1, 1)))

    def test_two_blocks_in_column_rejected(self):
        m = unit(3, 0, 0) + unit(3, 1, 0) + unit(3, 1, 1) + unit(3, 2, 2)
        with pytest.raises(DomainSectionError, match="column 1"):
            is_domain_section(m, BlockStructure((1, 1, 1)))

    def test_not_self_adjoint_rejected(self):
        m = unit(2, 0, 1) + 2.0 * unit(2, 1, 0)
        with pytest.raises(DomainSectionError, match="self-adjoint"):
            is_domain_section(m, BlockStructure((1, 1)))

    def test_support_is_involution(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            blocks = BlockStructure((2, 2, 1))
            blk = crandn(rng, 2, 2)
            m = np.zeros((5, 5), dtype=complex)
            m[blocks.block_slice(2), blocks.block_slice(1)] = blk
            m[blocks.block_slice(1), blocks.block_slice(2)] = blk.conj().T
            m[4, 4] = rng.standard_normal()
            section = is_domain_section(m, blocks)
            pi = section.support
            assert all(pi[pi[j - 1] - 1] == j for j in (1, 2, 3))

    def test_json_round_trip(self):
        t = build_triple_from_mass_matrix(np.array([[1.0, 2.0],
                                                    [0.5j, -1.0]]))
        section = is_domain_section(t.D, t.blocks)
        decoded = domain_section_from_json(json_document(section.to_json()),
                                           t.blocks)
        np.testing.assert_array_equal(decoded.assembled, section.assembled)


class TestBisectionToNormaliser:
    def test_identity_bisection(self):
        blocks = BlockStructure((1, 2))
        np.testing.assert_array_equal(
            bisection_to_normaliser(Bisection.identity(2), blocks), np.eye(3))

    def test_transposition_lift(self):
        blocks = BlockStructure((1, 1))
        np.testing.assert_array_equal(
            bisection_to_normaliser(Bisection((2, 1)), blocks),
            np.array([[0.0, 1.0], [1.0, 0.0]]).astype(complex))

    def test_lift_is_homomorphism_on_three_objects(self):
        # All 36 pairs: the lift of a composite equals the product of the
        # lifts (identity fields), and supports compose accordingly.
        blocks = BlockStructure((1, 1, 1))
        for x in all_bisections(3):
            for y in all_bisections(3):
                from ncg import compose_bisections
                lift = bisection_to_normaliser(x, blocks) @ \
                    bisection_to_normaliser(y, blocks)
                composite = compose_bisections(x, y)
                np.testing.assert_array_equal(
                    lift, bisection_to_normaliser(composite, blocks))
                cls = normaliser_support(lift, blocks)
                assert cls.kind == "unitary"
                assert cls.support_map() == {
                    j: composite(j) for j in (1, 2, 3)}

    def test_unitary_field_lift(self):
        rng = np.random.default_rng(23)
        blocks = BlockStructure((2, 2))
        u = random_unitary(rng, 2)
        field = UnitaryField(blocks, {(1, 2): u})
        lifted = bisection_to_normaliser(Bisection((2, 1)), blocks, field)
        cls = normaliser_support(lifted, blocks)
        assert cls.kind == "unitary"
        assert cls.support_map() == {1: 2, 2: 1}
        np.testing.assert_array_equal(
            lifted[blocks.block_slice(1), blocks.block_slice(2)], u)

    def test_size_incompatible_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            bisection_to_normaliser(Bisection((2, 1)), BlockStructure((1, 2)))

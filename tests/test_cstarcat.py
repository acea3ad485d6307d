import itertools

import numpy as np
import pytest

from conftest import (crandn, json_document, random_involution,
                      random_normaliser, random_section_matrix,
                      random_unitary)
from oracles import (Bisection, UnitaryField, UnsupportedConfigurationError,
                     all_bisections, bisection_to_normaliser,
                     compose_bisections, failing_ids,
                     is_normaliser_bruteforce, loop_block_norms,
                     loop_domain_section)

from ncg import (DEFAULT_TOL, AxiomRefusalError, BlockStructure,
                 FellBundleFD, SubspaceBasis, build_triple_from_mass_matrix,
                 categorify, category_from_bundle, full_morita_bundle,
                 is_domain_section, normaliser_support)
from ncg.cstarcat import block_support, domain_section_from_json


def unit(n, r, c):
    m = np.zeros((n, n), dtype=complex)
    m[r, c] = 1.0
    return m


def support_perm(sigma, blocks):
    """``perm[j - 1]``: the block row of the nonzero block in column j."""
    return tuple(i for _, i in block_support(sigma, blocks))


class TestCategoryFromBundle:
    def test_four_scalar_objects(self):
        cat = category_from_bundle(full_morita_bundle(BlockStructure((1, 1, 1, 1))))
        assert cat.blocks.p == 4
        assert all(cat.fibres[(i, j)].dim == 1
                   for i in range(1, 5) for j in range(1, 5))

    def test_rectangular_homset_dimension(self):
        cat = category_from_bundle(full_morita_bundle(BlockStructure((1, 2))))
        assert cat.fibres[(1, 2)].dim == 2

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
            BlockStructure((1, 1)).block_diagonal_part(m),
            np.diag([1.0, 4.0]).astype(complex))

    def test_off_diagonal_unit_in_kernel(self):
        blocks = BlockStructure((1, 1))
        np.testing.assert_array_equal(
            blocks.block_diagonal_part(unit(2, 0, 1)), np.zeros((2, 2)))

    def test_fixes_block_diagonal(self):
        rng = np.random.default_rng(13)
        blocks = BlockStructure((2, 1))
        a = np.zeros((3, 3), dtype=complex)
        a[blocks.block_slice(1), blocks.block_slice(1)] = crandn(rng, 2, 2)
        np.testing.assert_array_equal(blocks.block_diagonal_part(a), a)

    def test_idempotent_and_star_preserving(self):
        rng = np.random.default_rng(17)
        blocks = BlockStructure((1, 2))
        m = crandn(rng, 3, 3)
        p = blocks.block_diagonal_part(m)
        np.testing.assert_array_equal(blocks.block_diagonal_part(p), p)
        np.testing.assert_array_equal(
            blocks.block_diagonal_part(m.conj().T), p.conj().T)

    def test_kernel_spanned_by_free_normalisers_for_scalar_blocks(self):
        # Maximal diagonal in M_4: the kernel has dimension 12 and every
        # off-diagonal matrix unit is free.
        blocks = BlockStructure((1, 1, 1, 1))
        images = []
        for r in range(4):
            for c in range(4):
                images.append(
                    blocks.block_diagonal_part(unit(4, r, c)).reshape(-1))
        rank = np.linalg.matrix_rank(np.stack(images))
        assert 16 - rank == 12
        for r in range(4):
            for c in range(4):
                if r != c:
                    cls = normaliser_support(unit(4, r, c), blocks)
                    assert cls.kind == "free"


class TestBlockNorms:
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e40])
    @pytest.mark.parametrize("sizes", [(1,), (2,) * 8, (1, 2, 3), (4, 1)])
    def test_agree_with_the_loop(self, sizes, scale):
        rng = np.random.default_rng([23, len(sizes),
                                     int(abs(np.log10(scale)))])
        blocks = BlockStructure(sizes)
        m = scale * crandn(rng, blocks.total, blocks.total)
        np.testing.assert_allclose(blocks.block_norms(m),
                                   loop_block_norms(blocks, m),
                                   rtol=1e-14, atol=0)

    @staticmethod
    def leaked(rng, blocks, m, i, j, ratio):
        """``m`` plus a block at ``(i, j)``, and its adjoint at ``(j, i)``,
        of norm ``ratio`` times the threshold ``rel * ‖m‖_F``."""
        blk = crandn(rng, blocks.sizes[i - 1], blocks.sizes[j - 1])
        blk *= (ratio * DEFAULT_TOL.rel * np.linalg.norm(m)
                / np.linalg.norm(blk))
        out = m.copy()
        out[blocks.block_slice(i), blocks.block_slice(j)] += blk
        out[blocks.block_slice(j), blocks.block_slice(i)] += blk.conj().T
        return out

    def cases(self, rng, blocks, base):
        for ratio in (1 - 1e-6, 1 + 1e-6, 1e-3, 1e3):
            for i in range(1, blocks.p + 1):
                for j in range(i, blocks.p + 1):
                    yield self.leaked(rng, blocks, base, i, j, ratio)

    @staticmethod
    def section_outcome(m, blocks):
        try:
            return support_perm(is_domain_section(m, blocks), blocks)
        except AxiomRefusalError as exc:
            return [(c.axiom_id, c.witness) for c in exc.report
                    if not c.passed]

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2, 2, 2), (1, 2)])
    def test_thresholds_decide_as_with_the_loop(self, sizes, monkeypatch):
        # Blocks just below and above the threshold rel * ‖m‖_F of
        # normaliser_support and is_domain_section.
        rng = np.random.default_rng([29, len(sizes)])
        blocks = BlockStructure(sizes)
        # A section pairs blocks of equal size only.
        involution = tuple(range(1, blocks.p + 1)) if len(set(sizes)) > 1 \
            else random_involution(rng, blocks.p)
        bases = [random_normaliser(rng, blocks),
                 random_section_matrix(rng, blocks, involution)]
        inputs = [m for base in bases for m in self.cases(rng, blocks, base)]
        fast = [(normaliser_support(m, blocks),
                 self.section_outcome(m, blocks)) for m in inputs]
        monkeypatch.setattr(BlockStructure, "block_norms",
                            lambda self, m: loop_block_norms(self, m))
        slow = [(normaliser_support(m, blocks),
                 self.section_outcome(m, blocks)) for m in inputs]
        assert fast == slow
        kinds = {cls.kind for cls, _ in fast}
        assert "not_normaliser" in kinds and len(kinds) > 1
        # The section rows accept exactly the supports the column loop
        # accepts.
        verdicts = [s if isinstance(s, tuple) else None for _, s in fast]
        assert verdicts == [loop_domain_section(m, blocks) for m in inputs]
        assert None in verdicts and any(verdicts)


class TestDomainSection:
    def test_mass_dirac_accepted(self):
        t = build_triple_from_mass_matrix(np.array([[2.0]]))
        sigma = is_domain_section(t.D, t.blocks)
        assert support_perm(sigma, t.blocks) == (2, 1, 4, 3)
        np.testing.assert_array_equal(sigma, sigma.conj().T)
        np.testing.assert_array_equal(sigma, t.D)

    def test_identity_accepted(self):
        blocks = BlockStructure((1, 2))
        sigma = is_domain_section(np.eye(3), blocks)
        assert support_perm(sigma, blocks) == (1, 2)

    def test_entries_off_the_support_come_out_positive_zero(self):
        # -0.0 and a block below the threshold, both off the support, are
        # written as +0.0; the support blocks are kept bit for bit.
        blocks = BlockStructure((1, 1, 1))
        m = np.array([[-0.0, 1.0, 1e-15], [1.0, -0.0, 0.0],
                      [1e-15, 0.0, -2.0]], dtype=complex)
        sigma = is_domain_section(m, blocks)
        want = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 0.0, -2.0]], dtype=complex)
        assert sigma.tobytes() == want.tobytes()

    @staticmethod
    def refused(m, blocks):
        with pytest.raises(AxiomRefusalError,
                           match="not a self-adjoint domain section") as exc:
            is_domain_section(m, blocks)
        return {c.axiom_id: c.witness for c in exc.value.report
                if not c.passed}

    def test_missing_column_rejected_with_diagnostic(self):
        rows = self.refused(unit(2, 0, 1), BlockStructure((1, 1)))
        assert rows["fell.path_lifting.normaliser"] == \
            "support {2: 1} covers 1 of the 2 block columns"

    def test_two_blocks_in_column_rejected(self):
        m = unit(3, 0, 0) + unit(3, 1, 0) + unit(3, 1, 1) + unit(3, 2, 2)
        rows = self.refused(m, BlockStructure((1, 1, 1)))
        assert rows["fell.path_lifting.normaliser"] == \
            "not a normaliser of the diagonal algebra"

    def test_not_self_adjoint_rejected(self):
        m = unit(2, 0, 1) + 2.0 * unit(2, 1, 0)
        assert self.refused(m, BlockStructure((1, 1))) == {
            "fell.path_lifting.selfadjoint": "‖PL - PL*‖"}

    def test_support_is_involution(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            blocks = BlockStructure((2, 2, 1))
            blk = crandn(rng, 2, 2)
            m = np.zeros((5, 5), dtype=complex)
            m[blocks.block_slice(2), blocks.block_slice(1)] = blk
            m[blocks.block_slice(1), blocks.block_slice(2)] = blk.conj().T
            m[4, 4] = rng.standard_normal()
            pi = support_perm(is_domain_section(m, blocks), blocks)
            assert all(pi[pi[j - 1] - 1] == j for j in (1, 2, 3))

    def test_json_round_trip(self):
        t = build_triple_from_mass_matrix(np.array([[1.0, 2.0],
                                                    [0.5j, -1.0]]))
        sigma = is_domain_section(t.D, t.blocks)
        decoded = domain_section_from_json(
            json_document(categorify(t).to_json()["sigma"]), t.blocks)
        np.testing.assert_array_equal(decoded, sigma)


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

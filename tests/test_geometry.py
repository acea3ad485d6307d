import numpy as np
import pytest

from conftest import (crandn, json_document, random_admissible_triple,
                      random_unitary)

from ncg import (AxiomRefusalError, BlockStructure, DomainSectionError,
                 FiniteSpectralTriple, FluctuationTerm, InputError,
                 apply_path_lifting, build_triple_from_mass_matrix,
                 categorify, category_from_bundle, check_even_axioms,
                 fell_triple_from_category, fluctuate, full_morita_bundle,
                 is_domain_section, is_normaliser_bruteforce,
                 normaliser_support, one_form, spectral_category,
                 triple_from_category)
from ncg.geometry import (fluctuation_terms_from_json,
                          fluctuation_terms_to_json,
                          spectral_category_from_json)


class TestCategorify:
    def test_standard_four_sector_triple(self):
        t = build_triple_from_mass_matrix(np.array([[1.5]]))
        sc = categorify(t)
        assert sc.category.object_count == 4
        assert sc.sigma.support == (2, 1, 4, 3)

    def test_zero_dirac_rejected_with_fallback_hint(self):
        gamma, epsilon, K = __import__("ncg").standard_operators(1)
        t = FiniteSpectralTriple(BlockStructure((1, 1, 1, 1)),
                                 np.zeros((4, 4)), gamma, epsilon, K)
        with pytest.raises(DomainSectionError, match="identity section"):
            categorify(t)

    def test_failing_battery_refused(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        bad = FiniteSpectralTriple(t.blocks, t.D, np.eye(4, dtype=complex),
                                   t.epsilon, t.K)
        with pytest.raises(AxiomRefusalError, match="anticommute"):
            categorify(bad)

    def test_round_trip_returns_same_dirac(self):
        rng = np.random.default_rng(3)
        t = build_triple_from_mass_matrix(crandn(rng, 2, 2))
        sc = categorify(t)
        back = triple_from_category(sc, t.gamma, t.epsilon, t.K)
        np.testing.assert_array_equal(back.D, t.D)
        assert back.blocks == t.blocks


class TestTripleFromCategory:
    def test_original_operators_restored(self):
        t = build_triple_from_mass_matrix(np.array([[0.0, 1.0],
                                                    [1.0j, 0.0]]))
        sc = categorify(t)
        back = triple_from_category(sc, t.gamma, t.epsilon, t.K)
        np.testing.assert_array_equal(back.gamma, t.gamma)
        np.testing.assert_array_equal(back.K, t.K)

    def test_without_operators_only_selfadjointness_is_checked(self):
        t = build_triple_from_mass_matrix(np.array([[2.0]]))
        back = triple_from_category(categorify(t))
        assert back.gamma is None
        report = check_even_axioms(back)
        assert report.find("triple.even.d_selfadjoint").passed
        assert report.find("triple.even.anticommute_gamma").advisory

    def test_diagonal_hermitian_section(self):
        # Identity-supported section on two equal blocks gives a valid
        # block-diagonal Dirac operator.
        rng = np.random.default_rng(5)
        blocks = BlockStructure((2, 2))
        h1 = crandn(rng, 2, 2)
        h1 = (h1 + h1.conj().T) / 2
        sigma = np.zeros((4, 4), dtype=complex)
        sigma[:2, :2] = h1
        sigma[2:, 2:] = np.eye(2)
        category = category_from_bundle(full_morita_bundle(blocks))
        section = is_domain_section(sigma, blocks)
        sc = spectral_category(category, section)
        back = triple_from_category(sc)
        assert check_even_axioms(back).find("triple.even.d_selfadjoint").passed
        np.testing.assert_array_equal(back.D, sigma)

    def test_invalid_gamma_rejected(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        sc = categorify(t)
        with pytest.raises(AxiomRefusalError):
            triple_from_category(sc, gamma=2.0 * np.eye(4))


class TestFellTripleFromCategory:
    def test_standard_triple_becomes_bundle_triple(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        ft = fell_triple_from_category(categorify(t))
        assert ft.hilbert_dim == 4
        assert ft.bundle.blocks.p == 4
        np.testing.assert_array_equal(ft.PL, t.D)

    def test_identity_section_lifts_to_identity_operator(self):
        blocks = BlockStructure((1, 2))
        category = category_from_bundle(full_morita_bundle(blocks))
        section = is_domain_section(np.eye(3), blocks)
        ft = fell_triple_from_category(spectral_category(category, section))
        np.testing.assert_array_equal(ft.PL, np.eye(3))
        cls = normaliser_support(ft.PL, blocks)
        assert cls.support_map() == {1: 1, 2: 2}

    def test_round_trip_exact_on_random_spectral_categories(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = random_admissible_triple(rng)
            sc = categorify(t)
            ft = fell_triple_from_category(sc)
            category = category_from_bundle(ft.bundle)
            section = is_domain_section(ft.PL, ft.bundle.blocks)
            sc_back = spectral_category(category, section)
            np.testing.assert_array_equal(sc_back.sigma.assembled,
                                          sc.sigma.assembled)
            assert sc_back.sigma.support == sc.sigma.support
            assert sc_back.blocks == sc.blocks

    def test_path_lifting_operator_is_normaliser(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_admissible_triple(rng)
            ft = fell_triple_from_category(categorify(t))
            assert is_normaliser_bruteforce(ft.PL, ft.bundle.blocks)
            cls = normaliser_support(ft.PL, ft.bundle.blocks)
            assert len(cls.support_map()) == ft.bundle.blocks.p

    def test_self_adjoint_section_gives_hermitian_operator(self):
        rng = np.random.default_rng(13)
        t = random_admissible_triple(rng)
        ft = fell_triple_from_category(categorify(t))
        np.testing.assert_allclose(ft.PL, ft.PL.conj().T, atol=1e-12)

    def test_json_round_trip(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        sc = categorify(t)
        decoded = spectral_category_from_json(json_document(sc.to_json()))
        np.testing.assert_array_equal(decoded.sigma.assembled,
                                      sc.sigma.assembled)


class TestApplyPathLifting:
    def test_swap_transport(self):
        pl = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            apply_path_lifting(pl, np.array([1.0, 0.0])),
            np.array([0.0, 1.0]))

    def test_identity(self):
        psi = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(apply_path_lifting(np.eye(3), psi), psi)

    def test_block_support_transport(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = random_admissible_triple(rng)
            blocks = t.blocks
            section = is_domain_section(t.D, blocks)
            j = int(rng.integers(1, blocks.p + 1))
            psi = np.zeros(blocks.total, dtype=complex)
            sl = blocks.block_slice(j)
            psi[sl] = crandn(rng, blocks.sizes[j - 1])
            out = apply_path_lifting(t.D, psi)
            target = blocks.block_slice(section.support[j - 1])
            mask = np.ones(blocks.total, dtype=bool)
            mask[target] = False
            assert np.all(out[mask] == 0)

    def test_shape_mismatch(self):
        from ncg import ShapeError
        with pytest.raises(ShapeError):
            apply_path_lifting(np.eye(2), np.ones(3))


class TestFluctuate:
    def test_identity_term(self):
        rng = np.random.default_rng(19)
        d = crandn(rng, 3, 3)
        np.testing.assert_allclose(
            fluctuate(d, [(1.0, np.eye(3))]), d, atol=1e-14)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(23)
        d = crandn(rng, 4, 4)
        u = random_unitary(rng, 4)
        np.testing.assert_allclose(
            fluctuate(d, [(0.5, u), (0.5, u)]),
            fluctuate(d, [(1.0, u)]), atol=1e-12)

    def test_preserves_selfadjointness(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = crandn(rng, n, n)
            d = d + d.conj().T
            terms = [FluctuationTerm(float(rng.standard_normal()),
                                     random_unitary(rng, n))
                     for _ in range(3)]
            out = fluctuate(d, terms)
            scale = np.linalg.norm(d) * sum(abs(t.r) for t in terms)
            assert np.linalg.norm(out - out.conj().T) <= 1e-12 * max(1, scale)

    def test_preserves_grading_anticommutation(self):
        rng = np.random.default_rng(31)
        t = build_triple_from_mass_matrix(crandn(rng, 2, 2))
        # block-diagonal unitary commuting with the grading
        u = np.zeros((8, 8), dtype=complex)
        for j in range(1, 5):
            sl = t.blocks.block_slice(j)
            u[sl, sl] = random_unitary(rng, 2)
        out = fluctuate(t.D, [(2.0, u)])
        anti = out @ t.gamma + t.gamma @ out
        assert np.linalg.norm(anti) <= 1e-10

    def test_section_support_invariant_under_inner_fluctuation(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            t = random_admissible_triple(rng)
            blocks = t.blocks
            before = is_domain_section(t.D, blocks)
            u = np.zeros((blocks.total, blocks.total), dtype=complex)
            for j in range(1, blocks.p + 1):
                sl = blocks.block_slice(j)
                u[sl, sl] = random_unitary(rng, blocks.sizes[j - 1])
            after = is_domain_section(fluctuate(t.D, [(1.0, u)]), blocks)
            assert after.support == before.support

    def test_non_unitary_rejected_with_residual(self):
        with pytest.raises(InputError, match="residual"):
            fluctuate(np.eye(2), [(1.0, 2.0 * np.eye(2))])


class TestOneForm:
    def test_identity_unitary(self):
        rng = np.random.default_rng(41)
        d = crandn(rng, 3, 3)
        np.testing.assert_allclose(one_form(d, np.eye(3)),
                                   np.zeros((3, 3)), atol=1e-14)

    def test_commuting_unitary(self):
        rng = np.random.default_rng(43)
        phases = np.exp(1j * rng.standard_normal(4))
        d = np.diag(rng.standard_normal(4)).astype(complex)
        u = np.diag(phases)
        np.testing.assert_allclose(one_form(d, u), np.zeros((4, 4)),
                                   atol=1e-14)

    def test_shift_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            d = crandn(rng, 8, 8)
            u = random_unitary(rng, 8)
            omega = one_form(d, u)
            residual = np.linalg.norm(u @ d @ u.conj().T - d - omega)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(d))

    def test_non_unitary_rejected(self):
        with pytest.raises(InputError):
            one_form(np.eye(2), np.ones((2, 2)))


class TestFluctuationTermsJson:
    def test_round_trip(self):
        rng = np.random.default_rng(53)
        terms = [FluctuationTerm(0.5, random_unitary(rng, 3)),
                 FluctuationTerm(-1.0, random_unitary(rng, 3))]
        decoded = fluctuation_terms_from_json(
            json_document(fluctuation_terms_to_json(terms)))
        assert decoded[0].r == 0.5
        np.testing.assert_array_equal(decoded[1].U, terms[1].U)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            fluctuation_terms_from_json([{"r": 1.0}])
        with pytest.raises(InputError):
            fluctuation_terms_from_json({"r": 1.0, "U": []})

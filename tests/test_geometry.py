import numpy as np
import pytest

from conftest import (crandn, json_document, random_admissible_triple,
                      random_section_matrix, random_unitary)
from oracles import failing_ids, is_normaliser_bruteforce

from ncg import (AxiomRefusalError, BlockStructure, FiniteSpectralTriple,
                 InputError, ShapeError, build_triple_from_mass_matrix,
                 categorify, check_even_axioms, fell_triple_from_category,
                 fluctuate, full_morita_bundle,
                 normaliser_support, one_form, spectral_category,
                 triple_from_category)
from ncg.geometry import (check_bundle_document, fluctuation_terms_from_json,
                          spectral_category_from_json)

PATH_ROWS = ["fell.path_lifting.normaliser", "fell.path_lifting.selfadjoint",
             "fell.path_lifting.in_fibres"]


class TestCategorify:
    def test_standard_four_sector_triple(self):
        t = build_triple_from_mass_matrix(np.array([[1.5]]))
        sc = categorify(t)
        assert sc.blocks.p == 4
        assert sc.perm == (2, 1, 4, 3)

    def test_zero_dirac_rejected_by_the_normaliser_row(self):
        gamma, epsilon, K = __import__("ncg").standard_operators(1)
        t = FiniteSpectralTriple(BlockStructure((1, 1, 1, 1)),
                                 np.zeros((4, 4)), gamma, epsilon, K)
        with pytest.raises(AxiomRefusalError) as exc:
            categorify(t)
        row = exc.value.report.find("fell.path_lifting.normaliser")
        assert failing_ids(exc.value.report) == [row.axiom_id]
        assert row.witness == "support {} covers 0 of the 4 block columns"

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
        sc = spectral_category(full_morita_bundle(blocks), sigma)
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
        doc = fell_triple_from_category(categorify(t))
        assert doc["hilbert_dim"] == 4
        assert len(doc["blocks"]) == 4
        np.testing.assert_array_equal(doc["PL"], t.D)

    def test_identity_section_lifts_to_identity_operator(self):
        blocks = BlockStructure((1, 2))
        doc = fell_triple_from_category(
            spectral_category(full_morita_bundle(blocks), np.eye(3)))
        np.testing.assert_array_equal(doc["PL"], np.eye(3))
        cls = normaliser_support(doc["PL"], blocks)
        assert cls.support_map() == {1: 1, 2: 2}

    def test_round_trip_exact_on_random_spectral_categories(self):
        # Random admissible triples, four-sector triples at l = 1..6 and a
        # paired section on eight blocks of size 2.  The way back is one
        # call, spectral_category, and the bundle triple written from the
        # record, or from the record its category file decodes to, passes
        # every row of check bundle, the three path-lifting rows last.
        rng = np.random.default_rng(7)
        paired = BlockStructure((2,) * 8)
        triples = ([random_admissible_triple(rng) for _ in range(50)]
                   + [build_triple_from_mass_matrix(crandn(rng, l, l))
                      for l in range(1, 7)]
                   + [FiniteSpectralTriple(paired, random_section_matrix(
                       rng, paired, (2, 1, 4, 3, 6, 5, 8, 7)))])
        for t in triples:
            sc = categorify(t)
            back = spectral_category(sc.bundle, sc.PL)
            assert back.perm == sc.perm
            assert back.blocks == sc.blocks
            assert back.PL.dtype == sc.PL.dtype
            assert back.PL.tobytes() == sc.PL.tobytes()
            decoded = spectral_category_from_json(json_document(sc.to_json()))
            for record in (sc, decoded):
                report = check_bundle_document(
                    json_document(fell_triple_from_category(record)))
                assert failing_ids(report) == []
                assert [c.axiom_id for c in report.checks[-3:]] == PATH_ROWS

    def test_path_lifting_operator_is_normaliser(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = random_admissible_triple(rng)
            pl = fell_triple_from_category(categorify(t))["PL"]
            assert is_normaliser_bruteforce(pl, t.blocks)
            cls = normaliser_support(pl, t.blocks)
            assert len(cls.support_map()) == t.blocks.p

    def test_self_adjoint_section_gives_hermitian_operator(self):
        rng = np.random.default_rng(13)
        t = random_admissible_triple(rng)
        pl = fell_triple_from_category(categorify(t))["PL"]
        np.testing.assert_allclose(pl, pl.conj().T, atol=1e-12)

    def test_json_round_trip(self):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        sc = categorify(t)
        decoded = spectral_category_from_json(json_document(sc.to_json()))
        np.testing.assert_array_equal(decoded.PL, sc.PL)

    def test_unsaturated_category_file_refused(self):
        # Homsets (1,1) and (2,2) only: a Fell bundle, unital, whose
        # bundle-triple spelling fails fell.saturated, so no record.
        one = [[[[1.0, 0.0]]]]
        data = {"blocks": [1, 1], "homsets": {"1,1": one, "2,2": one},
                "sigma": {"perm": [1, 2],
                          "blocks": {"1": one[0], "2": one[0]}}}
        with pytest.raises(AxiomRefusalError,
                           match="not a full C\\*-category") as exc:
            spectral_category_from_json(data)
        assert failing_ids(exc.value.report) == ["fell.saturated"]


class TestApplyPathLifting:
    def test_swap_transport(self):
        pl = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(
            pl @ np.array([1.0, 0.0]),
            np.array([0.0, 1.0]))

    def test_identity(self):
        psi = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(np.eye(3) @ psi, psi)

    def test_block_support_transport(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = random_admissible_triple(rng)
            blocks = t.blocks
            perm = spectral_category(full_morita_bundle(blocks), t.D).perm
            j = int(rng.integers(1, blocks.p + 1))
            psi = np.zeros(blocks.total, dtype=complex)
            sl = blocks.block_slice(j)
            psi[sl] = crandn(rng, blocks.sizes[j - 1])
            out = t.D @ psi
            target = blocks.block_slice(perm[j - 1])
            mask = np.ones(blocks.total, dtype=bool)
            mask[target] = False
            assert np.all(out[mask] == 0)


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
            terms = [(float(rng.standard_normal()), random_unitary(rng, n))
                     for _ in range(3)]
            out = fluctuate(d, terms)
            scale = np.linalg.norm(d) * sum(abs(r) for r, _ in terms)
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
            bundle = full_morita_bundle(blocks)
            before = spectral_category(bundle, t.D).perm
            u = np.zeros((blocks.total, blocks.total), dtype=complex)
            for j in range(1, blocks.p + 1):
                sl = blocks.block_slice(j)
                u[sl, sl] = random_unitary(rng, blocks.sizes[j - 1])
            after = spectral_category(bundle, fluctuate(t.D, [(1.0, u)])).perm
            assert after == before

    def test_non_unitary_rejected_with_residual(self):
        with pytest.raises(InputError, match="residual"):
            fluctuate(np.eye(2), [(1.0, 2.0 * np.eye(2))])

    def test_a_malformed_unitary_is_named_by_its_term(self):
        # A term's U is coerced once, by the unitary check, whose label
        # names the term in every refusal.
        with pytest.raises(ShapeError, match=r"^term 1 unitary: expected a "
                                             r"2-D matrix, got ndim=1$"):
            fluctuate(np.eye(2), [(1.0, np.eye(2)), (1.0, [1.0, 0.0])])
        with pytest.raises(InputError, match=r"^term 0 unitary: entries "
                                             r"must be finite$"):
            fluctuate(np.eye(2), [(1.0, [[np.nan, 0.0], [0.0, 1.0]])])


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
        terms = [(0.5, random_unitary(rng, 3)), (-1.0, random_unitary(rng, 3))]
        decoded = fluctuation_terms_from_json(
            json_document([{"r": r, "U": u} for r, u in terms]))
        assert decoded[0][0] == 0.5
        np.testing.assert_array_equal(decoded[1][1], terms[1][1])

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            fluctuation_terms_from_json([{"r": 1.0}])
        with pytest.raises(InputError):
            fluctuation_terms_from_json({"r": 1.0, "U": []})

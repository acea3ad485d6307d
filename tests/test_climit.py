import math

import numpy as np
import pytest

from oracles import is_normaliser_bruteforce

from ncg import (BlockStructure, InputError, LatticeConfig, Profile,
                 convergence_report, flat_lattice_dirac,
                 gauge_covariance_check, gauge_unitary, normaliser_support,
                 parse_profile)
from ncg.climit import cyclic_shift


class TestLatticeConfig:
    def test_spacing(self):
        cfg = LatticeConfig(8)
        assert cfg.hbar * cfg.n == 1.0
        np.testing.assert_allclose(cfg.sites(), np.arange(8) / 8)

    def test_too_small(self):
        with pytest.raises(InputError):
            LatticeConfig(3)


class TestProfiles:
    def test_parse(self):
        p = parse_profile("sine:2")
        assert p.kind == "sine" and p.param == 2.0
        assert parse_profile("plane_wave").param == 1.0
        assert parse_profile("constant:3.5").param == 3.5

    def test_parse_unknown(self):
        with pytest.raises(InputError):
            parse_profile("sawtooth:1")
        with pytest.raises(InputError):
            parse_profile("sine:abc")

    def test_tabulated_has_no_derivative(self):
        p = Profile.tabulated(np.ones(8))
        with pytest.raises(InputError):
            p.derivative(LatticeConfig(8))

    def test_plane_wave_derivative(self):
        cfg = LatticeConfig(16)
        p = Profile("plane_wave", 2.0)
        np.testing.assert_allclose(
            p.derivative(cfg), 4j * math.pi * p.sample(cfg), atol=1e-12)


class TestFlatLatticeDirac:
    def test_exactly_hermitian(self):
        for n in (4, 9, 32):
            d = flat_lattice_dirac(LatticeConfig(n))
            assert np.array_equal(d, d.conj().T)

    def test_constant_profile_annihilated(self):
        cfg = LatticeConfig(16)
        d = flat_lattice_dirac(cfg)
        f = Profile("constant", 2.5).sample(cfg)
        np.testing.assert_allclose(d @ f, np.zeros(16), atol=1e-12)

    def test_plane_wave_exact_eigenvector(self):
        # Closed form of the symmetric difference on a plane wave:
        # eigenvalue sin(2π k / n) · n.
        cfg = LatticeConfig(32)
        k = 3
        d = flat_lattice_dirac(cfg)
        f = Profile("plane_wave", k).sample(cfg)
        eigenvalue = math.sin(2 * math.pi * k / cfg.n) * cfg.n
        np.testing.assert_allclose(d @ f, eigenvalue * f, atol=1e-10)

    def test_shift_is_unitary_normaliser_with_cycle_support(self):
        cfg = LatticeConfig(8)
        s = cyclic_shift(cfg)
        blocks = BlockStructure((1,) * 8)
        assert is_normaliser_bruteforce(s, blocks)
        cls = normaliser_support(s, blocks)
        assert cls.kind == "unitary"
        support = cls.support_map()
        # one n-cycle: following the support map visits every site
        site, seen = 1, set()
        for _ in range(8):
            seen.add(site)
            site = support[site]
        assert seen == set(range(1, 9))


class TestGaugeUnitary:
    def test_zero_phase(self):
        np.testing.assert_array_equal(
            gauge_unitary(Profile("constant", 0.0), LatticeConfig(8)),
            np.eye(8))

    def test_pi_phase(self):
        u = gauge_unitary(Profile("constant", math.pi), LatticeConfig(8))
        np.testing.assert_allclose(u, -np.eye(8), atol=1e-12)

    def test_unitarity_machine_precision(self):
        rng = np.random.default_rng(3)
        cfg = LatticeConfig(32)
        u = gauge_unitary(Profile.tabulated(rng.standard_normal(32)), cfg)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(32), atol=1e-14)

    def test_complex_phase_rejected(self):
        with pytest.raises(InputError):
            gauge_unitary(Profile("plane_wave", 1.0), LatticeConfig(8))


class TestConvergence:
    def test_sine_second_order(self):
        report = convergence_report(Profile("sine", 1.0), [64, 128])
        order = report.points[1].order
        assert order == pytest.approx(2.0, abs=0.05)

    def test_constant_profile_error_free(self):
        report = convergence_report(Profile("constant", 1.0), [8, 16])
        assert all(p.flat_error <= 1e-13 for p in report.points)
        assert report.points[1].order is None

    def test_fluctuated_first_order_or_better(self):
        report = convergence_report(Profile("plane_wave", 1.0), [64, 128],
                                    theta=Profile("sine", 1.0))
        assert report.points[1].fluct_error < report.points[0].fluct_error
        assert report.points[1].order >= 1.0

    def test_tabulated_refused(self):
        with pytest.raises(InputError, match="tabulated"):
            convergence_report(Profile.tabulated(np.ones(8)), [8, 16])

    def test_invalid_sizes(self):
        with pytest.raises(InputError):
            convergence_report(Profile("sine", 1.0), [16, 8])
        with pytest.raises(InputError):
            convergence_report(Profile("sine", 1.0), [4, 8])

    def test_json_rows(self):
        report = convergence_report(Profile("sine", 1.0), [8, 16])
        data = report.to_json()
        assert data["profile"] == "sine:1"
        assert [row["n"] for row in data["rows"]] == [8, 16]
        assert set(data["rows"][0]) == {"n", "flat_error", "fluct_error",
                                        "order"}


class TestGaugeCovariance:
    def test_zero_phase_exact(self):
        residual = gauge_covariance_check(LatticeConfig(16),
                                          Profile("constant", 0.0),
                                          Profile("sine", 1.0))
        assert residual == 0.0

    def test_random_phase_small(self):
        rng = np.random.default_rng(5)
        theta = Profile.tabulated(rng.standard_normal(32))
        residual = gauge_covariance_check(LatticeConfig(32), theta,
                                          Profile("plane_wave", 1.0))
        assert residual <= 1e-12

    def test_bounded_independent_of_size(self):
        theta = Profile("sine", 1.0)
        f = Profile("plane_wave", 1.0)
        for n in (16, 64, 256):
            assert gauge_covariance_check(LatticeConfig(n), theta, f) <= 1e-12

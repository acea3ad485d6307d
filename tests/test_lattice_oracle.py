"""The matrix-free lattice sweeps against dense oracles.

``convergence_report`` and ``gauge_covariance_check`` apply the flat
transport operator as a three-point stencil and the gauge phase as a
vector; ``oracles.dense_convergence_rows`` and
``oracles.dense_covariance_residual`` build the explicit ``n x n``
matrices.  Flat errors must agree bit for bit with the dense operator
summed row by row (``exact_matvec``) and to rounding with the BLAS
product; conjugated errors and orders to 1e-10 relative.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import (dense_convergence_rows, dense_covariance_residual,
                     exact_matvec)

from ncg import (InputError, LatticeConfig, Profile, climit,
                 convergence_report, gauge_covariance_check)

NS = (8, 9, 31, 64, 257, 1024)
KINDS = ("constant", "sine", "plane_wave")
EPS = np.finfo(float).eps


def random_profile(rng, kind) -> Profile:
    return Profile(kind, float(rng.uniform(-6.0, 6.0)))


def rounding(n, profile) -> float:
    """Rounding level of ``D f``: a few ulps of the entries ``c·f``,
    ``|c| = n/2``."""
    return 4 * EPS * n * max(1.0, abs(profile.param))


def assert_flat_rows(report, profile, ns):
    exact = dense_convergence_rows(profile, ns, matvec=exact_matvec)
    blas = dense_convergence_rows(profile, ns)
    for point, row, blas_row in zip(report.points, exact, blas):
        assert point.n == row[0]
        assert point.flat_error == row[1], point.n
        assert abs(point.flat_error - blas_row[1]) \
            <= rounding(point.n, profile), point.n
    return exact


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_flat_rows_match_dense_oracle(kind, seed):
    profile = random_profile(np.random.default_rng([seed, len(kind)]), kind)
    report = convergence_report(profile, NS)
    exact = assert_flat_rows(report, profile, NS)
    assert [p.order for p in report.points] == [row[3] for row in exact]
    assert all(p.fluct_error is None for p in report.points)


@pytest.mark.parametrize("phase", ["sine", "constant"])
@pytest.mark.parametrize("kind", KINDS)
def test_fluct_rows_match_dense_oracle(kind, phase):
    rng = np.random.default_rng([7, len(kind), len(phase)])
    profile = random_profile(rng, kind)
    theta = Profile(phase, float(rng.uniform(-3.0, 3.0)))
    # One dense conjugation at n = 1024 per profile kind keeps this fast.
    ns = NS if phase == "sine" else NS[:-1]
    report = convergence_report(profile, ns, theta)
    assert_flat_rows(report, profile, ns)
    resolved = False
    for point, row in zip(report.points, dense_convergence_rows(
            profile, ns, theta)):
        floor = 2 * rounding(point.n, profile)
        if row[2] <= floor:
            # The exact error is zero (a constant profile under a
            # constant phase); both sides are rounding, and so is the order.
            assert point.fluct_error <= floor
            resolved = False
            continue
        assert point.fluct_error == pytest.approx(row[2], rel=1e-10, abs=0)
        if resolved:
            assert point.order == pytest.approx(row[3], rel=1e-10, abs=0)
        resolved = True


def test_huge_finite_parameters_match_dense_oracle():
    ns = (8, 9, 16)
    profile = Profile("sine", 1e307)
    report = convergence_report(profile, ns)
    assert_flat_rows(report, profile, ns)
    assert report.points[0].flat_error == pytest.approx(2e307 * np.pi)
    theta = Profile("sine", 1e307)
    report = convergence_report(profile, ns, theta)
    for point, row in zip(report.points,
                          dense_convergence_rows(profile, ns, theta)):
        assert point.flat_error == row[1]
        assert point.fluct_error == pytest.approx(row[2], rel=1e-10, abs=0)


@pytest.mark.parametrize("profile, theta, ns", [
    (Profile("sine", 1e308), None, (8, 16)),
    (Profile("plane_wave", 1e308), None, (8, 16)),
    (Profile("sine", 1.0), Profile("sine", 1e308), (8, 16)),
    # c·f with |c| = n/2 overflows from n = 36 on.
    (Profile("constant", 1e307), None, (8, 16, 64)),
])
def test_overflowing_parameters_refused_where_oracle_overflows(profile, theta,
                                                               ns):
    rows = dense_convergence_rows(profile, ns, theta)
    assert not all(np.isfinite([v for row in rows for v in row[1:3]
                                if v is not None]))
    with pytest.raises(InputError, match="non-finite values"):
        convergence_report(profile, ns, theta)


def _phases(rng, n):
    return {"zero": Profile("constant", 0.0),
            "sine": Profile("sine", float(rng.uniform(-4.0, 4.0))),
            "tabulated": Profile.tabulated(rng.uniform(-np.pi, np.pi, n)),
            "large_tabulated": Profile.tabulated(
                rng.uniform(-1e3, 1e3, n))}


@pytest.mark.parametrize("phase", ["zero", "sine", "tabulated",
                                   "large_tabulated"])
@pytest.mark.parametrize("n", NS)
def test_covariance_matches_dense_oracle(n, phase):
    rng = np.random.default_rng([11, n, len(phase)])
    theta = _phases(rng, n)[phase]
    f = random_profile(rng, KINDS[n % 3])
    cfg = LatticeConfig(n)
    residual = gauge_covariance_check(cfg, theta, f)
    if phase == "zero":
        assert residual == 0.0
    bound = 2 * rounding(n, f)
    assert residual <= bound
    # One dense conjugation at n = 1024 keeps this fast.
    if n < 1024 or phase == "tabulated":
        assert dense_covariance_residual(cfg, theta, f) <= bound


def test_sweeps_build_no_matrix(monkeypatch):
    def dense(*args):
        raise AssertionError("dense lattice matrix built")
    for name in ("flat_lattice_dirac", "cyclic_shift", "gauge_unitary"):
        monkeypatch.setattr(climit, name, dense)
    convergence_report(Profile("sine", 1.0), (8, 16), Profile("sine", 1.0))
    gauge_covariance_check(LatticeConfig(16), Profile("sine", 1.0),
                           Profile("plane_wave", 1.0))


def test_sweep_memory_is_linear():
    n = 2 ** 16
    tracemalloc.start()
    try:
        convergence_report(Profile("sine", 1.0), (n // 2, n),
                           Profile("sine", 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A complex vector of n entries is 16 n bytes; one dense operator
    # would be 16 n^2 = 64 GiB.
    assert peak <= 32 * 16 * n

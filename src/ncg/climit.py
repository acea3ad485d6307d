"""Lattice laboratory for the classical limit of transport operators.

A periodic 1-D lattice with ``n`` sites on the unit circle plays the role
of a shrinking-arrow family: the lattice spacing ``1/n`` is the deformation
parameter, difference quotients along the shift bisection converge to
derivatives, and conjugating by a diagonal phase produces the expected
connection term.  The circle is used as a boundary-free stage so the shift
is exactly unitary and plane waves are exact eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

PROFILE_KINDS = ("constant", "sine", "plane_wave", "tabulated")


@dataclass(frozen=True)
class LatticeConfig:
    """``n`` periodic sites ``x_k = k/n``; the spacing ``1/n`` doubles as
    the deformation parameter."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise InputError("LatticeConfig: need at least 4 sites")

    @property
    def hbar(self) -> float:
        return 1.0 / self.n

    def sites(self) -> np.ndarray:
        return np.arange(self.n) / self.n


@dataclass(frozen=True)
class Profile:
    """A named function on the circle, sampled at lattice sites.

    ``constant``/``sine``/``plane_wave`` carry an analytic derivative;
    ``tabulated`` profiles are raw samples and are refused wherever a
    derivative is needed.
    """

    kind: str
    param: float = 1.0
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise InputError(f"unknown profile kind {self.kind!r}; "
                             f"choose from {PROFILE_KINDS}")
        if self.kind == "tabulated" and self.table is None:
            raise InputError("tabulated profile needs sample values")
        if not math.isfinite(self.param):
            raise InputError(f"profile parameter {self.param} is not finite")

    @classmethod
    def tabulated(cls, values) -> "Profile":
        return cls("tabulated", 0.0, tuple(complex(v) for v in values))

    @property
    def has_derivative(self) -> bool:
        return self.kind != "tabulated"

    def label(self) -> str:
        if self.kind == "tabulated":
            return "tabulated"
        if self.kind == "constant":
            return f"constant:{self.param:g}"
        return f"{self.kind}:{self.param:g}"

    def sample(self, cfg: LatticeConfig) -> np.ndarray:
        x = cfg.sites()
        if self.kind == "constant":
            return np.full(cfg.n, complex(self.param))
        if self.kind == "sine":
            return np.sin(2 * math.pi * self.param * x).astype(complex)
        if self.kind == "plane_wave":
            return np.exp(2j * math.pi * self.param * x)
        values = np.asarray(self.table, dtype=complex)
        if values.shape != (cfg.n,):
            raise InputError(f"tabulated profile has {values.shape[0]} "
                             f"samples, lattice has {cfg.n} sites")
        return values

    def derivative(self, cfg: LatticeConfig) -> np.ndarray:
        if not self.has_derivative:
            raise InputError("tabulated profile has no analytic derivative")
        x = cfg.sites()
        if self.kind == "constant":
            return np.zeros(cfg.n, dtype=complex)
        if self.kind == "sine":
            w = 2 * math.pi * self.param
            return (w * np.cos(w * x)).astype(complex)
        w = 2 * math.pi * self.param
        return 1j * w * np.exp(1j * w * x)


def parse_profile(text: str) -> Profile:
    """Parse ``name[:param]`` specs such as ``sine:1`` or ``constant:2.5``."""
    name, _, param = text.partition(":")
    if name == "tabulated":
        raise InputError("tabulated profiles cannot be named on the "
                         "command line")
    if name not in PROFILE_KINDS:
        raise InputError(f"unknown profile {name!r}; choose from "
                         f"{[k for k in PROFILE_KINDS if k != 'tabulated']}")
    if param:
        try:
            value = float(param)
        except ValueError:
            raise InputError(f"profile parameter {param!r} is not a number")
    else:
        value = 1.0
    return Profile(name, value)


def flat_lattice_dirac(cfg: LatticeConfig) -> np.ndarray:
    """The symmetric-difference transport operator
    ``D = -i (S - S*) / (2 hbar)`` for the cyclic shift ``S``.

    Exactly Hermitian; ``S`` itself is a unitary normaliser of the
    diagonal algebra with the ``n``-cycle as block support, and plane
    waves are exact eigenvectors with eigenvalue
    ``sin(2π k / n) · n``.
    """
    shift = cyclic_shift(cfg)
    return -1j * (shift - shift.T) * (cfg.n / 2.0)


def cyclic_shift(cfg: LatticeConfig) -> np.ndarray:
    """``S`` with ``S[k, k+1 mod n] = 1``."""
    k = np.arange(cfg.n)
    shift = np.zeros((cfg.n, cfg.n))
    shift[k, (k + 1) % cfg.n] = 1.0
    return shift


def gauge_unitary(theta: Profile, cfg: LatticeConfig) -> np.ndarray:
    """Diagonal phase ``U = diag(exp(i θ(x_k)))``; commutes with the
    diagonal algebra.  The phase profile must be real-valued."""
    values = theta.sample(cfg)
    if np.any(values.imag != 0.0):
        raise InputError("gauge phase must be real-valued")
    return np.diag(np.exp(1j * values.real))


@dataclass(frozen=True)
class ConvergencePoint:
    n: int
    flat_error: float
    fluct_error: Optional[float]
    order: Optional[float]

    def to_json(self) -> dict:
        return {"n": self.n, "flat_error": self.flat_error,
                "fluct_error": self.fluct_error, "order": self.order}


@dataclass(frozen=True)
class ConvergenceReport:
    profile: Profile
    theta: Optional[Profile]
    points: tuple[ConvergencePoint, ...]

    def to_json(self) -> dict:
        return {"profile": self.profile.label(),
                "theta": self.theta.label() if self.theta else None,
                "rows": [p.to_json() for p in self.points]}


def convergence_report(profile: Profile, ns: Sequence[int],
                       theta: Optional[Profile] = None) -> ConvergenceReport:
    """Sweep lattice sizes and compare against the analytic limits.

    The flat error is ``max_k |(D f)_k + i f'(x_k)|``; with a phase
    profile the conjugated operator ``U D U*`` is compared against
    ``-i f' - θ' f``.  The reported order between consecutive sizes is
    the log-ratio of the primary error (conjugated when a phase is
    given, flat otherwise).  A profile whose samples, derivatives, errors
    or orders overflow to ``inf``/``nan`` is refused as an input error.
    """
    ns = [int(n) for n in ns]
    if not ns:
        raise InputError("no lattice sizes given")
    if any(n < 8 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise InputError("lattice sizes must be strictly increasing and >= 8")
    if not profile.has_derivative or (theta is not None
                                      and not theta.has_derivative):
        raise InputError("convergence mode needs analytic derivatives; "
                         "tabulated profiles are refused")
    points = []
    previous: Optional[float] = None
    previous_n: Optional[int] = None
    for n in ns:
        cfg = LatticeConfig(n)
        dirac = flat_lattice_dirac(cfg)
        # Overflow is reported below as an input error, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            f = profile.sample(cfg)
            target_flat = -1j * profile.derivative(cfg)
            flat_error = float(np.max(np.abs(dirac @ f - target_flat)))
            fluct_error = None
            if theta is not None:
                u = gauge_unitary(theta, cfg)
                conjugated = u @ dirac @ u.conj().T
                target = target_flat - theta.derivative(cfg) * f
                fluct_error = float(np.max(np.abs(conjugated @ f - target)))
        primary = fluct_error if theta is not None else flat_error
        order = None
        if previous is not None and previous > 0 and primary > 0:
            order = math.log(previous / primary) / math.log(n / previous_n)
        if not all(np.all(np.isfinite(v)) for v in
                   (f, target_flat, flat_error, fluct_error, order)
                   if v is not None):
            phase = f", phase {theta.label()}" if theta is not None else ""
            raise InputError(f"profile {profile.label()}{phase} gives "
                             f"non-finite values at n={n}; a parameter "
                             f"is too large")
        points.append(ConvergencePoint(n, flat_error, fluct_error, order))
        previous, previous_n = primary, n
    return ConvergenceReport(profile, theta, tuple(points))


def gauge_covariance_check(cfg: LatticeConfig, theta: Profile,
                           f: Profile) -> float:
    """Residual of the exact identity ``(U D U*)(U f) = U (D f)``.

    Algebraically zero for any phase; the returned value is pure rounding
    and stays below an absolute tolerance independently of ``n``.
    """
    dirac = flat_lattice_dirac(cfg)
    u = gauge_unitary(theta, cfg)
    fvals = f.sample(cfg)
    lhs = (u @ dirac @ u.conj().T) @ (u @ fvals)
    rhs = u @ (dirac @ fvals)
    return float(np.max(np.abs(lhs - rhs)))

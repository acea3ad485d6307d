"""Checker reports shared by every battery.

A battery answers only in :class:`AxiomCheck` rows (stable identifier,
relative residual, witness), with an advisory "not applicable" row when
it does not apply; an :class:`AxiomReport` collects them.  Every
residual row applies one rule (:func:`worst_row`, and
:func:`residual_checks` for rows of one measurement each), and
:meth:`AxiomReport.require` is the one way a construction refuses a
failing report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxiomRefusalError
from .matops import Tolerance


@dataclass(frozen=True)
class AxiomCheck:
    """One row of a checker report.

    ``residual`` is relative (scaled by the inputs' size).  Advisory rows
    are informational and do not gate :attr:`AxiomReport.all_passed`.
    """

    axiom_id: str
    passed: bool
    residual: float
    witness: str = ""
    advisory: bool = False

    def to_json(self) -> dict:
        status = "info" if self.advisory else ("pass" if self.passed else "fail")
        return {"id": self.axiom_id, "status": status,
                "residual": self.residual, "witness": self.witness}


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.advisory)

    @property
    def worst_residual(self) -> float:
        gating = [c.residual for c in self.checks if not c.advisory]
        return max(gating) if gating else 0.0

    def find(self, axiom_id: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom_id == axiom_id:
                return c
        raise KeyError(axiom_id)

    def __iter__(self):
        return iter(self.checks)

    def require(self, message: str) -> None:
        """Raise :class:`AxiomRefusalError` unless every gating row passes;
        ``message`` gets the failing ids in place of its ``{}``."""
        ids = [c.axiom_id for c in self.checks
               if not c.advisory and not c.passed]
        if ids:
            raise AxiomRefusalError(message.format(", ".join(ids)), self)

    def to_json(self) -> dict:
        return {"passed": self.all_passed,
                "checks": [c.to_json() for c in self.checks]}


def worst_row(tol: Tolerance, axiom_id: str, raws, scales, witness,
              default: str = "") -> AxiomCheck:
    """The row ``axiom_id`` of raw residuals ``raws`` of elements of sizes
    ``scales``, both in report order: its residual is the worst ``raw /
    max(1, scale)``, it passes iff every ``raw ≤ tol.bound(scale)``, and
    its witness is ``witness(q)`` for the first worst element ``q``, or
    ``default`` when every residual is 0."""
    raws = np.asarray(raws, dtype=float)
    scales = np.maximum(1.0, np.asarray(scales, dtype=float))
    rels = raws / scales
    q = int(np.argmax(rels)) if rels.size else 0
    worst = float(rels[q]) if rels.size and rels[q] > 0 else 0.0
    passed = not np.any(raws > np.maximum(tol.abs, tol.rel * scales))
    return AxiomCheck(axiom_id, passed, worst,
                      witness(q) if worst else default)


def residual_checks(tol: Tolerance, *rows) -> list[AxiomCheck]:
    """Rows decided by one measurement each, given as ``(axiom_id, raw,
    scale, witness)``, by the rule of :func:`worst_row`."""
    out = []
    for axiom_id, raw, scale, witness in rows:
        rel = raw / max(1.0, scale)
        out.append(AxiomCheck(axiom_id, not raw > tol.bound(scale),
                              rel if rel > 0 else 0.0,
                              witness if rel > 0 else ""))
    return out

"""Checker reports shared by every battery.

A battery answers only in :class:`AxiomCheck` rows (stable identifier,
relative residual, witness), with an advisory "not applicable" row when
it does not apply; an :class:`AxiomReport` collects them.
:class:`WorstResidual` accumulates the worst residual of one row, and
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


class WorstResidual:
    """Track the worst relative residual of one report row and its
    witness."""

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self.residual = 0.0
        self.witness = ""
        self.passed = True

    def update(self, raw: float, scale: float, witness: str):
        rel = raw / max(1.0, scale)
        if rel > self.residual:
            self.residual = rel
            self.witness = witness
        if raw > self.tol.bound(scale):
            self.passed = False

    def update_batch(self, raws, scales, witness_fn):
        raws = np.asarray(raws, dtype=float)
        if raws.size == 0:
            return
        scales = np.maximum(1.0, np.asarray(scales, dtype=float))
        rels = raws / scales
        idx = int(np.argmax(rels))
        if rels[idx] > self.residual:
            self.residual = float(rels[idx])
            self.witness = witness_fn(idx)
        bounds = np.maximum(self.tol.abs, self.tol.rel * scales)
        if np.any(raws > bounds):
            self.passed = False

    def check(self, axiom_id: str, default_witness: str = "") -> AxiomCheck:
        return AxiomCheck(axiom_id, self.passed, self.residual,
                          self.witness or default_witness)


def residual_checks(tol: Tolerance, *rows) -> list[AxiomCheck]:
    """Rows decided by one measurement each, given as
    ``(axiom_id, raw, scale, witness)``."""
    out = []
    for axiom_id, raw, scale, witness in rows:
        row = WorstResidual(tol)
        row.update(raw, scale, witness)
        out.append(row.check(axiom_id))
    return out

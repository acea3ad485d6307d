"""Brute-force oracles for the fast paths of ``ncg``.

Each oracle decides a question the slow, obvious way, so that a property
test can compare it with the shortcut the library takes.

``fell_gate`` is the exhaustive bundle gate: the ten Fell axioms,
saturation and unitality, run on every bundle whatever its fibre
dimensions.  ``category_from_bundle`` must refuse exactly the bundles
whose axiom or unitality rows (``CATEGORY_ROWS``) fail here, and
``fell_bundle_triple`` on the first failure of saturation, then
unitality (``TRIPLE_ROWS``).  Both accept full bundles without running
the battery, so on those this gate must pass every row.
"""

from __future__ import annotations

from ncg.fellbundle import (FellBundleFD, check_fell_axioms, check_saturated,
                            check_unital)
from ncg.matops import DEFAULT_TOL, Tolerance
from ncg.report import AxiomReport

CATEGORY_ROWS = tuple(f"fell.axiom.{k}" for k in range(1, 11)) + (
    "fell.unital",)
TRIPLE_ROWS = ("fell.saturated", "fell.unital")


def fell_gate(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Every gating row, decided exhaustively."""
    return AxiomReport(check_fell_axioms(b, tol).checks
                       + (check_saturated(b, tol), check_unital(b, tol)))


def failing_ids(report: AxiomReport, rows=None) -> list[str]:
    """Ids of the failing gating rows, optionally restricted to ``rows``,
    in report order."""
    return [c.axiom_id for c in report.checks
            if not c.advisory and not c.passed
            and (rows is None or c.axiom_id in rows)]

"""``ncg check bundle`` decides six Fell axioms by theorem, and saturation
ranks the product spans of unit-norm bases.

``fell.axiom.3``, ``4``, ``7``, ``8``, ``9`` and ``10`` are identities of
matrix algebra.  In text and JSON they print ``pass``, residual 0 and an
``analytic:`` witness, on a passing bundle and on a bundle whose planted
corner element fails exactly the rows that depend on the data.
Saturation forms its products from copies of the fibre bases scaled to
unit norm (``matops.unit_rows``): rescaling basis elements by positive
numbers leaves every span, and so the verdict, unchanged, and a span
that is truly deficient still fails whatever the sizes of its elements.
"""

import json

import numpy as np
import pytest

from test_fell_certificates import conjugated_bundle, planted_bundles

from ncg import (BlockStructure, FellBundleFD, SubspaceBasis, check_bundle,
                 check_saturated)
from ncg.cli import run
from ncg.fellbundle import bundle_to_json
from ncg.matops import unit_rows, write_json

ANALYTIC = tuple(f"fell.axiom.{k}" for k in (3, 4, 7, 8, 9, 10))


def cli_bundles():
    rng = np.random.default_rng(20261301)
    extra, failing = planted_bundles(rng)["extra"]
    return {"conjugated": (conjugated_bundle(rng, (2, 3, 4), 1), 0, []),
            "extra": (extra, 1, failing)}


def bundle_path(tmp_path, b):
    path = tmp_path / "bundle.json"
    with open(path, "w") as f:
        write_json(bundle_to_json(b), f.write)
    return str(path)


@pytest.mark.parametrize("kind", ["conjugated", "extra"])
def test_json_report(kind, tmp_path, capsys):
    b, code, failing = cli_bundles()[kind]
    assert run(["check", "bundle", bundle_path(tmp_path, b),
                "--format", "json"]) == code
    checks = json.loads(capsys.readouterr().out)["checks"]
    rows = {c["id"]: c for c in checks}
    for axiom_id in ANALYTIC:
        assert rows[axiom_id]["status"] == "pass"
        assert rows[axiom_id]["residual"] == 0.0
        assert rows[axiom_id]["witness"].startswith("analytic: ")
    assert [c["id"] for c in checks if c["status"] == "fail"] == failing


@pytest.mark.parametrize("kind", ["conjugated", "extra"])
def test_text_report(kind, tmp_path, capsys):
    b, code, failing = cli_bundles()[kind]
    assert run(["check", "bundle", bundle_path(tmp_path, b)]) == code
    lines = capsys.readouterr().out.splitlines()
    for axiom_id in ANALYTIC:
        prefix = f"  pass  {axiom_id:<38}  residual 0.000e+00  [analytic: "
        assert sum(line.startswith(prefix) for line in lines) == 1
    assert [line.split()[1] for line in lines
            if line.startswith("  FAIL  ")] == failing
    assert lines[-1] == f"result: {'FAIL' if failing else 'PASS'}"


@pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-6, 1.0, 1e6, 1e300])
def test_unit_rows(scale):
    rng = np.random.default_rng([20261302, int(np.log2(scale)) + 1100])
    a = scale * (rng.standard_normal((3, 2, 4))
                 + 1j * rng.standard_normal((3, 2, 4)))
    a[1] = 0.0
    got = unit_rows(a)
    assert got.shape == a.shape and not got[1].any()
    norms = np.linalg.norm(got.reshape(3, -1), axis=1)
    assert np.allclose(norms[[0, 2]], 1.0, rtol=4e-16, atol=0)
    # Each element is a positive multiple of the original one: both agree
    # once divided by their largest real or imaginary part.
    for k in (0, 2):
        x, y = got[k].view(float), a[k].view(float)
        ref = np.unravel_index(np.argmax(np.abs(y)), y.shape)
        assert np.sign(x[ref]) == np.sign(y[ref])
        assert np.allclose(x / x[ref], y / y[ref], rtol=1e-15, atol=1e-15)


def rescaled(rng, b):
    """``b`` with every basis element multiplied by a factor between
    1e-8 and 1e8."""
    fibres = {}
    for g, f in b.fibres.items():
        factors = 10.0 ** rng.uniform(-8, 8, f.dim)
        fibres[g] = SubspaceBasis(f.rows, f.cols,
                                  factors[:, None, None] * f.stack)
    return FellBundleFD(b.blocks, fibres)


@pytest.mark.parametrize("seed", range(4))
def test_saturation_ignores_the_sizes_of_basis_elements(seed):
    rng = np.random.default_rng([20261303, seed])
    bundles = [conjugated_bundle(rng, (2, 3, 4)),
               conjugated_bundle(rng, (4, 4, 4), 2)]
    bundles += [b for b, _ in planted_bundles(rng).values()]
    for b in bundles:
        assert check_saturated(rescaled(rng, b)) == check_saturated(b)


def test_scaled_fibres_with_a_deficient_span_fail():
    # Blocks (1, 2): fibre (2,2) is the diagonal algebra with basis
    # 1e-6 E_00, 1e6 E_11; fibre (1,2) is spanned by 1e-6 e_0ᵀ and fibre
    # (2,1) by 1e6 e_0.  The bundle is closed, involutive and unital, and
    # (2,2) x (2,2) spans (2,2), but (2,1) x (1,2) spans only E_00.
    fibres = {(1, 1): SubspaceBasis(1, 1, [[[1.0]]]),
              (1, 2): SubspaceBasis(1, 2, [[[1e-6, 0.0]]]),
              (2, 1): SubspaceBasis(2, 1, [[[1e6], [0.0]]]),
              (2, 2): SubspaceBasis(2, 2, [np.diag([1e-6, 0.0]),
                                           np.diag([0.0, 1e6])])}
    report = check_bundle(FellBundleFD(BlockStructure((1, 2)), fibres))
    assert [c.axiom_id for c in report if not c.passed] == ["fell.saturated"]
    assert report.find("fell.saturated").witness == (
        "products of (2, 1) x (1, 2) span 1 of the 2 dimensions of "
        "fibre (2, 2)")

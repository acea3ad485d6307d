"""``SubspaceBasis`` decides independence on unit-norm elements.

The rank test ``σ_k > rel σ_1`` runs on the basis rows scaled to unit
norm, so an orthogonal basis whose elements differ in size by 1e12 is
independent, while a dependent basis stays refused at any size.  Near the
threshold, a pair of unit rows at angle θ has ``σ_2 / σ_1 = tan(θ/2)``,
which is set to ``rel · (1 ± 1e-3)``.
"""

import json

import numpy as np
import pytest

from ncg import SubspaceBasis, Tolerance
from ncg.cli import run
from ncg.errors import InputError


def test_orthogonal_elements_of_different_size_are_independent():
    basis = SubspaceBasis(1, 2, [[[1e-6, 0]], [[0, 1e6]]])
    assert basis.dim == 2
    assert basis.residual(np.array([[3.0, -4.0]])) < 1e-15


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 5e-324, 1e300])
def test_tiny_and_huge_elements_are_independent(scale):
    # The power-of-two prescaling keeps the row norms finite and nonzero.
    basis = SubspaceBasis(1, 2, [[[scale, 0]], [[0, 1.0]]])
    assert basis.dim == 2


@pytest.mark.parametrize("mats", [[[[1.0]], [[2.0]]],
                                  [[[1e-6, 0]], [[1e6, 0]]],
                                  [[[1.0, 0]], [[0, 0]]],
                                  [[[0, 0]]]])
def test_dependent_bases_are_refused(mats):
    with pytest.raises(InputError, match="linearly dependent"):
        SubspaceBasis(1, len(mats[0][0]), mats)


@pytest.mark.parametrize("sizes", [(1.0, 1.0), (1e-6, 1e6), (1e6, 1e-6),
                                   (1e-150, 1e40)])
@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
@pytest.mark.parametrize("rel", [1e-9, 1e-6, 1e-3])
def test_rank_threshold_is_scale_free(rel, side, sizes):
    theta = 2 * np.arctan(rel * side)
    rows = [sizes[0] * np.array([[1.0, 0.0]]),
            sizes[1] * np.array([[np.cos(theta), np.sin(theta)]])]
    tol = Tolerance(rel=rel)
    if side > 1:
        assert SubspaceBasis(1, 2, rows, tol).dim == 2
    else:
        with pytest.raises(InputError, match=r"rank 1 < 2"):
            SubspaceBasis(1, 2, rows, tol)


def cell(x):
    return [float(x), 0.0]


def check_bundle(tmp_path, fibres, blocks, *options):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"blocks": blocks, "fibres": fibres}))
    return run(["check", "bundle", str(path), "--format", "json", *options])


def failing(capsys):
    return [c["id"] for c in json.loads(capsys.readouterr().out)["checks"]
            if c["status"] == "fail"]


def test_scaled_fibre_reaches_check_bundle(tmp_path, capsys):
    # Blocks (1, 2): fibre (1,2) is all of C^{1x2}, spanned by elements of
    # norm 1e-6 and 1e6; the other fibres are full too.  Saturation forms
    # its products from unit-norm copies of the bases, so the product
    # spans are total at the default rel = 1e-9 as at rel = 1e-13.
    units = np.eye(4).reshape(4, 2, 2)
    fibres = {
        "1,1": [[[cell(1)]]],
        "1,2": [[[cell(1e-6), cell(0)]], [[cell(0), cell(1e6)]]],
        "2,1": [[[cell(1)], [cell(0)]], [[cell(0)], [cell(1)]]],
        "2,2": [[[cell(x) for x in row] for row in u] for u in units],
    }
    assert check_bundle(tmp_path, fibres, [1, 2], "--tol", "1e-13") == 0
    assert failing(capsys) == []
    assert check_bundle(tmp_path, fibres, [1, 2]) == 0
    assert failing(capsys) == []


def test_dependent_fibre_is_an_input_error(tmp_path, capsys):
    assert check_bundle(tmp_path, {"1,1": [[[cell(1)]], [[cell(2)]]]},
                        [1]) == 2
    assert capsys.readouterr().out.startswith("input error: ")

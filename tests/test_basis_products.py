"""The Fell battery's product kernel and the reports that depend on it.

``fellbundle._basis_products`` forms every basis product of two fibre
stacks with one GEMM.  The seeded tests below compare it with a loop of
single products ``e1[a] @ e2[b]`` within the rounding bound of a length-n
dot product, on rectangular, dimension-1, empty and scaled stacks and on
the adjoint side of axiom 8.  A BLAS may split a GEMM between threads, so
the last test runs ``ncg check bundle`` under one and two BLAS threads and
requires byte-identical reports, the normal-form certificate of the
sub-bundles among them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import crandn
from test_fell_certificates import conjugated_bundle

import ncg
from ncg.fellbundle import _basis_products, bundle_to_json
from ncg.matops import write_json

EPS = np.finfo(float).eps


def adjoints(stack):
    return np.conj(np.swapaxes(stack, 1, 2))


def assert_products(got, e1, e2, order="ab"):
    """``got`` holds ``e1[a] @ e2[b]`` (or, with ``order="ba"``, its
    adjoint ``e2[b]* e1[a]*`` at ``b * len(e1) + a``) within
    ``16 n eps ‖e1[a]‖_F ‖e2[b]‖_F``."""
    n = e1.shape[2]
    assert got.shape == (len(e1) * len(e2),) + (
        (e1.shape[1], e2.shape[2]) if order == "ab"
        else (e2.shape[2], e1.shape[1]))
    assert got.dtype == complex and got.flags.c_contiguous
    for a in range(len(e1)):
        for b in range(len(e2)):
            want = e1[a] @ e2[b]
            if order == "ab":
                prod = got[a * len(e2) + b]
            else:
                prod, want = got[b * len(e1) + a], want.conj().T
            bound = 16 * n * EPS * (np.linalg.norm(e1[a])
                                    * np.linalg.norm(e2[b]))
            assert np.linalg.norm(prod - want) <= bound, (a, b)


SHAPES = [(3, 2, 5, 4, 3), (4, 5, 3, 2, 1), (1, 1, 1, 1, 1), (2, 1, 4, 3, 1),
          (5, 3, 1, 2, 4), (6, 4, 4, 6, 4)]


@pytest.mark.parametrize("a,i,j,b,k", SHAPES)
@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e40])
def test_products_match_single_products(a, i, j, b, k, scale):
    rng = np.random.default_rng([20261201, a, i, j, b, k])
    e1 = scale * crandn(rng, a, i, j)
    e2 = scale * crandn(rng, b, j, k)
    assert_products(_basis_products(e1, e2), e1, e2)


@pytest.mark.parametrize("a,i,j,b,k", SHAPES)
def test_adjoint_side_matches_conjugate_transpose(a, i, j, b, k):
    # Axiom 8's right side: products of the adjoint stacks in (b, a)
    # order are the conjugate transposes of the (a, b) products.
    rng = np.random.default_rng([20261202, a, i, j, b, k])
    e1, e2 = crandn(rng, a, i, j), crandn(rng, b, j, k)
    assert_products(_basis_products(adjoints(e2), adjoints(e1)), e1, e2,
                    order="ba")


@pytest.mark.parametrize("a,b", [(0, 3), (2, 0), (0, 0)])
def test_empty_stacks(a, b):
    rng = np.random.default_rng(20261203)
    e1, e2 = crandn(rng, a, 2, 3), crandn(rng, b, 3, 4)
    assert _basis_products(e1, e2).shape == (a * b, 2, 4)


def test_matrix_units_multiply_exactly():
    # E_ab E_cd = δ_bc E_ad: every product of 0/1 entries is exact.
    units = np.eye(6, dtype=complex).reshape(6, 2, 3)
    right = np.eye(12, dtype=complex).reshape(12, 3, 4)
    got = _basis_products(units, right)
    want = np.array([x @ y for x in units for y in right])
    assert np.array_equal(got, want)


def check_bundle_json(path, threads):
    env = {**os.environ,
           "PYTHONPATH": str(Path(ncg.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads)}
    proc = subprocess.run(
        [sys.executable, "-c", "from ncg.cli import main; main()",
         "check", "bundle", str(path), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize("sizes,split", [((6, 6, 6, 6), None),
                                         ((8, 8, 8, 8), 4),
                                         ((2,) * 8, None), ((4,) * 8, 2)])
def test_reports_do_not_depend_on_blas_threads(sizes, split, tmp_path):
    b = conjugated_bundle(np.random.default_rng([20261204, len(sizes)]),
                          sizes, split)
    path = tmp_path / "bundle.json"
    with open(path, "w") as f:
        write_json(bundle_to_json(b), f.write)
    report = check_bundle_json(path, 1)
    assert report == check_bundle_json(path, 2)
    # The sub-bundles are decided by their normal form, whose frames come
    # from an eigendecomposition and SVDs: the certificate, too, is
    # byte-identical.
    assert ('"witness": "certified: ' in report) == (split is not None)

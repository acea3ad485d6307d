"""``ncg check bundle`` on a bundle-triple file checks its path-lifting
operator: ``PL`` must be a normaliser supported on a global bisection
that is an involution, self-adjoint and blockwise in the bundle's
fibres, and ``hilbert_dim`` must be the total block dimension.

The oracles are ``spectral_category``, which refuses exactly the files
that fail a row, with the failing rows of the bundle or of ``PL``,
``is_normaliser_bruteforce``
for the normaliser half of the support row, whose support must also be
an involution, and the report of the same file without ``PL``, which must
be today's report byte for byte."""

import json

import numpy as np
import pytest

from conftest import json_document, written_text
from oracles import failing_ids, is_normaliser_bruteforce, loop_block_norms

from ncg import (DEFAULT_TOL, AxiomRefusalError, BlockStructure,
                 build_triple_from_mass_matrix, bundle_from_json, categorify,
                 normaliser_support)
from ncg.cstarcat import block_support
from ncg.cli import run
from ncg.geometry import (check_bundle_document, fell_triple_from_category,
                          spectral_category)

SWAP = [[0, 1], [1, 0]]
PATH_ROWS = ("fell.path_lifting.normaliser", "fell.path_lifting.selfadjoint",
             "fell.path_lifting.in_fibres")
INPUT_ERROR = "input error: hilbert_dim {} is not the total block dimension 2"
DIAGONAL = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], dtype=complex)
# span{I, E12}: closed under products, but E12* = E21 is not in it.
NOT_INVOLUTIVE = np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=complex)


def cycle_pl():
    """Objects 1 and 2 swapped by entries 1; objects 3 -> 4 -> 5 -> 3 by
    entries 1.05 rel ‖PL‖_F, with mirror entries 0.95 rel ‖PL‖_F.  The
    support is {1: 2, 2: 1, 3: 4, 4: 5, 5: 3}, no involution, though
    ‖PL - PL*‖ is within tolerance."""
    pl = np.zeros((5, 5))
    pl[0, 1] = pl[1, 0] = 1.0
    threshold = DEFAULT_TOL.rel * np.sqrt(2.0)
    for j, i in ((3, 4), (4, 5), (5, 3)):
        pl[i - 1, j - 1] = 1.05 * threshold
        pl[j - 1, i - 1] = 0.95 * threshold
    return pl


def full_bundle(p):
    return ([1] * p, {f"{i},{j}": np.ones((1, 1, 1), dtype=complex)
                      for i in range(1, p + 1) for j in range(1, p + 1)})


# Bundles by name: blocks and fibres.  "full" and "full_5" are the full
# bundles over blocks [1, 1] and [1] * 5; "diagonal" has every fibre
# over blocks [2, 2] the diagonal matrices span{E11, E22}, a saturated
# unital sub-bundle; "not_involutive" has its one fibre over blocks [2]
# span{I, E12}, saturated and unital but no Fell bundle.
BUNDLES = {
    "full": full_bundle(2),
    "full_5": full_bundle(5),
    "diagonal": ([2, 2], {f"{i},{j}": DIAGONAL
                          for i in (1, 2) for j in (1, 2)}),
    "not_involutive": ([2], {"1,1": NOT_INVOLUTIVE}),
}

# name: (bundle, PL, hilbert_dim, exit code, failing rows or the input
# error line)
CASES = {
    "valid": ("full", SWAP, 2, 0, []),
    "identity": ("full", np.eye(2), 2, 0, []),
    "all_ones": ("full", np.ones((2, 2)), 2, 1,
                 ["fell.path_lifting.normaliser"]),
    "partial_support": ("full", [[1, 0], [0, 0]], 2, 1,
                        ["fell.path_lifting.normaliser"]),
    "not_selfadjoint": ("full", [[0, 1], [2, 0]], 2, 1,
                        ["fell.path_lifting.selfadjoint"]),
    "complex_not_selfadjoint": ("full", [[0, 1j], [1j, 0]], 2, 1,
                                ["fell.path_lifting.selfadjoint"]),
    "both": ("full", [[1, 1], [0, 0]], 2, 1, list(PATH_ROWS[:2])),
    # Off-diagonal blocks [[0, 1], [1, 0]]: a self-adjoint normaliser on
    # a global bisection, but its blocks leave the diagonal fibres.
    "outside_fibres": ("diagonal", np.kron(SWAP, SWAP), 4, 1,
                       ["fell.path_lifting.in_fibres"]),
    "cycle": ("full_5", cycle_pl(), 5, 1, ["fell.path_lifting.normaliser"]),
    # A valid PL on a bundle that fails a Fell axiom.
    "not_involutive": ("not_involutive", np.eye(2), 2, 1, ["fell.axiom.6"]),
    "hilbert_dim_7": ("full", SWAP, 7, 2, INPUT_ERROR.format(7)),
    "hilbert_dim_float": ("full", SWAP, 2.0, 2, INPUT_ERROR.format(2.0)),
    "hilbert_dim_true": ("full", SWAP, True, 2, INPUT_ERROR.format(True)),
    "hilbert_dim_string": ("full", SWAP, "2", 2, INPUT_ERROR.format("'2'")),
}

WITNESSES = {
    "valid": "support {1: 2, 2: 1} is a global bisection",
    "all_ones": "not a normaliser of the diagonal algebra",
    "partial_support": "support {1: 1} covers 1 of the 2 block columns",
    "outside_fibres": "support {1: 2, 2: 1} is a global bisection",
    "cycle": "support {1: 2, 2: 1, 3: 4, 4: 5, 5: 3} is not an "
             "involution: columns [3, 4, 5] are unpaired",
}


def bundle_triple_document(pl, hilbert_dim, bundle="full"):
    blocks, fibres = BUNDLES[bundle]
    doc = json_document({"blocks": blocks, "fibres": fibres,
                         "PL": np.asarray(pl, dtype=complex)})
    return {**doc, "hilbert_dim": hilbert_dim}


def check(tmp_path, capsys, doc, *args):
    path = tmp_path / "bundle_triple.json"
    path.write_text(written_text(doc))
    code = run(["check", "bundle", str(path), *args])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_path_lifting(case, tmp_path, capsys):
    bundle, pl, dim, code, expected = CASES[case]
    doc = bundle_triple_document(pl, dim, bundle)
    got, out = check(tmp_path, capsys, doc, "--format", "json")
    assert got == code
    if code == 2:
        assert out == expected + "\n"
        return
    rows = {c["id"]: c for c in json.loads(out)["checks"]}
    assert [i for i, c in rows.items() if c["status"] == "fail"] == expected
    if case in WITNESSES:
        assert rows[PATH_ROWS[0]]["witness"] == WITNESSES[case]
    try:
        sc = spectral_category(bundle_from_json(doc), pl)
        assert expected == []
        np.testing.assert_array_equal(sc.PL, pl)
    except AxiomRefusalError as exc:
        assert failing_ids(exc.report) == expected
    # The residual counts the block columns j with π(π(j)) ≠ j, those
    # outside the support included, all of them for no normaliser.
    blocks = BlockStructure(tuple(doc["blocks"]))
    m = np.asarray(pl, dtype=complex)
    above = loop_block_norms(blocks, m) > DEFAULT_TOL.rel * np.linalg.norm(m)
    pi = {int(j): int(i) for i, j in zip(*np.nonzero(above))}
    paired = 0 if not is_normaliser_bruteforce(pl, blocks) else \
        sum(pi.get(pi.get(j)) == j for j in range(blocks.p))
    assert rows[PATH_ROWS[0]]["residual"] == blocks.p - paired


def test_path_lifting_rows_follow_the_bundle_rows(tmp_path, capsys):
    doc = bundle_triple_document(SWAP, 2)
    _, with_pl = check(tmp_path, capsys, doc)
    del doc["PL"], doc["hilbert_dim"]
    code, without = check(tmp_path, capsys, doc)
    assert code == 0
    head = with_pl.split("result:")[0]
    bundle_rows = without.split("result:")[0]
    assert head.startswith(bundle_rows)
    added = head[len(bundle_rows):].splitlines()
    assert [line.split()[1] for line in added] == list(PATH_ROWS)
    for line, row in zip(added[1:], PATH_ROWS[1:]):
        assert line == f"  pass  {row:<38}  residual 0.000e+00"


def test_hilbert_dim_without_pl(tmp_path, capsys):
    doc = bundle_triple_document(SWAP, 2)
    del doc["PL"]
    assert check(tmp_path, capsys, doc)[0] == 0
    doc["hilbert_dim"] = 3
    assert check(tmp_path, capsys, doc) == (2, INPUT_ERROR.format(3) + "\n")


@pytest.mark.parametrize("pl, message", [
    ([[[0.0, 0.0]]], "PL: shape (1, 1), expected (2, 2)"),
    (None, "PL: expected a nonempty array of rows"),
    ([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], "x"]],
     "PL: entry (1,1) is not an [re, im] pair"),
])
def test_malformed_pl_is_exit_two(pl, message, tmp_path, capsys):
    doc = bundle_triple_document(SWAP, 2)
    doc["PL"] = pl
    assert check(tmp_path, capsys, doc) == (2, f"input error: {message}\n")


def test_to_fell_output_passes_with_its_path_lifting_rows():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    report = check_bundle_document(json_document(fell_triple_from_category(
        categorify(build_triple_from_mass_matrix(m)))))
    assert report.all_passed
    assert [c.axiom_id for c in report.checks[-3:]] == list(PATH_ROWS)
    assert report.checks[-1].residual == 0.0
    assert report.checks[-3].witness == (
        "support {1: 2, 2: 1, 3: 4, 4: 3} is a global bisection")


def random_support_matrix(rng, blocks):
    """A matrix with a random set of nonzero blocks, some of them at the
    threshold's scale, so that every support pattern occurs."""
    n, p = blocks.total, blocks.p
    m = np.zeros((n, n), dtype=complex)
    for i, j in np.argwhere(rng.random((p, p)) < 1.5 / p):
        rows, cols = blocks.block_slice(i + 1), blocks.block_slice(j + 1)
        shape = (blocks.sizes[i], blocks.sizes[j])
        m[rows, cols] = (rng.standard_normal(shape) * 10.0 ** rng.choice(
            [0.0, -8.9, -9.1]))
    return m


def test_block_support_is_the_normaliser_support():
    # The row takes only the support, without the kinds; it must be the
    # support normaliser_support finds, and None exactly for its
    # not_normaliser.
    rng = np.random.default_rng(20261125)
    for sizes in [(1, 1), (2, 1, 3), (2, 2, 2, 2)]:
        blocks = BlockStructure(sizes)
        for _ in range(60):
            m = random_support_matrix(rng, blocks)
            support = block_support(m, blocks)
            cls = normaliser_support(m, blocks)
            assert (support is None) == (not cls.is_normaliser)
            assert (support or ()) == cls.support


def test_path_lifting_row_classifies_no_blocks(monkeypatch):
    # The row needs the support only, not the SVD of each support block
    # that tells invertible and unitary normalisers apart; the full
    # bundles of matrix units take no SVD either (a thinner fibre takes
    # one when it is decoded).
    def forbidden(*args, **kwargs):
        raise AssertionError("the row classified the normaliser")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    for name, (bundle, pl, dim, code, failing) in CASES.items():
        if code == 2 or bundle != "full":
            continue
        report = check_bundle_document(bundle_triple_document(pl, dim, bundle))
        assert [c.axiom_id for c in report.checks
                if not c.passed] == failing, name
        if name in WITNESSES:
            assert report.find(PATH_ROWS[0]).witness == WITNESSES[name]

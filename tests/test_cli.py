import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import json_document, random_unitary

from ncg import (BlockStructure, FiniteSpectralTriple, Profile,
                 bundle_to_json, build_triple_from_mass_matrix, categorify,
                 climit, full_morita_bundle, triple_from_json, triple_to_json)
import ncg
from ncg.cli import run
from ncg.matops import write_json


def write(path, obj):
    """Write ``obj`` as the CLI writes its files."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh.write)
    return str(path)


@pytest.fixture
def standard_triple_file(tmp_path):
    t = build_triple_from_mass_matrix(np.array([[1.0]]))
    return write(tmp_path / "standard.json", triple_to_json(t))


class TestCheckTriple:
    def test_standard_triple_passes(self, standard_triple_file, capsys):
        assert run(["check", "triple", standard_triple_file]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "triple.even.anticommute_gamma" in out

    def test_identity_grading_fails_with_stable_identifier(self, tmp_path,
                                                           capsys):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        bad = FiniteSpectralTriple(t.blocks, t.D, np.eye(4, dtype=complex),
                                   t.epsilon, t.K)
        path = write(tmp_path / "bad.json", triple_to_json(bad))
        assert run(["check", "triple", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL  triple.even.anticommute_gamma" in out
        assert "result: FAIL" in out

    def test_json_format(self, standard_triple_file, capsys):
        assert run(["check", "triple", standard_triple_file,
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        ids = [c["id"] for c in payload["checks"]]
        assert "triple.so_real.anticommute_J" in ids
        assert "triple.poincare" in ids
        poincare = next(c for c in payload["checks"]
                        if c["id"] == "triple.poincare")
        assert poincare["status"] == "info"

    def test_malformed_json_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"blocks": [1,')
        assert run(["check", "triple", str(path)]) == 2
        assert "input error" in capsys.readouterr().out

    def test_shape_error_is_exit_two(self, tmp_path, capsys):
        path = write(tmp_path / "ragged.json",
                     {"blocks": [1, 1],
                      "D": [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        assert run(["check", "triple", str(path)]) == 2
        out = capsys.readouterr().out
        assert "row 1" in out


def _failing_ids(stdout):
    return sorted(line.split()[1] for line in stdout.splitlines()
                  if line.startswith("  FAIL  "))


class TestNonHermitianGrading:
    def test_check_and_categorify_agree(self, tmp_path, capsys):
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        gamma = t.gamma.copy()
        gamma[0, 1] = 0.5
        bad = FiniteSpectralTriple(t.blocks, t.D, gamma, t.epsilon, t.K)
        path = write(tmp_path / "skew_gamma.json", triple_to_json(bad))

        assert run(["check", "triple", path, "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        failing = sorted(c["id"] for c in checks if c["status"] == "fail")
        assert "triple.even.gamma_selfadjoint" in failing
        poincare = next(c for c in checks if c["id"] == "triple.poincare")
        assert poincare["status"] == "info"
        assert "not Hermitian" in poincare["witness"]

        assert run(["check", "triple", path]) == 1
        assert _failing_ids(capsys.readouterr().out) == failing

        assert run(["categorify", path, "-o", str(tmp_path / "o.json")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("check failed: triple fails ")
        assert _failing_ids(out) == failing


def _category_json():
    t = build_triple_from_mass_matrix(np.array([[1.0]]))
    return json_document(categorify(t).to_json())


def _malformed_cases():
    cat = _category_json()
    one = [[[1.0, 0.0]]]
    triple = {"blocks": [1], "D": one}
    cases = {
        "blocks_int": ("triple", {**triple, "blocks": 3}),
        "blocks_str": ("triple", {**triple, "blocks": ["a"]}),
        "blocks_float": ("triple", {**triple, "blocks": [1.5]}),
        "blocks_numeric_str": ("triple", {**triple, "blocks": ["1"]}),
        "blocks_bool": ("triple", {**triple, "blocks": [True]}),
        "blocks_empty": ("triple", {**triple, "blocks": []}),
        "bool_entry": ("triple", {**triple, "D": [[[True, 0]]]}),
        "fibres_array": ("bundle", {"blocks": [1], "fibres": [1]}),
        "fibre_key_repeat": ("bundle", {"blocks": [1], "fibres": {
            "1,1": [one], " 1,1": []}}),
        "homsets_array": ("category", {**cat, "homsets": [1]}),
        "perm_str": ("category", {**cat, "sigma": {**cat["sigma"],
                                                   "perm": ["x", 1, 4, 3]}}),
        "perm_float": ("category", {**cat, "sigma": {**cat["sigma"],
                                                     "perm": [2.0, 1, 4, 3]}}),
        "sigma_key": ("category", {**cat, "sigma": {
            **cat["sigma"], "blocks": {"a": one}}}),
        "sigma_key_repeat": ("category", {**cat, "sigma": {
            **cat["sigma"], "blocks": {**cat["sigma"]["blocks"],
                                       "01": one}}}),
        "sigma_blocks_array": ("category", {**cat, "sigma": {
            **cat["sigma"], "blocks": [one]}}),
        "sigma_block_shape": ("category", {**cat, "sigma": {
            **cat["sigma"], "blocks": {"1": [[[1.0, 0.0], [0.0, 0.0]]]}}}),
        "r_bool": ("terms", [{"r": True, "U": one}]),
    }
    return cases


@pytest.mark.parametrize("case", sorted(_malformed_cases()))
def test_malformed_input_is_exit_two_without_traceback(case, tmp_path,
                                                        capsys):
    kind, body = _malformed_cases()[case]
    path = write(tmp_path / f"{case}.json", body)
    out = str(tmp_path / "out.json")
    if kind in ("triple", "bundle"):
        argv = ["check", kind, path]
    elif kind == "category":
        argv = ["to-fell", path, "-o", out]
    else:
        triple = write(tmp_path / "triple.json",
                       {"blocks": [1], "D": [[[1.0, 0.0]]]})
        argv = ["fluctuate", triple, "--terms", path, "-o", out]
    assert run(argv) == 2
    assert capsys.readouterr().out.startswith("input error:")


IO_CASES = {
    "not_utf8": (["check", "triple", "{bad}"], "byte 0 is not UTF-8"),
    "nested_too_deeply": (["check", "triple", "{deep}"],
                          "arrays or objects nested too deeply"),
    "input_is_directory": (["check", "triple", "{dir}"], "Is a directory"),
    "integer_too_long": (["check", "triple", "{digits}"],
                         "an integer has too many digits"),
    "output_dir_missing": (["categorify", "{triple}", "-o",
                            "{missing}/x.json"], "No such file or directory"),
    "output_is_directory": (["categorify", "{triple}", "-o", "{dir}"],
                            "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(IO_CASES))
def test_unreadable_or_unwritable_path_is_exit_two(case, tmp_path):
    """``main()`` in a fresh interpreter: exit 2, one ``input error:`` line
    naming the path, nothing on stderr."""
    paths = {"bad": tmp_path / "bad.json", "deep": tmp_path / "deep.json",
             "dir": tmp_path / "dir", "digits": tmp_path / "digits.json",
             "triple": tmp_path / "t.json", "missing": tmp_path / "missing"}
    paths["bad"].write_bytes(b'\xff\xfe{"blocks": [1]}')
    paths["deep"].write_text("[" * 200000)
    paths["dir"].mkdir()
    paths["digits"].write_text("[" + "1" * 5000 + "]")
    write(paths["triple"], triple_to_json(
        build_triple_from_mass_matrix(np.array([[1.0]]))))
    template, reason = IO_CASES[case]
    argv = [a.format(**paths) for a in template]
    env = {**os.environ,
           "PYTHONPATH": str(Path(ncg.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "from ncg.cli import main; main()", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    path = argv[-1]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, f"input error: {path}: {reason}\n", "")


def test_missing_sigma_key_is_exit_two(tmp_path, capsys):
    cat = _category_json()
    blocks = {k: v for k, v in cat["sigma"]["blocks"].items() if k != "4"}
    path = write(tmp_path / "no_key_4.json",
                 {**cat, "sigma": {**cat["sigma"], "blocks": blocks}})
    assert run(["to-fell", path, "-o", str(tmp_path / "o.json")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("input error:") and "[4]" in out


def _enc(m):
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


def test_singular_k_fails_real_battery(tmp_path, capsys):
    # J = K ∘ conj has no inverse, so J b J⁻¹ and the commutant
    # diagnostics built from it are undefined.
    path = write(tmp_path / "singular_k.json", {
        "blocks": [1, 1], "D": _enc([[0, 1], [1, 0]]),
        "gamma": _enc(np.diag([1, -1])), "K": _enc(np.diag([1, 0]))})
    assert run(["check", "triple", path, "--format", "json"]) == 1
    rows = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert rows["triple.real.antiunitary"]["status"] == "fail"
    opposite = rows["triple.real.opposite_algebra"]
    assert opposite["status"] == "fail"
    assert "K is not invertible" in opposite["witness"]
    for axiom_id in ("triple.real.zeroth_order_commutant",
                     "triple.real.first_order_commutant"):
        assert rows[axiom_id]["status"] == "info"
        assert rows[axiom_id]["witness"].startswith("not applicable")
    assert "triple.poincare" in rows

    assert run(["categorify", path, "-o", str(tmp_path / "o.json")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("check failed: triple fails ")
    assert {"triple.real.antiunitary",
            "triple.real.opposite_algebra"} <= set(_failing_ids(out))


def _entry_cases(big):
    """A four-sector triple and a two-object bundle whose largest entry is
    ``big``."""
    t = build_triple_from_mass_matrix(np.array([[big, 1.0], [0.5, big]]))
    bundle = {"blocks": [1, 1],
              "fibres": {f"{i},{j}": [[[[big, 0.0]]]]
                         for i in (1, 2) for j in (1, 2)}}
    return json_document(triple_to_json(t)), bundle


@pytest.mark.parametrize("command", ["check-triple", "categorify",
                                     "check-bundle", "integer-entry"])
def test_overflowing_entry_is_exit_two(command, tmp_path, capsys):
    triple, bundle = _entry_cases(1e160)
    if command == "integer-entry":
        triple["D"][0][2] = [10 ** 400, 0]
    path = write(tmp_path / "big.json",
                 bundle if command == "check-bundle" else triple)
    argv = {"categorify": ["categorify", path, "-o", str(tmp_path / "o.json")],
            "check-bundle": ["check", "bundle", path]}.get(
        command, ["check", "triple", path])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    captured = capsys.readouterr()
    where = ("fibre 1,1[0]: entry (0,0)" if command == "check-bundle"
             else "D: entry (0,2)")
    assert captured.out == (f"input error: {where} exceeds the magnitude "
                            f"bound 1e+48\n")
    assert captured.err == "" and caught == []


def test_entry_just_below_the_bound_is_accepted(tmp_path, capsys):
    triple, bundle = _entry_cases(0.99e48)
    tpath = write(tmp_path / "triple.json", triple)
    bpath = write(tmp_path / "bundle.json", bundle)
    cat = str(tmp_path / "cat.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["check", "triple", tpath]) == 0
        assert run(["categorify", tpath, "-o", cat]) == 0
        assert run(["to-fell", cat, "-o", str(tmp_path / "fell.json")]) == 0
        assert run(["check", "bundle", bpath]) == 0
    assert capsys.readouterr().err == "" and caught == []


ONE = [[[1.0, 0.0]]]


@pytest.mark.parametrize("r", [1e308, float("nan"), float("inf"), 10 ** 400])
def test_overflowing_coefficient_is_exit_two(r, tmp_path, capsys):
    triple = write(tmp_path / "triple.json", {"blocks": [1], "D": ONE})
    terms = write(tmp_path / "terms.json", [{"r": r, "U": ONE}] * 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["fluctuate", triple, "--terms", terms,
                    "-o", str(tmp_path / "o.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ("input error: term 0: coefficient must be finite "
                            "and at most 1e+48 in magnitude\n")
    assert captured.err == "" and caught == []


def test_coefficient_at_the_bound_is_accepted(tmp_path, capsys):
    triple = write(tmp_path / "triple.json", {"blocks": [1], "D": ONE})
    terms = write(tmp_path / "terms.json", [{"r": -1e48, "U": ONE}] * 2)
    out = tmp_path / "o.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["fluctuate", triple, "--terms", terms,
                    "-o", str(out)]) == 0
    assert capsys.readouterr().err == "" and caught == []
    assert json.loads(out.read_text())["D"] == [[[-2e48, 0.0]]]


def _unit2(r, c):
    m = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    m[r][c] = [1.0, 0.0]
    return m


# Categories whose homsets are not full, so the conversions run the
# exhaustive battery; the expected lines are the refusal reports.
REFUSED_CATEGORIES = {
    "no_22": ({"blocks": [1, 1],
               "homsets": {"1,1": [ONE], "1,2": [ONE], "2,1": [ONE]},
               "sigma": {"perm": [2, 1], "blocks": {"1": ONE, "2": ONE}}},
              ["check failed: bundle fails fell.axiom.2, fell.unital; "
               "not a C*-category",
               "  FAIL  fell.axiom.2                            "
               "residual 1.000e+00",
               "  FAIL  fell.unital                             "
               "residual 1.000e+00"]),
    "corner": ({"blocks": [2], "homsets": {"1,1": [_unit2(0, 0)]},
                "sigma": {"perm": [1], "blocks": {"1": _unit2(0, 0)}}},
               ["check failed: bundle fails fell.unital; not a C*-category",
                "  FAIL  fell.unital                             "
                "residual 7.071e-01"]),
    "diagonal": ({"blocks": [1, 1], "homsets": {"1,1": [ONE], "2,2": [ONE]},
                  "sigma": {"perm": [1, 2], "blocks": {"1": ONE, "2": ONE}}},
                 ["check failed: bundle fails fell.saturated: products of "
                  "(1, 2) x (2, 1) span 0 of the 1 dimensions of fibre "
                  "(1, 1)",
                  "  FAIL  fell.saturated                          "
                  "residual 1.000e+00"]),
}


@pytest.mark.parametrize("case", sorted(REFUSED_CATEGORIES))
def test_to_fell_refuses_non_full_category(case, tmp_path, capsys):
    body, lines = REFUSED_CATEGORIES[case]
    path = write(tmp_path / f"{case}.json", body)
    out_path = tmp_path / "o.json"
    assert run(["to-fell", path, "-o", str(out_path)]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert not out_path.exists()


def test_categorify_output_bytes(tmp_path, capsys):
    m = np.array([[1.0, 2.0j], [0.5, -1.0]])
    t = build_triple_from_mass_matrix(m)
    path = write(tmp_path / "t.json", triple_to_json(t))

    def enc(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    def units(rows, cols):
        out = []
        for r in range(rows):
            for c in range(cols):
                u = np.zeros((rows, cols), dtype=complex)
                u[r, c] = 1.0
                out.append(enc(u))
        return out

    perm = [2, 1, 4, 3]
    sl = [slice(2 * k, 2 * k + 2) for k in range(4)]
    expected = {
        "blocks": [2, 2, 2, 2],
        "homsets": {f"{i},{j}": units(2, 2)
                    for i in range(1, 5) for j in range(1, 5)},
        "sigma": {"perm": perm,
                  "blocks": {str(j): enc(t.D[sl[perm[j - 1] - 1], sl[j - 1]])
                             for j in range(1, 5)}}}
    out = tmp_path / "cat.json"
    assert run(["categorify", path, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        json.dumps(expected, indent=2, sort_keys=True) + "\n")


class TestCheckBundle:
    def test_full_bundle_passes(self, tmp_path, capsys):
        path = write(tmp_path / "bundle.json",
                     bundle_to_json(full_morita_bundle(BlockStructure((1, 2)))))
        assert run(["check", "bundle", path]) == 0
        out = capsys.readouterr().out
        assert "fell.axiom.10" in out and "fell.saturated" in out

    def test_nan_tolerance_is_exit_two(self, tmp_path, capsys):
        # Fibre (1,2) holds e_12 but (2,1) is empty, so fell.axiom.6
        # fails at any finite tolerance.
        data = {"blocks": [1, 1],
                "fibres": {"1,1": [[[[1.0, 0.0]]]], "2,2": [[[[1.0, 0.0]]]],
                           "1,2": [[[[1.0, 0.0]]]]}}
        path = write(tmp_path / "one_sided.json", data)
        assert run(["check", "bundle", path]) == 1
        assert "FAIL  fell.axiom.6" in capsys.readouterr().out
        assert run(["check", "bundle", path, "--tol", "nan"]) == 2
        assert capsys.readouterr().out.startswith("input error:")

    def test_unsaturated_bundle_fails(self, tmp_path, capsys):
        data = {"blocks": [1, 1],
                "fibres": {"1,1": [[[[1.0, 0.0]]]], "2,2": [[[[1.0, 0.0]]]]}}
        path = write(tmp_path / "unsaturated.json", data)
        assert run(["check", "bundle", path]) == 1
        assert "FAIL  fell.saturated" in capsys.readouterr().out


class TestPipelines:
    def test_categorify_then_to_fell(self, standard_triple_file, tmp_path,
                                     capsys):
        cat_path = str(tmp_path / "cat.json")
        fell_path = str(tmp_path / "fell.json")
        assert run(["categorify", standard_triple_file, "-o", cat_path]) == 0
        assert run(["to-fell", cat_path, "-o", fell_path]) == 0
        fell = json.loads((tmp_path / "fell.json").read_text())
        assert fell["hilbert_dim"] == 4
        original = json.loads(open(standard_triple_file).read())
        assert fell["PL"] == original["D"]

    def test_categorify_zero_dirac_is_check_failure(self, tmp_path, capsys):
        t = build_triple_from_mass_matrix(np.array([[0.0]]))
        path = write(tmp_path / "zero.json", triple_to_json(t))
        assert run(["categorify", path, "-o", str(tmp_path / "o.json")]) == 1
        assert "check failed" in capsys.readouterr().out

    def test_fluctuate_writes_conjugated_triple(self, standard_triple_file,
                                                tmp_path, capsys):
        rng = np.random.default_rng(7)
        u = random_unitary(rng, 4)
        terms_path = write(tmp_path / "terms.json",
                           [{"r": 1.0,
                             "U": [[[float(z.real), float(z.imag)]
                                    for z in row] for row in u]}])
        out_path = str(tmp_path / "fluct.json")
        assert run(["fluctuate", standard_triple_file, "--terms", terms_path,
                    "-o", out_path]) == 0
        original = triple_from_json(
            json.loads(open(standard_triple_file).read()))
        result = triple_from_json(json.loads(open(out_path).read()))
        np.testing.assert_allclose(result.D,
                                   u @ original.D @ u.conj().T, atol=1e-12)

    def test_fluctuate_non_unitary_term_is_exit_two(self,
                                                    standard_triple_file,
                                                    tmp_path, capsys):
        terms_path = write(tmp_path / "terms.json",
                           [{"r": 1.0, "U": [[[2.0, 0.0], [0.0, 0.0]],
                                             [[0.0, 0.0], [2.0, 0.0]]]}])
        code = run(["fluctuate", standard_triple_file, "--terms", terms_path,
                    "-o", str(tmp_path / "o.json")])
        assert code == 2


class TestLimit:
    def test_json_report_orders(self, capsys):
        assert run(["limit", "--ns", "64,128", "--profile", "sine:1",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["order"] is None
        assert payload["rows"][1]["order"] == pytest.approx(2.0, abs=0.05)

    def test_text_table(self, capsys):
        assert run(["limit", "--ns", "16,32", "--profile", "sine:1",
                    "--theta", "sine:1"]) == 0
        out = capsys.readouterr().out
        assert "flat_error" in out and "fluct_error" in out

    def test_bad_ns_is_exit_two(self, capsys):
        assert run(["limit", "--ns", "64,abc", "--profile", "sine:1"]) == 2

    def test_bad_profile_is_exit_two(self, capsys):
        assert run(["limit", "--ns", "16,32", "--profile", "sawtooth"]) == 2

    def test_empty_ns_is_exit_two(self, capsys):
        assert run(["limit", "--ns", "", "--profile", "sine:1"]) == 2
        assert capsys.readouterr().out.startswith("input error:")

    def test_nan_profile_parameter_is_exit_two(self, capsys):
        assert run(["limit", "--ns", "16,32", "--profile", "sine:nan"]) == 2
        assert capsys.readouterr().out.startswith("input error:")

    @pytest.mark.parametrize("profile", ["sine:1e308", "plane_wave:1e308",
                                         "constant:1e308"])
    def test_overflowing_profile_is_exit_two(self, profile, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["limit", "--ns", "8,16", "--profile", profile,
                        "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("input error: profile ")
        assert "n=8" in captured.out
        assert captured.err == "" and caught == []

    def test_overflowing_phase_is_exit_two(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["limit", "--ns", "8,16", "--profile", "sine:1",
                        "--theta", "sine:1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("input error:")
        assert "phase sine:1e+308" in captured.out
        assert captured.err == "" and caught == []

    def test_huge_finite_profile_is_accepted(self, capsys):
        assert run(["limit", "--ns", "8,16", "--profile", "sine:1e307",
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["flat_error"] == pytest.approx(2e307 * np.pi)

    @pytest.mark.parametrize("ns", [f"8,{climit.MAX_SITES + 1}",
                                    "8,1000000000", "8,16,10000000000000"])
    def test_oversized_lattice_is_exit_two(self, ns, monkeypatch, capsys):
        # The refusal must come before anything is allocated: a sweep that
        # got past it would reach this guard instead of a lattice.
        def allocating(n):
            raise AssertionError(f"lattice of {n} sites built")
        monkeypatch.setattr(climit, "LatticeConfig", allocating)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["limit", "--ns", ns, "--profile", "sine:1"]) == 2
        captured = capsys.readouterr()
        largest = ns.split(",")[-1]
        assert captured.out == (f"input error: lattice size {largest} "
                                f"exceeds the limit of 1048576 (2^20) "
                                f"sites\n")
        assert captured.err == "" and caught == []

    def test_largest_lattice_passes_validation(self, monkeypatch):
        class Built(Exception):
            pass

        def allocating(n):
            raise Built(n)
        monkeypatch.setattr(climit, "LatticeConfig", allocating)
        with pytest.raises(Built):
            climit.convergence_report(Profile("sine", 1.0),
                                      [8, climit.MAX_SITES])

    def test_large_lattice_sweep(self, capsys):
        ns = [2 ** k for k in range(10, 17)]
        start = time.perf_counter()
        code = run(["limit", "--ns", ",".join(map(str, ns)), "--profile",
                    "sine:1", "--theta", "sine:1", "--format", "json"])
        elapsed = time.perf_counter() - start
        assert code == 0 and elapsed < 1.0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["n"] for row in rows] == ns
        flat = [row["flat_error"] for row in rows]
        for coarse, fine in zip(flat, flat[1:]):
            assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.05)


class TestGrammar:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_argument(self, capsys):
        assert run(["check"]) == 2

    def test_tol_override_loosens_a_check(self, tmp_path, capsys):
        # A slightly non-self-adjoint Dirac fails at the default
        # tolerance but passes at a loose one.
        t = build_triple_from_mass_matrix(np.array([[1.0]]))
        d = t.D.copy()
        d[0, 1] += 1e-6
        leaky = FiniteSpectralTriple(t.blocks, d, t.gamma, t.epsilon, t.K)
        path = write(tmp_path / "leaky.json", triple_to_json(leaky))
        assert run(["check", "triple", path]) == 1
        capsys.readouterr()
        assert run(["check", "triple", path, "--tol", "1e-3"]) == 0


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, standard_triple_file,
                                                capsys):
        outputs = []
        for _ in range(2):
            run(["check", "triple", standard_triple_file, "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

        for _ in range(2):
            run(["limit", "--ns", "16,32,64", "--profile", "plane_wave:2",
                 "--theta", "sine:1", "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[3]

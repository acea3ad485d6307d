"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import json
import time

import numpy as np

from conftest import (crandn, random_admissible_triple, random_normaliser,
                      random_partial_isometry, random_unitary, written_text)
from oracles import is_normaliser_bruteforce

from ncg import (BlockStructure, FellBundleFD, FiniteSpectralTriple,
                 SubspaceBasis, build_triple_from_mass_matrix, categorify,
                 check_bundle, check_even_axioms, check_real_axioms,
                 check_so_real, fluctuate, full_morita_bundle,
                 gauge_covariance_check, is_partial_isometry,
                 normaliser_support, one_form, spectral_category,
                 standard_operators, triple_from_category, triple_to_json)
from ncg.climit import LatticeConfig, Profile, convergence_report
from ncg.cli import run


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" +
          (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_mass_form_soundness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(200):
        l = int(rng.integers(1, 5))
        t = build_triple_from_mass_matrix(crandn(rng, l, l))
        for battery in (check_even_axioms, check_real_axioms, check_so_real):
            rep = battery(t)
            ok = ok and rep.all_passed
            worst = max(worst, rep.worst_residual)
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-10 and elapsed < 5.0
    _report(1, "mass-form soundness", ok,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def _constraint_kernel(l):
    """Independent oracle: solve the four linear operator constraints of
    the four-sector layout over the reals and return a kernel basis."""
    gamma, epsilon, K = standard_operators(l)
    n = 4 * l

    def constraints(d):
        out = np.concatenate([
            (d - d.conj().T).reshape(-1),
            (d @ gamma + gamma @ d).reshape(-1),
            (d @ epsilon - epsilon @ d).reshape(-1),
            (d @ K - K @ np.conj(d)).reshape(-1),
        ])
        return np.concatenate([out.real, out.imag])

    columns = []
    for r in range(n):
        for c in range(n):
            for scalar in (1.0, 1.0j):
                e = np.zeros((n, n), dtype=complex)
                e[r, c] = scalar
                columns.append(constraints(e))
    a = np.stack(columns, axis=1)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.count_nonzero(s > 1e-9 * s[0]))
    kernel = []
    for vec in vh[rank:]:
        d = np.zeros((n, n), dtype=complex)
        idx = 0
        for r in range(n):
            for c in range(n):
                d[r, c] = vec[idx] + 1j * vec[idx + 1]
                idx += 2
        kernel.append(d)
    return kernel


def test_criterion_02_mass_form_completeness():
    ok = True
    details = []
    allowed = {(1, 2), (2, 1), (3, 4), (4, 3)}
    for l in (1, 2):
        kernel = _constraint_kernel(l)
        dim_ok = len(kernel) == 2 * l * l
        support_ok = True
        relations_ok = True
        blocks = BlockStructure((l, l, l, l))
        for d in kernel:
            for i in range(1, 5):
                for j in range(1, 5):
                    if (i, j) not in allowed:
                        if np.linalg.norm(blocks.block(d, i, j)) > 1e-9:
                            support_ok = False
            m = blocks.block(d, 2, 1)
            relations_ok = relations_ok and (
                np.linalg.norm(blocks.block(d, 1, 2) - m.conj().T) < 1e-9
                and np.linalg.norm(blocks.block(d, 3, 4) - m.T) < 1e-9
                and np.linalg.norm(blocks.block(d, 4, 3) - np.conj(m)) < 1e-9)
        ok = ok and dim_ok and support_ok and relations_ok
        details.append(f"l={l}: dim {len(kernel)} (want {2 * l * l}), "
                       f"support {support_ok}, relations {relations_ok}")
    _report(2, "mass-form completeness", ok, "; ".join(details))


def test_criterion_03_categorification_round_trip():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        t = random_admissible_triple(rng)
        sc = categorify(t)
        back = triple_from_category(spectral_category(sc.bundle, sc.PL),
                                    t.gamma)
        ok = ok and back.blocks == t.blocks
        ok = ok and np.array_equal(back.D, t.D)
    _report(3, "categorification round trip", ok, "50 triples, bitwise")


def test_criterion_04_normaliser_oracle_agreement():
    rng = np.random.default_rng(104)
    disagreements = 0
    total = 0
    for sizes in ((1, 1), (1, 2)):
        blocks = BlockStructure(sizes)
        cells = list(itertools.product((1, 2), repeat=2))
        for mask in itertools.product((0, 1), repeat=4):
            for _ in range(10):
                m = np.zeros((blocks.total, blocks.total), dtype=complex)
                for on, (i, j) in zip(mask, cells):
                    if on:
                        blk = crandn(rng, blocks.sizes[i - 1],
                                     blocks.sizes[j - 1])
                        m[blocks.block_slice(i),
                          blocks.block_slice(j)] = blk / np.linalg.norm(blk)
                total += 1
                if is_normaliser_bruteforce(m, blocks) != \
                        normaliser_support(m, blocks).is_normaliser:
                    disagreements += 1
    _report(4, "normaliser oracle agreement", disagreements == 0,
            f"{total} patterns x draws, {disagreements} disagreements")


def test_criterion_05_normaliser_monoid_closure():
    rng = np.random.default_rng(105)
    failures = 0
    structures = [BlockStructure(s) for s in ((1, 1), (1, 2), (2, 2))]
    for blocks in structures:
        if not is_normaliser_bruteforce(np.eye(blocks.total), blocks):
            failures += 1
    for k in range(1000):
        blocks = structures[k % 3]
        b = random_normaliser(rng, blocks)
        c = random_normaliser(rng, blocks)
        if not (is_normaliser_bruteforce(b @ c, blocks)
                and is_normaliser_bruteforce(b.conj().T, blocks)
                and is_normaliser_bruteforce(c.conj().T, blocks)):
            failures += 1
    _report(5, "normaliser monoid closure", failures == 0,
            f"1000 pairs, {failures} failures")


def test_criterion_06_conditional_expectation():
    rng = np.random.default_rng(106)
    ok = True
    details = []
    for sizes, want_kernel in (((1, 1, 1, 1), 12), ((1, 2), 4)):
        blocks = BlockStructure(sizes)
        n = blocks.total
        for _ in range(20):
            m = crandn(rng, n, n)
            p = blocks.block_diagonal_part(m)
            ok = ok and np.array_equal(blocks.block_diagonal_part(p), p)
            ok = ok and np.array_equal(
                blocks.block_diagonal_part(m.conj().T), p.conj().T)
        images = []
        for r in range(n):
            for c in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[r, c] = 1.0
                images.append(blocks.block_diagonal_part(e).reshape(-1))
        kernel_dim = n * n - np.linalg.matrix_rank(np.stack(images))
        ok = ok and kernel_dim == want_kernel
        free_ok = True
        for i in range(1, blocks.p + 1):
            for j in range(1, blocks.p + 1):
                if i == j:
                    continue
                for r in range(blocks.sizes[i - 1]):
                    for c in range(blocks.sizes[j - 1]):
                        e = np.zeros((n, n), dtype=complex)
                        e[blocks.offsets[i - 1] + r,
                          blocks.offsets[j - 1] + c] = 1.0
                        free_ok = free_ok and \
                            normaliser_support(e, blocks).kind == "free"
        ok = ok and free_ok
        details.append(f"{sizes}: ker dim {kernel_dim} (want {want_kernel}), "
                       f"free units {free_ok}")
    _report(6, "conditional expectation", ok, "; ".join(details))


def test_criterion_07_fell_axiom_battery():
    ok = True
    count = 0
    worst = 0.0
    for p in (1, 2, 3, 4):
        for sizes in itertools.product((1, 2, 3), repeat=p):
            report = check_bundle(full_morita_bundle(BlockStructure(sizes)))
            ok = ok and report.all_passed
            worst = max(worst, report.worst_residual)
            count += 1

    # Constructed violations, each detected at its own identifier.
    blocks = BlockStructure((1, 1))
    eye1 = SubspaceBasis(1, 1, [np.eye(1)])
    broken_involution = FellBundleFD(blocks, {
        (1, 1): eye1, (2, 2): eye1,
        (1, 2): SubspaceBasis(1, 1, [np.ones((1, 1))]),
    })
    rep = check_bundle(broken_involution)
    ok = ok and not rep.find("fell.axiom.6").passed

    unsaturated = FellBundleFD(blocks, {(1, 1): eye1, (2, 2): eye1})
    rep = check_bundle(unsaturated)
    ok = ok and not rep.find("fell.saturated").passed
    ok = ok and all(rep.find(f"fell.axiom.{k}").passed for k in range(1, 11))

    corner = np.zeros((2, 2), dtype=complex)
    corner[0, 0] = 1.0
    non_unital = FellBundleFD(BlockStructure((2,)),
                              {(1, 1): SubspaceBasis(2, 2, [corner])})
    rep = check_bundle(non_unital)
    ok = ok and not rep.find("fell.unital").passed
    ok = ok and all(rep.find(f"fell.axiom.{k}").passed for k in range(1, 11))

    _report(7, "fell axiom battery", ok,
            f"{count} full bundles, worst residual {worst:.2e}, "
            f"3 violations detected")


def test_criterion_08_geodesic_equation_agreement():
    rng = np.random.default_rng(108)
    disagreements = 0
    positives = 0
    for k in range(500):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        kind = k % 4
        if kind == 0:
            m = crandn(rng, rows, cols)
        elif kind == 1:
            m = random_partial_isometry(rng, rows, cols)
        elif kind == 2:
            m = 1.1 * random_partial_isometry(rng, rows, cols)
        else:
            rank = int(rng.integers(0, min(rows, cols)))
            m = random_partial_isometry(rng, rows, cols, rank)
        # Independent oracle: a partial isometry has every singular
        # value equal to 0 or 1.
        s = np.linalg.svd(m, compute_uv=False)
        oracle = bool(np.all(np.minimum(s, np.abs(s - 1.0)) <= 1e-9))
        positives += oracle
        if oracle != is_partial_isometry(m):
            disagreements += 1
    _report(8, "geodesic equation agreement", disagreements == 0,
            f"500 matrices against the SVD oracle ({positives} partial "
            f"isometries), {disagreements} disagreements")


def test_criterion_09_flat_classical_limit():
    start = time.perf_counter()
    report = convergence_report(Profile("sine", 1.0), [64, 128, 256])
    elapsed = time.perf_counter() - start
    errors = [p.flat_error for p in report.points]
    orders = [p.order for p in report.points[1:]]
    ok = (errors[0] > errors[1] > errors[2]
          and all(1.8 <= o <= 2.2 for o in orders)
          and elapsed < 1.0)
    _report(9, "flat classical limit", ok,
            f"errors {['%.2e' % e for e in errors]}, orders "
            f"{['%.3f' % o for o in orders]}, {elapsed:.2f}s")


def test_criterion_10_fluctuated_classical_limit():
    profile = Profile("plane_wave", 1.0)
    theta = Profile("sine", 1.0)
    report = convergence_report(profile, [64, 128, 256], theta)
    errors = [p.fluct_error for p in report.points]
    orders = [p.order for p in report.points[1:]]
    covariance = [gauge_covariance_check(LatticeConfig(n), theta, profile)
                  for n in (64, 128, 256)]
    ok = (errors[0] > errors[1] > errors[2]
          and all(o >= 0.9 for o in orders)
          and all(c <= 1e-12 for c in covariance))
    _report(10, "fluctuated classical limit", ok,
            f"errors {['%.2e' % e for e in errors]}, orders "
            f"{['%.3f' % o for o in orders]}, covariance "
            f"{['%.1e' % c for c in covariance]}")


def test_criterion_11_fluctuation_identity():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(200):
        d = crandn(rng, 8, 8)
        u = random_unitary(rng, 8)
        omega = one_form(d, u)
        residual = np.linalg.norm(u @ d @ u.conj().T - d - omega)
        ok = ok and residual <= 1e-12 * np.linalg.norm(d)
    for _ in range(50):
        d = crandn(rng, 8, 8)
        d = d + d.conj().T
        terms = [(float(rng.standard_normal()), random_unitary(rng, 8))
                 for _ in range(3)]
        out = fluctuate(d, terms)
        scale = max(1.0, np.linalg.norm(d) * sum(abs(r) for r, _ in terms))
        ok = ok and np.linalg.norm(out - out.conj().T) <= 1e-12 * scale
    _report(11, "fluctuation identity", ok,
            "200 conjugation identities + 50 self-adjointness checks")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    standard = build_triple_from_mass_matrix(np.array([[1.0]]))
    p_good = tmp_path / "standard.json"
    p_good.write_text(written_text(triple_to_json(standard)))
    bad = FiniteSpectralTriple(standard.blocks, standard.D,
                               np.eye(4, dtype=complex), standard.epsilon,
                               standard.K)
    p_bad = tmp_path / "gamma_identity.json"
    p_bad.write_text(written_text(triple_to_json(bad)))

    runs = []
    for _ in range(2):
        code_good = run(["check", "triple", str(p_good), "--format", "json"])
        out_good = capsys.readouterr().out
        code_bad = run(["check", "triple", str(p_bad), "--format", "json"])
        out_bad = capsys.readouterr().out
        code_limit = run(["limit", "--ns", "64,128", "--profile", "sine:1",
                          "--format", "json"])
        out_limit = capsys.readouterr().out
        runs.append((code_good, out_good, code_bad, out_bad, code_limit,
                     out_limit))

    ok = runs[0] == runs[1]
    code_good, out_good, code_bad, out_bad, code_limit, out_limit = runs[0]
    ok = ok and code_good == 0 and code_bad == 1 and code_limit == 0
    bad_payload = json.loads(out_bad)
    anticommute = next(c for c in bad_payload["checks"]
                       if c["id"] == "triple.even.anticommute_gamma")
    ok = ok and anticommute["status"] == "fail"
    limit_payload = json.loads(out_limit)
    ok = ok and abs(limit_payload["rows"][1]["order"] - 2.0) < 0.2
    _report(12, "cli determinism and exit codes", ok,
            f"exits ({code_good}, {code_bad}, {code_limit}), byte-identical")

"""Self-tests of the benchmark: seeded inputs, oracles, tracing, and the
BENCHMARK.json contract.

    python3 -m pytest -q ncgbench
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, Tracer  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text())
SPANS = [s["name"] for s in DESIGN["spans"]]


def _files(directory):
    return {name: (Path(directory) / name).read_bytes()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert workloads.generate(workload, 5, str(a)) == \
        workloads.generate(workload, 5, str(b))
    assert _files(a) == _files(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_keeps_mix_and_sizes_but_not_matrices(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.generate(workload, 5, str(a))
    ops_b = workloads.generate(workload, 6, str(b))
    assert [(o.op_id, o.argv, o.expect) for o in ops_a] == \
        [(o.op_id, o.argv, o.expect) for o in ops_b]
    files_a, files_b = _files(a), _files(b)
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        if name.startswith("bad_"):
            continue                     # malformed inputs are fixed text
        da, db = json.loads(files_a[name]), json.loads(files_b[name])
        if isinstance(da, dict) and "D" in da:
            assert da["blocks"] == db["blocks"]
            assert da["D"] != db["D"], name
    assert files_a != files_b


def test_planted_and_malformed_inputs_are_kept(tmp_path):
    ops = workloads.generate("verify", 1, str(tmp_path))
    codes = [op.expect["exit"] for op in ops]
    planted = [op for op in ops if op.expect["exit"] == 1]
    assert codes.count(2) == 6 and len(planted) == 6
    assert {tuple(op.expect["failing"]) for op in planted} >= {
        tuple(sorted(ids)) for ids in workloads.PLANTED_TRIPLE.values()}
    defects = workloads.known_defects(str(tmp_path))
    assert len(defects) == 3
    assert all(op.expect["exit"] == 2 for op in defects)


def _first_of_each_kind(ops):
    seen, out = set(), []
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.append(op)
    return out


@pytest.fixture(scope="module")
def cli():
    return importlib.import_module("ncg.cli")


def _run_ops(cli, ops, workdir):
    home = os.getcwd()
    os.chdir(workdir)
    try:
        return {op.op_id: run.run_op(cli, op)[1:] for op in ops}
    finally:
        os.chdir(home)


def _corrupt_json(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def _bump(pair):
    pair[0] += 1e-3


CORRUPTIONS = {
    "categorify": [
        ("output", lambda o: _bump(o["sigma"]["blocks"]["1"][0][0])),
        ("output", lambda o: o["homsets"]["1,2"].pop()),
    ],
    "to-fell": [
        ("output", lambda o: _bump(o["PL"][0][1])),
        ("output", lambda o: o["fibres"]["2,1"].pop()),
    ],
    "check-triple": [
        ("code", 0),
        ("stdout", lambda o: o["checks"].__setitem__(
            0, dict(o["checks"][0], status="fail"))),
    ],
    "check-bundle": [
        ("code", 1),
        ("stdout", lambda o: o["checks"].__setitem__(
            1, dict(o["checks"][1], status="fail"))),
    ],
    "limit": [
        ("stdout", lambda o: o["rows"][1].__setitem__(
            "flat_error", o["rows"][1]["flat_error"] * 1.001)),
        ("stdout", lambda o: o["rows"][1].__setitem__("order", 1.5)),
        ("stdout", lambda o: o["rows"][0].__setitem__(
            "fluct_error", o["rows"][0]["fluct_error"] * 1.001)),
    ],
    "fluctuate": [
        ("output", lambda o: _bump(o["D"][0][1])),
        ("output", lambda o: _bump(o["K"][0][0])),
    ],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_accept_parent_output_and_reject_corruption(workload, cli,
                                                             tmp_path):
    ops = _first_of_each_kind(workloads.generate(workload, 3, str(tmp_path)))
    results = _run_ops(cli, ops, tmp_path)
    for op in ops:
        code, stdout, output = results[op.op_id]
        assert oracles.judge(op, code, stdout, output, str(tmp_path)) is None
        for where, change in CORRUPTIONS[op.kind]:
            bad = {"code": code, "stdout": stdout,
                   "output": output.decode() if output else None}
            if where == "code":
                bad["code"] = change
            else:
                bad[where] = _corrupt_json(bad[where], change)
            verdict = oracles.judge(
                op, bad["code"], bad["stdout"],
                bad["output"].encode() if bad["output"] else None,
                str(tmp_path))
            assert verdict is not None, (op.op_id, where)


def test_exit_two_oracle_rejects_other_codes(cli, tmp_path):
    ops = [op for op in workloads.generate("verify", 3, str(tmp_path))
           if op.expect["exit"] == 2][:1]
    code, stdout, output = _run_ops(cli, ops, tmp_path)[ops[0].op_id]
    assert oracles.judge(ops[0], code, stdout, output, str(tmp_path)) is None
    assert oracles.judge(ops[0], 1, stdout, output, str(tmp_path))
    assert oracles.judge(ops[0], "raised TypeError: x", "", None,
                         str(tmp_path))


def test_text_limit_oracle_rejects_a_wrong_digit(cli, tmp_path):
    ops = [op for op in workloads.generate("dense", 3, str(tmp_path))
           if op.kind == "limit" and op.expect["format"] == "text"][:1]
    code, stdout, output = _run_ops(cli, ops, tmp_path)[ops[0].op_id]
    assert oracles.judge(ops[0], code, stdout, output, str(tmp_path)) is None
    lines = stdout.splitlines()
    row = lines[3]
    lines[3] = row[:8] + f"{float(row[8:21]) * 1.001:13.6e}" + row[21:]
    bad = "\n".join(lines) + "\n"
    assert oracles.judge(ops[0], code, bad, output, str(tmp_path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_outputs_and_fires_loaded_spans(workload, cli,
                                                      tmp_path):
    ops = _first_of_each_kind(workloads.generate(workload, 4, str(tmp_path)))
    plain = _run_ops(cli, ops, tmp_path)
    tracer = Tracer(SPANS)
    tracer.install()
    try:
        traced = _run_ops(cli, ops, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    totals = tracer.totals()
    for span in DESIGN["spans"]:
        if workload in span["loads"]:
            assert totals[span["name"]][0] > 0, span["name"]
    # Uninstalling restores every binding.
    assert not hasattr(cli.run, "__wrapped__")
    assert not hasattr(sys.modules["ncg.geometry"].category_from_bundle,
                       "__wrapped__")


def test_benchmark_json_matches_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    loop = {"latencies": [0.01 * (k + 1) for k in range(100)],
            "failures": [], "wall": 1.0, "passes": 1}
    e2e = run.end_to_end([1.0], loop)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(name, m["unit"]) for name, m in e2e.items()]
    layers = run.per_layer(Tracer(SPANS), DESIGN, loop, loop, [], [])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, m["unit"]) for name, m in layers.items()]
    counted = {key for span in DESIGN["spans"] for key in span["counts"]}
    assert counted <= set(DESIGN["counts"])
    assert set(COUNTERS) <= set(SPANS)


def test_quantile_matches_plain_quantiles_on_a_ramp():
    ramp = list(range(1, 101))
    assert run.quantile(ramp, 0.5) == pytest.approx(50.5)
    assert run.quantile(ramp, 0.9) == pytest.approx(90.5, abs=0.05)
    assert run.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "ncgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "ncgbench/run.py", "--workload", "convert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

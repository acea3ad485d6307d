#!/usr/bin/env python3
"""Benchmark of the ncg command line, end to end and layer by layer.

    python3 ncgbench/run.py --workload convert --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the benchmark imports ``ncg`` from
``src/`` and writes only under ``.bench_work/`` (inputs, removed at exit)
and ``.bench_out/`` (span files of traced runs).

One closed-loop client calls ``ncg.cli.run(argv)`` in this process, one op
after another, over the workload's fixed op list in whole passes until
``--seconds`` have passed and at least ``MIN_SAMPLES`` ops ran.  Every op's
output is judged by an oracle outside the timed region, and every repeat
must be byte-identical to the first.  The last stdout line is the result
object; the lines before it name each metric with its unit and sample
count, and stamp the run with its environment (the ``env`` line: versions,
the BLAS thread count read back from BLAS, ``nproc``, the seed, and the
time of a fixed reference kernel before and after the loop, which tells
runs on a slowed host apart).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced and a traced loop and reports per-layer span
times and counts per pass (see design.json).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 100
SETUP_ROUNDS = 5
SETUP_TIMEOUT_S = 120


def has_sources() -> bool:
    """Whether the checkout holds the ncg sources; says so on stderr if
    not."""
    if (ROOT / "src" / "ncg" / "__init__.py").is_file():
        return True
    print(f"ncg sources not found under {ROOT / 'src'}", file=sys.stderr)
    return False


def pin_blas_threads() -> int:
    """Run BLAS on one thread (at most ``nproc``, the CPUs this process may
    use, which is returned); must run before numpy is imported.

    The loop has one client, and on a shared two-CPU machine a second BLAS
    thread competes with other tenants: pass times then drift by 20%
    between runs, against a few percent on one thread.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def blas_threads():
    """Thread count the OpenBLAS bundled with the numpy wheel reports it
    uses, or None when numpy runs on another BLAS."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return int(lib.scipy_openblas_get_num_threads64_())
    return None


def stamp(nproc) -> dict:
    """Versions and thread counts every result is stamped with."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "nproc": nproc, "machine": platform.machine()}


def reference_kernel_s(reps=5):
    """Median seconds of a fixed kernel (small matrix products and a
    Python loop).  Its time depends only on how fast the host runs this
    process, so stamping it before and after the loop shows which runs
    met a slowed host."""
    import numpy as np
    times = []
    for _ in range(reps):
        a = np.random.default_rng(0).standard_normal((200, 200))
        start = time.perf_counter()
        for _ in range(60):
            a = np.tanh(a @ a / 200.0)
        sum(k * k for k in range(600_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op):
    """Run one op in the current directory; returns ``(seconds, exit code,
    stdout and stderr, output bytes)``.  An op that raises is timed and
    reported with a string exit code."""
    if op.output and os.path.exists(op.output):
        os.remove(op.output)
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.run(list(op.argv))
    except Exception as exc:  # the op failed; the loop records and goes on
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    output = None
    if op.output and os.path.exists(op.output):
        with open(op.output, "rb") as fh:
            output = fh.read()
    return elapsed, code, buf.getvalue(), output


def digest(code, stdout, output) -> str:
    h = hashlib.sha256(repr((code, stdout)).encode())
    h.update(output or b"")
    return h.hexdigest()


def reference_pass(cli, ops, workdir, judge):
    """Run every op once, untimed: record its output digest and the
    oracle's verdict."""
    ref = {}
    for op in ops:
        _, code, stdout, output = run_op(cli, op)
        ref[op.op_id] = (digest(code, stdout, output),
                         judge(op, code, stdout, output, workdir))
    return ref


def closed_loop(cli, ops, ref, seconds, min_samples, on_op=None):
    """Whole passes over ``ops`` until ``seconds`` have passed and
    ``min_samples`` ops ran (capped at three times ``seconds``).  An op
    fails when its oracle rejected the reference output or its output
    differs from the reference."""
    latencies, failures = [], []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if on_op is not None:
                on_op(op)
            elapsed, code, stdout, output = run_op(cli, op)
            latencies.append(elapsed)
            want, verdict = ref[op.op_id]
            if verdict is not None:
                failures.append(f"{op.op_id}: {verdict}")
            elif digest(code, stdout, output) != want:
                failures.append(f"{op.op_id}: output differs from its "
                                f"first run")
        passes += 1
        wall = time.perf_counter() - start
        if (wall >= seconds and len(latencies) >= min_samples) \
                or wall >= 3 * seconds:
            return {"latencies": latencies, "failures": failures,
                    "wall": wall, "passes": passes}


def set_up(workloads, args):
    """Import ncg and generate the inputs into a fresh directory; returns
    ``(cli, workdir, ops)`` with ``workdir`` the current directory."""
    cli = importlib.import_module("ncg.cli")
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    ops = workloads.generate(args.workload, args.seed, workdir)
    os.chdir(workdir)
    return cli, workdir, ops


def timed_set_up(workload, seed) -> float:
    """Seconds to import numpy and ncg, generate the inputs and run the
    first op of each kind once; meant for a fresh process, so the first
    calls pay their cold cost."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    cli = importlib.import_module("ncg.cli")
    home = os.getcwd()
    workdir = tempfile.mkdtemp(prefix=f"setup-{workload}-", dir=WORK)
    try:
        ops = workloads.generate(workload, seed, workdir)
        os.chdir(workdir)
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                run_op(cli, op)
        return time.perf_counter() - start
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def cold_set_up(workload, seed) -> float:
    """:func:`timed_set_up` in a fresh Python process; waits for it."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.timed_set_up(sys.argv[2], int(sys.argv[3])))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(values, p, grid=100_000):
    """Harrell-Davis estimate of the ``p`` quantile: a mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass on each rank.

    Op latencies form clusters, one per op size; the plain sample
    quantile jumps between neighbouring clusters, this one moves
    smoothly.
    """
    import numpy as np
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n,
                                np.arange(grid + 1) / grid, cdf))
    return float(weights @ xs)


def end_to_end(setups, loop) -> dict:
    lat_ms = sorted(x * 1000.0 for x in loop["latencies"])
    attempted = len(lat_ms)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(attempted / loop["wall"], "1/s"),
        "latency_p50_ms": metric(quantile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": metric(quantile(lat_ms, 0.9), "ms"),
        "ok_ratio": metric((attempted - len(loop["failures"])) / attempted,
                           "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def describe(name, m, loop, setups):
    n = len(loop["latencies"])
    note = {"setup_s": f"median of {len(setups)} set-ups, "
                       f"each in a fresh process",
            "ops_per_s": f"{n} ops in {loop['wall']:.2f} s, "
                         f"{loop['passes']} passes",
            "latency_p50_ms": f"{n} samples",
            "latency_p90_ms": f"{n} samples, {n - int(0.9 * n)} beyond",
            "ok_ratio": f"{n - len(loop['failures'])} of {n} ops passed",
            "peak_rss_mb": "process peak resident set"}[name]
    return f"metric {name} {m['value']:.6g} {m['unit']} ({note})"


def io_bytes(ops) -> dict:
    """Bytes one pass reads and writes; run after a pass, in its
    directory."""
    return {"cli.json_bytes_read": sum(os.path.getsize(p) for op in ops
                                       for p in op.inputs),
            "cli.json_bytes_written": sum(os.path.getsize(op.output)
                                          for op in ops if op.output)}


def per_layer(tracer, design, traced, untraced, ops, defects) -> dict:
    """Span times and counts per pass of the traced loop."""
    passes = traced["passes"]
    out = {}
    for name, (calls, total, own) in tracer.totals().items():
        out[f"{name}.calls"] = metric(calls / passes, "count")
        out[f"{name}.total_s"] = metric(total / passes, "s")
        out[f"{name}.self_s"] = metric(own / passes, "s")
    counts = {k: v / passes for k, v in tracer.counts.items()}
    counts.update(io_bytes(ops))
    products = counts.pop("fellbundle.check_fell_axioms.full_target_products",
                          0)
    for name in design["counts"]:
        if name == "fellbundle.check_fell_axioms.full_target_share":
            total = counts.get("fellbundle.check_fell_axioms.basis_products")
            out[name] = metric(products / total if total else 0.0, "ratio")
        elif name == "trace.overhead_ratio":
            rate = len(traced["latencies"]) / traced["wall"]
            base = len(untraced["latencies"]) / untraced["wall"]
            out[name] = metric(rate / base, "ratio")
        elif name == "verify.known_defects_failing":
            out[name] = metric(len(defects), "count")
        else:
            unit = "bytes" if "bytes" in name else "count"
            out[name] = metric(counts.get(name, 0), unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not has_sources():
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oracles
    import workloads
    from tracing import Tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    with open(HERE / "design.json", encoding="utf-8") as fh:
        design = json.load(fh)

    WORK.mkdir(exist_ok=True)
    setups = [] if args.trace else [cold_set_up(args.workload, args.seed)
                                    for _ in range(SETUP_ROUNDS)]
    home = os.getcwd()
    workdir = None
    try:
        cli, workdir, ops = set_up(workloads, args)
        ref = reference_pass(cli, ops, workdir, oracles.judge)

        defects = []
        if args.workload == "verify":
            for op in workloads.known_defects(workdir):
                _, code, stdout, output = run_op(cli, op)
                verdict = oracles.judge(op, code, stdout, output, workdir)
                if verdict is not None:
                    defects.append(f"{op.op_id}: {verdict}")

        kernel_before = reference_kernel_s()
        if args.trace:
            untraced = closed_loop(cli, ops, ref, args.seconds / 2, 0)
            tracer = Tracer([s["name"] for s in design["spans"]])
            tracer.install()
            try:
                traced = closed_loop(cli, ops, ref, args.seconds / 2, 0,
                                     lambda op: setattr(tracer, "op_id",
                                                        op.op_id))
            finally:
                tracer.uninstall()
            loops = (untraced, traced)
            metrics = per_layer(tracer, design, traced, untraced, ops,
                                defects)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        else:
            loop = closed_loop(cli, ops, ref, args.seconds, MIN_SAMPLES)
            loops = (loop,)
            metrics = end_to_end(setups, loop)
        kernel_after = reference_kernel_s()
    finally:
        os.chdir(home)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(x["latencies"]) for x in loops)
    failures = [f for x in loops for f in x["failures"]]
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "kernel_before_s": kernel_before, "kernel_after_s": kernel_after}
    print("env " + json.dumps({**env, **stamp(nproc)}, sort_keys=True))
    if not args.trace:
        for name, m in metrics.items():
            print(describe(name, m, loops[0], setups))
    for line in sorted(set(failures)):
        print(f"failed {line}")
    for line in defects:
        print(f"known defect (not counted) {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Ungated scaling probe: ``ncg categorify`` once each on four-sector
triples at n = 32, 48, 64, each in a fresh process under a time limit.

    python3 ncgbench/probe.py > ncgbench/probe_baseline.json

Inputs come from seed 1 and each case may take ``LIMIT_S`` seconds.  A case
that runs over the limit is killed and recorded as ``exceeded``
with the limit as a lower bound, so slow sizes stay on file instead of
being dropped.  The probe is not a workload and feeds no gate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = (32, 48, 64)
SEED = 1
LIMIT_S = 150.0
CHILD = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from ncg.cli import main; main()")


def probe_case(n, seed, limit, workdir):
    import numpy as np
    import workloads

    rng = np.random.default_rng([seed, n])
    l = n // 4
    D, g, e, K = workloads.four_sector(
        rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l)))
    tri = os.path.join(workdir, f"probe_n{n}.json")
    with open(tri, "w", encoding="utf-8") as fh:
        json.dump(workloads.triple_json((l,) * 4, D, g, e, K), fh)
    argv = [sys.executable, "-c", CHILD, str(ROOT / "src"), "categorify",
            tri, "-o", os.path.join(workdir, f"probe_n{n}.cat.json")]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return {"n": n, "status": "exceeded", "seconds": None,
                "limit_s": limit}
    seconds = time.perf_counter() - start
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    return {"n": n, "status": status, "seconds": seconds, "limit_s": limit}


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    if not run.has_sources():
        return 2
    nproc = run.pin_blas_threads()

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=run.WORK)
    try:
        cases = [probe_case(n, SEED, LIMIT_S, workdir) for n in SIZES]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"command": "categorify", "seed": SEED, "cases": cases,
                      **run.stamp(nproc)}, indent=2))
    return 0

if __name__ == "__main__":
    sys.exit(main())

"""Per-op output oracles for the ncg benchmark.

Each oracle takes the op, its exit code, captured stdout, the bytes of its
output file (or ``None``) and the work directory holding its inputs, and
returns ``None`` when the output is right or a one-line reason when it is
not.  They run outside the timed region and share no code with ``ncg``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import offsets

# Relative agreement required between a reported lattice error and the
# benchmark's own value.  JSON carries full doubles; the text report
# prints six significant digits.
LIMIT_RTOL = {"json": 1e-6, "text": 1e-5}
ORDER_TOL = 0.1


def _dec(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _load(workdir, name):
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _wrote(stdout, what, op):
    want = f"wrote {what} to {op.output}\n"
    return None if stdout == want else f"stdout {stdout!r}, expected {want!r}"


def _full_fibres(fibres, sizes, label):
    p = len(sizes)
    keys = {f"{i},{j}" for i in range(1, p + 1) for j in range(1, p + 1)}
    if set(fibres) != keys:
        return f"{label} keys {sorted(fibres)} are not all arrows"
    for key, mats in fibres.items():
        i, j = (int(x) for x in key.split(","))
        want = sizes[i - 1] * sizes[j - 1]
        if len(mats) != want:
            return f"{label} {key} has dim {len(mats)}, expected {want}"
        if np.shape(mats)[1:3] != (sizes[i - 1], sizes[j - 1]):
            return f"{label} {key} has element shape {np.shape(mats)[1:3]}"
    return None


def check_categorify(op, code, stdout, output, workdir):
    if code != 0:
        return f"exit {code}, expected 0"
    bad = _wrote(stdout, "spectral category", op)
    if bad:
        return bad
    cat = json.loads(output)
    sizes = op.expect["blocks"]
    if cat["blocks"] != sizes:
        return f"blocks {cat['blocks']}, expected {sizes}"
    bad = _full_fibres(cat["homsets"], sizes, "homset")
    if bad:
        return bad
    D = _dec(_load(workdir, op.expect["D"])["D"])
    sigma = cat["sigma"]
    off = offsets(sizes)
    assembled = np.zeros_like(D)
    for key, blk in sigma["blocks"].items():
        j = int(key)
        i = sigma["perm"][j - 1]
        assembled[off[i - 1]:off[i], off[j - 1]:off[j]] = _dec(blk)
    if not np.array_equal(assembled, D):
        return "sigma blocks do not reassemble to D"
    return None


def check_to_fell(op, code, stdout, output, workdir):
    if code != 0:
        return f"exit {code}, expected 0"
    bad = _wrote(stdout, "bundle triple", op)
    if bad:
        return bad
    ft = json.loads(output)
    sizes = op.expect["blocks"]
    if ft["blocks"] != sizes or ft["hilbert_dim"] != sum(sizes):
        return f"blocks {ft['blocks']} / hilbert_dim {ft['hilbert_dim']}"
    bad = _full_fibres(ft["fibres"], sizes, "fibre")
    if bad:
        return bad
    D = _dec(_load(workdir, op.expect["D"])["D"])
    if not np.array_equal(_dec(ft["PL"]), D):
        return "PL differs from D"
    return None


def check_report(op, code, stdout, output, workdir):
    want = op.expect["exit"]
    if code != want:
        return f"exit {code}, expected {want}"
    if want == 2:
        return None if stdout.startswith("input error: ") else \
            f"exit-2 stdout {stdout[:60]!r} lacks 'input error'"
    payload = json.loads(stdout)
    if payload["passed"] != (want == 0):
        return f"passed={payload['passed']} with exit {code}"
    failing = sorted(c["id"] for c in payload["checks"]
                     if c["status"] == "fail")
    if failing != op.expect["failing"]:
        return f"failing ids {failing}, expected {op.expect['failing']}"
    return None


def _profile(spec, x):
    """Samples and derivative of a named profile at sites ``x``."""
    kind, _, k = spec.partition(":")
    w = 2 * math.pi * float(k or 1)
    if kind == "sine":
        return np.sin(w * x).astype(complex), w * np.cos(w * x) + 0j
    return np.exp(1j * w * x), 1j * w * np.exp(1j * w * x)


def lattice_errors(n, profile, theta):
    """``(flat_error, fluct_error, closed)``: the errors on ``n`` sites by
    an O(n) stencil, and the closed form ``w - n sin(w / n)`` of the flat
    error."""
    x = np.arange(n) / n
    f, df = _profile(profile, x)

    def dirac(g):
        return -0.5j * n * (np.roll(g, -1) - np.roll(g, 1))

    target = -1j * df
    flat = float(np.max(np.abs(dirac(f) - target)))
    fluct = None
    if theta:
        th, dth = _profile(theta, x)
        u = np.exp(1j * th.real)
        fluct = float(np.max(np.abs(u * dirac(np.conj(u) * f)
                                    - (target - dth.real * f))))
    w = 2 * math.pi * float(profile.partition(":")[2] or 1)
    return flat, fluct, w - n * math.sin(w / n)


def _limit_rows(stdout, fmt):
    if fmt == "json":
        return json.loads(stdout)["rows"]
    rows = []
    for line in stdout.splitlines()[2:]:
        n, flat = line[:6], line[8:21]
        fluct, order = line[23:36].strip(), line[38:46].strip()
        rows.append({"n": int(n), "flat_error": float(flat),
                     "fluct_error": float(fluct) if fluct else None,
                     "order": float(order) if order else None})
    return rows


def _close(got, want, rtol):
    return got is not None and abs(got - want) <= rtol * abs(want) + 1e-300


def check_limit(op, code, stdout, output, workdir):
    if code != 0:
        return f"exit {code}, expected 0"
    e = op.expect
    rtol = LIMIT_RTOL[e["format"]]
    rows = _limit_rows(stdout, e["format"])
    if [r["n"] for r in rows] != e["ns"]:
        return f"rows for n={[r['n'] for r in rows]}, expected {e['ns']}"
    for idx, row in enumerate(rows):
        n = row["n"]
        flat, fluct, closed = lattice_errors(n, e["profile"], e["theta"])
        if not (_close(row["flat_error"], closed, rtol)
                and _close(row["flat_error"], flat, rtol)):
            return (f"n={n}: flat_error {row['flat_error']!r}, closed form "
                    f"{closed!r}")
        if e["theta"] and not _close(row["fluct_error"], fluct, rtol):
            return f"n={n}: fluct_error {row['fluct_error']!r}, expected {fluct!r}"
        if not e["theta"] and row["fluct_error"] is not None:
            return f"n={n}: fluct_error reported without a phase"
        if idx == 0:
            if row["order"] is not None:
                return "order reported for the first size"
        elif row["order"] is None or abs(row["order"] - 2.0) > ORDER_TOL:
            return f"n={n}: order {row['order']!r} is not close to 2"
    return None


def check_fluctuate(op, code, stdout, output, workdir):
    if code != 0:
        return f"exit {code}, expected 0"
    bad = _wrote(stdout, "fluctuated triple", op)
    if bad:
        return bad
    src = _load(workdir, op.expect["triple"])
    out = json.loads(output)
    for key in ("blocks", "gamma", "epsilon", "K"):
        if out[key] != src[key]:
            return f"{key} changed by fluctuate"
    D = _dec(src["D"])
    want = np.zeros_like(D)
    scale = 0.0
    for term in _load(workdir, op.expect["terms"]):
        U = _dec(term["U"])
        want += term["r"] * (U @ D @ U.conj().T)
        scale += abs(term["r"])
    err = float(np.linalg.norm(_dec(out["D"]) - want))
    bound = 1e-12 * max(1.0, scale * float(np.linalg.norm(D)))
    if not err <= bound:
        return f"D differs from sum r U D U* by {err:.3e} (bound {bound:.1e})"
    return None


ORACLES = {
    "categorify": check_categorify,
    "to-fell": check_to_fell,
    "check-triple": check_report,
    "check-bundle": check_report,
    "limit": check_limit,
    "fluctuate": check_fluctuate,
}


def judge(op, code, stdout, output, workdir):
    """Run the op's oracle; a malformed output counts as a failure."""
    try:
        return ORACLES[op.kind](op, code, stdout, output, workdir)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"

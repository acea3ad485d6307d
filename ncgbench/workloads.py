"""Seeded input generator for the ncg benchmark.

``generate(workload, seed, workdir)`` writes every input file a workload
needs into ``workdir`` and returns its op list.  The program under test
only ever sees these files.  The same seed gives byte-identical files; a
different seed gives the same op mix and sizes with different matrices.

Everything here is plain numpy, independent of the ``ncg`` package, so
the files (and the expectations the oracles check against) do not come
from the code being measured.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

WORKLOADS = ("convert", "verify", "dense")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``argv`` names files relative to the work directory.  ``expect``
    carries what the oracle needs to judge the op's output.
    """

    op_id: str
    kind: str
    argv: tuple
    inputs: tuple
    output: Optional[str] = None
    expect: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# matrices


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    q, r = np.linalg.qr(_crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _enc(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def offsets(sizes):
    """Start of each block, plus the total size."""
    return np.concatenate([[0], np.cumsum(sizes)]).astype(int)


def _put(m, sizes, i, j, blk):
    off = offsets(sizes)
    m[off[i - 1]:off[i], off[j - 1]:off[j]] = blk


def _block4(rows):
    return np.block([[np.asarray(b, dtype=complex) for b in row]
                     for row in rows])


def four_sector(m):
    """The closed four-sector triple generated by coupling matrix ``m``:
    ``(D, gamma, epsilon, K)`` as in the ncg README."""
    l = m.shape[0]
    z, e = np.zeros((l, l)), np.eye(l)
    D = _block4([[z, m.conj().T, z, z], [m, z, z, z],
                 [z, z, z, m.T], [z, z, np.conj(m), z]])
    gamma = _block4([[e, z, z, z], [z, -e, z, z], [z, z, e, z], [z, z, z, -e]])
    eps = _block4([[e, z, z, z], [z, e, z, z], [z, z, -e, z], [z, z, z, -e]])
    K = _block4([[z, z, e, z], [z, z, z, e], [e, z, z, z], [z, e, z, z]])
    return D, gamma, eps, K


def paired_section(rng, p, k):
    """A self-adjoint domain section on ``p`` blocks of size ``k`` over a
    fixed-point-free involution pairing odd with even blocks, and the
    alternating grading it anticommutes with."""
    sizes = (k,) * p
    n = p * k
    odd = list(range(1, p + 1, 2))
    even = [int(x) for x in rng.permutation(range(2, p + 1, 2))]
    D = np.zeros((n, n), dtype=complex)
    for o, e in zip(odd, even):
        b = _crandn(rng, k, k)
        _put(D, sizes, e, o, b)
        _put(D, sizes, o, e, b.conj().T)
    signs = np.repeat([1.0 if i % 2 == 0 else -1.0 for i in range(p)], k)
    return sizes, D, np.diag(signs).astype(complex)


def triple_json(sizes, D, gamma=None, eps=None, K=None) -> dict:
    def opt(x):
        return None if x is None else _enc(x)

    return {"blocks": list(sizes), "D": _enc(D), "gamma": opt(gamma),
            "epsilon": opt(eps), "K": opt(K)}


def section_blocks(sizes, D):
    """``(perm, {j: block})`` of a domain section, read off its nonzero
    blocks."""
    off = offsets(sizes)
    perm, blocks = [], {}
    for j in range(1, len(sizes) + 1):
        cols = slice(off[j - 1], off[j])
        rows = [i for i in range(1, len(sizes) + 1)
                if np.any(D[off[i - 1]:off[i], cols] != 0)]
        perm.append(rows[0])
        blocks[j] = D[off[rows[0] - 1]:off[rows[0]], cols]
    return perm, blocks


def _units(rows, cols):
    out = []
    for r in range(rows):
        for c in range(cols):
            u = np.zeros((rows, cols), dtype=complex)
            u[r, c] = 1.0
            out.append(u)
    return out


def category_json(sizes, D) -> dict:
    """The spectral category ``categorify`` would write for ``D``: full
    homsets spanned by matrix units, and ``D`` as the section."""
    p = len(sizes)
    perm, blocks = section_blocks(sizes, D)
    homsets = {f"{i},{j}": [_enc(u) for u in _units(sizes[i - 1],
                                                      sizes[j - 1])]
               for i in range(1, p + 1) for j in range(1, p + 1)}
    return {"blocks": list(sizes), "homsets": homsets,
            "sigma": {"perm": perm,
                      "blocks": {str(j): _enc(b)
                                 for j, b in sorted(blocks.items())}}}


def conjugated_bundle(rng, sizes, split=None) -> dict:
    """Bundle with fibre ``(i, j) = u_i C u_j*`` for random unitaries
    ``u_i``.  ``C`` is the full matrix space, or with ``split = k`` the
    *-subalgebra ``M_k + M_k`` of ``M_2k`` (all sizes must equal ``2k``).
    """
    p = len(sizes)
    us = [_unitary(rng, s) for s in sizes]
    fibres = {}
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            ni, nj = sizes[i - 1], sizes[j - 1]
            units = [u for u in _units(ni, nj)
                     if split is None or _in_split(u, split)]
            fibres[(i, j)] = [us[i - 1] @ u @ us[j - 1].conj().T
                              for u in units]
    return {"blocks": list(sizes), "fibres": fibres, "us": us}


def _in_split(unit, k):
    r, c = np.argwhere(unit)[0]
    return (r < k) == (c < k)


def bundle_json(b) -> dict:
    return {"blocks": b["blocks"],
            "fibres": {f"{i},{j}": [_enc(m) for m in mats]
                       for (i, j), mats in sorted(b["fibres"].items())
                       if mats}}


# --------------------------------------------------------------------------
# workloads


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir

    def json(self, name, obj) -> str:
        self.raw(name, json.dumps(obj))
        return name

    def raw(self, name, text) -> str:
        with open(os.path.join(self.workdir, name), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        return name


def _interleave(groups):
    """Round-robin over op groups so every stretch of the loop sees the
    whole mix rather than one size at a time."""
    out, queues = [], [list(g) for g in groups]
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


# Four-sector sizes l (n = 4l) and how many distinct inputs each gets;
# each input is one categorify and one to-fell op.  Op latencies cluster
# by size, and a quantile that falls between two clusters is set by their
# noisiest samples, so the counts put the median among the l = 4 ops and
# the 90th percentile among the l = 5 ops.
CONVERT_FOUR_SECTOR = {2: 2, 3: 1, 4: 6, 5: 1, 6: 1}
CONVERT_PAIRED = 1          # (2,)*8 inputs


def _convert(rng, w: _Writer):
    groups = []
    for l, count in CONVERT_FOUR_SECTOR.items():
        for c in range(count):
            D, g, e, K = four_sector(_crandn(rng, l, l))
            groups.append(_convert_pair(w, f"l{l}_{c}", (l,) * 4, D, g, e, K))
    for c in range(CONVERT_PAIRED):
        sizes, D, g = paired_section(rng, 8, 2)
        groups.append(_convert_pair(w, f"p8_{c}", sizes, D, g, None, None))
    return _interleave(groups)


def _convert_pair(w, tag, sizes, D, g, e, K):
    tri = w.json(f"cv_{tag}.triple.json", triple_json(sizes, D, g, e, K))
    cat = w.json(f"cv_{tag}.cat.json", category_json(sizes, D))
    expect = {"blocks": list(sizes), "D": tri}
    return [
        Op(f"categorify/{tag}", "categorify",
           ("categorify", tri, "-o", f"out_{tag}.cat.json"), (tri,),
           f"out_{tag}.cat.json", expect),
        Op(f"to-fell/{tag}", "to-fell",
           ("to-fell", cat, "-o", f"out_{tag}.fell.json"), (cat,),
           f"out_{tag}.fell.json", expect),
    ]


# Gating ids that each planted triple violation must fail.  Per sector,
# gamma = (+, -, +, -), epsilon = (+, +, -, -), and K swaps sectors 1<->3
# and 2<->4.  A stray D block at (1,3) commutes with gamma and epsilon and
# breaks D K = K conj(D); flipping the sign of K's upper half makes
# J^2 = -1 and breaks nothing else; the (1,4)/(2,3) coupling anticommutes
# with gamma and commutes with J but not with epsilon.
PLANTED_TRIPLE = {
    "stray_block": ["triple.even.anticommute_gamma", "triple.real.commute_D",
                    "triple.so_real.commute_D"],
    "j_square": ["triple.real.square"],
    "eps_coupling": ["triple.so_real.commute_D"],
}
# Four-sector sizes l (n = 4l): how many inputs, and which of them carry
# a planted violation (about a quarter overall).
VERIFY_TRIPLES = {4: 8, 6: 6, 8: 2, 10: 1}
VERIFY_PLANTED = {4: ("stray_block", "eps_coupling"), 6: ("j_square",),
                  8: ("stray_block",)}
# Small admissible triples without K; every other one also lacks gamma.
VERIFY_MIXED = ((1, 2, 2, 1), (2, 3, 1, 2, 2), (3, 1, 2, 2, 3, 1)) * 2


def _plant(rng, kind, l, D, K):
    sizes = (l,) * 4
    if kind == "stray_block":
        x = _crandn(rng, l, l)
        _put(D, sizes, 1, 3, x)
        _put(D, sizes, 3, 1, x.conj().T)
    elif kind == "eps_coupling":
        # Commutes with gamma and J but not with epsilon.
        x = _crandn(rng, l, l)
        _put(D, sizes, 1, 4, x)
        _put(D, sizes, 4, 1, x.conj().T)
        _put(D, sizes, 3, 2, np.conj(x))
        _put(D, sizes, 2, 3, x.T)
    elif kind == "j_square":
        # J = K o conj with J^2 = -1: flip the sign of K's upper half.
        K[: 2 * l] *= -1
    return D, K


def _verify(rng, w: _Writer):
    triples = []
    for l, count in VERIFY_TRIPLES.items():
        planted = VERIFY_PLANTED.get(l, ())
        for c in range(count):
            D, g, e, K = four_sector(_crandn(rng, l, l))
            kind = planted[c] if c < len(planted) else None
            if kind:
                D, K = _plant(rng, kind, l, D, K)
            triples.append(_check(
                w, f"tri_l{l}_{c}" + (f"_{kind}" if kind else ""), "triple",
                triple_json((l,) * 4, D, g, e, K), 1 if kind else 0,
                PLANTED_TRIPLE[kind] if kind else []))
    for idx, sizes in enumerate(VERIFY_MIXED):
        n = sum(sizes)
        signs = np.concatenate([np.full(s, 1.0 if i % 2 == 0 else -1.0)
                                for i, s in enumerate(sizes)])
        h = _crandn(rng, n, n)
        D = (h + h.conj().T) / 2 * (signs[:, None] != signs[None, :])
        gamma = np.diag(signs).astype(complex) if idx % 2 else None
        triples.append(_check(w, f"mixed_{idx}", "triple",
                              triple_json(sizes, D, gamma), 0, []))

    bundles = []
    for sizes in ((2, 3, 5), (2,) * 8, (6, 6, 6, 6)):
        b = conjugated_bundle(rng, sizes)
        bundles.append(_check(w, f"full_{'-'.join(map(str, sizes))}",
                              "bundle", bundle_json(b), 0, []))
    for sizes, split in (((4,) * 8, 2), ((8, 8, 8, 8), 4)):
        b = conjugated_bundle(rng, sizes, split)
        bundles.append(_check(w, f"sub_{'-'.join(map(str, sizes))}",
                              "bundle", bundle_json(b), 0, []))
    # An extra element from the off-diagonal corner of M_2k in fibre
    # (1,2) leaves the product closure and the adjoint fibre, and the
    # products (1,3) x (3,2) no longer span the enlarged fibre.
    b = conjugated_bundle(rng, (4, 4, 4, 4), 2)
    corner = np.zeros((4, 4), dtype=complex)
    corner[0, 3] = 1.0
    b["fibres"][(1, 2)].append(b["us"][0] @ corner @ b["us"][1].conj().T)
    bundles.append(_check(w, "sub_4-4-4-4_extra", "bundle", bundle_json(b),
                          1, ["fell.axiom.2", "fell.axiom.6",
                              "fell.saturated"]))
    # Dropping both off-diagonal fibres of a two-object bundle keeps
    # closure and involution but breaks saturation.
    b = conjugated_bundle(rng, (5, 5))
    b["fibres"][(1, 2)] = []
    b["fibres"][(2, 1)] = []
    bundles.append(_check(w, "full_5-5_dropped", "bundle", bundle_json(b), 1,
                          ["fell.saturated"]))

    malformed = []
    text = json.dumps(triple_json((1, 1), np.array([[0, 1], [1, 0]])))
    one = [[[1.0, 0.0]]]
    for tag, kind, body in (
            ("truncated", "triple", text[: len(text) // 2]),
            ("ragged", "triple", json.dumps(
                {"blocks": [1, 1], "D": [[[1.0, 0.0]],
                                         [[0.0, 0.0], [0.0, 0.0]]]})),
            ("nan", "triple", text.replace("1.0", "NaN", 1)),
            ("bad_key", "bundle", json.dumps(
                {"blocks": [1, 1], "fibres": {"1-2": [one]}})),
            ("key_range", "bundle", json.dumps(
                {"blocks": [1, 1], "fibres": {"1,3": [one]}})),
            ("dependent", "bundle", json.dumps(
                {"blocks": [1], "fibres": {"1,1": [one, [[[2.0, 0.0]]]]}}))):
        name = w.raw(f"bad_{tag}.json", body)
        malformed.append(_check_op(f"check-{kind}/bad_{tag}", kind, name, 2,
                                   None))
    return _interleave([triples, bundles, malformed])


def known_defects(workdir: str) -> list:
    """The three malformed triple files that ROADMAP item 5 names.  Each
    should exit 2; the parent code raises on the first two and accepts
    the third."""
    w = _Writer(workdir)
    cases = (("blocks_int", {"blocks": 3, "D": [[[0.0, 0.0]]]}),
             ("blocks_str", {"blocks": ["a"], "D": [[[0.0, 0.0]]]}),
             ("bool_entry", {"blocks": [1], "D": [[[True, 0]]]}))
    return [_check_op(f"check-triple/defect_{tag}", "triple",
                      w.json(f"defect_{tag}.json", body), 2, None)
            for tag, body in cases]


def _check(w, tag, kind, obj, code, failing):
    return _check_op(f"check-{kind}/{tag}", kind,
                     w.json(f"vf_{tag}.json", obj), code, sorted(failing))


def _check_op(op_id, kind, name, code, failing):
    return Op(op_id, f"check-{kind}",
              ("check", kind, name, "--format", "json"), (name,), None,
              {"exit": code, "failing": failing})


# (ns, profile, theta, format) for each limit op; the first carries a
# phase so that a one-op-per-kind warm-up reaches every climit path.  Seven
# small sweeps, six whose largest size is 1024 (the median falls among
# them), then single large ones; the 90th percentile falls among the two
# n = 128 fluctuate ops.
DENSE_LIMIT = (
    ((64, 128, 256), "sine:1", "sine:1", "json"),
    ((64, 128, 256, 512), "plane_wave:2", None, "text"),
    ((64, 128), "plane_wave:1", "sine:3", "json"),
    ((64, 128, 256), "plane_wave:3", "sine:2", "text"),
    ((128, 256), "sine:3", None, "json"),
    ((64, 256, 512), "sine:2", None, "text"),
    ((64, 128, 256, 512), "plane_wave:1", None, "json"),
    ((256, 512, 1024), "plane_wave:1", None, "json"),
    ((512, 1024), "plane_wave:2", None, "text"),
    ((128, 1024), "sine:1", None, "json"),
    ((64, 256, 1024), "sine:2", None, "text"),
    ((512, 1024), "sine:3", None, "json"),
    ((256, 1024), "plane_wave:3", None, "json"),
    ((1024, 2048), "sine:1", None, "json"),
    ((512, 1024), "sine:3", "sine:1", "json"),
    ((1024, 2048), "plane_wave:1", "sine:1", "json"),
)
DENSE_FLUCTUATE = (16, 16, 32, 32)      # l, so n = 64, 128
FLUCTUATE_TERMS = 3


def _dense(rng, w: _Writer):
    limits = []
    for idx, (ns, profile, theta, fmt) in enumerate(DENSE_LIMIT):
        argv = ["limit", "--ns", ",".join(map(str, ns)), "--profile", profile]
        if theta:
            argv += ["--theta", theta]
        argv += ["--format", fmt]
        limits.append(Op(f"limit/{idx}", "limit", tuple(argv), (), None,
                         {"ns": list(ns), "profile": profile,
                          "theta": theta, "format": fmt}))
    flucts = []
    for idx, l in enumerate(DENSE_FLUCTUATE):
        D, g, e, K = four_sector(_crandn(rng, l, l))
        tag = f"l{l}_{idx}"
        tri = w.json(f"fl_{tag}.triple.json", triple_json((l,) * 4, D, g, e, K))
        plus = np.diag(g).real > 0
        terms = []
        for _ in range(FLUCTUATE_TERMS):
            u = np.zeros((4 * l, 4 * l), dtype=complex)
            u[np.ix_(plus, plus)] = _unitary(rng, 2 * l)
            u[np.ix_(~plus, ~plus)] = _unitary(rng, 2 * l)
            terms.append({"r": float(rng.uniform(-1.0, 1.0)), "U": _enc(u)})
        tfile = w.json(f"fl_{tag}.terms.json", terms)
        out = f"out_fl_{tag}.json"
        flucts.append(Op(f"fluctuate/{tag}", "fluctuate",
                         ("fluctuate", tri, "--terms", tfile, "-o", out),
                         (tri, tfile), out, {"triple": tri, "terms": tfile}))
    return _interleave([limits, flucts])


_GENERATORS = {"convert": _convert, "verify": _verify, "dense": _dense}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write ``workload``'s inputs for ``seed`` into ``workdir`` and
    return its ops in loop order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, _Writer(workdir))

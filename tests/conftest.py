"""Shared random generators and JSON helpers for the test suite.

Everything is seeded by the caller so test runs are reproducible.
"""

from __future__ import annotations

import json

import numpy as np

from ncg import BlockStructure, FiniteSpectralTriple
from ncg.matops import write_json


def written_text(obj) -> str:
    """The text :func:`ncg.matops.write_json` writes for ``obj``."""
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


def json_document(obj):
    """A ``to_json()`` document as a reader receives it: the writer's
    text, loaded by ``json``."""
    return json.loads(written_text(obj))


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(crandn(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, n):
    a = crandn(rng, n, n)
    return (a + a.conj().T) / 2


def random_partial_isometry(rng, rows, cols, rank=None):
    """Truncated SVD factors: u_r @ vh_r is a partial isometry of the
    requested rank."""
    if rank is None:
        rank = int(rng.integers(0, min(rows, cols) + 1))
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    u, _, vh = np.linalg.svd(crandn(rng, rows, cols))
    return u[:, :rank] @ vh[:rank, :]


def _unit_norm(m):
    return m / np.linalg.norm(m)


def random_partial_injection(rng, p):
    """A random partial injective map on ``{1..p}`` as a dict."""
    sources = [j for j in range(1, p + 1) if rng.random() < 0.6]
    targets = list(rng.permutation(range(1, p + 1))[:len(sources)])
    return dict(zip(sources, [int(t) for t in targets]))


def random_normaliser(rng, blocks: BlockStructure):
    """Random matrix with at most one unit-norm block per block-row and
    block-column."""
    n = blocks.total
    out = np.zeros((n, n), dtype=complex)
    for j, i in random_partial_injection(rng, blocks.p).items():
        blk = _unit_norm(crandn(rng, blocks.sizes[i - 1], blocks.sizes[j - 1]))
        out[blocks.block_slice(i), blocks.block_slice(j)] = blk
    return out


def random_involution(rng, p):
    """A random involutive permutation of ``{1..p}`` (pairs and fixed
    points)."""
    remaining = list(rng.permutation(range(1, p + 1)))
    remaining = [int(x) for x in remaining]
    images = {}
    while remaining:
        j = remaining.pop()
        if remaining and rng.random() < 0.7:
            k = remaining.pop()
            images[j], images[k] = k, j
        else:
            images[j] = j
    return tuple(images[j] for j in range(1, p + 1))


def random_section_matrix(rng, blocks: BlockStructure, involution):
    """Self-adjoint matrix with one unit-norm block per column, supported
    on the given involution (which must be size-compatible)."""
    n = blocks.total
    out = np.zeros((n, n), dtype=complex)
    for j in range(1, blocks.p + 1):
        i = involution[j - 1]
        if i < j:
            continue
        if i == j:
            blk = _unit_norm(random_hermitian(rng, blocks.sizes[j - 1]))
            out[blocks.block_slice(j), blocks.block_slice(j)] = blk
        else:
            blk = _unit_norm(crandn(rng, blocks.sizes[i - 1],
                                    blocks.sizes[j - 1]))
            out[blocks.block_slice(i), blocks.block_slice(j)] = blk
            out[blocks.block_slice(j), blocks.block_slice(i)] = blk.conj().T
    return out


def random_admissible_triple(rng) -> FiniteSpectralTriple:
    """A triple whose ``D`` is a self-adjoint domain section.

    When the support involution has no fixed points an alternating
    grading is attached (so the full even battery applies); otherwise no
    grading is possible for a block-scalar commutant and ``gamma`` stays
    ``None``.
    """
    p = int(rng.integers(2, 5))
    involution = random_involution(rng, p)
    sizes = [0] * p
    for j in range(1, p + 1):
        i = involution[j - 1]
        if sizes[j - 1] == 0:
            sizes[j - 1] = int(rng.integers(1, 4))
            sizes[i - 1] = sizes[j - 1]
    blocks = BlockStructure(tuple(sizes))
    d = random_section_matrix(rng, blocks, involution)
    gamma = None
    if all(involution[j - 1] != j for j in range(1, p + 1)):
        signs = {}
        for j in range(1, p + 1):
            if j not in signs:
                signs[j] = 1.0
                signs[involution[j - 1]] = -1.0
        gamma = np.zeros((blocks.total, blocks.total), dtype=complex)
        for j in range(1, p + 1):
            sl = blocks.block_slice(j)
            gamma[sl, sl] = signs[j] * np.eye(blocks.sizes[j - 1])
    return FiniteSpectralTriple(blocks, d, gamma)

"""Finite Fell bundles over pair groupoids.

A bundle assigns to every arrow ``(i, j)`` a linear subspace of
``n_i x n_j`` matrices (the fibre), stored as an explicit basis.  The ten
Fell axioms, saturation and unitality are decidable at this scale.  The
report entry points, :func:`check_fell_axioms` and :func:`check_bundle`,
decide the axioms that are identities of matrix algebra by theorem, as
they do closure of products into a full fibre, which holds every matrix
of its shape.  Closure into other fibres, the involution and unitality
are decided exhaustively on every bundle, saturation from the fibres'
Gram matrices, with the SVD of the products where that declines.
Closure, involution and unitality measure distances to a fibre with
:meth:`SubspaceBasis.residuals`: through the fibre's orthogonal
complement when it is at least half full, exactly 0 for a full one, and
by projection on a thinner one.  Closure writes the basis products of
all pairs into one target into a buffer of :data:`_BATCH_ENTRIES`
complex entries and measures them in one call; a pair with more entries
runs alone.  The
pass/refuse gates of the conversions (``category_from_bundle``,
``fell_bundle_triple``) accept a bundle that :attr:`FellBundleFD.is_full`
by theorem: a fibre of dimension ``n_i n_j`` is the whole matrix space, so
the bundle's sectional algebra is ``M_n(C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

import numpy as np

from .errors import InputError, ShapeError
from .groupoid import Arrow, PairGroupoid
from .matops import (DEFAULT_TOL, SubspaceBasis, Tolerance, numerical_rank,
                     row_norms, subspace_from_json)
from .report import AxiomCheck, AxiomReport, WorstResidual

# A Frobenius norm below this may have lost its relative accuracy to
# gradual underflow of the squared entries, so it certifies nothing.
_TINY_NORM = 1e-140
# Saturation's certificate needs λ_min(CᴴC) above this share of the
# products' squared Frobenius norm even for a relative tolerance near 0.
# Rounding moves λ_min by about 1e-13 of it for a few thousand products.
_GRAM_FLOOR = 1e-10
# Largest total block dimension ``Σ n_i`` a file may declare.  The
# checks hold dense ``n x n`` complex matrices, 256 MB each at this size.
MAX_DIMENSION = 4096
# Largest block count ``p`` a file may declare.  The bundle batteries
# visit all p³ composable pairs of arrows, whatever the fibres hold.
MAX_BLOCKS = 64
# Complex entries (1 MiB) of the basis products that closure measures
# against one target fibre in one residual call.
_BATCH_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class BlockStructure:
    """Ordered block sizes ``[n_1..n_p]`` splitting ``C^n`` into sectors.

    Defines the block-diagonal algebra ``A = ⊕_i M_{n_i}(C)`` inside
    ``B = M_n(C)`` with ``n = Σ n_i``.
    """

    sizes: tuple[int, ...]
    # Start of each block along ``C^n``.
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise InputError(f"BlockStructure: sizes must be positive, "
                             f"got {self.sizes}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets",
                           tuple(accumulate(sizes[:-1], initial=0)))

    @property
    def p(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def groupoid(self) -> PairGroupoid:
        return PairGroupoid(self.p)

    def block_slice(self, i: int) -> slice:
        if not 1 <= i <= self.p:
            raise InputError(f"block index {i} out of range 1..{self.p}")
        off = self.offsets[i - 1]
        return slice(off, off + self.sizes[i - 1])

    def block(self, m: np.ndarray, i: int, j: int) -> np.ndarray:
        return m[self.block_slice(i), self.block_slice(j)]

    def block_norms(self, m: np.ndarray) -> np.ndarray:
        """(p, p) array of Frobenius norms of the blocks of ``m``."""
        rows = np.add.reduceat(np.abs(m) ** 2, self.offsets, axis=0)
        return np.sqrt(np.add.reduceat(rows, self.offsets, axis=1))

    def block_diagonal_part(self, m: np.ndarray) -> np.ndarray:
        """Zero the off-diagonal blocks of ``m`` (keeps diagonal blocks)."""
        out = np.zeros_like(np.asarray(m, dtype=complex))
        for i in range(1, self.p + 1):
            sl = self.block_slice(i)
            out[sl, sl] = m[sl, sl]
        return out

    def unit_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Global (row, column) index of every matrix unit of ``A``: block
        by block, row-major within a block.  Witnesses name a unit by its
        position ``k`` in this order (``algebra unit {k}``)."""
        spans = tuple(zip(self.offsets, self.sizes))
        rows = [off + r for off, s in spans for r in range(s) for _ in range(s)]
        cols = [off + c for off, s in spans for _ in range(s) for c in range(s)]
        return np.array(rows), np.array(cols)

    def algebra_dim(self) -> int:
        return sum(s * s for s in self.sizes)


def _matrix_units(rows: int, cols: int) -> np.ndarray:
    """``(rows*cols, rows, cols)`` stack of matrix units, row-major."""
    return np.eye(rows * cols, dtype=complex).reshape(-1, rows, cols)


class FellBundleFD:
    """A finite Fell bundle over the pair groupoid on ``p`` objects.

    Every arrow carries a fibre; arrows omitted from ``fibres`` get the
    zero fibre.  Construction validates shapes only — a bundle violating
    the Fell axioms must be representable so that the checkers can report
    the violation.
    """

    __slots__ = ("blocks", "fibres")

    def __init__(self, blocks: BlockStructure,
                 fibres: Mapping[Arrow, SubspaceBasis]):
        groupoid = blocks.groupoid()
        complete: dict[Arrow, SubspaceBasis] = {}
        for g, fibre in fibres.items():
            g = groupoid.require(g)
            want = (blocks.sizes[g[0] - 1], blocks.sizes[g[1] - 1])
            if fibre.ambient_shape != want:
                raise ShapeError(
                    f"fibre over {g}: ambient shape {fibre.ambient_shape} "
                    f"does not match {want}"
                )
            complete[g] = fibre
        for g in groupoid.arrows():
            if g not in complete:
                complete[g] = SubspaceBasis(blocks.sizes[g[0] - 1],
                                            blocks.sizes[g[1] - 1], [])
        self.blocks = blocks
        self.fibres = complete

    def arrows(self) -> list[Arrow]:
        return sorted(self.fibres)

    @property
    def is_full(self) -> bool:
        """Every fibre has dimension ``n_i n_j``.  Bases are independent
        by construction, so each fibre is then the whole matrix space and
        the Fell axioms, saturation and unitality hold by theorem."""
        return all(f.is_full for f in self.fibres.values())

    def __repr__(self):
        dims = {g: f.dim for g, f in sorted(self.fibres.items())}
        return f"FellBundleFD(blocks={self.blocks.sizes}, dims={dims})"


def full_morita_bundle(blocks: BlockStructure) -> FellBundleFD:
    """The bundle whose fibre over ``(i, j)`` is the full ``n_i x n_j``
    matrix space (basis: matrix units).

    Its sectional algebra is all of ``M_n(C)``; it passes every axiom,
    saturation and unitality.
    """
    fibres = {}
    for i in range(1, blocks.p + 1):
        for j in range(1, blocks.p + 1):
            fibres[(i, j)] = SubspaceBasis(
                blocks.sizes[i - 1], blocks.sizes[j - 1],
                _matrix_units(blocks.sizes[i - 1], blocks.sizes[j - 1]))
    return FellBundleFD(blocks, fibres)


def _basis_products(x: np.ndarray, y: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Every product ``x[a] @ y[b]`` of two ``(a, i, j)`` and ``(b, j, k)``
    stacks as an ``(a*b, i, k)`` stack in row-major ``(a, b)`` order,
    formed by one GEMM and one transposing copy, into ``out`` if given."""
    (a, i, j), (b, _, k) = x.shape, y.shape
    flat = x.reshape(a * i, j) @ y.transpose(1, 0, 2).reshape(j, b * k)
    arranged = flat.reshape(a, i, b, k).transpose(0, 2, 1, 3)
    if out is None:
        return arranged.reshape(-1, i, k)
    out.reshape(a, b, i, k)[...] = arranged
    return out


def _analytic(k: int, identity: str) -> AxiomCheck:
    return AxiomCheck(f"fell.axiom.{k}", True, 0.0, f"analytic: {identity}")


def check_fell_axioms(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Verify the ten Fell axioms on a finite bundle.

    Fibres are subspaces of matrix spaces, the product is matrix
    multiplication, the involution is the conjugate transpose and the norm
    is the operator norm.  Axioms 1 and 5 (compatibility of the projection
    with product and involution) hold structurally, because fibres are
    keyed by arrows and results are placed at the composed / reversed
    arrow.  Axioms 3, 4, 7, 8, 9 and 10 are identities of matrix algebra
    that hold for every input; their rows pass with residual 0 and an
    ``analytic:`` witness naming the identity.  Only axioms 2 and 6
    depend on the data.  Closure holds by theorem for a pair of arrows
    whose target fibre is full (:attr:`SubspaceBasis.is_full`), since
    that fibre holds every ``n_i x n_k`` matrix; for every other target
    the basis products of all its pairs are formed, one GEMM per pair
    (:func:`_basis_products`), and measured against it by
    :func:`_closure_residuals`.  When every pair with nonzero fibres has a
    full target, the row is analytic.  The involution is decided on every
    basis element: adjoints must land in the reversed fibre.
    """
    closure = WorstResidual(tol)
    full_targets = numeric = False
    p = b.blocks.p
    buffer = np.empty(_BATCH_ENTRIES, dtype=complex)
    for gh in b.arrows():
        pairs = [((gh[0], j), (j, gh[1])) for j in range(1, p + 1)
                 if b.fibres[(gh[0], j)].dim and b.fibres[(j, gh[1])].dim]
        if not pairs:
            continue
        if b.fibres[gh].is_full:
            full_targets = True
            continue
        numeric = True
        _closure_residuals(closure, b, gh, pairs, buffer)

    invol = WorstResidual(tol)
    for g in b.arrows():
        stack = b.fibres[g].stack
        if stack.shape[0] == 0:
            continue
        invol.update_batch(
            b.fibres[(g[1], g[0])].residuals(np.conj(np.swapaxes(stack, 1, 2))),
            row_norms(stack.reshape(stack.shape[0], -1)),
            lambda idx, g=g: f"adjoint of basis {idx} of fibre {g}")

    return AxiomReport((
        AxiomCheck("fell.axiom.1", True, 0.0,
                   "structural: products are placed at the composed arrow"),
        (_analytic(2, "a full fibre holds every matrix of its shape")
         if full_targets and not numeric else
         closure.check("fell.axiom.2", "all basis products stay in their fibre")),
        _analytic(3, "matrix multiplication is associative"),
        _analytic(4, "the operator norm is submultiplicative"),
        AxiomCheck("fell.axiom.5", True, 0.0,
                   "structural: adjoints are placed at the reversed arrow"),
        invol.check("fell.axiom.6", "adjoint of every basis element lies in "
                                    "the reversed fibre"),
        _analytic(7, "the conjugate transpose is an involution"),
        _analytic(8, "the conjugate transpose reverses products"),
        _analytic(9, "the operator norm satisfies ‖e* e‖ = ‖e‖²"),
        _analytic(10, "e* e is positive semidefinite"),
    ))


def _closure_residuals(row: WorstResidual, b: FellBundleFD, gh: Arrow,
                       pairs: list, buffer: np.ndarray) -> None:
    """Update ``row`` with the distance from fibre ``gh`` of every basis
    product of the composable ``pairs`` into it.  Consecutive pairs share
    one :meth:`SubspaceBasis.residuals` call while their products fit in
    ``buffer``; a pair with more entries runs alone."""
    target = b.fibres[gh]
    size = target.rows * target.cols
    batch, total = [], 0
    for g, h in pairs:
        count = b.fibres[g].dim * b.fibres[h].dim
        if batch and (total + count) * size > len(buffer):
            _closure_batch(row, b, gh, batch, total, buffer)
            batch, total = [], 0
        batch.append((g, h, total))
        total += count
    _closure_batch(row, b, gh, batch, total, buffer)


def _closure_batch(row: WorstResidual, b: FellBundleFD, gh: Arrow,
                   batch: list, total: int, buffer: np.ndarray) -> None:
    """:func:`_closure_residuals` for the pairs ``(g, h, start)`` of one
    batch, whose ``total`` products are placed from row ``start`` on."""
    target = b.fibres[gh]
    size = target.rows * target.cols
    if total * size > len(buffer):
        (g, h, _), = batch
        prods = _basis_products(b.fibres[g].stack, b.fibres[h].stack)
    else:
        prods = buffer[:total * size].reshape(total, *target.ambient_shape)
        for g, h, start in batch:
            x, y = b.fibres[g].stack, b.fibres[h].stack
            _basis_products(x, y, prods[start:start + len(x) * len(y)])

    def witness(idx):
        g, h, start = next(item for item in reversed(batch) if item[2] <= idx)
        a, c = divmod(idx - start, b.fibres[h].dim)
        return f"basis {a} of {g} x basis {c} of {h} leaves fibre {gh}"

    row.update_batch(target.residuals(prods),
                     row_norms(prods.reshape(total, size)), witness)


def check_saturated(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """Saturation: products of two fibres must span the whole target fibre.

    For every composable pair of arrows the rank of the products of the
    two bases, scaled to unit norm (:attr:`SubspaceBasis.units`), is compared
    with the target dimension ``d``; singular values below ``rel * s_max``
    count as zero.  The rank is at least ``d`` when ``λ_min(CᴴC)``, for
    the products' coordinates ``C`` in the target, exceeds ``max(1e-10,
    4 rel²) ‖products‖_F²``: ``σ_d(products) ≥ σ_d(C)``.  This certificate
    is contracted from the Gram matrices of fibres at least half full
    (:func:`_gram_spectra`) and must clear its rounding error
    (:func:`_gram_guard`).  Every other span is ranked by the SVD of its
    products (:func:`_basis_products`).  Only the rank reaches the report.
    """
    certify = max(_GRAM_FLOOR, 4.0 * tol.rel ** 2)
    p, sizes = b.blocks.p, np.array(b.blocks.sizes)
    units = {g: f.units for g, f in b.fibres.items()}
    dim = np.array([b.fibres[g].dim for g in b.arrows()]).reshape(p, p)
    # A Gram matrix of a half-full fibre is at most twice its basis.
    dense = (dim > 0) & (2 * dim >= np.outer(sizes, sizes))
    grams = {(i + 1, j + 1): _arranged_gram(units[(i + 1, j + 1)])
             for i, j in zip(*np.nonzero(dense))}
    # λ_min(CᴴC) and ‖products‖_F² of each pair (i, j) x (j, k).
    lam, trace = np.zeros((2, p, p, p))
    for i, k in b.blocks.groupoid().arrows():
        js = np.flatnonzero(dense[i - 1] & dense[:, k - 1])
        if b.fibres[(i, k)].dim and len(js):
            lam[i - 1, js, k - 1], trace[i - 1, js, k - 1] = _gram_spectra(
                b.fibres[(i, k)], [(grams[(i, j + 1)], grams[(j + 1, k)])
                                   for j in js])
    dg, dh, dt = dim[:, :, None], dim[None, :, :], dim[:, None, :]
    spans = (lam > certify * trace) & (np.minimum(lam, trace) > _gram_guard(
        dg, dh, sizes[None, :, None], np.outer(sizes, sizes)[:, None, :]))
    deficiency = np.where(spans, 0, dt)
    for i, j, k in zip(*np.nonzero(~spans & (dg > 0) & (dh > 0) & (dt > 0))):
        prods = _basis_products(units[(i + 1, j + 1)], units[(j + 1, k + 1)])
        deficiency[i, j, k] -= numerical_rank(prods.reshape(len(prods), -1),
                                              tol.rel)
    i, j, k = (np.argwhere(deficiency == deficiency.max())[0] + 1).tolist()
    worst, d = max(int(deficiency.max()), 0), b.fibres[(i, k)].dim
    return AxiomCheck("fell.saturated", worst == 0, float(worst),
                      f"products of {(i, j)} x {(j, k)} span {d - worst} of "
                      f"the {d} dimensions of fibre {(i, k)}" if worst
                      else "every product span is total")


def _arranged_gram(u: np.ndarray) -> np.ndarray:
    """The Gram matrix ``X = UᴴU`` of an ``(a, r, s)`` stack flattened to
    rows ``U``, arranged ``(r², s²)``: ``((r, r'), (s, s'))`` holds
    ``X[(r, s), (r', s')]``."""
    a, r, s = u.shape
    flat = u.reshape(a, r * s)
    return ((flat.conj().T @ flat).reshape(r, s, r, s).transpose(0, 2, 1, 3)
            .reshape(r * r, s * s))


def _gram_spectra(target: SubspaceBasis, pairs):
    """``λ_min(CᴴC)`` and ``‖P‖_F² = tr PᴴP`` for the products ``P`` of
    each pair of :func:`_arranged_gram` matrices into ``target``: ``PᴴP``
    is their GEMM, transposed, as the product is bilinear, and ``CᴴC`` its
    :meth:`SubspaceBasis.compress` unless the target is full."""
    ni, nk = target.ambient_shape
    gram = (np.stack([x @ y for x, y in pairs])
            .reshape(-1, ni, ni, nk, nk).transpose(0, 1, 3, 2, 4)
            .reshape(-1, ni * nk, ni * nk))
    lam = np.linalg.eigvalsh(gram if target.is_full
                             else target.compress(gram))[:, 0]
    return lam, np.einsum("mii->m", gram).real


def _gram_guard(dg, dh, nj, n):
    """Twice the rounding error of :func:`_gram_spectra` (Gram matrices,
    GEMM, compression, eigvalsh) for unit rows of fibres of dimensions
    ``dg``, ``dh`` and ``n = n_i n_k``, and at least ``_TINY_NORM²``."""
    return np.maximum(np.finfo(float).eps * dg * dh * (
        np.sqrt(n) * (dg + dh + nj ** 2) + 3 * n ** 1.5), _TINY_NORM ** 2)


def check_unital(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """Unitality: each diagonal fibre must contain its identity matrix."""
    worst = WorstResidual(tol)
    for i in range(1, b.blocks.p + 1):
        size = b.blocks.sizes[i - 1]
        raw = b.fibres[(i, i)].residual(np.eye(size, dtype=complex))
        worst.update(raw, float(np.sqrt(size)),
                     f"identity of diagonal fibre ({i},{i})")
    return worst.check("fell.unital", "every diagonal fibre is unital")


def check_bundle(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Full battery: ten axioms plus saturation and unitality."""
    axioms = check_fell_axioms(b, tol)
    return AxiomReport(axioms.checks + (check_saturated(b, tol),
                                        check_unital(b, tol)))


def blocks_from_json(data) -> BlockStructure:
    """Decode a ``blocks`` value: a nonempty array of at most
    :data:`MAX_BLOCKS` positive integers whose sum is at most
    :data:`MAX_DIMENSION`."""
    if (not isinstance(data, list) or not data
            or not all(type(s) is int and s >= 1 for s in data)):
        raise InputError(f"blocks: expected a nonempty array of positive "
                         f"integers, got {data!r}")
    if len(data) > MAX_BLOCKS:
        raise InputError(f"blocks: {len(data)} blocks exceed the limit of "
                         f"{MAX_BLOCKS}")
    if sum(data) > MAX_DIMENSION:
        raise InputError(f"blocks: total dimension {sum(data)} exceeds the "
                         f"limit of {MAX_DIMENSION}")
    return BlockStructure(tuple(data))


def fibres_to_json(fibres: Mapping[Arrow, SubspaceBasis]) -> dict:
    """The basis stacks of the nonzero fibres (or homsets) keyed
    ``"i,j"``."""
    return {f"{i},{j}": fibre.stack
            for (i, j), fibre in sorted(fibres.items()) if fibre.dim}


def fibres_from_json(data, blocks: BlockStructure,
                     label: str = "fibre") -> dict[Arrow, SubspaceBasis]:
    """Decode ``{"i,j": [matrix, ...]}``; a missing value (``None``) has
    no fibres.  ``label`` names the entries in diagnostics."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InputError(f"{label}s: expected an object keyed by 'i,j'")
    fibres = {}
    for key, mats in data.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise InputError(f"{label} key {key!r} is not of the form 'i,j'")
        if not (1 <= i <= blocks.p and 1 <= j <= blocks.p):
            raise InputError(f"{label} key {key!r} out of range for "
                             f"{blocks.p} objects")
        if (i, j) in fibres:
            raise InputError(f"{label} key {key!r} repeats arrow ({i},{j})")
        fibres[(i, j)] = subspace_from_json(
            mats, blocks.sizes[i - 1], blocks.sizes[j - 1], f"{label} {key}")
    return fibres


def bundle_to_json(b: FellBundleFD) -> dict:
    return {"blocks": list(b.blocks.sizes), "fibres": fibres_to_json(b.fibres)}


def bundle_from_json(data) -> FellBundleFD:
    """Decode ``{"blocks": [...], "fibres": {"i,j": [matrix, ...]}}``;
    omitted arrows get the zero fibre."""
    if not isinstance(data, dict) or "blocks" not in data:
        raise InputError("bundle: expected an object with a 'blocks' key")
    blocks = blocks_from_json(data["blocks"])
    return FellBundleFD(blocks, fibres_from_json(data.get("fibres"), blocks))

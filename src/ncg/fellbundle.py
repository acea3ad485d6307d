"""Finite Fell bundles over pair groupoids.

An arrow ``(i, j)`` is an index pair of a :class:`BlockStructure`.
A bundle assigns to every arrow ``(i, j)`` a linear subspace of
``n_i x n_j`` matrices (the fibre), stored as an explicit basis.  The ten
Fell axioms, saturation and unitality are decidable at this scale.  The
report entry points, :func:`check_fell_axioms` and :func:`check_bundle`,
decide the axioms that are identities of matrix algebra by theorem, as
they do closure of products into a full fibre, which holds every matrix
of its shape.  Closure into other fibres and saturation are decided by
theorem too when :func:`normal_form` certifies the bundle: it guesses
unitaries ``U_i`` with ``U_i* E_ij U_j = ⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}``,
the normal form of a unital saturated bundle, measures the ``p²`` fibres
against it and bounds every product residual and product span from those
distances and the bases' conditioning, forming no product.  Where it
declines, closure is measured on every basis product and saturation
decided from the fibres' Gram matrices, with the SVD of the products
where that declines.  The involution and unitality are measured on every
bundle.  Closure, involution and unitality measure distances to a fibre
with :meth:`SubspaceBasis.residuals`: through the fibre's orthogonal
complement when it is at least half full, exactly 0 for a full one, and
by projection on a thinner one.  The batteries run once per shape class,
not once per fibre: the pairs of arrows of one class ``(n_i, n_j, n_k,
d_ij, d_jk, d_ik)`` are formed and measured by stacked calls
(:class:`~ncg.matops.SpanStack`), a run of :func:`~ncg.matops.runs` at
a time, and so are the adjoints of a class of fibres, the Gram matrices
of saturation and the fibres measured against the normal form.  Each
run writes its residuals at the places its items hold in a pass over
the arrows, and :func:`~ncg.report.worst_row` decides the row, so a
witness is the first worst element in arrow order.  The bundle gate of
the conversions (``category_from_bundle``, the bundle half of
``spectral_category``)
accepts a bundle that :attr:`FellBundleFD.is_full` by theorem: a fibre
of dimension ``n_i n_j`` is the whole matrix space, so the bundle's
sectional algebra is ``M_n(C)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Mapping

import numpy as np

from .errors import InputError, NcgError, ShapeError
from .matops import (DEFAULT_TOL, SpanStack, SubspaceBasis, Tolerance,
                     numerical_rank, row_norms, runs, stack_from_json, take)
from .report import AxiomCheck, AxiomReport, worst_row

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
# Largest block count ``p`` a file may declare.  A bundle certified by
# its normal form costs p² fibre residuals and p³ scalar margins; any
# other indexes all p³ composable pairs of arrows, whatever the fibres
# hold, with its numpy calls per shape class of fibres or of pairs.
MAX_BLOCKS = 64
# The arrow ``(i, j)`` points ``j -> i``: its fibre holds the blocks at
# row ``i``, column ``j``.
Arrow = tuple[int, int]


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

    def arrows(self) -> list[Arrow]:
        """The arrows of the pair groupoid: every ``(i, j)``, row-major."""
        return list(product(range(1, self.p + 1), repeat=2))

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
        complete: dict[Arrow, SubspaceBasis] = {}
        for g, fibre in fibres.items():
            if not (1 <= g[0] <= blocks.p and 1 <= g[1] <= blocks.p):
                raise InputError(f"arrow {g} is not in the pair groupoid on "
                                 f"{blocks.p} objects")
            g = (int(g[0]), int(g[1]))
            want = (blocks.sizes[g[0] - 1], blocks.sizes[g[1] - 1])
            if fibre.ambient_shape != want:
                raise ShapeError(
                    f"fibre over {g}: ambient shape {fibre.ambient_shape} "
                    f"does not match {want}"
                )
            complete[g] = fibre
        missing = [g for g in blocks.arrows() if g not in complete]
        complete.update(zip(missing, SubspaceBasis.batch([
            np.zeros((0, blocks.sizes[i - 1], blocks.sizes[j - 1]),
                     dtype=complex) for i, j in missing])))
        self.blocks = blocks
        self.fibres = complete

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
    arrows = blocks.arrows()
    return FellBundleFD(blocks, dict(zip(arrows, SubspaceBasis.batch([
        _matrix_units(blocks.sizes[i - 1], blocks.sizes[j - 1])
        for i, j in arrows]))))


def _basis_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every product ``x[..., a] @ y[..., b]`` of two ``(..., a, i, j)`` and
    ``(..., b, j, k)`` stacks as an ``(..., a*b, i, k)`` stack in row-major
    ``(a, b)`` order, formed by one (stacked) GEMM and one transposing
    copy."""
    lead, (a, i, j), (b, _, k) = x.shape[:-3], x.shape[-3:], y.shape[-3:]
    flat = (x.reshape(lead + (a * i, j))
            @ y.swapaxes(-3, -2).reshape(lead + (j, b * k)))
    return (flat.reshape(lead + (a, i, b, k)).swapaxes(-3, -2)
            .reshape(lead + (a * b, i, k)))


class _ShapeClasses:
    """The fibres of a bundle by shape class ``(n_i, n_j, dim)``:
    ``key[i, j]`` is the class of fibre ``(i+1, j+1)``, ``pos[i, j]`` its
    place in ``spans[key[i, j]]``, the :class:`~ncg.matops.SpanStack` of
    a class in arrow order.  ``dim`` and ``full`` are the ``(p, p)``
    arrays of the fibres' dimensions and fullness, ``sizes`` the block
    sizes."""

    def __init__(self, b: FellBundleFD):
        p = b.blocks.p
        self.key = np.empty((p, p), dtype=np.int64)
        self.pos = np.empty((p, p), dtype=np.int64)
        self.spans: list[SpanStack] = []
        ids: dict = {}
        for (i, j), f in sorted(b.fibres.items()):
            c = ids.setdefault((f.rows, f.cols, f.dim), len(ids))
            if c == len(self.spans):
                self.spans.append(SpanStack([]))
            self.key[i - 1, j - 1] = c
            self.pos[i - 1, j - 1] = len(self.spans[c].bases)
            self.spans[c].bases.append(f)
        self.dim = np.array([dim for _, _, dim in ids])[self.key]
        self.sizes = np.array(b.blocks.sizes)
        self.full = self.dim == np.outer(self.sizes, self.sizes)


def _analytic(k: int, identity: str) -> AxiomCheck:
    return AxiomCheck(f"fell.axiom.{k}", True, 0.0, f"analytic: {identity}")


def check_fell_axioms(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL,
                      form: NormalForm | None = None) -> AxiomReport:
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
    that fibre holds every ``n_i x n_k`` matrix; the basis products of
    every other pair are formed and measured against its target by
    :func:`_closure_residuals`.  When every pair with nonzero fibres has a
    full target, the row is analytic.  Otherwise a bundle whose
    :func:`normal_form` (``form``, found here when not given) bounds every
    product residual within the tolerance passes with a ``certified:``
    witness naming its summands and the bound, and residual 0.  The
    involution is decided on every basis element
    (:func:`_involution_residuals`): adjoints must land in the reversed
    fibre.
    """
    classes = _ShapeClasses(b) if form is None else form.classes
    dim, full = classes.dim, classes.full
    # Pairs (i, j) x (j, k) of nonzero fibres, by target (i, k), then j.
    i, k, j = np.nonzero((dim[:, None, :] > 0) & (dim.T[None, :, :] > 0))
    numeric = ~full[i, k]
    if len(i) and not numeric.any():
        closure = _analytic(2, "a full fibre holds every matrix of its shape")
    else:
        form = normal_form(b, tol) if form is None else form
        closure = (AxiomCheck("fell.axiom.2", True, 0.0, form.witness())
                   if form.bound <= tol.rel else
                   _closure_residuals(tol, classes, i[numeric], j[numeric],
                                      k[numeric]))

    return AxiomReport((
        AxiomCheck("fell.axiom.1", True, 0.0,
                   "structural: products are placed at the composed arrow"),
        closure,
        _analytic(3, "matrix multiplication is associative"),
        _analytic(4, "the operator norm is submultiplicative"),
        AxiomCheck("fell.axiom.5", True, 0.0,
                   "structural: adjoints are placed at the reversed arrow"),
        _involution_residuals(tol, classes),
        _analytic(7, "the conjugate transpose is an involution"),
        _analytic(8, "the conjugate transpose reverses products"),
        _analytic(9, "the operator norm satisfies ‖e* e‖ = ‖e‖²"),
        _analytic(10, "e* e is positive semidefinite"),
    ))


def _closure_residuals(tol: Tolerance, classes: _ShapeClasses, i: np.ndarray,
                       j: np.ndarray, k: np.ndarray) -> AxiomCheck:
    """``fell.axiom.2`` from the distance to fibre ``(i, k)`` of every basis
    product of the pairs ``(i, j) x (j, k)`` (0-based index arrays in
    report order).  The pairs of one shape class ``(n_i, n_j, n_k, d_ij,
    d_jk, d_ik)`` are formed by one stacked GEMM and measured by one
    stacked residual call per run of :func:`~ncg.matops.runs`."""
    dim, pos, key = classes.dim, classes.pos, classes.key

    def describe(place, t):
        left = (int(i[t]) + 1, int(j[t]) + 1)
        right = (int(j[t]) + 1, int(k[t]) + 1)
        a, c = divmod(place, int(dim[j[t], k[t]]))
        return (f"basis {a} of {left} x basis {c} of {right} leaves fibre "
                f"{(left[0], right[1])}")

    counts, n, spans = dim[i, j] * dim[j, k], classes.sizes, classes.spans
    row, g, h, gh = _Places(counts), pos[i, j], pos[j, k], pos[i, k]
    for (cg, ch, ct), t in runs((key[i, j], key[j, k], key[i, k]),
                                counts * n[i] * n[k]):
        x, y = spans[cg].stacked("stack"), spans[ch].stacked("stack")
        (_, a, ni, _), (_, b, _, nk) = x.shape, y.shape
        flat = _basis_products(take(x, g[t]), take(y, h[t])).reshape(
            len(t), a * b, ni * nk)
        row.put(t, spans[ct].residuals(flat, gh[t]),
                row_norms(flat.reshape(-1, ni * nk)))
    return row.check(tol, "fell.axiom.2", describe,
                     "all basis products stay in their fibre")


def _involution_residuals(tol: Tolerance,
                          classes: _ShapeClasses) -> AxiomCheck:
    """``fell.axiom.6`` from the distance of the adjoint of every basis
    element to the reversed fibre, one stacked residual call per run of
    a shape class of the fibre and its reverse; a full reverse holds them
    all."""
    dim, pos, key, n = classes.dim, classes.pos, classes.key, classes.sizes
    i, j = np.nonzero((dim > 0) & ~classes.full.T)

    def describe(place, t):
        return (f"adjoint of basis {place} of fibre "
                f"{(int(i[t]) + 1, int(j[t]) + 1)}")

    row, g, r = _Places(dim[i, j]), pos[i, j], pos[j, i]
    for (cg, cr), t in runs((key[i, j], key[j, i]), dim[i, j] * n[i] * n[j]):
        elems = take(classes.spans[cg].stacked("stack"), g[t])
        _, d, ni, nj = elems.shape
        adjoints = np.conj(elems.transpose(0, 1, 3, 2)).reshape(
            len(t), d, ni * nj)
        row.put(t, classes.spans[cr].residuals(adjoints, r[t]),
                row_norms(elems.reshape(-1, ni * nj)))
    return row.check(tol, "fell.axiom.6", describe,
                     "adjoint of every basis element lies in the reversed "
                     "fibre")


class _Places:
    """The raw residuals and scales of one row in report order, filled by
    runs measured out of it: item ``t`` of ``counts`` owns the next
    ``counts[t]`` places, and a witness names ``(place in item, item)``."""

    def __init__(self, counts: np.ndarray):
        self.offsets = np.concatenate([[0], np.cumsum(counts)])
        self.raws, self.scales = np.zeros((2, int(self.offsets[-1])))

    def put(self, t: np.ndarray, raws: np.ndarray, scales: np.ndarray):
        """The ``(len(t), count)`` residuals of the items ``t`` and the
        scales of their elements, item by item."""
        at = self.offsets[t][:, None] + np.arange(raws.shape[1])
        self.raws[at], self.scales[at] = raws, scales.reshape(raws.shape)

    def check(self, tol: Tolerance, axiom_id: str, describe,
              default: str) -> AxiomCheck:
        def witness(place):
            t = int(np.searchsorted(self.offsets, place, side="right")) - 1
            return describe(place - int(self.offsets[t]), t)
        return worst_row(tol, axiom_id, self.raws, self.scales, witness,
                         default)


def check_saturated(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL,
                    form: NormalForm | None = None) -> AxiomCheck:
    """Saturation: products of two fibres must span the whole target fibre.

    For every composable pair of arrows the rank of the products of the
    two bases, scaled to unit norm (:attr:`SubspaceBasis.units`), is compared
    with the target dimension ``d``; singular values below ``rel * s_max``
    count as zero.  The rank is at least ``d`` when ``λ_min(CᴴC)``, for
    the products' coordinates ``C`` in the target, exceeds ``max(1e-10,
    4 rel²) ‖products‖_F²``: ``σ_d(products) ≥ σ_d(C)``.  This certificate
    is contracted from the Gram matrices of fibres at least half full
    (:func:`_gram_spectra`), one stacked call per run of a shape class
    of the pairs, and must clear its rounding error (:func:`_gram_guard`).
    Every other span is ranked by the SVD of its products
    (:func:`_basis_products`).  Only the rank reaches the report.  A
    bundle whose :func:`normal_form` (``form``, found here when not
    given) proves every span total passes without either.
    """
    form = normal_form(b, tol) if form is None else form
    if form.spans:
        return AxiomCheck("fell.saturated", True, 0.0,
                          "every product span is total")
    certify = max(_GRAM_FLOOR, 4.0 * tol.rel ** 2)
    p, classes = b.blocks.p, form.classes
    dim, pos, key = classes.dim, classes.pos, classes.key
    sizes = classes.sizes
    # A Gram matrix of a half-full fibre is at most twice its basis.
    dense = (dim > 0) & (2 * dim >= np.outer(sizes, sizes))
    # λ_min(CᴴC) and ‖products‖_F² of each pair (i, j) x (j, k).
    lam, trace = np.zeros((2, p, p, p))
    i, j, k = np.nonzero(dense[:, :, None] & dense[None, :, :]
                         & (dim[:, None, :] > 0))
    ni, nj, nk = sizes[i], sizes[j], sizes[k]
    g, h, gh = pos[i, j], pos[j, k], pos[i, k]
    grams: dict = {}
    # The Gram matrices a run gathers and forms.
    for (cg, ch, ct), t in runs((key[i, j], key[j, k], key[i, k]),
                                (ni * nj) ** 2 + (nj * nk) ** 2
                                + (ni * nk) ** 2):
        for c in (cg, ch):
            if c not in grams:
                grams[c] = _arranged_gram(classes.spans[c].stacked("units"))
        target = None if classes.full[i[t[0]], k[t[0]]] else classes.spans[ct]
        lam[i[t], j[t], k[t]], trace[i[t], j[t], k[t]] = _gram_spectra(
            take(grams[cg], g[t]), take(grams[ch], h[t]), ni[t[0]],
            nk[t[0]], target, gh[t])
    dg, dh, dt = dim[:, :, None], dim[None, :, :], dim[:, None, :]
    spans = (lam > certify * trace) & (np.minimum(lam, trace) > _gram_guard(
        dg, dh, sizes[None, :, None], np.outer(sizes, sizes)[:, None, :]))
    deficiency = np.where(spans, 0, dt)
    for i, j, k in zip(*np.nonzero(~spans & (dg > 0) & (dh > 0) & (dt > 0))):
        prods = _basis_products(b.fibres[(i + 1, j + 1)].units,
                                b.fibres[(j + 1, k + 1)].units)
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
    ``X[(r, s), (r', s')]``; of each such stack of an ``(m, a, r, s)``
    array, in one stacked GEMM."""
    *lead, a, r, s = u.shape
    flat = u.reshape(-1, a, r * s)
    gram = np.conjugate(flat.transpose(0, 2, 1), order="C") @ flat
    return (gram.reshape(-1, r, s, r, s).transpose(0, 1, 3, 2, 4)
            .reshape(*lead, r * r, s * s))


def _gram_spectra(x: np.ndarray, y: np.ndarray, ni: int, nk: int,
                  target: SpanStack | None, which):
    """``λ_min(CᴴC)`` and ``‖P‖_F² = tr PᴴP`` for the products ``P`` of
    each pair ``x[t], y[t]`` of :func:`_arranged_gram` matrices into
    fibres of shape ``(ni, nk)``: ``PᴴP`` is their GEMM, transposed, as
    the product is bilinear, and ``CᴴC`` its compression by basis
    ``which[t]`` of ``target`` (:meth:`SpanStack.compress`), or itself
    when the targets are full (``target`` None); the two as the rows of a
    ``(2, m)`` array."""
    gram = ((x @ y).reshape(-1, ni, ni, nk, nk).transpose(0, 1, 3, 2, 4)
            .reshape(-1, ni * nk, ni * nk))
    lam = np.linalg.eigvalsh(gram if target is None
                             else target.compress(gram, which))[:, 0]
    return np.stack([lam, np.einsum("mii->m", gram).real])


def _gram_guard(dg, dh, nj, n):
    """Twice the rounding error of :func:`_gram_spectra` (Gram matrices,
    GEMM, compression, eigvalsh) for unit rows of fibres of dimensions
    ``dg``, ``dh`` and ``n = n_i n_k``, and at least ``_TINY_NORM²``."""
    return np.maximum(np.finfo(float).eps * dg * dh * (
        np.sqrt(n) * (dg + dh + nj ** 2) + 3 * n ** 1.5), _TINY_NORM ** 2)


def check_unital(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomCheck:
    """Unitality: each diagonal fibre must contain its identity matrix."""
    sizes = b.blocks.sizes
    raws = [b.fibres[(i, i)].residual(np.eye(size, dtype=complex))
            for i, size in enumerate(sizes, start=1)]
    return worst_row(tol, "fell.unital", raws, np.sqrt(sizes),
                     lambda q: f"identity of diagonal fibre ({q + 1},{q + 1})",
                     "every diagonal fibre is unital")


def check_bundle(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Full battery: ten axioms plus saturation and unitality, with one
    :func:`normal_form` certificate for closure and saturation."""
    form = normal_form(b, tol)
    axioms = check_fell_axioms(b, tol, form)
    return AxiomReport(axioms.checks + (check_saturated(b, tol, form),
                                        check_unital(b, tol)))


@dataclass(frozen=True, eq=False)
class NormalForm:
    """What :func:`normal_form` proved of a bundle.

    ``k[i - 1, r]`` and ``m[r]`` are the sizes and multiplicities of the
    summands of the normal form ``U_i* E_ij U_j = ⊕_r M_{k_ir x k_jr} ⊗
    1_{m_r}`` that every fibre lies near; ``k`` is None when none was
    found.  ``bound`` is a proven upper bound on the relative residual of
    every basis product that ``fell.axiom.2`` measures, ``inf`` unless it
    is within ``tol.rel``, and ``spans`` that every product span
    ``fell.saturated`` ranks is total; ``classes`` holds its shape classes.
    """

    classes: _ShapeClasses = field(repr=False)
    k: np.ndarray | None = None
    m: tuple[int, ...] = ()
    bound: float = np.inf
    spans: bool = False

    def witness(self) -> str:
        return ("certified: normal form ⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}, "
                f"k = {self.k.tolist()}, m = {list(self.m)}; every basis "
                f"product within {self.bound:.1e} of its fibre")


# Seed of the random elements that split A_11 in :func:`_split`: a fixed
# choice makes the guess, and so the report, reproducible.
_FORM_SEED = 20261021
_EPS = np.finfo(float).eps


def normal_form(b: FellBundleFD, tol: Tolerance = DEFAULT_TOL) -> NormalForm:
    """Certify closure and saturation from the bundle's normal form.

    A unital saturated Fell bundle over the pair groupoid has unitaries
    ``U_i`` with ``U_i* E_ij U_j = F_ij = ⊕_r M_{k_ir x k_jr} ⊗ 1_{m_r}``
    (Kumjian 1998; Muhly–Williams 2008).  The frames are guessed from
    ``A_11 = E_11`` (:func:`_split`) and carried along ``E_j1``
    (:func:`_transport`); the guess may be wrong, and soundness rests
    only on what follows.  Every fibre must have dimension ``Σ_r k_ir
    k_jr``, and the distances ``η`` of its unit rows from ``U_i F_ij
    U_j*`` are measured, ``O(p²)`` fibre residuals and no product.  The
    model bundle is closed and saturated, so with ``σ_min``, ``σ_max``
    the extreme singular values of a fibre's unit rows
    (:attr:`SubspaceBasis.unit_sigmas`) and ``H = ‖η‖``:

    - a fibre and its model are at angle at most ``θ = H / σ_min``;
    - a product of basis elements ``e, e'`` lies within ``ρ ‖e'‖ + ‖e‖
      ρ'`` of the model target, ``ρ = η ‖e‖``, so within that plus
      ``θ_ik`` times its norm of fibre ``(i, k)``;
    - the unit-row products of ``(i, j) x (j, k)`` differ from the model's
      by at most ``√(2 (d_ij H_jk² + d_jk H_ij²))`` in norm, and the
      model's have singular values between ``(σ_min - H)²·√(k_jr/m_r)``
      and ``(σ_max + H)²·√(k_jr/m_r)`` over the summands ``r`` (one
      factor per fibre), so Weyl's inequality bounds the rank at ``rel``.

    Every bound adds the rounding of the measurement and of the battery it
    stands for, with generous constants.  ``bound`` and ``spans`` hold
    when their margins do; declining costs the dimension checks and at
    most the frames, and forms no basis product.
    """
    p, classes = b.blocks.p, _ShapeClasses(b)
    dim, sizes = classes.dim, classes.sizes
    if not dim.all() or (dim != dim.T).any():
        return NormalForm(classes)
    try:
        guess = _frames(b, dim)
    except np.linalg.LinAlgError:  # a decomposition did not converge
        guess = None
    if guess is None:
        return NormalForm(classes)
    frames, k, m = guess
    if (k @ k.T != dim).any():
        return NormalForm(classes)
    h, rho, nu = _form_residuals(classes, frames, k, m)
    sig = np.array([b.fibres[g].unit_sigmas
                    for g in b.blocks.arrows()]).reshape(p, p, 2)
    n = np.outer(sizes, sizes)
    slack = 8 * _EPS * (dim + n) * sig[..., 1]
    lo, hi = sig[..., 0] - slack, sig[..., 1] + slack
    # fell.axiom.2, over the pairs (i, j) x (j, k) at [i, j, k]; a
    # bundle of full fibres has an analytic row.
    bound = 0.0
    if frames is not None:
        theta = np.where(lo > 0, h / np.maximum(lo, _TINY_NORM), np.inf)
        norms = nu[:, :, None] * nu[None, :, :]
        rounding = 8 * _EPS * (sizes[None, :, None] + n[:, None, :] * (
            1 + (hi / np.maximum(lo, _TINY_NORM))[:, None, :]))
        bound = float((rho[:, :, None] * nu[None, :, :]
                       + nu[:, :, None] * rho[None, :, :]
                       + rounding * norms + theta[:, None, :]).max())
    # fell.saturated: σ_d(products) > rel σ_1(products) for every pair.
    q = np.sqrt(k / np.array(m))
    lo, hi = lo - h, hi + h
    dg, dh = dim[:, :, None], dim[None, :, :]
    drift = np.sqrt(2 * (dg * h[None, :, :] ** 2 + dh * h[:, :, None] ** 2))
    least = lo[:, :, None] * lo[None, :, :] * q.min(axis=1)[None, :, None]
    most = hi[:, :, None] * hi[None, :, :] * q.max(axis=1)[None, :, None]
    rounding = 8 * _EPS * (sizes[None, :, None] + dg * dh + n[:, None, :]) \
        * np.sqrt(dg * dh)
    spans = bool((lo > 0).all() and (least - drift - rounding > tol.rel * (
        most + drift + rounding)).all())
    return NormalForm(classes, k, m, bound if bound <= tol.rel else np.inf,
                      spans)


def _frames(b: FellBundleFD, dim: np.ndarray):
    """The guessed ``(frames, k, m)``: from the split of ``A_11``, carried
    along each ``E_j1``; None where a step does not split cleanly.  A
    full ``A_11`` is ``M_{n_1}``, one summand of multiplicity 1, whose
    bundle has only full fibres, in any frames (None)."""
    sizes = b.blocks.sizes
    if b.fibres[(1, 1)].is_full:
        if (dim != np.outer(sizes, sizes)).any():
            return None
        return None, np.array(sizes)[:, None], (1,)
    split = _split(b.fibres[(1, 1)].orthonormal)
    if split is None:
        return None
    frame, k1, m = split
    frames, k = [frame], [k1]
    for j in range(2, b.blocks.p + 1):
        moved = _transport(b.fibres[(j, 1)].orthonormal, frame, k1, m)
        if moved is None:
            return None
        frames.append(moved[0])
        k.append(moved[1])
    return frames, np.array(k), m


def _split(o: np.ndarray):
    """``(U, k, m)`` with ``U* A U = ⊕_r M_{k_r} ⊗ 1_{m_r}`` for the
    algebra ``A`` of orthonormal basis ``o``, or None.

    On the normal form, ``h = Ψ(y) + Φ(z)`` for seeded Hermitian ``y``,
    ``z`` (``Ψ`` the projection on ``A``, ``Φ(z) = Σ_t o_t z o_t*``, which
    lands in the commutant) is ``H_r ⊗ 1 + 1 ⊗ G_r`` on summand ``r``, so
    its eigenvectors are product vectors ``g_a ⊗ f_b`` up to phase.  In
    their basis ``Σ_t |o_t[x, y]|²`` is ``1/m_r`` for ``x``, ``y`` of one
    ``(r, b)`` and 0 otherwise, and ``|Σ_t conj(o_t[x, x]) o_t[y, y]|``
    likewise for one ``(r, a)``: the summands are the classes of the two
    relations together.  A seeded element of ``A`` then fixes the phases
    so that the frame is a tensor product."""
    d, n, _ = o.shape
    rng = np.random.default_rng(_FORM_SEED)
    y, z = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    flat = o.reshape(d, n * n)
    h = ((flat.conj() @ (y + y.conj().T).ravel()) @ flat).reshape(n, n)
    h += ((o @ (z + z.conj().T)).transpose(1, 0, 2).reshape(n, d * n)
          @ o.conj().transpose(0, 2, 1).reshape(d * n, n))
    _, q = np.linalg.eigh((h + h.conj().T) / 2)
    comp = q.conj().T @ o @ q
    diag = np.einsum("txx->tx", comp)
    labels = []
    for mass in (np.einsum("txy,txy->xy", comp, comp.conj()).real,
                 np.abs(diag.conj().T @ diag)):
        scale = np.sqrt(np.outer(mass.diagonal(), mass.diagonal()))
        same = mass > scale / 2
        first = same.argmax(axis=1)
        if not (mass.diagonal() > 0).all() or (
                same != (first[:, None] == first[None, :])).any():
            return None
        labels.append(first)
    b_of, a_of = labels
    # The summands: classes of "same a or same b", found by union.
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x
    for x in range(n):
        for other in (a_of[x], b_of[x]):
            root[find(x)] = find(int(other))
    summands: dict = {}
    for x in range(n):
        summands.setdefault(find(x), []).append(x)
    mixed = np.tensordot(w, comp, axes=1)
    cols, k, m = [], [], []
    for members in summands.values():
        a_cls = sorted({int(a_of[x]) for x in members})
        b_cls = sorted({int(b_of[x]) for x in members})
        grid = {(a_cls.index(a_of[x]), b_cls.index(b_of[x])): x
                for x in members}
        if len(grid) != len(members) or len(members) != len(a_cls) * len(
                b_cls):
            return None
        for a in range(len(a_cls)):
            for c in range(len(b_cls)):
                x, phase = grid[a, c], 1.0
                if a and c:
                    t = mixed[x, grid[0, c]] * np.conj(mixed[grid[a, 0],
                                                             grid[0, 0]])
                    if not abs(t) > 1e-6 * np.abs(mixed).max():
                        return None
                    phase = t / abs(t)
                cols.append(q[:, x] * phase)
        k.append(len(a_cls))
        m.append(len(b_cls))
    return np.stack(cols, axis=1), k, tuple(m)


def _transport(o: np.ndarray, frame: np.ndarray, k1, m):
    """``(U_j, k_j)`` carried from the frame ``U_1`` of object 1 along the
    fibre ``E_j1`` of orthonormal basis ``o``, or None.

    On the normal form, the images ``o_t x`` of the first frame vector
    ``x`` of summand ``r`` span ``U_j (C^{k_jr} ⊗ f_0)``, with every
    nonzero singular value ``1/√m_r``; the coefficients that make them
    orthonormal, applied to the other vectors ``U_1 (e_0 ⊗ f_b)``, give
    the same for every ``b``.  The polar factor of the columns is
    ``U_j``."""
    nj = o.shape[1]
    starts = np.cumsum([0] + [a * c for a, c in zip(k1, m)])
    images = o @ frame  # (d, n_j, n_1)
    cols, kj = [], []
    for start, mr in zip(starts, m):
        first = images[:, :, start:start + mr]  # the vectors e_0 ⊗ f_b
        _, s, vh = np.linalg.svd(first[:, :, 0].T, full_matrices=False)
        if not 0.5 < s[0] * np.sqrt(mr) < 2:
            return None
        rank = int(np.count_nonzero(s > s[0] / 2))
        coeff = vh[:rank].conj().T / s[:rank]
        # (n_j, rank, m_r): column (a, b) is e_a ⊗ f_b.
        cols.append(np.einsum("tib,ta->iab", first, coeff).reshape(nj, -1))
        kj.append(rank)
    cols = np.concatenate(cols, axis=1)
    if cols.shape[1] != nj:
        return None
    u, s, vh = np.linalg.svd(cols)
    if not (0.5 < s).all() or not (s < 2).all():
        return None
    return u @ vh, kj


def _form_residuals(classes: _ShapeClasses, frames, k: np.ndarray, m):
    """``(H, ρ, ν)``, ``(p, p)`` arrays: ``H`` the norm of the distances
    of a fibre's unit rows from the model ``U_i F_ij U_j*``, ``ρ`` the
    largest distance of a basis element, ``ν`` the largest norm of one,
    each distance raised by a bound on its rounding and on the frames'
    distance from unitarity.  The fibres of one ``(k_i, k_j)``, which
    fixes their shape class, are measured a run of
    :func:`~ncg.matops.runs` at a time.  Without frames every fibre is
    full, as is its model, at distance 0."""
    p, dim, sizes = len(classes.dim), classes.dim, classes.sizes
    h, rho, nu = np.zeros((3, p, p))
    if frames is None:
        return h, rho, nu
    defect = np.array([np.linalg.norm(u.conj().T @ u - np.eye(len(u)))
                       + 4 * _EPS * len(u) ** 1.5 for u in frames])
    i, j = np.indices((p, p)).reshape(2, -1)
    for key, t in runs((*k[i].T, *k[j].T), dim[i, j] * sizes[i] * sizes[j]):
        ki, kj, ii, jj = key[:len(m)], key[len(m):], i[t], j[t]
        cl, at = classes.key[ii[0], jj[0]], classes.pos[ii, jj]
        d, ni, nj = dim[ii[0], jj[0]], sizes[ii[0]], sizes[jj[0]]
        units = take(classes.spans[cl].stacked("units"), at)
        raw = take(classes.spans[cl].stacked("stack"), at)
        g = (np.stack([frames[i].conj().T for i in ii])[:, None]
             @ units @ np.stack([frames[j] for j in jj])[:, None])
        oi = np.cumsum([0] + [a * c for a, c in zip(ki, m)])
        oj = np.cumsum([0] + [a * c for a, c in zip(kj, m)])
        for r, mr in enumerate(m):
            rows, cols = slice(oi[r], oi[r + 1]), slice(oj[r], oj[r + 1])
            blk = g[..., rows, cols].reshape(len(t), d, ki[r], mr, kj[r], mr)
            x = np.einsum("ftabcb->ftac", blk) / mr
            g[..., rows, cols] = (blk - x[:, :, :, None, :, None]
                                  * np.eye(mr)[:, None, :]).reshape(
                len(t), d, ki[r] * mr, kj[r] * mr)
        eta = row_norms(g.reshape(-1, ni * nj)).reshape(len(t), d)
        norms = row_norms(raw.reshape(-1, ni * nj)).reshape(len(t), d)
        slack = (8 * _EPS * (ni + nj + 2) * np.sqrt(ni * nj)
                 + 2 * (defect[ii] + defect[jj]))
        eta = eta + slack[:, None]
        h[ii, jj] = np.sqrt(np.einsum("fd,fd->f", eta, eta))
        rho[ii, jj] = (eta * norms).max(axis=1)
        nu[ii, jj] = norms.max(axis=1) * (1 + 8 * _EPS * ni * nj)
    return h, rho, nu


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
    stacks = {}
    try:
        for key, mats in data.items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise InputError(f"{label} key {key!r} is not of the form "
                                 f"'i,j'")
            if not (1 <= i <= blocks.p and 1 <= j <= blocks.p):
                raise InputError(f"{label} key {key!r} out of range for "
                                 f"{blocks.p} objects")
            if (i, j) in stacks:
                raise InputError(f"{label} key {key!r} repeats arrow "
                                 f"({i},{j})")
            stacks[(i, j)] = stack_from_json(
                mats, blocks.sizes[i - 1], blocks.sizes[j - 1],
                f"{label} {key}")
    except NcgError:
        # Fibres are refused in key order: a dependent one read before
        # the faulty entry comes first.
        SubspaceBasis.batch(list(stacks.values()))
        raise
    return dict(zip(stacks, SubspaceBasis.batch(list(stacks.values()))))


def bundle_to_json(b: FellBundleFD) -> dict:
    return {"blocks": list(b.blocks.sizes), "fibres": fibres_to_json(b.fibres)}


def bundle_from_json(data) -> FellBundleFD:
    """Decode ``{"blocks": [...], "fibres": {"i,j": [matrix, ...]}}``;
    omitted arrows get the zero fibre."""
    if not isinstance(data, dict) or "blocks" not in data:
        raise InputError("bundle: expected an object with a 'blocks' key")
    blocks = blocks_from_json(data["blocks"])
    return FellBundleFD(blocks, fibres_from_json(data.get("fibres"), blocks))

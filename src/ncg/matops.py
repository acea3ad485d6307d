"""Dense complex linear algebra kernel used by every other module.

Matrices are plain ``numpy.ndarray`` values with complex128 entries and are
treated as immutable; every function here is pure, so everything is safe to
call concurrently.  The JSON wire format shared by the whole package encodes
a complex scalar as a two-element array ``[re, im]`` and a matrix as an
array of rows.  In memory a document holds its matrices and basis stacks as
ndarrays, converted to and from text once, at the file boundary:
:func:`write_json` is the single writer, byte for byte
``json.dumps(obj, indent=2, sort_keys=True)`` of the document with each
array spelled as its nested lists of pairs, and :func:`matrix_from_json` /
:func:`stack_from_json` decode a whole matrix or basis list in one
checked step, falling back to a cell-by-cell decoder that names the fault.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import InputError, ShapeError


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute Frobenius tolerances for numerical predicates.

    Comparisons are scaled by ``max(1, scale)`` where ``scale`` is a
    Frobenius-norm measure of the inputs, so the defaults behave like
    double-precision slack at desk scale.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.rel) and math.isfinite(self.abs)):
            raise InputError("tolerances must be finite")
        if self.rel < 0 or self.abs < 0:
            raise InputError("tolerances must be nonnegative")

    def bound(self, scale: float = 1.0) -> float:
        """Largest residual accepted for inputs of the given size."""
        return max(self.abs, self.rel * max(1.0, scale))


DEFAULT_TOL = Tolerance()

# Complex entries (1 MiB) of the stacks that one batched call takes;
# a single stack with more entries runs alone.
BATCH_ENTRIES = 2 ** 16


def as_matrix(value, label: str = "matrix", shape=None) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting empty or non-finite input
    and, when ``shape`` is given, any other shape."""
    m = np.asarray(value, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"{label}: expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError(f"{label}: matrix is empty")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{label}: entries must be finite")
    if shape is not None and m.shape != shape:
        raise ShapeError(f"{label}: shape {m.shape}, expected {shape}")
    return m


def require_unitary(u, n: int, tol: Tolerance, label: str) -> np.ndarray:
    """:func:`as_matrix` for an ``n x n`` unitary; a non-unitary input is
    an :class:`InputError` carrying the residual ``‖u*u - I‖``."""
    u = as_matrix(u, label, (n, n))
    defect = frobenius(adjoint(u) @ u - np.eye(n))
    if defect > tol.bound(float(np.sqrt(n))):
        raise InputError(f"{label} is not unitary (residual {defect:.3e})")
    return u


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def is_partial_isometry(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``v v* v = v`` within tolerance.

    Equivalent to ``v (v*v - I) = 0``; projections and unitaries qualify.
    """
    v = as_matrix(v, "is_partial_isometry")
    defect = frobenius(v @ adjoint(v) @ v - v)
    scale = max(1.0, frobenius(v)) ** 3
    return defect <= tol.bound(scale)


def numerical_rank(flat: np.ndarray, rel: float) -> int:
    """Rank of a stack of row vectors; singular values below
    ``rel * s_max`` count as zero."""
    if flat.shape[0] == 0 or flat.shape[1] == 0:
        return 0
    s = np.linalg.svd(flat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel * s[0]))


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Copy of a complex array with every element along its first axis
    scaled to unit Frobenius norm; a zero element stays zero.

    Each element is first scaled by a power of two to a largest real or
    imaginary part in [0.5, 1), exactly, so that its norm is at least 0.5
    and cannot overflow or underflow before the division."""
    a = np.ascontiguousarray(a, dtype=complex)
    parts = a.reshape(a.shape[0], math.prod(a.shape[1:])).view(float)
    _, exp = np.frexp(np.abs(parts).max(axis=1))
    unit = np.ldexp(parts, -exp[:, None])
    norms = np.sqrt(np.einsum("ij,ij->i", unit, unit))
    unit /= np.maximum(norms, 0.5)[:, None]
    return unit.view(complex).reshape(a.shape)


def row_norms(flat: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a 2-D complex array, summed on its
    real view, so that no conjugate copy is made."""
    parts = np.ascontiguousarray(flat).view(float)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


class SubspaceBasis:
    """A linear subspace of ``rows x cols`` complex matrices, stored as an
    explicit linearly independent basis: an iterable of matrices, each
    checked by :func:`as_matrix`, or one finite ``(k, rows, cols)`` array,
    checked at once.  Instances are immutable.

    The basis is validated for independence at construction (numerical rank
    of the flattened stack, each element scaled to unit norm, must equal
    its length), and keeps one factor of that SVD, ``vh``: its first ``k``
    rows are an orthonormal basis of the span, and a basis that fills at
    least half its space (``2k >= N``, ``N = rows * cols``) keeps all
    ``N``, the last ``N - k`` spanning the complement.  It keeps no
    conjugate; :class:`SpanStack` forms them.  ``units`` keeps the stack
    scaled to unit rows (:func:`unit_rows`) and ``unit_sigmas`` the least
    and largest singular values of those rows, which bound how far the
    basis is from orthonormal.  The row-major matrix units, bit for bit,
    are recognised without an SVD: they are their own unit rows and
    ``vh``, with singular values 1, as the SVD returns.  :meth:`batch`
    decides many stacks at once, one vectorised pass per shape; a single
    basis is a batch of one.

    Distances to the span (:meth:`residuals`) are taken one of two ways,
    chosen by ``k`` and ``N`` alone: ``‖W̄ p‖`` for the complement rows
    ``W`` of a basis at least half full, one GEMM of width ``N - k``,
    exactly 0 for a full basis; for a thinner basis, whose complement
    would be up to ``N x N``, what the projection leaves,
    ``‖p - V̄ᵀ(V̄ p)‖`` for the orthonormal basis ``V``.
    """

    __slots__ = ("rows", "cols", "stack", "units", "unit_sigmas", "_vh")

    def __init__(self, rows: int, cols: int, matrices: Iterable,
                 tol: Tolerance = DEFAULT_TOL, *, _parts=None):
        # ``_parts``: the stack and its :func:`_orthonormal_bases` entry,
        # when :meth:`batch` has decided them.
        if _parts is None:
            stack = _basis_stack(rows, cols, matrices)
            _parts = (stack, *_orthonormal_bases([stack], tol)[0])
        self.stack, self.units, self._vh, self.unit_sigmas = _parts
        _, self.rows, self.cols = self.stack.shape

    @classmethod
    def batch(cls, stacks, tol: Tolerance = DEFAULT_TOL) -> list:
        """One basis per ``(k, rows, cols)`` stack of :func:`stack_from_json`
        (complex, C-contiguous, finite), in order.  The stacks of one shape
        are decided together, by one :func:`unit_rows` and one stacked SVD
        per run of :func:`runs`; a dependent stack is refused as by the
        constructor, the first in order."""
        return [cls(*stack.shape[1:], None, tol, _parts=(stack, *parts))
                for stack, parts in zip(stacks,
                                        _orthonormal_bases(stacks, tol))]

    @property
    def dim(self) -> int:
        return self.stack.shape[0]

    @property
    def is_full(self) -> bool:
        """The span is the whole ``rows x cols`` matrix space: the basis
        is independent, so this is ``dim == rows * cols``."""
        return self.dim == self.rows * self.cols

    @property
    def orthonormal(self) -> np.ndarray:
        """The ``(dim, rows, cols)`` orthonormal basis of the span."""
        return self._vh[:self.dim].reshape(self.dim, self.rows, self.cols)

    @property
    def ambient_shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __repr__(self):
        return (f"SubspaceBasis({self.rows}x{self.cols}, dim={self.dim})")

    def residual(self, x: np.ndarray) -> float:
        """Frobenius distance from ``x`` to the span; 0 iff it belongs."""
        x = as_matrix(x, "residual", (self.rows, self.cols))
        return float(self.residuals(x[None])[0])

    def residuals(self, stack: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`residual` for a ``(k, rows, cols)`` stack, by
        a :class:`SpanStack` of one: the norm of each element's part in
        the complement, ``W̄ p``, or of what its projection leaves."""
        if stack.ndim != 3 or stack.shape[1:] != (self.rows, self.cols):
            raise ShapeError(f"residuals: stack shape {stack.shape}, "
                             f"expected (k, {self.rows}, {self.cols})")
        flat = stack.reshape(1, len(stack), self.rows * self.cols)
        return SpanStack((self,)).residuals(flat, [0])[0]


def _basis_stack(rows: int, cols: int, matrices: Iterable) -> np.ndarray:
    """The complex ``(k, rows, cols)`` stack of a basis given as an
    iterable of matrices, each checked by :func:`as_matrix`, or as one
    finite ``(k, rows, cols)`` array, checked at once."""
    rows = int(rows)
    cols = int(cols)
    if rows < 1 or cols < 1:
        raise ShapeError("SubspaceBasis: ambient shape must be positive")
    if (isinstance(matrices, np.ndarray)
            and matrices.dtype.kind in "biufc"
            and matrices.shape[1:] == (rows, cols)
            and np.isfinite(matrices).all()):
        return np.array(matrices, dtype=complex, order="C")
    mats = [as_matrix(m, f"SubspaceBasis element {k}", (rows, cols))
            for k, m in enumerate(matrices)]
    return (np.stack(mats) if mats
            else np.zeros((0, rows, cols), dtype=complex))


def _orthonormal_bases(stacks, tol: Tolerance) -> list:
    """``(units, vh, (σ_min, σ_max))`` of each stack of a list: its
    :func:`unit_rows`, ``vh`` of their SVD, all ``N = rows * cols`` rows
    of it for a stack of ``2k >= N`` elements, and the extreme singular
    values.  The row-major matrix units, bit for bit, are their own unit
    rows and ``vh``, with singular values 1.  Stacks of one shape share
    each vectorised step, a run of :func:`runs` at a time; a stack whose
    unit rows have numerical rank below ``k`` is refused, the first in
    order."""
    if not stacks:
        return []
    out = [None] * len(stacks)
    shapes = np.array([s.shape for s in stacks], dtype=np.int64).reshape(-1, 3)
    refused = []
    for (k, rows, cols), run in runs(shapes.T, shapes.prod(axis=1)):
        n, chunk = rows * cols, run.tolist()
        if not k:
            vh = np.zeros((0, n), dtype=complex)
            for idx in chunk:
                out[idx] = (stacks[idx], vh, (0.0, 0.0))
            continue
        flats = np.stack([stacks[idx] for idx in chunk]).reshape(-1, k, n)
        rest = np.arange(len(chunk))
        if k == n:
            # The identity: its diagonal holds the only nonzero words.
            identity = (flats.reshape(len(chunk), -1)[:, ::k + 1]
                        == 1).all(axis=1)
            if identity.any():
                words = flats.view(np.uint64).reshape(len(chunk), -1)
                identity &= np.count_nonzero(words, axis=1) == k
            for pos in np.flatnonzero(identity).tolist():
                stack = stacks[chunk[pos]]
                out[chunk[pos]] = (stack, stack.reshape(k, n), (1.0, 1.0))
            rest = rest[~identity]
        if not len(rest):
            continue
        # Rank of the unit-norm rows, so that elements of very different
        # size count alike.
        units = unit_rows(take(flats, rest).reshape(-1, n)).reshape(
            -1, k, rows, cols)
        _, s, vh = np.linalg.svd(units.reshape(-1, k, n),
                                 full_matrices=2 * k >= n)
        ranks = np.count_nonzero(s > tol.rel * s[:, :1], axis=1).tolist()
        sigmas = s[:, [-1, 0]].tolist()
        for c, pos in enumerate(rest.tolist()):
            if ranks[c] != k:
                refused.append((chunk[pos], ranks[c], k))
            out[chunk[pos]] = (units[c], vh[c], tuple(sigmas[c]))
    if refused:
        _, rank, k = min(refused)
        raise InputError(f"SubspaceBasis: basis is linearly dependent "
                         f"(rank {rank} < {k})")
    return out


def runs(keys, entries: np.ndarray) -> list:
    """The items of stacked calls cut into runs: sorted stably by their
    class, the tuple of their values in the integer arrays ``keys``, and
    each class cut into runs of consecutive items whose ``entries``
    (complex entries per item, alike within a class) fill
    :data:`BATCH_ENTRIES`, at least one item per run.  ``(key, items)``
    for each run, classes in ascending order: ``key`` the class and
    ``items`` the index array of its items."""
    order = np.lexsort(keys[::-1])
    cols = [c[order] for c in keys]
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    steps = BATCH_ENTRIES // np.maximum(entries[order[starts]], 1)
    bounds = [*starts.tolist(), len(order)]
    return [(key, order[s:min(s + step, stop)])
            for key, start, stop, step in zip(
                zip(*(c[starts].tolist() for c in cols)), bounds, bounds[1:],
                np.maximum(steps, 1).tolist())
            for s in range(start, stop, step)]


def take(a: np.ndarray, which) -> np.ndarray:
    """``a[which]`` for an index array, a view of ``a`` for one index."""
    return a[which[0]:which[0] + 1] if len(which) == 1 else a[which]


class SpanStack:
    """Bases of one shape and dimension, the one place where operands of
    a class of bases are stacked, each on first use: ``stack``,
    ``units``, the orthonormal rows ``onb`` of each ``vh``, their
    conjugates ``onb_conj`` and the conjugated complement rows
    ``perp_rows``, passed as their transposes.  One stacked matmul then
    measures or compresses a batch of elements, element ``t`` against
    basis ``which[t]``; a single basis is a stack of one."""

    __slots__ = ("bases", "_stacks")

    _OPERANDS = {
        "stack": lambda s: np.stack([b.stack for b in s.bases]),
        "units": lambda s: np.stack([b.units for b in s.bases]),
        "onb": lambda s: np.stack([b._vh[:b.dim] for b in s.bases]),
        "onb_conj": lambda s: s.stacked("onb").conj(),
        "perp_rows": lambda s: _conj_stack([b._vh[b.dim:] for b in s.bases])}

    def __init__(self, bases):
        self.bases = bases
        self._stacks: dict = {}

    def stacked(self, name: str) -> np.ndarray:
        """Operand ``name`` of every basis, stacked in order, formed
        once."""
        if name not in self._stacks:
            self._stacks[name] = self._OPERANDS[name](self)
        return self._stacks[name]

    def residuals(self, flat: np.ndarray, which) -> np.ndarray:
        """:meth:`SubspaceBasis.residuals` of the rows ``flat[t]`` of an
        ``(m, c, rows * cols)`` array from basis ``which[t]``, as an
        ``(m, c)`` array."""
        b = self.bases[0]
        if 2 * b.dim < b.rows * b.cols:
            conj = take(self.stacked("onb_conj"), which).transpose(0, 2, 1)
            part = flat - (flat @ conj) @ take(self.stacked("onb"), which)
        else:
            part = flat @ take(self.stacked("perp_rows"),
                               which).transpose(0, 2, 1)
        m, c, width = part.shape
        return row_norms(part.reshape(m * c, width)).reshape(m, c)

    def compress(self, grams: np.ndarray, which) -> np.ndarray:
        """``V G Vᴴ`` for each ``G = grams[t]``, ``V`` the orthonormal
        basis ``which[t]``: ``CᴴC`` for the coordinates ``C = P V̄ᵀ`` of
        elements ``P`` whose flattened Gram matrix is ``G = PᴴP``."""
        return (take(self.stacked("onb"), which) @ grams
                @ take(self.stacked("onb_conj"), which).transpose(0, 2, 1))


def _conj_stack(arrays: list) -> np.ndarray:
    """``np.stack(arrays).conj()``, written in one pass."""
    out = np.empty((len(arrays), *arrays[0].shape), dtype=complex)
    for a, part in zip(arrays, out):
        np.conjugate(a, out=part)
    return out


# JSON numbers decode to exactly these types; ``bool`` is excluded.
_REAL = frozenset({int, float})
# Largest accepted real or imaginary part.  The Frobenius norm of a
# product of up to three matrices squares a sixth power of an entry:
# 1e48**6 = 1e288 leaves room below the float64 overflow for desk-scale
# sums and sizes.
ENTRY_BOUND = 1e48


def matrix_from_json(data, label: str = "matrix", shape=None) -> np.ndarray:
    """Decode the ``[re, im]`` row encoding, with location diagnostics;
    a part larger than ``1e48`` in magnitude is refused, and ``shape`` is
    checked as in :func:`as_matrix`."""
    m = _checked_array(data, 2)
    if m is None or (shape is not None and m.shape != shape):
        return _matrix_from_cells(data, label, shape)
    return m


def stack_from_json(data, rows: int, cols: int,
                    label: str = "fibre") -> np.ndarray:
    """Decode a list of ``rows x cols`` matrices into the stack that
    :meth:`SubspaceBasis.batch` takes."""
    if not isinstance(data, list):
        raise InputError(f"{label}: expected an array of matrices")
    stack = _checked_array(data, 3)
    if stack is None or stack.shape[1:] != (rows, cols):
        return _basis_stack(rows, cols, [
            _matrix_from_cells(m, f"{label}[{k}]")
            for k, m in enumerate(data)])
    return stack


def _checked_array(data, ndim: int):
    """The complex array of a nonempty rectangular nested list, ``ndim``
    levels of lists over ``[re, im]`` pairs whose parts are exact ints or
    floats of magnitude at most :data:`ENTRY_BOUND`, decoded in one step;
    None for anything else, which :func:`_matrix_from_cells` then names."""
    shape, level = [], [data]
    for _ in range(ndim + 1):
        if set(map(type, level)) != {list}:
            return None
        sizes = set(map(len, level))
        if len(sizes) != 1 or 0 in sizes:
            return None
        shape.extend(sizes)
        level = list(chain.from_iterable(level))
    types = set(map(type, level))
    if shape[-1] != 2 or not types <= _REAL:
        return None
    # Compared on the Python numbers: an int just above the bound would
    # round to it as a float.
    if int in types and not max(map(abs, level)) <= ENTRY_BOUND:
        return None
    parts = np.array(level, dtype=float)
    if not (np.abs(parts) <= ENTRY_BOUND).all():  # False for nan, too
        return None
    return parts.view(complex).reshape(shape[:-1])


def _matrix_from_cells(data, label: str, shape=None) -> np.ndarray:
    """:func:`matrix_from_json` cell by cell, refusing the first fault in
    reading order by its location."""
    if not isinstance(data, list) or not data:
        raise InputError(f"{label}: expected a nonempty array of rows")
    ncols = None
    rows = []
    for r, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise InputError(f"{label}: row {r} is not a nonempty array")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise InputError(
                f"{label}: row {r} has length {len(row)}, expected {ncols}"
            )
        out = []
        for c, cell in enumerate(row):
            if (not isinstance(cell, (list, tuple)) or len(cell) != 2
                    or type(cell[0]) not in _REAL
                    or type(cell[1]) not in _REAL):
                raise InputError(
                    f"{label}: entry ({r},{c}) is not an [re, im] pair"
                )
            if abs(cell[0]) > ENTRY_BOUND or abs(cell[1]) > ENTRY_BOUND:
                raise InputError(f"{label}: entry ({r},{c}) exceeds the "
                                 f"magnitude bound {ENTRY_BOUND:g}")
            out.append(complex(cell[0], cell[1]))
        rows.append(out)
    return as_matrix(rows, label, shape)


def write_json(obj, write) -> None:
    """Pass ``json.dumps(obj, indent=2, sort_keys=True)`` to ``write``
    piece by piece, where an ndarray stands for its nested list of
    numbers, a complex entry as an ``[re, im]`` pair.

    Dicts with string keys, and lists that hold an array, are walked.  A
    nonempty finite float or complex array fills a ``%r`` template of its
    indent layout from one ``tolist()`` of its parts; ``%r`` is the
    ``repr`` that ``json`` writes numbers with.  Each distinct array is
    formatted once per document: a repeat, equal in part shape, indent,
    dtype and bytes, writes the stored text again.  A first pass counts
    the arrays by a hash of their content, and only the text of an array
    whose content occurs more than once is stored.  Anything else, an
    empty or non-finite array's nested list included, is spelled by
    ``json.dumps`` and re-indented, which is exact because JSON text holds
    no raw newline inside a string.
    """
    counts = Counter(hash(_content(_parts(a))) for a in _arrays(obj))
    _write_json(obj, write, "\n", {h for h, n in counts.items() if n > 1}, {})


def _write_json(obj, write, nl: str, repeated: set, texts: dict) -> None:
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        parts = _parts(obj)
        if parts.dtype.kind == "f" and parts.size and np.isfinite(parts).all():
            key = _repeat_key(parts, nl, repeated)
            text = texts.get(key)
            if text is None:
                text = (_array_template(parts.shape, nl)
                        % tuple(parts.ravel().tolist()))
                if key:
                    texts[key] = text
            write(text)
        else:
            _write_json(parts.tolist(), write, nl, repeated, texts)
    elif isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        write("{")
        for k, key in enumerate(sorted(obj)):
            write(("," if k else "") + inner + json.dumps(key) + ": ")
            _write_json(obj[key], write, inner, repeated, texts)
        write(nl + "}")
    elif isinstance(obj, list) and next(_arrays(obj), None) is not None:
        write("[")
        for k, item in enumerate(obj):
            write(("," if k else "") + inner)
            _write_json(item, write, inner, repeated, texts)
        write(nl + "]")
    else:
        write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))


def _parts(a: np.ndarray) -> np.ndarray:
    """``a`` with each complex entry spelled as its two real parts."""
    if a.dtype.kind != "c":
        return a
    return np.ascontiguousarray(a).view(a.real.dtype).reshape(a.shape + (2,))


def _content(parts: np.ndarray) -> tuple:
    """Shape, dtype and bytes: what the text of an array depends on,
    with its indent."""
    return parts.shape, parts.dtype.str, parts.tobytes()


def _repeat_key(parts: np.ndarray, nl: str, repeated: set):
    """The key of an array's stored text, or None for an array whose
    content occurs once, which then keeps no copy of its bytes."""
    content = _content(parts)
    return (nl, content) if hash(content) in repeated else None


def _arrays(obj):
    """Every ndarray in a nest of dicts and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (dict, list)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(item)


def _array_template(shape: tuple, nl: str) -> str:
    """The text ``json.dumps(indent=2)`` gives a nested list of ``shape``
    opened at the indent of ``nl``, with ``%r`` for each number."""
    if not shape:
        return "%r"
    inner = nl + "  "
    item = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"

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
:func:`subspace_from_json` decode a whole matrix or basis list in one
checked step, falling back to a cell-by-cell decoder that names the fault.
"""

from __future__ import annotations

import json
import math
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


def operator_norm(m) -> float:
    """Largest singular value; realizes the C*-norm on matrices."""
    m = as_matrix(m, "operator_norm")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def is_partial_isometry(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``v v* v = v`` within tolerance.

    Equivalent to ``v (v*v - I) = 0``; projections and unitaries qualify.
    """
    v = as_matrix(v, "is_partial_isometry")
    defect = frobenius(v @ adjoint(v) @ v - v)
    scale = max(1.0, frobenius(v)) ** 3
    return defect <= tol.bound(scale)


def hermitian_spectrum(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Raises :class:`InputError` when the input is not Hermitian within
    tolerance.  The sum of the returned values equals the trace up to
    rounding.
    """
    m = as_matrix(m, "hermitian_spectrum")
    if m.shape[0] != m.shape[1]:
        raise ShapeError("hermitian_spectrum: matrix must be square")
    herm_defect = frobenius(m - adjoint(m))
    if herm_defect > tol.bound(max(1.0, frobenius(m))):
        raise InputError(
            f"hermitian_spectrum: input is not Hermitian "
            f"(‖m - m*‖ = {herm_defect:.3e})"
        )
    return np.linalg.eigvalsh((m + adjoint(m)) / 2.0)


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


class SubspaceBasis:
    """A linear subspace of ``rows x cols`` complex matrices, stored as an
    explicit linearly independent basis.

    The basis is validated for independence at construction (numerical rank
    of the flattened stack, each element scaled to unit norm, must equal
    its length) and an orthonormal basis and its conjugate are precomputed
    for fast membership tests.  The basis is an iterable of matrices, each
    checked by :func:`as_matrix`, or one finite ``(k, rows, cols)`` array,
    checked at once.  Instances are immutable.
    """

    __slots__ = ("rows", "cols", "stack", "_onb", "_onb_conj")

    def __init__(self, rows: int, cols: int, matrices: Iterable,
                 tol: Tolerance = DEFAULT_TOL):
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ShapeError("SubspaceBasis: ambient shape must be positive")
        if (isinstance(matrices, np.ndarray)
                and matrices.dtype.kind in "biufc"
                and matrices.shape[1:] == (rows, cols)
                and np.isfinite(matrices).all()):
            stack = np.array(matrices, dtype=complex, order="C")
        else:
            mats = [as_matrix(m, f"SubspaceBasis element {k}", (rows, cols))
                    for k, m in enumerate(matrices)]
            stack = (np.stack(mats) if mats
                     else np.zeros((0, rows, cols), dtype=complex))
        k = len(stack)
        if k:
            # Rank of the unit-norm rows, so that elements of very
            # different size count alike.
            u, s, vh = np.linalg.svd(unit_rows(stack.reshape(k, rows * cols)),
                                     full_matrices=False)
            rank = int(np.count_nonzero(s > tol.rel * s[0])) if s[0] else 0
            if rank != k:
                raise InputError(
                    f"SubspaceBasis: basis is linearly dependent "
                    f"(rank {rank} < {k})"
                )
            onb = vh[:rank]
        else:
            onb = np.zeros((0, rows * cols), dtype=complex)
        self.rows = rows
        self.cols = cols
        self.stack = stack
        self._onb = onb
        self._onb_conj = onb.conj()

    @property
    def dim(self) -> int:
        return self.stack.shape[0]

    @property
    def ambient_shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __iter__(self):
        return iter(self.stack)

    def __repr__(self):
        return (f"SubspaceBasis({self.rows}x{self.cols}, dim={self.dim})")

    def residual(self, x: np.ndarray) -> float:
        """Frobenius distance from ``x`` to the span; 0 iff it belongs."""
        v = as_matrix(x, "residual", (self.rows, self.cols)).reshape(-1)
        proj = self._onb.T @ (self._onb_conj @ v)
        return float(np.linalg.norm(v - proj))

    def coordinates(self, stack: np.ndarray) -> np.ndarray:
        """``(k, dim)`` coordinates, in the span's orthonormal basis, of
        the projections of a ``(k, rows, cols)`` stack."""
        if stack.ndim != 3 or stack.shape[1:] != (self.rows, self.cols):
            raise ShapeError(f"coordinates: stack shape {stack.shape}, "
                             f"expected (k, {self.rows}, {self.cols})")
        flat = stack.reshape(stack.shape[0], self.rows * self.cols)
        return flat @ self._onb_conj.T

    def residuals(self, stack: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`residual` for a ``(k, rows, cols)`` stack."""
        coords = self.coordinates(stack)
        flat = stack.reshape(len(stack), self.rows * self.cols)
        return np.linalg.norm(flat - coords @ self._onb, axis=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the span."""
        x = as_matrix(x, "project", (self.rows, self.cols))
        v = x.reshape(-1)
        proj = self._onb.T @ (self._onb_conj @ v)
        return proj.reshape(self.rows, self.cols)


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


def subspace_from_json(data, rows: int, cols: int,
                       label: str = "fibre") -> SubspaceBasis:
    """Decode a list of ``rows x cols`` matrices into their span."""
    if not isinstance(data, list):
        raise InputError(f"{label}: expected an array of matrices")
    stack = _checked_array(data, 3)
    if stack is None or stack.shape[1:] != (rows, cols):
        stack = [_matrix_from_cells(m, f"{label}[{k}]")
                 for k, m in enumerate(data)]
    return SubspaceBasis(rows, cols, stack)


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
    ``repr`` that ``json`` writes numbers with.  Anything else, an empty or
    non-finite array's nested list included, is spelled by ``json.dumps``
    and re-indented, which is exact because JSON text holds no raw newline
    inside a string.
    """
    _write_json(obj, write, "\n")


def _write_json(obj, write, nl: str) -> None:
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        parts = (np.ascontiguousarray(obj).view(obj.real.dtype)
                 .reshape(obj.shape + (2,)) if obj.dtype.kind == "c"
                 else obj)
        if parts.dtype.kind == "f" and parts.size and np.isfinite(parts).all():
            write(_array_template(parts.shape, nl)
                  % tuple(parts.ravel().tolist()))
        else:
            _write_json(parts.tolist(), write, nl)
    elif isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        write("{")
        for k, key in enumerate(sorted(obj)):
            write(("," if k else "") + inner + json.dumps(key) + ": ")
            _write_json(obj[key], write, inner)
        write(nl + "}")
    elif isinstance(obj, list) and _holds_array(obj):
        write("[")
        for k, item in enumerate(obj):
            write(("," if k else "") + inner)
            _write_json(item, write, inner)
        write(nl + "]")
    else:
        write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))


def _holds_array(obj) -> bool:
    """Whether an ndarray sits anywhere in a nest of dicts and lists."""
    if isinstance(obj, dict):
        return any(map(_holds_array, obj.values()))
    if isinstance(obj, list):
        return any(map(_holds_array, obj))
    return isinstance(obj, np.ndarray)


def _array_template(shape: tuple, nl: str) -> str:
    """The text ``json.dumps(indent=2)`` gives a nested list of ``shape``
    opened at the indent of ``nl``, with ``%r`` for each number."""
    if not shape:
        return "%r"
    inner = nl + "  "
    item = _array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"

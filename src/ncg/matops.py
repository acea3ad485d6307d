"""Dense complex linear algebra kernel used by every other module.

Matrices are plain ``numpy.ndarray`` values with complex128 entries and are
treated as immutable; every function here is pure, so everything is safe to
call concurrently.  The JSON wire format shared by the whole package encodes
a complex scalar as a two-element array ``[re, im]`` and a matrix as an
array of rows; :func:`matrix_to_json` / :func:`matrix_from_json` are the
normative codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


class SubspaceBasis:
    """A linear subspace of ``rows x cols`` complex matrices, stored as an
    explicit linearly independent basis.

    The basis is validated for independence at construction (numerical rank
    of the flattened stack must equal its length) and an orthonormal basis
    is precomputed for fast membership tests.  Instances are immutable.
    """

    __slots__ = ("rows", "cols", "stack", "_onb")

    def __init__(self, rows: int, cols: int, matrices: Iterable,
                 tol: Tolerance = DEFAULT_TOL):
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ShapeError("SubspaceBasis: ambient shape must be positive")
        mats = [as_matrix(m, f"SubspaceBasis element {k}", (rows, cols))
                for k, m in enumerate(matrices)]
        stack = (np.stack(mats) if mats
                 else np.zeros((0, rows, cols), dtype=complex))
        flat = stack.reshape(len(mats), rows * cols)
        if mats:
            u, s, vh = np.linalg.svd(flat, full_matrices=False)
            rank = int(np.count_nonzero(s > tol.rel * s[0])) if s[0] else 0
            if rank != len(mats):
                raise InputError(
                    f"SubspaceBasis: basis is linearly dependent "
                    f"(rank {rank} < {len(mats)})"
                )
            onb = vh[:rank]
        else:
            onb = np.zeros((0, rows * cols), dtype=complex)
        self.rows = rows
        self.cols = cols
        self.stack = stack
        self._onb = onb

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
        proj = self._onb.T @ (self._onb.conj() @ v)
        return float(np.linalg.norm(v - proj))

    def residuals(self, stack: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`residual` for a ``(k, rows, cols)`` stack."""
        if stack.shape[0] == 0:
            return np.zeros(0)
        flat = stack.reshape(stack.shape[0], -1)
        proj = (flat @ self._onb.conj().T) @ self._onb
        return np.linalg.norm(flat - proj, axis=1)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the span."""
        x = as_matrix(x, "project")
        v = x.reshape(-1)
        proj = self._onb.T @ (self._onb.conj() @ v)
        return proj.reshape(self.rows, self.cols)


def matrix_to_json(m: np.ndarray) -> list:
    """Encode a matrix as rows of ``[re, im]`` pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


# JSON numbers decode to exactly these types; ``bool`` is excluded.
_REAL = (int, float)
# Largest accepted real or imaginary part.  The highest power of an entry
# any battery forms is the sixth: the associativity row takes the
# Frobenius norm of products of three Fell fibre elements.  1e48**6 = 1e288
# leaves room below the float64 overflow for desk-scale sums and sizes.
_ENTRY_BOUND = 1e48


def matrix_from_json(data, label: str = "matrix", shape=None) -> np.ndarray:
    """Decode the ``[re, im]`` row encoding, with location diagnostics;
    a part larger than ``1e48`` in magnitude is refused, and ``shape`` is
    checked as in :func:`as_matrix`."""
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
            if abs(cell[0]) > _ENTRY_BOUND or abs(cell[1]) > _ENTRY_BOUND:
                raise InputError(f"{label}: entry ({r},{c}) exceeds the "
                                 f"magnitude bound {_ENTRY_BOUND:g}")
            out.append(complex(cell[0], cell[1]))
        rows.append(out)
    return as_matrix(rows, label, shape)


def subspace_to_json(s: SubspaceBasis) -> list:
    return [matrix_to_json(m) for m in s.stack]


def subspace_from_json(data, rows: int, cols: int,
                       label: str = "fibre") -> SubspaceBasis:
    if not isinstance(data, list):
        raise InputError(f"{label}: expected an array of matrices")
    mats: Sequence[np.ndarray] = [
        matrix_from_json(m, f"{label}[{k}]") for k, m in enumerate(data)
    ]
    return SubspaceBasis(rows, cols, mats)

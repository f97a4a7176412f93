"""Scaled-Legendre projection operators.

The continuous-time memory system projects a history signal f onto the
orthonormal basis g_n(x) = sqrt(2n+1) P_n(2x/t - 1) over the expanding
window [0, t]. This module builds the fixed state matrices of that system
and evaluates the basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerated overshoot of |z| beyond 1 before evaluation is rejected; absorbs
# roundoff in 2x/t - 1 at x = t.
CLAMP_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_index(name: str, value: object, minimum: int = 1) -> int:
    """value as a Python int of at least `minimum`, the one check of a size.

    bool, floats and strings raise TypeError; smaller integers ValueError.
    """
    try:
        if isinstance(value, bool):  # operator.index accepts True as 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if index < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {index}")
    return index


def _fold_case(cls, value: object, noun: str):
    """The `_missing_` of the string enums: Scheme("ZOH") is Scheme.ZOH."""
    for member in cls:
        if member.value == str(value).lower():
            return member
    raise ValueError(f"unknown {noun} {value!r}; expected one of {[m.value for m in cls]}")


@dataclass(frozen=True)
class HippoOperator:
    """The scaled-Legendre state system of one order, its one field.

    B[n] = sqrt(2n+1); A is lower triangular with A[n][n] = n+1 and
    A[n][k] = sqrt(2n+1)sqrt(2k+1) below. Both are read-only, formed on first
    use and kept: only the forward Euler fold and the Euler and bilinear step
    matrices read A. Operators compare and hash by order; safe to share.
    """

    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _as_index("order", self.order))

    @cached_property
    def b_vector(self) -> np.ndarray:
        return _freeze(np.sqrt(2.0 * np.arange(self.order) + 1.0))

    @cached_property
    def a_matrix(self) -> np.ndarray:
        # one N x N buffer: the outer product, masked to its lower triangle, then the diagonal
        a = np.outer(self.b_vector, self.b_vector)
        a *= np.tri(self.order, k=-1, dtype=bool)
        np.fill_diagonal(a, np.arange(1.0, self.order + 1))
        return _freeze(a)


def build_operator(order: int) -> HippoOperator:
    """The operator of the given order (number of coefficients)."""
    return HippoOperator(order)


def _legendre_rows(z: np.ndarray, count: int, rows: np.ndarray):
    """P_0..P_{count-1} at z, a block of consecutive degrees at a time.

    The one Legendre recurrence of the package, Bonnet's, run in place over
    the R rows of `rows` (shape (R,) + z.shape, R >= min(3, count)): each
    degree is a few numpy calls over contiguous memory whatever the point
    count, and every element keeps the operation order
    ((2k-1) z) P_{k-1} - (k-1) P_{k-2}, then / k. Yields (lo, hi) each time
    rows[:hi - lo] holds P_lo .. P_{hi-1}; the next block starts from the
    last two rows of this one, moved to rows[0:2]. With R >= count there is
    one block, the whole table. z must lie in [-1, 1].
    """
    width = rows.shape[0]
    rows[0] = 1.0
    if count > 1:
        rows[1] = z
    lower = np.empty_like(z)
    lo, first = 0, 2
    while True:
        hi = min(lo + width, count)
        for k in range(first, hi):
            row = rows[k - lo]
            np.multiply(z, 2 * k - 1, out=row)
            row *= rows[k - lo - 1]
            np.multiply(rows[k - lo - 2], k - 1, out=lower)
            row -= lower
            row /= k
        yield lo, hi
        if hi == count:
            return
        rows[0] = rows[width - 2]  # one row at a time: no temporary when width is 3
        rows[1] = rows[width - 1]
        lo, first = hi - 2, hi


def legendre_table(z: np.ndarray, count: int) -> np.ndarray:
    """P_0..P_{count-1} at each of the given points, as (count, points) rows.

    `_legendre_rows` over one block of `count` rows. Arguments within
    CLAMP_TOL of [-1, 1] are clamped; values beyond it, and NaN, are rejected.
    """
    count = _as_index("count", count)
    z = np.asarray(z, dtype=float).ravel()
    if z.size and not (-1.0 - CLAMP_TOL <= z.min() and z.max() <= 1.0 + CLAMP_TOL):
        raise ValueError("Legendre argument outside [-1, 1] beyond clamp tolerance")
    rows = np.empty((count, z.size))
    for _ in _legendre_rows(np.clip(z, -1.0, 1.0), count, rows):
        pass
    return rows


def basis_matrix(xs: np.ndarray, t: float, count: int) -> np.ndarray:
    """Rows of basis values g_0..g_{count-1} at coordinates xs under horizon t."""
    if not 0.0 < t < np.inf:
        raise ValueError(f"time horizon must be positive and finite, got {t}")
    # (points, count) in C order: callers slice it into matmul operands, and
    # matmul bits depend on operand layout
    table = legendre_table(2.0 * np.asarray(xs, dtype=float) / t - 1.0, count).T.copy()
    table *= np.sqrt(2.0 * np.arange(count) + 1.0)
    return table

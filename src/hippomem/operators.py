"""Scaled-Legendre projection operators.

The continuous-time memory system projects a history signal f onto the
orthonormal basis g_n(x) = sqrt(2n+1) P_n(2x/t - 1) over the expanding
window [0, t]. This module builds the fixed state matrices of that system
and evaluates the basis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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
    """Fixed (A, B) pair of the scaled-Legendre state system.

    A is lower triangular with A[n][n] = n+1 and A[n][k] = sqrt(2n+1)sqrt(2k+1)
    below the diagonal; B[n] = sqrt(2n+1). Immutable and safe to share.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray

    @property
    def order(self) -> int:
        return self.a_matrix.shape[0]


def build_operator(order: int) -> HippoOperator:
    """Construct the operator of the given order (number of coefficients)."""
    order = _as_index("order", order)
    n = np.arange(order)
    sq = np.sqrt(2.0 * n + 1.0)
    # A in one N x N buffer: the outer product, its diagonal and upper
    # triangle zeroed in place, then the diagonal set
    a = np.outer(sq, sq)
    a *= np.tri(order, k=-1, dtype=bool)
    np.fill_diagonal(a, n + 1.0)
    return HippoOperator(a_matrix=_freeze(a), b_vector=_freeze(sq))


def legendre_table(z: np.ndarray, count: int) -> np.ndarray:
    """P_0..P_{count-1} at each of the given points, as (count, points) rows.

    Bonnet three-term recurrence, run in place over the rows, so each degree
    is a few numpy calls over contiguous memory whatever the point count;
    every element keeps the operation order ((2k-1) z) P_{k-1} - (k-1) P_{k-2},
    then / k. Arguments within CLAMP_TOL of [-1, 1] are clamped; values
    beyond it, and NaN, are rejected.
    """
    count = _as_index("count", count)
    z = np.asarray(z, dtype=float).ravel()
    if z.size and not (-1.0 - CLAMP_TOL <= z.min() and z.max() <= 1.0 + CLAMP_TOL):
        raise ValueError("Legendre argument outside [-1, 1] beyond clamp tolerance")
    z = np.clip(z, -1.0, 1.0)
    rows = np.empty((count, z.size))
    rows[0] = 1.0
    if count > 1:
        rows[1] = z
    lower = np.empty(z.size)
    for k in range(2, count):
        row = rows[k]
        np.multiply(z, 2 * k - 1, out=row)
        row *= rows[k - 1]
        np.multiply(rows[k - 2], k - 1, out=lower)
        row -= lower
        row /= k
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

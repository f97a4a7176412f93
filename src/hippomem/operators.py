"""Scaled-Legendre projection operators.

The continuous-time memory system projects a history signal f onto the
orthonormal basis g_n(x) = sqrt(2n+1) P_n(2x/t - 1) over the expanding
window [0, t]. This module builds the fixed state matrices of that system
and evaluates the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerated overshoot of |z| beyond 1 before evaluation is rejected; absorbs
# roundoff in 2x/t - 1 at x = t.
CLAMP_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HippoOperator:
    """Fixed (A, B) pair of the scaled-Legendre state system.

    A is lower triangular with A[n][n] = n+1 and A[n][k] = sqrt(2n+1)sqrt(2k+1)
    below the diagonal; B[n] = sqrt(2n+1). Immutable and safe to share.
    """

    order: int
    a_matrix: np.ndarray
    b_vector: np.ndarray


def build_operator(order: int) -> HippoOperator:
    """Construct the operator of the given order (number of coefficients)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n = np.arange(order)
    sq = np.sqrt(2.0 * n + 1.0)
    a = np.tril(np.outer(sq, sq), -1) + np.diag(n + 1.0)
    return HippoOperator(order=order, a_matrix=_freeze(a), b_vector=_freeze(sq))


def legendre_table(z: np.ndarray, count: int) -> np.ndarray:
    """P_0..P_{count-1} at each of the given points, shape (z.size, count).

    Bonnet three-term recurrence, run in place over the rows of a
    (count, points) array, so each degree is a few numpy calls over
    contiguous memory whatever the point count; every element keeps the
    operation order ((2k-1) z) P_{k-1} - (k-1) P_{k-2}, then / k. The result
    is returned as a C-contiguous (points, count) copy: callers slice it
    into per-block matmul operands, and matmul bits depend on operand
    layout. Arguments within CLAMP_TOL of [-1, 1] are clamped; values beyond
    it, and NaN, are rejected.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
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
    return rows.T.copy()


def basis_matrix(xs: np.ndarray, t: float, count: int) -> np.ndarray:
    """Rows of basis values g_0..g_{count-1} at coordinates xs under horizon t."""
    if t <= 0:
        raise ValueError(f"time horizon must be positive, got {t}")
    table = legendre_table(2.0 * np.asarray(xs, dtype=float) / t - 1.0, count)
    table *= np.sqrt(2.0 * np.arange(count) + 1.0)
    return table

"""Discretization of the continuous memory ODE.

The coefficient vector obeys dc/dt = -(1/t) A c + (1/t) B f. A step over
[t0, t1] with the input held constant turns this into c1 = Abar c0 + Bbar f
under one of four schemes. The exact (zero-order hold) step matrix is the
matrix power (t0/t1)^A; the Euler and bilinear schemes approximate it.

Step k of a unit-grid sequence covers [k, k+1], so the step matrices depend
on the absolute position k. Indexing starts at k = 1: the 1/t coefficient is
singular at t = 0, so the Euler/bilinear family cannot start earlier. The
zero-order hold has a well-defined t0 = 0 limit (Abar -> 0, Bbar -> e0, the
exact absorption of a constant first segment), which `discretize_interval`
and `history_kernel` use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import HippoOperator, _freeze, legendre_table

__all__ = [
    "Scheme",
    "DiscreteStep",
    "MemoryState",
    "InstabilityError",
    "discretize_step",
    "discretize_interval",
    "sequential_update",
    "zero_state",
    "transition_power",
    "segment_coefficients",
    "history_kernel",
]


class Scheme(enum.Enum):
    """Discretization rule for one step of the time-varying ODE."""

    ZOH = "zoh"
    FORWARD_EULER = "forward"
    BACKWARD_EULER = "backward"
    BILINEAR = "bilinear"

    @classmethod
    def _missing_(cls, value: object) -> "Scheme":
        # the constructor folds case: Scheme("ZOH") is Scheme.ZOH
        for member in cls:
            if member.value == str(value).lower():
                return member
        raise ValueError(f"unknown scheme {value!r}; expected one of "
                         f"{[m.value for m in cls]}")


class InstabilityError(ValueError):
    """A scheme produced a non-finite entry (e.g. forward Euler blow-up)."""


@dataclass(frozen=True)
class DiscreteStep:
    """Position-dependent step matrices (Abar_k, Bbar_k) for one unit step."""

    a_bar: np.ndarray
    b_bar: np.ndarray


@dataclass(frozen=True)
class MemoryState:
    """N x D coefficient matrix compressing a D-channel history.

    Each channel is an independent one-dimensional signal; `blocks_absorbed`
    counts whole blocks folded in by the block-update machinery. A state has
    a single writer at a time; updates return fresh states.
    """

    coefficients: np.ndarray
    blocks_absorbed: int = 0

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 2:
            raise ValueError(f"coefficients must be 2-D (N x D), got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients contain non-finite entries")
        if self.blocks_absorbed < 0:
            raise ValueError("blocks_absorbed must be non-negative")
        object.__setattr__(self, "coefficients", _freeze(coeffs))

    @property
    def order(self) -> int:
        return self.coefficients.shape[0]

    @property
    def channel_count(self) -> int:
        return self.coefficients.shape[1]


def zero_state(order: int, channels: int) -> MemoryState:
    """Empty memory for a D-channel stream."""
    return MemoryState(np.zeros((order, channels)))


@lru_cache(maxsize=32)
def _gauss_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return _freeze(nodes), _freeze(weights)


def transition_power(op: HippoOperator, ratio: float) -> np.ndarray:
    """The matrix power ratio**A for the lower-triangular operator A.

    Functionally, ratio**A re-expands projection coefficients from horizon t
    to horizon t/ratio with nothing appended, so entry (n, m) is the inner
    product of the zero-extended basis function g_m (on [0, ratio]) with g_n
    (on [0, 1]). The integrand is a polynomial of degree < 2N, so Gauss-
    Legendre quadrature with N+1 nodes evaluates it exactly; this stays
    stable at large N, unlike substitution recurrences or diagonalization,
    whose intermediates grow combinatorially for this matrix family.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    n = op.order
    if ratio == 0.0:
        return np.zeros((n, n))
    if ratio == 1.0:
        return np.eye(n)
    power = np.empty((1, n, n))
    _transition_powers(op, np.array([ratio], dtype=float), power)
    return power[0]


def _transition_powers(op: HippoOperator, ratios: np.ndarray, out: np.ndarray) -> None:
    """Fill out[j] with ratios[j]**A for ratios strictly inside (0, 1).

    The quadrature of `transition_power`, with one `legendre_table` call per
    node table for all the ratios; each out[j] has the bits a one-ratio call
    gives.
    """
    n = op.order
    nodes, weights = _gauss_nodes(n + 2)
    r = ratios[:, None]
    x = r * (nodes + 1.0) / 2.0
    wx = weights * r / 2.0
    inner = legendre_table(2.0 * x / r - 1.0, n)      # g_m support, rescaled
    outer = legendre_table(2.0 * x - 1.0, n)          # g_n on the unit horizon
    sq = op.b_vector                                  # sqrt(2n+1)
    scale = np.outer(sq, sq)
    exponents = np.arange(n) + 1.0
    for j, ratio in enumerate(ratios.tolist()):
        rows = slice(j * (n + 2), (j + 1) * (n + 2))
        np.multiply((outer[rows] * wx[j, :, None]).T @ inner[rows], scale, out=out[j])
        # diagonal is analytically ratio**(n+1); pin it to kill quadrature roundoff
        np.fill_diagonal(out[j], ratio ** exponents)


def segment_coefficients(op: HippoOperator, ratios: np.ndarray) -> np.ndarray:
    """Projection coefficients of the indicator of [0, r] at unit horizon.

    Row j holds (r**A @ e0) for r = ratios[j], in closed form:
    psi_0(r) = r and psi_n(r) = (P_{n+1}(2r-1) - P_{n-1}(2r-1)) / (2 sqrt(2n+1)).
    Consecutive differences of these rows are the zero-order-hold kernel
    columns, which is what makes whole-history compression a single matmul.
    """
    ratios = np.atleast_1d(np.asarray(ratios, dtype=float))
    if ratios.size and (ratios.min() < 0.0 or ratios.max() > 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    n = op.order
    table = legendre_table(2.0 * ratios - 1.0, n + 1)
    out = np.empty((ratios.size, n))
    out[:, 0] = ratios
    if n > 1:
        idx = np.arange(1, n)
        out[:, 1:] = (table[:, 2:n + 1] - table[:, 0:n - 1]) / (2.0 * np.sqrt(2.0 * idx + 1.0))
    return out


def _check_finite(scheme: Scheme, *arrays: np.ndarray) -> None:
    # min and max propagate NaN and inf; unlike isfinite(arr).all() they need
    # no mask the size of the array (4 MB for an N = 128 bank of 256 blocks)
    for arr in arrays:
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise InstabilityError(
                f"{scheme.value} discretization produced non-finite entries"
            )


def discretize_interval(
    op: HippoOperator, t_start: float, t_end: float, scheme: Scheme
) -> tuple[np.ndarray, np.ndarray]:
    """Step matrices over [t_start, t_end] with the input held constant.

    t_start = 0 is allowed only for ZOH, where the limit is exact.
    """
    if t_end <= t_start:
        raise ValueError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    if t_start < 0:
        raise ValueError(f"t_start must be >= 0, got {t_start}")
    if t_start == 0 and scheme in (Scheme.FORWARD_EULER, Scheme.BILINEAR):
        raise ValueError(f"{scheme.value} discretization is singular at t = 0")
    a, b = op.a_matrix, op.b_vector
    n = op.order
    eye = np.eye(n)
    delta = t_end - t_start

    # overflow is surfaced by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme is Scheme.ZOH:
            # the single-step case of _fold_steps: a segment-coefficient difference
            ratio = t_start / t_end
            a_bar = transition_power(op, ratio)
            seg = segment_coefficients(op, np.array([ratio, 1.0]))
            b_bar = seg[1] - seg[0]
        elif scheme is Scheme.FORWARD_EULER:
            a_bar = eye - (delta / t_start) * a
            b_bar = (delta / t_start) * b
        elif scheme in (Scheme.BACKWARD_EULER, Scheme.BILINEAR):
            # (I + w h A) [Abar | Bbar] = [I - (1 - w) h A | h B]
            w, h = ((1.0, delta / t_end) if scheme is Scheme.BACKWARD_EULER
                    else (0.5, delta / t_start))
            rhs = np.column_stack([eye - (1.0 - w) * h * a, h * b])
            solved = np.linalg.solve(eye + w * h * a, rhs)
            a_bar, b_bar = solved[:, :n], solved[:, n]
        else:  # pragma: no cover
            raise ValueError(f"unhandled scheme {scheme}")

    _check_finite(scheme, a_bar, b_bar)
    return a_bar, b_bar


def discretize_step(op: HippoOperator, k: int, scheme: Scheme) -> DiscreteStep:
    """Step matrices for unit step k (covering [k, k+1]); requires k >= 1."""
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    a_bar, b_bar = discretize_interval(op, float(k), float(k + 1), scheme)
    return DiscreteStep(a_bar=_freeze(a_bar), b_bar=_freeze(b_bar))


def sequential_update(
    state: MemoryState, input_row: np.ndarray, step: DiscreteStep
) -> MemoryState:
    """One recurrence step: C <- Abar_k C + Bbar_k f_k, channel-wise."""
    row = np.asarray(input_row, dtype=float).reshape(-1)
    if row.size != state.channel_count:
        raise ValueError(
            f"input has {row.size} channels, state has {state.channel_count}"
        )
    if step.a_bar.shape[0] != state.order:
        raise ValueError(
            f"step order {step.a_bar.shape[0]} does not match state order {state.order}"
        )
    coeffs = step.a_bar @ state.coefficients + np.outer(step.b_bar, row)
    return MemoryState(coeffs, blocks_absorbed=state.blocks_absorbed)


# Unit steps per chunk in `_fold_steps`. The chunk stack holds
# CHUNK x N x N floats (0.5 MB at N = 32); a larger chunk adds to peak RSS
# and saves only per-row call overhead in `_build_steps`.
_CHUNK_STEPS = 64

# Legendre points per block group in the ZOH branch of `_fold_steps`. Each
# node table holds GROUP x N floats (4 MB at N = 128); a larger group adds
# to peak RSS and saves only per-degree call overhead in `legendre_table`.
_GROUP_POINTS = 4096


def _build_steps(
    op: HippoOperator, k: np.ndarray, scheme: Scheme,
    a_bars: np.ndarray, b_bars: np.ndarray,
) -> None:
    """Fill a_bars[j], b_bars[j] with the non-ZOH step matrices of step k[j].

    Forward Euler is the per-element arithmetic of `discretize_interval`,
    broadcast over the steps. Backward Euler and bilinear solve
    M X = [I | B] with M = I + c A by forward substitution over the rows,
    vectorised over the steps and the N + 1 columns: the LegS A is diag(n+1)
    plus the strict lower triangle of s s^T with s = B, so
    x_n = (y_n - c s_n sum_{m<n} s_m x_m) / (1 + c (n+1)), and a running sum
    makes each step O(N^2). Backward Euler (c = h) takes Abar = M^-1;
    bilinear (c = h/2) takes Abar = 2 M^-1 - I, which equals M^-1 (I - c A).
    Both take Bbar = h M^-1 B.
    """
    a, s = op.a_matrix, op.b_vector
    n = op.order
    # overflow is surfaced by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme is Scheme.FORWARD_EULER:
            h = 1.0 / k
            np.multiply(h[:, None, None], a, out=a_bars)
            np.subtract(np.eye(n), a_bars, out=a_bars)
            np.multiply(h[:, None], s, out=b_bars)
        elif scheme in (Scheme.BACKWARD_EULER, Scheme.BILINEAR):
            backward = scheme is Scheme.BACKWARD_EULER
            h = 1.0 / (k + 1.0) if backward else 1.0 / k
            c = h if backward else 0.5 * h
            neg_cs = -c[:, None] * s
            diag = 1.0 + c[:, None] * np.arange(1.0, n + 1.0)
            rhs = np.column_stack([np.eye(n), s])
            total = np.zeros((k.size, n + 1))
            x = np.empty((k.size, n + 1))
            for row in range(n):
                np.multiply(total, neg_cs[:, row, None], out=x)
                x += rhs[row]
                x /= diag[:, row, None]
                a_bars[:, row] = x[:, :n]
                b_bars[:, row] = x[:, n]
                total += s[row] * x
            if not backward:
                a_bars *= 2.0
                a_bars -= np.eye(n)
            b_bars *= h[:, None]
        else:  # pragma: no cover
            raise ValueError(f"unhandled scheme {scheme}")
    _check_finite(scheme, a_bars, b_bars)


def _fold_steps(
    op: HippoOperator, scheme: Scheme, transitions: np.ndarray, kernels: np.ndarray
) -> None:
    """Fill (P_i, K_i) for consecutive blocks of unit steps from step 1 on.

    transitions is (blocks, N, N) and kernels is (blocks, N, L); block i
    (0-based) covers steps i L + 1 .. (i + 1) L and is read at horizon
    (i + 1) L + 1. P_i is the ordered product of the block's step matrices;
    column j of K_i is the product of the block's step matrices above its
    step j times that step's input vector.

    For ZOH the products telescope into one matrix power per block and
    consecutive differences of `segment_coefficients` per block. Consecutive
    blocks are taken in groups of about `_GROUP_POINTS` Legendre points
    (N + 2 quadrature nodes or L + 1 segment ends per block, whichever is
    more), so the three Legendre recurrences (inner nodes, outer nodes,
    segment ends) run once per group, not once per block. Each block's
    matrix power and kernel are then written straight into the caller's
    stacks, with the same bits as `transition_power` and a one-block
    `segment_coefficients`. Groups stay small because their node tables add
    directly to peak RSS: building all 256 blocks of an N = 128 bank at once
    would take two 34 MB tables.

    Other schemes walk all the steps from the last down to step 1 in chunks
    of `_CHUNK_STEPS`, across block boundaries, so short blocks share one
    vectorised build. `_build_steps` fills the chunk's step matrices in
    place, backward Euler and bilinear by an O(N^2) structured solve instead
    of a dense O(N^3) one; then the sequential suffix-product loop multiplies
    them in. The chunk stack is allocated once and kept small, because it
    adds directly to peak RSS; no (steps, N, N) array is ever built.
    """
    blocks, n, ell = kernels.shape
    if scheme is Scheme.ZOH:
        group = max(1, _GROUP_POINTS // max(n + 2, ell + 1))
        for first in range(0, blocks, group):
            last = min(blocks, first + group)
            i = np.arange(first, last)
            start, horizon = i * ell + 1, (i + 1) * ell + 1
            _transition_powers(op, start / horizon, transitions[first:last])
            points = (start[:, None] + np.arange(ell + 1)) / horizon[:, None]
            seg = segment_coefficients(op, points.ravel()).reshape(last - first, ell + 1, n)
            np.subtract(seg[:, 1:], seg[:, :-1], out=kernels[first:last].transpose(0, 2, 1))
        return
    transitions[:] = np.eye(n)  # the empty product, kept when L = 0
    size = min(_CHUNK_STEPS, blocks * ell)
    a_bars, b_bars = np.empty((size, n, n)), np.empty((size, n))
    for top in range(blocks * ell, 0, -_CHUNK_STEPS):
        bottom = max(1, top - _CHUNK_STEPS + 1)
        count = top - bottom + 1
        _build_steps(op, np.arange(bottom, top + 1, dtype=float), scheme,
                     a_bars[:count], b_bars[:count])
        for j in range(count - 1, -1, -1):
            block, col = divmod(bottom + j - 1, ell)
            if col == ell - 1:
                prod = np.eye(n)
            kernels[block, :, col] = prod @ b_bars[j]
            prod = prod @ a_bars[j]
            if col == 0:
                transitions[block] = prod


def history_kernel(op: HippoOperator, length: int, scheme: Scheme) -> np.ndarray:
    """N x length operator mapping a whole sample sequence to its final state.

    Sample a (0-based) is held over [a, a+1) and the state is read at horizon
    `length`. The first sample enters through the exact t -> 0 limit step, so
    a constant sequence compresses to exactly [c, 0, ..., 0]. Column a is the
    suffix product of step matrices above position a times that step's input
    vector; for ZOH the whole kernel collapses to consecutive differences of
    `segment_coefficients`.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if scheme is Scheme.ZOH:
        seg = segment_coefficients(op, np.arange(length + 1) / length)
        kernel = (seg[1:] - seg[:-1]).T
    else:
        n = op.order
        kernel = np.empty((n, length))
        prod = np.empty((1, n, n))
        _fold_steps(op, scheme, prod, kernel[None, :, 1:])
        kernel[:, 0] = prod[0, :, 0]  # prod @ e0: exact first-sample absorption
    _check_finite(scheme, kernel)
    return kernel

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

The construction's quantities each have one function: the Legendre table
(`operators.legendre_table`), the segment coefficients r**A e0 in closed
form (`segment_coefficients`) and the matrix power r**A by quadrature
(`transition_power`). Steps, kernels and banks take them from there only,
so each is computed, and can be timed, in one place.

Under every scheme Bbar_k = (I - Abar_k) e0, because A e0 = B, and the
Abar_k are rational functions of A, so they commute. A whole-history kernel
is therefore fixed by one vector per step, with no products of step
matrices. ZOH has it in closed form. The Euler steps scale mode lambda of A
by (j - lambda)/j (forward) or (j+1)/(j+1+lambda) (backward), so a suffix
product of steps is a ratio of falling or rising factorials, and both
kernels come out of discrete Chebyshev (Hahn) polynomials (`_hahn_kernel`).
Forward Euler uses that form where 4(T-1) >= (N+1)^2, the range in which
those polynomials stay bounded; backward Euler at every size. Bilinear gets
its kernel from a scan over the steps, one state row at a time
(`_scan_kernel`). Shorter forward Euler histories, whose early steps
amplify the high-order rows (|1 - (n+1)/k| > 1 for k < (n+1)/2), and every
bank (banks need the full transition products) stay on the step-matrix
fold (`_fold_steps`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (
    HippoOperator, _as_index, _fold_case, _freeze, legendre_table,
)

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
        return _fold_case(cls, value, "scheme")


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
        absorbed = _as_index("blocks_absorbed", self.blocks_absorbed, minimum=0)
        object.__setattr__(self, "coefficients", _freeze(coeffs))
        object.__setattr__(self, "blocks_absorbed", absorbed)

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
def _gauss_table(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order + 2)-point Gauss-Legendre nodes y_q and weights, and P_m(y_q):
    at x = r (y_q + 1) / 2, g_m on [0, r] is sqrt(2m+1) P_m(y_q) for every r."""
    nodes, weights = np.polynomial.legendre.leggauss(order + 2)
    # (nodes, order) in C order: matmul bits depend on operand layout
    inner = legendre_table(nodes, order).T.copy()
    return _freeze(nodes), _freeze(weights), _freeze(inner)


def transition_power(op: HippoOperator, ratio: float | np.ndarray) -> np.ndarray:
    """The matrix power ratio**A for the lower-triangular operator A.

    A scalar ratio gives one N x N matrix, an array of ratios one per ratio
    (shape ratios.shape + (N, N)), each with the bits of its scalar call.
    Functionally, ratio**A re-expands projection coefficients from horizon t
    to horizon t/ratio with nothing appended, so entry (n, m) is the inner
    product of the zero-extended basis function g_m (on [0, ratio]) with g_n
    (on [0, 1]). The integrand is a polynomial of degree < 2N, so Gauss-
    Legendre quadrature evaluates it exactly with N nodes; `_gauss_table`
    takes N+2. This stays stable at large N, unlike substitution recurrences
    or diagonalization, whose intermediates grow combinatorially for this
    matrix family. The inner factor comes from the per-order `_gauss_table`,
    so only the outer one, g_n on the unit horizon at x = r (y_q + 1) / 2,
    takes a `legendre_table` call; one stacked matmul folds every ratio's
    weighted outer table with the inner table, and s s^T (s = B) scales the
    result. The diagonal is pinned to its exact value ratio**(n+1); ratio 0
    gives exact zeros and ratio 1 the identity.
    """
    ratios = np.asarray(ratio, dtype=float)
    if ratios.size and not (0.0 <= ratios.min() and ratios.max() <= 1.0):
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    n = op.order
    nodes, weights, inner = _gauss_table(n)
    r = ratios.reshape(-1, 1)
    # (ratios x nodes, n) in C order: matmul bits depend on operand layout
    outer = legendre_table(r * (nodes + 1.0) - 1.0, n).T.copy().reshape(r.size, nodes.size, n)
    outer *= (weights * r / 2.0)[:, :, None]
    power = np.matmul(outer.transpose(0, 2, 1), inner)
    power *= np.outer(op.b_vector, op.b_vector)
    diag = np.arange(n)
    power[:, diag, diag] = r ** (diag + 1.0)
    power[r[:, 0] == 0.0] = 0.0
    power[r[:, 0] == 1.0] = np.eye(n)
    return power.reshape(ratios.shape + (n, n))


def segment_coefficients(op: HippoOperator, ratios: np.ndarray) -> np.ndarray:
    """Projection coefficients of the indicator of [0, r] at unit horizon.

    Column j holds (r**A @ e0) for r = ratios[j], as (N, ratios.size) rows
    in closed form: psi_0(r) = r and
    psi_n(r) = (P_{n+1}(2r-1) - P_{n-1}(2r-1)) / (2 sqrt(2n+1)).
    Consecutive differences of these columns are the zero-order-hold kernel
    columns, which is what makes whole-history compression a single matmul.
    """
    ratios = np.asarray(ratios, dtype=float).ravel()
    if ratios.size and (ratios.min() < 0.0 or ratios.max() > 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    n = op.order
    table = legendre_table(2.0 * ratios - 1.0, n + 1)
    out = np.empty((n, ratios.size))
    out[0] = ratios
    np.subtract(table[2:], table[:n - 1], out=out[1:])
    out[1:] /= (2.0 * np.sqrt(2.0 * np.arange(1, n) + 1.0))[:, None]
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
    scheme = Scheme(scheme)
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
            b_bar = seg[:, 1] - seg[:, 0]
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
    k = _as_index("k", k)
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
    more), so each group takes one `transition_power` call over its ratios
    and one `segment_coefficients` call over its segment ends: the two
    Legendre recurrences run once per group, not once per block, and the
    inner node table once per order. The group's matrix powers are copied
    into the caller's stack and its kernels differenced straight into it,
    with the bits of one-block calls. Groups stay small because their node
    tables add directly to peak RSS: building all 256 blocks of an N = 128
    bank at once would take two 34 MB tables.

    Other schemes walk all the steps from the last down to step 1 in chunks
    of `_CHUNK_STEPS`, across block boundaries, so short blocks share one
    vectorised build. `_build_steps` fills the chunk's step matrices in
    place, backward Euler and bilinear by an O(N^2) structured solve instead
    of a dense O(N^3) one; then the sequential suffix-product loop multiplies
    them in. The chunk stack is allocated once and kept small, because it
    adds directly to peak RSS; no (steps, N, N) array is ever built. This
    fold is O(N^3) per step. `history_kernel` uses it only for forward
    Euler below 4(T-1) >= (N+1)^2, as a one-block bank; banks use it for
    every non-ZOH scheme, because P_i is a full matrix that no vector scan
    yields.
    """
    blocks, n, ell = kernels.shape
    if scheme is Scheme.ZOH:
        group = max(1, _GROUP_POINTS // max(n + 2, ell + 1))
        for first in range(0, blocks, group):
            last = min(blocks, first + group)
            i = np.arange(first, last)
            start, horizon = i * ell + 1, (i + 1) * ell + 1
            transitions[first:last] = transition_power(op, start / horizon)
            points = (start[:, None] + np.arange(ell + 1)) / horizon[:, None]
            seg = segment_coefficients(op, points).reshape(n, last - first, ell + 1)
            out = kernels[first:last].transpose(1, 0, 2)
            np.subtract(seg[..., 1:], seg[..., :-1], out=out)
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


def _scan_kernel(op: HippoOperator, kernel: np.ndarray) -> None:
    """Fill the N x T bilinear history kernel row by row.

    Column 0 is u_0 and column a >= 1 is h_a M_a^-1 A u_a, where u_{T-1} = e0,
    u_{a-1} = Abar_a u_a = 2 M_a^-1 u_a - u_a, h_a = 1/a, c = h_a/2 and
    M_a = I + c A (see `history_kernel`). Solving M_a z = u_a by forward
    substitution, row n of z needs only S_n = sum_{m<n} s_m z_m from the rows
    above it. So once those rows are done, row n of every u_a follows from
    one scalar recurrence over the steps, x_{a-1} = p_a x_a + q_a, with
    d = 1 + c (n+1), p = (1 - c (n+1))/d and q = -2 c s_n S_n / d. A
    Hillis-Steele scan solves it for all steps in log2(T) passes. It composes
    (p, q) pairs and never divides, so p = 0 is safe. Row n of the kernel is
    h_a ((n+1) x_a + s_n S_n) / d, which is (h_a M_a^-1 A u_a)[n]. The same
    column written as u_a - u_{a-1} cancels: against a longdouble recurrence
    it measured 10-50x less accurate.
    """
    n, length = kernel.shape
    s = op.b_vector
    h = 1.0 / np.arange(1.0, length)            # step a covers [a, a+1]
    c = 0.5 * h
    total = np.zeros(length - 1)               # S_n at every step
    p, x = np.empty(length), np.empty(length)
    for row in range(n):
        cn = c * (row + 1.0)
        d = 1.0 + cn
        p[:-1] = (1.0 - cn) / d
        x[:-1] = -2.0 * s[row] * c * total / d
        # element T-1 is the constant map to u_{T-1}[n] = e0[n]
        p[-1] = 0.0
        x[-1] = 1.0 if row == 0 else 0.0
        offset = 1
        while offset < length:
            x[:-offset] += p[:-offset] * x[offset:]
            p[:-offset] = p[:-offset] * p[offset:]
            offset *= 2
        kernel[row, 0] = x[0]
        kernel[row, 1:] = h * ((row + 1.0) * x[1:] + s[row] * total) / d
        # s_n z_n from the scanned u's; solving afresh for z was up to 20x
        # less accurate on an alternating input
        total += s[row] * (0.5 * (x[:-1] + x[1:]))


def _hahn_kernel(kernel: np.ndarray, backward: bool) -> None:
    """Fill the N x T forward or backward Euler history kernel in closed form.

    With M = T - 1, the forward steps I - A/j for j = a+1 .. M scale mode
    lambda = 1 .. N of A by the falling-factorial ratio (a)_lambda/(M)_lambda,
    where ZOH's r**A scales it by r**lambda. So u_a is `segment_coefficients`
    at r = a/M with each r**lambda replaced by that ratio, which turns the
    shifted Legendre P_k(2r - 1) into (-1)^k Q_k(a; 0, 0, M), a discrete
    Chebyshev (Hahn) polynomial (Koekoek, Lesky & Swarttouw, 2010, 9.5).
    The backward steps (I + A/(j+1))^-1 scale it by (j+1)/(j+1+lambda), so
    by the rising-factorial ratio (a+2)^(lambda)/(M+2)^(lambda). As the
    falling (-y)_lambda is (-1)^lambda y^(lambda), that is the forward ratio
    at a -> -(a+2), M -> -(M+2). So with Hahn parameter m and points x:
      forward:  m = M,      x = a - 1,  column 0 = 0 (step lambda removes mode lambda);
      backward: m = -(M+2), x = -(a+2), column 0 = u_0, from Q_k(-2; 0, 0, m).
    Columns a >= 1 come from the Hahn forward difference
    Q_k(x+1) - Q_k(x) = -k(k+1)/m Q_{k-1}(x; 1, 1, m-1), not from
    u_a - u_{a-1}, which cancels. With Q_n = Q_n(x; 1, 1, m-1):
      K[n, a] = (-1)^n ((n+1)(n+2) Q_n - (n-1) n Q_{n-2}) / (2 |m| sqrt(2n+1)).
    The Q_n follow from the three-term recurrence in the degree,
    A_k Q_{k+1} = (A_k + C_k - x) Q_k - C_k Q_{k-1}, with
    A_k = (k+3)(m-1-k) / (2(2k+3)) and C_k = k(k+m+2) / (2(2k+3)), each in
    kernel row n; a last pass from the top row down turns the rows into
    kernel rows, so nothing N x T is allocated. Forward, the recurrence
    stays accurate while N + 1 <= 2 sqrt(M), the classical range of bounded
    discrete Chebyshev polynomials; the caller checks 4(T-1) >= (N+1)^2.
    Backward needs no condition: its ratios are the moments E[r**lambda] of
    r ~ Beta(a+2, M-a), so each Q_n averages a Jacobi polynomial over [0, 1].
    """
    n, length = kernel.shape
    m = -(length + 1) if backward else length - 1
    x = -np.arange(3.0, length + 2.0) if backward else np.arange(float(m))
    if backward:
        # psi_n at P_k(2r-1) -> (-1)^k Q_k(-2; 0, 0, m), k = -1 .. N; the
        # stand-in Q_-1 = 1 turns row 0 into psi_0 = (1 - Q_1) / 2 = -2/m
        q0 = [1.0, 1.0]
        for k in range(n):
            a_k = (k + 1.0) * (m - k) / (2.0 * (2 * k + 1))
            c_k = k * (k + m + 1.0) / (2.0 * (2 * k + 1))
            q0.append(((a_k + c_k + 2.0) * q0[-1] - c_k * q0[-2]) / a_k)
        q0, rows = np.array(q0), np.arange(n)
        kernel[:, 0] = (-1.0) ** (rows + 1) * (q0[2:] - q0[:-2]) / (2 * np.sqrt(2 * rows + 1))
    else:
        kernel[:, 0] = 0.0
    q = kernel[:, 1:]
    q[0] = 1.0
    for k in range(n - 1):
        a_k = (k + 3.0) * (m - 1 - k) / (2.0 * (2 * k + 3))
        c_k = k * (k + m + 2.0) / (2.0 * (2 * k + 3))
        np.subtract(a_k + c_k, x, out=q[k + 1])
        q[k + 1] *= q[k]
        if k:
            q[k + 1] -= c_k * q[k - 1]
        q[k + 1] /= a_k
    for row in range(n - 1, -1, -1):
        q[row] *= (row + 1.0) * (row + 2.0)
        if row >= 2:
            q[row] -= (row - 1.0) * row * q[row - 2]
        q[row] *= (-1.0) ** row / (2.0 * abs(m) * np.sqrt(2.0 * row + 1.0))


def history_kernel(op: HippoOperator, length: int, scheme: Scheme) -> np.ndarray:
    """N x length operator mapping a whole sample sequence to its final state.

    Sample a (0-based) is held over [a, a+1) and the state is read at horizon
    `length`. The first sample enters through the exact t -> 0 limit step, so
    a constant sequence compresses to exactly [c, 0, ..., 0]. Column a >= 1
    is Abar_{length-1} ... Abar_{a+1} Bbar_a, and column 0 is the product of
    all the steps times e0.

    Every LegS step has Bbar_a = (I - Abar_a) e0, because A e0 = B, and the
    Abar_a are rational functions of A, so they commute. The kernel is thus
    fixed by the vectors u_a = Abar_{a+1} ... Abar_{length-1} e0: column 0
    is u_0 and column a is u_a - u_{a-1}.
      ZOH: u_a is `segment_coefficients` at (a+1)/length, in closed form,
      differenced straight from its (N, length + 1) rows.
      Backward Euler, and forward Euler with 4(length-1) >= (N+1)^2:
      `_hahn_kernel`, in closed form from Hahn polynomials, O(N T).
      Bilinear: `_scan_kernel`, an O(T log T) scan per state row.
      Forward Euler below that size: `_fold_steps` multiplies the step
      matrices. There the exact kernel entries grow large (about 1e8 at
      N = 32, length = 33), the Hahn recurrence loses digits, and the steps
      amplify row n for k < (n+1)/2, so a scan of the reverse-order
      recurrence would be unstable too.
    """
    length = _as_index("length", length)
    scheme = Scheme(scheme)
    n = op.order
    kernel = np.empty((n, length))
    if scheme is Scheme.ZOH:
        seg = segment_coefficients(op, np.arange(length + 1) / length)
        np.subtract(seg[:, 1:], seg[:, :-1], out=kernel)
    elif scheme is Scheme.BILINEAR:
        _scan_kernel(op, kernel)
    elif scheme is Scheme.FORWARD_EULER and 4 * (length - 1) < (n + 1) ** 2:
        prod = np.empty((1, n, n))
        _fold_steps(op, scheme, prod, kernel[None, :, 1:])
        kernel[:, 0] = prod[0, :, 0]  # prod @ e0: exact first-sample absorption
    else:
        _hahn_kernel(kernel, scheme is Scheme.BACKWARD_EULER)
    _check_finite(scheme, kernel)
    return kernel

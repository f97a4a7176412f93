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
(`_scan_kernel`). Backward Euler and bilinear banks run the same scan over
each block's own steps from every start column, with no step matrices
either; ZOH banks take one matrix power per block. Shorter forward Euler
histories and forward Euler banks, whose early steps amplify the
high-order rows (|1 - (n+1)/k| > 1 for k < (n+1)/2), stay on the
step-matrix fold (`_fold_steps`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


class DiscreteStep(NamedTuple):
    """Read-only step matrices (Abar, Bbar) over one interval; unpacks as a pair."""

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
    takes a `legendre_table` call; stacked matmuls fold every ratio's
    weighted outer table with the inner table, and s s^T (s = B) scales the
    result. The result is exactly lower triangular, as A is: the matmuls
    form it in row panels of `_PANEL_ROWS` that stop at the diagonal block,
    whose strict upper triangle is then set to 0, so no quadrature noise is
    left above the diagonal. The diagonal is pinned to its exact value
    ratio**(n+1); ratio 0 gives exact zeros and ratio 1 the identity.
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
    outer_t = outer.transpose(0, 2, 1)
    power = np.zeros((r.size, n, n))
    above = np.triu(np.ones((_PANEL_ROWS, _PANEL_ROWS), dtype=bool), 1)
    for top in range(0, n, _PANEL_ROWS):
        end = min(top + _PANEL_ROWS, n)
        np.matmul(outer_t[:, top:end], inner[:, :end], out=power[:, top:end, :end])
        np.copyto(power[:, top:end, top:end], 0.0, where=above[:end - top, :end - top])
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
) -> DiscreteStep:
    """Step matrices over [t_start, t_end] with the input held constant.

    Both ends must be finite. t_start = 0 is allowed only for ZOH, where
    the limit is exact.
    """
    scheme = Scheme(scheme)
    if not np.isfinite([t_start, t_end]).all():
        raise ValueError(f"interval ends must be finite, got [{t_start}, {t_end}]")
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
            # the single-step case of a ZOH bank: a segment-coefficient difference
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
    return DiscreteStep(_freeze(a_bar), _freeze(b_bar))


def discretize_step(op: HippoOperator, k: int, scheme: Scheme) -> DiscreteStep:
    """Step matrices for unit step k (covering [k, k+1]); requires k >= 1."""
    k = _as_index("k", k)
    return discretize_interval(op, float(k), float(k + 1), scheme)


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
# and saves only per-chunk call overhead in the step arithmetic.
_CHUNK_STEPS = 64

# Rows per panel of a product whose result (`transition_power`) or left
# factor (`block_kernel.block_update`) is lower triangular: panel rows
# [top, top + PANEL) meet columns [0, top + PANEL) only, so nothing right of
# the panel's diagonal block is formed or read. `block_update` takes panels
# only from N^2 D >= _PANEL_MIN_WORK; below that the per-panel calls cost more
# than the skipped flops save. One OpenBLAS thread, P_i cycling through a
# bank, dense -> panels: N = 128, D = 256 230 -> 174 us; N = 64, D = 256
# 73 -> 67 us; N = 32, D = 256 22 -> 26 us; N = 128, D = 16 24 -> 26 us.
_PANEL_ROWS = 32
_PANEL_MIN_WORK = 1 << 20

# Points per block group in `_fill_bank`. Each node table or scan array
# holds GROUP x N floats (4 MB at N = 128); a larger group adds to peak RSS
# and saves only per-degree or per-row call overhead.
_GROUP_POINTS = 4096


def _fill_bank(
    op: HippoOperator, scheme: Scheme, transitions: np.ndarray, kernels: np.ndarray
) -> None:
    """Fill (P_i, K_i) for consecutive blocks of unit steps from step 1 on.

    transitions is (blocks, N, N) and kernels is (blocks, N, L); block i
    (0-based) covers steps i L + 1 .. (i + 1) L and is read at horizon
    (i + 1) L + 1. P_i is the ordered product of the block's step matrices;
    column j of K_i is the product of the block's step matrices above its
    step j times that step's input vector.

    Forward Euler multiplies its step matrices (`_fold_steps`). The other
    schemes take consecutive blocks in groups of about `_GROUP_POINTS`
    points: N + 2 quadrature nodes or L + 1 segment ends or scan positions
    per block, whichever is more. Each group fills its slice of the
    caller's arrays with the bits of one-block calls. For ZOH the products
    telescope into one matrix power per block and consecutive differences
    of `segment_coefficients`, so a group takes one `transition_power` and
    one `segment_coefficients` call: the two Legendre recurrences run once
    per group, and the inner node table once per order. Backward Euler and
    bilinear groups take one `_scan_kernel` call. Groups stay small because
    their arrays add directly to peak RSS: all 256 blocks of an N = 128 ZOH
    bank at once would take two 34 MB tables.
    """
    blocks, n, ell = kernels.shape
    if scheme is Scheme.FORWARD_EULER:
        _fold_steps(op, transitions, kernels)
        return
    group = max(1, _GROUP_POINTS // max(n + 2, ell + 1))
    for first in range(0, blocks, group):
        last = min(blocks, first + group)
        start = np.arange(first, last) * ell + 1
        if scheme is Scheme.ZOH:
            horizon = start + ell
            transitions[first:last] = transition_power(op, start / horizon)
            points = (start[:, None] + np.arange(ell + 1)) / horizon[:, None]
            seg = segment_coefficients(op, points).reshape(n, last - first, ell + 1)
            out = kernels[first:last].transpose(1, 0, 2)
            np.subtract(seg[..., 1:], seg[..., :-1], out=out)
        else:
            steps = start[:, None] + np.arange(ell, dtype=float)
            _scan_kernel(op, scheme, steps, transitions[first:last], kernels[first:last])


def _fold_steps(op: HippoOperator, transitions: np.ndarray, kernels: np.ndarray) -> None:
    """Fill forward Euler (P_i, K_i) by multiplying step matrices.

    The arrays and blocks are those of `_fill_bank`. The fold walks all the
    steps from the last down to step 1 in chunks of `_CHUNK_STEPS`, across
    block boundaries, so short blocks share one vectorised build of the
    chunk's steps I - A/k and B/k (as in `discretize_interval`); then the
    sequential suffix-product loop multiplies them in. The chunk stack is
    allocated once and kept small, because it adds directly to peak RSS; no
    (steps, N, N) array is ever built. This fold is O(N^3) per step.
    `history_kernel` uses it for forward Euler below 4(T-1) >= (N+1)^2, as
    a one-block bank. Forward Euler banks stay on it: their amplifying early
    steps make the row scan of `_scan_kernel` unstable.
    """
    blocks, n, ell = kernels.shape
    transitions[:] = np.eye(n)  # the empty product, kept when L = 0
    size = min(_CHUNK_STEPS, blocks * ell)
    a_bars, b_bars = np.empty((size, n, n)), np.empty((size, n))
    for top in range(blocks * ell, 0, -_CHUNK_STEPS):
        bottom = max(1, top - _CHUNK_STEPS + 1)
        count = top - bottom + 1
        h = 1.0 / np.arange(bottom, top + 1, dtype=float)
        np.multiply(h[:, None, None], op.a_matrix, out=a_bars[:count])
        np.subtract(np.eye(n), a_bars[:count], out=a_bars[:count])
        np.multiply(h[:, None], op.b_vector, out=b_bars[:count])
        for j in range(count - 1, -1, -1):
            block, col = divmod(bottom + j - 1, ell)
            if col == ell - 1:
                prod = np.eye(n)
            kernels[block, :, col] = prod @ b_bars[j]
            prod = prod @ a_bars[j]
            if col == 0:
                transitions[block] = prod


def _scan_kernel(
    op: HippoOperator, scheme: Scheme, steps: np.ndarray,
    transitions: np.ndarray, kernels: np.ndarray,
) -> None:
    """Fill backward Euler or bilinear (P_i, K_i) row by row, with no step matrices.

    steps is (blocks, L): row i holds the unit steps of block i, in order
    (step k covers [k, k+1]). kernels is (blocks, N, L), and transitions is
    (blocks, N, C): it takes columns 0 .. C-1 of each P_i, so C = N for a
    bank and C = 1 for a history kernel, whose column 0 is P e0.

    Both schemes solve M = I + c A with the LegS A = diag(n+1) plus the
    strict lower triangle of s s^T (s = B). Backward Euler has h = 1/(k+1),
    c = h and Abar = M^-1; bilinear has h = 1/k, c = h/2 and
    Abar = 2 M^-1 - I. Each Abar is a rational function of A, so the steps
    commute, and Bbar = (I - Abar) e0 = h M^-1 A e0. For each start
    column r < C, a block runs backwards from u_L = e_r through
    u_{j-1} = Abar_j u_j over its steps j = L .. 1, so u_0 is column r of
    P_i; from e_0, column j-1 of K_i is h_j M_j^-1 A u_j. Solving M_j z = u_j by forward
    substitution, row n of z needs only S_n = sum_{m<n} s_m z_m from the
    rows above it. So once those rows are done, row n of every u_j follows
    from one scalar recurrence over the steps, x_{j-1} = p_j x_j + q_j,
    with d = 1 + c (n+1) and
      backward: p = 1/d,               q = -c s_n S_n / d,
      bilinear: p = (1 - c (n+1))/d,   q = -2 c s_n S_n / d.
    A Hillis-Steele scan solves it for all steps in log2(L+1) passes,
    vectorised over blocks and start columns. It composes (p, q) pairs and
    never divides, so p = 0 is safe. M^-1 is lower triangular, so row n is
    zero in start columns r > n and the scan covers columns r <= n only.
    Row n of K_i is h ((n+1) x_j + s_n S_n) / d, which is
    (h M^-1 A u_j)[n]; the same column written as u_j - u_{j-1} cancels:
    against a longdouble recurrence it measured 10-50x less accurate. S_n
    is summed from the scanned u's, z = u_{j-1} (backward) or
    (u_{j-1} + u_j)/2 (bilinear); solving afresh for z was up to 20x less
    accurate on an alternating input. Every operation is elementwise per
    block, so a block's bits do not depend on the blocks scanned with it.
    """
    blocks, n, ell = kernels.shape
    cols = transitions.shape[2]
    s = op.b_vector
    backward = scheme is Scheme.BACKWARD_EULER
    h = 1.0 / (steps + 1.0) if backward else 1.0 / steps
    c = (h if backward else 0.5 * h)[:, None]  # (blocks, 1, L), as p: one per block
    q_scale = (-1.0 if backward else -2.0) * c
    total = np.zeros((blocks, cols, ell))      # S_n at every step
    x = np.empty((blocks, cols, ell + 1))
    # element L is the constant map to u_L[n] = e_r[n]; the scan never writes it
    p = np.zeros((blocks, 1, ell + 1))
    transitions[:] = 0.0
    for row in range(n):
        live = min(row + 1, cols)
        xr, tr = x[:, :live], total[:, :live]
        q = xr[..., :-1]
        cn = c * (row + 1.0)
        d = 1.0 + cn
        np.divide(1.0 if backward else 1.0 - cn, d, out=p[..., :-1])
        np.multiply(s[row] * q_scale, tr, out=q)
        q /= d
        xr[..., -1] = np.arange(live) == row
        offset = 1
        while offset <= ell:
            # in place on views: the operands overlap, which numpy resolves
            head, head_p = xr[..., :-offset], p[..., :-offset]
            head += head_p * xr[..., offset:]
            head_p *= p[..., offset:]
            offset *= 2
        transitions[:, row, :live] = xr[..., 0]
        kernels[:, row] = h * ((row + 1.0) * x[:, 0, 1:] + s[row] * total[:, 0]) / d[:, 0]
        # s_n z_n for the rows below
        z = xr[..., :-1] if backward else 0.5 * (xr[..., :-1] + xr[..., 1:])
        tr += s[row] * z


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
      Bilinear: `_scan_kernel` over one block of steps 1 .. length-1 from
      e0 alone, an O(T log T) scan per state row.
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
        # one block of steps 1 .. T-1, from e0 only: column 0 is P e0
        steps = np.arange(1.0, length)[None]
        _scan_kernel(op, scheme, steps, kernel[None, :, :1], kernel[None, :, 1:])
    elif scheme is Scheme.FORWARD_EULER and 4 * (length - 1) < (n + 1) ** 2:
        prod = np.empty((1, n, n))
        _fold_steps(op, prod, kernel[None, :, 1:])
        kernel[:, 0] = prod[0, :, 0]  # prod @ e0: exact first-sample absorption
    else:
        _hahn_kernel(kernel, scheme is Scheme.BACKWARD_EULER)
    _check_finite(scheme, kernel)
    return kernel

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
form (`segment_coefficients`) and the matrix power r**A by a recurrence
over its rows (`transition_power`). Steps, kernels and banks take them from
there only, so each is computed, and can be timed, in one place.

Under every scheme Bbar_k = (I - Abar_k) e0, because A e0 = B, and the
Abar_k are rational functions of A, so they commute. A whole-history kernel
is therefore fixed by one vector per step, with no products of step
matrices. ZOH has it in closed form. The Euler steps scale mode lambda of A
by (j - lambda)/j (forward) or (j+1)/(j+1+lambda) (backward), so a suffix
product of steps is a ratio of falling or rising factorials, and both
kernels come out of discrete Chebyshev (Hahn) polynomials (`_hahn_kernel`).
Forward Euler uses that form where 4(T-1) >= (N+1)^2, the range in which
those polynomials stay bounded; backward Euler at every size. Bilinear gets
its kernel one state row at a time (`_scan_kernel`): given the rows above,
a row follows from a scalar recurrence over the steps whose suffix
products are again ratios of factorial-like products, so each row is one
cumulative sum. Backward Euler and bilinear banks solve the same rows over
each block's own steps from every start column, with no step matrices
either; ZOH banks take one matrix power per block. Shorter forward Euler
histories and forward Euler banks, whose early steps amplify the
high-order rows (|1 - (n+1)/k| > 1 for k < (n+1)/2), multiply step
matrices instead (`_fold_steps`). A kernel that walks its steps is a
one-block bank, so `_fill_bank` alone picks the fold or the row solve and
numbers a block's steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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


def transition_power(
    op: HippoOperator, ratio: float | np.ndarray, out: list[np.ndarray] | None = None
) -> np.ndarray | list[np.ndarray]:
    """The matrix power ratio**A for the lower-triangular operator A.

    A scalar ratio gives one N x N matrix, an array of ratios one per ratio
    (shape ratios.shape + (N, N)), each with the bits of its scalar call.
    `out`, a list of N arrays of shape (ratios.size, W), takes row n of
    every power, columns 0 .. W-1, in out[n], and is returned: `build_bank`
    writes its row panels so, with no dense power formed.
    r**A re-expands projection coefficients from horizon t to t/r with
    nothing appended: entry (n, k) is r times the coefficient of g_k(u) in
    the dilated g_n(r u). Bonnet's recurrence for P_n(r v + r - 1) and
    v P_k(v) = ((k+1) P_{k+1}(v) + k P_{k-1}(v)) / (2k+1) give each row from
    the two above it, with s_n = sqrt(2n+1), gamma_k = k / (s_{k-1} s_k),
    alpha_n = s_n s_{n+1} / (n+1) and beta_n = n s_{n+1} / ((n+1) s_{n-1}):
      P[n+1, k] = alpha_n (r (gamma_k P[n, k-1] + P[n, k] + gamma_{k+1} P[n, k+1])
                           - P[n, k]) - beta_n P[n-1, k]
    from P[0, 0] = r. Row n has columns 0..n only, so the result is exactly
    lower triangular. Each row is a few elementwise operations over all
    ratios at once, with no GEMM, so the bits do not depend on the BLAS
    kernel; the rows stay bounded, as P_n is on [-1, 1]. The diagonal is
    pinned to r**(n+1); ratio 0 gives exact zeros and ratio 1 the identity.
    """
    ratios = np.asarray(ratio, dtype=float)
    if ratios.size and not (0.0 <= ratios.min() and ratios.max() <= 1.0):
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    n = op.order
    r = ratios.ravel()
    power = None
    if out is None:
        power = np.empty(ratios.shape + (n, n))
        out = list(power.reshape(-1, n, n).transpose(1, 0, 2))
    if len(out) != n or any(dest.ndim != 2 or dest.shape[0] != r.size for dest in out):
        raise ValueError(f"out must be {n} rows of shape ({r.size}, W)")
    s = np.sqrt(2.0 * np.arange(n) + 1.0)
    # work row j holds column k = j - 1 for every ratio; row 0, k = -1, stays 0
    gamma = np.r_[0.0, 0.0, np.arange(1.0, n) / (s[:-1] * s[1:])][:, None]
    # one row per ratio, as in a scalar call: pow's bits depend on its operands' layout
    diagonal = r[:, None] ** np.arange(1.0, n + 1)
    ones = r == 1.0
    prev, cur, nxt, tmp = np.zeros((4, n + 1, r.size))
    for row in range(n):
        if row:  # columns 0 .. row - 1 from rows row - 1 (cur) and row - 2 (prev)
            t, u = nxt[1:row + 1], tmp[1:row + 1]
            np.multiply(gamma[1:row + 1], cur[:row], out=t)
            np.multiply(gamma[2:row + 2], cur[2:row + 2], out=u)
            t += u
            # r P - P, not (r - 1) P: r - 1 rounds for r < 1/2, alike in every row
            t += cur[1:row + 1]
            t *= r
            t -= cur[1:row + 1]
            t *= s[row - 1] * s[row] / row
            np.multiply((row - 1) * s[row] / (row * s[row - 2]), prev[1:row + 1], out=u)
            t -= u
            prev, cur, nxt = cur, nxt, prev
        cur[row + 1] = diagonal[:, row]
        dest = out[row]
        dest[:] = cur[1:dest.shape[1] + 1].T
        dest[ones] = np.arange(dest.shape[1]) == row
    return out if power is None else power


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
        else:
            # backward Euler and bilinear: (I + w h A) [Abar | Bbar] = [I - (1 - w) h A | h B]
            w, h = ((1.0, delta / t_end) if scheme is Scheme.BACKWARD_EULER
                    else (0.5, delta / t_start))
            rhs = np.column_stack([eye - (1.0 - w) * h * a, h * b])
            solved = np.linalg.solve(eye + w * h * a, rhs)
            a_bar, b_bar = solved[:, :n], solved[:, n]

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


# Points per block group in `_fill_bank`, per column chunk of a ZOH
# `history_kernel`, and per row chunk of the CLI's full-grid basis in
# `compress`. Each segment table or row-solve array holds GROUP x N floats
# at most (4 MB at N = 128); a larger group adds to peak RSS and saves only
# per-degree or per-row call overhead.
_GROUP_POINTS = 4096


def _fill_bank(
    op: HippoOperator, scheme: Scheme, rows: list[np.ndarray], kernels: np.ndarray
) -> None:
    """Fill (P_i, K_i) for consecutive blocks of unit steps from step 1 on.

    kernels is (blocks, N, L); block i (0-based) covers steps
    i L + 1 .. (i + 1) L and is read at horizon (i + 1) L + 1. P_i is the
    ordered product of the block's step matrices, and rows[n], of shape
    (blocks, W), takes columns 0 .. W-1 of its row n: for `build_bank` the
    columns of the row's panel, W > n, with exact zeros past column n; for
    `history_kernel`'s one-block banks (not ZOH) W = 1, column 0. No dense
    P_i is formed. Column j of K_i is the product of the block's step
    matrices above its step j times that step's input vector.

    For ZOH the products telescope into one matrix power per block and
    consecutive differences of `segment_coefficients`. One `transition_power`
    call forms every P_i in place; its work arrays hold four rows of N + 1
    floats per block, so they need no groups. The rest goes in groups of consecutive
    blocks of about `_GROUP_POINTS` points, L + 1 segment ends or steps per
    block or N + 2 if more, which bounds each group array by about
    GROUP x min(N, L) floats. A ZOH group takes one `segment_coefficients`
    call; the other schemes' groups one `_fold_steps` (forward Euler) or
    `_scan_kernel` call (backward Euler and bilinear: one cumulative sum per
    state row, with segments cut from the group's first step only). Each
    group fills its slice of the caller's arrays with the bits of one-block
    calls. Groups keep the peak RSS down: all 256 blocks of an N = 128 ZOH
    bank at once would take two 34 MB segment tables.
    """
    blocks, n, ell = kernels.shape
    if scheme is Scheme.ZOH:
        start = np.arange(blocks) * ell + 1
        transition_power(op, start / (start + ell), out=rows)
    group = max(1, _GROUP_POINTS // max(n + 2, ell + 1))
    for first in range(0, blocks, group):
        last = min(blocks, first + group)
        start = np.arange(first, last) * ell + 1
        if scheme is Scheme.ZOH:
            horizon = start + ell
            points = (start[:, None] + np.arange(ell + 1)) / horizon[:, None]
            seg = segment_coefficients(op, points).reshape(n, last - first, ell + 1)
            out = kernels[first:last].transpose(1, 0, 2)
            np.subtract(seg[..., 1:], seg[..., :-1], out=out)
        else:
            steps = start[:, None] + np.arange(ell, dtype=float)
            args = steps, [row[first:last] for row in rows], kernels[first:last]
            if scheme is Scheme.FORWARD_EULER:
                _fold_steps(op, *args)
            else:
                _scan_kernel(op, scheme, *args)


def _fold_steps(
    op: HippoOperator, steps: np.ndarray, rows: list[np.ndarray], kernels: np.ndarray
) -> None:
    """Fill forward Euler (P_i, K_i) by multiplying step matrices.

    The arguments are those of `_scan_kernel`, from `_fill_bank` only:
    steps is (blocks, L), kernels (blocks, N, L) and rows[n] (blocks, W),
    columns 0 .. W-1 of row n of each P_i. Each block walks its
    steps from the last down: column j of K_i is the suffix product times
    the step's input vector h B, and the suffix product then takes the step
    matrix I - h A, with h = 1/k (as in `discretize_interval`). One step
    matrix is formed at a time, in one buffer, because a stack of them would
    add directly to peak RSS (8 MB for 64 steps at N = 128). This fold is
    O(N^3) per step. Forward Euler stays on it: its early steps amplify the
    high-order rows (|1 - (n+1)/k| > 1 for k < (n+1)/2), which makes the
    row solve of `_scan_kernel` unstable.
    """
    eye = np.eye(op.order)
    a_bar = np.empty_like(eye)
    for block, h in enumerate(1.0 / steps):
        b_bars = h[:, None] * op.b_vector
        prod = eye
        for j in range(h.size - 1, -1, -1):
            kernels[block, :, j] = prod @ b_bars[j]
            np.multiply(h[j], op.a_matrix, out=a_bar)
            np.subtract(eye, a_bar, out=a_bar)
            prod = prod @ a_bar
        for dest, prod_row in zip(rows, prod):
            dest[block] = prod_row[:dest.shape[1]]


# Smallest product of row multipliers that one `_scan_kernel` segment may
# carry: q / Phi then stays far inside float64's range.
_SEGMENT_MIN = 1e-150


def _segment_bounds(backward: bool, n: int, steps: np.ndarray) -> list[int]:
    """Positions [0, .., L] that cut each block of steps into `_scan_kernel` segments.

    A segment [lo, hi) is anchored at its end: the multipliers it carries
    are products of p over its own steps from k on. The cuts keep the top
    rows' products (bilinear: the top two, one per parity of lambda) above
    `_SEGMENT_MIN`, walking back from the block end; bilinear's zero
    step (p = 0 at k = lambda/2) counts as 1, since its row restarts there.
    Lower rows have larger products at every step k > N/2, and the
    threshold leaves 150 decades for the steps below. Bilinear needs cuts
    from about 340 steps at N = 128 and 2570 at N = 64, backward Euler from
    about 680 and 5780; N = 32 needs none below 279k steps. At steps
    k > N/2 the group's first block has the smallest products, so the cuts
    come from it; at k <= N/2, where bilinear's |p| is not monotone in k,
    each position also takes the smallest over the later blocks that reach
    it. The cuts thus depend on the group's first step only, and a block's
    bits not on its group.
    """
    ell = steps.shape[1]
    first = int(steps[0, 0])
    head = 0 if backward else max(0, min(ell, n // 2 - first + 1))
    # the first block, then at positions j < head the steps k <= n/2 of the
    # later blocks and the first step past n/2
    ks = steps[0]
    if head:
        later = np.arange(1, (n // 2 - first) // ell + 2)[:, None]
        ks = np.concatenate([ks, (first + np.arange(head) + ell * later).ravel()])
    lams = np.arange(n, max(n - (1 if backward else 2), 0), -1.0)[:, None]
    if backward:
        p = (ks + 1.0) / (ks + 1.0 + lams)
    else:
        p = np.abs(2.0 * ks - lams) / (2.0 * ks + lams)
        p[p == 0.0] = 1.0
    p = p.min(axis=0)
    if head:
        np.minimum(p[:head], p[ell:].reshape(-1, head).min(axis=0), out=p[:head])
    p = p[:ell]
    if np.prod(p) >= _SEGMENT_MIN:
        return [0, ell]
    # log of the top rows' product from the block end down to each position
    logs = np.log(p[::-1]).cumsum()
    bounds, floor = [ell], np.log(_SEGMENT_MIN)
    while logs[-1] < floor:
        cut = int(np.searchsorted(-logs, -floor, side="right"))
        bounds.append(ell - cut)
        floor = logs[cut - 1] + np.log(_SEGMENT_MIN)
    return [0] + bounds[::-1]


def _scan_kernel(
    op: HippoOperator, scheme: Scheme, steps: np.ndarray,
    rows: list[np.ndarray], kernels: np.ndarray,
) -> None:
    """Fill backward Euler or bilinear (P_i, K_i) row by row, with no step matrices.

    steps is (blocks, L): row i holds the unit steps of block i, in order
    (step k covers [k, k+1]), and block i+1 goes on where block i ends, as
    `_fill_bank`, its only caller, numbers them. kernels is (blocks, N, L),
    and rows[n] is (blocks, W): it takes columns 0 .. W-1 of row n of each
    P_i. The last row's width C is the number of start columns: C = N for
    a bank, and C = 1 for a history kernel, whose column 0 is P e0 and
    whose rows solve from e0 alone.

    Both schemes solve M = I + c A with the LegS A = diag(n+1) plus the
    strict lower triangle of s s^T (s = B). Backward Euler has h = 1/(k+1),
    c = h and Abar = M^-1; bilinear has h = 1/k, c = h/2 and
    Abar = 2 M^-1 - I. Each Abar is a rational function of A, so the steps
    commute, and Bbar = (I - Abar) e0 = h M^-1 A e0. For each start
    column r < C, a block runs backwards from u_L = e_r through
    u_{j-1} = Abar_j u_j over its steps j = L .. 1, so u_0 is column r of
    P_i; from e_0, column j-1 of K_i is h_j M_j^-1 A u_j. Solving M_j z = u_j by forward
    substitution, row n of z needs only S_n = sum_{m<n} s_m z_m from the
    rows above it. So once those rows are done, row n (lambda = n+1) of
    every u_j follows from one scalar recurrence over the steps,
    x_{j-1} = p_j x_j + q_j, with w = h / (1 + c lambda), q = -s_n S_n w and
      backward: p_k = (k+1)/(k+1+lambda),  w = 1/(k+1+lambda),
      bilinear: p_k = (2k-lambda)/(2k+lambda),  w = 2/(2k+lambda).
    With Phi_j the product of p over the block's steps from j on, the
    recurrence sums to x = Phi (x_L + reversed cumsum(q / Phi)): one
    cumulative sum per row, vectorised over blocks and start columns. Phi
    has a closed form, a ratio of rising factorials (backward,
    (a+1)_lambda / (e+2)_lambda) or of R(x) = prod_{t<lambda}(x - lambda/2 + t)
    (bilinear, R(a)/R(e+1)), for steps a .. e. So each row carries it from
    the row above (bilinear: two rows above, one chain per parity of
    lambda) by one factor (g(a) - d)/(g(e+1) - d), with g(x) = x, d = -lambda
    (backward) or g(x) = x(x-1), d = lambda(lambda-2)/4 (bilinear).
    Numerator and denominator are exact in float64, so a multiplier carries
    about lambda roundings; a cumulative product over the steps would carry
    one per step. Two things break the closed form:
    - Underflow: at large N ln T the top rows' products leave float64's
      range, so `_segment_bounds` cuts the blocks into segments, each
      anchored at its end (e = its last step) and fed x from the segment
      above.
    - Bilinear's zero step: for even lambda, p = 0 at k = lambda/2, where
      x restarts from q. Phi there restarts at 1, and below it Phi is the
      product down to the zero: the steps from the start of the segment
      holding step lambda/2 - 1 through that step take the factor's
      denominator (lambda-2)(lambda-1). The restart takes its own
      cumulative sum, anchored at 0: subtracting the segment's sum would
      cancel catastrophically. Steps with 2k < lambda have p < 0, and the
      closed form holds there as it stands.
    M^-1 is lower triangular, so row n is zero in start columns r > n and
    the sum covers columns r <= n only. Row n of K_i is
    w (lambda x_j + s_n S_n), which is (h M^-1 A u_j)[n]; the same column
    written as u_j - u_{j-1} cancels: against a longdouble recurrence it
    measured 10-50x less accurate. S_n is summed from the solved u's,
    z = u_{j-1} (backward) or (u_{j-1} + u_j)/2 (bilinear); solving afresh
    for z was up to 20x less accurate on an alternating input. Every
    operation is elementwise per block, and the segments depend on the
    group's first step only, so a block's bits do not depend on the blocks
    solved with it.
    """
    blocks, n, ell = kernels.shape
    starts = np.eye(n, rows[-1].shape[1])  # row n of u_L = e_r, per start column r
    for dest, start in zip(rows, starts):  # zeros above the diagonal; no steps: P = I
        dest[:] = start[:dest.shape[1]]
    if not ell:
        return
    s = op.b_vector
    backward = scheme is Scheme.BACKWARD_EULER
    bounds = _segment_bounds(backward, n, steps)
    spans = list(zip(bounds, bounds[1:]))[::-1]  # segments, from the block end
    segment_start = np.repeat(bounds[:-1], np.diff(bounds))
    a = steps[:, None, :]
    # e, the last step of each position's segment
    e = np.repeat(steps[:, None, np.array(bounds[1:]) - 1], np.diff(bounds), axis=-1)
    # g(a), g(e+1), and w's denominator less lambda
    if backward:
        g, g_end, w_base = a, e + 1.0, a + 1.0
        phis = [np.ones((blocks, 1, ell))]
    else:
        g, g_end, w_base = a * (a - 1.0), e * (e + 1.0), 2.0 * a
        # lambda = 0, and lambda = 1: R_1(x) = x - 1/2
        phis = [np.ones((blocks, 1, ell)), (2.0 * a - 1.0) / (2.0 * e + 1.0)]
    first, positions = int(steps[0, 0]), blocks * ell
    total = np.zeros((blocks, starts.shape[1], ell))  # S_n at every step
    x = np.empty((blocks, starts.shape[1], ell + 1))  # element L is u_L[n]
    y = np.empty_like(total)
    factor = np.empty((blocks, 1, ell))
    den = np.empty((blocks, 1, ell))
    w = np.empty((blocks, 1, ell))                    # -s_n w
    scaled = np.empty((blocks, 1, ell))               # -s_n w / Phi
    x_after, total_0, w_0 = x[:, 0, 1:], total[:, 0], w[:, 0]
    for row in range(n):
        lam = row + 1.0
        phi = phis[0] if backward else phis[(row + 1) % 2]
        zero = None
        if backward or row:
            offset = -lam if backward else lam * (lam - 2.0) / 4.0
            np.subtract(g_end, offset, out=den)
            if not backward and row % 2 and 0 <= (flat := (row + 1) // 2 - first) <= positions:
                # p = 0 at step lambda/2, flat position `flat`: the steps from
                # the start of the segment holding the step before it now end
                # at the zero, and carry the product down to it
                if flat:
                    block, j = divmod(flat - 1, ell)
                    den[block, 0, segment_start[j]:j + 1] = (lam - 2.0) * (lam - 1.0)
                if flat < positions:
                    zero = divmod(flat, ell)
            np.subtract(g, offset, out=factor)
            factor /= den
            phi *= factor
            if zero:
                phi[zero[0], 0, zero[1]] = 1.0
        live = min(row + 1, starts.shape[1])
        xr, tr, yr = x[:, :live], total[:, :live], y[:, :live]
        xr[..., -1] = starts[row, :live]
        np.add(w_base, lam, out=w)
        np.divide(-s[row] * (1.0 if backward else 2.0), w, out=w)
        np.divide(w, phi, out=scaled)
        np.multiply(tr, scaled, out=yr)  # q / Phi
        for lo, hi in spans:
            ys = yr[..., lo:hi]
            ys[..., -1] += xr[..., hi]
            np.add.accumulate(ys[..., ::-1], axis=-1, out=ys[..., ::-1])
            np.multiply(phi[..., lo:hi], ys, out=xr[..., lo:hi])
            if zero and lo <= zero[1] < hi:
                # the restart, from q at the zero step
                block, z = zero
                lo = segment_start[z]
                ys = yr[block, :, lo:z + 1]
                np.multiply(tr[block, :, lo:z + 1], scaled[block, :, lo:z + 1], out=ys)
                np.add.accumulate(ys[..., ::-1], axis=-1, out=ys[..., ::-1])
                np.multiply(phi[block, :, lo:z + 1], ys, out=xr[block, :, lo:z + 1])
        rows[row][:, :live] = xr[..., 0]
        k = kernels[:, row]
        np.multiply(x_after, -lam / s[row], out=k)
        k -= total_0
        k *= w_0
        # s_n z_n for the rows below
        if backward:
            np.multiply(xr[..., :-1], s[row], out=yr)
        else:
            np.add(xr[..., :-1], xr[..., 1:], out=yr)
            yr *= 0.5 * s[row]
        tr += yr


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
      differenced straight from its rows, `_GROUP_POINTS` columns at a
      time: each column needs only its own two points, so the chunks keep
      the bits of one table. The peak is the kernel plus one chunk's
      Legendre table and segment coefficients, (2N+1)(G+1) floats with
      G = `_GROUP_POINTS` (8.4 MB at N = 128).
      Backward Euler, and forward Euler with 4(length-1) >= (N+1)^2:
      `_hahn_kernel`, in closed form from Hahn polynomials, O(N T).
      Bilinear, and forward Euler below that size: a one-block bank over
      steps 1 .. length-1 (`_fill_bank`), with P e0 as column 0. Bilinear
      solves it from e0 alone, one O(T) cumulative sum per state row;
      forward Euler multiplies the step matrices, because there the exact
      kernel entries grow large (about 1e8 at N = 32, length = 33), the
      Hahn recurrence loses digits, and the steps amplify row n for
      k < (n+1)/2, so a row solve of the reverse-order recurrence would be
      unstable too.
    """
    length = _as_index("length", length)
    scheme = Scheme(scheme)
    n = op.order
    kernel = np.empty((n, length))
    forward = scheme is Scheme.FORWARD_EULER
    if scheme is Scheme.ZOH:
        for lo in range(0, length, _GROUP_POINTS):
            hi = min(lo + _GROUP_POINTS, length)
            seg = segment_coefficients(op, np.arange(lo, hi + 1) / length)
            np.subtract(seg[:, 1:], seg[:, :-1], out=kernel[:, lo:hi])
            del seg  # else it lives on beside the next chunk's table and output
    elif scheme is Scheme.BILINEAR or (forward and 4 * (length - 1) < (n + 1) ** 2):
        # steps 1 .. T-1; P keeps column 0, P e0, the exact first-sample absorption
        _fill_bank(op, scheme, list(kernel[:, None, :1]), kernel[None, :, 1:])
    else:
        _hahn_kernel(kernel, scheme is Scheme.BACKWARD_EULER)
    _check_finite(scheme, kernel)
    return kernel

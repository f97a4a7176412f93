"""Block-parallel update equivalence and bank construction."""

import numpy as np
import pytest

from hippomem import (
    MemoryState,
    Scheme,
    block_update,
    build_bank,
    build_operator,
    discretize_step,
    history_kernel,
    sequential_update,
    zero_state,
)
from hippomem import discretization
from hippomem.block_kernel import BlockKernelBank, _panel_rows, _panels, _panel_width
from hippomem.discretization import (
    _GROUP_POINTS, _segment_bounds, segment_coefficients, transition_power,
)
from hippomem.rng import normals, derive

NON_ZOH = [Scheme.FORWARD_EULER, Scheme.BACKWARD_EULER, Scheme.BILINEAR]


def brute_force_block(op, first: int, last: int, scheme: Scheme):
    """Naive ordered products over steps first..last: the oracle path."""
    n = op.order
    steps = [discretize_step(op, k, scheme) for k in range(first, last + 1)]
    prod = np.eye(n)
    kernel = np.zeros((n, last - first + 1))
    suffix = np.eye(n)
    for j in range(len(steps) - 1, -1, -1):
        kernel[:, j] = suffix @ steps[j].b_bar
        suffix = suffix @ steps[j].a_bar
    for step in steps:
        prod = step.a_bar @ prod
    return prod, kernel


def test_block_length_one_degenerates_to_steps():
    op = build_operator(5)
    bank = build_bank(op, 1, Scheme.ZOH, 4)
    for i in range(1, 5):
        step = discretize_step(op, i, Scheme.ZOH)
        np.testing.assert_allclose(bank.transitions[i - 1], step.a_bar, atol=1e-12)
        np.testing.assert_allclose(bank.kernels[i - 1][:, 0], step.b_bar, atol=1e-12)


def test_first_block_transition_matches_naive_product():
    op = build_operator(4)
    bank = build_bank(op, 8, Scheme.ZOH, 2)
    prod, kernel = brute_force_block(op, 1, 8, Scheme.ZOH)
    assert np.abs(bank.transitions[0] - prod).max() < 1e-10
    assert np.abs(bank.kernels[0] - kernel).max() < 1e-10


def test_second_block_diagonal_telescopes():
    # steps 9..16 of ZOH give diagonal (9/17)^(n+1)
    op = build_operator(4)
    bank = build_bank(op, 8, Scheme.ZOH, 2)
    expected = (9.0 / 17.0) ** (np.arange(4) + 1.0)
    assert np.abs(np.diag(bank.transitions[1]) - expected).max() < 1e-12
    prod, kernel = brute_force_block(op, 9, 16, Scheme.ZOH)
    assert np.abs(bank.transitions[1] - prod).max() < 1e-10
    assert np.abs(bank.kernels[1] - kernel).max() < 1e-10


@pytest.mark.parametrize("scheme", [Scheme.ZOH, Scheme.BILINEAR, Scheme.BACKWARD_EULER,
                                    Scheme.FORWARD_EULER])
def test_bank_matches_brute_force(scheme):
    ell = 5
    for order in (6, 32):
        op = build_operator(order)
        bank = build_bank(op, ell, scheme, 3)
        for i in (1, 2, 3):
            prod, kernel = brute_force_block(op, (i - 1) * ell + 1, i * ell, scheme)
            # N = 32 is held to 1e-12 relative to max(1, |P|): forward Euler's
            # early steps amplify its entries far past 1
            bound = 1e-9 if order == 6 else 1e-12 * max(1.0, np.abs(prod).max())
            assert np.abs(bank.transitions[i - 1] - prod).max() < bound
            assert np.abs(bank.kernels[i - 1] - kernel).max() < bound


@pytest.mark.parametrize("scheme", NON_ZOH)
def test_bank_blocks_longer_than_a_chunk(scheme):
    # 133 steps, past 128, and the second block starts at step 134, not at a
    # power of two; at N = 6 the bilinear zero steps k = 1, 2, 3 all fall in
    # block 1
    op = build_operator(6)
    ell = 133
    bank = build_bank(op, ell, scheme, 2)
    for i in (1, 2):
        prod, kernel = brute_force_block(op, (i - 1) * ell + 1, i * ell, scheme)
        assert np.abs(bank.transitions[i - 1] - prod).max() < 1e-12
        assert np.abs(bank.kernels[i - 1] - kernel).max() < 1e-12


@pytest.mark.parametrize("order, ell, blocks", [(128, 64, 70), (32, 1, 300), (1, 1, 6)])
def test_zoh_bank_equals_per_block_power_and_segments(order, ell, blocks):
    # the P_i come from one call and the K_i a group at a time; each block must
    # equal its own one-block build, bit for bit
    group = _GROUP_POINTS // max(order + 2, ell + 1)
    assert blocks % group  # the last group is partial
    op = build_operator(order)
    bank = build_bank(op, ell, Scheme.ZOH, blocks)
    transitions = bank.transitions
    for i in range(blocks):
        start, horizon = i * ell + 1, (i + 1) * ell + 1
        seg = segment_coefficients(op, np.arange(start, horizon + 1) / horizon)
        np.testing.assert_array_equal(transitions[i], transition_power(op, start / horizon))
        np.testing.assert_array_equal(bank.kernels[i], seg[:, 1:] - seg[:, :-1])
    assert bank.panels.strides == np.empty((blocks, _panel_width(order))).strides
    assert bank.kernels.strides == np.empty((blocks, order, ell)).strides


@pytest.mark.parametrize("order, ell, blocks, prefix", [(32, 64, 70, 65), (4, 1, 700, 690)])
@pytest.mark.parametrize("scheme", NON_ZOH)
def test_scan_bank_blocks_do_not_depend_on_their_group(scheme, order, ell, blocks, prefix):
    # the prefix ends inside the second group, which it fills less than the full bank does
    group = _GROUP_POINTS // max(order + 2, ell + 1)
    assert group < prefix < blocks and prefix % group and blocks % group
    op = build_operator(order)
    bank = build_bank(op, ell, scheme, blocks)
    short = build_bank(op, ell, scheme, prefix)
    np.testing.assert_array_equal(bank.transitions[:prefix], short.transitions)
    np.testing.assert_array_equal(bank.kernels[:prefix], short.kernels)
    # and a later group scans its own blocks' steps
    prod, kernel = brute_force_block(op, (prefix - 1) * ell + 1, prefix * ell, scheme)
    assert np.abs(short.transitions[-1] - prod).max() <= 1e-12
    assert np.abs(short.kernels[-1] - kernel).max() <= 1e-12


def hillis_steele_rows(op, scheme: Scheme, steps: np.ndarray,
                       transitions: np.ndarray, kernels: np.ndarray) -> None:
    """`discretization._scan_kernel`'s row recurrence, solved by a Hillis-Steele scan.

    Same arguments and outputs. Row n of every u_j follows from
    x_{j-1} = p_j x_j + q_j over a block's steps, and log2(L+1) doubling
    passes compose the (p, q) pairs, with no division and no closed-form
    multiplier. So it shares no multiplier arithmetic with the row solve it
    checks, and its per-step products underflow to 0 gracefully.
    """
    blocks, n, ell = kernels.shape
    cols = transitions.shape[2]
    s = op.b_vector
    backward = scheme is Scheme.BACKWARD_EULER
    h = 1.0 / (steps + 1.0) if backward else 1.0 / steps
    c = (h if backward else 0.5 * h)[:, None]
    q_scale = (-1.0 if backward else -2.0) * c
    total = np.zeros((blocks, cols, ell))
    x = np.empty((blocks, cols, ell + 1))
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
            head, head_p = xr[..., :-offset], p[..., :-offset]
            head += head_p * xr[..., offset:]
            head_p *= p[..., offset:]
            offset *= 2
        transitions[:, row, :live] = xr[..., 0]
        kernels[:, row] = h * ((row + 1.0) * x[:, 0, 1:] + s[row] * total[:, 0]) / d[:, 0]
        z = xr[..., :-1] if backward else 0.5 * (xr[..., :-1] + xr[..., 1:])
        tr += s[row] * z


def hillis_steele_kernel(op, length: int) -> np.ndarray:
    """The N x length bilinear history kernel from `hillis_steele_rows`."""
    kernel = np.empty((op.order, length))
    hillis_steele_rows(op, Scheme.BILINEAR, np.arange(1.0, length)[None],
                       kernel[None, :, :1], kernel[None, :, 1:])
    return kernel


def longdouble_block_products(op, ell: int, scheme: Scheme, blocks: int):
    """(P_i, K_i) as products of `discretize_step` matrices, accumulated in np.longdouble.

    The steps come from a dense solve, so they share no rounding with the
    bank's row scan; the 80-bit products add almost none of their own.
    """
    ld = np.longdouble
    n = op.order
    transitions = np.empty((blocks, n, n), dtype=ld)
    kernels = np.empty((blocks, n, ell), dtype=ld)
    for i in range(blocks):
        steps = [discretize_step(op, i * ell + 1 + j, scheme) for j in range(ell)]
        suffix = np.eye(n, dtype=ld)
        for j in range(ell - 1, -1, -1):
            kernels[i, :, j] = suffix @ steps[j].b_bar.astype(ld)
            suffix = suffix @ steps[j].a_bar.astype(ld)
        transitions[i] = suffix
    return transitions, kernels


# bilinear's p = 0 at k = lambda/2 restarts a row: at N = 16 the top row's
# zero step k = 8 ends block 1 (L = 8), starts block 2 (L = 7) or falls
# inside block 1 (L = 9); lower even rows put theirs at every k < 8
@pytest.mark.parametrize("order, ell, blocks", [(16, 8, 16), (16, 7, 3), (16, 9, 3), (16, 64, 8),
                                                (32, 8, 16), (32, 64, 12)])
@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
def test_scan_bank_against_longdouble_step_products(scheme, order, ell, blocks):
    op = build_operator(order)
    bank = build_bank(op, ell, scheme, blocks)
    transitions, kernels = longdouble_block_products(op, ell, scheme, blocks)
    bound = 4e-15 * max(1.0, float(np.abs(transitions).max()))
    assert np.abs(bank.transitions - transitions).max() <= bound
    assert np.abs(bank.kernels - kernels).max() <= bound


def test_zoh_bank_makes_one_legendre_table_per_group(monkeypatch):
    # the segment ends' table; the transitions' recurrence needs none
    calls = []
    real = discretization.legendre_table
    monkeypatch.setattr(discretization, "legendre_table",
                        lambda z, count: calls.append(count) or real(z, count))
    op = build_operator(32)
    assert _GROUP_POINTS // 65 == 63  # so 70 blocks of L = 64 take 2 groups
    build_bank(op, 64, Scheme.ZOH, 70)
    assert calls == [33, 33]


@pytest.mark.parametrize("order", [4, 32, 128])
@pytest.mark.parametrize("scheme", NON_ZOH)
@pytest.mark.parametrize("length", [1, 209])
def test_history_kernel_matches_composed_steps(order, scheme, length):
    # column 0 is the exact first-sample absorption: the product of steps 1..T-1 times e0.
    # T = 1 has no steps. At T = 209 every bilinear zero step k = lambda/2 falls inside
    # the block. T = 209 is below the Hahn line at N = 32 and 128, so forward Euler folds;
    # at N = 128 that fold is off by 1.3 relative to max|K| against a 120-digit
    # reference, which these products, rounded the same way, do not see.
    # Forward Euler at N=128 has not decayed by this T (|K| ~ 1e16), hence the relative bound.
    op = build_operator(order)
    prod, kernel = brute_force_block(op, 1, length - 1, scheme)
    expected = np.hstack([prod[:, :1], kernel])
    got = history_kernel(op, length, scheme)
    assert got.shape == (order, length)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
@pytest.mark.parametrize("order", [1, 4, 32, 128])
@pytest.mark.parametrize("length", [2, 3, 65, 513])
def test_history_kernel_scan_matches_one_block_bank(scheme, order, length):
    # Over steps 1..T-1 a one-block bank builds the same operator. Backward
    # Euler's kernel takes the Hahn closed form and its bank the row solve,
    # two independent routes. Bilinear's kernel and bank both take the row
    # solve (from one start column and from all N), so they agree to the
    # bit, and bilinear is also held to the Hillis-Steele scan of the same
    # rows.
    op = build_operator(order)
    kernel = history_kernel(op, length, scheme)
    bank = build_bank(op, length - 1, scheme, 1)
    bank_kernel = np.hstack([bank.transitions[0][:, :1], bank.kernels[0]])
    bound = 1e-13 * np.abs(kernel).max()
    if scheme is Scheme.BILINEAR:
        # the kernel is a one-block bank that keeps column 0 of P, so it has its bits
        np.testing.assert_array_equal(kernel, bank_kernel)
        assert np.abs(kernel - hillis_steele_kernel(op, length)).max() <= bound
    else:
        assert np.abs(kernel - bank_kernel).max() <= bound


@pytest.mark.parametrize("order, length", [(16, 8), (33, 17), (16, 2), (64, 9)])
def test_bilinear_kernel_with_more_rows_than_steps(order, length):
    # N >= 2T: the top rows' multipliers are all <= 0 (2k <= lambda at every
    # step), even rows with lambda >= 2T have their zero step past the block,
    # and at lambda = 2T the block's closed-form denominator g(e+1) - d is 0
    op = build_operator(order)
    kernel = history_kernel(op, length, Scheme.BILINEAR)
    prod, steps = brute_force_block(op, 1, length - 1, Scheme.BILINEAR)
    expected = np.hstack([prod[:, :1], steps])
    assert np.abs(kernel - expected).max() <= 1e-12 * np.abs(expected).max()
    scan = hillis_steele_kernel(op, length)
    assert np.abs(kernel - scan).max() <= 1e-13 * np.abs(scan).max()
    constant = kernel.astype(np.longdouble).sum(axis=1).astype(float)
    assert np.abs(constant - np.eye(order)[0]).max() <= 1e-14


def test_bilinear_kernel_past_float64_range_is_solved_in_segments():
    # at N = 256, T = 2048 the top row's multipliers fall to about 1e-341,
    # below the smallest float64, so the rows are solved in segments
    op = build_operator(256)
    length = 2048
    assert len(_segment_bounds(False, 256, np.arange(1.0, length)[None])) > 3
    kernel = history_kernel(op, length, Scheme.BILINEAR)
    assert np.isfinite(kernel).all()
    constant = kernel.astype(np.longdouble).sum(axis=1).astype(float)
    assert np.abs(constant - np.eye(256)[0]).max() <= 1e-13
    scan = hillis_steele_kernel(op, length)
    assert np.abs(kernel - scan).max() <= 1e-12 * np.abs(scan).max()


def test_segment_cuts_depend_on_the_groups_first_step_only():
    # at N = 512 bilinear's steps k <= N/2 span three blocks of 120, where
    # |p| is not monotone in k; groups of 1 to 6 blocks from step 1 cut
    # their blocks alike, so a bank's prefix keeps the longer bank's bits
    steps = 1.0 + np.arange(6 * 120).reshape(6, 120)
    for backward in (False, True):
        cuts = [_segment_bounds(backward, 512, steps[:b]) for b in range(1, 7)]
        assert all(c == cuts[0] for c in cuts), cuts
    assert len(_segment_bounds(False, 512, steps)) > 2


def test_bank_in_segments_keeps_the_constant_oracle():
    # blocks of 400 steps at N = 192 take two segments each (bilinear and
    # backward Euler); a constant streamed through any block stays e0:
    # P_i e0 + K_i 1 = e0, because A e0 = B
    op = build_operator(192)
    steps = 1.0 + np.arange(400)[None]
    e0 = np.eye(192)[0]
    for scheme in (Scheme.BACKWARD_EULER, Scheme.BILINEAR):
        assert len(_segment_bounds(scheme is Scheme.BACKWARD_EULER, 192, steps)) == 3
        bank = build_bank(op, 400, scheme, 2)
        for p, k in zip(bank.transitions, bank.kernels):
            assert np.abs(p[:, 0] + k.sum(axis=1) - e0).max() <= 1e-13


@pytest.mark.parametrize("order,offset", [(order, offset) for order in (1, 2, 4, 16, 32)
                                          for offset in (-1, 0, 1) if order > 1 or offset >= 0])
def test_forward_history_kernel_matches_one_block_bank(order, offset):
    # closed form from 4(T - 1) >= (N + 1)^2 on (offset >= 0), the step fold
    # below it (N = 1 starts at T = 2, the shortest a bank can match); the
    # bank always folds
    length = 1 + -(-(order + 1) ** 2 // 4) + offset
    op = build_operator(order)
    kernel = history_kernel(op, length, Scheme.FORWARD_EULER)
    bank = build_bank(op, length - 1, Scheme.FORWARD_EULER, 1)
    bank_kernel = np.hstack([bank.transitions[0][:, :1], bank.kernels[0]])
    if offset < 0:
        # the fold: the kernel is a one-block bank that keeps column 0 of P
        np.testing.assert_array_equal(kernel, bank_kernel)
    else:
        assert np.abs(kernel - bank_kernel).max() <= 1e-12 * np.abs(kernel).max()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_bank_transitions_are_exactly_lower_triangular(scheme):
    # the dense accessor has +0.0 wherever the panels store nothing, and the
    # panels' diagonal blocks hold +0.0 above the diagonal
    for order, ell, blocks in ((6, 5, 3), (32, 16, 4), (40, 3, 2)):
        bank = build_bank(build_operator(order), ell, scheme, blocks)
        upper = np.triu(bank.transitions, 1)
        assert not upper.any() and not np.signbit(upper).any()
        assert np.tril(bank.transitions, -1).any()


def test_panels_hold_the_lower_triangle_by_16_row_panels():
    # rows [r0, r1) over columns [0, r1); a one-row last panel joins the one above
    assert _panel_rows(1) == [(0, 1)]
    assert _panel_rows(17) == [(0, 17)]
    assert _panel_rows(33) == [(0, 16), (16, 33)]
    assert _panel_rows(34) == [(0, 16), (16, 32), (32, 34)]
    assert _panel_width(128) == 9216 and _panel_width(32) == 768
    bank = build_bank(build_operator(34), 4, Scheme.BILINEAR, 3)
    dense = bank.transitions
    assert bank.panels.shape == (3, 16 * 16 + 16 * 32 + 2 * 34)
    for r0, r1, panel in _panels(bank.panels, 34):
        np.testing.assert_array_equal(panel, dense[:, r0:r1, :r1])
    assert not bank.transitions.flags.writeable


def _bank_with_panel_entry(bank, block, row, col, value):
    """A hand-built copy of bank with P_block[row, col] stored as value."""
    panels = bank.panels.copy()
    r0, panel = next((r0, panel) for r0, r1, panel in _panels(panels, bank.order)
                     if r0 <= row < r1)
    panel[block, row - r0, col] = value
    return BlockKernelBank(bank.scheme, panels, bank.kernels)


def test_bank_rejects_an_entry_above_the_diagonal():
    # panels store nothing right of their diagonal block, so only the strict
    # upper parts of the diagonal blocks can hold such an entry, and they are checked
    bank = build_bank(build_operator(40), 4, Scheme.ZOH, 3)
    for block, row, col, rows in ((0, 0, 1, "0 to 15"), (2, 14, 15, "0 to 15"),
                                  (1, 16, 17, "16 to 31"), (2, 32, 39, "32 to 39")):
        with pytest.raises(ValueError, match=f"not lower triangular in rows {rows}"):
            _bank_with_panel_entry(bank, block, row, col, 1e-300)
    with pytest.raises(ValueError, match="not lower triangular"):
        _bank_with_panel_entry(bank, 1, 20, 30, np.nan)
    # the lower triangle and the diagonal take any value
    for row, col in ((5, 5), (39, 0), (20, 19)):
        _bank_with_panel_entry(bank, 1, row, col, -2.0)


@pytest.mark.parametrize("transitions_shape, kernels_shape", [
    ((4, 36), (2, 6, 4)),     # more transitions than kernels
    ((2, 36), (4, 6, 4)),     # fewer
    ((3, 6, 6), (3, 6, 4)),   # dense P_i, not row panels
    ((3, 25), (3, 6, 4)),     # panels of another order than K_i
    ((36,), (3, 6, 4)),
    ((3, 36), (6, 4)),
])
def test_bank_rejects_mismatched_shapes(transitions_shape, kernels_shape):
    # transitions are stored as (B, W) row panels, W = 36 at N = 6; a bank of
    # 4 transitions and 2 kernels would otherwise build, then stop
    # block_update at block 3 with an IndexError
    with pytest.raises(ValueError, match="are not \\(B, W\\) row panels and \\(B, N, L\\)"):
        BlockKernelBank(Scheme.ZOH, np.zeros(transitions_shape), np.zeros(kernels_shape))


def test_bank_coerces_its_scheme():
    panels, kernels = np.zeros((3, 36)), np.zeros((3, 6, 4))
    assert BlockKernelBank("Bilinear", panels, kernels).scheme is Scheme.BILINEAR
    with pytest.raises(ValueError, match="unknown scheme 'euler'"):
        BlockKernelBank("euler", panels, kernels)


def test_bank_sizes_are_those_of_its_arrays():
    bank = BlockKernelBank(Scheme.ZOH, np.zeros((3, 36)), np.zeros((3, 6, 4)))
    assert (bank.max_blocks, bank.order, bank.block_length) == (3, 6, 4)
    assert bank.transitions.shape == (3, 6, 6)


@pytest.mark.parametrize("order", [1, 6, 15, 16, 17, 31, 32, 33, 48, 49, 64, 65, 97, 100,
                                   127, 128, 129])
@pytest.mark.parametrize("channels", [1, 2, 3, 16, 256])
def test_block_update_is_p_c_plus_k_f_to_the_bit(order, channels):
    # P_i C is one product per stored 16-row panel, over the columns up to
    # the panel's diagonal block. The entries left out are exact zeros, and
    # each panel sums the same products over k in the same order as the
    # full product, so the bits are those of P_i @ C + K_i @ F. A one-row
    # product would not (numpy takes gemv, which sums in another order), so
    # at N = 17, 33, 49, 65, 97 and 129 the last row joins the panel above it.
    op = build_operator(order)
    bank = build_bank(op, 8, Scheme.ZOH, 2)
    coeffs = normals(derive(order, channels), order * channels).reshape(order, channels)
    inputs = normals(derive(order, channels, 1), 8 * channels).reshape(8, channels)
    state = block_update(MemoryState(coeffs, blocks_absorbed=1), inputs, bank)
    want = bank.transitions[1] @ coeffs + bank.kernels[1] @ inputs
    np.testing.assert_array_equal(state.coefficients, want)


def test_bank_rejects_bad_parameters():
    op = build_operator(3)
    with pytest.raises(ValueError):
        build_bank(op, 0, Scheme.ZOH, 2)
    with pytest.raises(ValueError):
        build_bank(op, 4, Scheme.ZOH, 0)


def test_bank_takes_a_scheme_name():
    op = build_operator(4)
    bank = build_bank(op, 4, "Backward", 2)
    assert bank.scheme is Scheme.BACKWARD_EULER
    np.testing.assert_array_equal(bank.kernels,
                                  build_bank(op, 4, Scheme.BACKWARD_EULER, 2).kernels)
    with pytest.raises(ValueError, match="unknown scheme 'euler'"):
        build_bank(op, 4, "euler", 2)


def test_block_update_zero_in_zero_out():
    op = build_operator(4)
    bank = build_bank(op, 6, Scheme.ZOH, 2)
    state = block_update(zero_state(4, 2), np.zeros((6, 2)), bank)
    np.testing.assert_array_equal(state.coefficients, np.zeros((4, 2)))
    assert state.blocks_absorbed == 1


def test_block_update_equals_sequential_composition():
    op = build_operator(16)
    ell, channels = 32, 4
    bank = build_bank(op, ell, Scheme.ZOH, 2)
    coeffs = normals(derive(7, 0), 16 * channels).reshape(16, channels)
    inputs = normals(derive(7, 1), ell * channels).reshape(ell, channels)
    start = MemoryState(coeffs, blocks_absorbed=1)
    fast = block_update(start, inputs, bank)
    slow = start
    for j in range(ell):
        slow = sequential_update(slow, inputs[j], discretize_step(op, ell + 1 + j, Scheme.ZOH))
    assert np.abs(fast.coefficients - slow.coefficients).max() < 1e-9
    assert fast.blocks_absorbed == 2


def test_two_blocks_of_constant_input_reach_fixed_point():
    # L large enough that the k=1 start-up transient falls below 1e-3
    op = build_operator(8)
    ell, c = 2048, 0.75
    bank = build_bank(op, ell, Scheme.ZOH, 2)
    state = zero_state(8, 1)
    for _ in range(2):
        state = block_update(state, np.full((ell, 1), c), bank)
    assert np.abs(state.coefficients[1:, 0]).max() < 1e-3
    assert state.coefficients[0, 0] == pytest.approx(c, rel=1e-3)


def test_zoh_stream_stays_on_the_history_kernel():
    # 512 blocks (32768 steps) at N = 32, L = 64 against the whole-history
    # kernel, which takes no P_i: the state after block i is
    # history_kernel(op, iL + 1) @ [0, x]. Measured 4.3e-14 (two tones) and
    # 2.7e-14 (constant), relative to max|ref|; with P_i by Gauss-Legendre
    # quadrature the stream drifted to 3.1e-12 and 1.1e-12.
    op = build_operator(32)
    ell, blocks = 64, 512
    t = np.arange(1.0, ell * blocks + 1.0)
    x = np.column_stack([np.sin(0.002 * t) + 0.5 * np.sin(0.0301 * t + 1.0), np.ones_like(t)])
    bank = build_bank(op, ell, Scheme.ZOH, blocks)
    state = zero_state(32, 2)
    for block in x.reshape(blocks, ell, 2):
        state = block_update(state, block, bank)
    ref = history_kernel(op, ell * blocks + 1, Scheme.ZOH) @ np.vstack([np.zeros((1, 2)), x])
    err = np.abs(state.coefficients - ref).max(axis=0) / np.abs(ref).max(axis=0)
    assert (err <= 1e-13).all(), err


def test_blocks_compose_associatively():
    # two L-blocks equal one 2L-block built with block_length 2L
    op = build_operator(10)
    ell = 12
    small = build_bank(op, ell, Scheme.ZOH, 2)
    big = build_bank(op, 2 * ell, Scheme.ZOH, 1)
    inputs = normals(derive(11, 0), 2 * ell * 3).reshape(2 * ell, 3)
    state = zero_state(10, 3)
    state = block_update(state, inputs[:ell], small)
    state = block_update(state, inputs[ell:], small)
    direct = block_update(zero_state(10, 3), inputs, big)
    assert np.abs(state.coefficients - direct.coefficients).max() < 1e-9


def test_bank_determinism():
    op = build_operator(6)
    b1 = build_bank(op, 4, Scheme.BILINEAR, 3)
    b2 = build_bank(op, 4, Scheme.BILINEAR, 3)
    np.testing.assert_array_equal(b1.transitions, b2.transitions)
    np.testing.assert_array_equal(b1.kernels, b2.kernels)


def test_capacity_and_dimension_errors():
    op = build_operator(4)
    bank = build_bank(op, 3, Scheme.ZOH, 1)
    state = block_update(zero_state(4, 1), np.zeros((3, 1)), bank)
    with pytest.raises(ValueError):
        block_update(state, np.zeros((3, 1)), bank)  # capacity exhausted
    with pytest.raises(ValueError):
        block_update(zero_state(4, 1), np.zeros((2, 1)), bank)  # wrong L
    with pytest.raises(ValueError):
        block_update(zero_state(4, 2), np.zeros((3, 1)), bank)  # wrong D
    with pytest.raises(ValueError):
        block_update(zero_state(5, 1), np.zeros((3, 1)), bank)  # wrong N

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
from hippomem.block_kernel import BlockKernelBank
from hippomem.discretization import (
    _CHUNK_STEPS,
    _GROUP_POINTS,
    segment_coefficients,
    transition_power,
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
    # blocks straddle chunk boundaries, and the last chunk is a remainder
    op = build_operator(6)
    ell = 2 * _CHUNK_STEPS + 5
    bank = build_bank(op, ell, scheme, 2)
    for i in (1, 2):
        prod, kernel = brute_force_block(op, (i - 1) * ell + 1, i * ell, scheme)
        assert np.abs(bank.transitions[i - 1] - prod).max() < 1e-12
        assert np.abs(bank.kernels[i - 1] - kernel).max() < 1e-12


@pytest.mark.parametrize("order, ell, blocks", [(128, 64, 70), (32, 1, 300), (1, 1, 6)])
def test_zoh_bank_equals_per_block_quadrature_and_segments(order, ell, blocks):
    # blocks are built a group at a time; each must equal its own one-block build, bit for bit
    group = _GROUP_POINTS // max(order + 2, ell + 1)
    assert blocks % group  # the last group is partial
    op = build_operator(order)
    bank = build_bank(op, ell, Scheme.ZOH, blocks)
    for i in range(blocks):
        start, horizon = i * ell + 1, (i + 1) * ell + 1
        seg = segment_coefficients(op, np.arange(start, horizon + 1) / horizon)
        np.testing.assert_array_equal(bank.transitions[i], transition_power(op, start / horizon))
        np.testing.assert_array_equal(bank.kernels[i], seg[:, 1:] - seg[:, :-1])
    assert bank.transitions.strides == np.empty((blocks, order, order)).strides
    assert bank.kernels.strides == np.empty((blocks, order, ell)).strides


@pytest.mark.parametrize("order, ell, blocks, prefix", [(32, 64, 70, 65), (4, 1, 700, 690)])
@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
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


@pytest.mark.parametrize("order, ell, blocks", [(16, 8, 16), (16, 64, 8), (32, 8, 16), (32, 64, 12)])
@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
def test_scan_bank_against_longdouble_step_products(scheme, order, ell, blocks):
    op = build_operator(order)
    bank = build_bank(op, ell, scheme, blocks)
    transitions, kernels = longdouble_block_products(op, ell, scheme, blocks)
    bound = 4e-15 * max(1.0, float(np.abs(transitions).max()))
    assert np.abs(bank.transitions - transitions).max() <= bound
    assert np.abs(bank.kernels - kernels).max() <= bound


def test_zoh_bank_makes_two_legendre_tables_per_group(monkeypatch):
    # outer quadrature nodes and segment ends; the inner node table is built
    # once per order, on the first call
    calls = []
    real = discretization.legendre_table
    monkeypatch.setattr(discretization, "legendre_table",
                        lambda z, count: calls.append(count) or real(z, count))
    discretization._gauss_table.cache_clear()
    op = build_operator(32)
    assert _GROUP_POINTS // 65 == 63  # so 70 blocks of L = 64 take 2 groups
    build_bank(op, 64, Scheme.ZOH, 70)
    assert len(calls) == 2 * 2 + 1
    calls.clear()
    build_bank(op, 64, Scheme.ZOH, 70)
    assert len(calls) == 2 * 2


@pytest.mark.parametrize("order", [4, 32, 128])
@pytest.mark.parametrize("scheme", NON_ZOH)
@pytest.mark.parametrize("length", [1, 3 * _CHUNK_STEPS + 17])
def test_history_kernel_matches_composed_steps(order, scheme, length):
    # column 0 is the exact first-sample absorption: the product of steps 1..T-1 times e0.
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
    # history_kernel scans rows (bilinear) or takes the Hahn closed form
    # (backward Euler); build_bank folds step matrices. Over steps 1..T-1
    # they build the same operator by independent routes.
    op = build_operator(order)
    kernel = history_kernel(op, length, scheme)
    bank = build_bank(op, length - 1, scheme, 1)
    bound = 1e-13 * np.abs(kernel).max()
    assert np.abs(kernel[:, 1:] - bank.kernels[0]).max() <= bound
    assert np.abs(kernel[:, 0] - bank.transitions[0][:, 0]).max() <= bound


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
    bound = 1e-12 * np.abs(kernel).max()
    assert np.abs(kernel[:, 1:] - bank.kernels[0]).max() <= bound
    assert np.abs(kernel[:, 0] - bank.transitions[0][:, 0]).max() <= bound


@pytest.mark.parametrize("scheme", list(Scheme))
def test_bank_transitions_are_exactly_lower_triangular(scheme):
    # block_update's row panels skip everything above the diagonal
    for order, ell, blocks in ((6, 5, 3), (32, 16, 4), (40, 3, 2)):
        bank = build_bank(build_operator(order), ell, scheme, blocks)
        assert not np.triu(bank.transitions, 1).any()
        assert np.tril(bank.transitions, -1).any()


def test_bank_rejects_an_entry_above_the_diagonal():
    bank = build_bank(build_operator(6), 4, Scheme.ZOH, 3)
    for block, row, col in ((0, 0, 1), (2, 4, 5), (1, 0, 5)):
        transitions = bank.transitions.copy()
        transitions[block, row, col] = 1e-300
        with pytest.raises(ValueError, match=f"not lower triangular in row {row}"):
            BlockKernelBank(bank.block_length, bank.order, bank.scheme, transitions,
                            bank.kernels)
    transitions = bank.transitions.copy()
    transitions[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="not lower triangular"):
        BlockKernelBank(bank.block_length, bank.order, bank.scheme, transitions, bank.kernels)
    # the lower triangle and the diagonal take any value
    transitions = bank.transitions.copy()
    transitions[:, 5, :] = -2.0
    BlockKernelBank(bank.block_length, bank.order, bank.scheme, transitions, bank.kernels)


@pytest.mark.parametrize("order", [6, 32, 64, 100, 128])
@pytest.mark.parametrize("channels", [1, 16, 256])
def test_block_update_is_p_c_plus_k_f_to_the_bit(order, channels):
    # from N^2 D >= 2^20 (N = 64, 100, 128 at D = 256) P_i C is formed in row
    # panels that stop at the diagonal block. The skipped entries are exact
    # zeros, and each panel sums the same products over k in the same order
    # as the full product, so the bits are those of P_i @ C + K_i @ F.
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

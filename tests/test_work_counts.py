"""Work counts that fix each public path's cost class.

Wall time on a shared host moves by tens of percent between runs; these
counts do not. Each test wraps module attributes, as the tracer does, and
fails on a structural regression (an extra pass, a lost closed form, a copy
of a payload) without a benchmark run.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hippomem import (
    AttentionConfig,
    BlockIO,
    SamplingKind,
    SamplingStrategy,
    Scheme,
    block_update,
    build_bank,
    build_operator,
    build_reconstruction_bank,
    forward_block,
    zero_state,
)
from hippomem import attention, block_kernel, discretization
from hippomem.attention import init_weights
from hippomem.bank_cache import write_kernel_bank
from hippomem.block_kernel import BlockKernelBank
from hippomem.discretization import _GROUP_POINTS, history_kernel


def count_calls(monkeypatch, module, *names):
    """Counter of calls to each named attribute of module, from now on."""
    calls = Counter()
    for name in names:
        def wrapper(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


KERNEL_PATHS = ("segment_coefficients", "transition_power", "_hahn_kernel",
                "_fold_steps", "_scan_kernel")


@pytest.mark.parametrize("order, length", [(4, 1), (4, 3), (32, 40), (32, 2048)])
def test_zoh_kernel_is_one_segment_table_and_no_matrix_power(monkeypatch, order, length):
    calls = count_calls(monkeypatch, discretization, *KERNEL_PATHS)
    history_kernel(build_operator(order), length, Scheme.ZOH)
    assert calls == Counter(segment_coefficients=1)


@pytest.mark.parametrize("order, length", [(4, 1), (4, 3), (32, 40), (128, 300), (32, 2048)])
def test_backward_euler_kernel_is_the_closed_form_at_every_size(monkeypatch, order, length):
    calls = count_calls(monkeypatch, discretization, *KERNEL_PATHS)
    history_kernel(build_operator(order), length, Scheme.BACKWARD_EULER)
    assert calls == Counter(_hahn_kernel=1)


@pytest.mark.parametrize("order, length, closed_form", [
    (8, 21, False),   # 4 * 20 = 80 < 81 = (N + 1)^2
    (8, 22, True),    # 4 * 21 = 84 >= 81
    (5, 10, True),    # 4 * 9 = 36 = (N + 1)^2: the boundary takes the closed form
    (4, 3, False),
    (32, 300, True),
    (32, 200, False),
])
def test_forward_euler_kernel_folds_steps_only_below_the_hahn_line(
        monkeypatch, order, length, closed_form):
    assert (4 * (length - 1) >= (order + 1) ** 2) is closed_form
    calls = count_calls(monkeypatch, discretization, *KERNEL_PATHS)
    history_kernel(build_operator(order), length, Scheme.FORWARD_EULER)
    assert calls == Counter(**{"_hahn_kernel" if closed_form else "_fold_steps": 1})


@pytest.mark.parametrize("order, length", [(4, 1), (4, 3), (32, 40), (32, 2048)])
def test_bilinear_kernel_is_one_scan(monkeypatch, order, length):
    calls = count_calls(monkeypatch, discretization, *KERNEL_PATHS)
    history_kernel(build_operator(order), length, Scheme.BILINEAR)
    assert calls == Counter(_scan_kernel=1)


@pytest.mark.parametrize("order, block_length, blocks", [
    (8, 4, 1),
    (16, 8, 100),     # one group of 227 blocks holds them all
    (32, 64, 70),     # groups of 63 blocks
    (128, 64, 256),   # groups of 31 blocks, as in the stream benchmark
    (4, 1, 1500),     # groups of 682 blocks
    (2, 5000, 3),     # L + 1 > _GROUP_POINTS: one block per group
])
def test_zoh_bank_makes_one_matrix_power_call_per_group(monkeypatch, order, block_length, blocks):
    group = max(1, _GROUP_POINTS // max(order + 2, block_length + 1))
    calls = count_calls(monkeypatch, discretization, "transition_power")
    build_bank(build_operator(order), block_length, Scheme.ZOH, blocks)
    assert calls["transition_power"] == math.ceil(blocks / group)


@pytest.mark.parametrize("order, block_length, blocks", [
    (8, 4, 1),
    (32, 64, 12),     # the cli benchmark's shape: one group of 63 blocks
    (32, 64, 70),     # groups of 63 blocks; the last is partial
    (4, 1, 1500),     # groups of 682 blocks
    (2, 5000, 3),     # L + 1 > _GROUP_POINTS: one block per group
])
@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
def test_scan_bank_makes_one_scan_per_group_and_no_step_matrix(
        monkeypatch, scheme, order, block_length, blocks):
    # `_fold_steps` is what builds step matrices for a bank (forward Euler's)
    group = max(1, _GROUP_POINTS // max(order + 2, block_length + 1))
    calls = count_calls(monkeypatch, discretization, "discretize_interval", *KERNEL_PATHS)
    build_bank(build_operator(order), block_length, scheme, blocks)
    assert calls == Counter(_scan_kernel=math.ceil(blocks / group))


@pytest.mark.parametrize("order, block_length, blocks", [(8, 4, 1), (32, 64, 12)])
def test_forward_euler_bank_is_one_step_fold(monkeypatch, order, block_length, blocks):
    calls = count_calls(monkeypatch, discretization, "discretize_interval", *KERNEL_PATHS)
    build_bank(build_operator(order), block_length, Scheme.FORWARD_EULER, blocks)
    assert calls == Counter(_fold_steps=1)


def small_attention(max_blocks):
    """(cfg, weights, kernel bank, reconstruction bank) of a tiny ZOH block."""
    cfg = AttentionConfig(model_dim=8, head_count=2, head_dim=4, block_length=4, mem_length=3,
                          hippo_order=6, scheme=Scheme.ZOH,
                          strategy=SamplingStrategy(SamplingKind.UNIFORM))
    op = build_operator(cfg.hippo_order)
    kernel = build_bank(op, cfg.block_length, cfg.scheme, max_blocks)
    recon = build_reconstruction_bank(op, cfg.strategy, cfg.mem_length, cfg.block_length,
                                      max_blocks)
    return cfg, init_weights(cfg, 0), kernel, recon


@pytest.mark.parametrize("block_index, retrievals", [(1, 0), (2, 2)])
def test_forward_block_updates_and_retrieves_each_state_once(monkeypatch, block_index, retrievals):
    cfg, weights, kernel, recon = small_attention(2)
    state = zero_state(cfg.hippo_order, cfg.model_dim)
    if block_index == 2:
        first = BlockIO(np.ones((4, 8)), state, state, 1)
        state = forward_block(first, weights, cfg, kernel, recon).key_state
    calls = count_calls(monkeypatch, attention, "block_update", "retrieve", "apply_rotary",
                        "build_trapezoidal_mask")
    forward_block(BlockIO(np.ones((4, 8)), state, state, block_index), weights, cfg,
                  kernel, recon)
    assert calls == Counter(block_update=2, apply_rotary=2, retrieve=retrievals,
                            build_trapezoidal_mask=1)


def test_forward_block_builds_one_rotary_table():
    # Q's rotation builds the cos/sin table of the block's start; K's reuses it
    cfg, weights, kernel, recon = small_attention(3)
    key_state = value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    table = attention._rotary_table
    table.cache_clear()
    for block_index in (1, 2, 3):
        before = table.cache_info()
        res = forward_block(BlockIO(np.ones((4, 8)), key_state, value_state, block_index),
                            weights, cfg, kernel, recon)
        after = table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        key_state, value_state = res.key_state, res.value_state


def test_block_update_holds_two_state_sized_buffers():
    # P_i C is the result, and K_i F_i is added into it: no third buffer for the
    # sum. The attn benchmark's shape: numpy elides the temporary of `a + b` by
    # itself only from 256 KiB on, so at this 64 KiB state `P @ C + K @ F` holds three.
    op = build_operator(32)
    bank = build_bank(op, 64, Scheme.ZOH, 2)
    state = block_update(zero_state(32, 256), np.ones((64, 256)), bank)
    inputs = np.linspace(-1.0, 1.0, 64 * 256).reshape(64, 256)
    size = state.coefficients.nbytes
    tracemalloc.start()
    try:
        block_update(state, inputs, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * size <= peak < 2.5 * size, (peak, size)


class _Numpy:
    """numpy with some attributes replaced: patched over a module's `np`, it
    sees every call that module makes to them."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


def _rows_and_columns(view, base):
    """(rows, columns) of the 2-D C-order base that a view into it covers."""
    start = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    row, col = divmod(start // view.itemsize, base.shape[1])
    return (row, row + view.shape[0]), (col, col + view.shape[1])


@pytest.mark.parametrize("order, channels, panels", [
    (128, 256, 4),   # the stream benchmark's shape: four 32-row panels
    (64, 256, 2),    # N^2 D = 2^20, the smallest product taken in panels
    (32, 256, 1),    # the attn benchmark's shape: one product, as before
    (128, 16, 1),
])
def test_block_update_reads_nothing_right_of_a_panels_diagonal_block(
        monkeypatch, order, channels, panels):
    # panel rows [top, end) read columns [0, end) of P_i, never the zeros past
    # their diagonal block; one more product takes K_i F_i
    bank = build_bank(build_operator(order), 4, Scheme.ZOH, 1)
    p = bank.transitions[0]
    products = []

    def matmul(a, b, **kwargs):
        products.append(_rows_and_columns(a, p) if np.shares_memory(a, p) else "K F")
        return np.matmul(a, b, **kwargs)

    monkeypatch.setattr(block_kernel, "np", _Numpy(matmul=matmul))
    block_update(zero_state(order, channels), np.ones((4, channels)), bank)
    rows = order // panels
    assert products == [((top, top + rows), (0, top + rows))
                        for top in range(0, order, rows)] + ["K F"]


def test_softmax_exponentiates_no_masked_score(monkeypatch):
    # exp of an argument near MASK_NEG takes a slow out-of-range path
    cfg, weights, kernel, recon = small_attention(2)
    state = zero_state(cfg.hippo_order, cfg.model_dim)
    hidden = np.linspace(-1.0, 1.0, 32).reshape(4, 8)
    lowest = []

    def exp(x, **kwargs):
        lowest.append(x.min())
        return np.exp(x, **kwargs)

    monkeypatch.setattr(attention, "np", _Numpy(exp=exp))
    for block_index in (1, 2):
        res = forward_block(BlockIO(hidden, state, state, block_index), weights, cfg,
                            kernel, recon)
        state = res.key_state
        assert res.probabilities[:, 0, cfg.mem_length * (block_index - 1) + 1:].max() == 0.0
    assert len(lowest) == 2 and min(lowest) > attention.MASK_NEG / 2, lowest


def test_bank_triangle_check_holds_no_copy_of_the_transitions():
    bank = build_bank(build_operator(64), 64, Scheme.ZOH, 64)
    size = bank.transitions.nbytes
    assert size >= 1 << 21
    tracemalloc.start()
    try:
        BlockKernelBank(bank.block_length, bank.order, bank.scheme, bank.transitions,
                        bank.kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 64, (peak, size)


def test_bank_writer_holds_no_copy_of_the_payload(tmp_path):
    bank = build_bank(build_operator(32), 64, Scheme.ZOH, 64)
    payload = bank.transitions.nbytes + bank.kernels.nbytes
    assert payload >= 1 << 20
    tracemalloc.start()
    try:
        write_kernel_bank(str(tmp_path / "bank.emkb"), bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload / 4, (peak, payload)

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
    MemoryState,
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
from hippomem import attention, block_kernel, cli, discretization, operators
from hippomem.attention import init_weights
from hippomem.bank_cache import write_kernel_bank
from hippomem.block_kernel import BlockKernelBank
from hippomem.discretization import _GROUP_POINTS, discretize_interval, history_kernel
from hippomem.signal_bench import run_table


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
    # the transitions take one group, the whole bank: one matrix power call;
    # the kernels take one segment table per group of blocks
    group = max(1, _GROUP_POINTS // max(order + 2, block_length + 1))
    calls = count_calls(monkeypatch, discretization, "transition_power", "segment_coefficients")
    build_bank(build_operator(order), block_length, Scheme.ZOH, blocks)
    assert calls == Counter(transition_power=1, segment_coefficients=math.ceil(blocks / group))


STEP_BANK_SHAPES = pytest.mark.parametrize("order, block_length, blocks", [
    (8, 4, 1),
    (32, 64, 12),     # the cli benchmark's shape: one group of 63 blocks
    (32, 64, 70),     # groups of 63 blocks; the last is partial
    (4, 1, 1500),     # groups of 682 blocks
    (2, 5000, 3),     # L + 1 > _GROUP_POINTS: one block per group
])


@STEP_BANK_SHAPES
@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
def test_scan_bank_makes_one_scan_per_group_and_no_step_matrix(
        monkeypatch, scheme, order, block_length, blocks):
    # `_fold_steps` is what builds step matrices for a bank (forward Euler's)
    group = max(1, _GROUP_POINTS // max(order + 2, block_length + 1))
    calls = count_calls(monkeypatch, discretization, "discretize_interval", *KERNEL_PATHS)
    build_bank(build_operator(order), block_length, scheme, blocks)
    assert calls == Counter(_scan_kernel=math.ceil(blocks / group))


@STEP_BANK_SHAPES
def test_forward_euler_bank_makes_one_fold_per_group(monkeypatch, order, block_length, blocks):
    # the whole bank is one group: the fold holds one N x N product and one
    # block's steps at a time, so block groups would bound no array
    calls = count_calls(monkeypatch, discretization, "discretize_interval", *KERNEL_PATHS)
    build_bank(build_operator(order), block_length, Scheme.FORWARD_EULER, blocks)
    assert calls == Counter(_fold_steps=1)


def test_forward_euler_bank_forms_one_step_matrix_at_a_time():
    # the bank's own arrays plus a few N x N products and one buffer; a stack
    # of 64 step matrices (8 MB at N = 128) would hold ten times the bank
    op = build_operator(128)
    tracemalloc.start()
    try:
        bank = build_bank(op, 64, Scheme.FORWARD_EULER, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = bank.panels.nbytes + bank.kernels.nbytes
    assert peak < payload + 8 * op.a_matrix.nbytes, (peak, payload)


def traced_peak(build):
    """(result, tracemalloc peak in bytes) of build()."""
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_zoh_bank_transitions_are_formed_in_place():
    # the stream benchmark's bank (35.65 MB: 18.9 MB of row panels, 16.8 MB
    # of kernels): one transition_power call writes the P_i row by row into
    # the bank's own panels, beside its work arrays (1 MB), and each group's
    # kernels come from a few streamed Legendre rows (0.3 MB): measured
    # 1.41 MB over the payload. One group's segment tables added about 5 MB,
    # a dense (B, N, N) stack would add 33.6 MB, and a dense P_i temporary
    # per group of 31 blocks 4.1 MB.
    bank, peak = traced_peak(lambda: build_bank(build_operator(128), 64, Scheme.ZOH, 256))
    payload = bank.panels.nbytes + bank.kernels.nbytes
    assert payload == 256 * (9216 + 128 * 64) * 8
    assert peak - payload <= 2e6, (peak, payload)


def test_zoh_bank_kernels_are_built_in_block_groups():
    # a group's segment ends, 2r - 1 and streamed Legendre and psi rows grow
    # with the group: in groups of 63 blocks this bank measured 0.64 MB over
    # its 4.72 MB payload, in one group of 1024 blocks 3.94 MB
    bank, peak = traced_peak(lambda: build_bank(build_operator(8), 64, Scheme.ZOH, 1024))
    payload = bank.panels.nbytes + bank.kernels.nbytes
    assert peak - payload <= 1.5e6, (peak, payload)


def test_bilinear_kernel_holds_little_beside_the_kernel():
    # the row solve keeps about a dozen length-T arrays (3.5 MB here) beside the
    # 33.6 MB kernel; at T = 32768 it runs in segments
    kernel, peak = traced_peak(lambda: history_kernel(build_operator(128), 32768, Scheme.BILINEAR))
    assert peak <= 1.2 * kernel.nbytes, (peak, kernel.nbytes)


def test_zoh_kernel_fills_its_columns_in_chunks():
    # one segment table for all 131072 points would hold two more kernel-sized
    # arrays (the Legendre table and its differences): a peak of 405 MB.
    # Streamed Legendre rows hold 7 rows of T + 1 floats (7.3 MB) beside it.
    kernel, peak = traced_peak(lambda: history_kernel(build_operator(128), 131072, Scheme.ZOH))
    assert peak <= 1.2 * kernel.nbytes, (peak, kernel.nbytes)


# Rows of T + 1 floats that a ZOH kernel may hold beside its output once a
# degree block is one degree: the ratios and 2r - 1, three Legendre rows,
# Bonnet's product row and one psi row make 7 (measured 7.01 to 7.07).
ZOH_KERNEL_ROWS = 8


def zoh_kernel_rows_over_output(order: int, length: int) -> float:
    """Peak of a ZOH history_kernel beyond its output, in rows of length + 1 floats."""
    op = build_operator(order)
    kernel, peak = traced_peak(lambda: history_kernel(op, length, Scheme.ZOH))
    return (peak - kernel.nbytes) / ((length + 1) * 8)


def test_zoh_kernel_holds_one_chunk_beside_the_kernel():
    # a table of every degree would hold N + 1 rows and its differences N more
    # (8.46 MB over the kernel in 4096-point chunks); measured 0.46 MB
    assert zoh_kernel_rows_over_output(128, 8192) <= ZOH_KERNEL_ROWS


def test_zoh_kernel_holds_a_few_rows_beside_the_kernel():
    # N = 128, T = 32768: 1.84 MB over the 33.6 MB kernel, against 8.46 MB
    # for 4096-point chunks of Legendre tables and segment coefficients
    assert zoh_kernel_rows_over_output(128, 32768) <= ZOH_KERNEL_ROWS


def test_compress_reconstructs_the_full_grid_in_row_chunks(tmp_path, monkeypatch, capsys):
    # the whole 32768 x 128 basis holds its Legendre table and that table's
    # transposed copy at once (67 MB); by row chunks the phase after the
    # kernel holds about two chunk-sized tables (10 MB). Neither the read nor
    # the kernel is traced.
    length, order = 32768, 128
    signal = tmp_path / "sig.txt"
    signal.write_text("".join(f"{math.sin(0.0005 * i):.6f} {math.cos(0.0003 * i):.6f}\n"
                              for i in range(length)))

    def kernel_then_trace(*args):
        kernel = history_kernel(*args)
        tracemalloc.start()
        return kernel

    monkeypatch.setattr(cli, "history_kernel", kernel_then_trace)
    try:
        assert cli.main(["compress", str(signal), "--order", str(order)]) == 0
        assert tracemalloc.is_tracing()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = order * _GROUP_POINTS * 8
    assert peak <= 3 * chunk, (peak, chunk)


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


def test_operator_builds_a_in_one_buffer():
    # the outer product, tril's copy and diag's matrix were three N x N
    # arrays; at N = 512 they set the peak RSS of the bench-table child
    build_operator(512)  # numpy's first-call set-up is not the operator's
    tracemalloc.start()
    try:
        a = build_operator(512).a_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.nbytes, (peak, a.nbytes)


class _Numpy:
    """numpy with some attributes replaced: patched over a module's `np`, it
    sees every call that module makes to them."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(np, name)


_UNIFORM = SamplingStrategy(SamplingKind.UNIFORM)
# paths that read B at most: ZOH, the closed forms, the row solve and the
# basis (which build_reconstruction_bank evaluates)
A_FREE_PATHS = {
    "zoh-kernel": lambda op: history_kernel(op, 300, Scheme.ZOH),
    "backward-kernel": lambda op: history_kernel(op, 300, Scheme.BACKWARD_EULER),
    "bilinear-kernel": lambda op: history_kernel(op, 300, Scheme.BILINEAR),
    "zoh-bank": lambda op: build_bank(op, 8, Scheme.ZOH, 4),
    "backward-bank": lambda op: build_bank(op, 8, Scheme.BACKWARD_EULER, 4),
    "bilinear-bank": lambda op: build_bank(op, 8, Scheme.BILINEAR, 4),
    "zoh-step": lambda op: discretize_interval(op, 3.0, 4.0, Scheme.ZOH),
    "reconstruction-bank": lambda op: build_reconstruction_bank(op, _UNIFORM, 4, 8, 4),
}


@pytest.mark.parametrize("path", A_FREE_PATHS.values(), ids=A_FREE_PATHS)
def test_paths_that_read_no_a_never_form_it(path):
    op = build_operator(32)
    path(op)
    assert "a_matrix" not in vars(op)


# forward Euler's fold below the Hahn line (4 * 199 < 33^2) and the Euler and
# bilinear step matrices
A_PATHS = {
    "forward-kernel": lambda op: history_kernel(op, 200, Scheme.FORWARD_EULER),
    **{f"{scheme.value}-step": lambda op, scheme=scheme: discretize_interval(op, 3.0, 4.0, scheme)
       for scheme in (Scheme.FORWARD_EULER, Scheme.BACKWARD_EULER, Scheme.BILINEAR)},
}


@pytest.mark.parametrize("path", A_PATHS.values(), ids=A_PATHS)
def test_paths_that_read_a_form_it_once(monkeypatch, path):
    fake = _Numpy()
    monkeypatch.setattr(operators, "np", fake)
    calls = count_calls(monkeypatch, fake, "outer")
    op = build_operator(32)
    path(op)
    path(op)
    assert "a_matrix" in vars(op)
    assert calls == Counter(outer=1)


def test_bench_table_holds_one_matrix_at_a_time():
    # each row folds every seed's signal with one kernel, drops it, then forms
    # one probe (the basis table and its transposed copy, 2 x 2 MiB at N = T =
    # 512): measured 4.02 MiB, and nothing held after return. Caches of every
    # row's kernel and probe peaked at 7.65 MiB and held 5.64 MiB.
    run_table(seed_count=1, length=64)  # numpy's first-call set-up is not the table's
    matrix = 512 * 512 * 8
    tracemalloc.start()
    try:
        rows = run_table(seed_count=2, length=512)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 9
    assert peak <= 2.25 * matrix, (peak, matrix)
    assert held < 0.1e6, held


def _offset(view, base):
    """Elements from the start of base to the start of a view into it."""
    start = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
    return start // view.itemsize


@pytest.mark.parametrize("order, channels, panels", [
    (128, 256, 8),   # the stream benchmark's shape: eight 16-row panels
    (64, 256, 4),
    (32, 256, 2),    # the attn benchmark's shape
    (128, 16, 8),    # panels at every size
    (65, 256, 4),    # a one-row last panel joins the panel above: rows 48 .. 64
    (17, 256, 1),    # and so N <= 17 is one product
])
def test_block_update_reads_nothing_right_of_a_panels_diagonal_block(
        monkeypatch, order, channels, panels):
    # panel rows [top, end) are stored over columns [0, end) of P_i, one
    # contiguous panel after another, and each is one product with C's
    # rows [0, end); the last panel ends at row N, and one more product
    # takes K_i F_i
    bank = build_bank(build_operator(order), 4, Scheme.ZOH, 2)
    p = bank.panels[1]
    products = []

    def matmul(a, b, **kwargs):
        if np.shares_memory(a, p):
            products.append((_offset(a, p), a.shape, a.flags.c_contiguous, b.shape[0]))
        else:
            products.append("K F")
        return np.matmul(a, b, **kwargs)

    monkeypatch.setattr(block_kernel, "np", _Numpy(matmul=matmul))
    state = MemoryState(np.zeros((order, channels)), blocks_absorbed=1)
    block_update(state, np.ones((4, channels)), bank)
    tops = [16 * i for i in range(panels)]
    ends = tops[1:] + [order]
    offsets = np.cumsum([0] + [(end - top) * end for top, end in zip(tops, ends)])
    assert products == [(at, (end - top, end), True, end)
                        for at, top, end in zip(offsets, tops, ends)] + ["K F"]
    assert offsets[-1] == p.size


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
    # nothing right of a panel's diagonal block is stored, so the check reads
    # the diagonal blocks only, one panel at a time
    bank = build_bank(build_operator(64), 64, Scheme.ZOH, 128)
    size = bank.panels.nbytes
    assert size >= 1 << 21
    tracemalloc.start()
    try:
        BlockKernelBank(bank.scheme, bank.panels, bank.kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 64, (peak, size)


def test_bank_writer_holds_no_copy_of_the_payload(tmp_path):
    bank = build_bank(build_operator(32), 64, Scheme.ZOH, 64)
    payload = bank.panels.nbytes + bank.kernels.nbytes
    assert payload >= 1 << 20
    tracemalloc.start()
    try:
        write_kernel_bank(str(tmp_path / "bank.emkb"), bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload / 4, (peak, payload)

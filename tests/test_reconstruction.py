"""Sampling strategies, reconstruction banks, and retrieval."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import eval_legendre

from hippomem import (
    MemoryState,
    SamplingKind,
    SamplingStrategy,
    Scheme,
    basis_matrix,
    build_operator,
    build_reconstruction_bank,
    history_kernel,
    retrieve,
    zero_state,
)
from hippomem.reconstruction import ReconstructionBank, sample_points
from hippomem.signal_bench import SignalKind, SignalSpec, generate_signal

UNIFORM = SamplingStrategy(SamplingKind.UNIFORM)


def test_uniform_points():
    pts = sample_points(UNIFORM, 8.0, 4)
    np.testing.assert_allclose(pts, [0.0, 2.0, 4.0, 6.0], atol=0)


def test_strategy_takes_a_kind_name():
    # "uniform" used to sample exponential points, and label() raised
    strategy = SamplingStrategy("uniform")
    assert strategy == UNIFORM and strategy.label() == "uniform"
    np.testing.assert_array_equal(sample_points(strategy, 1.0, 4), [0.0, 0.25, 0.5, 0.75])
    assert (SamplingStrategy("Exponential", 0.5)
            == SamplingStrategy(SamplingKind.EXPONENTIAL, 0.5))
    with pytest.raises(ValueError, match="unknown sampling strategy 'linear'"):
        SamplingStrategy("linear")


def test_a_kind_name_is_not_a_strategy():
    # a name carries no decay; both used to fail with an AttributeError
    message = "strategy must be a SamplingStrategy, got 'uniform'"
    with pytest.raises(TypeError, match=message):
        sample_points("uniform", 1.0, 4)
    with pytest.raises(TypeError, match=message):
        build_reconstruction_bank(build_operator(4), "uniform", 2, 4, 2)


def test_exponential_points_ordered_oldest_first():
    pts = sample_points(SamplingStrategy(SamplingKind.EXPONENTIAL, 0.5), 16.0, 3)
    np.testing.assert_allclose(pts, [0.0, 8.0, 12.0], atol=1e-12)


def test_exponential_single_point_is_origin():
    for decay in (0.1, 0.5, 0.99):
        pts = sample_points(SamplingStrategy(SamplingKind.EXPONENTIAL, decay), 100.0, 1)
        np.testing.assert_array_equal(pts, [0.0])


def test_exponential_spacing_tightens_toward_present():
    pts = sample_points(SamplingStrategy(SamplingKind.EXPONENTIAL, 0.8), 64.0, 10)
    gaps = np.diff(pts)
    assert (np.diff(gaps) < 0).all()


def test_sample_points_validation():
    with pytest.raises(ValueError):
        sample_points(UNIFORM, 0.0, 4)
    with pytest.raises(ValueError):
        sample_points(UNIFORM, -1.0, 4)
    with pytest.raises(ValueError):
        sample_points(UNIFORM, 8.0, 0)
    with pytest.raises(ValueError):
        SamplingStrategy(SamplingKind.EXPONENTIAL, 1.0)
    with pytest.raises(ValueError):
        SamplingStrategy(SamplingKind.EXPONENTIAL, 0.0)


@pytest.mark.parametrize("history_length", [np.nan, np.inf])
@pytest.mark.parametrize("strategy", [UNIFORM, SamplingStrategy(SamplingKind.EXPONENTIAL, 0.9)])
def test_sample_points_rejects_a_non_finite_horizon(strategy, history_length):
    # NaN would give NaN points and inf points at inf, not increasing in [0, t)
    with pytest.raises(ValueError, match="history_length must be positive and finite"):
        sample_points(strategy, history_length, 4)


def test_uniform_points_near_the_float_maximum_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = sample_points(UNIFORM, 1e308, 4)
    np.testing.assert_array_equal(pts, [0.0, 2.5e307, 5e307, 7.5e307])


def test_uniform_points_are_bit_identical_to_j_t_over_count():
    # wherever j t is finite, subnormal points included (t = 1e-310, 1.6e-306)
    for t in [1e-310, 1.6e-306, 1e-300, 3e-9, 0.1, 1.0 / 3.0, 1.0, 2.0, 7.0, 100.0,
              1000.5, 2.0**40 + 1.0, 1e300, 1.75 * 2.0**1010]:
        for count in [1, 2, 3, 5, 7, 10, 16, 33, 64, 100, 1000, 4097]:
            j = np.arange(count, dtype=float)
            np.testing.assert_array_equal(sample_points(UNIFORM, t, count), j * t / count)


def test_exponential_collisions_are_nudged_not_dropped():
    # decay**j underflows below float spacing long before j = 200
    strategy = SamplingStrategy(SamplingKind.EXPONENTIAL, 0.5)
    pts = sample_points(strategy, 16.0, 200)
    assert pts.size == 200
    assert (np.diff(pts) > 0).all()
    assert pts[0] >= 0.0 and pts[-1] < 16.0


def test_bank_entries_match_independent_legendre():
    # oracle: scipy's Legendre evaluation, a separate code path from ours
    op = build_operator(8)
    bank = build_reconstruction_bank(op, UNIFORM, 4, 16, 3)
    pts = sample_points(UNIFORM, 48.0, 4)
    for j, x in enumerate(pts):
        for n in range(8):
            expected = np.sqrt(2 * n + 1) * eval_legendre(n, 2 * x / 48.0 - 1.0)
            assert bank.matrices[2][j, n] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("strategy, order, rel", [
    pytest.param(UNIFORM, 32, 1e-13, id="uniform"),
    pytest.param(SamplingStrategy(SamplingKind.EXPONENTIAL, 0.95), 128, 1e-13,
                 id="exponential0.95"),
    # 60 points reach the collision nudge, whose float spacing depends on t
    pytest.param(SamplingStrategy(SamplingKind.EXPONENTIAL, 0.5), 32, 1e-11,
                 id="exponential0.5"),
])
def test_bank_equals_per_block_basis_matrix(strategy, order, rel):
    # the basis is scale invariant and the points sit at fixed fractions of t, so
    # each block's own basis matrix at t = i L is the bank's one R up to roundoff
    op = build_operator(order)
    mem, ell, blocks = 60, 64, 64
    bank = build_reconstruction_bank(op, strategy, mem, ell, blocks)
    recon = bank.matrices[0]
    np.testing.assert_array_equal(
        recon, basis_matrix(sample_points(strategy, 1.0, mem), 1.0, order))
    # nor does R depend on the block length
    np.testing.assert_array_equal(
        build_reconstruction_bank(op, strategy, mem, 48, 2).matrices[1], recon)
    assert bank.matrices.shape == (blocks, mem, order)
    assert bank.matrices.strides[0] == 0
    for i in range(1, blocks + 1):
        t = float(i * ell)
        own = basis_matrix(sample_points(strategy, t, mem), t, order)
        assert np.abs(own - recon).max() <= rel * np.abs(recon).max(), i


@pytest.mark.parametrize("mem", [4, 16])
def test_uniform_bank_is_bit_exact_when_mem_length_is_a_power_of_two(mem):
    # x_j = j t / M and 2 x_j / t are then exact, so z = 2 j / M - 1 whatever t is
    op = build_operator(128)
    bank = build_reconstruction_bank(op, UNIFORM, mem, 64, 256)
    for i in range(1, 257):
        t = float(i * 64)
        np.testing.assert_array_equal(
            bank.matrices[i - 1], basis_matrix(sample_points(UNIFORM, t, mem), t, 128))


def test_bank_first_column_is_ones():
    op = build_operator(6)
    for strategy in (UNIFORM, SamplingStrategy(SamplingKind.EXPONENTIAL, 0.9)):
        bank = build_reconstruction_bank(op, strategy, 5, 8, 4)
        np.testing.assert_allclose(bank.matrices[:, :, 0], 1.0, atol=1e-14)


def test_basis_rows_approach_sqrt_odd_at_horizon():
    op = build_operator(6)
    row = basis_matrix(np.array([48.0]), 48.0, 6)[0]
    np.testing.assert_allclose(row, np.sqrt(2 * np.arange(6) + 1.0), atol=1e-12)


def test_retrieve_zero_state_gives_zeros():
    op = build_operator(6)
    bank = build_reconstruction_bank(op, UNIFORM, 4, 8, 2)
    state = MemoryState(np.zeros((6, 3)), blocks_absorbed=1)
    np.testing.assert_array_equal(retrieve(state, bank), np.zeros((4, 3)))


def test_retrieve_errors():
    op = build_operator(6)
    bank = build_reconstruction_bank(op, UNIFORM, 4, 8, 2)
    with pytest.raises(ValueError):
        retrieve(zero_state(6, 1), bank)            # no history yet
    with pytest.raises(ValueError):
        retrieve(MemoryState(np.zeros((5, 1)), blocks_absorbed=1), bank)  # wrong order


def test_retrieve_reads_any_horizon():
    # R does not depend on the history length, so a 2-block bank reads a
    # 5-block state with the bits of a 5-block bank
    op = build_operator(6)
    strategy = SamplingStrategy(SamplingKind.EXPONENTIAL, 0.7)
    coeffs = np.linspace(-1.0, 2.0, 18).reshape(6, 3)
    state = MemoryState(coeffs, blocks_absorbed=5)
    short = build_reconstruction_bank(op, strategy, 4, 8, 2)
    got = retrieve(state, short)
    np.testing.assert_array_equal(got, short.matrices[0] @ coeffs)
    np.testing.assert_array_equal(got, retrieve(state, build_reconstruction_bank(
        op, strategy, 4, 8, 5)))


def test_bank_rejects_matrices_that_are_not_3d():
    # (B, M, N): order, mem_length and max_blocks are read from the shape
    recon = basis_matrix(sample_points(UNIFORM, 1.0, 4), 1.0, 6)
    for bad in (recon, recon[0], recon[None, None]):
        with pytest.raises(ValueError, match=r"\(B, M, N\)"):
            ReconstructionBank(block_length=8, strategy=UNIFORM, matrices=bad)
    bank = ReconstructionBank(block_length=8, strategy=UNIFORM, matrices=recon[None])
    assert (bank.max_blocks, bank.mem_length, bank.order) == (1, 4, 6)


def test_bank_rejects_entries_that_differ():
    # retrieve reads entry 0 at every horizon, so [I, 2I] would serve I where
    # a 2-block state of ones meant 2I
    eye = np.eye(2)
    with pytest.raises(ValueError, match="same R"):
        ReconstructionBank(block_length=8, strategy=UNIFORM, matrices=np.stack([eye, 2 * eye]))
    bank = ReconstructionBank(block_length=8, strategy=UNIFORM, matrices=np.stack([eye, eye]))
    assert bank.max_blocks == 2


def test_bank_compares_no_stride_zero_entries():
    # a broadcast view is one R by construction: comparing its entries would
    # allocate a (4095, 16, 32) boolean array, 2 MB
    recon = basis_matrix(sample_points(UNIFORM, 1.0, 16), 1.0, 32)
    view = np.broadcast_to(recon, (4096, 16, 32))
    tracemalloc.start()
    try:
        ReconstructionBank(block_length=8, strategy=UNIFORM, matrices=view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < recon.nbytes, peak


def test_constant_history_retrieves_constant_everywhere():
    # compression sends a constant to [c, 0, ..., 0]; column 0 of R is all ones
    op = build_operator(8)
    c = np.array([3.0, -1.25])
    length = 64
    kernel = history_kernel(op, length, Scheme.ZOH)
    coeffs = kernel @ np.tile(c, (length, 1))
    state = MemoryState(coeffs, blocks_absorbed=1)
    bank = build_reconstruction_bank(op, UNIFORM, 16, length, 1)
    rows = retrieve(state, bank)
    assert np.abs(rows - c[None, :]).max() < 1e-2


def test_ramp_reconstructs_midpoint_value():
    # continuous coefficients of f(x) = x on [0, t]: c0 = t/2, c1 = t/(2 sqrt 3)
    op = build_operator(8)
    t = 1024.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xs = t * (nodes + 1.0) / 2.0
    g = basis_matrix(xs, t, 8)
    continuous = (weights / 2.0) @ (xs[:, None] * g)
    assert continuous[0] == pytest.approx(t / 2.0, rel=1e-12)
    assert continuous[1] == pytest.approx(t / (2.0 * np.sqrt(3.0)), rel=1e-12)
    assert np.abs(continuous[2:]).max() < 1e-9

    length = 1024
    ramp = np.arange(length, dtype=float)
    state_vec = history_kernel(op, length, Scheme.ZOH) @ ramp
    assert np.abs(state_vec - continuous).max() < 1.0  # unit-grid discretization slack

    state = MemoryState(state_vec[:, None], blocks_absorbed=4)
    bank = build_reconstruction_bank(op, UNIFORM, 2, 256, 4)
    midpoint_value = retrieve(state, bank)[1, 0]  # points are [0, 512]
    assert midpoint_value == pytest.approx(512.0, rel=0.01)


def test_polynomial_signals_reconstruct_below_threshold():
    # degree 3 < N = 8; error shrinks as the grid refines
    op = build_operator(8)
    mses = []
    for length in (1024, 2048):
        th = np.arange(length) / length
        sig = 1.0 + th - 2.0 * th**2 + 0.5 * th**3
        sig = (sig - sig.mean()) / sig.std()
        state = history_kernel(op, length, Scheme.ZOH) @ sig
        xs = np.arange(64) * length / 64.0
        recon = basis_matrix(xs, float(length), 8) @ state
        truth = sig[(np.arange(64) * length // 64)]
        mses.append(float(np.mean((recon - truth) ** 2)))
    assert mses[0] < 1e-3
    assert mses[1] < mses[0]


def test_reconstructed_rows_are_pairwise_distinct():
    # positional information is intrinsic: distinct sample points, distinct rows
    op = build_operator(16)
    length = 256
    spec = SignalSpec(SignalKind.SINE_COMPOSITE, 3, length, seed=5)
    sig = generate_signal(spec)
    state = MemoryState((history_kernel(op, length, Scheme.ZOH) @ sig)[:, None],
                        blocks_absorbed=1)
    for strategy in (UNIFORM, SamplingStrategy(SamplingKind.EXPONENTIAL, 0.9)):
        bank = build_reconstruction_bank(op, strategy, 8, length, 1)
        rows = retrieve(state, bank)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(rows[i] - rows[j]) > 0.0


def test_reconstruction_mse_monotone_in_order():
    # fixed 5-sine signal; larger state order never hurts (5% slack per step)
    length = 1024
    spec = SignalSpec(SignalKind.SINE_COMPOSITE, 5, length, seed=42)
    sig = generate_signal(spec)
    previous = None
    for order in (8, 32, 128, 512):
        op = build_operator(order)
        state = history_kernel(op, length, Scheme.ZOH) @ sig
        recon = basis_matrix(np.arange(length, dtype=float), float(length), order) @ state
        mse = float(np.mean((recon - sig) ** 2))
        if previous is not None:
            assert mse <= 1.05 * previous
        previous = mse

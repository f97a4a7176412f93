"""Operator construction and basis evaluation."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_legendre

import hippomem
from hippomem import basis_matrix, build_operator
from hippomem.attention import build_trapezoidal_mask
from hippomem.operators import legendre_table
from hippomem.reconstruction import sample_points
from hippomem.rng import derive
from hippomem.signal_bench import SignalKind, SignalSpec, run_benchmark, run_table


def legendre(n: int, z: float) -> float:
    """P_n(z) from a one-point table: the scalar case of legendre_table."""
    return float(legendre_table(np.array([z]), n + 1)[n, 0])


def test_order_one():
    op = build_operator(1)
    assert op.a_matrix.tolist() == [[1.0]]
    assert op.b_vector.tolist() == [1.0]


def test_order_two():
    op = build_operator(2)
    expected_a = np.array([[1.0, 0.0], [math.sqrt(3.0), 2.0]])
    expected_b = np.array([1.0, math.sqrt(3.0)])
    np.testing.assert_allclose(op.a_matrix, expected_a, rtol=0, atol=0)
    np.testing.assert_allclose(op.b_vector, expected_b, rtol=0, atol=0)


def test_order_three_against_high_precision():
    # independent oracle: recompute sqrt(2n+1)*sqrt(2k+1) at 50 digits
    op = build_operator(3)
    with mpmath.workdps(50):
        assert op.a_matrix[2][0] == pytest.approx(float(mpmath.sqrt(5)), abs=1e-15)
        assert op.a_matrix[2][1] == pytest.approx(float(mpmath.sqrt(15)), abs=1e-15)
    assert op.a_matrix[2][2] == 3.0


def test_rejects_zero_order():
    with pytest.raises(ValueError):
        build_operator(0)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 33])
def test_operator_invariants(order):
    op = build_operator(order)
    a, b = op.a_matrix, op.b_vector
    n = np.arange(order)
    # strict upper triangle is bit-exactly zero
    assert np.count_nonzero(np.triu(a, 1)) == 0
    np.testing.assert_array_equal(np.diag(a), n + 1.0)
    np.testing.assert_array_equal(b, np.sqrt(2.0 * n + 1.0))
    for i in range(order):
        for k in range(i):
            assert a[i, k] == pytest.approx(math.sqrt(2 * i + 1) * math.sqrt(2 * k + 1),
                                            rel=1e-15)
    assert np.isfinite(a).all() and np.isfinite(b).all()


def test_operator_is_immutable():
    op = build_operator(4)
    with pytest.raises(ValueError):
        op.a_matrix[0, 0] = 5.0


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
def test_legendre_endpoints(n):
    assert legendre(n, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert legendre(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-14)


def test_legendre_quadratic_value():
    # oracle: (3 z^2 - 1) / 2 at z = 1/2 is exactly -1/8
    assert legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_against_mpmath():
    with mpmath.workdps(40):
        for n, z in [(5, 0.3), (11, -0.77), (30, 0.999)]:
            expected = float(mpmath.legendre(n, z))
            assert legendre(n, z) == pytest.approx(expected, rel=1e-12)


def test_legendre_clamps_tiny_overshoot():
    assert legendre(4, 1.0 + 5e-13) == pytest.approx(1.0)
    assert legendre(4, -1.0 - 5e-13) == pytest.approx(1.0)


def test_legendre_rejects_large_overshoot():
    with pytest.raises(ValueError):
        legendre_table(np.array([0.0, 1.0 + 1e-9]), 4)
    with pytest.raises(ValueError):
        legendre_table(np.array([-1.5]), 4)
    with pytest.raises(ValueError):
        legendre_table(np.array([np.nan]), 4)
    with pytest.raises(ValueError):
        legendre_table(np.array([0.0]), 0)


def test_legendre_table_matches_scalar():
    # oracle: scipy's Legendre evaluation, a separate code path from ours
    z = np.linspace(-1, 1, 17)
    table = legendre_table(z, 9)
    for n in range(9):
        np.testing.assert_allclose(table[n], eval_legendre(n, z), rtol=0, atol=1e-14)


@pytest.mark.parametrize("count", [1, 2, 129])
def test_legendre_table_is_c_contiguous_and_matches_scalar_exactly(count):
    # a many-point table has the bits of one-point tables, one row per degree
    z = np.linspace(-1, 1, 33)
    table = legendre_table(z, count)
    assert table.shape == (count, 33)
    assert table.strides == np.empty((count, 33)).strides
    for i, zi in enumerate(z):
        for n in range(0, count, 7):
            assert table[n, i] == legendre(n, zi)
    assert legendre_table(np.empty(0), count).shape == (count, 0)


def test_legendre_table_keeps_the_scalar_operation_order():
    # bank bits rest on this order: ((2k-1) z) P_{k-1} - (k-1) P_{k-2}, then / k
    z = np.linspace(-1, 1, 101)
    table = legendre_table(z, 129)
    for i, zi in enumerate(z.tolist()):
        prev, cur = 1.0, zi
        for k in range(2, 129):
            prev, cur = cur, ((2 * k - 1) * zi * cur - (k - 1) * prev) / k
            assert table[k, i] == cur


def test_basis_matrix_examples():
    assert basis_matrix(np.array([1.1]), 3.7, 1)[0, 0] == 1.0
    np.testing.assert_allclose(basis_matrix(np.array([5.0]), 5.0, 6)[0],
                               np.sqrt(2.0 * np.arange(6) + 1.0), rtol=0, atol=1e-13)
    assert basis_matrix(np.array([1.5]), 2.0, 2)[0, 1] == pytest.approx(
        math.sqrt(3.0) * 0.5, abs=1e-14)


def test_basis_matrix_matches_scipy():
    # oracle: sqrt(2n+1) P_n(2x/t - 1) with scipy's Legendre evaluation
    xs = np.array([0.0, 2.5, 7.0, 17.0])
    mat = basis_matrix(xs, 17.0, 6)
    for n in range(6):
        expected = math.sqrt(2 * n + 1) * eval_legendre(n, 2.0 * xs / 17.0 - 1.0)
        np.testing.assert_allclose(mat[:, n], expected, rtol=0, atol=1e-13)
    assert mat.strides == np.empty((4, 6)).strides  # a C-order matmul operand
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError):
            basis_matrix(xs, bad, 3)
    with pytest.raises(ValueError):  # a coordinate beyond the horizon
        basis_matrix(np.array([5.0]), 4.0, 3)


@pytest.mark.parametrize("t", [np.inf, np.nan])
def test_basis_matrix_rejects_a_non_finite_horizon(t):
    # 2x/inf - 1 is -1 for every x, which would give the g_n(-1) row silently
    with pytest.raises(ValueError, match="time horizon must be positive and finite"):
        basis_matrix(np.array([0.0, 5.0]), t, 3)


@pytest.mark.parametrize("t", [1.0, 17.0, 1000.0])
@pytest.mark.parametrize("order", [8, 32])
def test_orthonormality_under_scaled_measure(order, t):
    # (1/t) int_0^t g_n g_m dx = delta_{nm}, Gauss-Legendre with >= 2N nodes
    nodes, weights = np.polynomial.legendre.leggauss(2 * order + 8)
    xs = t * (nodes + 1.0) / 2.0
    w = weights / 2.0  # includes the 1/t measure after mapping
    g = basis_matrix(xs, t, order)
    gram = (g * w[:, None]).T @ g
    assert np.abs(gram - np.eye(order)).max() < 1e-8


def test_constant_signal_is_ode_fixed_point():
    # -A c* + B f = 0 for c* = [f, 0, ..., 0]: column 0 of A equals B
    op = build_operator(12)
    f = 2.375
    c_star = np.zeros(12)
    c_star[0] = f
    residual = -op.a_matrix @ c_star + op.b_vector * f
    assert np.abs(residual).max() < 1e-12



_UNIFORM = hippomem.SamplingStrategy(hippomem.SamplingKind.UNIFORM)
_SINE = SignalKind.SINE_COMPOSITE


def _config(**sizes):
    params = dict(model_dim=4, head_count=2, head_dim=2, block_length=2, mem_length=2,
                  hippo_order=2, scheme=hippomem.Scheme.ZOH, strategy=_UNIFORM)
    return hippomem.AttentionConfig(**{**params, **sizes})


def _block_io(block_index):
    state = hippomem.MemoryState(np.zeros((2, 1)), blocks_absorbed=3)
    return hippomem.BlockIO(np.zeros((2, 1)), state, state, block_index)


def _zoh_step_index(k):
    # a step keeps no index, but its ZOH transition (k / (k+1))**A does
    a = hippomem.discretize_step(build_operator(1), k, hippomem.Scheme.ZOH).a_bar[0, 0]
    return round(1.0 / (1.0 - a)) - 1


def _table_seed_count(seed_count):
    # run_table keeps no count: find how many seeds its first row averages
    mse = run_table(seed_count=seed_count, length=16)[0].mse
    specs = [SignalSpec(_SINE, 1, 16, seed=derive(0, 0, rep)) for rep in range(8)]
    mses = [run_benchmark(spec, 32, hippomem.Scheme.ZOH) for spec in specs]
    return next(k for k in range(1, 9) if float(np.mean(mses[:k])) == mse)


@pytest.mark.parametrize("name, call", [
    pytest.param("order", lambda v: build_operator(v).order, id="build_operator-order"),
    pytest.param("block_length", lambda v: hippomem.build_bank(
        build_operator(3), v, hippomem.Scheme.ZOH, 2).block_length, id="build_bank-block_length"),
    pytest.param("max_blocks", lambda v: hippomem.build_bank(
        build_operator(3), 2, hippomem.Scheme.ZOH, v).max_blocks, id="build_bank-max_blocks"),
    pytest.param("mem_length", lambda v: hippomem.build_reconstruction_bank(
        build_operator(3), _UNIFORM, v, 2, 2).mem_length, id="recon-mem_length"),
    pytest.param("block_length", lambda v: hippomem.build_reconstruction_bank(
        build_operator(3), _UNIFORM, 2, v, 2).block_length, id="recon-block_length"),
    pytest.param("max_blocks", lambda v: hippomem.build_reconstruction_bank(
        build_operator(3), _UNIFORM, 2, 2, v).max_blocks, id="recon-max_blocks"),
    pytest.param("count", lambda v: sample_points(_UNIFORM, 10.0, v).size,
                 id="sample_points-count"),
    pytest.param("model_dim", lambda v: _config(model_dim=v, head_count=1, head_dim=4).model_dim,
                 id="config-model_dim"),
    pytest.param("head_count", lambda v: _config(model_dim=8, head_count=v).head_count,
                 id="config-head_count"),
    pytest.param("head_dim", lambda v: _config(head_count=1, head_dim=v).head_dim,
                 id="config-head_dim"),
    pytest.param("block_length", lambda v: _config(block_length=v).block_length,
                 id="config-block_length"),
    pytest.param("mem_length", lambda v: _config(mem_length=v).mem_length,
                 id="config-mem_length"),
    pytest.param("hippo_order", lambda v: _config(hippo_order=v).hippo_order,
                 id="config-hippo_order"),
    pytest.param("block_index", lambda v: _block_io(v).block_index, id="BlockIO-block_index"),
    pytest.param("block_length", lambda v: build_trapezoidal_mask(v, 2).shape[0],
                 id="mask-block_length"),
    pytest.param("mem_length", lambda v: build_trapezoidal_mask(2, v).shape[1] - 2,
                 id="mask-mem_length"),
    pytest.param("k", _zoh_step_index, id="discretize_step-k"),
    pytest.param("length", lambda v: SignalSpec(_SINE, 1, v, seed=0).length,
                 id="SignalSpec-length"),
    pytest.param("component_count",
                 lambda v: SignalSpec(_SINE, v, 16, seed=0).component_count,
                 id="SignalSpec-component_count"),
    pytest.param("seed_count", _table_seed_count, id="run_table-seed_count"),
])
def test_public_sizes_must_be_integers(name, call):
    # call(v) returns what the call keeps of size v
    for bad in (2.5, 4.0, True, "4", None):
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            call(bad)
    size = call(np.int64(4))
    assert size == 4 and type(size) is int

"""Discretization schemes, step matrices, and the sequential recurrence."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from hippomem import (
    InstabilityError,
    MemoryState,
    Scheme,
    build_operator,
    discretize_interval,
    discretize_step,
    history_kernel,
    segment_coefficients,
    sequential_update,
    transition_power,
    zero_state,
)
from hippomem.discretization import _check_finite


def test_scheme_parsing():
    # the constructor is the one string-to-enum path; it folds case
    assert Scheme("ZOH") is Scheme.ZOH
    assert Scheme("bilinear") is Scheme.BILINEAR
    with pytest.raises(ValueError, match=r"unknown scheme 'euler'; expected one of"):
        Scheme("euler")
    with pytest.raises(ValueError, match="unknown scheme 0"):
        Scheme(0)


def test_zoh_smallest_case():
    op = build_operator(1)
    step = discretize_step(op, 1, Scheme.ZOH)
    assert step.a_bar[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert step.b_bar[0] == pytest.approx(0.5, abs=1e-14)


def test_zoh_diagonal_is_ratio_power():
    op = build_operator(2)
    step = discretize_step(op, 3, Scheme.ZOH)
    np.testing.assert_allclose(np.diag(step.a_bar), [0.75, 0.75 ** 2], atol=1e-14)


@pytest.mark.parametrize("order,k", [(4, 1), (16, 2), (64, 17), (128, 1000)])
def test_zoh_diagonal_invariant(order, k):
    op = build_operator(order)
    step = discretize_step(op, k, Scheme.ZOH)
    expected = (k / (k + 1)) ** (np.arange(order) + 1.0)
    assert np.abs(np.diag(step.a_bar) - expected).max() < 1e-10


@pytest.mark.parametrize("order", [4, 32, 128])
@pytest.mark.parametrize("k", [1, 2, 1000])
def test_bilinear_against_dense_solve_oracle(order, k):
    # independent oracle: explicit dense inverse of (I + A/(2k)) over [k, k+1]
    op = build_operator(order)
    step = discretize_step(op, k, Scheme.BILINEAR)
    a, b = op.a_matrix, op.b_vector
    eye = np.eye(order)
    lhs_inv = np.linalg.inv(eye + a / (2.0 * k))
    np.testing.assert_allclose(step.a_bar, lhs_inv @ (eye - a / (2.0 * k)), atol=1e-10)
    np.testing.assert_allclose(step.b_bar, lhs_inv @ (b / k), atol=1e-10)


@pytest.mark.parametrize("order", [4, 32, 128])
@pytest.mark.parametrize("k", [1, 2, 1000])
def test_forward_and_backward_forms(order, k):
    op = build_operator(order)
    a, b = op.a_matrix, op.b_vector
    eye = np.eye(order)
    fwd = discretize_step(op, k, Scheme.FORWARD_EULER)
    np.testing.assert_allclose(fwd.a_bar, eye - a / k, atol=1e-14)
    np.testing.assert_allclose(fwd.b_bar, b / k, atol=1e-14)
    bwd = discretize_step(op, k, Scheme.BACKWARD_EULER)
    lhs_inv = np.linalg.inv(eye + a / (k + 1))
    np.testing.assert_allclose(bwd.a_bar, lhs_inv, atol=1e-12)
    np.testing.assert_allclose(bwd.b_bar, lhs_inv @ (b / (k + 1)), atol=1e-12)


def test_rejects_step_zero():
    op = build_operator(2)
    for scheme in Scheme:
        with pytest.raises(ValueError):
            discretize_step(op, 0, scheme)


@pytest.mark.parametrize("order", [4, 16, 48])
@pytest.mark.parametrize("ratio", [0.5, 31.0 / 32.0, 0.01])
def test_transition_power_against_expm(order, ratio):
    op = build_operator(order)
    power = transition_power(op, ratio)
    oracle = expm(op.a_matrix * math.log(ratio))
    assert np.abs(power - oracle).max() < 1e-12


def test_transition_power_limits():
    op = build_operator(5)
    np.testing.assert_array_equal(transition_power(op, 0.0), np.zeros((5, 5)))
    np.testing.assert_array_equal(transition_power(op, 1.0), np.eye(5))
    with pytest.raises(ValueError):
        transition_power(op, 1.5)


@pytest.mark.parametrize("order", [12, 128])
@pytest.mark.parametrize("k", [1, 17, 1000])
def test_zoh_input_vector_closed_form(order, k):
    # Bbar_k projects the indicator of [r, 1], r = k/(k+1): entry n is
    # int_r^1 sqrt(2n+1) P_n(2x-1) dx, i.e. 1 - r for n = 0 and
    # (P_{n-1}(2r-1) - P_{n+1}(2r-1)) / (2 sqrt(2n+1)) above, here in 50 digits
    step = discretize_step(build_operator(order), k, Scheme.ZOH)
    with mpmath.workdps(50):
        r = mpmath.mpf(k) / (k + 1)
        x = 2 * r - 1
        oracle = [float(1 - r)] + [
            float((mpmath.legendre(n - 1, x) - mpmath.legendre(n + 1, x))
                  / (2 * mpmath.sqrt(2 * n + 1)))
            for n in range(1, order)]
    np.testing.assert_allclose(step.b_bar, oracle, rtol=0, atol=1e-14)


def test_segment_coefficients_against_quadrature():
    # psi_n(r) = int_0^r sqrt(2n+1) P_n(2x-1) dx by direct quadrature
    op = build_operator(6)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    for r in (0.2, 0.7, 1.0):
        psi = segment_coefficients(op, np.array([r]))[0]
        xs = r * (nodes + 1.0) / 2.0
        from hippomem import basis_matrix
        vals = basis_matrix(xs, 1.0, 6)
        oracle = (weights * r / 2.0) @ vals
        assert np.abs(psi - oracle).max() < 1e-13


@pytest.mark.parametrize("a,b", [(1, 10), (9, 16), (3, 100)])
def test_zoh_products_telescope(a, b):
    op = build_operator(16)
    prod = np.eye(16)
    for k in range(a, b + 1):
        prod = discretize_step(op, k, Scheme.ZOH).a_bar @ prod
    direct = transition_power(op, a / (b + 1))
    assert np.abs(prod - direct).max() < 1e-9


def test_sequential_update_linearity_and_shape():
    op = build_operator(6)
    step = discretize_step(op, 4, Scheme.ZOH)
    state = zero_state(6, 3)
    out = sequential_update(state, np.zeros(3), step)
    np.testing.assert_array_equal(out.coefficients, np.zeros((6, 3)))
    row = np.array([1.0, -2.0, 0.5])
    out = sequential_update(state, row, step)
    np.testing.assert_allclose(out.coefficients, np.outer(step.b_bar, row), atol=0)
    with pytest.raises(ValueError):
        sequential_update(state, np.zeros(2), step)
    with pytest.raises(ValueError):
        sequential_update(zero_state(5, 3), row, step)


def test_memory_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        MemoryState(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        MemoryState(np.zeros((2, 2)), blocks_absorbed=-1)


def test_constant_input_converges_to_fixed_point():
    # exact-limit first sample (c * e0), then 1024 unit steps of constant input
    op = build_operator(8)
    c = 1.7
    coeffs = np.zeros((8, 1))
    coeffs[0, 0] = c
    state = MemoryState(coeffs)
    for k in range(1, 1025):
        state = sequential_update(state, np.array([c]), discretize_step(op, k, Scheme.ZOH))
    assert np.abs(state.coefficients[1:, 0]).max() < 1e-3
    assert state.coefficients[0, 0] == pytest.approx(c, abs=1e-10)


def test_fixed_point_confirmed_by_adaptive_ode_solver():
    # high-resolution integration of dc/dt = (-A c + B f)/t from the fixed point
    op = build_operator(8)
    c = 1.7

    def rhs(t, y):
        return (-op.a_matrix @ y + op.b_vector * c) / t

    y0 = np.zeros(8)
    y0[0] = c
    sol = solve_ivp(rhs, (1.0, 50.0), y0, rtol=1e-10, atol=1e-12)
    assert np.abs(sol.y[:, -1] - y0).max() < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 7, -1])
def test_check_finite_catches_any_non_finite_entry(bad, where):
    arr = np.ones((3, 4, 5))
    arr.reshape(-1)[where] = bad
    with pytest.raises(InstabilityError):
        _check_finite(Scheme.ZOH, np.ones(2), arr)
    _check_finite(Scheme.ZOH, np.ones(2), np.empty((0, 3)))


def test_forward_euler_instability_is_explicit():
    op = build_operator(8)
    with pytest.raises(InstabilityError):
        discretize_interval(op, 1e-310, 1.0, Scheme.FORWARD_EULER)


def test_interval_rejects_singular_starts():
    op = build_operator(4)
    with pytest.raises(ValueError):
        discretize_interval(op, 0.0, 1.0, Scheme.FORWARD_EULER)
    with pytest.raises(ValueError):
        discretize_interval(op, 0.0, 1.0, Scheme.BILINEAR)
    with pytest.raises(ValueError):
        discretize_interval(op, 2.0, 2.0, Scheme.ZOH)
    # ZOH has an exact limit at t0 = 0
    a_bar, b_bar = discretize_interval(op, 0.0, 1.0, Scheme.ZOH)
    np.testing.assert_array_equal(a_bar, np.zeros((4, 4)))
    np.testing.assert_allclose(b_bar, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_schemes_agree_under_refinement():
    # splitting unit steps into m substeps drives all schemes together
    op = build_operator(8)
    inputs = np.sin(np.arange(16) * 0.7) + 0.3
    dists = []
    for m in (1, 2, 4, 8):
        finals = {}
        for scheme in (Scheme.ZOH, Scheme.BACKWARD_EULER, Scheme.BILINEAR):
            coeffs = np.zeros((8, 1))
            coeffs[0, 0] = inputs[0]
            state = MemoryState(coeffs)
            for k in range(1, 16):
                for s in range(m):
                    a_bar, b_bar = discretize_interval(
                        op, k + s / m, k + (s + 1) / m, scheme)
                    state = MemoryState(
                        a_bar @ state.coefficients + np.outer(b_bar, [inputs[k]]))
            finals[scheme] = state.coefficients[:, 0]
        pairs = [
            np.abs(finals[Scheme.ZOH] - finals[Scheme.BILINEAR]).max(),
            np.abs(finals[Scheme.ZOH] - finals[Scheme.BACKWARD_EULER]).max(),
            np.abs(finals[Scheme.BILINEAR] - finals[Scheme.BACKWARD_EULER]).max(),
        ]
        dists.append(pairs)
    for level in range(1, len(dists)):
        for pair in range(3):
            assert dists[level][pair] <= 1.1 * dists[level - 1][pair]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_history_kernel_matches_stepwise_recurrence(scheme):
    # brute-force oracle: exact-limit seed then per-step updates
    op = build_operator(8)
    length = 16
    signal = np.cos(np.arange(length) * 0.9)
    kernel = history_kernel(op, length, scheme)
    coeffs = np.zeros((8, 1))
    coeffs[0, 0] = signal[0]
    state = MemoryState(coeffs)
    for k in range(1, length):
        state = sequential_update(state, signal[k:k + 1], discretize_step(op, k, scheme))
    assert np.abs(kernel @ signal - state.coefficients[:, 0]).max() < 1e-10

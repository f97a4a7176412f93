"""Discretization schemes, step matrices, and the sequential recurrence."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from hippomem import (
    InstabilityError,
    MemoryState,
    Scheme,
    build_bank,
    build_operator,
    discretize_step,
    history_kernel,
    sequential_update,
    zero_state,
)
from hippomem.discretization import (
    _GROUP_POINTS,
    DiscreteStep,
    _check_finite,
    discretize_interval,
    segment_coefficients,
    transition_power,
)
from hippomem.operators import legendre_table


def test_scheme_parsing():
    # the constructor is the one string-to-enum path; it folds case
    assert Scheme("ZOH") is Scheme.ZOH
    assert Scheme("bilinear") is Scheme.BILINEAR
    with pytest.raises(ValueError, match=r"unknown scheme 'euler'; expected one of"):
        Scheme("euler")
    with pytest.raises(ValueError, match="unknown scheme 0"):
        Scheme(0)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_scheme_names_route_like_members(scheme):
    # any name used to fall through to the forward Euler kernel
    op = build_operator(6)
    np.testing.assert_array_equal(history_kernel(op, 64, scheme.value),
                                  history_kernel(op, 64, scheme))
    for got, want in zip(discretize_interval(op, 3.0, 4.0, scheme.value.upper()),
                         discretize_interval(op, 3.0, 4.0, scheme)):
        np.testing.assert_array_equal(got, want)
    for call in (lambda: history_kernel(op, 64, "euler"),
                 lambda: discretize_interval(op, 3.0, 4.0, "euler")):
        with pytest.raises(ValueError, match="unknown scheme 'euler'"):
            call()


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


# Fraction bits of the fixed-point reference below: about 38 digits.
_FIX = 128
_ONE = 1 << _FIX


def _fixed_legendre(z: np.ndarray, count: int) -> list[np.ndarray]:
    """P_0..P_{count-1} at fixed-point points (object arrays of Python ints).

    The Bonnet recurrence in exact integer arithmetic; each floor division
    rounds by at most 2**-_FIX, and the recurrence is stable on [-1, 1].
    """
    rows = [np.full(z.size, _ONE, dtype=object), z]
    for k in range(2, count):
        rows.append(((2 * k - 1) * z * rows[-1] - ((k - 1) * rows[-2] << _FIX))
                    // (k << _FIX))
    return rows[:count]


@functools.lru_cache(maxsize=None)
def _fixed_gauss(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(order + 2)-point Gauss-Legendre nodes and weights, s_m, s_m P_m(nodes).

    Fixed point with _FIX fraction bits, s_m = sqrt(2m+1). Three Newton steps
    from numpy's nodes reach full precision; w = 2 (1 - y^2) / (q D)^2 with
    D = y P_q(y) - P_{q-1}(y), so that P_q'(y) = q D / (y^2 - 1).
    """
    count = order + 2
    guess = np.polynomial.legendre.leggauss(count)[0]
    y = np.array([int(v * 2.0 ** 60) << (_FIX - 60) for v in guess], dtype=object)
    for _ in range(3):
        p_prev, p = _fixed_legendre(y, count + 1)[-2:]
        y = y - p * ((y * y >> _FIX) - _ONE) // (count * ((y * p >> _FIX) - p_prev))
    p_prev, p = _fixed_legendre(y, count + 1)[-2:]
    d = (y * p >> _FIX) - p_prev
    w = ((2 * (_ONE - (y * y >> _FIX))) << (2 * _FIX)) // (count * count * d * d)
    s = np.array([math.isqrt((2 * m + 1) << (2 * _FIX)) for m in range(order)], dtype=object)
    return y, w, s, np.column_stack(_fixed_legendre(y, order)) * s >> _FIX


def fixed_point_transition_power(order: int, ratio: float) -> np.ndarray:
    """ratio**A to float rounding, by Gauss-Legendre on [0, ratio] in fixed point.

    Entry (n, m) is s_n s_m int_0^r P_n(2x - 1) P_m(2x/r - 1) dx; at the
    nodes x = r (y + 1) / 2 the second factor is P_m(y). The upper triangle
    is exactly zero. Integer arithmetic keeps the reference at about 38
    digits and fast at N = 128, where mpmath's mpf took seconds per ratio.
    """
    y, w, s, inner = _fixed_gauss(order)
    frac = Fraction(ratio)                     # the float's exact value
    r = (frac.numerator << _FIX) // frac.denominator
    outer = np.column_stack(_fixed_legendre((r * (y + _ONE) >> _FIX) - _ONE, order))
    outer = (outer * s >> _FIX) * (w * r >> (_FIX + 1))[:, None] >> _FIX
    power = np.zeros((order, order))
    for n in range(order):
        power[n, :n + 1] = [v / _ONE ** 2 for v in outer[:, n].dot(inner[:, :n + 1])]
    return power


# Worst error of `transition_power` relative to max|P| on the grid below,
# measured per order for r >= 1/2 (where r - 1 is exact) and for r < 1/2:
# N = 8: 5.6e-16 and 1.7e-15; N = 32: 9.8e-16 and 5.5e-15; N = 128: 3.9e-15
# and 1.2e-14. Each pin is twice that.
_POWER_PINS = {8: (1.2e-15, 3.4e-15), 32: (2e-15, 1.1e-14), 128: (8e-15, 2.4e-14)}


@pytest.mark.parametrize("order", [8, 32, 128])
@pytest.mark.parametrize("ratio", [0.01, 1 / 65, 0.3, 63 / 64, 16321 / 16385])
def test_transition_power_against_fixed_point_quadrature(order, ratio):
    # beyond the expm oracle's range; 1/65 and 16321/16385 are the first and
    # last blocks of an N = 128, L = 64, 256-block bank. The upper triangle is
    # exact.
    power = transition_power(build_operator(order), ratio)
    reference = fixed_point_transition_power(order, ratio)
    pin = _POWER_PINS[order][ratio < 0.5]
    assert np.abs(power - reference).max() <= pin * np.abs(reference).max()


def test_batched_transition_power_has_the_bits_of_scalar_calls():
    # ZOH banks take one stacked call per group of blocks
    op = build_operator(6)
    ratios = np.array([0.25, 0.0, 0.5, 1.0, 63 / 64])
    powers = transition_power(op, ratios)
    assert powers.shape == (5, 6, 6)
    for power, ratio in zip(powers, ratios):
        np.testing.assert_array_equal(power, transition_power(op, ratio))
        np.testing.assert_array_equal(np.diag(power), ratio ** np.arange(1.0, 7.0))
    np.testing.assert_array_equal(powers[1], np.zeros((6, 6)))
    np.testing.assert_array_equal(powers[3], np.eye(6))
    assert transition_power(op, np.empty(0)).shape == (0, 6, 6)
    with pytest.raises(ValueError):
        transition_power(op, np.array([0.5, 1.5]))
    # a bank's transitions are formed row by row in its own panels: row n of
    # every power, over as many columns as its destination has
    for widths in ([6] * 6, [1, 2, 3, 4, 5, 6], [4, 4, 4, 4, 6, 6]):
        out = [np.full((5, w), np.nan) for w in widths]
        assert transition_power(op, ratios, out=out) is out
        for row, dest in enumerate(out):
            np.testing.assert_array_equal(dest, powers[:, row, :widths[row]])
    with pytest.raises(ValueError):
        transition_power(op, ratios, out=[np.empty((4, 6))] * 6)
    with pytest.raises(ValueError):
        transition_power(op, ratios, out=[np.empty((5, 6))] * 5)


@pytest.mark.parametrize("order", [8, 32, 128])
def test_transition_power_is_exactly_lower_triangular(order):
    # entries above the diagonal are +0.0, never quadrature noise or -0.0;
    # a bank's panels store those inside their diagonal blocks
    op = build_operator(order)
    ratios = np.array([0.0, 0.3, 63 / 64, 16321 / 16385, 1.0])
    upper = np.triu(np.ones((order, order), dtype=bool), 1)
    powers = [*transition_power(op, ratios), *(transition_power(op, r) for r in ratios)]
    for power in powers:
        assert not power[upper].any()
        assert not np.signbit(power[upper]).any()


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
        psi = segment_coefficients(op, np.array([r]))[:, 0]
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


def test_memory_state_blocks_absorbed_must_be_an_integer():
    # 1.5 used to pass and then fail as an IndexError in block_update; True read as block 1
    coeffs = np.zeros((2, 1))
    for bad in (1.5, 1.0, np.float64(1.0), True, np.True_, "1", None):
        with pytest.raises(TypeError, match="blocks_absorbed must be an integer"):
            MemoryState(coeffs, blocks_absorbed=bad)
    state = MemoryState(coeffs, blocks_absorbed=np.int64(3))
    assert state.blocks_absorbed == 3 and type(state.blocks_absorbed) is int


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


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_interval_rejects_non_finite_ends(scheme, bad):
    # ZOH used to return the exact-absorption step for [1, inf]; the others
    # raised InstabilityError, blaming the scheme
    op = build_operator(4)
    for t_start, t_end in ((bad, 2.0), (1.0, bad), (bad, bad)):
        with pytest.raises(ValueError, match="interval ends must be finite") as info:
            discretize_interval(op, t_start, t_end, scheme)
        assert not isinstance(info.value, InstabilityError)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_step_is_one_read_only_discrete_step(scheme):
    op = build_operator(5)
    step = discretize_step(op, 3, scheme)
    interval = discretize_interval(op, 3.0, 4.0, scheme)
    assert type(step) is type(interval) is DiscreteStep
    a_bar, b_bar = interval
    for got, want in ((a_bar, step.a_bar), (b_bar, step.b_bar)):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


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


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("order", [1, 4, 32])
@pytest.mark.parametrize("k", [1, 2, 63, 1000])
def test_input_vector_is_identity_minus_step_on_e0(scheme, order, k):
    # A e0 = B, so every scheme's Bbar_k is (I - Abar_k) e0: the identity
    # history_kernel's backward Euler and bilinear scan rests on
    op = build_operator(order)
    np.testing.assert_array_equal(op.a_matrix[:, 0], op.b_vector)
    step = discretize_step(op, k, scheme)
    e0 = np.eye(order)[:, 0]
    # ZOH's Abar comes from quadrature and its Bbar from closed-form segments
    np.testing.assert_allclose(step.b_bar, e0 - step.a_bar[:, 0], rtol=0, atol=5e-14)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_history_kernel_length_must_be_an_integer(scheme):
    op = build_operator(4)
    for bad in (3.5, 3.0, np.float64(3.0), True, np.True_, "3", None):
        with pytest.raises(TypeError, match="length must be an integer"):
            history_kernel(op, bad, scheme)
    for bad in (0, -2):
        with pytest.raises(ValueError, match="length must be >= 1"):
            history_kernel(op, bad, scheme)
    np.testing.assert_array_equal(history_kernel(op, np.int64(5), scheme),
                                  history_kernel(op, 5, scheme))


def longdouble_state(order: int, signal: np.ndarray, scheme: Scheme) -> np.ndarray:
    """Forward Euler, backward Euler or bilinear recurrence in extended precision.

    The first sample is absorbed exactly as e0 f_0. Each later forward Euler
    step adds (B f - A x) / k, with (A x)_n = (n+1) x_n + s_n sum_{m<n} s_m x_m;
    a backward Euler or bilinear step solves (I + c A) z = y by forward
    substitution over the LegS rows. Both go one scalar at a time, in
    np.longdouble (80-bit on x86).
    """
    ld = np.longdouble
    s = [np.sqrt(ld(2 * n + 1)) for n in range(order)]
    backward = scheme is Scheme.BACKWARD_EULER
    state = [ld(signal[0])] + [ld(0)] * (order - 1)
    for k in range(1, len(signal)):
        if scheme is Scheme.FORWARD_EULER:
            f = ld(signal[k])
            total = ld(0)
            new = []
            for n in range(order):
                new.append(state[n] + (s[n] * f - (n + 1) * state[n] - s[n] * total) / k)
                total += s[n] * state[n]
            state = new
            continue
        h = ld(1) / (k + 1) if backward else ld(1) / k
        c = h if backward else h / 2
        # backward: M x' = x + h B f; bilinear: x' = 2 M^-1 (x + (h/2) B f) - x
        f = (h if backward else c) * ld(signal[k])
        total = ld(0)
        new = []
        for n in range(order):
            z = (state[n] + s[n] * f - c * s[n] * total) / (1 + c * (n + 1))
            total += s[n] * z
            new.append(z if backward else 2 * z - state[n])
        state = new
    return np.array(state, dtype=float)


@pytest.mark.parametrize("scheme", [Scheme.BACKWARD_EULER, Scheme.BILINEAR])
@pytest.mark.parametrize("order,length", [(32, 2048), (128, 1024), (64, 1500)])
def test_history_kernel_against_longdouble_recurrence(scheme, order, length):
    # an alternating input cancels neighbouring columns, so it shows rounding
    # that differs from one column to the next; a constant input compresses
    # to exactly e0. kernel @ signal is taken in longdouble: a float64 BLAS
    # product adds its own summation order's rounding (3.1e-15 for the
    # bilinear kernel at (32, 2048), 6.4e-15 for backward Euler's at
    # (64, 1500)), which would hide the kernel's. Worst measured: backward
    # Euler's closed form 1.8e-16, bilinear's row solve 7.5e-16 (constant,
    # N = 32).
    kernel = history_kernel(build_operator(order), length, scheme).astype(np.longdouble)
    signals = {
        "uniform": np.random.default_rng(order).uniform(-1.0, 1.0, length),
        "alternating": (-1.0) ** np.arange(length),
        "constant": np.ones(length),
    }
    bound = 1e-15 if scheme is Scheme.BACKWARD_EULER else 2e-15
    for name, signal in signals.items():
        state = (kernel @ signal.astype(np.longdouble)).astype(float)
        err = np.abs(state - longdouble_state(order, signal, scheme)).max()
        assert err <= bound, (name, err)


@pytest.mark.parametrize("order,length", [(32, 2048), (64, 1057), (64, 1058)])
def test_forward_history_kernel_against_longdouble_recurrence(order, length):
    # (64, 1057) is the last length on the step fold and (64, 1058) the first
    # in closed form; a constant input compresses to exactly e0
    kernel = history_kernel(build_operator(order), length, Scheme.FORWARD_EULER)
    signals = {
        "uniform": np.random.default_rng(order).uniform(-1.0, 1.0, length),
        "alternating": (-1.0) ** np.arange(length),
        "constant": np.ones(length),
    }
    for name, signal in signals.items():
        ref = longdouble_state(order, signal, Scheme.FORWARD_EULER)
        err = np.abs(kernel @ signal - ref).max()
        assert err <= 4e-15, (name, err)


def closed_form_start(order: int) -> int:
    """Shortest history whose forward Euler kernel is built in closed form."""
    # the smallest T with 4 (T - 1) >= (N + 1)^2
    return 1 + -(-(order + 1) ** 2 // 4)


def mpmath_forward_kernel(order: int, length: int, dps: int = 60) -> np.ndarray:
    """Forward Euler history kernel from its step recurrence in dps digits.

    With u_{T-1} = e0 and u_{a-1} = (I - A/a) u_a, column a >= 1 is A u_a / a
    and column 0 is u_0; A u costs O(N) through the LegS structure.
    """
    with mpmath.workdps(dps):
        s = [mpmath.sqrt(2 * n + 1) for n in range(order)]
        u = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)
        kernel = np.empty((order, length))
        for a in range(length - 1, 0, -1):
            total = mpmath.mpf(0)
            au = []
            for n in range(order):
                au.append((n + 1) * u[n] + s[n] * total)
                total += s[n] * u[n]
            kernel[:, a] = [float(v / a) for v in au]
            u = [u[n] - au[n] / a for n in range(order)]
        kernel[:, 0] = [float(v) for v in u]
    return kernel


@pytest.mark.parametrize("order", [1, 2, 4, 16, 32])
@pytest.mark.parametrize("offset", [0, 1, None])
def test_forward_history_kernel_against_mpmath(order, offset):
    start = closed_form_start(order)
    length = 512 if offset is None else start + offset
    kernel = history_kernel(build_operator(order), length, Scheme.FORWARD_EULER)
    ref = mpmath_forward_kernel(order, length)
    assert np.abs(kernel - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("order,length", [
    (order, length) for order in (1, 2, 4, 16, 32, 63, 64, 128)
    for length in (closed_form_start(order), closed_form_start(order) + 1,
                   2 * closed_form_start(order), 4162)])
def test_forward_history_kernel_closed_form_exact_cases(order, length):
    kernel = history_kernel(build_operator(order), length, Scheme.FORWARD_EULER)
    # a constant input compresses to e0
    assert np.abs(kernel @ np.ones(length) - np.eye(order)[0]).max() <= 1e-14
    # the steps j = 1 .. N remove all N modes of A, so the first sample
    # leaves nothing in the state
    assert not kernel[:, 0].any()


def mpmath_backward_kernel(order: int, length: int, dps: int = 40) -> np.ndarray:
    """Backward Euler history kernel from its step recurrence in dps digits.

    With u_{T-1} = e0 and u_{a-1} = (I + A/(a+1))^-1 u_a, solved by forward
    substitution over the LegS rows, column a >= 1 is u_a - u_{a-1} and
    column 0 is u_0.
    """
    with mpmath.workdps(dps):
        s = [mpmath.sqrt(2 * n + 1) for n in range(order)]
        u = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (order - 1)
        kernel = np.empty((order, length))
        for a in range(length - 1, 0, -1):
            c = mpmath.mpf(1) / (a + 1)
            total = mpmath.mpf(0)
            z = []
            for n in range(order):
                z.append((u[n] - c * s[n] * total) / (1 + c * (n + 1)))
                total += s[n] * z[n]
            kernel[:, a] = [float(u[n] - z[n]) for n in range(order)]
            u = z
        kernel[:, 0] = [float(v) for v in u]
    return kernel


@pytest.mark.parametrize("order,length", [
    (order, length) for order in (1, 2, 8, 32, 128, 256)
    for length in sorted({1, 2, 3, max(1, order // 2), order, 4 * order, 4096})])
def test_backward_history_kernel_compresses_a_constant_to_e0(order, length):
    # backward Euler's closed form has no size condition: short histories,
    # N > T and long histories alike. Worst measured: 4.4e-16.
    kernel = history_kernel(build_operator(order), length, Scheme.BACKWARD_EULER)
    assert np.abs(kernel.sum(axis=1) - np.eye(order)[0]).max() <= 1e-15


@pytest.mark.parametrize("order,length", [(8, 300), (32, 200), (64, 70), (128, 130)])
def test_backward_history_kernel_against_mpmath(order, length):
    # worst measured: 4.2e-15 relative to max|K|, at (8, 300)
    kernel = history_kernel(build_operator(order), length, Scheme.BACKWARD_EULER)
    ref = mpmath_backward_kernel(order, length)
    assert np.abs(kernel - ref).max() <= 1e-13 * np.abs(ref).max()


def table_segments(order: int, ratios: np.ndarray) -> np.ndarray:
    """psi as (N, ratios.size) rows by the table route: one `legendre_table`
    of degrees 0 .. N at 2r - 1, then differences of its rows."""
    table = legendre_table(2.0 * ratios - 1.0, order + 1)
    psi = np.empty((order, ratios.size))
    psi[0] = ratios
    np.subtract(table[2:], table[:-2], out=psi[1:])
    psi[1:] /= (2.0 * np.sqrt(2.0 * np.arange(1, order) + 1.0))[:, None]
    return psi


@pytest.mark.parametrize("order", [1, 2, 3, 32, 128])
@pytest.mark.parametrize("length", [1, 2, 3, 4096, 4097, 8192])
def test_streamed_zoh_kernel_has_the_bits_of_a_legendre_table(order, length):
    # segment_coefficients streams its Legendre rows in blocks of degrees,
    # one row per degree at these lengths; every value must be the table's
    op = build_operator(order)
    ratios = np.arange(length + 1) / length
    psi = table_segments(order, ratios)
    np.testing.assert_array_equal(segment_coefficients(op, ratios), psi)
    np.testing.assert_array_equal(history_kernel(op, length, Scheme.ZOH), psi[:, 1:] - psi[:, :-1])


@pytest.mark.parametrize("order", [1, 2, 3, 32, 128])
def test_streamed_segment_coefficients_and_steps_have_the_bits_of_a_legendre_table(order):
    op = build_operator(order)
    ratios = np.r_[0.0, 1.0, np.random.default_rng(order).random(995), 1.0, 0.0]
    psi = table_segments(order, ratios)
    np.testing.assert_array_equal(segment_coefficients(op, ratios), psi)
    # `out` takes the differences along the last axis of a 2-D ratio array
    pairs = ratios.reshape(-1, 3)
    out = np.empty((order, pairs.shape[0], 2))
    assert segment_coefficients(op, pairs, out=out) is out
    by_pair = psi.reshape(order, -1, 3)
    np.testing.assert_array_equal(out, by_pair[..., 1:] - by_pair[..., :-1])
    # a ZOH step is Bbar = psi(1) - psi(r), ratio 0 (the t -> 0 limit) included
    for t_start, t_end in [(0.0, 1.0), (0.0, 7.0), (2.0, 3.0), (999.0, 1000.0)]:
        ends = table_segments(order, np.array([t_start / t_end, 1.0]))
        step = discretize_interval(op, t_start, t_end, Scheme.ZOH)
        np.testing.assert_array_equal(step.b_bar, ends[:, 1] - ends[:, 0])
    with pytest.raises(ValueError, match="out must have shape"):
        segment_coefficients(op, pairs, out=np.empty((order, pairs.shape[0], 3)))


@pytest.mark.parametrize("order, ell, blocks", [(1, 1, 3000), (2, 1, 2100), (32, 64, 70),
                                                (128, 64, 70), (3, 5000, 3)])
def test_streamed_zoh_bank_has_the_bits_of_a_legendre_table(order, ell, blocks):
    # each bank spans 2 or 3 groups of blocks; at L = 5000 a group is one block
    group = max(1, _GROUP_POINTS // max(order + 2, ell + 1))
    assert blocks > group
    op = build_operator(order)
    bank = build_bank(op, ell, Scheme.ZOH, blocks)
    for i in range(blocks):
        start, horizon = i * ell + 1, (i + 1) * ell + 1
        psi = table_segments(order, np.arange(start, horizon + 1) / horizon)
        np.testing.assert_array_equal(bank.kernels[i], psi[:, 1:] - psi[:, :-1])


@pytest.mark.parametrize("length", [4096, 4097, 10007])
def test_zoh_kernel_chunks_keep_the_bits_of_one_segment_table(length):
    # history_kernel writes the ZOH differences through `out`; each column is
    # the difference of its own two segment ends, as in the returned psi
    op = build_operator(32)
    seg = segment_coefficients(op, np.arange(length + 1) / length)
    np.testing.assert_array_equal(history_kernel(op, length, Scheme.ZOH), seg[:, 1:] - seg[:, :-1])


@pytest.mark.parametrize("order,length", [(32, 512), (128, 1000)])
def test_zoh_kernel_is_unchanged_by_repeating_every_sample(order, length):
    # exact oracle: ZOH holds each sample over its unit step, and LegS is scale
    # invariant, so 2T steps of doubled samples give the state of T steps.
    # Worst measured: 8.3e-17.
    op = build_operator(order)
    x = np.sin(0.37 * np.arange(length)) + np.cos(0.011 * np.arange(length) ** 1.5)
    state = history_kernel(op, length, Scheme.ZOH) @ x
    doubled = history_kernel(op, 2 * length, Scheme.ZOH) @ np.repeat(x, 2)
    assert np.abs(doubled - state).max() <= 1e-15


def test_long_context_compresses_a_constant_to_e0():
    # the paper's 32k context, under every scheme (about 90 ms in all).
    # Worst measured: 6.9e-17 ZOH, 1.4e-14 forward and backward, 6.9e-15 bilinear.
    op = build_operator(32)
    for scheme in Scheme:
        state = history_kernel(op, 32768, scheme) @ np.ones(32768)
        assert np.abs(state - np.eye(32)[0]).max() <= 1e-13, scheme

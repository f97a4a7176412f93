"""Operator construction and basis evaluation."""

import math

import mpmath
import numpy as np
import pytest

from hippomem import (
    BasisPoint,
    basis_eval,
    basis_matrix,
    build_operator,
    legendre_eval,
    legendre_table,
)


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
    assert legendre_eval(n, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert legendre_eval(n, -1.0) == pytest.approx((-1.0) ** n, abs=1e-14)


def test_legendre_quadratic_value():
    # oracle: (3 z^2 - 1) / 2 at z = 1/2 is exactly -1/8
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_against_mpmath():
    with mpmath.workdps(40):
        for n, z in [(5, 0.3), (11, -0.77), (30, 0.999)]:
            expected = float(mpmath.legendre(n, z))
            assert legendre_eval(n, z) == pytest.approx(expected, rel=1e-12)


def test_legendre_clamps_tiny_overshoot():
    assert legendre_eval(4, 1.0 + 5e-13) == pytest.approx(1.0)
    assert legendre_eval(4, -1.0 - 5e-13) == pytest.approx(1.0)


def test_legendre_rejects_large_overshoot():
    with pytest.raises(ValueError):
        legendre_eval(3, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        legendre_eval(3, -1.5)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


def test_legendre_table_matches_scalar():
    z = np.linspace(-1, 1, 17)
    table = legendre_table(z, 9)
    for i, zi in enumerate(z):
        for n in range(9):
            assert table[i, n] == pytest.approx(legendre_eval(n, zi), abs=1e-14)


@pytest.mark.parametrize("count", [1, 2, 129])
def test_legendre_table_is_c_contiguous_and_matches_scalar_exactly(count):
    z = np.linspace(-1, 1, 33)
    table = legendre_table(z, count)
    assert table.shape == (33, count)
    assert table.strides == np.empty((33, count)).strides
    for i, zi in enumerate(z):
        for n in range(0, count, 7):
            assert table[i, n] == legendre_eval(n, zi)
    assert legendre_table(np.empty(0), count).shape == (0, count)


def test_legendre_table_keeps_the_scalar_operation_order():
    # bank bits rest on this order: ((2k-1) z) P_{k-1} - (k-1) P_{k-2}, then / k
    z = np.linspace(-1, 1, 101)
    table = legendre_table(z, 129)
    for i, zi in enumerate(z.tolist()):
        prev, cur = 1.0, zi
        for k in range(2, 129):
            prev, cur = cur, ((2 * k - 1) * zi * cur - (k - 1) * prev) / k
            assert table[i, k] == cur


def test_basis_point_validation():
    with pytest.raises(ValueError):
        BasisPoint(time_horizon=0.0, coordinate=0.0)
    with pytest.raises(ValueError):
        BasisPoint(time_horizon=-2.0, coordinate=0.0)
    with pytest.raises(ValueError):
        BasisPoint(time_horizon=4.0, coordinate=5.0)
    with pytest.raises(ValueError):
        BasisPoint(time_horizon=4.0, coordinate=-0.5)


def test_basis_eval_examples():
    assert basis_eval(0, BasisPoint(3.7, 1.1)) == 1.0
    for n in range(6):
        assert basis_eval(n, BasisPoint(5.0, 5.0)) == pytest.approx(
            math.sqrt(2 * n + 1), abs=1e-13)
    assert basis_eval(1, BasisPoint(2.0, 1.5)) == pytest.approx(
        math.sqrt(3.0) * 0.5, abs=1e-14)


def test_basis_matrix_matches_basis_eval():
    xs = np.array([0.0, 2.5, 7.0, 17.0])
    mat = basis_matrix(xs, 17.0, 6)
    for i, x in enumerate(xs):
        for n in range(6):
            assert mat[i, n] == pytest.approx(
                basis_eval(n, BasisPoint(17.0, x)), abs=1e-13)
    with pytest.raises(ValueError):
        basis_matrix(xs, 0.0, 3)


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

import math

import numpy as np
import pytest

import oracles
from oracles import Dual2


def _poly(t):
    return 3.0 * t * t * t - 2.0 * t * t + 5.0 * t - 7.0


def _rational(t):
    return (t * t + 1.0) * (1.0 / (2.0 * t + 5.0)) + 1.0 / (t * t + 3.0)


@pytest.mark.parametrize("x", [-2.0, -0.5, 0.0, 0.3, 1.7, 42.0])
def test_polynomial_derivatives_exact(x):
    d = _poly(Dual2.variable(x))
    assert d.val == _poly(x)
    assert d.d1 == pytest.approx(9.0 * x * x - 4.0 * x + 5.0, rel=1e-14, abs=1e-12)
    assert d.d2 == pytest.approx(18.0 * x - 4.0, rel=1e-14, abs=1e-12)


@pytest.mark.parametrize("x", [-1.0, 0.25, 2.0, 10.0])
def test_rational_derivatives_match_finite_differences(x):
    d = _rational(Dual2.variable(x))
    h = 1e-5 * max(1.0, abs(x))
    fd1 = oracles.central_fd1(_rational, x, h)
    fd2 = oracles.central_fd2(_rational, x, h)
    assert d.val == pytest.approx(_rational(x), rel=1e-15)
    assert d.d1 == pytest.approx(fd1, rel=1e-8)
    assert d.d2 == pytest.approx(fd2, rel=1e-4)


def test_constant_propagation():
    x = Dual2.variable(3.0)
    c = 4.0 + 0.0 * x
    assert (c.val, c.d1, c.d2) == (4.0, 0.0, 0.0)


def test_arithmetic_both_orders():
    x = Dual2.variable(2.0)
    assert (3.0 + x).val == (x + 3.0).val == 5.0
    assert (x - 3.0).val == -1.0
    assert (3.0 * x).d1 == (x * 3.0).d1 == 3.0
    left = 3.0 / x
    assert left.val == 1.5 and left.d1 == pytest.approx(-0.75)


def test_reciprocal_second_derivative():
    x = Dual2.variable(4.0)
    r = x.reciprocal()
    assert r.val == 0.25
    assert r.d1 == pytest.approx(-1.0 / 16.0, rel=1e-14)
    assert r.d2 == pytest.approx(2.0 / 64.0, rel=1e-14)


def test_unit_numerator_division_is_the_reciprocal():
    x = Dual2(np.array([0.5, -3.0, 7.25, 4.0]), np.array([1.0, 2.0, -1.0, 0.0]),
              np.array([0.0, -0.5, 3.0, 1e10]))
    got, want = 1.0 / x, x.reciprocal()
    for part in ("val", "d1", "d2"):
        assert np.array_equal(getattr(got, part), getattr(want, part))
        assert np.array_equal(getattr(got, part), getattr(want * 1.0, part))

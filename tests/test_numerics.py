import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from searchcontest._errors import ConvergenceError
from searchcontest._numerics import (
    bisect_root,
    compl_pow,
    log_log_slope,
    prob_any,
    solve_cutoff,
    win_rate,
    win_rate_deficit,
)

# Exact-arithmetic cross-check points: spans the tiny-x regime where the
# naive forms cancel, both sides of the deficit-series crossover n*x = 1,
# and the saturated end.
X_POINTS = [1e-300, 1e-18, 1e-9, 1e-5, 0.0099, 0.011, 0.2, 0.5, 0.9, 0.999]
N_POINTS = [1, 2, 7, 40, 100]


def test_compl_pow_zero_exponent_is_one():
    assert compl_pow(0.3, 0.0) == 1.0
    assert compl_pow(1.0, 0.0) == 1.0  # the n = 1 contest convention


def test_compl_pow_saturates_at_one():
    assert compl_pow(1.0, 5.0) == 0.0
    assert compl_pow(1.5, 2.0) == 0.0


@pytest.mark.parametrize("x", X_POINTS)
@pytest.mark.parametrize("n", N_POINTS)
def test_compl_pow_matches_exact(x, n):
    exact = float((1 - __import__("fractions").Fraction(x)) ** n)
    assert compl_pow(x, float(n)) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("x", X_POINTS)
@pytest.mark.parametrize("n", N_POINTS)
def test_prob_any_matches_exact(x, n):
    assert prob_any(x, float(n)) == pytest.approx(oracles.prob_any_exact(x, n), rel=1e-12)


def test_prob_any_endpoints():
    assert prob_any(1.0, 3.0) == 1.0
    assert prob_any(0.0, 3.0) == 0.0


@pytest.mark.parametrize("x", X_POINTS)
@pytest.mark.parametrize("n", N_POINTS)
def test_win_rate_matches_exact(x, n):
    assert win_rate(x, float(n)) == pytest.approx(oracles.win_rate_exact(x, n), rel=1e-12)


def test_win_rate_endpoints():
    assert win_rate(0.0, 9.0) == 1.0
    assert win_rate(1.0, 4.0) == 0.25


@given(
    x1=st.floats(min_value=0.0, max_value=0.99),
    dx=st.floats(min_value=1e-6, max_value=0.009),
    n=st.floats(min_value=1.0, max_value=1e4),
)
def test_win_rate_decreasing_and_bounded(x1, dx, n):
    # Monotone up to float noise (exactly flat at n = 1).
    lo_val = win_rate(x1 + dx, n)
    assert win_rate(x1, n) >= lo_val - 1e-12
    assert 1.0 / n - 1e-15 <= lo_val <= 1.0 + 1e-15


@pytest.mark.parametrize("x", X_POINTS)
@pytest.mark.parametrize("n", N_POINTS)
def test_win_rate_deficit_matches_exact(x, n):
    assert win_rate_deficit(x, float(n)) == pytest.approx(
        oracles.win_rate_deficit_exact(x, n), rel=1e-12
    )


def test_win_rate_deficit_limit_at_zero():
    assert win_rate_deficit(0.0, 7.0) == 3.0


@given(
    x=st.floats(min_value=1e-12, max_value=0.999),
    n=st.floats(min_value=1.0, max_value=500.0),
)
def test_win_rate_deficit_identity(x, n):
    # Defining relation: win_rate = 1 - x * deficit.
    assert win_rate(x, n) == pytest.approx(1.0 - x * win_rate_deficit(x, n), rel=1e-11)


def test_bisect_root_linear():
    assert bisect_root(lambda t: t - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-13)


def test_bisect_root_returns_exact_endpoint_roots():
    assert bisect_root(lambda t: t, 0.0, 1.0) == 0.0
    assert bisect_root(lambda t: t - 1.0, 0.0, 1.0) == 1.0


def test_bisect_root_requires_bracket():
    with pytest.raises(ConvergenceError):
        bisect_root(lambda t: t + 1.0, 0.0, 1.0)
    with pytest.raises(ConvergenceError):
        bisect_root(lambda t: t - 2.0, 0.0, 1.0)
    # No sign change in the falling orientation either.
    with pytest.raises(ConvergenceError):
        bisect_root(lambda t: -(t + 1.0), 0.0, 1.0)
    with pytest.raises(ConvergenceError):
        bisect_root(lambda t: 2.0 - t, 0.0, 1.0)


def test_bisect_root_on_a_falling_function():
    root = bisect_root(lambda t: 0.7 - t, 0.0, 1.0)
    assert root == pytest.approx(0.7, abs=1e-13)


def test_bisect_root_handles_float_resolution_bracket():
    # The bracket collapses to adjacent doubles around the root, whichever
    # way fn crosses zero; the loop must stop there, not spin.
    target = 1.0 / 3.0
    for sign in (1.0, -1.0):
        root = bisect_root(lambda t: sign * (t - target), 0.0, 1.0)
        assert abs(root - target) <= math.ulp(target)


def test_solve_cutoff_clamps_at_either_endpoint():
    # value(lo) <= lo: nobody searches.
    assert solve_cutoff(lambda c: 0.2 - c, 0.5, 1.0) == (0.5, False)
    assert solve_cutoff(lambda c: 0.5, 0.5, 1.0) == (0.5, False)
    # value(hi) >= hi: everybody searches.
    assert solve_cutoff(lambda c: 2.0 - c, 0.0, 1.0) == (1.0, False)
    assert solve_cutoff(lambda c: 1.0, 0.0, 1.0) == (1.0, False)


def test_solve_cutoff_interior_root():
    c, interior = solve_cutoff(lambda c: 0.6 * (1.0 - c), 0.0, 1.0)
    assert interior
    assert c == pytest.approx(0.375, abs=1e-15)


def test_solve_cutoff_root_between_adjacent_doubles():
    # value steps down at 1/3, which no double equals, so c - value(c)
    # changes sign between the two doubles around 1/3; the solve must
    # return one of them.
    third = Fraction(1, 3)
    below = float(third)
    above = math.nextafter(below, 1.0)
    assert Fraction(below) < third < Fraction(above)
    c, interior = solve_cutoff(lambda t: 0.0 if Fraction(t) > third else 1.0, 0.0, 1.0)
    assert interior
    assert c in (below, above)


def test_solve_cutoff_evaluates_no_point_twice():
    # The clamp tests' endpoint values feed the bisection, so every call of
    # value lands on a new point, and the root is the one bisect_root finds.
    value = lambda c: 0.6 * (1.0 - c) ** 3
    calls = []

    def recorded(c):
        calls.append(c)
        return value(c)

    c, interior = solve_cutoff(recorded, 0.0, 1.0)
    assert interior
    assert calls[:2] == [0.0, 1.0]
    assert len(calls) == len(set(calls))
    assert c == bisect_root(lambda t: t - value(t), 0.0, 1.0)


def test_log_log_slope_recovers_power_law():
    xs = [10.0, 100.0, 1000.0, 10000.0]
    ys = [3.0 * x**-2.0 for x in xs]
    slope, r2 = log_log_slope(xs, ys)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_log_log_slope_needs_three_points():
    with pytest.raises(ValueError):
        log_log_slope([1.0, 2.0], [1.0, 2.0])

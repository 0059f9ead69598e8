import math

import mpmath
import numpy as np
import pytest

import oracles
from searchcontest import InputError
from searchcontest.distributions import PiecewiseLinear, PowerLaw, Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold
from searchcontest.principal import (
    objective,
    optimal_prize,
    optimality_map,
    stakes_for_threshold,
    stakes_window,
    verify_against_grid,
)

U01 = Uniform(0.0, 1.0)

# Cutoff / prize / profit re-derived by zoomed grid argmax over the exact
# double-sum success probability (see notes in tests/oracles.py).
FROZEN_OPTIMA = [
    # (dist, q, n, W, c_opt, prize, profit)
    (U01, 0.5, 10.0, 2.0, 0.19681601057530435, 0.600469239853643, 0.902843617937796),
    (PowerLaw(2.0), 0.8, 5.0, 1.5, 0.42648956470713445, 0.7124039809572908, 0.42881740770477134),
]

NON_MONOTONE = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (0.6, 0.9), (1.0, 1.0)))

# Slopes 1 -> 1.001 at c = 0.5: F/f drops there by 1e-3 relative.
SMALL_RISE = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (0.5999, 0.6), (1.0, 1.0)))

# Density 2 on [0, 1/2], zero above.
FLAT_TOP = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))

# Density 5/3, then a zero-density stretch on [0.3, 0.6], then 5/4.
FLAT_MIDDLE = PiecewiseLinear(((0.0, 0.0), (0.3, 0.5), (0.6, 0.5), (1.0, 1.0)))


def _assert_global_maximum(d, q, n, W, sol):
    """The solve beats nearby cutoffs, a 20001-point grid and every knot,
    to within 1e-12."""
    c = sol.threshold
    assert sol.objective_value == objective(d, q, n, W, c)
    lo, hi = d.support()
    for probe in (c - 1e-3, c + 1e-3):
        if lo <= probe <= hi:
            assert sol.objective_value >= objective(d, q, n, W, probe) - 1e-12
    grid_best = max(objective(d, q, n, W, float(x)) for x in np.linspace(lo, hi, 20001))
    assert sol.objective_value >= grid_best - 1e-12
    for knot, _ in d.knots:
        assert sol.objective_value >= objective(d, q, n, W, knot) - 1e-12
    assert verify_against_grid(d, q, n, W).ok


@pytest.mark.parametrize(
    "q,n,W,c",
    [(0.5, 4, 1.5, 0.3), (0.9, 7, 3.0, 0.8), (1.0, 2, 2.0, 0.5), (0.2, 9, 0.7, 0.95)],
)
def test_objective_matches_profit_accounting(q, n, W, c):
    # objective = W P - n c F - W: designer profit net of the constant W.
    got = objective(U01, q, float(n), W, c)
    want = W * oracles.success_sum(U01.cdf(c), q, n) - n * c * U01.cdf(c) - W
    assert got == pytest.approx(want, abs=1e-12)


def test_objective_validates_inputs():
    with pytest.raises(InputError):
        objective(U01, 0.0, 2.0, 1.0, 0.5)
    with pytest.raises(InputError):
        objective(U01, 0.5, 0.5, 1.0, 0.5)
    with pytest.raises(InputError):
        objective(U01, 0.5, 2.0, -1.0, 0.5)
    with pytest.raises(InputError):
        objective(U01, 0.5, 2.0, 1.0, 1.5)


@pytest.mark.parametrize("d,q,n,W,c_opt,prize,profit", FROZEN_OPTIMA)
def test_optimal_prize_matches_frozen_values(d, q, n, W, c_opt, prize, profit):
    sol = optimal_prize(d, q, n, W)
    assert sol.regime == "interior"
    assert sol.certified
    assert sol.threshold == pytest.approx(c_opt, abs=1e-8)
    assert sol.prize == pytest.approx(prize, abs=1e-7)
    assert sol.objective_value == pytest.approx(profit - W, abs=1e-9)


@pytest.mark.parametrize("d,q,n,W,c_opt,prize,profit", FROZEN_OPTIMA)
def test_optimal_prize_first_order_and_local_optimality(d, q, n, W, c_opt, prize, profit):
    sol = optimal_prize(d, q, n, W)
    c = sol.threshold
    assert optimality_map(d, q, n, W, c) == pytest.approx(c, abs=1e-8)
    eps = 1e-4
    here = objective(d, q, n, W, c)
    assert here >= objective(d, q, n, W, c - eps)
    assert here >= objective(d, q, n, W, c + eps)


@pytest.mark.parametrize("d,q,n,W,c_opt,prize,profit", FROZEN_OPTIMA)
def test_optimal_prize_round_trips_through_equilibrium(d, q, n, W, c_opt, prize, profit):
    # Awarding the reported prize must induce the reported cutoff.
    sol = optimal_prize(d, q, n, W)
    back = solve_threshold(d, ContestConfig(n=n, q=q, V=sol.prize))
    assert back.threshold == pytest.approx(sol.threshold, abs=1e-8)


def test_optimality_map_at_zero_mass():
    assert optimality_map(U01, 0.5, 3.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_stakes_window_uniform():
    lo, hi = stakes_window(U01, 0.5, 2.0)
    assert lo == 0.0
    # (c_hi + 1/f(c_hi)) / (q (1-q)^{n-1}) = 2 / 0.25.
    assert hi == pytest.approx(8.0, abs=1e-12)


def test_stakes_window_edge_regimes():
    # q = 1 with n > 1: every rival find kills the marginal value at the top.
    assert stakes_window(U01, 1.0, 3.0) == (0.0, math.inf)
    # Zero density at the top of the support: no finite ceiling.
    flat_top = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))
    assert stakes_window(flat_top, 0.5, 2.0)[1] == math.inf
    # Underflow guard: (1-q)^{n-1} rounds to zero at huge n.
    assert stakes_window(Uniform(0.25, 1.25), 0.5, 1e5) == (0.5, math.inf)


def test_boundary_regimes_clamp_the_cutoff():
    d = Uniform(0.5, 1.0)
    low = optimal_prize(d, 0.5, 3.0, 0.9)  # W below the floor 0.5/0.5 = 1
    assert low.regime == "lower-boundary"
    assert low.threshold == 0.5

    high = optimal_prize(U01, 0.5, 2.0, 9.0)  # above the ceiling 8
    assert high.regime == "upper-boundary"
    assert high.threshold == 1.0


@pytest.mark.parametrize("d,q,n,W,c_opt,prize,profit", FROZEN_OPTIMA)
def test_stakes_for_threshold_inverts_the_solver(d, q, n, W, c_opt, prize, profit):
    sol = optimal_prize(d, q, n, W)
    assert stakes_for_threshold(d, q, n, sol.threshold) == pytest.approx(W, rel=1e-8)


def test_stakes_for_threshold_at_zero_mass_is_floor():
    assert stakes_for_threshold(U01, 0.5, 3.0, 0.0) == 0.0


@pytest.mark.parametrize("d,q,n,W,c_opt,prize,profit", FROZEN_OPTIMA)
def test_grid_check_confirms_solver(d, q, n, W, c_opt, prize, profit):
    chk = verify_against_grid(d, q, n, W)
    assert chk.ok
    assert chk.difference <= 2.0 * chk.spacing
    assert chk.solver_threshold == pytest.approx(c_opt, abs=1e-8)


def test_non_monotone_ratio_is_maximized_exactly():
    # F/f drops at c = 0.5, so optimality_map(c) - c has no single sign
    # change on the support; each rising piece is solved on its own.
    sol = optimal_prize(NON_MONOTONE, 0.8, 4.0, 2.0)
    assert sol.certified
    assert sol.regime == "interior"
    _assert_global_maximum(NON_MONOTONE, 0.8, 4.0, 2.0, sol)


def test_small_slope_rise_is_certified():
    # A drop in F/f too small for any sample to see still splits the
    # support into two rising pieces, and the maximum is exact.
    sol = optimal_prize(SMALL_RISE, 0.8, 3, 2)
    assert sol.certified
    assert sol.regime == "interior"
    _assert_global_maximum(SMALL_RISE, 0.8, 3, 2, sol)


def test_non_monotone_optimum_sits_on_the_kink():
    # The first piece clamps at its top, c = 0.6, and the second piece's
    # map starts below 0.6, so the maximum is the kink itself.
    sol = optimal_prize(NON_MONOTONE, 0.5, 3.0, 8.0)
    assert sol.certified
    assert sol.regime == "interior"
    assert abs(sol.threshold - 0.6) <= math.ulp(0.6)
    _assert_global_maximum(NON_MONOTONE, 0.5, 3.0, 8.0, sol)


@pytest.mark.parametrize(
    "d,c_want",
    [
        # F = 2c, F/f = c: (1 - c)^2 = 2c.
        (FLAT_TOP, 2.0 - math.sqrt(3.0)),
        # F = 5c/3, F/f = c: (1 - c/1.2)^2 = 2c, below the stretch.
        (FLAT_MIDDLE, (5.28 - math.sqrt(22.1184)) / 2.0),
    ],
)
def test_zero_density_stretch_closed_forms(d, c_want):
    sol = optimal_prize(d, 0.5, 3.0, 2.0)
    assert sol.certified
    assert sol.regime == "interior"
    assert sol.threshold == pytest.approx(c_want, abs=1e-12)
    _assert_global_maximum(d, 0.5, 3.0, 2.0, sol)


def test_zero_mass_floor_is_a_lower_boundary():
    # No mass below 0.3 and W q = 0.25 < 0.3: nobody should search. Any
    # cutoff in [0, 0.3] gives the same objective; the floor is reported.
    d = PiecewiseLinear(((0.0, 0.0), (0.3, 0.0), (1.0, 1.0)))
    sol = optimal_prize(d, 0.5, 3.0, 0.5)
    assert sol.regime == "lower-boundary"
    assert sol.threshold == 0.0
    assert sol.objective_value == objective(d, 0.5, 3.0, 0.5, 0.25) == -0.5
    _assert_global_maximum(d, 0.5, 3.0, 0.5, sol)


def test_huge_field_interior_solve():
    sol = optimal_prize(Uniform(0.25, 1.25), 0.5, 1e5, 2.0)
    assert sol.regime == "interior"
    assert 0.25 < sol.threshold < 0.2501
    assert sol.prize == pytest.approx(0.9241962407465937, rel=1e-3)


@pytest.mark.parametrize("alpha, q, n, W", [(40.0, 0.5, 3, 0.6), (9.34, 0.109, 1, 0.118)])
def test_a_gain_far_below_the_stakes_is_not_rounded_away(alpha, q, n, W):
    # The interior optimum gains about 1e-23 and 1e-21 over the floor, far
    # below W: the objective -W (1 - q F)^n - n c F rounds it to a tie with
    # the floor's -W. The first-order condition on a power law is
    # c (1 + 1/alpha) = W q (1 - q c^alpha)^(n - 1).
    sol = optimal_prize(PowerLaw(alpha), q, n, W)
    with mpmath.workdps(50):
        a, qm, Wm = mpmath.mpf(alpha), mpmath.mpf(q), mpmath.mpf(W)
        root = mpmath.findroot(
            lambda c: c * (1 + 1 / a) - Wm * qm * (1 - qm * c**a) ** (n - 1),
            a * Wm * qm / (a + 1),
        )
        F = root**a
        assert Wm * (1 - (1 - qm * F) ** n) - n * root * F > 0
    assert sol.regime == "interior"
    assert sol.threshold == pytest.approx(float(root), rel=1e-14)

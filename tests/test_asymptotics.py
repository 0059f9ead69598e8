import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from searchcontest import InputError
from searchcontest.distributions import Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold
from searchcontest.asymptotics import (
    estimate_rate,
    limit_expected_searchers,
    limit_optimal_prize,
    limit_success_probability,
    limiting_behavior,
)
from searchcontest.principal import optimal_prize

U01 = Uniform(0.0, 1.0)
UQ = Uniform(0.25, 1.25)

# Nonzero root of c_lo * k = V(1 - e^{-qk}) at (0.25, 0.5, 1.0) and its
# success probability, from the Lambert-W oracle.
KAPPA_REF = float(oracles.limit_searchers_lambertw(0.25, 0.5, 1.0))
P_INF_REF = float(oracles.limit_success_lambertw(0.25, 0.5, 1.0))


@pytest.mark.parametrize(
    "c_lo, q, V", [(0.25, 0.5, 1.0), (0.1, 1.0, 1.0), (0.49, 0.5, 1.0), (1e-3, 0.3, 7.0)]
)
def test_lambertw_oracle_solves_defining_equation(c_lo, q, V):
    kappa = oracles.limit_searchers_lambertw(c_lo, q, V)
    assert kappa > 0
    with mpmath.workdps(oracles.LIMIT_DPS + 20):
        residual = c_lo * kappa - V * -mpmath.expm1(-q * kappa)
        assert abs(residual) <= mpmath.mpf(10) ** (5 - oracles.LIMIT_DPS) * V


def test_limit_expected_searchers_frozen_value():
    kappa = limit_expected_searchers(0.25, 0.5, 1.0)
    assert kappa == pytest.approx(KAPPA_REF, abs=1e-9)
    assert limit_success_probability(0.25, 0.5, 1.0) == pytest.approx(P_INF_REF, abs=1e-9)


@given(
    q=st.floats(min_value=0.05, max_value=1.0),
    V=st.floats(min_value=0.2, max_value=5.0),
    frac=st.floats(min_value=0.01, max_value=0.95),
)
def test_limit_defining_equation(q, V, frac):
    c_lo = frac * q * V  # keeps c_lo < qV
    if c_lo == 0.0:
        return
    kappa = limit_expected_searchers(c_lo, q, V)
    assert c_lo * kappa == pytest.approx(V * (-math.expm1(-q * kappa)), rel=1e-9)
    assert kappa == pytest.approx(float(oracles.limit_searchers_lambertw(c_lo, q, V)), rel=1e-9)


def test_zero_floor_regime():
    assert limit_expected_searchers(0.0, 0.5, 1.0) == math.inf
    assert limit_success_probability(0.0, 0.5, 1.0) == 1.0
    lb = limiting_behavior(0.0, 0.5, 1.0)
    assert lb.regime == "lower-bound-zero"
    assert lb.expected_searchers == math.inf and lb.success_prob == 1.0


def test_positive_floor_regime_bundle():
    lb = limiting_behavior(0.25, 0.5, 1.0)
    assert lb.regime == "lower-bound-positive"
    assert lb.expected_searchers == pytest.approx(KAPPA_REF, abs=1e-9)
    assert lb.success_prob == pytest.approx(P_INF_REF, abs=1e-9)


def test_limit_args_validated():
    with pytest.raises(InputError):
        limit_expected_searchers(-0.1, 0.5, 1.0)
    with pytest.raises(InputError):
        limit_expected_searchers(0.6, 0.5, 1.0)  # c_lo >= qV
    with pytest.raises(InputError):
        limit_expected_searchers(0.25, 0.0, 1.0)
    with pytest.raises(InputError):
        limit_expected_searchers(0.25, 0.5, -1.0)


def test_finite_field_solves_approach_the_limits():
    # The finite-n solver never calls the limit code. For a positive floor
    # n F(c_n) = kappa - g/n + O(1/n^2), so it rises toward kappa from below,
    # n (kappa - n F(c_n)) settles at g (about 66.7 here), and the
    # Richardson extrapolate of two field sizes cancels the 1/n term.
    # The cutoffs are solved to float resolution; a cutoff off by an
    # absolute 1e-12 would move n F(c_n) by up to n * 1e-12 and, from
    # n = 1e7 on, swamp the 1/n gap (n F(c_n) would overshoot kappa by
    # 3e-5 at n = 1e8).
    ns = [1e4, 1e5, 1e6, 1e7, 1e8]
    results = [solve_threshold(UQ, ContestConfig(n=n, q=0.5, V=1.0)) for n in ns]
    mass = [res.expected_searchers for res in results]
    assert all(a < b for a, b in zip(mass, mass[1:]))
    assert mass[-1] < KAPPA_REF
    scaled_gaps = [n * (KAPPA_REF - m) for n, m in zip(ns, mass)]
    assert max(scaled_gaps) <= 1.01 * min(scaled_gaps)
    extrapolate = (ns[2] * mass[2] - ns[1] * mass[1]) / (ns[2] - ns[1])
    assert extrapolate == pytest.approx(KAPPA_REF, abs=1e-6)
    assert results[-1].success_prob == pytest.approx(P_INF_REF, abs=1e-3)


def test_rate_fit_zero_floor_half_power():
    fit = estimate_rate(U01, 0.5, 1.0, [1e2, 1e3, 1e4, 1e5, 1e6], "gap")
    assert fit.quantity == "gap"
    assert fit.slope == pytest.approx(-0.5, abs=0.03)
    assert fit.r_squared >= 0.999


def test_rate_fit_positive_floor_full_power():
    fit = estimate_rate(UQ, 0.5, 1.0, [1e2, 1e3, 1e4, 1e5, 1e6], "gap")
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    assert fit.r_squared >= 0.999


def test_rate_fit_cdf_quantities():
    # F(c_n) ~ kappa/n for a positive floor: slope -1.
    fit = estimate_rate(UQ, 0.5, 1.0, [1e3, 1e4, 1e5, 1e6], "cdf")
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    # c_n F(c_n) -> c_lo * kappa / n as well.
    fit = estimate_rate(UQ, 0.5, 1.0, [1e3, 1e4, 1e5, 1e6], "cdf_product")
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_rate_fit_validation():
    with pytest.raises(InputError):
        estimate_rate(U01, 0.5, 1.0, [10, 100], "gap")
    with pytest.raises(InputError):
        estimate_rate(U01, 0.5, 1.0, [10, 100, 1000], "bogus")
    with pytest.raises(InputError):
        # q V below the floor: no interior equilibrium at any n.
        estimate_rate(Uniform(0.5, 1.0), 0.5, 0.5, [10, 100, 1000], "gap")


def test_limit_optimal_prize_values():
    # s = Wq/c_lo - 1 = 3 at (0.25, 0.5, 2): W log(4)/3.
    assert limit_optimal_prize(0.25, 0.5, 2.0) == pytest.approx(
        2.0 * math.log(4.0) / 3.0, rel=1e-12
    )
    # s = 0 collapses to W.
    assert limit_optimal_prize(0.5, 0.5, 1.0) == 1.0
    # Free entry at the bottom: a vanishing prize still succeeds.
    assert limit_optimal_prize(0.0, 0.5, 2.0) == 0.0


def test_limit_optimal_prize_matches_large_field_solver():
    limit = limit_optimal_prize(0.25, 0.5, 2.0)
    sol = optimal_prize(UQ, 0.5, 1e6, 2.0)
    assert sol.prize == pytest.approx(limit, rel=1e-4)


def test_limit_optimal_prize_validation():
    with pytest.raises(InputError):
        limit_optimal_prize(-0.1, 0.5, 1.0)
    with pytest.raises(InputError):
        limit_optimal_prize(0.6, 0.5, 1.0)  # c_lo > Wq
    with pytest.raises(InputError):
        limit_optimal_prize(0.25, 1.5, 1.0)
    with pytest.raises(InputError):
        limit_optimal_prize(0.25, 0.5, math.inf)

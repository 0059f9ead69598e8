import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from searchcontest import InputError
from searchcontest.distributions import PiecewiseLinear, PowerLaw, Uniform
from searchcontest.equilibrium import (
    ContestConfig,
    check_interiority,
    q_bound_monotone_success,
    qf_cutoff_power,
    solve_threshold,
    success_increasing_in_n,
    success_probability,
    sweep_n,
    win_probability,
)

U01 = Uniform(0.0, 1.0)
P20 = PowerLaw(20.0)

# Cutoffs and success probabilities re-derived by bisection on the exact
# double-sum win probability (tests/oracles.py machinery); solver output
# must agree to 1e-9, the combined tolerance of two independent bisections.
FROZEN_CUTOFFS = [
    # (dist, q, V, n, c_star, p_star)
    (U01, 0.5, 1.0, 10, 0.27876617467348064, 0.7771058014208561),
    (Uniform(0.25, 1.25), 0.5, 1.0, 10, 0.37801334353110017, 0.4839075200478653),
    (P20, 1.0, 1.0, 2, 0.915138785333149, 0.31063915564847155),
    (P20, 1.0, 1.0, 3, 0.8950567937379099, 0.29240427291366355),
    (P20, 1.0, 1.0, 4, 0.8827754718126113, 0.2916858771903092),
    (P20, 1.0, 1.0, 5, 0.8738804453789206, 0.2947558631606329),
    (P20, 1.0, 1.0, 6, 0.8668968552341361, 0.29885961175551085),
    (U01, 1.0, 1.999, 2, 0.999749937484371, 0.9999999374687383),
]


def test_config_validation():
    for bad in (
        dict(n=0.5, q=0.5, V=1.0),
        dict(n=math.inf, q=0.5, V=1.0),
        dict(n=2.0, q=0.0, V=1.0),
        dict(n=2.0, q=1.1, V=1.0),
        dict(n=2.0, q=0.5, V=0.0),
        dict(n=2.0, q=0.5, V=math.nan),
    ):
        with pytest.raises(InputError):
            ContestConfig(**bad)


@pytest.mark.parametrize("d,q,V,n,c_star,p_star", FROZEN_CUTOFFS)
def test_solve_threshold_matches_frozen_values(d, q, V, n, c_star, p_star):
    res = solve_threshold(d, ContestConfig(n=float(n), q=q, V=V))
    assert res.interior
    assert res.threshold == pytest.approx(c_star, abs=1e-9)
    assert res.success_prob == pytest.approx(p_star, abs=1e-9)
    assert res.expected_searchers == pytest.approx(n * d.cdf(c_star), abs=1e-7)
    assert res.residual <= 1e-9


@pytest.mark.parametrize(
    "F,q,n",
    [
        (0.3, 0.5, 1),
        (0.3, 0.5, 7),
        (0.9, 0.2, 10),
        (0.05, 1.0, 4),
        (1.0, 0.8, 6),
        (0.62, 0.33, 9),
    ],
)
def test_win_probability_matches_double_sum(F, q, n):
    d = Uniform(0.0, 1.0)
    got = win_probability(d, ContestConfig(n=float(n), q=q, V=1.0), F)
    assert got == pytest.approx(oracles.win_probability_sum(F, q, n), abs=1e-13)


@pytest.mark.parametrize(
    "F,q,n", [(0.3, 0.5, 7), (0.9, 0.2, 10), (1.0, 0.8, 6), (0.05, 1.0, 4)]
)
def test_success_probability_matches_double_sum(F, q, n):
    d = Uniform(0.0, 1.0)
    got = success_probability(d, ContestConfig(n=float(n), q=q, V=1.0), F)
    assert got == pytest.approx(oracles.success_sum(F, q, n), abs=1e-13)


def test_win_probability_limits():
    cfg = ContestConfig(n=8.0, q=0.7, V=1.0)
    # F = 0: a searcher who finds faces no rivals.
    assert win_probability(U01, cfg, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert success_probability(U01, cfg, 0.0) == 0.0
    # Decreasing in the cutoff.
    vals = [win_probability(U01, cfg, c) for c in (0.1, 0.3, 0.5, 0.8, 1.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_win_probability_rejects_cutoff_outside_support():
    cfg = ContestConfig(n=2.0, q=0.5, V=1.0)
    with pytest.raises(InputError):
        win_probability(U01, cfg, 1.5)
    with pytest.raises(InputError):
        success_probability(U01, cfg, -0.1)


@given(
    q=st.floats(min_value=0.05, max_value=1.0),
    V=st.floats(min_value=0.1, max_value=5.0),
    n=st.floats(min_value=1.0, max_value=500.0),
)
def test_equilibrium_identities(q, V, n):
    cfg = ContestConfig(n=n, q=q, V=V)
    res = solve_threshold(U01, cfg)
    c = res.threshold
    if res.interior:
        # Indifference at the cutoff and the aggregate accounting identity
        # c* n F(c*) = V P*.
        assert abs(c - V * win_probability(U01, cfg, c)) <= 1e-9
        assert abs(c * n * U01.cdf(c) - V * res.success_prob) <= 1e-9
    else:
        assert c in U01.support()


def test_boundary_clamp_low():
    # q V = 0.25 below the support floor: nobody searches.
    d = Uniform(0.5, 1.0)
    res = solve_threshold(d, ContestConfig(n=5.0, q=0.5, V=0.5))
    assert res.threshold == 0.5
    assert not res.interior
    assert res.success_prob == 0.0
    assert res.expected_searchers == 0.0


def test_boundary_clamp_high():
    # V Phi(c_hi) = 2.1/2 >= 1: even the costliest agent searches.
    res = solve_threshold(U01, ContestConfig(n=2.0, q=1.0, V=2.1))
    assert res.threshold == 1.0
    assert not res.interior
    assert res.success_prob == 1.0


def test_check_interiority_passes_and_fails():
    ok = check_interiority(U01, ContestConfig(n=10.0, q=0.5, V=1.0))
    assert ok.ok and ok.lower_ok and ok.upper_ok
    assert ok.lower_margin == pytest.approx(0.5, abs=1e-12)
    assert ok.upper_margin == pytest.approx(0.90009765625, abs=1e-12)

    bad = check_interiority(Uniform(0.25, 1.25), ContestConfig(n=10.0, q=0.5, V=0.4))
    assert not bad.ok
    assert not bad.lower_ok and bad.upper_ok
    assert bad.lower_margin == pytest.approx(-0.05, abs=1e-12)


def test_sweep_n_matches_individual_solves():
    out = sweep_n(P20, 1.0, 1.0, [2, 3, 4])
    assert [n for n, _ in out] == [2.0, 3.0, 4.0]
    for n, res in out:
        solo = solve_threshold(P20, ContestConfig(n=n, q=1.0, V=1.0))
        assert res.threshold == solo.threshold


def test_success_increasing_in_n_flips_along_the_sweep():
    c3 = solve_threshold(P20, ContestConfig(n=3.0, q=1.0, V=1.0)).threshold
    c5 = solve_threshold(P20, ContestConfig(n=5.0, q=1.0, V=1.0)).threshold
    assert success_increasing_in_n(P20, 1.0, c3) is False
    assert success_increasing_in_n(P20, 1.0, c5) is True


def test_success_increasing_in_n_needs_mass_and_density():
    with pytest.raises(InputError):
        success_increasing_in_n(U01, 0.5, 0.0)  # F = 0
    flat = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (0.7, 0.5), (1.0, 1.0)))
    with pytest.raises(InputError):
        success_increasing_in_n(flat, 0.5, 0.6)  # zero density


def test_success_increasing_threshold_behavior_around_q_bound():
    # Below the bound the condition holds at every cutoff; at q = 0.9 it
    # fails for large cutoffs on the uniform.
    for c in (0.1, 0.4, 0.7, 0.95):
        assert success_increasing_in_n(U01, 0.49, c)
    assert not success_increasing_in_n(U01, 0.9, 0.9)


def test_q_bound_monotone_success_known_values():
    assert q_bound_monotone_success(U01) == pytest.approx(0.5, abs=1e-9)
    assert q_bound_monotone_success(PowerLaw(2.0)) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert q_bound_monotone_success(P20) == pytest.approx(1.0 / 21.0, abs=1e-9)
    # alpha < 1: the density is unbounded at c = 0, but c*f(c) = alpha c^alpha
    # is not, so the bound is 1 / (1 + alpha).
    assert q_bound_monotone_success(PowerLaw(0.5)) == pytest.approx(2.0 / 3.0, abs=1e-9)
    # Piecewise-linear: the largest c_{i+1} * slope_i, here 0.6 * 5 = 3.
    kinked = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (0.6, 0.9), (1.0, 1.0)))
    assert q_bound_monotone_success(kinked) == pytest.approx(0.25, abs=1e-9)


def test_qf_cutoff_power_value_and_root_property():
    y = qf_cutoff_power(1.0)
    assert y == pytest.approx(0.7153318629591618, abs=1e-9)
    for alpha in (0.5, 1.0, 2.0, 20.0):
        y = qf_cutoff_power(alpha)
        ratio = alpha / (1.0 + alpha)
        assert (1.0 - y) * math.log1p(-y) + y * ratio == pytest.approx(0.0, abs=1e-10)
    assert qf_cutoff_power(0.5) > qf_cutoff_power(1.0) > qf_cutoff_power(5.0)


@pytest.mark.parametrize("alpha", [1e3, 1e4, 1e6])
def test_qf_cutoff_power_to_float_resolution_at_large_alpha(alpha):
    # The root sits near 2/(1+alpha), where the unscaled equation cancels.
    ref = oracles.qf_cutoff_power_mp(alpha)
    y = qf_cutoff_power(alpha)
    assert abs(float((y - ref) / math.ulp(float(ref)))) <= 3.0


def test_qf_cutoff_power_rejects_bad_alpha():
    with pytest.raises(InputError):
        qf_cutoff_power(0.0)
    with pytest.raises(InputError):
        qf_cutoff_power(math.inf)

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from searchcontest import InputError, multiprize
from searchcontest._numerics import prob_any
from searchcontest.distributions import PiecewiseLinear, PowerLaw, Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold, win_probability
from searchcontest.multiprize import (
    PrizeStructure,
    achievable_interval,
    expected_payout,
    expected_prize_per_searcher,
    optimal_prize_structure,
    principal_value_multi,
    prob_at_least_m_find,
    rank_win_probability,
    solve_threshold_multi,
)
from searchcontest.principal import objective, stakes_for_threshold

U01 = Uniform(0.0, 1.0)
UQ = Uniform(0.25, 1.25)
# Zero-density stretch on [0.4, 0.6].
FLAT_MIDDLE = PiecewiseLinear(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))
V4 = PrizeStructure((0.4, 0.3, 0.2, 0.1))

# U[0,1], q = 1/2, n = 4 with the graded prizes above: fixed point and
# payout re-derived by bisection on the exact rank double sums.
CHAT_REF = 0.19277108433734957
PAYOUT_REF = 0.14864276382639002

DRAWS = [(0.3, 0.5, 4, 2), (0.9, 0.2, 7, 1), (0.5, 1.0, 5, 5), (0.05, 0.8, 10, 3)]


# ----------------------------------------------------------- PrizeStructure


def test_structure_validation():
    with pytest.raises(InputError):
        PrizeStructure(())
    with pytest.raises(InputError):
        PrizeStructure((0.2, 0.5))  # increasing
    with pytest.raises(InputError):
        PrizeStructure((0.5, -0.1))
    with pytest.raises(InputError):
        PrizeStructure((0.0, 0.0))
    with pytest.raises(InputError):
        PrizeStructure.mixed(1.0, 3, 1.5)


def test_structure_helpers():
    wta = PrizeStructure.winner_takes_all(2.0, 4)
    assert wta.values == (2.0, 0.0, 0.0, 0.0)
    assert wta.n == 4 and wta.total == 2.0

    eq = PrizeStructure.equal_split(2.0, 4)
    assert eq.values == (0.5, 0.5, 0.5, 0.5)

    mix = PrizeStructure.mixed(1.0, 2, 0.5)
    assert mix.values == (0.75, 0.25)
    assert mix.total == pytest.approx(1.0, abs=1e-12)
    assert PrizeStructure.mixed(1.0, 2, 0.0).values == (0.5, 0.5)
    assert PrizeStructure.mixed(1.0, 2, 1.0).values == (1.0, 0.0)


# ----------------------------------------------------- rank probabilities


@pytest.mark.parametrize("F,q,n,m", DRAWS)
def test_tail_probability_three_routes_agree(F, q, n, m):
    ratio = prob_at_least_m_find(U01, q, n, m, F)
    direct = oracles.prob_at_least_m_find_direct(U01, q, n, m, F)
    exact = oracles.at_least_m_sum(F, q, n, m)
    assert ratio == pytest.approx(exact, abs=1e-13)
    assert direct == pytest.approx(exact, abs=1e-13)


def test_tail_probability_frozen_point():
    assert prob_at_least_m_find(U01, 0.5, 4, 2, 0.3) == pytest.approx(
        0.10951875, abs=1e-12
    )


def test_tail_monotone_in_rank():
    vals = [prob_at_least_m_find(U01, 0.6, 6, m, 0.7) for m in range(1, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("x", [1e-12, 0.3, 0.999, 1.0 - 1e-9])
def test_tail_probability_at_large_n(n, x):
    # U[0, 1] at q = 1 makes q F the cutoff itself, so x is the find chance.
    for m in (1, n // 2, n):
        got = prob_at_least_m_find(U01, 1.0, n, m, x)
        ref = float(oracles.binomial_tail_mp(n, x, m))
        assert got == pytest.approx(ref, rel=1e-11) or (ref < 1e-300 and got == 0.0)
    wta = PrizeStructure.winner_takes_all(2.0, n)
    assert expected_payout(U01, 1.0, n, wta, x) == pytest.approx(2.0 * prob_any(x, n), rel=1e-12)


@pytest.mark.parametrize("N", [100_000, 1_000_000])
@pytest.mark.parametrize("x", [0.3, 0.5, 1.0 / 3.0, 0.6, 0.123456789])
def test_binomial_pmf_to_float_resolution_at_large_n(N, x):
    # At the mode and 1 and 3 standard deviations either side of it; x near
    # a fraction with a small denominator is where rounding errors line up.
    pmf = multiprize._binomial_pmf(N, x)
    sd = math.sqrt(N * x * (1.0 - x))
    for k in {int(N * x + z * sd) for z in (-3, -1, 0, 1, 3)}:
        ref = oracles.binomial_pmf_mp(N, x, k)
        assert abs(float(pmf[k] / ref) - 1.0) <= 1e-13, k


@pytest.mark.parametrize("N", [1, 2, 7, 200])
@pytest.mark.parametrize("x", [1e-12, 0.05, 0.3, 0.5, 2.0 / 3.0, 0.999, 1.0 - 1e-9])
def test_binomial_pmf_matches_exact_rationals(N, x):
    pmf = multiprize._binomial_pmf(N, x)
    for k in range(N + 1):
        ref = float(oracles._mix(N, k, x))
        if ref > 1e-300:
            assert pmf[k] == pytest.approx(ref, rel=1e-13), k
        else:
            assert pmf[k] <= 1e-290, k


@pytest.mark.parametrize("F,q,n,m", DRAWS)
def test_rank_win_three_routes_agree(F, q, n, m):
    ratio = rank_win_probability(U01, q, n, m, F)
    direct = oracles.rank_win_probability_direct(U01, q, n, m, F)
    exact = oracles.rank_win_sum(F, q, n, m)
    assert ratio == pytest.approx(exact, abs=1e-13)
    assert direct == pytest.approx(exact, abs=1e-13)


def test_top_rank_equals_single_prize_win_probability():
    for F, q, n, _ in DRAWS:
        cfg = ContestConfig(n=float(n), q=q, V=1.0)
        assert rank_win_probability(U01, q, n, 1, F) == pytest.approx(
            win_probability(U01, cfg, F), abs=1e-14
        )


def test_rank_win_at_zero_mass():
    assert rank_win_probability(U01, 0.7, 5, 1, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert rank_win_probability(U01, 0.7, 5, 2, 0.0) == 0.0


@pytest.mark.parametrize("F,q,n", [(0.3, 0.5, 4), (0.9, 0.2, 7), (0.5, 1.0, 5)])
def test_rank_wins_sum_to_find_probability(F, q, n):
    total = sum(rank_win_probability(U01, q, n, m, F) for m in range(1, n + 1))
    assert total == pytest.approx(q, abs=1e-12)


def test_rank_argument_validation():
    with pytest.raises(InputError):
        prob_at_least_m_find(U01, 0.5, 4, 0, 0.3)
    with pytest.raises(InputError):
        prob_at_least_m_find(U01, 0.5, 4, 5, 0.3)
    with pytest.raises(InputError):
        prob_at_least_m_find(U01, 0.5, 4.0, 1, 0.3)  # non-integer n
    with pytest.raises(InputError):
        rank_win_probability(U01, 0.0, 4, 1, 0.3)


# ----------------------------------------------------- aggregate prize map


def test_expected_prize_collapses_the_rank_sum():
    per_rank = sum(
        v * rank_win_probability(U01, 0.5, 4, m + 1, 0.3) for m, v in enumerate(V4.values)
    )
    fast = expected_prize_per_searcher(U01, 0.5, 4, V4, 0.3)
    assert fast == pytest.approx(per_rank, abs=1e-13)
    assert fast == pytest.approx(oracles.expected_prize_sum(0.3, 0.5, 4, V4.values), abs=1e-13)
    assert fast == pytest.approx(0.18875, abs=1e-12)


def test_expected_prize_winner_takes_all_is_single_prize_form():
    wta = PrizeStructure.winner_takes_all(2.0, 5)
    cfg = ContestConfig(n=5.0, q=0.6, V=2.0)
    assert expected_prize_per_searcher(U01, 0.6, 5, wta, 0.4) == pytest.approx(
        2.0 * win_probability(U01, cfg, 0.4), abs=1e-13
    )


def test_expected_payout_matches_exact_sum():
    got = expected_payout(U01, 0.5, 4, V4, CHAT_REF)
    assert got == pytest.approx(PAYOUT_REF, abs=1e-12)
    wta = PrizeStructure.winner_takes_all(2.0, 4)
    cfg = ContestConfig(n=4.0, q=0.5, V=2.0)
    p = solve_threshold(U01, cfg).success_prob
    c = solve_threshold(U01, cfg).threshold
    assert expected_payout(U01, 0.5, 4, wta, c) == pytest.approx(2.0 * p, abs=1e-12)


def test_structure_size_must_match_field():
    with pytest.raises(InputError):
        expected_prize_per_searcher(U01, 0.5, 5, V4, 0.3)
    with pytest.raises(InputError):
        expected_payout(U01, 0.5, 3, V4, 0.3)


# -------------------------------------------------------------- equilibria


def test_solve_threshold_multi_frozen_fixed_point():
    res = solve_threshold_multi(U01, 0.5, 4, V4)
    assert res.interior
    assert res.threshold == pytest.approx(CHAT_REF, abs=1e-9)
    m_at = expected_prize_per_searcher(U01, 0.5, 4, V4, res.threshold)
    assert res.threshold == pytest.approx(m_at, abs=1e-9)
    assert res.residual <= 1e-9


def test_equal_split_cutoff_is_exact():
    res = solve_threshold_multi(U01, 0.5, 4, PrizeStructure.equal_split(1.0, 4))
    # Every finder nets V/n regardless of rivals, so the cutoff is q V / n.
    assert res.threshold == pytest.approx(0.125, abs=1e-9)


def test_winner_takes_all_reduces_to_single_prize_solver():
    wta = PrizeStructure.winner_takes_all(1.0, 4)
    multi = solve_threshold_multi(U01, 0.5, 4, wta)
    single = solve_threshold(U01, ContestConfig(n=4.0, q=0.5, V=1.0))
    assert multi.threshold == pytest.approx(single.threshold, abs=1e-10)
    assert multi.success_prob == pytest.approx(single.success_prob, abs=1e-10)

    kinked = PiecewiseLinear(((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0)))
    multi = solve_threshold_multi(kinked, 1.0, 2, PrizeStructure.winner_takes_all(5.0 / 7.0, 2))
    single = solve_threshold(kinked, ContestConfig(n=2.0, q=1.0, V=5.0 / 7.0))
    assert multi.threshold == pytest.approx(single.threshold, abs=1e-10)


def _piecewise_law(segments):
    widths = np.array([w for w, _ in segments])
    rises = np.cumsum([r for _, r in segments])
    c = np.concatenate(([0.0], np.cumsum(widths)))
    F = np.concatenate(([0.0], rises / rises[-1]))
    return PiecewiseLinear(tuple(zip(c.tolist(), F.tolist())))


LAWS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.1, 2.0)).map(lambda t: Uniform(t[0], t[0] + t[1])),
    st.floats(0.2, 8.0).map(PowerLaw),
    # Some segments rise by zero: flat CDF stretches.
    st.lists(
        st.tuples(st.floats(0.05, 1.0), st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
        min_size=1,
        max_size=5,
    )
    .filter(lambda segs: any(r > 0.0 for _, r in segs))
    .map(_piecewise_law),
)

PRIZES = (
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12)
    .filter(lambda v: sum(v) > 0.0)
    .map(lambda v: PrizeStructure(tuple(sorted(v, reverse=True))))
)


@given(
    d=LAWS,
    structure=PRIZES,
    q=st.floats(0.0, 1.0, exclude_min=True),
)
def test_rank_prize_cutoff_is_the_one_sign_change(d, structure, q):
    n = structure.n

    def gap(c):
        return c - expected_prize_per_searcher(d, q, n, structure, c)

    lo, hi = d.support()
    gaps = [gap(float(c)) for c in np.linspace(lo, hi, 257)]
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))

    res = solve_threshold_multi(d, q, n, structure)
    c = res.threshold
    if gap(lo) >= 0.0:
        assert (c, res.interior) == (lo, False)
    elif gap(hi) <= 0.0:
        assert (c, res.interior) == (hi, False)
    else:
        assert res.interior
        # A sign change between c and one of its neighbouring doubles.
        up, down = math.nextafter(c, hi), math.nextafter(c, lo)
        assert (c < hi and gap(c) <= 0.0 < gap(up)) or (lo < c and gap(down) <= 0.0 < gap(c))


def test_achievable_interval_between_equal_split_and_wta():
    a, b = achievable_interval(U01, 0.5, 4, 1.0)
    assert a == pytest.approx(0.125, abs=1e-9)
    assert b == pytest.approx(
        solve_threshold(U01, ContestConfig(n=4.0, q=0.5, V=1.0)).threshold, abs=1e-10
    )
    assert a < b


def test_lone_agent_interval_is_one_cutoff():
    # At n = 1 the equal split and winner-takes-all are the same structure,
    # so both ends of the interval are one cutoff and the designer's
    # structure is labelled the equal split.
    rng = np.random.default_rng(14)
    for k in range(200):
        d = U01 if k % 2 else PowerLaw(float(rng.uniform(0.3, 4.0)))
        q, V, W = (float(v) for v in rng.uniform((0.05, 0.05, 0.5), (1.0, 3.0, 20.0)))
        a, b = achievable_interval(d, q, 1, V)
        assert a == b, (d, q, V)
        assert optimal_prize_structure(d, q, 1, W, V).regime == "equal-split", (d, q, V, W)


# -------------------------------------------------- designer over structures


def test_designer_value_exact_rationals():
    # U[0,1], q = 1, n = 2, W = 2, purse 1: winner-takes-all nets 8/9,
    # splitting 3/4 vs 1/4 nets 24/25.
    wta = PrizeStructure.winner_takes_all(1.0, 2)
    split = PrizeStructure((0.75, 0.25))
    assert principal_value_multi(U01, 1.0, 2, 2.0, wta) == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert principal_value_multi(U01, 1.0, 2, 2.0, split) == pytest.approx(24.0 / 25.0, abs=1e-9)


def test_designer_value_accounting_identity():
    val = principal_value_multi(U01, 0.5, 4, 2.0, V4)
    res = solve_threshold_multi(U01, 0.5, 4, V4)
    pay = expected_payout(U01, 0.5, 4, V4, res.threshold)
    assert val == pytest.approx(2.0 * res.success_prob - pay, abs=1e-12)


def test_optimal_structure_equal_split_regime():
    sol = optimal_prize_structure(U01, 1.0, 2, 2.0, 1.0)
    assert sol.regime == "equal-split"
    assert sol.mix_weight == 0.0
    assert sol.threshold == pytest.approx(0.5, abs=1e-9)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.value >= 24.0 / 25.0 - 1e-9


def test_optimal_structure_interior_mix_regime():
    sol = optimal_prize_structure(U01, 1.0, 2, 3.0, 1.0)
    assert sol.regime == "interior-mix"
    assert sol.mix_weight == pytest.approx(0.5, abs=1e-9)
    assert sol.threshold == pytest.approx(0.6, abs=1e-9)
    assert sol.top_prize == pytest.approx(0.75, abs=1e-9)
    assert sol.other_prize == pytest.approx(0.25, abs=1e-9)
    assert sol.value == pytest.approx(1.8, abs=1e-9)
    # The reported structure really induces the reported cutoff.
    structure = PrizeStructure.mixed(1.0, 2, sol.mix_weight)
    assert structure.values == (sol.top_prize, sol.other_prize)
    induced = solve_threshold_multi(U01, 1.0, 2, structure)
    assert induced.threshold == pytest.approx(sol.threshold, abs=1e-9)


def test_optimal_structure_on_a_kinked_law():
    # F/f drops at c = 0.5, and the best cutoff in the achievable interval
    # is the kink c = 0.6, which falls between the points of the grid.
    d = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (0.6, 0.9), (1.0, 1.0)))
    sol = optimal_prize_structure(d, 0.5, 3, 8.0, 2.0)
    assert sol.regime == "interior-mix"
    assert abs(sol.threshold - 0.6) <= math.ulp(0.6)
    a, b = achievable_interval(d, 0.5, 3, 2.0)
    best = objective(d, 0.5, 3.0, 8.0, sol.threshold)
    assert sol.value == pytest.approx(8.0 + best, abs=1e-12)
    assert best >= max(objective(d, 0.5, 3.0, 8.0, float(c)) for c in np.linspace(a, b, 20001))
    induced = solve_threshold_multi(d, 0.5, 3, PrizeStructure.mixed(2.0, 3, sol.mix_weight))
    assert induced.threshold == pytest.approx(sol.threshold, abs=1e-9)


def test_optimal_structure_winner_takes_all_regime():
    sol = optimal_prize_structure(U01, 1.0, 2, 10.0, 1.0)
    assert sol.regime == "winner-takes-all"
    assert sol.mix_weight == 1.0
    assert sol.threshold == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert sol.value == pytest.approx(8.0, abs=1e-9)


def test_optimal_structure_stakes_window():
    sol = optimal_prize_structure(U01, 1.0, 2, 3.0, 1.0)
    w_lo, w_hi = sol.stakes_window
    assert w_lo == pytest.approx(2.0, abs=1e-8)
    assert w_hi == pytest.approx(4.0, abs=1e-8)
    assert w_lo < 3.0 < w_hi


def test_optimal_structure_with_ends_in_a_zero_density_stretch():
    # Density 2 on [0, 1/2], zero above: both ends of the achievable
    # interval (1/2, 0.875) carry F > 0 = f, so their stakes are +inf. The
    # equal-split cutoff is exactly q V / n = 1/2.
    d = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))
    sol = optimal_prize_structure(d, 0.5, 3, 2.0, 3.0)
    assert sol.regime == "equal-split"
    assert sol.threshold == 0.5
    assert sol.stakes_window == (math.inf, math.inf)


def test_optimal_structure_beats_every_mix_on_a_grid():
    # Odd draws take a purse at which winner-takes-all clamps at the top of
    # the support and stakes for which the designer wants that cutoff: a
    # cheaper mix then induces it too, and the solver must pay no more.
    rng = np.random.default_rng(7)
    laws = (UQ, PowerLaw(0.5), PowerLaw(3.0), FLAT_MIDDLE)
    for trial in range(12):
        d = laws[trial // 2 % 4]
        hi = d.support()[1]
        n = int(rng.integers(2, 6))
        q = float(rng.uniform(0.2, 0.95))
        v_top = hi / win_probability(d, ContestConfig(n=float(n), q=q, V=1.0), hi)
        if trial % 2:
            V = v_top * float(rng.uniform(1.0, 1.5))
            W = stakes_for_threshold(d, q, float(n), hi) * float(rng.uniform(1.0, 3.0))
        else:
            V = v_top * float(rng.uniform(0.5, 1.5))
            W = hi / q * float(rng.uniform(1.0, 50.0))
        value = optimal_prize_structure(d, q, n, W, V).value
        best_mix = max(
            principal_value_multi(d, q, n, W, PrizeStructure.mixed(V, n, float(lam)))
            for lam in np.linspace(0.0, 1.0, 81)
        )
        assert value >= best_mix - 1e-12 * max(1.0, abs(value)), (trial, n, q, V, W)


def _structure_problems(seed, count, fields=(1.0, 2000.0)):
    """Seeded designer problems (d, q, n, W, V): uniform, power and
    piecewise-linear laws, some with flat stretches; n log-uniform over
    fields (floored, so from 1 to 2000 by default), q = 1
    in about half; purses from well inside the support to past the one at
    which winner-takes-all clamps at its top, and stakes around that top's."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 3 == 0:
            lo = float(rng.uniform(0.0, 1.0))
            d = Uniform(lo, lo + float(rng.uniform(0.1, 2.0)))
        elif k % 3 == 1:
            d = PowerLaw(float(rng.uniform(0.2, 6.0)))
        else:
            rises = rng.uniform(0.05, 1.0, 4) * (rng.random(4) < 0.7)
            rises[rng.integers(4)] += 0.5
            d = _piecewise_law(list(zip(rng.uniform(0.05, 1.0, 4).tolist(), rises.tolist())))
        n = int(np.exp(rng.uniform(np.log(fields[0]), np.log(fields[1]))))
        q = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0))
        hi = d.support()[1]
        v_top = hi / win_probability(d, ContestConfig(n=float(n), q=q, V=1.0), hi)
        V = v_top * float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        W = min(stakes_for_threshold(d, q, float(n), hi), 1e6 * hi / q)
        W *= float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        yield d, q, n, W, V


def test_optimal_structure_matches_its_rank_prize_vector():
    # The closed-form designer against the general rank-prize solver run on
    # the n-prize vector of the reported mix.
    for d, q, n, W, V in _structure_problems(19, 60):
        sol = optimal_prize_structure(d, q, n, W, V)
        structure = PrizeStructure.mixed(V, n, sol.mix_weight)
        assert structure.values[:2] == (sol.top_prize, sol.other_prize)[:n]
        value = principal_value_multi(d, q, n, W, structure)
        assert sol.value == pytest.approx(value, rel=1e-12), (d, q, n, W, V)
        induced = solve_threshold_multi(d, q, n, structure).threshold
        assert sol.threshold == pytest.approx(induced, abs=1e-12), (d, q, n, W, V)


@pytest.mark.parametrize("seed", [1, 2])
def test_no_prize_vector_beats_the_optimal_mix(seed):
    # Seeded nonincreasing prize vectors, a Dirichlet draw times the purse,
    # on uniform, power and piecewise-linear laws with n from 2 to 11: each
    # induces a cutoff inside the achievable interval and pays the designer
    # no more than the optimal winner-takes-all / equal-split mix.
    rng = np.random.default_rng(seed + 100)
    for d, q, n, W, V in _structure_problems(seed, 600, fields=(2.0, 12.0)):
        shares = sorted(rng.dirichlet(np.full(n, float(rng.uniform(0.2, 3.0)))), reverse=True)
        structure = PrizeStructure(tuple(V * float(s) for s in shares))
        V = structure.total
        a, b = achievable_interval(d, q, n, V)
        assert a <= solve_threshold_multi(d, q, n, structure).threshold <= b, (d, q, n, structure)
        best = optimal_prize_structure(d, q, n, W, V).value
        value = principal_value_multi(d, q, n, W, structure)
        assert value <= best + 1e-12 * abs(best), (d, q, n, W, structure)


def test_optimal_structure_builds_no_prize_vector(monkeypatch):
    # Every step of the designer is closed form: no O(n) binomial law.
    def fail(*args):
        raise AssertionError("optimal_prize_structure evaluated an n-sized binomial law")

    monkeypatch.setattr(multiprize, "_binomial_pmf", fail)
    for d, q, n, W, V in _structure_problems(20, 30):
        optimal_prize_structure(d, q, n, W, V)
    assert 0.0 < optimal_prize_structure(U01, 0.5, 10**12, 3.0, 1.0).threshold < 1.0


def test_optimal_structure_validation():
    with pytest.raises(InputError):
        optimal_prize_structure(U01, 1.0, 2, 2.0, -1.0)
    with pytest.raises(InputError):
        principal_value_multi(U01, 1.0, 2, 0.0, PrizeStructure((1.0, 0.0)))
    for W, n in ((0.0, 2), (2.0, 2.5), (2.0, 2.0), (2.0, 0)):
        with pytest.raises(InputError):
            optimal_prize_structure(U01, 1.0, n, W, 1.0)

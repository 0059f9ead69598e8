import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from searchcontest import InputError
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
from searchcontest.principal import objective

U01 = Uniform(0.0, 1.0)
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
    assert sol.certified


def test_optimal_structure_interior_mix_regime():
    sol = optimal_prize_structure(U01, 1.0, 2, 3.0, 1.0)
    assert sol.regime == "interior-mix"
    assert sol.mix_weight == pytest.approx(0.5, abs=1e-9)
    assert sol.threshold == pytest.approx(0.6, abs=1e-9)
    assert sol.structure.values[0] == pytest.approx(0.75, abs=1e-9)
    assert sol.structure.values[1] == pytest.approx(0.25, abs=1e-9)
    assert sol.value == pytest.approx(1.8, abs=1e-9)
    # The reported structure really induces the reported cutoff.
    induced = solve_threshold_multi(U01, 1.0, 2, sol.structure)
    assert induced.threshold == pytest.approx(sol.threshold, abs=1e-9)


def test_optimal_structure_on_a_kinked_law():
    # F/f drops at c = 0.5, and the best cutoff in the achievable interval
    # is the kink c = 0.6, which falls between the points of the grid.
    d = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (0.6, 0.9), (1.0, 1.0)))
    sol = optimal_prize_structure(d, 0.5, 3, 8.0, 2.0)
    assert sol.certified
    assert sol.regime == "interior-mix"
    assert abs(sol.threshold - 0.6) <= math.ulp(0.6)
    a, b = achievable_interval(d, 0.5, 3, 2.0)
    best = objective(d, 0.5, 3.0, 8.0, sol.threshold)
    assert sol.value == pytest.approx(8.0 + best, abs=1e-12)
    assert best >= max(objective(d, 0.5, 3.0, 8.0, float(c)) for c in np.linspace(a, b, 20001))
    induced = solve_threshold_multi(d, 0.5, 3, sol.structure)
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
    # interval (1/2 + 2 ulp, 0.875) carry F > 0 = f, so their stakes are +inf.
    d = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))
    sol = optimal_prize_structure(d, 0.5, 3, 2.0, 3.0)
    assert sol.regime == "equal-split"
    assert sol.threshold == 0.5000000000000002
    assert sol.stakes_window == (math.inf, math.inf)


def test_optimal_structure_validation():
    with pytest.raises(InputError):
        optimal_prize_structure(U01, 1.0, 2, 2.0, -1.0)
    with pytest.raises(InputError):
        principal_value_multi(U01, 1.0, 2, 0.0, PrizeStructure((1.0, 0.0)))

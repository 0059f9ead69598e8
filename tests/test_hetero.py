import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import oracles
from searchcontest import ConvergenceError, InputError, cli
from searchcontest.distributions import PiecewiseLinear, Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold, win_probability
from searchcontest.hetero import (
    HeteroContest,
    agent_win_probabilities,
    best_response_n2,
    best_response_scan_n2,
    solve_principal_hetero,
    solve_principal_thresholds,
    solve_thresholds,
    success_probability,
)
from searchcontest.principal import optimal_prize

U01 = Uniform(0.0, 1.0)
KINKED = PiecewiseLinear(((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0)))
BUMPY = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (0.7, 0.5), (1.0, 1.0)))
# Density 2 on [0, 1/2], zero above.
FLAT_TOP = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)))

# U[0,1], V = 1, abilities (0.9, 0.6, 0.3): Gauss-Seidel fixed point
# re-derived against the exact subset-enumeration win probabilities.
HET_THRESHOLDS = (0.7766922904209723, 0.38179641754654214, 0.1767979332509922)
HET_SUCCESS = 0.7802769276525718

PROB_SETS = [
    (0.3, 0.7, 0.2),
    (0.9, 0.9, 0.9, 0.9),
    (0.05,),
    (1.0, 0.4),
    (0.0, 0.6, 1.0),
]


def tiebreak_share(rival_pi):
    """Win probability of a sure finder against rivals who find w.p. rival_pi.

    On U[0, 1] with q = 1 every agent's find probability is its cutoff, so
    agent 0 of a field of sure finders at cutoffs (1, *rival_pi) has it.
    """
    k = len(rival_pi)
    contest = HeteroContest((1.0,) * (k + 1), 1.0, U01)
    return float(agent_win_probabilities(contest, (1.0, *rival_pi))[0])


def share_by_convolution(pi, i):
    """E[1/(T_i+1)] from the convolution pmf of every agent but i."""
    pmf = oracles.poisson_binomial_pmf(np.delete(pi, i))
    return float(np.dot(pmf, 1.0 / np.arange(1.0, pi.size + 1.0)))


# ------------------------------------------------------------ distributions


@pytest.mark.parametrize("probs", PROB_SETS)
def test_finder_count_pmf_matches_subset_enumeration(probs):
    pmf = oracles.poisson_binomial_pmf(probs)
    exact = oracles.pmf_subsets(probs)
    assert pmf.shape == (len(probs) + 1,)
    np.testing.assert_allclose(pmf, exact, atol=1e-13)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_finder_count_pmf_constant_p_is_binomial():
    pmf = oracles.poisson_binomial_pmf([0.37] * 6)
    ref = stats.binom.pmf(np.arange(7), 6, 0.37)
    np.testing.assert_allclose(pmf, ref, atol=1e-12)


@pytest.mark.parametrize("probs", PROB_SETS)
def test_tiebreak_share_matches_enumeration(probs):
    got = tiebreak_share(probs)
    exact = oracles.psi_subsets(1.0, probs)
    assert got == pytest.approx(exact, abs=1e-13)


def test_tiebreak_share_edge_cases():
    assert tiebreak_share([]) == pytest.approx(1.0, abs=1e-15)
    assert tiebreak_share([1.0, 1.0]) == pytest.approx(1.0 / 3.0, abs=1e-15)


# --------------------------------------------------------- win probability


def test_agent_win_probability_matches_subsets():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    c = np.array([0.7, 0.4, 0.2])
    F = np.array([U01.cdf(x) for x in c])
    find_probs = np.asarray(contest.q_values) * F
    got = agent_win_probabilities(contest, c)
    assert got.shape == (3,)
    for i in range(3):
        rival_pi = np.delete(find_probs, i)
        exact = oracles.psi_subsets(contest.q_values[i], rival_pi)
        assert got[i] == pytest.approx(exact, abs=1e-13)


def test_agent_win_probability_validation():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    with pytest.raises(InputError):
        agent_win_probabilities(contest, np.array([0.4, 0.2]))
    with pytest.raises(InputError):
        agent_win_probabilities(contest, np.array([[0.4, 0.2, 0.1]]))


@pytest.mark.parametrize("n, rel", [(2, 1e-12), (7, 1e-12), (50, 1e-12), (200, 1e-12), (2000, 1e-10)])
def test_quadrature_shares_match_convolution(n, rel):
    # Exact 0s and 1s included; at n = 2000 up to twenty agents are checked,
    # ten of them with find probability 0 or 1.
    rng = np.random.default_rng(n)
    q = rng.uniform(0.05, 1.0, n)
    c = rng.uniform(0.0, 1.0, n)
    c[rng.integers(0, n, max(1, n // 10))] = 0.0
    ones = rng.integers(0, n, max(1, n // 10))
    q[ones], c[ones] = 1.0, 1.0
    order = np.argsort(-q, kind="stable")  # sorted position, as the contest stores it
    q, c = q[order], c[order]
    contest = HeteroContest(tuple(q), 1.0, U01)
    pi = q * c
    got = agent_win_probabilities(contest, c)
    agents = np.arange(n) if n <= 200 else np.unique(np.concatenate(
        [np.flatnonzero((pi == 0.0) | (pi == 1.0))[:10], rng.integers(0, n, 10)]))
    ref = np.array([q[i] * share_by_convolution(pi, i) for i in agents])
    np.testing.assert_allclose(got[agents], ref, rtol=rel, atol=0.0)


@given(
    n=st.integers(min_value=1, max_value=200),
    q=st.floats(min_value=1e-6, max_value=1.0),
    c=st.floats(min_value=0.0, max_value=1.0),
)
def test_equal_agents_share_the_symmetric_win_probability(n, q, c):
    contest = HeteroContest((q,) * n, 1.0, U01)
    got = agent_win_probabilities(contest, np.full(n, c))
    want = win_probability(U01, ContestConfig(n=float(n), q=q, V=1.0), c)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_success_probability_and_decomposition():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    c = np.array([0.7, 0.4, 0.2])
    F = np.array([U01.cdf(x) for x in c])
    q = np.asarray(contest.q_values)
    exact = 1.0 - np.prod(1.0 - q * F)
    got = success_probability(contest, c)
    assert got == pytest.approx(exact, abs=1e-14)
    # Success decomposes into per-agent search rates times win shares.
    total = float(F @ agent_win_probabilities(contest, c))
    assert got == pytest.approx(total, abs=1e-10)


def test_success_probability_shape_validation():
    contest = HeteroContest((0.9, 0.6), 1.0, U01)
    with pytest.raises(InputError):
        success_probability(contest, np.array([0.5]))


# -------------------------------------------------------------- the contest


def test_contest_sorts_and_restores_input_order():
    contest = HeteroContest((0.3, 0.9, 0.6), 1.0, U01)
    assert contest.q_values == (0.9, 0.6, 0.3)
    assert contest.n == 3
    restored = contest.to_input_order(np.array([10.0, 20.0, 30.0]))
    np.testing.assert_allclose(restored, [30.0, 10.0, 20.0])


def test_contest_validation():
    with pytest.raises(InputError):
        HeteroContest((), 1.0, U01)
    with pytest.raises(InputError):
        HeteroContest((0.5, 0.0), 1.0, U01)
    with pytest.raises(InputError):
        HeteroContest((0.5, 1.1), 1.0, U01)
    with pytest.raises(InputError):
        HeteroContest((0.5,), 0.0, U01)


# ------------------------------------------------------- equilibrium solve


def test_solve_thresholds_frozen_point():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    sol = solve_thresholds(contest)
    assert sol.converged
    np.testing.assert_allclose(sol.thresholds, HET_THRESHOLDS, atol=1e-8)
    assert success_probability(contest, sol.thresholds) == pytest.approx(
        HET_SUCCESS, abs=1e-8
    )


def test_solve_thresholds_is_a_fixed_point():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    c = solve_thresholds(contest).thresholds
    indiff = contest.V * agent_win_probabilities(contest, c)
    np.testing.assert_allclose(c, indiff, rtol=0.0, atol=1e-8)
    # Stronger agents search more.
    assert c[0] > c[1] > c[2]


def test_solve_thresholds_large_field_is_a_fixed_point():
    rng = np.random.default_rng(2000)
    contest = HeteroContest(tuple(rng.uniform(0.05, 1.0, 2000)), 1.0, U01)
    sol = solve_thresholds(contest)
    assert sol.converged
    c = sol.thresholds
    psi = agent_win_probabilities(contest, c)
    np.testing.assert_allclose(c, contest.V * psi, rtol=0.0, atol=1e-9)
    # The shares themselves, for a spread of agents, against the convolution.
    q = np.asarray(contest.q_values)
    pi = q * c
    for i in (0, 1, 999, 1998, 1999):
        assert c[i] == pytest.approx(q[i] * share_by_convolution(pi, i), abs=1e-9)


def test_solve_thresholds_symmetric_matches_baseline():
    contest = HeteroContest((0.5, 0.5, 0.5), 1.0, U01)
    sol = solve_thresholds(contest)
    base = solve_threshold(U01, ContestConfig(n=3.0, q=0.5, V=1.0))
    np.testing.assert_allclose(sol.thresholds, base.threshold, atol=1e-8)


# ---------------------------------------------------------- designer solve


def test_principal_thresholds_satisfy_first_order_conditions():
    contest = HeteroContest((0.8, 0.5), 1.0, U01)
    sol = solve_principal_thresholds(contest, W=2.0)
    assert sol.converged
    c = sol.thresholds
    q = np.asarray(contest.q_values)
    F = np.array([U01.cdf(x) for x in c])
    for i in range(2):
        rivals = np.delete(np.arange(2), i)
        target = 2.0 * q[i] * np.prod(1.0 - q[rivals] * F[rivals])
        lhs = c[i] + U01.reverse_hazard(c[i])
        assert lhs == pytest.approx(target, abs=1e-8)


def test_principal_thresholds_validation():
    contest = HeteroContest((0.8, 0.5), 1.0, U01)
    with pytest.raises(InputError):
        solve_principal_thresholds(contest, W=0.0)


@pytest.mark.parametrize("d", [KINKED, BUMPY], ids=["kinked", "bumpy"])
@pytest.mark.parametrize(
    "q_values,W",
    [((0.8, 0.5), 2.0), ((0.5, 0.5), 2.0), ((0.9, 0.6, 0.3), 3.0), ((0.5,) * 5, 2.0),
     ((1.0, 0.7), 1.0)],
)
def test_principal_thresholds_on_kinked_and_bumpy_laws(d, q_values, W):
    # F/f drops on both laws; each cutoff must still be its agent's best
    # step (K_i - c) F(c) against a dense grid.
    contest = HeteroContest(q_values, 1.0, d)
    sol = solve_principal_thresholds(contest, W)
    assert sol.converged
    lo, hi = d.support()
    grid = np.linspace(lo, hi, 20001)
    F_grid = np.array([d.cdf(x) for x in grid])
    q = np.asarray(contest.q_values)
    F = np.array([d.cdf(x) for x in sol.thresholds])
    for i, c_i in enumerate(sol.thresholds):
        K = W * q[i] * np.prod(np.delete(1.0 - q * F, i))
        assert (K - c_i) * F[i] >= np.max((K - grid) * F_grid) - 1e-12


def test_principal_hetero_on_a_kinked_law_matches_the_single_prize(capsys):
    base = optimal_prize(KINKED, 0.5, 2, 1.0)
    assert base.prize == pytest.approx(0.4724409448817, abs=1e-10)
    knots = json.dumps(KINKED.to_spec())
    argv = ["hetero", "--dist", knots, "--qvec", "[0.5,0.5]", "--V", "1", "--W", "1"]
    assert cli.main(argv) == 0
    prize = json.loads(capsys.readouterr().out)["results"]["principal"]["prize"]
    assert prize == pytest.approx(base.prize, abs=1e-10)


def test_principal_hetero_on_a_kinked_law_wants_unequal_cutoffs():
    # Equal agents, but the designer's best cutoffs differ, so no single
    # prize implements them; they beat the best symmetric pair.
    contest = HeteroContest((0.5, 0.5), 1.0, KINKED)
    with pytest.raises(ConvergenceError):
        solve_principal_hetero(contest, W=2.0)
    c = solve_principal_thresholds(contest, W=2.0).thresholds
    F = np.array([KINKED.cdf(x) for x in c])
    first_best = 2.0 * success_probability(contest, c) - np.dot(c, F)
    grid = np.linspace(0.0, 1.0, 20001)
    F_grid = np.array([KINKED.cdf(x) for x in grid])
    symmetric = np.max(2.0 * (1.0 - (1.0 - 0.5 * F_grid) ** 2) - 2.0 * grid * F_grid)
    assert first_best > symmetric + 1e-3


def test_principal_thresholds_on_a_zero_density_stretch():
    # The symmetric single-prize answer: F/f = c below 1/2, so c = 2 - sqrt(3).
    contest = HeteroContest((0.5,) * 3, 1.0, FLAT_TOP)
    sol = solve_principal_thresholds(contest, W=2.0)
    assert sol.converged
    np.testing.assert_allclose(sol.thresholds, 2.0 - math.sqrt(3.0), rtol=0.0, atol=1e-8)
    knots = '{"kind":"piecewise_linear","knots":[[0,0],[0.5,1],[1,1]]}'
    argv = ["hetero", "--dist", knots, "--qvec", "[0.5,0.5,0.5]", "--V", "1", "--W", "2"]
    assert cli.main(argv) == 0


def test_principal_thresholds_with_no_designer_value_left():
    # Two sure finders: once one searches at every cost, the other's
    # stakes K = W q prod(1 - q F) vanish and its cutoff is the floor.
    contest = HeteroContest((1.0, 1.0), 1.0, U01)
    sol = solve_principal_thresholds(contest, W=50.0)
    assert sol.converged
    assert tuple(sol.thresholds) == (1.0, 0.0)


def test_principal_hetero_symmetric_recovers_single_prize_solution():
    contest = HeteroContest((0.5,) * 10, 1.0, U01)
    sol = solve_principal_hetero(contest, W=2.0)
    base = optimal_prize(U01, 0.5, 10, 2.0)
    assert sol.spread <= 1e-8
    assert sol.prize == pytest.approx(base.prize, abs=1e-7)
    assert sol.prize == pytest.approx(0.600469239853643, abs=1e-7)
    np.testing.assert_allclose(sol.thresholds, 0.19681601057530435, atol=1e-7)
    np.testing.assert_allclose(sol.implied_prizes, sol.prize, atol=1e-8)


def test_principal_hetero_rejects_strong_heterogeneity():
    contest = HeteroContest((0.9, 0.2), 1.0, U01)
    with pytest.raises(ConvergenceError):
        solve_principal_hetero(contest, W=2.0)


# --------------------------------------------------- two-player responses


def test_best_response_formula_and_dual_route():
    br = best_response_n2(U01, 0.5, 1.0, 0.6)
    assert br == pytest.approx(0.5 * (1.0 - 0.25 * 0.6), abs=1e-14)
    # Same number from the tie-break expectation against one rival.
    contest = HeteroContest((0.5, 0.5), 1.0, U01)
    assert br == pytest.approx(
        agent_win_probabilities(contest, np.array([0.6, 0.6]))[0], abs=1e-13
    )


def test_best_response_clamps_to_support():
    narrow = Uniform(0.5, 1.0)
    assert best_response_n2(narrow, 0.5, 0.5, 0.9) == 0.5
    assert best_response_n2(U01, 1.0, 3.0, 0.2) == 1.0


def test_best_response_validation():
    with pytest.raises(InputError):
        best_response_n2(U01, 0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        best_response_n2(U01, 0.5, -1.0, 0.5)


def test_scan_regular_case_has_unique_symmetric_pair():
    res = best_response_scan_n2(U01, 0.5, 1.0)
    assert res.has_symmetric
    assert res.pairs.shape[0] >= 1
    np.testing.assert_allclose(res.pairs, 4.0 / 9.0, atol=1e-8)
    assert len(res.segments) == 1
    a, b = res.segments[0]
    assert b - a <= 2.0 * res.grid_step


def test_scan_kinked_case_finds_equilibrium_continuum():
    res = best_response_scan_n2(KINKED, 1.0, 5.0 / 7.0, grid=10001)
    assert res.grid_step == pytest.approx(1e-4, abs=1e-12)
    assert res.pairs.shape[0] > 100
    c1 = res.pairs[:, 0]
    c2 = res.pairs[:, 1]
    # The fixed set is the middle stretch, traversed as c2 = 1 - c1.
    assert c1.min() == pytest.approx(3.0 / 7.0, abs=2e-4)
    assert c1.max() == pytest.approx(4.0 / 7.0, abs=2e-4)
    np.testing.assert_allclose(c2, 1.0 - c1, atol=1e-9)
    assert res.has_symmetric
    assert len(res.segments) == 1


def test_scan_validation():
    with pytest.raises(InputError):
        best_response_scan_n2(U01, 0.5, 1.0, grid=1)

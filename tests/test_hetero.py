import json
import math
import pickle
import warnings
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import oracles
from searchcontest import ConvergenceError, InputError, cli
from searchcontest.distributions import PiecewiseLinear, PowerLaw, Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold, win_probability
from searchcontest import hetero
from searchcontest.hetero import (
    SCAN_TOL,
    SWEEP_TOL,
    HeteroContest,
    ThresholdVector,
    agent_win_probabilities,
    best_response_n2,
    best_response_scan_n2,
    share_jacobian,
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


def dense_jacobian(contest, c):
    """d psi_i / d c_j as an n x n matrix, from share_jacobian's factors."""
    P, g, R = share_jacobian(contest, c)
    jac = (P * g) @ R.T
    np.fill_diagonal(jac, 0.0)
    return jac


def seeded_crowds(count, seed):
    """Crowds of 2..60 agents on U[0, 1], U[0.2, 1.3] or a power law with
    alpha in [0.5, 6], with V in [0.3, 3] and about one sure finder in ten."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 61))
        d = (U01, Uniform(0.2, 1.3), PowerLaw(float(rng.uniform(0.5, 6.0))))[rng.integers(3)]
        q = rng.uniform(0.05, 1.0, n)
        q[rng.random(n) < 0.1] = 1.0
        yield HeteroContest(tuple(q), float(rng.uniform(0.3, 3.0)), d)


def seeded_designer_crowds(count, seed):
    """(contest, W) pairs: crowds of 2..60 agents on U[0, 1], U[0.2, 1.3], a
    power law with alpha in [0.5, 6], KINKED or BUMPY, with V in [0.3, 3],
    W in [0.5, 5] and about one sure finder in ten."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 61))
        d = (U01, Uniform(0.2, 1.3), PowerLaw(float(rng.uniform(0.5, 6.0))), KINKED,
             BUMPY)[rng.integers(5)]
        q = rng.uniform(0.05, 1.0, n)
        q[rng.random(n) < 0.1] = 1.0
        yield HeteroContest(tuple(q), float(rng.uniform(0.3, 3.0)), d), float(rng.uniform(0.5, 5.0))


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
    contest = HeteroContest(tuple(q), 1.0, U01)
    pi = q * c
    got = agent_win_probabilities(contest, c)
    agents = np.arange(n) if n <= 200 else np.unique(np.concatenate(
        [np.flatnonzero((pi == 0.0) | (pi == 1.0))[:10], rng.integers(0, n, 10)]))
    ref = np.array([q[i] * share_by_convolution(pi, i) for i in agents])
    np.testing.assert_allclose(got[agents], ref, rtol=rel, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200, 2000, 10_000])
def test_node_count_is_the_fewest_nodes_within_the_bound(n):
    exact = n // 2 + 1
    totals = np.geomspace(1e-300, n, 150).tolist() + [5e-324, float(n)]
    counts = [hetero._node_count(n, S) for S in sorted(totals)]
    assert all(1 <= k <= exact for k in counts)
    assert counts == sorted(counts)  # never fewer nodes for a larger sum of q
    for S, k in zip(sorted(totals), counts):
        if k < exact:
            assert hetero._share_error_bound(k, S) <= hetero.QUADRATURE_TOL
        if k > 1:
            assert hetero._share_error_bound(k - 1, S) > hetero.QUADRATURE_TOL


def test_node_count_of_a_tiny_crowd_and_of_sure_finders_at_the_top():
    # sum q = 5e-300: uncapped, s = asinh(4k / S) is near 690 and e^(2s) overflows.
    tiny = HeteroContest((1e-300,) * 5, 1.0, U01)
    assert hetero._quadrature(tiny)[0].size == 1
    np.testing.assert_allclose(agent_win_probabilities(tiny, np.ones(5)), 1e-300, rtol=1e-15)
    sol = solve_thresholds(tiny)
    assert sol.converged
    np.testing.assert_allclose(sol.thresholds, 1e-300, rtol=1e-15)
    # n sure finders at the top: psi = 1/n, from t^(n - 1) at fewer nodes
    # than take it exactly once n is large; the tolerances are those of the
    # convolution test, set by the rounding of n log factors.
    for n, k, rel in ((5, 3, 1e-12), (50, 25, 1e-12), (2000, 149, 1e-10)):
        contest = HeteroContest((1.0,) * n, 1.0, U01)
        assert hetero._quadrature(contest)[0].size == k
        np.testing.assert_allclose(agent_win_probabilities(contest, np.ones(n)), 1.0 / n,
                                   rtol=rel, atol=0.0)


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


# ------------------------------------------------------ share Jacobian


@pytest.mark.parametrize("n", [3, 10, 50])
@pytest.mark.parametrize("d", [U01, PowerLaw(3.0), KINKED], ids=["uniform", "power3", "kinked"])
def test_share_jacobian_matches_central_differences(n, d):
    rng = np.random.default_rng(n)
    q = rng.uniform(0.1, 1.0, n)
    c = rng.uniform(0.05, 0.95, n)
    # Off the kinked law's knots, so that each difference stays on one piece.
    c[np.min(np.abs(c[:, None] - np.array([3.0, 4.0]) / 7.0), axis=1) < 1e-3] += 2e-3
    contest = HeteroContest(tuple(q), 1.0, d)
    h = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        up, down = c.copy(), c.copy()
        up[j] += h
        down[j] -= h
        fd[:, j] = (agent_win_probabilities(contest, up)
                    - agent_win_probabilities(contest, down)) / (2.0 * h)
    P, g, R = share_jacobian(contest, c)
    k = hetero._node_count(n, math.fsum(q))
    assert P.shape == R.shape == (n, k) and g.shape == (k,)
    np.testing.assert_allclose(dense_jacobian(contest, c), fd, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("q, c", [
    ((0.3, 0.85), (0.4, 0.7)),
    ((1.0, 0.5), (0.9, 0.1)),
    ((0.9, 0.6, 0.3), (0.7, 0.4, 0.2)),
    ((0.2, 1.0, 0.7, 0.55, 0.4), (0.3, 0.95, 0.6, 0.5, 0.05)),
])
def test_share_jacobian_matches_exact_rationals(q, c):
    # On U[0, 1], f = 1 and psi_i is affine in each rival's cutoff.
    contest = HeteroContest(q, 1.0, U01)
    pi = [qi * ci for qi, ci in zip(q, c)]
    exact = oracles.share_jacobian_subsets(q, pi, [1.0] * len(q))
    if len(q) == 2:  # psi_i = q_i (1 - q_j c_j / 2)
        assert exact[0][1] == exact[1][0] == -Fraction(q[0]) * Fraction(q[1]) / 2
    want = np.array([[float(v) for v in row] for row in exact])
    np.testing.assert_allclose(dense_jacobian(contest, np.array(c)), want,
                               rtol=1e-13, atol=1e-16)


def test_share_jacobian_at_a_zero_cutoff_on_a_diverging_density():
    # PowerLaw(1/2) has f(0) = inf: agent 0's column is -inf, agent 1's finite.
    contest = HeteroContest((0.5, 0.5), 1.0, PowerLaw(0.5))
    P, g, R = share_jacobian(contest, np.array([0.0, 0.3]))
    assert np.all(np.isfinite(P)) and np.all(np.isfinite(g)) and np.all(np.isfinite(R[1]))
    assert np.all(R[0] == math.inf)
    # psi_0 = q_0 (1 - q_1 F(c_1) / 2), so d psi_0 / d c_1 = -q_0 q_1 f(c_1) / 2.
    assert float((P[0] * g) @ R[1]) == pytest.approx(-0.25 * 0.5 * 0.3**-0.5 / 2, rel=1e-13)
    assert float((P[1] * g) @ R[0]) == -math.inf


# -------------------------------------------------------------- the contest


def test_contest_keeps_input_order():
    contest = HeteroContest((0.3, 0.9, 0.6), 1.0, U01)
    assert contest.q_values == (0.3, 0.9, 0.6)
    assert contest.n == 3
    # thresholds[i] is the cutoff of the agent with q_values[i].
    sol = solve_thresholds(contest)
    assert sol.converged
    np.testing.assert_allclose(sol.thresholds, np.array(HET_THRESHOLDS)[[2, 0, 1]], atol=1e-8)


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


def test_solve_thresholds_on_a_busy_power_law_crowd_match_convolution():
    # On PowerLaw(0.3) this crowd expects more than 150 finders, so the
    # rule has far fewer nodes than the 1001 that take each share exactly.
    rng = np.random.default_rng(2003)
    q = rng.uniform(0.05, 1.0, 2000)
    contest = HeteroContest(tuple(q), 1.0, PowerLaw(0.3))
    assert hetero._quadrature(contest)[0].size < 200
    sol = solve_thresholds(contest)
    assert sol.converged
    pi = hetero._find_probabilities(contest, sol.thresholds)
    assert pi.sum() > 150.0
    for i in rng.choice(2000, 12, replace=False):
        want = min(max(contest.V * q[i] * share_by_convolution(pi, i), 0.0), 1.0)
        assert abs(sol.thresholds[i] - want) <= 1e-10


@pytest.mark.parametrize("d", [U01, PowerLaw(3.0), PowerLaw(0.3)],
                         ids=["uniform", "power3", "power0.3"])
def test_sized_rule_keeps_the_exact_rules_thresholds(monkeypatch, d):
    crowds = [HeteroContest(tuple(np.random.default_rng(n).uniform(0.05, 1.0, n)), 1.0, d)
              for n in (10, 200, 2000)]
    sized = [solve_thresholds(contest) for contest in crowds]
    counts = [hetero._quadrature(contest)[0].size for contest in crowds]
    assert counts[0] == 6 and counts[2] < 1001
    monkeypatch.setattr(hetero, "_node_count", lambda n, total_q: n // 2 + 1)
    for contest, new, k in zip(crowds, sized, counts):
        old = solve_thresholds(contest)
        assert new.converged and old.converged
        if k == contest.n // 2 + 1:  # the exact rule itself
            np.testing.assert_array_equal(new.thresholds, old.thresholds)
        else:
            np.testing.assert_allclose(new.thresholds, old.thresholds, rtol=0.0, atol=1e-12)


def test_solve_thresholds_polishes_a_ten_thousand_agent_crowd():
    # The exact rule would need 5001 nodes here; the polish has no size gate.
    rng = np.random.default_rng(1)
    q = rng.permutation(0.2 + 0.7 * (np.arange(10_000) + rng.random(10_000)) / 10_000)
    contest = HeteroContest(tuple(q), 1.0, U01)
    sol = solve_thresholds(contest)
    assert sol.converged and sol.newton_steps > 0
    psi = agent_win_probabilities(contest, sol.thresholds)
    assert np.max(np.abs(sol.thresholds - np.clip(contest.V * psi, 0.0, 1.0))) < SWEEP_TOL


def test_solve_thresholds_symmetric_matches_baseline():
    contest = HeteroContest((0.5, 0.5, 0.5), 1.0, U01)
    sol = solve_thresholds(contest)
    base = solve_threshold(U01, ContestConfig(n=3.0, q=0.5, V=1.0))
    np.testing.assert_allclose(sol.thresholds, base.threshold, atol=1e-8)


def test_solve_thresholds_stop_bounds_the_error_not_the_step():
    # Sweeps contract slowly here (about 0.92 a sweep), so a small step is
    # not a small error: only a stop that bounds the sweeps still to come
    # makes the two sweep orders agree to well below SWEEP_TOL.
    q = (0.952, 0.952, 0.115, 1.0, 0.726)
    forward = solve_thresholds(HeteroContest(q, 2.68, PowerLaw(3.0)))
    backward = solve_thresholds(HeteroContest(q[::-1], 2.68, PowerLaw(3.0)))
    assert forward.converged and backward.converged
    np.testing.assert_allclose(forward.thresholds, backward.thresholds[::-1], rtol=0.0, atol=3e-11)


def test_solve_thresholds_matches_gauss_seidel_on_seeded_crowds():
    polished = 0
    for contest in seeded_crowds(300, 21):
        sol = solve_thresholds(contest)
        c, converged, sweeps = oracles.gauss_seidel_thresholds(contest)
        assert sol.converged == converged
        np.testing.assert_allclose(sol.thresholds, c, rtol=0.0, atol=1e-9)
        assert sol.sweeps <= sweeps
        polished += sol.newton_steps > 0
    assert polished >= 250


def test_solve_thresholds_keeps_the_gauss_seidel_equilibrium():
    # Two equilibria: the sweeps reach (0.784399, 1) with P = 0.796; Newton
    # from one sweep in would reach (0.9624, 0.9553) with P = 0.768.
    contest = HeteroContest((0.77, 0.78), 1.67, PowerLaw(9.6))
    sol = solve_thresholds(contest)
    assert sol.converged
    np.testing.assert_allclose(sol.thresholds, (0.784399, 1.0), rtol=0.0, atol=5e-7)
    np.testing.assert_allclose(sol.thresholds, oracles.gauss_seidel_thresholds(contest)[0],
                               rtol=0.0, atol=1e-9)
    assert success_probability(contest, sol.thresholds) == pytest.approx(0.796, abs=5e-4)


def test_solve_thresholds_polishes_the_slowly_contracting_crowd():
    # Sweeps contract by about 0.92 here and take 185 (235 in reverse order).
    q = (0.952, 0.952, 0.115, 1.0, 0.726)
    for order in (q, q[::-1]):
        contest = HeteroContest(order, 2.68, PowerLaw(3.0))
        sol = solve_thresholds(contest)
        c, converged, sweeps = oracles.gauss_seidel_thresholds(contest)
        assert sol.converged and converged
        assert sol.newton_steps > 0 and sol.sweeps < sweeps
        np.testing.assert_allclose(sol.thresholds, c, rtol=0.0, atol=1e-9)
        psi = contest.V * agent_win_probabilities(contest, sol.thresholds)
        assert np.max(np.abs(sol.thresholds - np.clip(psi, 0.0, 1.0))) < SWEEP_TOL


def test_newton_steps_are_zero_when_the_sweeps_finish_alone(monkeypatch):
    sol = solve_thresholds(HeteroContest((0.6,), 1.0, U01))
    assert sol.converged and sol.newton_steps == 0
    contest = HeteroContest((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05), 1.0, U01)
    polished = solve_thresholds(contest)
    assert polished.newton_steps > 0
    # A refused polish: no step kept, and the sweeps finish alone.
    monkeypatch.setattr(hetero, "_equilibrium_newton", lambda *args: (0, False))
    alone = solve_thresholds(contest)
    c, converged, sweeps = oracles.gauss_seidel_thresholds(contest)
    assert alone.newton_steps == 0 and alone.sweeps == sweeps
    np.testing.assert_array_equal(alone.thresholds, c)


def test_quadrature_rule_is_built_once_per_node_count(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda k: calls.append(k) or leggauss(k))
    hetero._gauss_legendre.cache_clear()
    contest = HeteroContest((0.9, 0.6, 0.3, 0.5, 0.2, 0.7, 0.4), 1.0, U01)
    first, second = solve_thresholds(contest), solve_thresholds(contest)
    assert calls == [4]
    np.testing.assert_array_equal(first.thresholds, second.thresholds)
    for a in hetero._quadrature(contest):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5


def spy_chord_newton(monkeypatch):
    """Record each _chord_newton call: its c, start and factors, and the
    (argument, result) of every image call it makes after start; the first
    of these receives the first trial step."""
    calls = []
    chord_newton = hetero._chord_newton

    def spy(c, start, image, *factors):
        images = []
        calls.append(dict(c=c.copy(), start=start, factors=factors, images=images))

        def traced(trial):
            out = image(trial)
            images.append((trial.copy(), out))
            return out

        return chord_newton(c, start, traced, *factors)

    monkeypatch.setattr(hetero, "_chord_newton", spy)
    return calls


@pytest.mark.parametrize("system", ["equilibrium", "designer"])
def test_chord_step_that_moves_an_image_to_the_clamp_is_refused(monkeypatch, system):
    # From these hand-built starts every agent is interior, and the first
    # chord step stays in the support and halves max |r|, but puts agent
    # 2's image at the top of the support: the step must be refused.
    calls = spy_chord_newton(monkeypatch)
    if system == "equilibrium":
        contest = HeteroContest((0.44, 0.31, 0.86), 1.31, U01)
        c = np.array([0.66, 0.97, 0.59])
        t, w = hetero._quadrature(contest)
        rows = hetero._log_factors(hetero._find_probabilities(contest, c), t)
        steps, done = hetero._equilibrium_newton(contest, c, rows, t, w)
    else:  # secant slope 1/2, exact on U[0, 1]
        c = np.array([0.49, 0.76, 0.71])
        steps, done, _ = hetero._designer_newton(U01, np.array([0.39, 0.82, 0.99]), 2.42, c,
                                                 np.ones(3), np.full(3, 0.5))
    (call,) = calls
    img, side, _ = call["start"]
    (trial, (trial_img, trial_side, _)), = call["images"]
    assert np.all((0.0 <= trial) & (trial <= 1.0))
    assert np.max(np.abs(trial - trial_img)) <= 0.5 * np.max(np.abs(call["c"] - img))
    assert np.all(img < 1.0) and trial_img[2] == 1.0
    assert list(trial_side == side) == [True, True, False]
    assert (steps, done) == (0, False)
    np.testing.assert_array_equal(c, call["c"])


@pytest.mark.parametrize("system,rank", [("equilibrium", 3), ("designer", 1)])
def test_chord_newton_step_is_the_dense_newton_step(monkeypatch, system, rank):
    # The Woodbury step must be c - J^-1 (c - img) for the dense
    # J = diag(D) + U diag(g) R^T built from the same factors.
    calls = spy_chord_newton(monkeypatch)
    contest = HeteroContest((0.9, 0.7, 0.5, 0.3, 0.2), 1.0, U01)
    if system == "equilibrium":
        sol = solve_thresholds(contest)
    else:
        sol = solve_principal_thresholds(contest, W=2.0)
        assert len(calls) == 2  # the equilibrium's polish, then the designer's
    assert sol.converged and sol.newton_steps > 0
    call = calls[-1]
    D, U, g, R, _, _ = call["factors"]
    assert U.shape == R.shape == (contest.n, rank) and g.shape == (rank,)
    J = np.diag(D) + U @ np.diag(g) @ R.T
    c, img = call["c"], call["start"][0]
    trial = call["images"][0][0]
    np.testing.assert_allclose(trial, c - np.linalg.solve(J, c - img), rtol=0.0, atol=1e-12)


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


def test_principal_thresholds_are_unchanged_by_the_polish(monkeypatch):
    crowds = list(seeded_crowds(50, 22))
    new = [solve_principal_thresholds(contest, W=2.0) for contest in crowds]
    monkeypatch.setattr(hetero, "solve_thresholds",
                        lambda contest: ThresholdVector(*oracles.gauss_seidel_thresholds(contest)))
    for contest, sol in zip(crowds, new):
        old = solve_principal_thresholds(contest, W=2.0)
        assert sol.converged == old.converged
        np.testing.assert_allclose(sol.thresholds, old.thresholds, rtol=0.0, atol=1e-12)


def test_principal_thresholds_match_gauss_seidel_on_seeded_crowds():
    polished = 0
    for contest, W in seeded_designer_crowds(300, 23):
        sol = solve_principal_thresholds(contest, W)
        c, converged, sweeps = oracles.gauss_seidel_principal(contest, W)
        assert sol.converged == converged
        np.testing.assert_allclose(sol.thresholds, c, rtol=0.0, atol=1e-9)
        assert sol.sweeps <= sweeps
        polished += sol.newton_steps > 0
    assert polished >= 250


@pytest.mark.parametrize(
    "q,d,V,W",
    [((0.95, 1.0), FLAT_TOP, 1.0, 2.39), ((0.089, 0.194, 0.891, 0.062, 0.946), U01, 2.5, 2.64)],
    ids=["flat-top", "uniform"],
)
def test_principal_thresholds_keep_the_sweeps_fixed_point(q, d, V, W):
    # Several coordinate-wise fixed points: the sweeps in input order and
    # in falling-q order reach different ones, and the polish keeps each.
    found = []
    for order in (np.arange(len(q)), np.argsort(q)[::-1]):
        contest = HeteroContest(tuple(np.asarray(q)[order]), V, d)
        sol = solve_principal_thresholds(contest, W)
        c, converged, _ = oracles.gauss_seidel_principal(contest, W)
        assert sol.converged and converged
        np.testing.assert_allclose(sol.thresholds, c, rtol=0.0, atol=1e-9)
        found.append(sol.thresholds[np.argsort(order)])
    assert np.max(np.abs(found[0] - found[1])) > 0.1


def test_principal_polish_residual_is_below_the_sweep_tolerance():
    rng = np.random.default_rng(7)
    q = rng.permutation(0.2 + 0.7 * (np.arange(50) + rng.random(50)) / 50)
    contest = HeteroContest(tuple(q), 1.0, U01)
    sol = solve_principal_thresholds(contest, W=2.0)
    assert sol.converged and sol.newton_steps > 0
    c = sol.thresholds
    log_miss = np.log1p(-q * c)
    K = 2.0 * q * np.exp(np.sum(log_miss) - log_miss)
    assert np.max(np.abs(c - np.clip(0.5 * K, 0.0, 1.0))) < SWEEP_TOL


def test_principal_newton_steps_are_zero_when_the_sweeps_finish_alone(monkeypatch):
    contest = HeteroContest((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05), 1.0, U01)
    assert solve_principal_thresholds(contest, W=2.0).newton_steps > 0
    # A refused polish: no step kept, and x = 1 - q F(c) at the unchanged c.
    monkeypatch.setattr(hetero, "_designer_newton", lambda d, q, W, c, dK, dc: (
        0, False, 1.0 - q * np.array([d.cdf(float(x)) for x in c])))
    alone = solve_principal_thresholds(contest, W=2.0)
    c, converged, sweeps = oracles.gauss_seidel_principal(contest, W=2.0, best=U01.stake_cutoff)
    assert alone.converged and converged
    assert alone.newton_steps == 0 and alone.sweeps == sweeps
    np.testing.assert_array_equal(alone.thresholds, c)


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
    knots = ('{"kind":"piecewise_linear","knots":'
             '[[0,0],[0.42857142857142855,0.4],[0.5714285714285714,0.8],[1,1]]}')
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


# Seeded piecewise-linear laws for the exact n = 2 set. Knots, q and V are
# rationals; the library sees their nearest doubles.


def _float_law(knots):
    return PiecewiseLinear(tuple((float(c), float(F)) for c, F in knots))


def _tenths(rng, lo, hi):
    return Fraction(int(rng.integers(lo, hi)), 10)


def _rational_law(rng):
    """1-5 pieces, about a sixth of them flat, floor in [0, 0.3]; qV spans
    from near the floor to twice the width above it, so BR clamps often."""
    lo, width = _tenths(rng, 0, 4), _tenths(rng, 5, 21)
    xs = sorted({Fraction(int(x), 100) for x in rng.integers(1, 100, int(rng.integers(0, 5)))})
    c = [lo] + [lo + width * x for x in xs] + [lo + width]
    rises = [int(r) for r in rng.integers(0, 6, len(c) - 1)]
    rises[-1] += sum(rises) == 0
    F = [Fraction(sum(rises[:i]), sum(rises)) for i in range(len(c))]
    q = _tenths(rng, 2, 11)
    return list(zip(c, F)), q, (lo + width * _tenths(rng, 1, 21)) / q


def _built_law(rng):
    """A law on which BR(c) = 1 - c over [s, 1 - s]: F rises there with
    slope k = 2/(q^2 V) through F = 0 at 1 - qV, and k in (4/q - 2, 4/q)
    leaves room for s < 1/2. Random knots, maybe flat, outside it."""
    q = _tenths(rng, 6, 11)
    k = 4 / q - 2 + 2 * _tenths(rng, 1, 10)
    V = 2 / (q * q * k)
    c0 = 1 - q * V
    s_min = max(c0, 1 - c0 - 1 / k, Fraction(0))
    s = s_min + (Fraction(1, 2) - s_min) * _tenths(rng, 1, 10)
    lo, hi = s * _tenths(rng, 0, 10), 1 - s + _tenths(rng, 1, 10)
    F_s, F_t = k * (s - c0), k * (1 - s - c0)
    knots = [(lo, Fraction(0))]
    if lo < s and rng.random() < 0.5:
        knots.append((lo + (s - lo) * _tenths(rng, 1, 10), F_s * _tenths(rng, 0, 11)))
    knots += [(s, F_s), (1 - s, F_t)]
    if rng.random() < 0.5:
        knots.append(((1 - s + hi) / 2, F_t + (1 - F_t) * _tenths(rng, 0, 11)))
    return knots + [(hi, Fraction(1))], q, V


def _assert_matches_exact(knots, q, V):
    res = best_response_scan_n2(_float_law(knots), float(q), float(V))
    segments, symmetric = oracles.n2_fixed_set_exact(knots, q, V)
    br = oracles.n2_best_response_exact(knots, q, V)
    assert len(res.segments) == len(segments)
    for got, want in zip(res.segments, segments):
        if want[0] < want[1]:
            # A continuum ends at cuts: knots or their BR-preimages.
            assert all(abs(g - w) <= math.ulp(float(w)) for g, w in zip(got, want))
        else:
            # An isolated root moves with the law's rounding over the gap's
            # slope: near the exact root where the slope is steep, and with a
            # tiny exact residual where it is shallow.
            assert got[1] - got[0] <= SCAN_TOL
            assert all(abs(g - want[0]) <= 4 * math.ulp(float(want[0]))
                       or abs(br(br(g)) - g) <= 8 * 2.0**-52 for g in got)
    assert res.has_symmetric == (symmetric is not None)
    if symmetric is not None:
        assert abs(res.symmetric - symmetric) <= 4 * math.ulp(float(symmetric))


def test_scan_kinked_continuum_ends_exactly_at_three_and_four_sevenths():
    knots = [(0, 0), (Fraction(3, 7), Fraction(2, 5)), (Fraction(4, 7), Fraction(4, 5)), (1, 1)]
    assert oracles.n2_fixed_set_exact(knots, 1, Fraction(5, 7)) == (
        [(Fraction(3, 7), Fraction(4, 7))], Fraction(1, 2))
    _assert_matches_exact(knots, 1, Fraction(5, 7))
    res = best_response_scan_n2(KINKED, 1.0, 5.0 / 7.0)
    assert res.segments == [(3.0 / 7.0, 4.0 / 7.0)]
    assert res.symmetric == 0.5


def test_scan_continuum_over_the_whole_support_keeps_its_interior():
    # On U[1/3, 2/3] with q = 1, V = 2/3, BR(c) = 1 - c everywhere; the
    # pairs at the ends have a cutoff on the support's edge.
    d = Uniform(1.0 / 3.0, 2.0 / 3.0)
    res = best_response_scan_n2(d, 1.0, 2.0 / 3.0, grid=101)
    _assert_matches_exact([(Fraction(1, 3), 0), (Fraction(2, 3), 1)], 1, Fraction(2, 3))
    pairs = res.pairs
    assert pairs.shape[0] >= 99
    assert np.all((pairs > 1.0 / 3.0) & (pairs < 2.0 / 3.0))
    np.testing.assert_allclose(pairs.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("draw", [_rational_law, _built_law])
def test_scan_matches_the_exact_rational_set(draw):
    rng = np.random.default_rng(20 if draw is _rational_law else 21)
    for _ in range(100):
        _assert_matches_exact(*draw(rng))


def test_scan_solves_a_power_law_exactly():
    res = best_response_scan_n2(PowerLaw(2.0), 0.8, 1.0, grid=1001)
    ((a, b),) = res.segments
    c = res.symmetric
    assert a == b == pytest.approx(c, abs=1e-12)
    assert best_response_n2(PowerLaw(2.0), 0.8, 1.0, c) == pytest.approx(c, abs=1e-12)


def _sampled_set(d, q, V, gap, count):
    """The grid oracle's segments whose middle pair is interior."""
    lo, hi = d.support()
    return [(a, b) for a, b in oracles.n2_sampled_fixed_set(gap, np.linspace(lo, hi, count))
            if hetero._interior(((a + b) / 2, best_response_n2(d, q, V, (a + b) / 2)), lo, hi)]


def test_scan_exact_set_holds_every_grid_pair():
    rng = np.random.default_rng(22)
    for _ in range(300):
        knots, q, V = _rational_law(rng)
        d, q, V = _float_law(knots), float(q), float(V)
        exact = best_response_scan_n2(d, q, V, grid=1001)

        @np.vectorize
        def gap(c):
            return best_response_n2(d, q, V, best_response_n2(d, q, V, c)) - c

        sampled = _sampled_set(d, q, V, gap, 1001)
        near = 2.0 * exact.grid_step
        for a, b in sampled:
            assert any(s - near <= a and b <= t + near for s, t in exact.segments)
        c = exact.symmetric
        assert c is None or any(a - near <= c <= b + near for a, b in sampled)


def _power_problems(seed, count):
    """Seeded power-law problems (d, q, V): alpha log-uniform in [0.3, 60],
    q in [0.2, 1] and qV in [0.5, 1], where 2-cycles occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        alpha = float(np.exp(rng.uniform(np.log(0.3), np.log(60.0))))
        q = float(rng.uniform(0.2, 1.0))
        yield PowerLaw(alpha), q, float(rng.uniform(0.5, 1.0)) / q


def _power_gap(d, q, V):
    """BR(BR(c)) - c on F = c^alpha, in numpy, for grids as well as floats."""
    def br(c):
        return np.clip(q * V * (1.0 - 0.5 * q * np.clip(c, 0.0, 1.0) ** d.alpha), 0.0, 1.0)
    return lambda c: br(br(c)) - c


def test_scan_matches_a_fine_grid_on_power_laws():
    cycles = 0
    for d, q, V in _power_problems(5, 300):
        res = best_response_scan_n2(d, q, V)
        sampled = _sampled_set(d, q, V, _power_gap(d, q, V), 100_001)
        assert len(res.segments) == len(sampled), (d, q, V)
        np.testing.assert_allclose(res.segments, sampled, rtol=0.0, atol=1e-6)
        cycles += len(res.segments) > 1
    assert cycles > 0


def test_scan_power_law_two_cycle_against_mpmath():
    # PowerLaw(20), q = 1, V = 0.95: the symmetric cutoff and an asymmetric
    # pair, each a root of BR(BR(c)) = c solved at 50 digits.
    res = best_response_scan_n2(PowerLaw(20.0), 1.0, 0.95)
    assert len(res.segments) == 3 and all(a == b for a, b in res.segments)
    with mpmath.workdps(50):
        def br(c):
            return mpmath.mpf("0.95") * (1 - c**20 / 2)

        for (c, _), guess in zip(res.segments, (0.797, 0.8965, 0.945)):
            root = mpmath.findroot(lambda c: br(br(c)) - c, mpmath.mpf(guess))
            assert abs(c - float(root)) <= 1e-12
    assert res.symmetric == res.segments[1][0]
    c1, c2 = res.segments[0][0], res.segments[2][0]
    assert best_response_n2(PowerLaw(20.0), 1.0, 0.95, c1) == pytest.approx(c2, abs=1e-12)


@pytest.mark.parametrize("alpha,q", [(5.0, 1.0), (20.0, 0.8), (60.0, 1.0)])
def test_scan_keeps_the_symmetric_cutoff_through_a_two_cycle_birth(alpha, q):
    # BR(c) = c with BR'(c) = -1 at c0^alpha = 2/(q(alpha + 1)), the peak of
    # c BR(c), and V0 = 2/(q^2 alpha c0^(alpha - 1)). There the gap is flat to
    # third order, so its own root is loose while BR(c) = c stays sharp.
    c0 = (2.0 / (q * (alpha + 1.0))) ** (1.0 / alpha)
    V0 = 2.0 / (q * q * alpha * c0 ** (alpha - 1.0))
    for dV in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6):
        d, V = PowerLaw(alpha), V0 + dV
        res = best_response_scan_n2(d, q, V)
        c = res.symmetric
        assert c is not None and abs(best_response_n2(d, q, V, c) - c) <= 1e-15, dV
        assert any(a <= c <= b for a, b in res.segments), dV
    assert len(res.segments) == 3  # the 2-cycle, born by dV = 1e-6


def test_scan_power_law_of_degree_one_is_the_uniform_law():
    rng = np.random.default_rng(23)
    for _ in range(200):
        q, V = float(rng.uniform(0.05, 1.0)), float(np.exp(rng.uniform(-2.0, 1.5)))
        power = best_response_scan_n2(PowerLaw(1.0), q, V)
        uniform = best_response_scan_n2(U01, q, V)
        assert len(power.segments) == len(uniform.segments)
        np.testing.assert_allclose(power.segments, uniform.segments, rtol=0.0, atol=1e-14)
        assert power.has_symmetric == uniform.has_symmetric
        assert power.symmetric == pytest.approx(uniform.symmetric, abs=1e-14)


@pytest.mark.parametrize("alpha", [1e-3, 1e6])
def test_scan_power_law_extremes_stay_finite(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1e-300, 1e-3, 0.5, 1.0):
            for V in (1e-300, 1e-3, 1.0, 2.0, 1e10, 1e300):
                res = best_response_scan_n2(PowerLaw(alpha), q, V)
                for c1, c2 in res.pairs:
                    assert abs(best_response_n2(PowerLaw(alpha), q, V, c2) - c1) <= 1e-9


@dataclass(frozen=True)
class _Unknotted(PiecewiseLinear):
    """A law with its knots hidden: neither knotted nor a power law."""

    def cdf_knots(self):
        return None


def test_scan_rejects_a_law_it_cannot_cut():
    with pytest.raises(InputError):
        best_response_scan_n2(_Unknotted(((0.0, 0.0), (1.0, 1.0))), 0.5, 1.0)


def test_scan_result_stores_the_set_not_the_sample():
    res = best_response_scan_n2(KINKED, 1.0, 5.0 / 7.0)
    assert res.pairs.shape[0] > 1000
    assert len(pickle.dumps(res)) < 2048


def test_scan_validation():
    for grid in (1, 0, -3, np.int64(1), float("inf"), float("nan"), 2.9, 5.0, "5", None):
        with pytest.raises(InputError):
            best_response_scan_n2(U01, 0.5, 1.0, grid=grid)
    assert best_response_scan_n2(U01, 0.5, 1.0, grid=np.int64(5)).grid_step == 0.25
    assert best_response_scan_n2(U01, 0.5, 1.0, 2).grid_step == 1.0

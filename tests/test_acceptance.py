"""End-to-end acceptance gate.

Each test reproduces one headline result at its stated tolerance, so a
verbose run reads as one pass/fail line per criterion. Shared reference
rows live in the CLI module, which quotes them to published precision.
"""

import time

import numpy as np
import pytest

import oracles
from searchcontest.asymptotics import (
    estimate_rate,
    limit_expected_searchers,
    limit_success_probability,
)
from searchcontest.cli import REFERENCE_TABLES
from searchcontest.distributions import (
    PiecewiseLinear,
    PowerLaw,
    Uniform,
    distribution_from_spec,
)
from searchcontest.equilibrium import (
    ContestConfig,
    solve_threshold,
    success_increasing_in_n,
    win_probability,
)
from searchcontest.expert import critical_expertise, success_probability_with_expert
from searchcontest.hetero import (
    HeteroContest,
    agent_win_probabilities,
    best_response_scan_n2,
    success_probability as het_success_probability,
)
from searchcontest.montecarlo import SimConfig, deviation_gain, simulate
from searchcontest.multiprize import (
    PrizeStructure,
    optimal_prize_structure,
    principal_value_multi,
    rank_win_probability,
)
from searchcontest.principal import optimal_prize, stakes_window, verify_against_grid

U01 = Uniform(0.0, 1.0)
UQ = Uniform(0.25, 1.25)
P20 = PowerLaw(20.0)

TABLE_TOL = 5e-4


def _check_table(name, time_budget):
    spec = REFERENCE_TABLES[name]
    d = distribution_from_spec(spec["dist"])
    start = time.perf_counter()
    for n, c_ref, p_ref in spec["rows"]:
        cfg = ContestConfig(n=float(n), q=spec["q"], V=spec["V"])
        res = solve_threshold(d, cfg)
        assert res.threshold == pytest.approx(c_ref, abs=TABLE_TOL), (name, n)
        assert res.success_prob == pytest.approx(p_ref, abs=TABLE_TOL), (name, n)
    assert time.perf_counter() - start < time_budget


def test_criterion_01_power_law_table():
    _check_table("table1a", time_budget=1.0)


def test_criterion_02_uniform_high_stakes_table():
    _check_table("table1b", time_budget=1.0)


def test_criterion_03_large_field_tables_and_limits():
    start = time.perf_counter()
    _check_table("table2a", time_budget=5.0)
    _check_table("table2b", time_budget=5.0)
    p_inf = limit_success_probability(0.25, 0.5, 1.0)
    kappa = limit_expected_searchers(0.25, 0.5, 1.0)
    assert time.perf_counter() - start < 5.0
    assert p_inf == pytest.approx(0.797, abs=5e-3)
    # kappa is the nonzero root of c_lo k = V(1 - e^{-q k}) at
    # (c_lo, q, V) = (1/4, 1/2, 1): k = V/c_lo + W_0(-a e^{-a})/q with
    # a = qV/c_lo = 2, which is 3.18724852008008... The quoted 3.187 is that
    # root correctly rounded. The equation also forces k = V P_inf / c_lo,
    # but 0.797 / 0.25 = 3.188 divides an already-rounded P_inf and is off
    # in the last digit.
    assert kappa == pytest.approx(
        float(oracles.limit_searchers_lambertw(0.25, 0.5, 1.0)), abs=1e-9
    )
    assert kappa == pytest.approx(3.187, abs=5e-4)


def test_criterion_04_two_prize_design_example():
    wta = PrizeStructure.winner_takes_all(1.0, 2)
    split = PrizeStructure((0.75, 0.25))
    u_wta = principal_value_multi(U01, 1.0, 2, 2.0, wta)
    u_split = principal_value_multi(U01, 1.0, 2, 2.0, split)
    assert u_wta == pytest.approx(8.0 / 9.0, abs=1e-9)
    assert u_split == pytest.approx(24.0 / 25.0, abs=1e-9)
    best = optimal_prize_structure(U01, 1.0, 2, 2.0, 1.0)
    assert best.value >= 24.0 / 25.0 - 1e-9


def test_criterion_05_kinked_equilibrium_continuum():
    d = PiecewiseLinear(((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0)))
    scan = best_response_scan_n2(d, 1.0, 5.0 / 7.0, grid=10001)
    c1 = scan.pairs[:, 0]
    c2 = scan.pairs[:, 1]
    assert c1.min() == pytest.approx(3.0 / 7.0, abs=2e-4)
    assert c1.max() == pytest.approx(4.0 / 7.0, abs=2e-4)
    np.testing.assert_allclose(c2, 1.0 - c1, atol=1e-9)
    gap_to_symmetric = np.min(np.abs(c1 - 0.5) + np.abs(c2 - 0.5))
    assert gap_to_symmetric <= 1e-9
    assert scan.has_symmetric


def test_criterion_06_nonmonotone_success_and_expert_crowding():
    c3 = solve_threshold(P20, ContestConfig(n=3.0, q=1.0, V=1.0)).threshold
    c5 = solve_threshold(P20, ContestConfig(n=5.0, q=1.0, V=1.0)).threshold
    assert success_increasing_in_n(P20, 1.0, c3) is False
    assert success_increasing_in_n(P20, 1.0, c5) is True

    qe_hat = critical_expertise(P20, 1.0, 3.0, 1.0)
    total = success_probability_with_expert(P20, 1.0, qe_hat, 3.0, 1.0)
    p3 = solve_threshold(P20, ContestConfig(n=3.0, q=1.0, V=1.0)).success_prob
    assert total == pytest.approx(0.2917, abs=TABLE_TOL)
    assert p3 == pytest.approx(0.2924, abs=TABLE_TOL)
    assert total < p3


def test_criterion_07_convergence_rate_slopes():
    n_values = [1e2, 1e3, 1e4, 1e5, 1e6]
    fit_zero = estimate_rate(U01, 0.5, 1.0, n_values, "gap")
    assert fit_zero.slope == pytest.approx(-0.5, abs=0.03)
    assert fit_zero.r_squared >= 0.999
    fit_pos = estimate_rate(UQ, 0.5, 1.0, n_values, "gap")
    assert fit_pos.slope == pytest.approx(-1.0, abs=0.05)
    assert fit_pos.r_squared >= 0.999


def test_criterion_08_closed_forms_match_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        q = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(0.01, 0.99))
        cfg = ContestConfig(n=float(n), q=q, V=1.0)

        phi = win_probability(U01, cfg, c)
        assert abs(phi - oracles.win_probability_sum(c, q, n)) <= 1e-12

        m = int(rng.integers(1, n + 1))
        phi_m = rank_win_probability(U01, q, n, m, c)
        assert abs(phi_m - oracles.rank_win_sum(c, q, n, m)) <= 1e-12

        total = sum(rank_win_probability(U01, q, n, r, c) for r in range(1, n + 1))
        assert abs(total - q) <= 1e-12

        k = int(rng.integers(2, 13))
        q_vec = tuple(rng.uniform(0.05, 1.0, size=k))
        thresholds = rng.uniform(0.05, 0.95, size=k)
        contest = HeteroContest(q_vec, 1.0, U01)
        c_sorted = np.sort(thresholds)[::-1]
        i = int(rng.integers(0, k))
        rival_pi = np.delete(
            np.asarray(contest.q_values) * np.array([U01.cdf(t) for t in c_sorted]), i
        )
        psi = agent_win_probabilities(contest, c_sorted)
        assert abs(psi[i] - oracles.psi_subsets(contest.q_values[i], rival_pi)) <= 1e-12

        F_sorted = np.array([U01.cdf(t) for t in c_sorted])
        decomposition = float(F_sorted @ psi)
        assert abs(het_success_probability(contest, c_sorted) - decomposition) <= 1e-10


def test_criterion_09_simulation_calibration():
    reps = 1_000_000
    index = 0
    for name, spec in REFERENCE_TABLES.items():
        d = distribution_from_spec(spec["dist"])
        for n, _, _ in spec["rows"]:
            seed = 1000 + index
            index += 1
            cfg = ContestConfig(n=float(n), q=spec["q"], V=spec["V"])
            res = solve_threshold(d, cfg)
            start = time.perf_counter()
            est = simulate(d, cfg, SimConfig(reps, seed, res.threshold))
            gain = deviation_gain(d, cfg, SimConfig(reps, seed, res.threshold), res.threshold)
            elapsed = time.perf_counter() - start
            label = (name, n)
            # z-test against the closed-form binomial SE: the estimated SE
            # degenerates to zero when every replication succeeds (P within
            # 1e-7 of one happens in three of these configurations).
            p = res.success_prob
            se_success = np.sqrt(p * (1.0 - p) / reps)
            assert abs(est.success_rate - p) <= 3 * se_success, label
            phi = win_probability(d, cfg, res.threshold)
            assert abs(est.searcher_win_rate - phi) <= 3 * est.searcher_win_se, label
            assert abs(gain.value) <= 3 * gain.std_error, label
            assert elapsed < 60.0, label


def test_criterion_10_designer_solution_survives_grid_search():
    rng = np.random.default_rng(20240823)
    checked = 0
    while checked < 50:
        if rng.random() < 0.5:
            a = float(rng.uniform(0.0, 0.5))
            d = Uniform(a, a + float(rng.uniform(0.5, 1.5)))
        else:
            d = PowerLaw(float(rng.uniform(1.0, 6.0)))
        q = float(rng.uniform(0.2, 0.95))
        n = float(rng.integers(2, 13))
        lo, hi = stakes_window(d, q, n)
        if not np.isfinite(hi):
            hi = lo + 20.0
        if hi <= lo:
            continue
        W = lo + float(rng.uniform(0.05, 0.95)) * (hi - lo)

        sol = optimal_prize(d, q, n, W)
        assert sol.certified
        chk = verify_against_grid(d, q, n, W)
        assert chk.ok, (d, q, n, W, chk)
        replay = solve_threshold(d, ContestConfig(n=n, q=q, V=sol.prize))
        assert abs(replay.threshold - sol.threshold) <= 1e-8
        checked += 1

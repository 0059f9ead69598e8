import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from searchcontest import InputError, montecarlo
from searchcontest.distributions import Uniform
from searchcontest.equilibrium import (
    ContestConfig,
    solve_threshold,
    success_probability,
    win_probability,
)
from searchcontest.expert import solve_threshold_expert, success_probability_with_expert
from searchcontest.hetero import HeteroContest, agent_win_probabilities, solve_thresholds
from searchcontest.hetero import success_probability as het_success_probability
from searchcontest.montecarlo import (
    CHUNK_SIZE,
    Baseline,
    PerAgentFind,
    RankPrizes,
    SimConfig,
    WithExpert,
    deviation_gain,
    simulate,
)
from searchcontest.multiprize import (
    PrizeStructure,
    rank_win_probability,
    solve_threshold_multi,
)

U01 = Uniform(0.0, 1.0)
UQ = Uniform(0.25, 1.25)
REPS = 200_000

# U[0,1], q = 1/2, V = 1, n = 10 baseline equilibrium.
CSTAR_10 = 0.27876617467348064
PSTAR_10 = 0.7771058014208561

V4 = PrizeStructure((0.4, 0.3, 0.2, 0.1))


def within(se_count, got, target, se):
    return abs(got - target) <= se_count * max(se, 1e-12)


# --------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(replications=0, seed=1, thresholds=0.5)
    with pytest.raises(InputError):
        SimConfig(replications=10, seed=1.5, thresholds=0.5)
    with pytest.raises(InputError, match="nonnegative"):
        SimConfig(replications=10, seed=-1, thresholds=0.5)
    with pytest.raises(InputError):
        WithExpert(q_e=1.2)
    with pytest.raises(InputError):
        WithExpert(q_e=0.3, mode="bogus")
    with pytest.raises(InputError):
        PerAgentFind(q_values=(0.5, 0.0))


def test_simulate_validation():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    with pytest.raises(InputError):
        simulate(U01, ContestConfig(n=2.5, q=0.5, V=1.0), SimConfig(10, 1, 0.5))
    with pytest.raises(InputError):
        simulate(U01, cfg, SimConfig(10, 1, (0.5, 0.5)))  # wrong length
    with pytest.raises(InputError):
        simulate(U01, cfg, SimConfig(10, 1, 1.5))  # outside support
    with pytest.raises(InputError):
        simulate(U01, cfg, SimConfig(10, 1, 0.5, PerAgentFind((0.5, 0.5))))
    with pytest.raises(InputError):
        simulate(U01, cfg, SimConfig(10, 1, 0.5, RankPrizes(V4)))


def test_nan_threshold_is_rejected():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    with pytest.raises(InputError, match="support"):
        simulate(U01, cfg, SimConfig(10, 1, math.nan))
    with pytest.raises(InputError, match="support"):
        deviation_gain(U01, cfg, SimConfig(10, 1, (0.5, math.nan, 0.5)), at_cost=0.5)


def test_deviation_cost_must_lie_in_support():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    with pytest.raises(InputError):
        deviation_gain(U01, cfg, SimConfig(10, 1, 0.5), at_cost=1.2)


# ------------------------------------------------------------- determinism


VARIANTS = {
    "baseline": (0.3, Baseline()),
    "expert": (0.3, WithExpert(0.3, "shared")),
    "rank": (0.3, RankPrizes(V4)),
    "per_agent": ((0.4, 0.3, 0.2, 0.1), PerAgentFind((0.9, 0.6, 0.5, 0.3))),
}


def assert_same_fields(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb)
        else:
            assert va == vb


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_same_seed_reproduces_bit_identical_estimates(variant, monkeypatch):
    cfg = ContestConfig(n=4.0, q=0.5, V=1.0)
    thresholds, v = VARIANTS[variant]
    if variant != "per_agent":
        # Alike agents take the count path, which never draws agent uniforms.
        monkeypatch.setattr(montecarlo, "_chunks", None)
    sim = SimConfig(CHUNK_SIZE + 3, 99, thresholds, v)
    assert_same_fields(simulate(U01, cfg, sim), simulate(U01, cfg, sim))
    assert_same_fields(
        deviation_gain(U01, cfg, sim, 0.25), deviation_gain(U01, cfg, sim, 0.25)
    )


@pytest.mark.parametrize(
    "variant",
    [
        Baseline(),
        WithExpert(0.3, "shared"),
        WithExpert(0.3, "expert_keeps"),
        RankPrizes(V4),
        PerAgentFind((0.9, 0.6, 0.5, 0.3)),
    ],
)
def test_deviation_gain_is_simulate_with_a_sure_searcher(variant):
    # On the same draws, a tagged agent whose threshold is the top of the
    # support always searches, so its prize in `simulate` is the prize that
    # `deviation_gain` pays.
    cfg = ContestConfig(n=4.0, q=0.5, V=1.3)
    thresholds = (0.4, 0.3, 0.2, 0.1)
    cost = 0.25
    gain = deviation_gain(U01, cfg, SimConfig(20_000, 41, thresholds, variant), cost)
    tagged_sure = SimConfig(20_000, 41, (1.0,) + thresholds[1:], variant)
    est = simulate(U01, cfg, tagged_sure)
    if isinstance(variant, RankPrizes):
        prize = est.rank_win_rates[0] @ np.asarray(V4.values)
    else:
        prize = cfg.V * est.win_rate_per_agent[0]
    assert gain.value == pytest.approx(prize - cost, abs=1e-12)


def test_different_seed_changes_the_draws():
    cfg = ContestConfig(n=4.0, q=0.5, V=1.0)
    a = simulate(U01, cfg, SimConfig(5000, 1, 0.3))
    b = simulate(U01, cfg, SimConfig(5000, 2, 0.3))
    assert a.success_rate != b.success_rate


def test_replications_straddling_a_chunk_boundary():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    reps = CHUNK_SIZE + 3
    est = simulate(U01, cfg, SimConfig(reps, 5, 0.4))
    assert est.replications == reps
    target = success_probability(U01, cfg, 0.4)
    assert within(5, est.success_rate, target, est.success_se)


def test_subnormal_find_chance_does_not_overflow():
    # u / (q F) overflows for non-finders when q F is subnormal; the
    # suite-wide RuntimeWarning gate in pyproject.toml fails on any warning.
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    sim = SimConfig(1000, 3, (1e-320, 2e-320, 1e-320), PerAgentFind((0.5, 0.5, 0.5)))
    est = simulate(U01, cfg, sim)
    assert est.success_rate == 0.0
    np.testing.assert_array_equal(est.win_rate_per_agent, 0.0)
    gain = deviation_gain(U01, cfg, sim, 0.25)
    assert within(4, gain.value, 0.5 - 0.25, gain.std_error)


def test_zero_threshold_means_nobody_searches():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    est = simulate(U01, cfg, SimConfig(1000, 3, 0.0))
    assert est.success_rate == 0.0
    assert est.searcher_win_rate == 0.0
    assert est.mean_payoff_at_threshold == 0.0
    np.testing.assert_array_equal(est.win_rate_per_agent, 0.0)


# ------------------------------------------------------------------ slabs


SLAB_VARIANTS = {
    "per_agent": lambda n, rng: PerAgentFind(tuple(rng.uniform(0.1, 1.0, n).tolist())),
    "baseline": lambda n, rng: Baseline(),
    "shared": lambda n, rng: WithExpert(0.3, "shared"),
    "expert_keeps": lambda n, rng: WithExpert(0.4, "expert_keeps"),
    "rank": lambda n, rng: RankPrizes(
        PrizeStructure(tuple(sorted(rng.uniform(0.0, 1.0, n).tolist(), reverse=True)))
    ),
}


@pytest.mark.parametrize("n", [3, 50, 200])
@pytest.mark.parametrize("variant", list(SLAB_VARIANTS))
def test_slab_size_leaves_every_estimate_unchanged(variant, n, monkeypatch):
    # Unequal cutoffs take the dense path. Smaller chunks keep one-row slabs
    # quick while the calls still cross chunk boundaries; 7-row slabs do not
    # divide a chunk.
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 1000)
    rng = np.random.default_rng(n)
    cutoffs = tuple(rng.uniform(0.0, 1.0 if n == 3 else 0.1, n).tolist())
    cfg = ContestConfig(n=float(n), q=0.6, V=1.3)
    sim = SimConfig(2503, 31, cutoffs, SLAB_VARIANTS[variant](n, rng))

    def run(rows):
        monkeypatch.setattr(montecarlo, "SLAB_DOUBLES", rows * n)
        return simulate(U01, cfg, sim), deviation_gain(U01, cfg, sim, 0.3)

    whole = run(1000)
    for rows in (1, 7):
        for got, want in zip(run(rows), whole):
            assert_same_fields(got, want)


@pytest.mark.parametrize("rows", [1, 7, 500])
def test_rank_wins_count_each_finder_at_its_argsort_rank(rows, monkeypatch):
    # One chunk's draws, scored and ranked whole with argsort, against the
    # finders that the slabs count; cutoffs near 0 leave a few finders a row.
    n, m, seed = 40, 500, 13
    monkeypatch.setattr(montecarlo, "SLAB_DOUBLES", rows * n)
    rng = np.random.default_rng(5)
    cutoffs = rng.uniform(0.0, 0.3, n)
    prizes = PrizeStructure(tuple(sorted(rng.uniform(0.0, 1.0, n).tolist(), reverse=True)))
    est = simulate(U01, ContestConfig(n=float(n), q=0.5, V=1.0),
                   SimConfig(m, seed, tuple(cutoffs.tolist()), RankPrizes(prizes)))
    s = montecarlo._chunk_rng(seed, 0, np.random.PCG64DXSM).random((m, n)) / (0.5 * cutoffs)
    rank = s.argsort(axis=1).argsort(axis=1)
    want = np.zeros((n, n))
    np.add.at(want, (np.nonzero(s < 1.0)[1], rank[s < 1.0]), 1.0)
    np.testing.assert_array_equal(est.rank_win_rates, want / m)


# The child reports its own peak RSS in KiB. VmHWM belongs to the child's
# address space; ru_maxrss would also keep the peak of the pytest process
# that started it, which Linux carries across exec.
MEMORY_PROBE = """
import sys
import numpy as np
from searchcontest.distributions import Uniform
from searchcontest.equilibrium import ContestConfig
from searchcontest.montecarlo import PerAgentFind, RankPrizes, SimConfig, simulate
from searchcontest.multiprize import PrizeStructure
n = 2000
agents = np.arange(n)
if sys.argv[1] == "rank":
    variant = RankPrizes(PrizeStructure(tuple((1.0 / (1.0 + agents)).tolist())))
else:
    variant = PerAgentFind(tuple((0.2 + 0.7 * agents / n).tolist()))
cutoffs = tuple(((agents + 0.5) / n).tolist())
simulate(Uniform(0.0, 1.0), ContestConfig(n=float(n), q=0.5, V=1.0),
         SimConfig(16_384, 3, cutoffs, variant))
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("variant", ["per_agent", "rank"])
def test_a_large_dense_chunk_stays_small(variant):
    # A whole 16,384 x 2000 chunk of doubles is 262 MB. Cutoffs spread over
    # the support put about a quarter of the crowd among the finders.
    src = Path(montecarlo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE, variant], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) / 1024 < 150


# ------------------------------------------------------------- tie-break


def test_play_finds_exactly_below_q_f():
    # s = u / (q F) < 1 exactly when u < q F, whatever the rounding of q F:
    # row 0 sits one double below q F, row 1 at q F.
    rng = np.random.default_rng(3)
    qF = np.concatenate((rng.random(500), [1.0 / 3.0, 0.7 * 0.3, 0.1, 1e-300, 5e-324, 1.0]))
    u = np.vstack((np.nextafter(qF, 0.0), qF))
    success, (found, _) = montecarlo._play(u, qF, ranked=True)
    assert found[0].all() and not found[1].any()
    assert success.tolist() == [True, False]


def test_play_finder_beats_non_finders_sitting_at_q_f():
    qF = np.array([0.3, 0.21, 0.3])
    u = np.array([[0.3, np.nextafter(0.21, 0.0), 0.3], [0.3, 0.21, 0.3]])
    success, (winner, best) = montecarlo._play(u, qF, ranked=False)
    success, crowd_wins = montecarlo._settle(success, best, None, Baseline())
    assert success.tolist() == [True, False]
    assert winner[0] == 1
    assert crowd_wins.tolist() == [True, False]


def test_play_never_finds_where_q_f_is_zero():
    # u = 0 can be drawn, and 0 < 0 * anything is false.
    qF = np.array([0.0, 0.2, 0.0])
    u = np.array([[0.0, 0.5, 0.0], [0.0, 0.1, 0.0]])
    success, (winner, best) = montecarlo._play(u.copy(), qF, ranked=False)
    success, crowd_wins = montecarlo._settle(success, best, None, Baseline())
    assert success.tolist() == [False, True]
    assert crowd_wins.tolist() == [False, True]
    assert winner[1] == 1
    success, (found, rank) = montecarlo._play(u.copy(), qF, ranked=True)
    assert found.tolist() == [[False, False, False], [False, True, False]]
    assert rank[1, 1] == 0


def test_play_shared_expert_wins_on_the_lower_score():
    # The crowd's best score is 0.2 / 0.5 = 0.4; the expert's is w / q_e.
    q_e = 0.5
    qF = np.array([0.5, 0.5])
    w = np.array([np.nextafter(0.2, 0.0), 0.2, np.nextafter(0.2, 1.0), 0.6, 0.1])
    u = np.array([[0.2, 0.4]] * 4 + [[0.9, 0.6]])
    success, (winner, best) = montecarlo._play(u, qF, ranked=False)
    success, crowd_wins = montecarlo._settle(success, best, w, WithExpert(q_e, "shared"))
    assert (w / q_e < 0.4).tolist() == [True, False, False, False, True]
    assert crowd_wins.tolist() == [False, False, True, True, False]
    assert success.tolist() == [True] * 5
    assert (winner[:4] == 0).all()


def test_play_ranks_finders_in_ascending_score():
    qF = np.array([0.5, 0.5, 0.4, 0.5, 0.5])
    u = np.array([[0.3, 0.1, 0.45, 0.2, 0.0]])  # scores 0.6, 0.2, 1.125, 0.4, 0
    success, (found, rank) = montecarlo._play(u, qF, ranked=True)
    assert success.tolist() == [True]
    assert found.tolist() == [[True, True, False, True, True]]
    assert rank.tolist() == [[3, 1, 4, 2, 0]]


# ------------------------------------------------------------- calibration


def test_baseline_calibration():
    cfg = ContestConfig(n=10.0, q=0.5, V=1.0)
    est = simulate(U01, cfg, SimConfig(REPS, 7, CSTAR_10))
    assert within(3, est.success_rate, PSTAR_10, est.success_se)
    phi = win_probability(U01, cfg, CSTAR_10)
    assert within(3, est.searcher_win_rate, phi, est.searcher_win_se)
    # Marginal searcher is indifferent at the cutoff.
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)
    per_agent = PSTAR_10 / 10.0
    for i in range(10):
        assert within(
            3, est.win_rate_per_agent[i], per_agent, est.win_rate_per_agent_se[i]
        )
    assert est.success_se == pytest.approx(
        math.sqrt(est.success_rate * (1.0 - est.success_rate) / REPS), abs=1e-15
    )


def test_expert_shared_calibration():
    q, q_e, n = 0.5, 0.3, 3
    cfg = ContestConfig(n=float(n), q=q, V=1.0)
    res = solve_threshold_expert(U01, q, q_e, float(n), 1.0, mode="shared")
    sim = SimConfig(REPS, 11, res.threshold, WithExpert(q_e, "shared"))
    est = simulate(U01, cfg, sim)
    target_success = success_probability_with_expert(U01, q, q_e, float(n), 1.0)
    assert within(3, est.success_rate, target_success, est.success_se)
    # Cutoff agents break even, so the per-searcher win rate is c_e / V.
    assert within(3, est.searcher_win_rate, res.threshold, est.searcher_win_se)
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)


def test_expert_keeps_calibration():
    q, q_e, n = 0.5, 0.3, 3
    cfg = ContestConfig(n=float(n), q=q, V=1.0)
    res = solve_threshold_expert(U01, q, q_e, float(n), 1.0, mode="expert_keeps")
    sim = SimConfig(REPS, 13, res.threshold, WithExpert(q_e, "expert_keeps"))
    est = simulate(U01, cfg, sim)
    target_success = success_probability_with_expert(
        U01, q, q_e, float(n), 1.0, mode="expert_keeps"
    )
    assert within(3, est.success_rate, target_success, est.success_se)
    target_win = (1.0 - q_e) * win_probability(U01, cfg, res.threshold)
    assert within(3, est.searcher_win_rate, target_win, est.searcher_win_se)
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)


def test_rank_prize_calibration():
    q, n = 0.5, 4
    cfg = ContestConfig(n=float(n), q=q, V=1.0)
    chat = solve_threshold_multi(U01, q, n, V4).threshold
    est = simulate(U01, cfg, SimConfig(REPS, 17, chat, RankPrizes(V4)))
    target_success = success_probability(U01, cfg, chat)
    assert within(3, est.success_rate, target_success, est.success_se)
    for m in range(1, n + 1):
        target = rank_win_probability(U01, q, n, m, chat)
        assert within(
            3, est.searcher_rank_rates[m - 1], target, est.searcher_rank_se[m - 1]
        )
        F = U01.cdf(chat)
        for i in range(n):
            se = math.sqrt(F * target * (1.0 - F * target) / REPS)
            assert within(3, est.rank_win_rates[i, m - 1], F * target, se)
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)
    np.testing.assert_array_equal(est.win_rate_per_agent, est.rank_win_rates[:, 0])


def test_hetero_calibration():
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, U01)
    c = solve_thresholds(contest).thresholds
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)  # q unused by the variant
    sim = SimConfig(REPS, 19, tuple(c), PerAgentFind(contest.q_values))
    est = simulate(U01, cfg, sim)
    target_success = het_success_probability(contest, c)
    assert within(3, est.success_rate, target_success, est.success_se)
    psi = agent_win_probabilities(contest, c)
    for i in range(3):
        target = U01.cdf(c[i]) * psi[i]
        assert within(
            3, est.win_rate_per_agent[i], target, est.win_rate_per_agent_se[i]
        )
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)


def test_per_agent_calibration_at_two_hundred_agents():
    # Stratified abilities on [0.2, 0.9] at their equilibrium cutoffs; win
    # rates are checked over four blocks of agents, from least to most able.
    n, reps = 200, 50_000
    rng = np.random.default_rng(2024)
    q = rng.permutation(0.2 + 0.7 * (np.arange(n) + rng.random(n)) / n)
    contest = HeteroContest(tuple(q), 1.0, U01)
    c = solve_thresholds(contest).thresholds
    cfg = ContestConfig(n=float(n), q=float(np.mean(q)), V=1.0)
    est = simulate(U01, cfg, SimConfig(reps, 97, tuple(c), PerAgentFind(tuple(q))))
    target_success = het_success_probability(contest, c)
    assert within(4, est.success_rate, target_success, est.success_se)
    target = np.array([U01.cdf(float(t)) for t in c]) * agent_win_probabilities(contest, c)
    for block in np.array_split(np.argsort(q), 4):
        t = target[block].sum()
        assert within(
            4, est.win_rate_per_agent[block].sum(), t, math.sqrt(t * (1.0 - t) / reps)
        )


@pytest.mark.parametrize("n, seeds", [(2, (43, 47)), (5, (59, 61)), (20, (67, 71))])
def test_count_path_agrees_with_the_dense_path(n, seeds):
    # At one common threshold, Baseline takes the count path and the same
    # contest written as PerAgentFind takes the dense one.
    cfg = ContestConfig(n=float(n), q=0.5, V=1.0)
    c = solve_threshold(U01, cfg).threshold
    counted = simulate(U01, cfg, SimConfig(REPS, seeds[0], c))
    dense = simulate(U01, cfg, SimConfig(REPS, seeds[1], c, PerAgentFind((0.5,) * n)))

    def agree(a, b, se_a, se_b):
        return abs(a - b) <= 4.0 * math.hypot(se_a, se_b)

    assert agree(counted.success_rate, dense.success_rate, counted.success_se, dense.success_se)
    assert agree(counted.searcher_win_rate, dense.searcher_win_rate,
                 counted.searcher_win_se, dense.searcher_win_se)
    # The ratio SE rests on the joint law of wins and searchers per
    # replication, which the rates alone do not pin down.
    assert counted.searcher_win_se == pytest.approx(dense.searcher_win_se, rel=0.05)
    for block in np.array_split(np.arange(n), min(n, 4)):
        a = counted.win_rate_per_agent[block].sum()
        b = dense.win_rate_per_agent[block].sum()
        assert agree(a, b, math.sqrt(a * (1.0 - a) / REPS), math.sqrt(b * (1.0 - b) / REPS))


LARGE_N = 2000
LARGE_PRIZES = PrizeStructure((1.0, 0.5, 0.25) + (0.0,) * (LARGE_N - 3))


@pytest.mark.parametrize(
    "variant, seed",
    [
        (Baseline(), 73),
        (WithExpert(0.3, "shared"), 79),
        (WithExpert(0.3, "expert_keeps"), 83),
        (RankPrizes(LARGE_PRIZES), 89),
    ],
    ids=["baseline", "shared", "expert_keeps", "rank"],
)
def test_large_field_calibration(variant, seed):
    # On U[1/4, 5/4] an unlimited crowd still misses the object with a
    # chance that stays away from 0, so every band here is informative.
    q, n, reps = 0.5, LARGE_N, 1_000_000
    cfg = ContestConfig(n=float(n), q=q, V=1.0)
    if isinstance(variant, WithExpert):
        c = solve_threshold_expert(UQ, q, 0.3, float(n), 1.0, mode=variant.mode).threshold
        p = success_probability_with_expert(UQ, q, 0.3, float(n), 1.0, mode=variant.mode)
        phi = c if variant.mode == "shared" else 0.7 * win_probability(UQ, cfg, c)
    elif isinstance(variant, RankPrizes):
        c = solve_threshold_multi(UQ, q, n, LARGE_PRIZES).threshold
        p = success_probability(UQ, cfg, c)
        phi = q  # every finder takes a rank
    else:
        c = solve_threshold(UQ, cfg).threshold
        p = success_probability(UQ, cfg, c)
        phi = win_probability(UQ, cfg, c)
    sim = SimConfig(reps, seed, c, variant)
    est = simulate(UQ, cfg, sim)
    gain = deviation_gain(UQ, cfg, sim, c)

    assert within(3, est.success_rate, p, math.sqrt(p * (1.0 - p) / reps))
    assert within(3, est.searcher_win_rate, phi, est.searcher_win_se)
    assert within(3, est.mean_payoff_at_threshold, 0.0, est.mean_payoff_se)
    assert within(3, gain.value, 0.0, gain.std_error)
    crowd_wins = n * UQ.cdf(c) * phi if isinstance(variant, WithExpert) else p
    for block in np.array_split(np.arange(n), 4):
        target = crowd_wins * block.size / n
        se = math.sqrt(target * (1.0 - target) / reps)
        assert within(3, est.win_rate_per_agent[block].sum(), target, se)
    if isinstance(variant, RankPrizes):
        for m in (1, 2, 3):
            target = rank_win_probability(UQ, q, n, m, c)
            assert within(
                3, est.searcher_rank_rates[m - 1], target, est.searcher_rank_se[m - 1]
            )


# --------------------------------------------------------- deviation gains


def test_deviation_gain_vanishes_at_equilibrium():
    cfg = ContestConfig(n=10.0, q=0.5, V=1.0)
    g = deviation_gain(U01, cfg, SimConfig(REPS, 23, CSTAR_10), CSTAR_10)
    assert within(3, g.value, 0.0, g.std_error)
    assert g.replications == REPS


def test_deviation_gain_sign_off_equilibrium():
    cfg = ContestConfig(n=10.0, q=0.5, V=1.0)
    # Rivals hold the cutoff, so the tagged prize is exactly c* and the
    # gain from searching at cost c is c* - c.
    low = CSTAR_10 - 0.05
    g = deviation_gain(U01, cfg, SimConfig(REPS, 29, CSTAR_10), low)
    assert g.value > 3.0 * g.std_error
    assert within(3, g.value, CSTAR_10 - low, g.std_error)
    high = CSTAR_10 + 0.05
    g = deviation_gain(U01, cfg, SimConfig(REPS, 31, CSTAR_10), high)
    assert g.value < -3.0 * g.std_error
    assert within(3, g.value, CSTAR_10 - high, g.std_error)


def test_deviation_gain_with_expert_variants():
    cfg = ContestConfig(n=3.0, q=0.5, V=1.0)
    for mode, seed in (("shared", 37), ("expert_keeps", 37)):
        c = solve_threshold_expert(U01, 0.5, 0.3, 3.0, 1.0, mode=mode).threshold
        sim = SimConfig(REPS, seed, c, WithExpert(0.3, mode))
        g = deviation_gain(U01, cfg, sim, c)
        assert within(3, g.value, 0.0, g.std_error)


def test_deviation_gain_with_rank_prizes():
    cfg = ContestConfig(n=4.0, q=0.5, V=1.0)
    chat = solve_threshold_multi(U01, 0.5, 4, V4).threshold
    g = deviation_gain(U01, cfg, SimConfig(REPS, 53, chat, RankPrizes(V4)), chat)
    assert within(3, g.value, 0.0, g.std_error)


# ---------------------------------------------------------------- coverage


def test_three_se_band_covers_the_truth():
    cfg = ContestConfig(n=5.0, q=0.5, V=1.0)
    res = solve_threshold(U01, cfg)
    hits = 0
    for seed in range(100):
        est = simulate(U01, cfg, SimConfig(10_000, seed, res.threshold))
        if within(3, est.success_rate, res.success_prob, est.success_se):
            hits += 1
    assert hits >= 95

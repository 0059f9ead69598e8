"""Simulation cross-checks for the closed-form contest quantities.

Every replication runs through two private helpers. `_chunks` draws the
replications in fixed-size chunks, each chunk from its own counter-based
substream (Philox keyed by the master seed and the chunk index), so
results are bit-identical for a given (seed, replications, config)
regardless of how chunks might be scheduled. `_play` decides each chunk's
contest: who found the object, who wins the prize (uniform tie-break,
outside expert) or which rank each finder takes (rank prizes).

Each agent consumes a single uniform u per replication: search happens iff
u < F(threshold), the object is found iff u < q F(threshold) (the correct
nested joint for search-then-find), and conditional on finding u / (q F)
is again uniform and independent across finders, so its argmax implements
the uniform tie-break among finders exactly. The expert draws one more
uniform w per replication and finds iff w < q_e, with tie-break score
w / q_e.

`simulate` accumulates success and win rates with standard errors; the
pooled per-searcher rates use the delta-method SE for a ratio of
replication-level totals. `deviation_gain` is the same play with the
tagged agent (column 0) searching for sure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._errors import InputError, check_expert_probability, check_find_probabilities
from .distributions import CostDistribution
from .equilibrium import ContestConfig
from .multiprize import PrizeStructure

CHUNK_SIZE = 1 << 14


@dataclass(frozen=True)
class Baseline:
    pass


@dataclass(frozen=True)
class WithExpert:
    q_e: float
    mode: str = "shared"  # "shared" | "expert_keeps"

    def __post_init__(self):
        check_expert_probability(self.q_e)
        if self.mode not in ("shared", "expert_keeps"):
            raise InputError(f"unknown expert mode {self.mode!r}")


@dataclass(frozen=True)
class RankPrizes:
    structure: PrizeStructure


@dataclass(frozen=True)
class PerAgentFind:
    q_values: tuple[float, ...]

    def __post_init__(self):
        check_find_probabilities(self.q_values)


Variant = Union[Baseline, WithExpert, RankPrizes, PerAgentFind]


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    thresholds: Union[float, tuple[float, ...]]
    variant: Variant = Baseline()

    def __post_init__(self):
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise InputError(f"replications must be a positive integer, got {self.replications!r}")
        if not isinstance(self.seed, (int, np.integer)):
            raise InputError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class SimEstimate:
    success_rate: float
    success_se: float
    searcher_win_rate: float
    searcher_win_se: float
    win_rate_per_agent: np.ndarray
    win_rate_per_agent_se: np.ndarray
    mean_payoff_at_threshold: float
    mean_payoff_se: float
    replications: int
    rank_win_rates: Optional[np.ndarray] = None  # agents x ranks, unconditional
    searcher_rank_rates: Optional[np.ndarray] = None  # pooled per-searcher
    searcher_rank_se: Optional[np.ndarray] = None


@dataclass(frozen=True)
class GainEstimate:
    value: float
    std_error: float
    replications: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.Philox(seq))


def _resolve(d: CostDistribution, cfg: ContestConfig, sim: SimConfig):
    """Validate and normalize (n, thresholds, F(thresholds), per-agent q, prizes)."""
    n = int(cfg.n)
    if n != cfg.n:
        raise InputError("simulation needs an integer field size n")
    thresholds = sim.thresholds
    if np.isscalar(thresholds):
        thr = np.full(n, float(thresholds))
    else:
        thr = np.asarray(thresholds, dtype=float)
        if thr.shape != (n,):
            raise InputError(f"expected {n} thresholds, got shape {thr.shape}")
    lo, hi = d.support()
    if not np.all((thr >= lo) & (thr <= hi)):
        raise InputError("thresholds must lie inside the support")

    variant = sim.variant
    if isinstance(variant, PerAgentFind):
        q_arr = np.asarray(variant.q_values, dtype=float)
        if q_arr.shape != (n,):
            raise InputError(f"expected {n} find probabilities, got shape {q_arr.shape}")
    else:
        q_arr = np.full(n, cfg.q)

    if isinstance(variant, RankPrizes):
        if variant.structure.n != n:
            raise InputError(
                f"structure has {variant.structure.n} prizes but n = {n}"
            )
        prizes = np.asarray(variant.structure.values, dtype=float)
    else:
        prizes = None
    F_thr = np.array([d.cdf(float(t)) for t in thr])
    return n, thr, F_thr, q_arr, prizes


def _chunks(sim: SimConfig, n: int):
    """Yield each chunk's draws: agent uniforms u (m x n), then the expert's
    uniforms w (m) for `WithExpert` and None otherwise."""
    reps = int(sim.replications)
    with_expert = isinstance(sim.variant, WithExpert)
    for chunk_index, done in enumerate(range(0, reps, CHUNK_SIZE)):
        m = min(CHUNK_SIZE, reps - done)
        rng = _chunk_rng(sim.seed, chunk_index)
        u = rng.random((m, n))
        yield u, rng.random(m) if with_expert else None


def _play(u, w, qF, variant, prizes):
    """Decide one chunk's contests; overwrites u with tie-break scores,
    u / (q F) for finders and -1 for everyone else.

    Returns (found, success, outcome). For rank prizes the outcome is each
    agent's 0-based rank among the finders (non-finders rank last);
    otherwise it is (winner, crowd_wins): the crowd's best finder and
    whether the crowd keeps the prize.
    """
    found = u < qF
    u *= np.divide(1.0, qF, out=np.zeros_like(qF), where=qF > 0.0)
    np.putmask(u, ~found, -1.0)
    success = found.any(axis=1)
    if prizes is not None:
        return found, success, np.argsort(np.argsort(-u, axis=1), axis=1)

    crowd_wins = success
    if w is not None:
        expert_found = w < variant.q_e
        success = success | expert_found
        if variant.mode == "expert_keeps":
            crowd_wins = crowd_wins & ~expert_found
        elif variant.q_e > 0.0:
            # The expert joins the tie-break when they find.
            crowd_wins = crowd_wins & (~expert_found | (u.max(axis=1) > w / variant.q_e))
    return found, success, (u.argmax(axis=1), crowd_wins)


def simulate(d: CostDistribution, cfg: ContestConfig, sim: SimConfig) -> SimEstimate:
    """Run the contest sim.replications times and aggregate outcomes."""
    n, thr, F_thr, q_arr, prizes = _resolve(d, cfg, sim)
    reps = int(sim.replications)
    qF = q_arr * F_thr

    # Accumulators. X = per-replication searcher payout events, S = number
    # of searchers; their cross moments feed the ratio-estimator SEs.
    found_total = 0.0
    agent_wins = np.zeros(n)
    rank_counts = np.zeros((n, n)) if prizes is not None else None  # agent x rank
    sum_X = sum_S = sum_XX = sum_SS = sum_XS = 0.0
    sum_pay = sum_pay_sq = sum_pay_S = 0.0  # per-replication prize totals
    sum_thr_searched = 0.0  # sum of thresholds over searching agents

    for u, w in _chunks(sim, n):
        searched = u < F_thr
        found, success, outcome = _play(u, w, qF, sim.variant, prizes)
        found_total += float(np.count_nonzero(success))
        if prizes is None:
            winner, crowd_wins = outcome
            X = crowd_wins.astype(float)
            pay = cfg.V * X
            agent_wins += np.bincount(winner[crowd_wins], minlength=n)
        else:
            X = found.sum(axis=1).astype(float)  # finders all get some rank
            pay = (prizes[outcome] * found).sum(axis=1)
            cells = (np.arange(n) * n + outcome)[found]
            rank_counts += np.bincount(cells, minlength=n * n).reshape(n, n)

        S = searched.sum(axis=1).astype(float)
        searched_per_agent = searched.sum(axis=0)
        sum_X += float(X.sum())
        sum_S += float(S.sum())
        sum_XX += float((X * X).sum())
        sum_SS += float((S * S).sum())
        sum_XS += float((X * S).sum())
        sum_pay += float(pay.sum())
        sum_pay_sq += float((pay * pay).sum())
        sum_pay_S += float((pay * S).sum())
        sum_thr_searched += float(searched_per_agent @ thr)

    N = float(reps)
    p_success = found_total / N
    success_se = math.sqrt(max(p_success * (1.0 - p_success), 0.0) / N)

    if prizes is not None:
        agent_wins = rank_counts[:, 0]
    win_rate = agent_wins / N
    win_se = np.sqrt(np.maximum(win_rate * (1.0 - win_rate), 0.0) / N)

    win_ratio, win_ratio_se = _ratio_estimate(sum_X, sum_S, sum_XX, sum_SS, sum_XS, N)

    # Payoff of a cutoff-cost agent: per-searcher expected prize minus the
    # search-weighted mean cutoff (= the common cutoff when symmetric).
    pay_ratio, pay_ratio_se = _ratio_estimate(
        sum_pay, sum_S, sum_pay_sq, sum_SS, sum_pay_S, N
    )
    mean_thr = sum_thr_searched / sum_S if sum_S > 0.0 else 0.0

    rank_fields = {}
    if prizes is not None:
        # Every searcher is counted in sum_S, so it is 0 or at least 1.
        pooled = rank_counts.sum(axis=0) / max(sum_S, 1.0)
        rank_fields = dict(
            rank_win_rates=rank_counts / N,
            searcher_rank_rates=pooled,
            searcher_rank_se=np.sqrt(pooled * (1.0 - pooled) / max(sum_S, 1.0)),
        )
    return SimEstimate(
        success_rate=p_success,
        success_se=success_se,
        searcher_win_rate=win_ratio,
        searcher_win_se=win_ratio_se,
        win_rate_per_agent=win_rate,
        win_rate_per_agent_se=win_se,
        mean_payoff_at_threshold=pay_ratio - mean_thr,
        mean_payoff_se=pay_ratio_se,
        replications=reps,
        **rank_fields,
    )


def _ratio_estimate(sx, ss, sxx, sss, sxs, N):
    """Delta-method mean and SE for sum(X)/sum(S) over N replications."""
    if ss <= 0.0:
        return 0.0, 0.0
    mean_x = sx / N
    mean_s = ss / N
    ratio = sx / ss
    var_x = max(sxx / N - mean_x**2, 0.0)
    var_s = max(sss / N - mean_s**2, 0.0)
    cov = sxs / N - mean_x * mean_s
    var_ratio = (var_x - 2.0 * ratio * cov + ratio**2 * var_s) / (N * mean_s**2)
    return ratio, math.sqrt(max(var_ratio, 0.0))


def deviation_gain(
    d: CostDistribution,
    cfg: ContestConfig,
    sim: SimConfig,
    at_cost: float,
) -> GainEstimate:
    """Estimated payoff gain from searching at a fixed cost.

    The tagged agent (sorted position 0 for per-agent variants) always
    searches at cost ``at_cost`` while rivals play the configured
    thresholds; the gain is their expected prize minus the cost. At the
    equilibrium cutoff this should be statistically indistinguishable
    from zero.
    """
    n, thr, F_thr, q_arr, prizes = _resolve(d, cfg, sim)
    d._check_in_support(at_cost)
    # The tagged agent always searches, so their find chance is the bare q.
    qF = q_arr * F_thr
    qF[0] = q_arr[0]

    sum_prize = 0.0
    sum_prize_sq = 0.0
    for u, w in _chunks(sim, n):
        found, _, outcome = _play(u, w, qF, sim.variant, prizes)
        if prizes is None:
            winner, crowd_wins = outcome
            prize_tagged = cfg.V * (crowd_wins & (winner == 0))
        else:
            prize_tagged = prizes[outcome[:, 0]] * found[:, 0]
        sum_prize += float(prize_tagged.sum())
        sum_prize_sq += float((prize_tagged * prize_tagged).sum())

    N = float(sim.replications)
    mean_prize = sum_prize / N
    var = max(sum_prize_sq / N - mean_prize**2, 0.0)
    return GainEstimate(
        value=mean_prize - at_cost,
        std_error=math.sqrt(var / N),
        replications=int(sim.replications),
    )

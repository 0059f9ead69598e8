"""Simulation cross-checks for the closed-form contest quantities.

Replications run in fixed-size chunks, each chunk from its own
counter-based substream (Philox keyed by the master seed and the chunk
index), so results are bit-identical for a given (seed, replications,
config) regardless of how chunks might be scheduled. Each call takes one
of two paths, chosen from its inputs alone.

Count path: `Baseline`, `WithExpert` and `RankPrizes` when every agent
plays the same threshold (for `deviation_gain`, every rival does). Agents
are then alike, and counts decide each replication: searchers
S ~ Bin(n, F), finders K ~ Bin(S, q) (binomial thinning, the fact the
closed forms rest on), one Bernoulli(q_e) for the expert and one uniform
for the tie-break. The expert takes a shared prize from K crowd finders
with chance 1/(K+1). By exchangeability the agent who wins at each rank
is uniform over the field, so once every chunk is done `simulate` spreads
each rank's wins over the agents with one Multinomial(wins, 1/n) draw
from the seed's root stream, which no chunk uses. A chunk costs
O(replications) whatever n is.

Dense path: `PerAgentFind` and unequal thresholds. Each agent consumes a
single uniform u per replication: search happens iff u < F(threshold),
the object is found iff u < q F(threshold) (the correct nested joint for
search-then-find), and conditional on finding u / (q F) is again uniform
and independent across finders, so its argmax implements the uniform
tie-break among finders exactly and its descending order ranks them. The
expert draws one more uniform w per replication and finds iff w < q_e,
with tie-break score w / q_e. A chunk costs O(replications x n). It
draws per agent, not per count, so a contest with equal thresholds
written as `PerAgentFind` cross-checks the count path.

`simulate` accumulates success and win rates with standard errors; the
pooled per-searcher rates use the delta-method SE for a ratio of
replication-level totals. `deviation_gain` is the same play with the
tagged agent (agent 0) searching for sure.
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


def _chunk_rng(seed: int, chunk_index: Optional[int] = None) -> np.random.Generator:
    """The stream of one chunk; without an index, the seed's root stream."""
    key = () if chunk_index is None else (int(chunk_index),)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _alike(variant, thr) -> bool:
    """Whether agents playing thresholds thr are exchangeable."""
    return not isinstance(variant, PerAgentFind) and bool(np.all(thr == thr[:1]))


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


def _chunk_rngs(sim: SimConfig):
    """Yield each chunk's replication count and stream."""
    reps = int(sim.replications)
    for chunk_index, done in enumerate(range(0, reps, CHUNK_SIZE)):
        yield min(CHUNK_SIZE, reps - done), _chunk_rng(sim.seed, chunk_index)


def _chunks(sim: SimConfig, n: int):
    """Yield each chunk's draws: agent uniforms u (m x n), then the expert's
    uniforms w (m) for `WithExpert` and None otherwise. No chunk stays
    referenced here while the next is drawn."""
    with_expert = isinstance(sim.variant, WithExpert)
    for m, rng in _chunk_rngs(sim):
        yield rng.random((m, n)), rng.random(m) if with_expert else None


def _count_chunks(sim: SimConfig, n: int, F: float, q: float):
    """Yield each chunk's draws for n alike agents: searchers S ~ Bin(n, F),
    finders K ~ Bin(S, q), whether the expert finds (`WithExpert` only,
    None otherwise) and one uniform v per replication."""
    with_expert = isinstance(sim.variant, WithExpert)
    for m, rng in _chunk_rngs(sim):
        S = rng.binomial(n, F, m)
        K = rng.binomial(S, q)
        x = rng.random(m) < sim.variant.q_e if with_expert else None
        yield S, K, x, rng.random(m)


def _play(u, w, qF, variant, prizes):
    """Decide one chunk's contests; overwrites u with tie-break scores,
    u / (q F) for finders and -1 for everyone else.

    Returns (found, success, outcome). For rank prizes the outcome is None:
    finders take the ranks in descending order of score. Otherwise it is
    (winner, crowd_wins): the crowd's best finder and whether the crowd
    keeps the prize.
    """
    found = u < qF
    # Only non-finders can overflow, and the mask overwrites them.
    with np.errstate(over="ignore"):
        u /= np.where(qF > 0.0, qF, 1.0)
    np.putmask(u, ~found, -1.0)
    success = found.any(axis=1)
    if prizes is not None:
        return found, success, None

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


def _takes_prize(finders, rivals, x, v, variant):
    """Whether one of `finders` takes the prize from `rivals` other finders
    and, where x, a finding expert, on the uniform tie-break draw v."""
    entrants = finders + rivals
    if x is None:
        return v * entrants < finders
    if variant.mode == "expert_keeps":
        return (v * entrants < finders) & ~x
    return v * (entrants + x) < finders


def _dense_tallies(sim, n, thr, F_thr, qF, V, prizes):
    """Each chunk's searchers S, payout events X and prize total pay per
    replication, then its successes, the sum of the searchers' thresholds
    and its agent x rank win counts. Mapping over the chunks frees each
    m x n draw before the next one is made."""
    agents = np.arange(n)

    def tally(draws):
        u, w = draws
        searched = u < F_thr
        found, success, outcome = _play(u, w, qF, sim.variant, prizes)
        if prizes is None:
            winner, crowd_wins = outcome
            X = crowd_wins.astype(float)
            pay = V * X
            wins = np.bincount(winner[crowd_wins], minlength=n)[:, None]
        else:
            # Each agent's 0-based rank among the finders (non-finders rank last).
            rank = np.empty_like(u, dtype=np.intp)
            np.put_along_axis(rank, np.argsort(-u, axis=1), agents, axis=1)
            X = found.sum(axis=1).astype(float)  # finders all get some rank
            pay = (prizes[rank] * found).sum(axis=1)
            cells = (agents * n + rank)[found]
            wins = np.bincount(cells, minlength=n * n).reshape(n, n)
        S = searched.sum(axis=1).astype(float)
        return S, X, pay, success, float(searched.sum(axis=0) @ thr), wins

    return map(tally, _chunks(sim, n))


def _count_tallies(sim, n, thr, F, q, V, prizes):
    """The same for n alike agents at threshold thr, except that the win
    counts are each rank's total over all agents."""
    if prizes is not None:
        top_total = np.concatenate(([0.0], np.cumsum(prizes)))  # paid when K find
    for S, K, x, v in _count_chunks(sim, n, F, q):
        success = K > 0 if x is None else (K > 0) | x
        if prizes is None:
            crowd_wins = _takes_prize(K, 0, x, v, sim.variant)
            X = crowd_wins.astype(float)
            pay = V * X
            wins = np.array([np.count_nonzero(crowd_wins)])
        else:
            X = K.astype(float)
            pay = top_total[K]
            # Someone takes rank r whenever K > r.
            wins = np.bincount(K, minlength=n + 1)[:0:-1].cumsum()[::-1]
        S = S.astype(float)
        yield S, X, pay, success, thr * float(S.sum()), wins


def simulate(d: CostDistribution, cfg: ContestConfig, sim: SimConfig) -> SimEstimate:
    """Run the contest sim.replications times and aggregate outcomes."""
    n, thr, F_thr, q_arr, prizes = _resolve(d, cfg, sim)
    reps = int(sim.replications)
    alike = _alike(sim.variant, thr)
    if alike:
        chunks = _count_tallies(sim, n, thr[0], F_thr[0], cfg.q, cfg.V, prizes)
    else:
        chunks = _dense_tallies(sim, n, thr, F_thr, q_arr * F_thr, cfg.V, prizes)

    # Accumulators. X = per-replication searcher payout events, S = number
    # of searchers; their cross moments feed the ratio-estimator SEs.
    found_total = 0.0
    wins = 0
    sum_X = sum_S = sum_XX = sum_SS = sum_XS = 0.0
    sum_pay = sum_pay_sq = sum_pay_S = 0.0  # per-replication prize totals
    sum_thr_searched = 0.0  # sum of thresholds over searching agents

    for S, X, pay, success, thr_searched, chunk_wins in chunks:
        found_total += float(np.count_nonzero(success))
        wins = wins + chunk_wins
        sum_X += float(X.sum())
        sum_S += float(S.sum())
        sum_XX += float((X * X).sum())
        sum_SS += float((S * S).sum())
        sum_XS += float((X * S).sum())
        sum_pay += float(pay.sum())
        sum_pay_sq += float((pay * pay).sum())
        sum_pay_S += float((pay * S).sum())
        sum_thr_searched += thr_searched
    if alike:
        # Each rank's winner is a uniform agent, independently per replication.
        wins = _chunk_rng(sim.seed).multinomial(wins, np.full(n, 1.0 / n)).T

    N = float(reps)
    p_success = found_total / N
    success_se = math.sqrt(max(p_success * (1.0 - p_success), 0.0) / N)

    win_rate = wins[:, 0] / N
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
        pooled = wins.sum(axis=0) / max(sum_S, 1.0)
        rank_fields = dict(
            rank_win_rates=wins / N,
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


def _dense_tagged_prizes(sim, n, qF, V, prizes):
    """Each chunk's prizes to agent 0 from the dense play."""

    def prize(draws):
        u, w = draws
        found, _, outcome = _play(u, w, qF, sim.variant, prizes)
        if prizes is None:
            winner, crowd_wins = outcome
            return V * (crowd_wins & (winner == 0))
        # Agent 0's rank is the number of finders who score higher.
        return prizes[np.count_nonzero(u > u[:, :1], axis=1)] * found[:, 0]

    return map(prize, _chunks(sim, n))


def _count_tagged_prizes(sim, n, F, q, V, prizes):
    """Yield each chunk's prizes to a tagged agent who always searches
    against n - 1 alike rivals. One uniform u per replication decides
    whether they find (u < q) and, as u / q, their tie-break draw. Rivals
    count only through their finds, so each one draws as a sure searcher
    who finds with chance q F: T ~ Bin(n - 1, q F)."""
    for _, T, x, u in _count_chunks(sim, n - 1, 1.0, q * F):
        found = u < q
        v = u / q
        if prizes is None:
            yield V * _takes_prize(found, T, x, v, sim.variant)
        else:
            # A tagged finder's rank is uniform on 0..T.
            yield prizes[np.minimum((v * (T + 1)).astype(np.intp), T)] * found


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
    if _alike(sim.variant, thr[1:]):
        chunks = _count_tagged_prizes(sim, n, F_thr[-1], cfg.q, cfg.V, prizes)
    else:
        # The tagged agent always searches, so their find chance is the bare q.
        qF = q_arr * F_thr
        qF[0] = q_arr[0]
        chunks = _dense_tagged_prizes(sim, n, qF, cfg.V, prizes)

    sum_prize = 0.0
    sum_prize_sq = 0.0
    for prize_tagged in chunks:
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

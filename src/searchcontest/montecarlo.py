"""Simulation cross-checks for the closed-form contest quantities.

Replications run in fixed-size chunks, each chunk from its own substream
keyed by the master seed and the chunk index, so results are
bit-identical for a given (seed, replications, config) regardless of how
chunks might be scheduled. Each call takes one of two paths, chosen from
its inputs alone.

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
O(replications) whatever n is. Its chunks and the root stream use Philox:
they draw little, and staying on it keeps their estimates for a given seed
what earlier versions gave.

Dense path: `PerAgentFind` and unequal thresholds. Each agent consumes a
single uniform u per replication: search happens iff u < F(threshold),
and the object is found iff u < q F(threshold) (the correct nested joint
for search-then-find). The tie-break score is s = u / (q F). Division is
correctly rounded and the doubles below q F are at least 2^-53 q F
apart, so s < 1 exactly when u < q F; agents with q F = 0 score 1, since
u = 0 can be drawn. Conditional on finding, s is uniform on [0, 1) and
independent across finders, so the lowest score is a uniform finder (and
a finder whenever anyone found), and ascending scores rank the finders.
The expert draws one more uniform w per replication, finds iff w < q_e,
and scores w / q_e in a shared tie-break. A chunk costs
O(replications x n) and its draws dominate, so dense chunks come from
PCG64DXSM, which costs about 2.5x less per double than Philox. A chunk's
draws are read from its stream in slabs of about SLAB_DOUBLES doubles,
in order, into one small buffer, and played slab by slab, so a call's
memory no longer grows with n x chunk rows; the slabs hold exactly the
chunk's draws, and the estimates are the same whatever the slab size.
The dense path draws per agent, not per count, so a contest with equal
thresholds written as `PerAgentFind` cross-checks the count path.

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
from .expert import MODES
from .multiprize import PrizeStructure

CHUNK_SIZE = 1 << 14
SLAB_DOUBLES = 1 << 17  # agent uniforms a dense slab holds: 1 MiB


@dataclass(frozen=True)
class Baseline:
    pass


@dataclass(frozen=True)
class WithExpert:
    q_e: float
    mode: str = "shared"  # "shared" | "expert_keeps"

    def __post_init__(self):
        check_expert_probability(self.q_e)
        if self.mode not in MODES:
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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise InputError(f"seed must be a nonnegative integer, got {self.seed!r}")


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


def _chunk_rng(seed: int, chunk_index: Optional[int], bit_generator) -> np.random.Generator:
    """The stream of one chunk; with index None, the seed's root stream."""
    key = () if chunk_index is None else (int(chunk_index),)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(bit_generator(seq))


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
        try:
            thr = np.full(n, float(thresholds))
        except MemoryError:
            raise InputError(f"n = {n} agents do not fit in memory for simulation") from None
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
    if np.isscalar(thresholds):
        F_thr = np.full(n, d.cdf(float(thr[0])))
    else:
        F_thr = np.array([d.cdf(float(t)) for t in thr])
    return n, thr, F_thr, q_arr, prizes


def _chunk_rngs(sim: SimConfig, bit_generator):
    """Yield each chunk's replication count and stream."""
    reps = int(sim.replications)
    for chunk_index, done in enumerate(range(0, reps, CHUNK_SIZE)):
        yield min(CHUNK_SIZE, reps - done), _chunk_rng(sim.seed, chunk_index, bit_generator)


def _chunks(sim: SimConfig, n: int):
    """Yield each chunk's replication count m, its slabs and its stream.
    A slab is (rows, u): a slice of the chunk's rows and their agent
    uniforms u (len(rows) x n). Slabs read the stream in row order, so
    together they hold the chunk's draws whatever their size. Every u is a
    view of one buffer of at most max(1, SLAB_DOUBLES // n) rows that the
    next slab overwrites, so a caller must be done with a slab, and keep no
    view of it, before asking for the next. Once the slabs are done, the
    stream's next m doubles are the expert's uniforms w (`_expert_draws`)."""
    height = min(max(1, SLAB_DOUBLES // n), CHUNK_SIZE, int(sim.replications))
    buf = np.empty((height, n))

    def slabs(rng, m):
        for lo in range(0, m, height):
            hi = min(lo + height, m)
            yield slice(lo, hi), rng.random(out=buf[: hi - lo])

    for m, rng in _chunk_rngs(sim, np.random.PCG64DXSM):
        yield m, slabs(rng, m), rng


def _expert_draws(sim: SimConfig, rng, m: int):
    """The expert's uniforms w (m) for `WithExpert`, None otherwise."""
    return rng.random(m) if isinstance(sim.variant, WithExpert) else None


def _count_chunks(sim: SimConfig, n: int, F: float, q: float):
    """Yield each chunk's draws for n alike agents: searchers S ~ Bin(n, F),
    finders K ~ Bin(S, q), whether the expert finds (`WithExpert` only,
    None otherwise) and one uniform v per replication."""
    with_expert = isinstance(sim.variant, WithExpert)
    for m, rng in _chunk_rngs(sim, np.random.Philox):
        S = rng.binomial(n, F, m)
        K = rng.binomial(S, q)
        x = rng.random(m) < sim.variant.q_e if with_expert else None
        yield S, K, x, rng.random(m)


def _score(u, qF):
    """Overwrite u with the tie-break scores s = u / (q F) and return them:
    an agent finds iff s < 1. Columns with q F = 0 score 1."""
    found_never = qF <= 0.0
    # Only non-finders can overflow, and any score >= 1 is a miss.
    with np.errstate(over="ignore"):
        u /= np.where(found_never, 1.0, qF)
    u[:, found_never] = 1.0
    return u


def _play(u, qF, ranked):
    """Decide one slab's contests among the crowd; overwrites u with the
    tie-break scores (see `_score`).

    Returns (success, outcome): whether anyone in the crowd found and, for
    rank prizes, (found, rank): who found, and each agent's 0-based rank in
    ascending order of score, so that the finders hold the top ranks.
    Otherwise the outcome is (winner, best): the agent with the lowest
    score, who is a uniform finder whenever anyone found, and that score.
    """
    s = _score(u, qF)
    if ranked:
        found = s < 1.0
        rank = np.empty(s.shape, dtype=np.intp)
        np.put_along_axis(rank, s.argsort(axis=1), np.arange(s.shape[1]), axis=1)
        return found.any(axis=1), (found, rank)
    winner = s.argmin(axis=1)
    best = np.take_along_axis(s, winner[:, None], axis=1)[:, 0]
    return best < 1.0, (winner, best)


def _settle(success, best, w, variant):
    """Whether anyone found and whether the crowd keeps the prize, from the
    crowd's successes and best scores and the expert's uniforms w (None
    without an expert)."""
    crowd_wins = success
    if w is not None:
        expert_found = w < variant.q_e
        success = success | expert_found
        if variant.mode == "expert_keeps":
            crowd_wins = crowd_wins & ~expert_found
        elif variant.q_e > 0.0:
            # The expert joins the tie-break, and scores at least 1 unless they find.
            with np.errstate(over="ignore"):
                crowd_wins = crowd_wins & (best < w / variant.q_e)
    return success, crowd_wins


def _takes_prize(finders, rivals, x, v, variant):
    """Whether one of `finders` takes the prize from `rivals` other finders
    and, where x, a finding expert, on the uniform tie-break draw v."""
    entrants = finders + rivals
    if x is None:
        return v * entrants < finders
    if variant.mode == "expert_keeps":
        return (v * entrants < finders) & ~x
    return v * (entrants + x) < finders


def _dense_tallies(sim, n, thr, F_thr, qF, V, top_total):
    """Each chunk's searchers S, payout events X and prize total pay per
    replication, then its successes, the sum of the searchers' thresholds
    and its agent x rank win counts. Slabs fill the per-replication arrays.
    Searches per agent are counted in integers and dotted with thr once a
    chunk. Finders wait as cells rank * n + agent until they outnumber the
    cells of the ranks they reach, or the chunk ends; then one bincount
    over those ranks counts them, so counting costs O(finders)."""
    ranked = top_total is not None
    agents = np.arange(n)
    for m, slabs, rng in _chunks(sim, n):
        S = np.empty(m)
        success = np.empty(m, dtype=bool)
        searches = np.zeros(n, dtype=np.intp)
        if ranked:
            K = np.empty(m, dtype=np.intp)
            table = np.zeros((n, n), dtype=np.intp)  # rank x agent
            cells, top = [], 0
        else:
            winner = np.empty(m, dtype=np.intp)
            best = np.empty(m)
        for rows, u in slabs:
            searched = u < F_thr
            S[rows] = searched.sum(axis=1)
            searches += searched.sum(axis=0)
            success[rows], outcome = _play(u, qF, ranked)
            if not ranked:
                winner[rows], best[rows] = outcome
                continue
            found, rank = outcome
            K[rows] = found.sum(axis=1)
            cells.append((rank * n + agents)[found])
            top = max(top, int(K[rows].max()))
            if sum(map(len, cells)) >= top * n or rows.stop == m:
                counts = np.bincount(np.concatenate(cells), minlength=top * n)
                table[:top] += counts.reshape(top, n)
                cells, top = [], 0
        if ranked:
            X = K.astype(float)
            pay = top_total[K]  # finders score below 1, so they hold the top K ranks
            wins = table.T
        else:
            success, crowd_wins = _settle(success, best, _expert_draws(sim, rng, m), sim.variant)
            X = crowd_wins.astype(float)
            pay = V * X
            wins = np.bincount(winner[crowd_wins], minlength=n)[:, None]
        yield S, X, pay, success, float(searches @ thr), wins


def _count_tallies(sim, n, thr, F, q, V, top_total):
    """The same for n alike agents at threshold thr, except that the win
    counts are each rank's total over all agents."""
    for S, K, x, v in _count_chunks(sim, n, F, q):
        success = K > 0 if x is None else (K > 0) | x
        if top_total is None:
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
    # The prizes paid when the top K ranks are taken, for K = 0..n.
    top_total = None if prizes is None else np.concatenate(([0.0], np.cumsum(prizes)))
    if alike:
        chunks = _count_tallies(sim, n, thr[0], F_thr[0], cfg.q, cfg.V, top_total)
    else:
        chunks = _dense_tallies(sim, n, thr, F_thr, q_arr * F_thr, cfg.V, top_total)

    # Accumulators. X = per-replication searcher payout events, S = number
    # of searchers; their cross moments feed the ratio-estimator SEs.
    found_total = 0.0
    wins = 0
    sum_X = sum_S = sum_XX = sum_SS = sum_XS = 0.0
    sum_pay = sum_pay_sq = sum_pay_S = 0.0  # per-replication prize totals
    sum_thr_searched = 0.0  # sum of thresholds over searching agents

    for S, X, pay, success, thr_searched, chunk_wins in chunks:
        found_total += float(np.count_nonzero(success))
        wins += chunk_wins
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
        wins = _chunk_rng(sim.seed, None, np.random.Philox).multinomial(
            wins, np.full(n, 1.0 / n)
        ).T

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
    for m, slabs, rng in _chunks(sim, n):
        if prizes is None:
            success = np.empty(m, dtype=bool)
            tagged = np.empty(m, dtype=bool)
            best = np.empty(m)
            for rows, u in slabs:
                success[rows], (winner, best[rows]) = _play(u, qF, False)
                tagged[rows] = winner == 0
            _, crowd_wins = _settle(success, best, _expert_draws(sim, rng, m), sim.variant)
            yield V * (crowd_wins & tagged)
        else:
            prize = np.empty(m)
            for rows, u in slabs:
                # Agent 0's rank is the number of finders who score lower.
                s = _score(u, qF)
                prize[rows] = prizes[np.count_nonzero(s < s[:, :1], axis=1)] * (s[:, 0] < 1.0)
            yield prize


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

    The tagged agent, agent 0 (with find probability ``q_values[0]`` for
    `PerAgentFind`), always searches at cost ``at_cost`` while rivals play
    the configured thresholds; the gain is their expected prize minus the
    cost. At the equilibrium cutoff this should be statistically
    indistinguishable from zero.
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

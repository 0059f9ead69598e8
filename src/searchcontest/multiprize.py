"""Rank-ordered prize structures: several prizes split by finding order.

With n agents and a nonincreasing prize vector (v_1, ..., v_n), every
finder draws a uniform rank among the finders and rank m pays v_m. The
per-searcher value of searching is sum_m v_m * rank_win_probability(m),
and the equilibrium cutoff is the fixed point of that aggregate map.

Key facts used here (all checked against independent oracles in tests):

- the number of finders is Binomial(n, q F) (searcher thinning), so
  "at least m find" is a binomial tail;
- a searcher's rival finder count T is Binomial(n-1, q F) and their rank
  is uniform on {1, ..., T+1}, giving the single-sum forms below;
- rank_win_probability(m) = prob_at_least_m_find(m) / (n F);
- the aggregate map is q E[mean of the top T+1 prizes], a Bernstein
  polynomial in q F with nonincreasing coefficients, so c minus the map
  strictly increases and has at most one root (Farouki 2012).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from ._errors import ConvergenceError, InputError, check_find_probability, check_positive
from ._numerics import solve_cutoff, win_rate
from .distributions import CostDistribution
from .equilibrium import (
    ContestConfig,
    EquilibriumResult,
    solve_threshold,
    success_probability,
    win_probability,
)
from .principal import _best_cutoff, stakes_for_threshold


@dataclass(frozen=True)
class PrizeStructure:
    """Nonincreasing, nonnegative prize vector; total is the purse V."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise InputError("prize structure needs at least one prize")
        if any(v < 0.0 or not math.isfinite(v) for v in vals):
            raise InputError("prizes must be nonnegative and finite")
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise InputError("prizes must be nonincreasing in rank")
        if sum(vals) <= 0.0:
            raise InputError("total prize money must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @staticmethod
    def winner_takes_all(V: float, n: int) -> "PrizeStructure":
        return PrizeStructure((float(V),) + (0.0,) * (int(n) - 1))

    @staticmethod
    def equal_split(V: float, n: int) -> "PrizeStructure":
        return PrizeStructure((float(V) / int(n),) * int(n))

    @staticmethod
    def mixed(V: float, n: int, weight: float) -> "PrizeStructure":
        """Convex mix: weight on winner-takes-all, rest on the equal split."""
        if not (0.0 <= weight <= 1.0):
            raise InputError(f"mix weight must lie in [0, 1], got {weight}")
        base = (1.0 - weight) * float(V) / int(n)
        vals = [base + weight * float(V)] + [base] * (int(n) - 1)
        return PrizeStructure(tuple(vals))


def _check_rank_args(d: CostDistribution, q: float, n: int, m: int, c_hat: float) -> float:
    check_find_probability(q)
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError(f"n must be an integer >= 1, got {n!r}")
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n):
        raise InputError(f"rank m must be an integer in [1, {n}], got {m!r}")
    d._check_in_support(c_hat)
    return d.cdf(c_hat)


def prob_at_least_m_find(
    d: CostDistribution, q: float, n: int, m: int, c_hat: float
) -> float:
    """Probability that at least m agents find the object at cutoff c_hat.

    The finder count is Binomial(n, q F(c_hat)) by thinning, so this is
    its upper tail at m.
    """
    F = _check_rank_args(d, q, n, m, c_hat)
    return float(binom.sf(m - 1, n, q * F))


def rank_win_probability(
    d: CostDistribution, q: float, n: int, m: int, c_hat: float
) -> float:
    """Probability a searching agent ends up with the rank-m prize.

    Ratio form prob_at_least_m_find / (n F); at F = 0 it is q for m = 1
    (a lone searcher who finds takes the top rank) and 0 for m > 1.
    """
    F = _check_rank_args(d, q, n, m, c_hat)
    if m == 1:
        return q * win_rate(q * F, float(n))
    if F == 0.0:
        return 0.0
    return prob_at_least_m_find(d, q, n, m, c_hat) / (n * F)


def _rival_finder_pmf(q: float, n: int, F: float) -> np.ndarray:
    """pmf of a searcher's rival finder count: Binomial(n-1, q F)."""
    if q * F < 1e-300:  # a point mass at 0 to double precision; scipy overflows near 1e-308
        return np.eye(1, n)[0]
    return binom.pmf(np.arange(n), n - 1, q * F)


def expected_prize_per_searcher(
    d: CostDistribution, q: float, n: int, structure: PrizeStructure, c_hat: float
) -> float:
    """Aggregate map sum_m v_m * rank_win_probability(m), evaluated in O(n).

    A finder with T rival finders collects the average of the top T+1
    prizes, so the sum collapses to q * E[mean of top T+1 prizes].
    """
    if structure.n != n:
        raise InputError(f"structure has {structure.n} prizes but n = {n}")
    F = _check_rank_args(d, q, n, 1, c_hat)
    v = np.asarray(structure.values)
    top_means = np.cumsum(v) / np.arange(1, n + 1)
    return q * float(np.dot(_rival_finder_pmf(q, n, F), top_means))


def expected_payout(
    d: CostDistribution, q: float, n: int, structure: PrizeStructure, c_hat: float
) -> float:
    """Designer's expected prize bill: sum_m v_m * prob_at_least_m_find(m)."""
    if structure.n != n:
        raise InputError(f"structure has {structure.n} prizes but n = {n}")
    F = _check_rank_args(d, q, n, 1, c_hat)
    tails = binom.sf(np.arange(n), n, q * F)  # P(T >= m), m = 1..n
    return float(np.dot(np.asarray(structure.values), tails))


def solve_threshold_multi(
    d: CostDistribution,
    q: float,
    n: int,
    structure: PrizeStructure,
) -> EquilibriumResult:
    """Equilibrium cutoff under a rank-ordered prize structure.

    Interior when v_1*q > c_lo and the aggregate map at c_hi is below
    c_hi; otherwise clamps to the violated endpoint. The interior cutoff
    is unique (see the module docstring), so one solve_cutoff finds it.
    """
    lo, hi = d.support()

    def m_map(c: float) -> float:
        return expected_prize_per_searcher(d, q, n, structure, c)

    c, interior = solve_cutoff(m_map, lo, hi)
    cfg = ContestConfig(n=float(n), q=q, V=structure.total)
    return EquilibriumResult(
        threshold=c,
        success_prob=success_probability(d, cfg, c),
        expected_searchers=n * d.cdf(c),
        # Expected prize share per searcher relative to the purse.
        win_prob=m_map(c) / structure.total,
        interior=interior,
        residual=abs(c - m_map(c)),
    )


def achievable_interval(d: CostDistribution, q: float, n: int, V: float) -> tuple[float, float]:
    """Cutoffs reachable by some prize structure with purse V.

    The equal split gives the lowest cutoff (V q / n when interior) and
    winner-takes-all the highest (the baseline c*(V)).
    """
    lo_res = solve_threshold_multi(d, q, n, PrizeStructure.equal_split(V, n))
    hi_res = solve_threshold(d, ContestConfig(n=float(n), q=q, V=V))
    return (lo_res.threshold, hi_res.threshold)


def principal_value_multi(
    d: CostDistribution,
    q: float,
    n: int,
    W: float,
    structure: PrizeStructure,
) -> float:
    """Designer's expected payoff W*P - payouts at the induced equilibrium."""
    check_positive("W", W)
    res = solve_threshold_multi(d, q, n, structure)
    return W * res.success_prob - expected_payout(d, q, n, structure, res.threshold)


@dataclass(frozen=True)
class StructureSolution:
    threshold: float
    structure: PrizeStructure
    mix_weight: float  # weight on winner-takes-all in the optimal mix
    regime: str  # "equal-split" | "interior-mix" | "winner-takes-all"
    value: float
    stakes_window: tuple[float, float]
    certified: bool  # always True: the target cutoff is an exact maximum


def optimal_prize_structure(
    d: CostDistribution,
    q: float,
    n: int,
    W: float,
    V: float,
) -> StructureSolution:
    """Best prize structure with purse V for a designer with stakes W.

    The designer's payoff depends on the structure only through the
    induced cutoff, so the problem reduces to: maximize the designer's
    objective exactly over the achievable interval, then realize that
    cutoff with a winner-takes-all / equal-split mix. The mix weight
    solves lam*V*Phi1(c) + (1-lam)*V*q/n = c at the target cutoff.
    """
    check_positive("V", V)
    a, b = achievable_interval(d, q, n, V)
    target = _best_cutoff(d, q, float(n), W, a, b)

    cfg = ContestConfig(n=float(n), q=q, V=V)
    edge_tol = max(1e-12, 1e-9 * max(b - a, 1.0))
    if target <= a + edge_tol:
        weight, regime = 0.0, "equal-split"
    elif target >= b - edge_tol:
        weight, regime = 1.0, "winner-takes-all"
    else:
        denom = V * win_probability(d, cfg, target) - V * q / n
        numer = target - V * q / n
        if denom <= 0.0 or not (0.0 <= numer <= denom):
            raise ConvergenceError(
                f"mix weight for cutoff {target} fell outside [0, 1]"
            )
        weight, regime = numer / denom, "interior-mix"
    structure = PrizeStructure.mixed(V, n, weight)
    value = principal_value_multi(d, q, n, W, structure)
    window = (
        stakes_for_threshold(d, q, float(n), a),
        stakes_for_threshold(d, q, float(n), b),
    )
    return StructureSolution(
        threshold=target,
        structure=structure,
        mix_weight=weight,
        regime=regime,
        value=value,
        stakes_window=window,
        certified=True,
    )

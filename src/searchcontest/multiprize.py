"""Rank-ordered prize structures: several prizes split by finding order.

With n agents and a nonincreasing prize vector (v_1, ..., v_n), every
finder draws a uniform rank among the finders and rank m pays v_m. The
per-searcher value of searching is sum_m v_m * rank_win_probability(m),
and the equilibrium cutoff is the fixed point of that aggregate map.

Key facts used here (all checked against independent oracles in tests):

- every rank quantity is a sum over one law: a searcher's rival finder
  count T ~ Binomial(n-1, q F), with a finder's rank uniform on
  {1, ..., T+1}, so rank_win_probability(m) = q E[1{T >= m-1} / (T+1)];
- each agent searches with chance F, so at least m find with chance
  n F rank_win_probability(m) and the designer pays n F times the map;
- the aggregate map is q E[mean of the top T+1 prizes], a Bernstein
  polynomial in q F with nonincreasing coefficients, so c minus the map
  strictly increases and has at most one root (Farouki 2012).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import InputError, check_find_probability, check_positive
from ._numerics import prob_any, solve_cutoff
from .distributions import CostDistribution
from .equilibrium import (
    ContestConfig,
    EquilibriumResult,
    _solve_symmetric,
    solve_threshold,
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
        return PrizeStructure.mixed(V, n, 1.0)

    @staticmethod
    def equal_split(V: float, n: int) -> "PrizeStructure":
        return PrizeStructure.mixed(V, n, 0.0)

    @staticmethod
    def mixed(V: float, n: int, weight: float) -> "PrizeStructure":
        """Convex mix: weight on winner-takes-all, rest on the equal split."""
        if not (0.0 <= weight <= 1.0):
            raise InputError(f"mix weight must lie in [0, 1], got {weight}")
        base = (1.0 - weight) * float(V) / int(n)
        try:
            return PrizeStructure((base + weight * float(V),) + (base,) * (int(n) - 1))
        except MemoryError:
            raise InputError(f"n = {n} prizes do not fit in memory") from None


def _check_field(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InputError(f"n must be an integer >= 1, got {n!r}")


def _check_rank_args(d: CostDistribution, q: float, n: int, m: int, c_hat: float) -> float:
    check_find_probability(q)
    _check_field(n)
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n):
        raise InputError(f"rank m must be an integer in [1, {n}], got {m!r}")
    d._check_in_support(c_hat)
    return d.cdf(c_hat)


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting constant
_TAIL = 1492.0  # 2 * 746: below e^-746 < 2^-1075 of the peak the pmf rounds to 0


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a * b rounded, and its rounding error exactly (Dekker's product)."""
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _binomial_pmf(N: int, x: float) -> np.ndarray:
    """pmf of Binomial(N, x) on 0..N; a point mass at x <= 0 or x >= 1.

    Products of the ratios pmf(j) / pmf(j - 1) = (N + 1 - j) x / (j y),
    y = 1 - x, running outward from the mode and rescaled to unit total.
    Near the mode each ratio is 1 + ((N + 1) x - j) / (j y), with (N + 1) x
    carried to twice working precision, so that a rounding error scales
    with the ratio's distance from 1 and cannot pile up along the products,
    even where x is close to a fraction with a small denominator: against
    mpmath the relative error at the mode and 3 standard deviations out
    stays within 5e-15 up to N = 1e6. Where a ratio falls below 1/2 (only
    past the mode, where the pmf already falls geometrically) it is taken
    as written.

    Since log(ratio) <= ratio - 1, the pmf is below e^-746 of its peak
    more than (b + sqrt(b^2 + 4 T m y)) / 2 above the mode, b = 1 + T y,
    and more than (1 + sqrt(1 + 4 T m)) / 2 below it, where m = (N + 1) x
    and T = 1492. It is set to 0 there rather than left to crawl through
    subnormal doubles, where p r rounds back to p for r near 1.
    """
    if x <= 0.0 or x >= 1.0:
        return np.eye(1, N + 1, N if x >= 1.0 else 0)[0]
    y = 1.0 - x
    m, m_lo = _two_prod(N + 1.0, x)  # (N + 1) x = m + m_lo exactly
    mode = min(int(m), N)
    near = min(int(2.0 * m / (1.0 + x)), N)  # ratio(j) >= 1/2 for j <= near
    pmf = np.arange(N + 1.0)
    j = pmf[1:]  # j is spent, and pmf filled, once the ratios are made
    ratio = j * y  # ratio[j - 1] = pmf(j) / pmf(j - 1)
    t, r = j[:near], ratio[:near]
    np.subtract(m, t, out=t)
    t += m_lo
    np.divide(t, r, out=r)
    r += 1.0
    t, r = j[near:], ratio[near:]
    np.subtract(N + 1.0, t, out=t)
    t *= x
    np.divide(t, r, out=r)
    b = 1.0 + _TAIL * y
    top = mode + int(0.5 * (b + math.sqrt(b * b + 4.0 * _TAIL * m * y)))
    if top < N:
        ratio[top:] = 0.0
    pmf[mode] = 1.0
    np.multiply.accumulate(ratio[mode:], out=pmf[mode + 1:])
    if mode:
        r = ratio[:mode]
        np.divide(1.0, r, out=r)
        bottom = mode - int(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * _TAIL * m)))
        if bottom > 0:
            r[:bottom] = 0.0
        np.multiply.accumulate(r[::-1], out=pmf[:mode][::-1])
    pmf /= np.add.reduce(pmf)
    return pmf


def rank_win_probability(
    d: CostDistribution, q: float, n: int, m: int, c_hat: float
) -> float:
    """Probability a searching agent ends up with the rank-m prize.

    A finder with T ~ Binomial(n-1, q F) rival finders takes a uniform rank
    among T + 1, so this is q E[1{T >= m-1} / (T+1)], summed from the top.
    At F = 0 it is q for m = 1 (a lone finder takes the top rank) and 0
    for m > 1.
    """
    F = _check_rank_args(d, q, n, m, c_hat)
    shares = _binomial_pmf(n - 1, q * F) / np.arange(1, n + 1)
    return q * float(np.sum(shares[m - 1:][::-1]))


def prob_at_least_m_find(
    d: CostDistribution, q: float, n: int, m: int, c_hat: float
) -> float:
    """Probability that at least m agents find the object at cutoff c_hat.

    Each of the n agents searches with chance F and then holds rank m or
    better with chance rank_win_probability(m), so this is n F times it.
    """
    return n * d.cdf(c_hat) * rank_win_probability(d, q, n, m, c_hat)


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
    return q * float(_binomial_pmf(n - 1, q * F) @ top_means)


def expected_payout(
    d: CostDistribution, q: float, n: int, structure: PrizeStructure, c_hat: float
) -> float:
    """Designer's expected prize bill, sum_m v_m * prob_at_least_m_find(m).

    Each of the n agents searches with chance F and then expects the
    aggregate map, so the bill is n F expected_prize_per_searcher.
    """
    return n * d.cdf(c_hat) * expected_prize_per_searcher(d, q, n, structure, c_hat)


def solve_threshold_multi(
    d: CostDistribution,
    q: float,
    n: int,
    structure: PrizeStructure,
) -> EquilibriumResult:
    """Equilibrium cutoff under a rank-ordered prize structure.

    Interior when v_1*q > c_lo and the aggregate map at c_hi is below
    c_hi; otherwise clamps to the violated endpoint. The interior cutoff
    is unique (see the module docstring), so one cutoff solve finds it.
    """
    return _solve_symmetric(
        d,
        ContestConfig(n=float(n), q=q, V=structure.total),
        lambda c: expected_prize_per_searcher(d, q, n, structure, c),
    )


def achievable_interval(d: CostDistribution, q: float, n: int, V: float) -> tuple[float, float]:
    """Cutoffs reachable by some prize structure with purse V.

    The equal split (the constant map V q / n) gives the lowest cutoff and
    winner-takes-all the highest (the baseline c*(V)); at n = 1 both are one
    structure, and one solver makes both ends one double.
    """
    _check_field(n)
    hi_res = solve_threshold(d, ContestConfig(n=float(n), q=q, V=V))
    lo, _ = solve_cutoff(lambda c: V * q / n, *d.support())
    return (lo, hi_res.threshold)


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
    """top_prize pays rank 1 and other_prize each of ranks 2..n (none at n = 1)."""

    threshold: float
    top_prize: float
    other_prize: float
    mix_weight: float  # weight on winner-takes-all in the optimal mix
    regime: str  # "equal-split" | "interior-mix" | "winner-takes-all"
    value: float
    stakes_window: tuple[float, float]


def optimal_prize_structure(
    d: CostDistribution,
    q: float,
    n: int,
    W: float,
    V: float,
) -> StructureSolution:
    """Best prize structure with purse V for a designer with stakes W.

    The bill is n F(c) times the map at the induced cutoff c: exactly
    n c F(c) at an interior c, and at least that at the top of the support,
    with equality for the cheapest structure there. So over cheapest
    structures the payoff depends only on c: maximize it exactly over the
    achievable interval [a, b], then realize the target with the cheapest
    winner-takes-all / equal-split mix. Its map is
    lam*V*Phi1(c) + (1-lam)*V*q/n in closed form, Phi1 = win_probability,
    and its weight is 0 at a, 1 at an interior winner-takes-all cutoff b,
    and otherwise solves map(c) = c, clipped to [0, 1]; where
    winner-takes-all clamps at the top, that mix induces it for less.
    """
    check_positive("V", V)
    check_positive("W", W)
    a, b = achievable_interval(d, q, n, V)
    target = _best_cutoff(d, q, float(n), W, a, b)
    split = V * q / n
    wta = V * win_probability(d, ContestConfig(n=float(n), q=q, V=V), target)
    if target == a:
        weight, regime = 0.0, "equal-split"
    elif target == b < d.support()[1]:
        weight, regime = 1.0, "winner-takes-all"
    else:
        weight, regime = min(max((target - split) / (wta - split), 0.0), 1.0), "interior-mix"
    other = (1.0 - weight) * V / n  # the prizes of PrizeStructure.mixed
    F = d.cdf(target)
    window = (
        stakes_for_threshold(d, q, float(n), a),
        stakes_for_threshold(d, q, float(n), b),
    )
    return StructureSolution(
        threshold=target,
        top_prize=other + weight * V,
        other_prize=other,
        mix_weight=weight,
        regime=regime,
        value=W * prob_any(q * F, n) - n * F * (weight * wta + (1.0 - weight) * split),
        stakes_window=window,
    )

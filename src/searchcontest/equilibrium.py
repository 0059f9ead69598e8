"""Symmetric equilibrium of the baseline search contest.

n agents with private costs drawn from a common distribution decide whether
to search for an object; a searcher finds it with probability q, and the
prize V goes to one uniformly chosen finder. The unique symmetric
equilibrium is a threshold rule: search iff cost <= c*, where c* is the
fixed point of c = V * win_probability(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._errors import InputError, check_field_size, check_find_probability, check_positive
from ._numerics import bisect_root, prob_any, solve_cutoff, win_rate
from .distributions import CostDistribution


@dataclass(frozen=True)
class ContestConfig:
    """Contest primitives: field size n (real, >= 1), find probability q,
    prize value V."""

    n: float
    q: float
    V: float

    def __post_init__(self):
        check_field_size(self.n)
        check_find_probability(self.q)
        check_positive("V", self.V)


@dataclass(frozen=True)
class EquilibriumResult:
    threshold: float
    success_prob: float
    expected_searchers: float
    win_prob: float
    interior: bool
    residual: float


@dataclass(frozen=True)
class InteriorityCheck:
    """Margins of the two conditions for an interior equilibrium cutoff.

    lower_margin = qV - c_lo (the cheapest agent strictly gains from
    searching alone); upper_margin = c_hi - V * win_probability(c_hi) (the
    costliest agent strictly loses when everyone searches). Both must be
    positive for an interior fixed point.
    """

    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    upper_margin: float

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def win_probability(d: CostDistribution, cfg: ContestConfig, c_hat: float) -> float:
    """Probability a searching agent wins when everyone uses cutoff c_hat.

    Closed form (1 - (1 - q F)^n) / (n F), extended continuously to q at
    F = 0. Strictly decreasing in c_hat on the support.
    """
    d._check_in_support(c_hat)
    x = cfg.q * d.cdf(c_hat)
    # (1-(1-x)^n)/(nF) = q * (1-(1-x)^n)/(n x); win_rate handles x -> 0.
    return cfg.q * win_rate(x, cfg.n)


def success_probability(d: CostDistribution, cfg: ContestConfig, c_hat: float) -> float:
    """Probability the object is found: 1 - (1 - q F(c_hat))^n."""
    d._check_in_support(c_hat)
    return prob_any(cfg.q * d.cdf(c_hat), cfg.n)


def solve_threshold(d: CostDistribution, cfg: ContestConfig) -> EquilibriumResult:
    """Equilibrium cutoff: root of g(c) = c - V * win_probability(c).

    g is strictly increasing, so bisection is globally safe. When the
    interiority conditions fail the cutoff clamps to the relevant support
    endpoint (q V <= c_lo: nobody searches; V * win_probability(c_hi) >=
    c_hi: everybody does) and the result is flagged non-interior.
    """
    c, interior = solve_cutoff(
        lambda t: cfg.V * win_probability(d, cfg, t), *d.support()
    )
    w = win_probability(d, cfg, c)
    return EquilibriumResult(
        threshold=c,
        success_prob=success_probability(d, cfg, c),
        expected_searchers=cfg.n * d.cdf(c),
        win_prob=w,
        interior=interior,
        residual=abs(c - cfg.V * w),
    )


def check_interiority(d: CostDistribution, cfg: ContestConfig) -> InteriorityCheck:
    """Evaluate both interiority conditions with their margins."""
    lo, hi = d.support()
    lower = cfg.q * cfg.V - lo
    upper = hi - cfg.V * win_probability(d, cfg, hi)
    return InteriorityCheck(
        lower_ok=lower > 0.0,
        upper_ok=upper > 0.0,
        lower_margin=lower,
        upper_margin=upper,
    )


def sweep_n(
    d: CostDistribution,
    q: float,
    V: float,
    n_values,
) -> list[tuple[float, EquilibriumResult]]:
    """Solve the contest for each field size in n_values."""
    return [
        (float(n), solve_threshold(d, ContestConfig(n=float(n), q=q, V=V)))
        for n in n_values
    ]


def success_increasing_in_n(d: CostDistribution, q: float, c_star: float) -> bool:
    """Does equilibrium success probability rise as the field grows?

    Holds iff (1-y) ln(1-y) / (-y) >= 1 / (1 + F/(c f)) at the current
    cutoff, with y = q F(c_star). Requires F > 0 and f > 0 there.
    """
    check_find_probability(q)
    F = d.cdf(c_star)
    if F <= 0.0:
        raise InputError("condition needs F(c_star) > 0")
    f = d.pdf(c_star)
    if f <= 0.0:
        raise InputError("condition needs positive density at c_star")
    y = q * F
    if y >= 1.0:
        lhs = 0.0
    else:
        lhs = (1.0 - y) * math.log1p(-y) / (-y)
    rhs = 1.0 / (1.0 + F / (c_star * f))
    return lhs >= rhs


def q_bound_monotone_success(d: CostDistribution) -> float:
    """Largest find probability below which success always rises with n.

    Equals 1 / (1 + max_c c*f(c)), with the maximum taken in closed form
    by the distribution family.
    """
    return 1.0 / (1.0 + d.max_c_pdf())


def qf_cutoff_power(alpha: float) -> float:
    """Power-law cost cutoff on y = q F(c*) for success monotone in n.

    Root in (0, 1) of (1-y) ln(1-y) + y*alpha/(1+alpha) = 0; below it the
    success probability rises with the field size, above it falls.
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InputError(f"alpha must be positive, got {alpha}")
    ratio = alpha / (1.0 + alpha)

    def h(y: float) -> float:
        if y >= 1.0:
            return ratio
        return (1.0 - y) * math.log1p(-y) + y * ratio

    # h < 0 just above 0 (slope -1/(1+alpha)) and h(1) = ratio > 0.
    return bisect_root(h, 1e-12, 1.0)

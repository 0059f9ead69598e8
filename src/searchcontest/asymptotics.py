"""Large-field limits of the baseline contest.

As n grows the cutoff c_n falls toward the cheapest cost. When the support
floor is positive the expected number of searchers n*F(c_n) converges to a
finite mass kappa and the success probability to 1 - e^{-q kappa}; with a
zero floor participation diverges and success tends to 1. This module
solves for the limit quantities and fits empirical convergence rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._errors import InputError, check_find_probability, check_positive
from ._numerics import bisect_root, log_log_slope
from .distributions import CostDistribution
from .equilibrium import ContestConfig, solve_threshold

RATE_QUANTITIES = ("gap", "cdf", "cdf_product")


@dataclass(frozen=True)
class LimitResult:
    """Limiting expected searchers (inf when the floor is zero), limiting
    success probability, and which regime produced them."""

    expected_searchers: float
    success_prob: float
    regime: str  # "lower-bound-zero" | "lower-bound-positive"


@dataclass(frozen=True)
class RateEstimate:
    quantity: str
    slope: float
    r_squared: float


def _check_limit_args(c_lo: float, q: float, V: float) -> None:
    if c_lo < 0.0 or not math.isfinite(c_lo):
        raise InputError(f"support floor must be finite and >= 0, got {c_lo}")
    check_find_probability(q)
    check_positive("V", V)
    if c_lo >= q * V:
        raise InputError(
            f"need c_lo < q*V for an interior sequence (got {c_lo} >= {q * V})"
        )


def limit_expected_searchers(c_lo: float, q: float, V: float) -> float:
    """kappa = lim n*F(c_n): root of c_lo = V*(1 - e^{-q*kappa})/kappa.

    Returns +inf when c_lo = 0 (participation diverges). The map is
    strictly decreasing from q*V at 0+ to 0, and kappa <= V/c_lo because
    the numerator is at most V, so [1e-12, V/c_lo + 1] brackets the root.
    """
    _check_limit_args(c_lo, q, V)
    if c_lo == 0.0:
        return math.inf

    def gap(k: float) -> float:
        return V * (-math.expm1(-q * k)) / k - c_lo

    return bisect_root(gap, 1e-12, V / c_lo + 1.0)


def limit_success_probability(c_lo: float, q: float, V: float) -> float:
    """Limiting success probability: 1 when c_lo = 0, else 1 - e^{-q kappa}."""
    return limiting_behavior(c_lo, q, V).success_prob


def limiting_behavior(c_lo: float, q: float, V: float) -> LimitResult:
    """Bundle of the large-field limits for the given support floor; at a
    zero floor kappa = inf gives success probability 1."""
    kappa = limit_expected_searchers(c_lo, q, V)
    return LimitResult(
        expected_searchers=kappa,
        success_prob=-math.expm1(-q * kappa),
        regime="lower-bound-zero" if c_lo == 0.0 else "lower-bound-positive",
    )


def estimate_rate(
    d: CostDistribution,
    q: float,
    V: float,
    n_values,
    quantity: str = "gap",
) -> RateEstimate:
    """Log-log OLS rate of a convergence quantity along an n grid.

    quantity: "gap" for c_n - c_lo, "cdf" for F(c_n), "cdf_product" for
    c_n * F(c_n). Needs at least 3 field sizes; each must give an interior
    equilibrium.
    """
    if quantity not in RATE_QUANTITIES:
        raise InputError(f"quantity must be one of {RATE_QUANTITIES}, got {quantity!r}")
    n_list = [float(n) for n in n_values]
    if len(n_list) < 3:
        raise InputError("need at least 3 field sizes for a rate fit")
    lo, _ = d.support()
    ys = []
    for n in n_list:
        res = solve_threshold(d, ContestConfig(n=n, q=q, V=V))
        if not res.interior:
            raise InputError(f"equilibrium at n = {n} is not interior")
        c = res.threshold
        if quantity == "gap":
            y = c - lo
        elif quantity == "cdf":
            y = d.cdf(c)
        else:
            y = c * d.cdf(c)
        if y <= 0.0:
            raise InputError(f"quantity {quantity!r} vanished at n = {n}")
        ys.append(y)
    slope, r2 = log_log_slope(n_list, ys)
    return RateEstimate(quantity=quantity, slope=slope, r_squared=r2)


def limit_optimal_prize(c_lo: float, q: float, W: float) -> float:
    """Large-field limit of the profit-maximizing prize.

    W*c_lo*(ln(W q) - ln(c_lo)) / (W q - c_lo), which collapses to
    W * log1p(s)/s with s = W q / c_lo - 1 (value W at s = 0, the
    L'Hopital case). Zero when the support floor is zero: with free entry
    at the bottom an arbitrarily small prize still gets the object found.
    """
    if c_lo < 0.0 or not math.isfinite(c_lo):
        raise InputError(f"support floor must be finite and >= 0, got {c_lo}")
    check_find_probability(q)
    check_positive("W", W)
    if c_lo == 0.0:
        return 0.0
    if c_lo > W * q:
        raise InputError(
            f"need c_lo <= W*q for the limit prize (got {c_lo} > {W * q})"
        )
    s = W * q / c_lo - 1.0
    if s == 0.0:
        return W
    return W * math.log1p(s) / s

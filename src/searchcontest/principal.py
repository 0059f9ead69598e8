"""The designer's problem: choosing the prize that maximizes profit.

The designer values the found object at W, pays the prize only on success,
and in equilibrium the prize V pins down the cutoff c*(V). Recast over
cutoffs, the objective is

    objective(c) = -W (1 - q F(c))^n - n c F(c),

whose interior maximizer solves c = optimality_map(c) with

    optimality_map(c) = W q (1 - q F(c))^{n-1} - F(c)/f(c).

A nondecreasing reverse-hazard ratio F/f makes the fixed point unique;
``optimal_prize`` checks that condition exactly and falls back to
certified=False grid maximization when it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import InputError, check_find_probability, check_positive
from ._numerics import compl_pow, solve_cutoff
from .distributions import CostDistribution, check_reverse_hazard_monotone
from .equilibrium import ContestConfig, win_probability


@dataclass(frozen=True)
class PrizeSolution:
    threshold: float
    prize: float
    regime: str  # "lower-boundary" | "interior" | "upper-boundary" | "grid-fallback"
    objective_value: float
    certified: bool


@dataclass(frozen=True)
class GridCheck:
    ok: bool
    solver_threshold: float
    grid_threshold: float
    spacing: float
    difference: float


def _check_args(q: float, n: float, W: float) -> None:
    check_find_probability(q)
    if not (n >= 1.0 and math.isfinite(n)):
        raise InputError(f"n must be a finite real >= 1, got {n}")
    check_positive("W", W)


def objective(d: CostDistribution, q: float, n: float, W: float, c_hat: float) -> float:
    """Designer profit (net of the constant W) at cutoff c_hat."""
    _check_args(q, n, W)
    d._check_in_support(c_hat)
    F = d.cdf(c_hat)
    return -W * compl_pow(q * F, n) - n * c_hat * F


def optimality_map(d: CostDistribution, q: float, n: float, W: float, c_hat: float) -> float:
    """First-order-condition map; its fixed point is the optimal cutoff.

    At F = 0 the reverse-hazard term vanishes and the map equals W*q.
    Raises where the density is zero with F > 0 (ratio undefined).
    """
    _check_args(q, n, W)
    d._check_in_support(c_hat)
    F = d.cdf(c_hat)
    if F == 0.0:
        return W * q
    ratio = d.reverse_hazard(c_hat)  # raises on zero density
    return W * q * compl_pow(q * F, n - 1.0) - ratio


def stakes_window(d: CostDistribution, q: float, n: float) -> tuple[float, float]:
    """Range of designer stakes W giving an interior optimal cutoff.

    Below the window the designer prefers no search (cutoff at the floor);
    above it everyone is induced to search. The ceiling is +inf when q = 1
    or the density vanishes at the top of the support.
    """
    _check_args(q, n, 1.0)
    lo, hi = d.support()
    w_lo = lo / q
    if q == 1.0 and n > 1.0:
        return (w_lo, math.inf)
    try:
        f_hi = d.pdf(hi)
    except InputError:
        f_hi = 0.0
    if f_hi <= 0.0:
        return (w_lo, math.inf)
    denom = q * compl_pow(q, n - 1.0)
    if denom == 0.0:
        return (w_lo, math.inf)
    return (w_lo, (hi + 1.0 / f_hi) / denom)


def stakes_for_threshold(d: CostDistribution, q: float, n: float, c_hat: float) -> float:
    """Stakes level W whose optimal interior cutoff is exactly c_hat.

    Inverts the fixed-point relation: W = (c + F/f) / (q (1 - q F)^{n-1}).
    Used to report prize windows for restricted prize-structure problems.
    """
    _check_args(q, n, 1.0)
    F = d.cdf(c_hat)
    ratio = 0.0 if F == 0.0 else d.reverse_hazard(c_hat)
    denom = q * compl_pow(q * F, n - 1.0)
    if denom == 0.0:
        return math.inf
    return (c_hat + ratio) / denom


def _grid_maximize(d: CostDistribution, q: float, n: float, W: float) -> float:
    """Grid argmax of the objective with two zoom refinements."""
    lo, hi = d.support()
    a, b = lo, hi
    best_c = lo
    for _ in range(3):
        grid = np.linspace(a, b, 4097)
        vals = np.array([objective(d, q, n, W, float(c)) for c in grid])
        j = int(np.argmax(vals))
        best_c = float(grid[j])
        a = float(grid[max(j - 1, 0)])
        b = float(grid[min(j + 1, len(grid) - 1)])
    return best_c


def optimal_prize(
    d: CostDistribution,
    q: float,
    n: float,
    W: float,
) -> PrizeSolution:
    """Profit-maximizing prize and the cutoff it induces.

    Interior case: bisection on optimality_map(c) - c, which is strictly
    decreasing when F/f is nondecreasing. The implied prize is
    c*/win_probability(c*). Stakes outside stakes_window clamp the cutoff
    to the matching support endpoint.
    """
    _check_args(q, n, W)
    ok, _ = check_reverse_hazard_monotone(d)
    if not ok:
        c = _grid_maximize(d, q, n, W)
        prize = _implied_prize(d, q, n, c)
        return PrizeSolution(
            threshold=c,
            prize=prize,
            regime="grid-fallback",
            objective_value=objective(d, q, n, W, c),
            certified=False,
        )
    lo, hi = d.support()
    c, interior = solve_cutoff(lambda t: optimality_map(d, q, n, W, t), lo, hi)
    if interior:
        regime = "interior"
    else:
        regime = "lower-boundary" if c == lo else "upper-boundary"
    return PrizeSolution(
        threshold=c,
        prize=_implied_prize(d, q, n, c),
        regime=regime,
        objective_value=objective(d, q, n, W, c),
        certified=True,
    )


def _implied_prize(d: CostDistribution, q: float, n: float, c: float) -> float:
    """Prize making c the equilibrium cutoff: V = c / win_probability(c)."""
    lo, _ = d.support()
    if c <= lo:
        # Any prize at or below c_lo/q keeps everyone out; report the edge.
        return lo / q
    cfg = ContestConfig(n=n, q=q, V=1.0)  # V unused by win_probability
    return c / win_probability(d, cfg, c)


def verify_against_grid(
    d: CostDistribution,
    q: float,
    n: float,
    W: float,
    grid_size: int = 2001,
) -> GridCheck:
    """Brute-force check: does a dense grid agree with the solver?

    Passes when the grid argmax of the objective lies within two grid
    spacings of the solver's cutoff.
    """
    if grid_size < 3:
        raise InputError("grid_size must be at least 3")
    sol = optimal_prize(d, q, n, W)
    lo, hi = d.support()
    grid = np.linspace(lo, hi, grid_size)
    vals = np.array([objective(d, q, n, W, float(c)) for c in grid])
    j = int(np.argmax(vals))
    spacing = (hi - lo) / (grid_size - 1)
    diff = abs(float(grid[j]) - sol.threshold)
    return GridCheck(
        ok=diff <= 2.0 * spacing,
        solver_threshold=sol.threshold,
        grid_threshold=float(grid[j]),
        spacing=spacing,
        difference=diff,
    )

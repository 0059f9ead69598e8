"""Contest with an outside expert searching alongside the crowd.

The expert searches for sure and finds with probability q_e, competing for
the prize in the uniform tie-break ("shared" mode) or taking it whenever
they find ("expert_keeps" mode). Crowd members therefore win less often:

    win_probability_with_expert =
        (1 - q_e) * baseline win probability
        + q_e * win probability when the expert certainly finds.

Raising q_e also raises total success directly, so there is a critical
expertise level at which adding the expert replicates adding one more
crowd agent.
"""

from __future__ import annotations

from ._errors import InputError, check_expert_probability, check_find_probability
from ._numerics import solve_cutoff, win_rate_deficit
from .distributions import CostDistribution
from .equilibrium import (
    ContestConfig,
    EquilibriumResult,
    solve_threshold,
    success_probability,
    win_probability,
)

MODES = ("shared", "expert_keeps")


def win_probability_vs_certain_expert(
    d: CostDistribution, q: float, n: float, c_hat: float
) -> float:
    """Crowd member's win probability when the expert finds for sure.

    Closed form 1/(nF) + ((1 - qF)^{n+1} - 1) / (n (n+1) q F^2), which is
    (q/n) * S with S = ((n+1)x - 1 + (1-x)^{n+1}) / ((n+1) x^2), x = qF.
    Continuous at F = 0 with value q/2: against a certain finder, a lone
    crowd finder still wins the coin flip half the time.
    """
    check_find_probability(q)
    d._check_in_support(c_hat)
    x = q * d.cdf(c_hat)
    return (q / n) * win_rate_deficit(x, n + 1.0)


def win_probability_with_expert(
    d: CostDistribution, q: float, q_e: float, n: float, c_hat: float
) -> float:
    """Win probability of a searching crowd member with the expert present.

    Mixture over whether the expert finds; at F = 0 it equals
    q*(1 - q_e/2).
    """
    check_expert_probability(q_e)
    cfg = ContestConfig(n=n, q=q, V=1.0)  # V unused by win_probability
    base = win_probability(d, cfg, c_hat)
    if q_e == 0.0:
        return base
    crowded = win_probability_vs_certain_expert(d, q, n, c_hat)
    return (1.0 - q_e) * base + q_e * crowded


def solve_threshold_expert(
    d: CostDistribution,
    q: float,
    q_e: float,
    n: float,
    V: float,
    mode: str = "shared",
) -> EquilibriumResult:
    """Equilibrium crowd cutoff with the expert in the field.

    shared: cutoff solves c = V * win_probability_with_expert(c).
    expert_keeps: the prize is only awarded when the expert fails, so the
    cutoff solves c = V*(1 - q_e)*win_probability(c).

    Result fields refer to the crowd: success_prob is the crowd-only
    success chance at the cutoff (see success_probability_with_expert for
    the total), win_prob is the mode's effective win probability.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    check_expert_probability(q_e)
    cfg = ContestConfig(n=n, q=q, V=V)

    if mode == "shared":
        def effective_win(c: float) -> float:
            return win_probability_with_expert(d, q, q_e, n, c)
    else:
        def effective_win(c: float) -> float:
            return (1.0 - q_e) * win_probability(d, cfg, c)

    c, interior = solve_cutoff(lambda t: V * effective_win(t), *d.support())
    w = effective_win(c)
    return EquilibriumResult(
        threshold=c,
        success_prob=success_probability(d, cfg, c),
        expected_searchers=n * d.cdf(c),
        win_prob=w,
        interior=interior,
        residual=abs(c - V * w),
    )


def critical_expertise(d: CostDistribution, q: float, n: float, V: float) -> float:
    """Expertise level at which the expert acts like one extra crowd agent.

    q_e = q * F(c*(n+1)) where c*(n+1) is the baseline cutoff with n+1
    agents. Requires that (n+1)-agent equilibrium to be interior.
    """
    res = solve_threshold(d, ContestConfig(n=n + 1.0, q=q, V=V))
    if not res.interior:
        raise InputError(
            "critical expertise undefined: the (n+1)-agent equilibrium is not interior"
        )
    return q * d.cdf(res.threshold)


def success_probability_with_expert(
    d: CostDistribution,
    q: float,
    q_e: float,
    n: float,
    V: float,
    mode: str = "shared",
) -> float:
    """Total success probability with the expert: crowd or expert finds.

    (1 - q_e) * P(crowd cutoff) + q_e, monotone increasing in q_e for
    fixed cutoff; the equilibrium cutoff shifts too because the crowd is
    discouraged.
    """
    res = solve_threshold_expert(d, q, q_e, n, V, mode)
    p_crowd = success_probability(d, ContestConfig(n=n, q=q, V=V), res.threshold)
    return (1.0 - q_e) * p_crowd + q_e

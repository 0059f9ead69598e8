"""Stable scalar kernels used by the closed-form probability formulas.

Everything here is about evaluating expressions of the form 1 - (1-x)^n and
their normalized ratios without cancellation, for x in [0,1] and real
n >= 1 up to ~1e6. The exponent is applied in log space throughout. The
root solvers at the end locate every cutoff in the package to float
resolution.
"""

from __future__ import annotations

import math
from typing import Callable

from ._errors import ConvergenceError


def compl_pow(x: float, n: float) -> float:
    """(1 - x)^n for x in [0, 1], evaluated as exp(n*log1p(-x)).

    n = 0 returns 1 even at x = 1 (the convention the n = 1 contest
    formulas need for their (1-qF)^{n-1} factors).
    """
    if n == 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-x))


def prob_any(x: float, n: float) -> float:
    """1 - (1 - x)^n: chance at least one of n independent events fires.

    -expm1(n*log1p(-x)) keeps full precision when the result is tiny
    (n*x << 1) and saturates cleanly at 1 when x = 1.
    """
    if x >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-x))


def win_rate(x: float, n: float) -> float:
    """(1 - (1-x)^n) / (n*x), continuously extended to 1 at x = 0.

    Probability of winning a uniform tie-break among successes, conditional
    on own success, when n agents each succeed independently w.p. x.
    Factored as [expm1(u)/u] * [-log1p(-x)/x] with u = n*log1p(-x); each
    factor is smooth near 0 and carries full relative precision, so no
    series switch is needed anywhere in [0, 1).
    """
    if x == 0.0:
        return 1.0
    if x >= 1.0:
        # (1 - 0) / (n * 1)
        return 1.0 / n
    u = n * math.log1p(-x)
    return (math.expm1(u) / u) * (-math.log1p(-x) / x)


def win_rate_deficit(x: float, n: float) -> float:
    """(1 - win_rate(x, n)) / x, continuously extended to (n-1)/2 at x = 0.

    Equals (n*x - 1 + (1-x)^n) / (n*x^2). The direct form cancels
    catastrophically when n*x is small, so for n*x <= 1 it is summed as the
    tail series sum_{k>=2} (-1)^k C(n,k) x^(k-2) / n, whose terms are
    bounded by (n x)^k / (k! n x^2) and decay factorially.
    """
    if x == 0.0:
        return (n - 1.0) / 2.0
    if n * x > 1.0:
        return (1.0 - win_rate(x, n)) / x
    # Alternating series; term_k = (-1)^k C(n,k) x^(k-2) / n starting k=2.
    term = (n - 1.0) / 2.0  # k = 2 term: C(n,2) / n = (n-1)/2
    total = term
    k = 2
    while True:
        k += 1
        term *= -x * (n - k + 1.0) / k
        new_total = total + term
        if new_total == total or k > 80:
            return new_total
        total = new_total


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of fn on [lo, hi], given a sign change between fn(lo) and fn(hi).

    Either orientation works. Globally safe on monotone maps; for a
    non-monotone fn it converges to some sign change inside the bracket.
    Halves the bracket until its midpoint is one of its ends, that is, to
    float resolution.
    """
    return _bisect(fn, lo, hi, fn(lo), fn(hi))


def _bisect(fn, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """`bisect_root` given the endpoint values f_lo = fn(lo), f_hi = fn(hi)."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    # Orient fn to rise across the bracket.
    sign = 1.0 if f_lo < 0.0 else -1.0
    if not sign * f_hi > 0.0:
        raise ConvergenceError(
            f"root not bracketed: f({lo}) = {f_lo}, f({hi}) = {f_hi}"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if sign * fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def solve_cutoff(
    value: Callable[[float], float], lo: float, hi: float
) -> tuple[float, bool]:
    """Cutoff c in [lo, hi] solving c = value(c), and whether it is interior.

    value(c) is what the marginal agent at cost c gains from searching
    when everyone uses cutoff c. When value(lo) <= lo nobody searches and
    the cutoff clamps to (lo, False); when value(hi) >= hi everyone does
    and it clamps to (hi, False). Otherwise c - value(c) changes sign on
    the support and its root comes back as (c, True).
    """
    v_lo = value(lo)
    if v_lo <= lo:
        return lo, False
    v_hi = value(hi)
    if v_hi >= hi:
        return hi, False
    return _bisect(lambda c: c - value(c), lo, hi, lo - v_lo, hi - v_hi), True


def log_log_slope(xs, ys) -> tuple[float, float]:
    """OLS slope and R^2 of log(ys) against log(xs).

    Small helper shared by the convergence-rate fits; inputs must be
    positive and of equal length >= 3.
    """
    import numpy as np

    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 3 or lx.size != ly.size:
        raise ValueError("need at least 3 paired points")
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared

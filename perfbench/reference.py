"""The benchmark's own formulas, kept apart from the library it checks.

Nothing here imports `searchcontest`. Cost laws are read from their JSON
spec dicts, every probability is an explicit binomial sum or a closed form
derived independently, roots come from a plain bisection, and the
large-field limit comes from a Lambert-W evaluation. Monte Carlo bands are
family-wise: each random check gets a two-sided false-alarm probability of
CHECK_ALPHA, so a run with up to a thousand such checks fails on a correct
sampler with probability at most 1e-4, whatever the random stream.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

CHECK_ALPHA = 1e-7

# Published quotes of the reference tables: (distribution spec, q, V, rows of
# (n, cutoff, success probability)), each quoted to four decimals.
PUBLISHED_TABLES = {
    "table1a": ({"kind": "power", "alpha": 20.0}, 1.0, 1.0, [
        (2, 0.9151, 0.3106), (3, 0.8951, 0.2924), (4, 0.8828, 0.2917),
        (5, 0.8739, 0.2948), (6, 0.8669, 0.2989)]),
    "table1b": ({"kind": "uniform", "a": 0.0, "b": 1.0}, 1.0, 1.999, [
        (2, 0.9998, 0.9999), (3, 0.8136, 0.9935), (4, 0.7042, 0.9923),
        (5, 0.6301, 0.9931), (6, 0.5755, 0.9941)]),
    "table2a": ({"kind": "uniform", "a": 0.0, "b": 1.0}, 0.5, 1.0, [
        (10, 0.2787, 0.7771), (100, 0.0997, 0.9939), (1000, 0.0316, 0.9999),
        (2000, 0.0224, 0.9999)]),
    "table2b": ({"kind": "uniform", "a": 0.25, "b": 1.25}, 0.5, 1.0, [
        (10, 0.3780, 0.4839), (100, 0.2767, 0.7395), (1000, 0.2531, 0.7904),
        (2000, 0.2516, 0.7936)]),
}
TABLE_TOL = 5e-4

# Appendix C: a kinked law on which two players have a continuum of
# equilibria c2 = 1 - c1 for c1 in [3/7, 4/7] (q = 1, V = 5/7).
APPENDIX_C_SPEC = {
    "kind": "piecewise_linear",
    "knots": [[0.0, 0.0], [3.0 / 7.0, 0.4], [4.0 / 7.0, 0.8], [1.0, 1.0]],
}


# ---------------------------------------------------------------------------
# Cost laws


def support(spec: dict) -> tuple[float, float]:
    kind = spec["kind"]
    if kind == "uniform":
        return float(spec["a"]), float(spec["b"])
    if kind == "power":
        return 0.0, 1.0
    knots = spec["knots"]
    return float(knots[0][0]), float(knots[-1][0])


def cdf(spec: dict, c):
    """F(c), clamped to [0, 1] outside the support; accepts arrays."""
    c = np.asarray(c, dtype=float)
    kind = spec["kind"]
    if kind == "uniform":
        a, b = float(spec["a"]), float(spec["b"])
        return np.clip((c - a) / (b - a), 0.0, 1.0)
    if kind == "power":
        return np.clip(c, 0.0, 1.0) ** float(spec["alpha"])
    xs = [float(k[0]) for k in spec["knots"]]
    ys = [float(k[1]) for k in spec["knots"]]
    return np.interp(c, xs, ys)


def reverse_hazard(spec: dict, c):
    """F/f for the smooth families (uniform and power law)."""
    c = np.asarray(c, dtype=float)
    if spec["kind"] == "uniform":
        return np.maximum(c - float(spec["a"]), 0.0)
    if spec["kind"] == "power":
        return c / float(spec["alpha"])
    raise ValueError("reverse hazard is only used for uniform and power laws")


# ---------------------------------------------------------------------------
# Binomial sums


def binom_pmf(n: int, p):
    """pmf of Binomial(n, p) on k = 0..n from log-gamma terms.

    For an array of p the result has one row per p.
    """
    p_arr = np.asarray(p, dtype=float)[..., None]
    k = np.arange(n + 1, dtype=float)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                      for j in range(n + 1)])
    inner = np.clip(p_arr, 1e-300, 1.0 - 1e-16)
    pmf = np.exp(log_c + k * np.log(inner) + (n - k) * np.log1p(-inner))
    pmf = np.where(p_arr <= 0.0, (k == 0).astype(float), pmf)
    return np.where(p_arr >= 1.0, (k == n).astype(float), pmf)


def mean_inverse(n_rivals: int, p, extra: float = 0.0):
    """E[1/(T+1+X)] with T ~ Bin(n_rivals, p) and X ~ Bernoulli(extra)."""
    pmf = binom_pmf(n_rivals, p)
    t = np.arange(n_rivals + 1, dtype=float)
    out = (1.0 - extra) * pmf @ (1.0 / (t + 1.0)) + extra * pmf @ (1.0 / (t + 2.0))
    return out if np.ndim(p) else float(out)


def win_prob(F, q: float, n: float):
    """Baseline win chance of a searcher, (1 - (1-qF)^n)/(nF); q at F = 0."""
    x = q * np.asarray(F, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    with np.errstate(divide="ignore"):
        ratio = -np.expm1(n * np.log1p(-safe)) / (n * safe)
    return q * np.where(x > 0.0, ratio, 1.0)


def success(F, q: float, n: float):
    """1 - (1 - qF)^n."""
    x = q * np.asarray(F, dtype=float)
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-x))


def miss(F, q: float, n: float):
    """(1 - qF)^n, kept apart from 1 - success to keep its relative precision."""
    x = q * np.asarray(F, dtype=float)
    with np.errstate(divide="ignore"):
        return np.exp(n * np.log1p(-x))


def objective(spec: dict, q: float, n: float, W: float, c):
    """Designer profit net of W: -W (1 - qF)^n - n c F."""
    F = cdf(spec, c)
    return -W * miss(F, q, n) - n * np.asarray(c) * F


# ---------------------------------------------------------------------------
# Roots


def bisect(fn, lo: float, hi: float, tol: float = 1e-15) -> float:
    """Root of an increasing fn on [lo, hi] with fn(lo) <= 0 <= fn(hi)."""
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid in (lo, hi):
            break
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def baseline_cutoff(spec: dict, q: float, n: float, V: float) -> float:
    lo, hi = support(spec)
    if q * V <= lo:
        return lo
    if V * float(win_prob(cdf(spec, hi), q, n)) >= hi:
        return hi
    return bisect(lambda c: c - V * float(win_prob(cdf(spec, c), q, n)), lo, hi)


def designer_cutoff(spec: dict, q: float, n: float, W: float) -> float:
    """Root of c + F/f = W q (1 - qF)^(n-1), clamped into the support."""
    lo, hi = support(spec)

    def gap(c):
        F = float(cdf(spec, c))
        return c + float(reverse_hazard(spec, c)) - W * q * float(miss(F, q, n - 1.0))

    if gap(lo) >= 0.0:
        return lo
    if gap(hi) <= 0.0:
        return hi
    return bisect(gap, lo, hi)


def lambertw0(z: float) -> float:
    """Principal branch of Lambert W on [-1/e, inf), by Halley's method."""
    if z < -1.0 / math.e:
        raise ValueError("z below the branch point")
    if z < -0.25:
        p = math.sqrt(max(2.0 * (math.e * z + 1.0), 0.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    else:
        w = math.log1p(z)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def kappa(c_lo: float, q: float, V: float) -> float:
    """Large-field searcher mass: V/c_lo + W0(-a e^-a)/q with a = qV/c_lo."""
    a = q * V / c_lo
    return V / c_lo + lambertw0(-a * math.exp(-a)) / q


def tiebreak_share(rival_pi) -> float:
    """E[1/(T+1)] for a Poisson-binomial T, as int_0^1 prod(1 - pi + pi t) dt.

    The integral is taken by adaptive Gauss-Kronrod quadrature, not by
    convolving the pmf.
    """
    from scipy.integrate import quad

    pi = np.asarray(rival_pi, dtype=float)

    def integrand(t):
        return math.exp(float(np.sum(np.log1p(pi * (t - 1.0)))))

    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


# ---------------------------------------------------------------------------
# Bands


def z_band() -> float:
    return NormalDist().inv_cdf(1.0 - CHECK_ALPHA / 2.0)


def bernstein_halfwidth(N: float, var: float, spread: float) -> float:
    """Two-sided band on a mean of N i.i.d. draws within `spread` of their mean.

    Bernstein's inequality with false-alarm probability CHECK_ALPHA; unlike
    a normal band it stays valid for rare events.
    """
    a = math.log(2.0 / CHECK_ALPHA)
    b = 2.0 * spread * a / 3.0
    return (b + math.sqrt(b * b + 8.0 * N * var * a)) / (2.0 * N)


def proportion_ok(estimate: float, p: float, N: int) -> bool:
    return abs(estimate - p) <= bernstein_halfwidth(N, p * (1.0 - p), 1.0) + 1e-12


def ratio_ok(estimate: float, n: int, p_search: float, g, h, N: int, target: float) -> bool:
    """z-band on a pooled ratio sum(X)/sum(S), S ~ Bin(n, p_search).

    g[s] = E[X | S = s] and h[s] = E[X^2 | S = s]; the delta-method variance
    uses moments from these binomial sums, not from the sample.
    """
    pmf = binom_pmf(n, p_search)
    s = np.arange(n + 1, dtype=float)
    ex, ex2, exs = pmf @ g, pmf @ h, pmf @ (s * g)
    es = n * p_search
    var_s = n * p_search * (1.0 - p_search)
    r = ex / es
    var = (ex2 - ex * ex - 2.0 * r * (exs - ex * es) + r * r * var_s) / (N * es * es)
    return abs(estimate - target) <= z_band() * math.sqrt(max(var, 0.0)) + 1e-12

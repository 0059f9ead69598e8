"""Independent reference implementations used to validate the closed forms.

Everything is deliberately slow and literal: exact Fraction arithmetic over
explicit double sums (condition on how many rivals search, then on how many
of those find), and subset enumeration for heterogeneous agents. Float
inputs are converted to Fraction exactly, so results are the correctly
rounded values of the exact rational expressions and can be compared to the
library's stable kernels at 1e-12 and tighter. The transcendental
large-field limit has no rational form; its oracle is a Lambert-W closed
form evaluated in mpmath at 50 digits. Fields of heterogeneous agents too
large to enumerate use a float Poisson-binomial convolution instead.

Conventions: F is the CDF value at the cutoff, q the find probability, n
the number of agents (the evaluated agent included), m a prize rank.
"""

import math
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np


def _mix(s, t, p):
    """C(s, t) p^t (1-p)^(s-t) as an exact Fraction."""
    pq = Fraction(p)
    return math.comb(s, t) * pq**t * (1 - pq) ** (s - t)


def win_probability_sum(F, q, n):
    """Win probability of a searching agent, by the literal double sum.

    Condition on s of the n-1 rivals searching and t of those finding; the
    agent finds w.p. q and takes the uniform tie-break share 1/(t+1).
    """
    total = Fraction(0)
    for s in range(n):
        inner = Fraction(0)
        for t in range(s + 1):
            inner += _mix(s, t, q) / (t + 1)
        total += _mix(n - 1, s, F) * inner
    return float(Fraction(q) * total)


def certain_expert_win_sum(F, q, n):
    """Same double sum, but one extra certain finder: share 1/(t+2)."""
    total = Fraction(0)
    for s in range(n):
        inner = Fraction(0)
        for t in range(s + 1):
            inner += _mix(s, t, q) / (t + 2)
        total += _mix(n - 1, s, F) * inner
    return float(Fraction(q) * total)


def success_sum(F, q, n):
    """P(object found) as one minus the sum over all-miss outcomes."""
    miss = Fraction(0)
    qq = Fraction(q)
    for s in range(n + 1):
        miss += _mix(n, s, F) * (1 - qq) ** s
    return float(1 - miss)


def rank_win_sum(F, q, n, m):
    """P(searching agent ends at rank m among the finders).

    Needs at least m-1 rival finders; the agent's rank is uniform over the
    t+1 finders, so each rank <= t+1 has probability 1/(t+1).
    """
    total = Fraction(0)
    for k in range(m - 1, n):
        inner = Fraction(0)
        for t in range(m - 1, k + 1):
            inner += _mix(k, t, q) / (t + 1)
        total += _mix(n - 1, k, F) * inner
    return float(Fraction(q) * total)


def at_least_m_sum(F, q, n, m):
    """P(at least m of the n agents find), double sum over searchers."""
    total = Fraction(0)
    for s in range(m, n + 1):
        inner = Fraction(0)
        for t in range(m, s + 1):
            inner += _mix(s, t, q)
        total += _mix(n, s, F) * inner
    return float(total)


def expected_prize_sum(F, q, n, values):
    """Sum of v_m * rank_win_sum(m) over the prize vector."""
    return float(
        sum(Fraction(v) * Fraction(rank_win_sum(F, q, n, m + 1)) for m, v in enumerate(values))
    )


def psi_subsets(q_i, rival_pi):
    """Agent win probability by enumerating which rivals find.

    rival_pi holds each rival's marginal find probability q_j F(c_j); the
    agent searches for sure, finds w.p. q_i, and shares 1/(|S|+1) when the
    finder subset is S.
    """
    idx = range(len(rival_pi))
    total = Fraction(0)
    for r in range(len(rival_pi) + 1):
        for subset in combinations(idx, r):
            p = Fraction(1)
            for j in idx:
                pj = Fraction(rival_pi[j])
                p *= pj if j in subset else 1 - pj
            total += p / (r + 1)
    return float(Fraction(q_i) * total)


def pmf_subsets(probs):
    """Poisson-binomial pmf by subset enumeration (exact, exponential)."""
    n = len(probs)
    out = [Fraction(0)] * (n + 1)
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            p = Fraction(1)
            for j in range(n):
                pj = Fraction(probs[j])
                p *= pj if j in subset else 1 - pj
            out[r] += p
    return [float(v) for v in out]


def poisson_binomial_pmf(probs):
    """Poisson-binomial pmf by convolution, folding in one Bernoulli at a time.

    Float arithmetic, O(n^2) and exact to about 1e-16: the large-n
    reference where subset enumeration is out of reach.
    """
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for i, p in enumerate(probs):
        block = pmf[: i + 2].copy()
        pmf[: i + 2] = block * (1.0 - p)
        pmf[1 : i + 2] += block[:-1] * p
    return pmf


def prob_any_exact(x, n):
    """1 - (1-x)^n for integer n, exact in Fraction."""
    return float(1 - (1 - Fraction(x)) ** n)


def win_rate_exact(x, n):
    """(1 - (1-x)^n) / (n x) for integer n, exact in Fraction."""
    if x == 0.0:
        return 1.0
    xq = Fraction(x)
    return float((1 - (1 - xq) ** n) / (n * xq))


def win_rate_deficit_exact(x, n):
    """(n x - 1 + (1-x)^n) / (n x^2) for integer n, exact in Fraction."""
    if x == 0.0:
        return (n - 1) / 2.0
    xq = Fraction(x)
    return float((n * xq - 1 + (1 - xq) ** n) / (n * xq**2))


LIMIT_DPS = 50


def limit_searchers_lambertw(c_lo, q, V):
    """Large-field searcher mass kappa as an mpf with LIMIT_DPS digits.

    kappa is the nonzero root of c_lo*kappa = V(1 - e^{-q kappa}). With
    x = q kappa and a = qV/c_lo > 1 this reads x - a = -a e^{-x}, so
    y = x - a solves y e^y = -a e^{-a}, which lies in (-1/e, 0). The branch
    W_{-1} gives y = -a, the trivial root x = 0; the principal branch W_0
    gives kappa = V/c_lo + W_0(-a e^{-a})/q.
    """
    with mpmath.workdps(LIMIT_DPS):
        c_lo, q, V = mpmath.mpf(c_lo), mpmath.mpf(q), mpmath.mpf(V)
        a = q * V / c_lo
        return V / c_lo + mpmath.lambertw(-a * mpmath.exp(-a)).real / q


def limit_success_lambertw(c_lo, q, V):
    """Limiting success probability 1 - e^{-q kappa} as an mpf."""
    kappa = limit_searchers_lambertw(c_lo, q, V)
    with mpmath.workdps(LIMIT_DPS):
        return -mpmath.expm1(-mpmath.mpf(q) * kappa)


# Float versions of the rank-prize double sums, called like the library
# functions they check: (distribution, q, n, m, cutoff).


def prob_at_least_m_find_direct(d, q, n, m, c_hat):
    """Literal double sum over searcher and finder counts (oracle form).

    O(n^2); exact integer binomials up to n = 60, log-domain beyond.
    """
    F = d.cdf(c_hat)
    total = 0.0
    for k in range(m, n + 1):
        inner = 0.0
        for t in range(m, k + 1):
            inner += _binom_pmf(t, k, q)
        total += _binom_pmf(k, n, F) * inner
    return total


def _binom_pmf(k, nn, p):
    """C(nn, k) p^k (1-p)^(nn-k) without scipy, overflow-safe."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == nn else 0.0
    if nn <= 60:
        return math.comb(nn, k) * p**k * (1.0 - p) ** (nn - k)
    log_c = math.lgamma(nn + 1) - math.lgamma(k + 1) - math.lgamma(nn - k + 1)
    return math.exp(log_c + k * math.log(p) + (nn - k) * math.log1p(-p))


def rank_win_probability_direct(d, q, n, m, c_hat):
    """Double sum over rival searcher and finder counts (oracle form).

    q * sum_k C(n-1,k) F^k (1-F)^{n-1-k} sum_t C(k,t) q^t (1-q)^{k-t}/(t+1)
    with k >= m-1 and t in [m-1, k].
    """
    F = d.cdf(c_hat)
    total = 0.0
    for k in range(m - 1, n):
        inner = 0.0
        for t in range(m - 1, k + 1):
            inner += _binom_pmf(t, k, q) / (t + 1.0)
        total += _binom_pmf(k, n - 1, F) * inner
    return q * total

"""Independent reference implementations used to validate the closed forms.

Everything is deliberately slow and literal: exact Fraction arithmetic over
explicit double sums (condition on how many rivals search, then on how many
of those find), and subset enumeration for heterogeneous agents. Float
inputs are converted to Fraction exactly, so results are the correctly
rounded values of the exact rational expressions and can be compared to the
library's stable kernels at 1e-12 and tighter. The transcendental
large-field limit has no rational form; its oracle is a Lambert-W closed
form evaluated in mpmath at 50 digits. Fields of heterogeneous agents too
large to enumerate use a float Poisson-binomial convolution instead. The
per-agent equilibrium's reference is the plain Gauss-Seidel loop, with no
Newton polish.

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


def _share_subsets(rival_pi):
    """E[1/(|S|+1)] over the finder subset S of the rivals, exactly."""
    idx = range(len(rival_pi))
    total = Fraction(0)
    for r in range(len(rival_pi) + 1):
        for subset in combinations(idx, r):
            p = Fraction(1)
            for j in idx:
                pj = Fraction(rival_pi[j])
                p *= pj if j in subset else 1 - pj
            total += p / (r + 1)
    return total


def psi_subsets(q_i, rival_pi):
    """Agent win probability by enumerating which rivals find.

    rival_pi holds each rival's marginal find probability q_j F(c_j); the
    agent searches for sure, finds w.p. q_i, and shares 1/(|S|+1) when the
    finder subset is S.
    """
    return float(Fraction(q_i) * _share_subsets(rival_pi))


def share_jacobian_subsets(q, pi, f):
    """d psi_i / d c_j by subset enumeration, exactly: psi_i is affine in
    pi_j, so the slope is q_i (share with pi_j = 1 - share with pi_j = 0),
    times d pi_j / d c_j = q_j f(c_j). Returns rows of Fractions."""
    n = len(q)
    jac = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if j != i:
                rivals = [pi[k] for k in range(n) if k != i]
                pos = j - (j > i)
                slope = (_share_subsets(rivals[:pos] + [1] + rivals[pos + 1:])
                         - _share_subsets(rivals[:pos] + [0] + rivals[pos + 1:]))
                jac[i][j] = Fraction(q[i]) * slope * Fraction(q[j]) * Fraction(f[j])
    return jac


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


def binomial_tail_mp(n, x, m):
    """P(Binomial(n, x) >= m) as an mpf with LIMIT_DPS digits.

    A literal sum of exact integer binomials times powers of the double x,
    for fields too large for the Fraction sums above.
    """
    with mpmath.workdps(LIMIT_DPS):
        x = mpmath.mpf(x)
        return mpmath.fsum(math.comb(n, k) * x**k * (1 - x) ** (n - k) for k in range(m, n + 1))


def binomial_pmf_mp(n, x, k):
    """P(Binomial(n, x) = k) as an mpf with LIMIT_DPS digits, at the double x."""
    with mpmath.workdps(LIMIT_DPS):
        x = mpmath.mpf(x)
        return mpmath.binomial(n, k) * x**k * (1 - x) ** (n - k)


def qf_cutoff_power_mp(alpha):
    """Root in (0, 1) of (1-y) ln(1-y) + y alpha/(1+alpha), as an mpf.

    With t = 1/(1+alpha), dividing by y gives 1 - p(y) = t where
    p(y) = (1-y)(-ln(1-y))/y, and y/2 <= 1 - p(y) <= y, so the root lies
    in [t, 2t]; at LIMIT_DPS digits the unscaled form's cancellation costs
    nothing a double can see.
    """
    with mpmath.workdps(LIMIT_DPS):
        a = mpmath.mpf(alpha)
        t = 1 / (1 + a)
        return mpmath.findroot(lambda y: (1 - y) * mpmath.log1p(-y) + y * a * t,
                               (t, min(2 * t, 1 - t / 2)), solver="anderson")


def n2_best_response_exact(knots, q, V):
    """BR(c) = clamp(qV(1 - (q/2)F(c))) into the support, as a function
    of a rational c, for the piecewise-linear law through the knots."""
    pts = [(Fraction(c), Fraction(F)) for c, F in knots]
    q, V = Fraction(q), Fraction(V)
    lo, hi = pts[0][0], pts[-1][0]

    def cdf(c):
        for (c0, F0), (c1, F1) in zip(pts, pts[1:]):
            if c <= c1:
                return F0 + (F1 - F0) * (max(c, c0) - c0) / (c1 - c0)
        return Fraction(1)

    return lambda c: min(max(q * V * (1 - q * cdf(Fraction(c)) / 2), lo), hi)


def n2_fixed_set_exact(knots, q, V):
    """Two-player equilibrium set on a piecewise-linear law, in exact rationals.

    knots are (c, F) pairs and q, V numbers, all taken as exact Fractions.
    BR(c) = clamp(qV(1 - (q/2)F(c))) into the support is affine between the
    knots and the points where it starts to clamp, so BR(BR(c)) is affine
    on the cells that those points and their BR-preimages cut, and so is
    the gap BR(BR(c)) - c: zero at both ends of a cell means zero on all of
    it, and otherwise the cell holds at most one root, solved exactly.

    Returns (segments, symmetric): the closed c1 ranges of equilibria whose
    pair (c1, BR(c1)) lies inside the support, touching ranges merged and an
    isolated equilibrium as (c, c); and the interior solution of BR(c) = c,
    or None where it clamps.
    """
    pts = [(Fraction(c), Fraction(F)) for c, F in knots]
    q, V = Fraction(q), Fraction(V)
    lo, hi = pts[0][0], pts[-1][0]
    pieces = list(zip(pts, pts[1:]))
    br = n2_best_response_exact(knots, q, V)

    def level_points(v):
        # Where the unclamped best response equals v, F(c) = 2(1 - v/(qV))/q.
        y = 2 * (1 - v / (q * V)) / q
        return {c0 + (y - F0) * (c1 - c0) / (F1 - F0)
                for (c0, F0), (c1, F1) in pieces if F0 <= y <= F1 and F0 < F1}

    def gap(c):
        return br(br(c)) - c

    def interior(c):
        return lo < c < hi and lo < br(c) < hi

    breaks = {c for c, _ in pts} | level_points(lo) | level_points(hi)
    cuts = sorted(c for c in breaks.union(*map(level_points, breaks)) if lo <= c <= hi)
    found = [(c, c) for c in cuts if gap(c) == 0]
    for a, b in zip(cuts, cuts[1:]):
        ga, gb = gap(a), gap(b)
        if ga == 0 and gb == 0:
            found.append((a, b))
        elif ga * gb < 0:
            root = a - ga * (b - a) / (gb - ga)
            found.append((root, root))
    segments = []
    for a, b in sorted(found):
        if segments and a <= segments[-1][1]:
            segments[-1] = (segments[-1][0], max(b, segments[-1][1]))
        else:
            segments.append((a, b))
    segments = [(a, b) for a, b in segments if interior((a + b) / 2)]

    # BR(c) - c falls, and is affine between consecutive breaks.
    edges = sorted(c for c in breaks if lo <= c <= hi)
    symmetric = None
    for a, b in zip(edges, edges[1:]):
        sa, sb = br(a) - a, br(b) - b
        if sa >= 0 >= sb:
            root = a if sa == 0 else a - sa * (b - a) / (sb - sa)
            symmetric = root if interior(root) else None
            break
    return segments, symmetric


def n2_sampled_fixed_set(gap, grid_pts):
    """Roots of gap(c) = BR(BR(c)) - c sampled on a grid, for any law.

    Grid points with |gap| <= 1e-9 count, and each sign change between
    neighbouring grid points is bisected to float resolution; roots within
    1.5 grid steps of each other join one segment. gap must take the grid
    as an array as well as single floats. Returns the closed c1 ranges, in
    order, with no interiority filter.
    """
    tol = 1e-9
    gaps = np.asarray(gap(grid_pts))
    found = grid_pts[np.abs(gaps) <= tol].tolist()
    change = (gaps[:-1] * gaps[1:] < 0.0) & (np.minimum(np.abs(gaps[:-1]), np.abs(gaps[1:])) > tol)
    found += [bisect_plain(gap, float(grid_pts[i]), float(grid_pts[i + 1]))[0]
              for i in np.flatnonzero(change)]
    join = 1.5 * float(grid_pts[1] - grid_pts[0])
    segments = []
    for c in sorted(map(float, found)):
        if segments and c - segments[-1][1] <= join:
            segments[-1] = (segments[-1][0], c)
        else:
            segments.append((c, c))
    return segments


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


def bisect_plain(fn, lo, hi):
    """Plain bisection to float resolution: (root, number of evaluations).

    Halves [lo, hi] until its ends are adjacent doubles and returns their
    rounded midpoint; a zero inside counts with the side where fn(lo) lies.
    The reference for the library's root solver, which must return the
    same double on any map whose float sign pattern is monotone.
    """
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo, 2
    if f_hi == 0.0:
        return hi, 2
    sign = 1.0 if f_lo < 0.0 else -1.0
    evals = 2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, evals
        evals += 1
        if sign * fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def gauss_seidel_thresholds(contest):
    """Per-agent equilibrium cutoffs by Gauss-Seidel sweeps alone, as
    ``hetero.solve_thresholds`` ran them before its chord-Newton polish:
    from the symmetric cutoff at the mean q, set c_i = clamp(V psi_i) agent
    by agent until a sweep's move delta and the tail bound
    delta rho / (1 - rho) are below SWEEP_TOL. Returns (c, converged, sweeps).
    """
    from searchcontest import hetero
    from searchcontest.equilibrium import ContestConfig, solve_threshold

    d, V, n = contest.dist, contest.V, contest.n
    lo, hi = d.support()
    q = np.asarray(contest.q_values)
    sym = solve_threshold(d, ContestConfig(n=float(n), q=float(np.mean(q)), V=V))
    c = np.full(n, sym.threshold)
    t, w = hetero._quadrature(contest)
    rows = np.log1p(np.multiply.outer(q * np.array([d.cdf(float(x)) for x in c]), t - 1.0))
    prev = math.inf
    for sweep in range(1, hetero.MAX_SWEEPS + 1):
        cols = rows.sum(axis=0)
        delta = 0.0
        for i in range(n):
            cols -= rows[i]
            c_i = min(max(V * q[i] * float(np.exp(cols) @ w), lo), hi)
            rows[i] = np.log1p(q[i] * d.cdf(c_i) * (t - 1.0))
            cols += rows[i]
            delta = max(delta, abs(c_i - c[i]))
            c[i] = c_i
        rho = delta / prev
        if delta < hetero.SWEEP_TOL and rho < 1.0 and delta * rho / (1.0 - rho) < hetero.SWEEP_TOL:
            return c, True, sweep
        prev = delta
    return c, False, hetero.MAX_SWEEPS


def gauss_seidel_principal(contest, W, best=None):
    """The designer's per-agent cutoffs by Gauss-Seidel sweeps alone, as
    ``hetero.solve_principal_thresholds`` ran them before its chord-Newton
    polish: from ``hetero.solve_thresholds``, set
    c_i = B(W q_i prod_{j != i} (1 - q_j F(c_j))) agent by agent until a
    sweep's move delta and the tail bound delta rho / (1 - rho) are below
    SWEEP_TOL. B is best(K), by default the root-solving maximizer
    ``principal._best_cutoff``, which shares no code with the library's
    closed-form ``stake_cutoff``. Returns (c, converged, sweeps).
    """
    from searchcontest import hetero
    from searchcontest.principal import _best_cutoff

    d = contest.dist
    lo, hi = d.support()

    def root_solve(K):
        return _best_cutoff(d, 1.0, 1.0, K, lo, hi)

    best = best or root_solve
    q = contest.q_values
    c = hetero.solve_thresholds(contest).thresholds
    miss = (1.0 - np.asarray(q) * np.array([d.cdf(float(x)) for x in c])).tolist()
    prev = math.inf
    for sweep in range(1, hetero.MAX_SWEEPS + 1):
        delta = 0.0
        for i in range(contest.n):
            K = W * q[i] * (math.prod(miss[:i]) * math.prod(miss[i + 1:]))
            c_i = best(K)
            miss[i] = 1.0 - q[i] * d.cdf(c_i)
            delta = max(delta, abs(c_i - c[i]))
            c[i] = c_i
        rho = delta / prev
        if delta < hetero.SWEEP_TOL and rho < 1.0 and delta * rho / (1.0 - rho) < hetero.SWEEP_TOL:
            return c, True, sweep
        prev = delta
    return c, False, hetero.MAX_SWEEPS

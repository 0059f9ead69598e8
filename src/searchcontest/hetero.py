"""Heterogeneous find probabilities: agent i finds with probability q_i.

Thresholds are agent-specific. Write pi_j = q_j F(c_j) for the chance that
agent j searches and finds. A searching agent i wins with probability

    psi_i = q_i E[1 / (T_i + 1)] = q_i * integral_0^1 prod_{j != i} (1 - pi_j + pi_j t) dt,

where T_i counts the other finders and the prize goes to one of the
T_i + 1 finders at random (integrating t^T over [0, 1] gives 1/(T + 1)).
The integrand is a polynomial of degree n - 1, which Gauss-Legendre
quadrature on [0, 1] takes exactly at floor(n/2) + 1 nodes, but a large
crowd needs far fewer: _node_count sizes the rule by the crowd's sum of q
(see _share_error_bound), so K grows like its square root. One kernel
serves every agent: the matrix of log factors log(1 - pi_j + pi_j t_k), one
row per agent and one column per node, gives each leave-one-out share as
the weighted sum of exp(column sums - own row).

The same kernel gives the shares' Jacobian: for j != i,
d psi_i / d c_j = q_i q_j f(c_j) sum_k g_k A_ik A_jk with A_ik = exp(-row_ik)
and g_k = w_k (t_k - 1) exp(column sum k), of rank K off the diagonal.

Equilibria come from Gauss-Seidel, then chord-Newton. Sweeps of the best
responses c_i = V psi_i, which keep the column sums current, carry the
cutoffs near the equilibrium; Newton steps on that Jacobian, factored
once, finish them. The designer's system is solved the same way: with the
other cutoffs fixed, the designer's objective in c_i is (K_i - c) F(c)
with K_i = W q_i prod_{j != i} (1 - pi_j), the single-prize designer
problem with one sure finder, so agent i's step is c_i = B(K_i) for its
maximizer B = dist.stake_cutoff: in closed form on every family and affine
in K_i piece by piece, so the designer's system solves no root. Since
d K_i / d c_j = -K_i v_j with v_j = q_j f(c_j) / (1 - pi_j), that system's
Jacobian is a diagonal plus a rank-1 term. One routine, _chord_newton,
takes both Jacobians as a diagonal plus U diag(g) R^T and inverts
Woodbury's k x k matrix once: k = K for the equilibrium, whose factor
costs O(nK^2), and k = 1 for the designer, whose factor and steps cost O(n).

The two-player solver at the bottom maps out the full equilibrium set; it
exists because irregular (kinked) cost distributions can carry a continuum
of asymmetric equilibria. It is exact on every law, solved cell by cell
between cuts on which BR(BR(c)) - c is monotone: the best response's kinks
and their preimages and, on a power law, the gap's turns, at most one on
each side of the peak of c BR(c) (see _power_turns).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._errors import (
    ConvergenceError, InputError, check_find_probabilities, check_find_probability, check_positive,
)
from ._numerics import bisect_root
from .distributions import CostDistribution, PowerLaw
from .equilibrium import ContestConfig, solve_threshold

SWEEP_TOL = 1e-10
MAX_SWEEPS = 10_000
# Sweeps hand over to chord-Newton once a sweep moves no cutoff by
# POLISH_MOVE and contracts by POLISH_RATIO or faster.
POLISH_MOVE = 1e-3
POLISH_RATIO = 0.95
# Bound on the quadrature's relative error in every share.
QUADRATURE_TOL = 1e-15
PRIZE_AGREEMENT_TOL = 1e-8
SCAN_TOL = 1e-9
LEVEL_TOL = 1e-13


@dataclass(frozen=True)
class HeteroContest:
    """Per-agent find probabilities, prize, and the shared cost
    distribution. Agent i is q_values[i], in the caller's order, and every
    per-agent vector below is indexed the same way."""

    q_values: tuple[float, ...]
    V: float
    dist: CostDistribution

    def __post_init__(self):
        q = tuple(float(v) for v in self.q_values)
        if len(q) < 1:
            raise InputError("need at least one agent")
        check_find_probabilities(q)
        check_positive("V", self.V)
        object.__setattr__(self, "q_values", q)

    @property
    def n(self) -> int:
        return len(self.q_values)


@dataclass(frozen=True)
class ThresholdVector:
    thresholds: np.ndarray  # thresholds[i] is agent i's cutoff
    converged: bool
    sweeps: int  # Gauss-Seidel sweeps
    newton_steps: int = 0  # chord-Newton steps kept after the sweeps


def _find_probabilities(contest: HeteroContest, thresholds) -> np.ndarray:
    """pi_j = q_j F(c_j) for a vector of per-agent cutoffs."""
    c = np.asarray(thresholds, dtype=float)
    if c.shape != (contest.n,):
        raise InputError(f"expected {contest.n} thresholds, got shape {c.shape}")
    return np.asarray(contest.q_values) * np.array([contest.dist.cdf(float(t)) for t in c])


def _quadrature(contest: HeteroContest) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] for every share, Jacobian
    and sweep of the contest, at _node_count's size; the arrays are
    read-only."""
    return _gauss_legendre(_node_count(contest.n, math.fsum(contest.q_values)))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Legendre rule on [0, 1], built once per node count."""
    x, w = np.polynomial.legendre.leggauss(k)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=64)
def _node_count(n: int, total_q: float) -> int:
    """Fewest nodes whose _share_error_bound is at most QUADRATURE_TOL, and
    never more than floor(n/2) + 1, which is exact. total_q = sum q bounds
    sum pi at any cutoffs, so one count serves a whole solve."""
    exact = n // 2 + 1
    return next((k for k in range(1, exact) if _share_error_bound(k, total_q) <= QUADRATURE_TOL),
                exact)


def _share_error_bound(k: int, total_q: float) -> float:
    """Bound on the relative error of a k-node share, from Trefethen, "Is
    Gauss quadrature better than Clenshaw-Curtis?", SIAM Review 50(1), 2008,
    Thm 4.5: where the integrand is at most M on the Bernstein ellipse of
    rho = e^s, the k-node rule's error on [0, 1] is at most
    (32/15) M rho^(-2k) / (1 - rho^(-2)). There |2t - 1| <= a = cosh s, so
    each factor has |1 - pi + pi t| <= 1 + pi (a - 1) / 2, and
    M = exp(S (a - 1) / 2) with S = total_q >= sum pi. By Jensen
    psi_i / q_i >= 1 / (1 + S), which makes the bound relative. It holds at
    every rho > 1, and s = asinh(4k / S) nearly minimizes it; s stops at 20,
    where rho^(-2) < 1e-17 already, so that a tiny S cannot overflow it."""
    S, s = total_q, min(math.asinh(4.0 * k / total_q), 20.0)
    return math.exp(math.log(32.0 / 15.0) + math.log1p(S) + 0.5 * S * (math.cosh(s) - 1.0)
                    - 2.0 * k * s - math.log(-math.expm1(-2.0 * s)))


def _log_factors(pi, t: np.ndarray) -> np.ndarray:
    """log(1 - pi_j + pi_j t_k); finite because every node is positive."""
    x = np.multiply.outer(pi, t - 1.0)
    return np.log1p(x, out=x)


def _shares(q: np.ndarray, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """psi_i = q_i sum_k w_k exp(column sum k - row_ik)."""
    x = rows.sum(axis=0) - rows
    return q * (np.exp(x, out=x) @ w)


def agent_win_probabilities(contest: HeteroContest, thresholds) -> np.ndarray:
    """Win probability psi_i of each searching agent when the agents use
    the given cutoffs."""
    t, w = _quadrature(contest)
    rows = _log_factors(_find_probabilities(contest, thresholds), t)
    return _shares(np.asarray(contest.q_values), rows, w)


def share_jacobian(contest: HeteroContest, thresholds) -> tuple[np.ndarray, ...]:
    """Factors (P, g, R) of the win shares' Jacobian: for j != i,

        d psi_i / d c_j = sum_k P[i, k] g[k] R[j, k],

    with P_ik = q_i A_ik, R_jk = q_j f(c_j) A_jk, g_k = w_k (t_k - 1) E_k,
    A_ik = 1 / (1 - pi_i (1 - t_k)) and E_k = prod_j (1 - pi_j (1 - t_k));
    d psi_i / d c_i = 0. P and R are n x K for the K nodes of _quadrature, so
    the n x n matrix is never built. The cutoffs must lie in the support.
    """
    t, w = _quadrature(contest)
    rows = _log_factors(_find_probabilities(contest, thresholds), t)
    f = np.array([contest.dist.pdf(float(x)) for x in thresholds])
    P, g = _jacobian_factors(np.asarray(contest.q_values), rows, rows.sum(axis=0), t, w)
    return P, g, f[:, None] * P


def _jacobian_factors(q, rows, cols, t, w):
    """P and g of share_jacobian from log-factor rows (any subset of the
    agents) and the column sums over every agent."""
    P = np.exp(-rows)
    P *= q[:, None]
    return P, w * (t - 1.0) * np.exp(cols)


def success_probability(contest: HeteroContest, thresholds) -> float:
    """Probability someone finds: 1 - prod_i (1 - q_i F(c_i))."""
    pi = _find_probabilities(contest, thresholds)
    if np.any(pi >= 1.0):
        return 1.0
    return -math.expm1(float(np.sum(np.log1p(-pi))))


def _gauss_seidel(c: np.ndarray, best_response, polish=None) -> ThresholdVector:
    """Set c_i = best_response(i) for each agent in turn, sweeping until a
    sweep's largest move delta and the tail bound delta rho / (1 - rho),
    rho = delta / previous delta < 1, are both below SWEEP_TOL.

    polish, if given, runs once, after the first sweep with delta below
    POLISH_MOVE and rho below POLISH_RATIO. It returns its kept steps and
    whether it converged; if it did not, the sweeps go on from where it
    left c.
    """
    prev = math.inf
    steps = 0
    for sweep in range(1, MAX_SWEEPS + 1):
        delta = 0.0
        for i in range(c.size):
            new_ci = best_response(i)
            delta = max(delta, abs(new_ci - c[i]))
            c[i] = new_ci
        rho = delta / prev
        if delta < SWEEP_TOL and rho < 1.0 and delta * rho / (1.0 - rho) < SWEEP_TOL:
            return ThresholdVector(c, True, sweep, steps)
        if polish is not None and delta < POLISH_MOVE and rho < POLISH_RATIO:
            steps, done = polish()
            if done:
                return ThresholdVector(c, True, sweep, steps)
            polish = None
        prev = delta
    return ThresholdVector(c, False, MAX_SWEEPS, steps)


def solve_thresholds(contest: HeteroContest) -> ThresholdVector:
    """Equilibrium cutoff vector by Gauss-Seidel, then chord-Newton.

    Starts from the symmetric solution at the mean find probability and
    sweeps c_i = V psi_i, clamped into the support. Once the sweeps are
    near the equilibrium (see POLISH_MOVE), chord-Newton steps finish the
    interior agents; if one is refused, the sweeps go on from the last kept
    step and finish alone, so the sweeps pick the equilibrium. Convergence
    is reported, not assumed; callers decide how to treat a False flag.
    """
    d = contest.dist
    lo, hi = d.support()
    q = np.asarray(contest.q_values)
    sym = solve_threshold(d, ContestConfig(n=float(contest.n), q=float(np.mean(q)), V=contest.V))
    c = np.full(contest.n, sym.threshold)
    t, w = _quadrature(contest)
    rows = _log_factors(_find_probabilities(contest, c), t)
    cols = rows.sum(axis=0)

    def best_response(i: int) -> float:
        nonlocal cols
        if i == 0:
            cols = rows.sum(axis=0)  # re-sum each sweep so rounding cannot drift
        cols -= rows[i]
        c_i = min(max(contest.V * q[i] * float(np.exp(cols) @ w), lo), hi)
        rows[i] = _log_factors(q[i] * d.cdf(c_i), t)
        cols += rows[i]
        return c_i

    return _gauss_seidel(c, best_response,
                         functools.partial(_equilibrium_newton, contest, c, rows, t, w))


def _equilibrium_newton(contest: HeteroContest, c: np.ndarray, rows: np.ndarray, t, w):
    """Chord-Newton on r(c) = c - clamp(V psi(c)). An interior agent's row
    of r's Jacobian is e_i - V times its row of share_jacobian; a clamped
    agent's is e_i. So J = diag(D) + U diag(g) R^T with U = -V P and R of
    share_jacobian, both zero on clamped agents, and D = 1 - diag(U g R^T).
    c and rows end at the last kept step. Returns the kept steps and
    whether max |r| fell below SWEEP_TOL.
    """
    lo, hi = contest.dist.support()
    q = np.asarray(contest.q_values)

    def image(rows):
        target = contest.V * _shares(q, rows, w)
        return np.clip(target, lo, hi), np.digitize(target, (lo, hi), right=True), rows

    start = image(rows)
    inner = start[1] == 1  # interior agents
    if not np.all((lo < c[inner]) & (c[inner] < hi)):
        return 0, False
    U, g = _jacobian_factors(np.where(inner, -contest.V * q, 0.0), rows, rows.sum(axis=0), t, w)
    s = np.zeros(contest.n)  # R = s U
    s[inner] = [-contest.dist.pdf(float(x)) / contest.V for x in c[inner]]
    with np.errstate(all="ignore"):  # a bad factor fails _chord_newton's check
        R = U * s[:, None]
        D = 1.0 - np.einsum("ik,k,ik->i", U, g, R)
    steps, done, rows[:] = _chord_newton(
        c, start, lambda c: image(_log_factors(_find_probabilities(contest, c), t)),
        D, U, g, R, lo, hi)
    return steps, done


def _chord_newton(c: np.ndarray, start, image, D, U, g, R, lo: float, hi: float):
    """Chord-Newton steps on r(c) = c - img with one Jacobian,
    J = diag(D) + U diag(g) R^T for n x k factors U and R, taken at the
    start. image(c) returns (img, side, data): c's exact image, each agent's
    clamp side and what the caller keeps with c; start is image(c).
    Woodbury reduces J^-1 to the k x k matrix I + diag(g) R^T diag(D)^-1 U,
    inverted once, so a step costs O(nk). A step is kept only if it stays
    in [lo, hi], no agent changes clamp side and max |r| at least halves;
    c then moves to it. Returns the kept steps, whether max |r| fell below
    SWEEP_TOL, and the data of the final c.
    """
    img, side, data = start
    with np.errstate(all="ignore"):  # a bad factor fails the check below
        M = np.eye(g.size) + g[:, None] * (R.T @ (U / D[:, None]))
    if not (np.all(np.isfinite(M)) and np.all(D != 0.0)):
        return 0, False, data
    try:
        M_inv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return 0, False, data
    resid = float(np.max(np.abs(c - img)))
    steps = 0
    while resid >= SWEEP_TOL:
        with np.errstate(all="ignore"):
            y = (c - img) / D
            trial = c - y + (U @ (M_inv @ (g * (R.T @ y)))) / D
        if not np.all((lo <= trial) & (trial <= hi)):
            return steps, False, data
        trial_img, trial_side, trial_data = image(trial)
        trial_resid = float(np.max(np.abs(trial - trial_img)))
        if not (np.array_equal(trial_side, side) and trial_resid <= 0.5 * resid):
            return steps, False, data
        c[:], img, data, resid = trial, trial_img, trial_data, trial_resid
        steps += 1
    return steps, True, data


def solve_principal_thresholds(contest: HeteroContest, W: float) -> ThresholdVector:
    """Designer's cutoff system by Gauss-Seidel from the equilibrium, then
    chord-Newton.

    With the other cutoffs fixed, the designer's objective in c_i is
    (K_i - c) F(c) with K_i = W q_i prod_{j != i} (1 - q_j F(c_j)), so each
    step is the single-prize designer maximizer with one sure finder,
    ``dist.stake_cutoff(K_i)``, which every family gives in closed form:
    no step solves a root. Once the sweeps are near the fixed point (see
    POLISH_MOVE), Newton steps on the system's diagonal-plus-rank-1
    Jacobian finish it (_designer_newton), at O(n) a step and at any field
    size; if one is refused, the sweeps go on and finish alone, so the
    sweeps pick the fixed point.
    """
    check_positive("W", W)
    d = contest.dist
    q = contest.q_values
    c = solve_thresholds(contest).thresholds
    miss = (1.0 - _find_probabilities(contest, c)).tolist()
    stakes = [math.nan] * contest.n  # K_i at agent i's last step
    dK, dc = [0.0] * contest.n, [0.0] * contest.n  # that step's change in K_i and in c_i

    def best_response(i: int) -> float:
        K = W * q[i] * (math.prod(miss[:i]) * math.prod(miss[i + 1:]))
        c_i = d.stake_cutoff(K)
        dK[i], dc[i], stakes[i] = K - stakes[i], c_i - c[i], K
        miss[i] = 1.0 - q[i] * d.cdf(c_i)
        return c_i

    def polish():
        steps, done, x = _designer_newton(d, np.asarray(q), W, c, np.array(dK), np.array(dc))
        miss[:] = x.tolist()
        return steps, done

    return _gauss_seidel(c, best_response, polish)


def _designer_newton(d: CostDistribution, q: np.ndarray, W: float, c: np.ndarray, dK, dc):
    """Chord-Newton on r(c) = c - B(K(c)), B = dist.stake_cutoff, with the
    Jacobian

        J = diag(1 - b K v) + (b K) v^T,  v_j = q_j f(c_j) / x_j,

    where x_j = 1 - q_j F(c_j) and b_i = dB/dK is the secant dc_i / dK_i
    over agent i's last sweep step (exact where B is affine across that
    step: slope 1/2 on uniform and piecewise-linear laws, alpha / (alpha + 1)
    on a power law) and 0 for a clamped agent: _chord_newton's rank-1 case.
    Returns the kept steps, whether max |r| fell below SWEEP_TOL, and x at
    the final c.
    """
    lo, hi = d.support()

    def image(c):
        x = 1.0 - q * np.array([d.cdf(t) for t in c.tolist()])
        K = W * q * _leave_one_out_products(x)
        img = np.array([d.stake_cutoff(k) for k in K.tolist()])
        return img, np.sign(img - lo) + np.sign(img - hi), x  # side 0 = interior

    start = image(c)
    img, side, x = start
    if not np.all(x > 0.0):
        return 0, False, x
    with np.errstate(all="ignore"):  # a bad factor fails _chord_newton's check
        b = np.where(side == 0, dc / dK, 0.0)  # NaN until an agent's second step
        v = q * np.array([d.pdf(t) for t in c.tolist()]) / x
        u = b * W * q * _leave_one_out_products(x)  # b K
        D = 1.0 - u * v
    return _chord_newton(c, start, image, D, u[:, None], np.ones(1), v[:, None], lo, hi)


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """prod_{j != i} x_j for every i, from prefix and suffix products."""
    out = np.ones_like(x)
    out[1:] = np.cumprod(x[:-1])
    out[:-1] *= np.cumprod(x[:0:-1])[::-1]
    return out


@dataclass(frozen=True)
class HeteroPrizeSolution:
    thresholds: np.ndarray
    prize: float
    implied_prizes: np.ndarray  # c_i / psi_i, per agent
    spread: float
    sweeps: int
    newton_steps: int = 0


def solve_principal_hetero(contest: HeteroContest, W: float) -> HeteroPrizeSolution:
    """Optimal-prize solve: designer thresholds plus the implied common prize.

    The cutoff vector must be implementable by a single prize, so
    c_i / psi_i has to agree across agents; if the spread exceeds
    PRIZE_AGREEMENT_TOL the solve is rejected (this is the expected
    outcome for strongly heterogeneous q, where no single prize implements
    the unconstrained optimum).
    """
    sol = solve_principal_thresholds(contest, W)
    if not sol.converged:
        raise ConvergenceError(
            f"designer system did not converge within {MAX_SWEEPS} sweeps"
        )
    c = sol.thresholds
    implied = c / agent_win_probabilities(contest, c)
    spread = float(np.max(implied) - np.min(implied))
    if spread > PRIZE_AGREEMENT_TOL:
        raise ConvergenceError(
            "implied prizes disagree across agents "
            f"(spread {spread:.3e} > {PRIZE_AGREEMENT_TOL}); "
            "no single prize implements these cutoffs"
        )
    return HeteroPrizeSolution(
        thresholds=c,
        prize=float(np.mean(implied)),
        implied_prizes=implied,
        spread=spread,
        sweeps=sol.sweeps,
        newton_steps=sol.newton_steps,
    )


# ---------------------------------------------------------------------------
# Two-player equilibrium set


@dataclass(frozen=True)
class N2ScanResult:
    """The two-player equilibrium set, as the c1 values of its pairs
    (c1, BR(c1)); only pairs with both cutoffs inside the support count.

    segments are the set's closed c1 ranges, in order, exact up to rounding
    on every law; an isolated equilibrium is a segment (c, c). symmetric is
    the interior cutoff with BR(c) = c, or None where that cutoff clamps.
    grid_step is the spacing of the sample `pairs` draws from each segment.
    """

    segments: list[tuple[float, float]]
    symmetric: float | None
    grid_step: float
    dist: CostDistribution
    q: float
    V: float

    @property
    def has_symmetric(self) -> bool:
        return self.symmetric is not None

    @property
    def pairs(self) -> np.ndarray:
        """(k, 2) interior equilibrium pairs (c1, c2), sorted by c1: each
        segment's ends and the grid points inside it, and the symmetric
        pair. Built on every read; the result stores only the set."""
        lo, hi = self.dist.support()
        c1 = set() if self.symmetric is None else {self.symmetric}
        for a, b in self.segments:
            k = np.arange(math.ceil((a - lo) / self.grid_step),
                          math.floor((b - lo) / self.grid_step) + 1)
            sample = lo + k * self.grid_step
            c1.update(sample[(a < sample) & (sample < b)].tolist(), (a, b))
        pairs = [(c, best_response_n2(self.dist, self.q, self.V, c)) for c in sorted(c1)]
        return np.array([p for p in pairs if _interior(p, lo, hi)]).reshape(-1, 2)


def _interior(pair, lo: float, hi: float) -> bool:
    return lo < pair[0] < hi and lo < pair[1] < hi


def best_response_n2(d: CostDistribution, q: float, V: float, c_other: float) -> float:
    """Two-player best-response cutoff against a rival cutoff.

    q V (1 - (q/2) F(c_other)), clamped into the support.
    """
    check_find_probability(q)
    check_positive("V", V)
    lo, hi = d.support()
    br = q * V * (1.0 - 0.5 * q * d.cdf(c_other))
    return min(max(br, lo), hi)


def best_response_scan_n2(
    d: CostDistribution,
    q: float,
    V: float,
    grid: int = 10001,
) -> N2ScanResult:
    """The full two-player equilibrium set: every c1 with BR(BR(c1)) = c1
    whose pair (c1, BR(c1)) lies inside the support, solved cell by cell.

    The gap BR(BR(c)) - c is monotone between the cuts of _scan_cuts, so a
    cell whose ends and midpoint have a gap within SCAN_TOL is a segment,
    and any other holds at most one root where the gap changes sign: the
    symmetric cutoff BR(c) = c where the cell brackets it (near a 2-cycle's
    birth the gap is too flat to pin it), else a bisect_root solve. Pieces
    closer than SCAN_TOL join one segment, a segment whose middle pair
    clamps is dropped, and the symmetric cutoff counts where the set holds
    it. A law neither knotted nor a power law raises InputError.

    grid, an integer >= 2, is the number of points across the support; it
    sets only the spacing of `pairs` (1e-4 on a unit support by default).
    """
    if not (isinstance(grid, (int, np.integer)) and grid >= 2):
        raise InputError(f"grid must be an integer >= 2, got {grid!r}")
    check_find_probability(q)
    check_positive("V", V)
    lo, hi = d.support()
    br = functools.partial(best_response_n2, d, q, V)

    def gap(c1: float) -> float:
        return br(br(c1)) - c1

    # BR(c) - c falls, from >= 0 at lo to <= 0 at hi; its root is a gap root.
    sym = bisect_root(lambda c: br(c) - c, lo, hi)
    cuts = _scan_cuts(d, q, V)
    gaps = [gap(c) for c in cuts]
    found = [(c, c) for c, g in zip(cuts, gaps) if abs(g) <= SCAN_TOL]
    for a, b, ga, gb in zip(cuts, cuts[1:], gaps, gaps[1:]):
        if max(abs(ga), abs(gb), abs(gap(0.5 * (a + b)))) <= SCAN_TOL:
            found.append((a, b))
        elif ga * gb < 0.0 and min(abs(ga), abs(gb)) > SCAN_TOL:
            found.append((sym if a <= sym <= b else bisect_root(gap, a, b),) * 2)
    segments: list[tuple[float, float]] = []
    for a, b in sorted(found):
        if segments and a - segments[-1][1] <= SCAN_TOL:
            segments[-1] = (segments[-1][0], max(b, segments[-1][1]))
        else:
            segments.append((a, b))
    # A segment whose middle pair clamps holds no interior pair.
    segments = [s for s in segments
                if _interior((mid := 0.5 * (s[0] + s[1]), br(mid)), lo, hi)]
    # Held by the set, so that a symmetric pair the set drops as clamped stays out.
    held = any(a - SCAN_TOL <= sym <= b + SCAN_TOL for a, b in segments)
    symmetric = sym if held and _interior((sym, br(sym)), lo, hi) else None
    return N2ScanResult(segments, symmetric, (hi - lo) / (int(grid) - 1), d, q, V)


def _scan_cuts(d: CostDistribution, q: float, V: float) -> list[float]:
    """Sorted cuts between which BR(BR(c)) - c is monotone: the support's
    ends, BR's kinks (F's knots, the clamp points) and their BR-preimages,
    which leave BR o BR affine on a knotted law, and a power law's turns."""
    lo, hi = d.support()
    knots = d.cdf_knots()
    if knots is not None:
        def inverse(y: float) -> list[float]:
            # A level within LEVEL_TOL of a knot's F crosses at knots, which
            # are cuts already; solving for it on a shallow piece would move
            # the crossing off the knot by the level's rounding over the slope.
            if any(abs(y - F) <= LEVEL_TOL for _, F in knots):
                return []
            return [c0 + (y - F0) / ((F1 - F0) / (c1 - c0))
                    for (c0, F0), (c1, F1) in zip(knots, knots[1:]) if F0 < y < F1]
    elif isinstance(d, PowerLaw):
        def inverse(y: float) -> list[float]:
            return [y ** (1.0 / d.alpha)] if 0.0 < y < 1.0 else []
    else:
        raise InputError(f"the two-player scan needs a knotted or power law, got {d!r}")

    def preimages(values) -> set[float]:
        # The raw best response qV(1 - (q/2)F(c)) equals v where F(c) = y.
        qV = max(q * V, math.ulp(0.0))  # 0 only where q V underflows
        return {c for v in values for c in inverse(2.0 * (1.0 - v / qV) / q)}

    breaks = {lo, hi} | {c for c, _ in knots or ()} | preimages((lo, hi))
    cuts = breaks | preimages(breaks) | set(() if knots else _power_turns(d, q, V))
    return sorted(c for c in cuts if lo <= c <= hi)


def _power_turns(d: PowerLaw, q: float, V: float) -> list[float]:
    """Where BR(BR(c)) - c may turn on F = c^alpha. Off the clamps its slope
    is K phi(c)^(alpha - 1) - 1, K = (q^2 V alpha / 2)^2, where
    phi(c) = c BR(c) = qV(c - (q/2)c^(alpha + 1)) rises to its peak at
    c* = (2/(q(alpha + 1)))^(1/alpha), then falls. So the slope is zero
    where phi = T = K^(-1/(alpha - 1)), at most once on each side of c*. c*
    is no cut: the slope keeps its sign there, and near a 2-cycle's birth
    c* is a near-root. K and T are in logs, as float ** raises on overflow."""
    alpha = d.alpha
    peak = min(2.0 / (q * (alpha + 1.0)), 1.0) ** (1.0 / alpha)

    def phi(c: float) -> float:
        return q * V * c * (1.0 - 0.5 * q * d.cdf(c))

    top, log_K = phi(peak), 2.0 * (2.0 * math.log(q) + math.log(V) + math.log(0.5 * alpha))
    if alpha == 1.0 or top <= 0.0 or math.log(top) <= (log_T := -log_K / (alpha - 1.0)):
        return []
    T = math.exp(log_T)
    turns = [bisect_root(lambda c: phi(c) - T, 0.0, peak)]
    if phi(1.0) < T:
        turns.append(bisect_root(lambda c: phi(c) - T, peak, 1.0))
    return turns

"""Heterogeneous find probabilities: agent i finds with probability q_i.

Thresholds are agent-specific. Write pi_j = q_j F(c_j) for the chance that
agent j searches and finds. A searching agent i wins with probability

    psi_i = q_i E[1 / (T_i + 1)] = q_i * integral_0^1 prod_{j != i} (1 - pi_j + pi_j t) dt,

where T_i counts the other finders and the prize goes to one of the
T_i + 1 finders at random (integrating t^T over [0, 1] gives 1/(T + 1)).
The integrand is a polynomial of degree n - 1, so Gauss-Legendre
quadrature at floor(n/2) + 1 nodes on [0, 1] takes it exactly. One kernel
serves every agent: the matrix of log factors log(1 - pi_j + pi_j t_k), one
row per agent and one column per node, gives each leave-one-out share as
the weighted sum of exp(column sums - own row).

Equilibria come from Gauss-Seidel sweeps of the best responses
c_i = V psi_i, which keep the column sums current. The designer's system is
swept the same way: with the other cutoffs fixed, the designer's objective
in c_i is (K_i - c) F(c) with K_i = W q_i prod_{j != i} (1 - pi_j), the
single-prize designer problem with one sure finder.

The two-player scanner at the bottom maps out the full equilibrium set; it
exists because irregular (kinked) cost distributions can carry a continuum
of asymmetric equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import (
    ConvergenceError, InputError, check_find_probabilities, check_find_probability, check_positive,
)
from ._numerics import bisect_root
from .distributions import CostDistribution
from .equilibrium import ContestConfig, solve_threshold
from .principal import _best_cutoff

SWEEP_TOL = 1e-10
MAX_SWEEPS = 10_000
PRIZE_AGREEMENT_TOL = 1e-8
SCAN_TOL = 1e-9


@dataclass(frozen=True)
class HeteroContest:
    """Per-agent find probabilities (stored sorted nonincreasing), prize,
    and the shared cost distribution.

    ``order`` maps sorted positions back to the constructor's ordering:
    sorted position i corresponds to input index order[i].
    """

    q_values: tuple[float, ...]
    V: float
    dist: CostDistribution
    order: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        q = [float(v) for v in self.q_values]
        if len(q) < 1:
            raise InputError("need at least one agent")
        check_find_probabilities(q)
        check_positive("V", self.V)
        perm = sorted(range(len(q)), key=lambda i: -q[i])
        object.__setattr__(self, "q_values", tuple(q[i] for i in perm))
        object.__setattr__(self, "order", tuple(perm))

    @property
    def n(self) -> int:
        return len(self.q_values)

    def to_input_order(self, values) -> np.ndarray:
        """Reorder a sorted-position vector back to constructor order."""
        out = np.empty(self.n)
        out[list(self.order)] = values
        return out


@dataclass(frozen=True)
class ThresholdVector:
    thresholds: np.ndarray  # aligned with the contest's sorted q_values
    converged: bool
    sweeps: int


def _find_probabilities(contest: HeteroContest, thresholds) -> np.ndarray:
    """pi_j = q_j F(c_j) for a vector of cutoffs in sorted position."""
    c = np.asarray(thresholds, dtype=float)
    if c.shape != (contest.n,):
        raise InputError(f"expected {contest.n} thresholds, got shape {c.shape}")
    return np.asarray(contest.q_values) * np.array([contest.dist.cdf(float(t)) for t in c])


def _quadrature(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact up to degree n - 1."""
    x, w = np.polynomial.legendre.leggauss(n // 2 + 1)
    return 0.5 * (x + 1.0), 0.5 * w


def _log_factors(pi, t: np.ndarray) -> np.ndarray:
    """log(1 - pi_j + pi_j t_k); finite because every node is positive."""
    return np.log1p(np.multiply.outer(pi, t - 1.0))


def agent_win_probabilities(contest: HeteroContest, thresholds) -> np.ndarray:
    """Win probability psi_i of each searching agent (sorted position)
    when the agents use the given cutoffs."""
    t, w = _quadrature(contest.n)
    rows = _log_factors(_find_probabilities(contest, thresholds), t)
    return np.asarray(contest.q_values) * (np.exp(rows.sum(axis=0) - rows) @ w)


def success_probability(contest: HeteroContest, thresholds) -> float:
    """Probability someone finds: 1 - prod_i (1 - q_i F(c_i))."""
    pi = _find_probabilities(contest, thresholds)
    if np.any(pi >= 1.0):
        return 1.0
    return -math.expm1(float(np.sum(np.log1p(-pi))))


def _gauss_seidel(c: np.ndarray, best_response) -> ThresholdVector:
    """Set c_i = best_response(i) for each agent in turn, sweeping until no
    cutoff moves by SWEEP_TOL in a whole sweep."""
    for sweep in range(1, MAX_SWEEPS + 1):
        delta = 0.0
        for i in range(c.size):
            new_ci = best_response(i)
            delta = max(delta, abs(new_ci - c[i]))
            c[i] = new_ci
        if delta < SWEEP_TOL:
            return ThresholdVector(thresholds=c, converged=True, sweeps=sweep)
    return ThresholdVector(thresholds=c, converged=False, sweeps=MAX_SWEEPS)


def solve_thresholds(contest: HeteroContest) -> ThresholdVector:
    """Equilibrium cutoff vector by Gauss-Seidel best responses.

    Starts from the symmetric solution at the mean find probability and
    sweeps c_i = V psi_i, clamped into the support. Convergence is
    reported, not assumed; callers decide how to treat a False flag.
    """
    d = contest.dist
    lo, hi = d.support()
    q = np.asarray(contest.q_values)
    sym = solve_threshold(d, ContestConfig(n=float(contest.n), q=float(np.mean(q)), V=contest.V))
    c = np.full(contest.n, sym.threshold)
    t, w = _quadrature(contest.n)
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

    return _gauss_seidel(c, best_response)


def solve_principal_thresholds(contest: HeteroContest, W: float) -> ThresholdVector:
    """Designer's cutoff system, solved by Gauss-Seidel from the equilibrium.

    With the other cutoffs fixed, the designer's objective in c_i is
    (K_i - c) F(c) with K_i = W q_i prod_{j != i} (1 - q_j F(c_j)), so each
    step is the exact single-prize designer maximizer with one sure finder,
    ``principal._best_cutoff``, which holds on any cost law.
    """
    check_positive("W", W)
    d = contest.dist
    lo, hi = d.support()
    q = np.asarray(contest.q_values)
    c = solve_thresholds(contest).thresholds
    miss = 1.0 - _find_probabilities(contest, c)

    def best_response(i: int) -> float:
        K = W * q[i] * float(np.prod(miss[:i]) * np.prod(miss[i + 1:]))
        c_i = _best_cutoff(d, 1.0, 1.0, K, lo, hi)
        miss[i] = 1.0 - q[i] * d.cdf(c_i)
        return c_i

    return _gauss_seidel(c, best_response)


@dataclass(frozen=True)
class HeteroPrizeSolution:
    thresholds: np.ndarray
    prize: float
    implied_prizes: np.ndarray  # c_i / psi_i, per agent
    spread: float
    sweeps: int


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
    )


# ---------------------------------------------------------------------------
# Two-player equilibrium set scanner


@dataclass(frozen=True)
class N2ScanResult:
    pairs: np.ndarray  # (k, 2) interior fixed pairs (c1, c2)
    segments: list[tuple[float, float]]  # connected c1 ranges
    has_symmetric: bool
    grid_step: float


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
    """Map the full two-player equilibrium set by scanning best responses.

    A pair (c1, BR(c1)) is an equilibrium iff BR(BR(c1)) = c1. Grid points
    satisfying that within SCAN_TOL are accepted directly (this catches
    continuum segments, where the composition is the identity); sign
    changes of the gap between grid points are refined by bisection to
    catch isolated equilibria that miss the grid. Boundary-clamped pairs
    are excluded: only interior equilibria are reported.

    grid is the number of scan points across the support; the default
    10001 gives 1e-4 spacing on a unit-width support.
    """
    count = int(grid)
    if count < 2:
        raise InputError(f"grid must be at least 2 points, got {grid}")
    lo, hi = d.support()
    grid_pts = np.linspace(lo, hi, count)
    step = float(grid_pts[1] - grid_pts[0])

    def gap(c1: float) -> float:
        return best_response_n2(d, q, V, best_response_n2(d, q, V, c1)) - c1

    gaps = np.array([gap(float(c)) for c in grid_pts])
    accepted = [float(c) for c, g in zip(grid_pts, gaps) if abs(g) <= SCAN_TOL]
    for i in range(count - 1):
        ga, gb = float(gaps[i]), float(gaps[i + 1])
        if abs(ga) <= SCAN_TOL or abs(gb) <= SCAN_TOL:
            continue
        if ga * gb < 0.0:
            accepted.append(bisect_root(gap, float(grid_pts[i]), float(grid_pts[i + 1])))
    accepted.sort()

    pairs = []
    for c1 in accepted:
        c2 = best_response_n2(d, q, V, c1)
        if lo < c1 < hi and lo < c2 < hi:
            pairs.append((c1, c2))

    segments: list[tuple[float, float]] = []
    for c1, _ in pairs:
        if segments and c1 - segments[-1][1] <= 1.5 * step:
            segments[-1] = (segments[-1][0], c1)
        else:
            segments.append((c1, c1))
    has_symmetric = any(abs(c1 - c2) <= SCAN_TOL for c1, c2 in pairs)
    return N2ScanResult(
        pairs=np.array(pairs).reshape(-1, 2),
        segments=segments,
        has_symmetric=has_symmetric,
        grid_step=step,
    )

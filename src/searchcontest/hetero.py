"""Heterogeneous find probabilities: agent i finds with probability q_i.

Thresholds are agent-specific. Agent i's value of searching against rival
cutoffs c_{-i} is

    agent_win_probability = q_i * E[1 / (T + 1)],

where T counts rival finders, a Poisson-binomial with success vector
pi_j = q_j F(c_j). Equilibria come from Gauss-Seidel sweeps of the best
responses c_i = V * agent_win_probability(c_{-i}); each best response is a
direct evaluation because c_i does not enter its own equation.

The two-player scanner at the bottom maps out the full equilibrium set; it
exists because irregular (kinked) cost distributions can carry a continuum
of asymmetric equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import ConvergenceError, InputError, check_find_probability, check_positive
from ._numerics import bisect_root, solve_cutoff
from .distributions import CostDistribution, check_reverse_hazard_monotone
from .equilibrium import ContestConfig, solve_threshold

SWEEP_TOL = 1e-10
MAX_SWEEPS = 10_000
PRIZE_AGREEMENT_TOL = 1e-8


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
        if any(not (0.0 < v <= 1.0) for v in q):
            raise InputError("every find probability must lie in (0, 1]")
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
        for pos, idx in enumerate(self.order):
            out[idx] = values[pos]
        return out


@dataclass(frozen=True)
class ThresholdVector:
    thresholds: np.ndarray  # aligned with the contest's sorted q_values
    converged: bool
    sweeps: int


def poisson_binomial_pmf(probs) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoullis, by convolution.

    O(n^2): fold in one success probability at a time.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise InputError("probs must be a 1-d vector")
    if np.any((p < 0.0) | (p > 1.0)):
        raise InputError("probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        upper = i + 2
        block = pmf[:upper].copy()
        pmf[:upper] = block * (1.0 - pi)
        pmf[1:upper] += block[:-1] * pi
    return pmf


def expected_tiebreak_share(probs) -> float:
    """E[1/(T+1)] for Poisson-binomial T: the uniform tie-break share."""
    pmf = poisson_binomial_pmf(probs)
    return float(np.dot(pmf, 1.0 / np.arange(1.0, pmf.size + 1.0)))


def agent_win_probability(contest: HeteroContest, i: int, rival_thresholds) -> float:
    """Win probability of agent i (sorted position) given rivals' cutoffs.

    rival_thresholds is aligned with the sorted q_values with position i
    removed.
    """
    if not (0 <= i < contest.n):
        raise InputError(f"agent index {i} out of range for n = {contest.n}")
    rivals = np.asarray(rival_thresholds, dtype=float)
    if rivals.shape != (contest.n - 1,):
        raise InputError(
            f"expected {contest.n - 1} rival thresholds, got shape {rivals.shape}"
        )
    q = np.asarray(contest.q_values)
    q_rivals = np.delete(q, i)
    pi = q_rivals * np.array([contest.dist.cdf(float(c)) for c in rivals])
    return float(q[i]) * expected_tiebreak_share(pi)


def success_probability(contest: HeteroContest, thresholds) -> float:
    """Probability someone finds: 1 - prod_i (1 - q_i F(c_i))."""
    c = np.asarray(thresholds, dtype=float)
    if c.shape != (contest.n,):
        raise InputError(f"expected {contest.n} thresholds, got shape {c.shape}")
    q = np.asarray(contest.q_values)
    F = np.array([contest.dist.cdf(float(t)) for t in c])
    return -math.expm1(float(np.sum(np.log1p(-q * F))))


def solve_thresholds(
    contest: HeteroContest,
    max_sweeps: int = MAX_SWEEPS,
    sweep_tol: float = SWEEP_TOL,
) -> ThresholdVector:
    """Equilibrium cutoff vector by Gauss-Seidel best responses.

    Starts from the symmetric solution at the mean find probability and
    sweeps until the sup-norm update falls below sweep_tol. Convergence is
    reported, not assumed; callers decide how to treat a False flag.
    """
    lo, hi = contest.dist.support()
    q_mean = float(np.mean(contest.q_values))
    sym = solve_threshold(
        contest.dist, ContestConfig(n=float(contest.n), q=q_mean, V=contest.V)
    )
    c = np.full(contest.n, sym.threshold)
    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for i in range(contest.n):
            rivals = np.delete(c, i)
            target = contest.V * agent_win_probability(contest, i, rivals)
            new_ci = min(max(target, lo), hi)
            delta = max(delta, abs(new_ci - c[i]))
            c[i] = new_ci
        if delta < sweep_tol:
            return ThresholdVector(thresholds=c, converged=True, sweeps=sweep)
    return ThresholdVector(thresholds=c, converged=False, sweeps=max_sweeps)


def _principal_update(
    contest: HeteroContest, i: int, c: np.ndarray, W: float
) -> float:
    """Solve c_i + F(c_i)/f(c_i) = W q_i prod_{j!=i}(1 - q_j F(c_j)),
    clamped into the support."""
    d = contest.dist
    q = np.asarray(contest.q_values)
    F_rivals = np.array([d.cdf(float(t)) for t in np.delete(c, i)])
    K = W * float(q[i]) * float(np.prod(1.0 - np.delete(q, i) * F_rivals))
    c_i, _ = solve_cutoff(lambda t: K - d.reverse_hazard(t), *d.support())
    return c_i


def solve_principal_thresholds(
    contest: HeteroContest,
    W: float,
    max_sweeps: int = MAX_SWEEPS,
    sweep_tol: float = SWEEP_TOL,
) -> ThresholdVector:
    """Designer's first-order-condition system, solved by Gauss-Seidel.

    Each sweep step solves the scalar condition for one agent holding the
    others fixed; the left side is strictly increasing when F/f is
    nondecreasing, which is checked up front.
    """
    check_positive("W", W)
    ok, where = check_reverse_hazard_monotone(contest.dist)
    if not ok:
        raise InputError(
            f"designer system needs a nondecreasing F/f; violated near {where}"
        )
    eq = solve_thresholds(contest)
    c = eq.thresholds.copy()
    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for i in range(contest.n):
            new_ci = _principal_update(contest, i, c, W)
            delta = max(delta, abs(new_ci - c[i]))
            c[i] = new_ci
        if delta < sweep_tol:
            return ThresholdVector(thresholds=c, converged=True, sweeps=sweep)
    return ThresholdVector(thresholds=c, converged=False, sweeps=max_sweeps)


@dataclass(frozen=True)
class HeteroPrizeSolution:
    thresholds: np.ndarray
    prize: float
    implied_prizes: np.ndarray  # c_i / agent_win_probability_i, per agent
    spread: float
    sweeps: int


def solve_principal_hetero(
    contest: HeteroContest, W: float, max_sweeps: int = MAX_SWEEPS
) -> HeteroPrizeSolution:
    """Optimal-prize solve: FOC thresholds plus the implied common prize.

    The cutoff vector must be implementable by a single prize, so
    c_i / agent_win_probability_i has to agree across agents; if the
    spread exceeds PRIZE_AGREEMENT_TOL the solve is rejected (this is the
    expected outcome for strongly heterogeneous q, where no single prize
    implements the unconstrained optimum).
    """
    sol = solve_principal_thresholds(contest, W, max_sweeps)
    if not sol.converged:
        raise ConvergenceError(
            f"designer system did not converge within {max_sweeps} sweeps"
        )
    c = sol.thresholds
    implied = np.empty(contest.n)
    for i in range(contest.n):
        share = agent_win_probability(contest, i, np.delete(c, i))
        if share <= 0.0:
            raise ConvergenceError(f"agent {i} has zero win probability at the solution")
        implied[i] = c[i] / share
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
    tol: float = 1e-9,
) -> N2ScanResult:
    """Map the full two-player equilibrium set by scanning best responses.

    A pair (c1, BR(c1)) is an equilibrium iff BR(BR(c1)) = c1. Grid points
    satisfying that within tol are accepted directly (this catches
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
    accepted = [float(c) for c, g in zip(grid_pts, gaps) if abs(g) <= tol]
    for i in range(count - 1):
        ga, gb = float(gaps[i]), float(gaps[i + 1])
        if abs(ga) <= tol or abs(gb) <= tol:
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
    has_symmetric = any(abs(c1 - c2) <= max(tol, 1e-9) for c1, c2 in pairs)
    return N2ScanResult(
        pairs=np.array(pairs).reshape(-1, 2),
        segments=segments,
        has_symmetric=has_symmetric,
        grid_step=step,
    )

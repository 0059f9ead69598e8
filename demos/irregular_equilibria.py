"""When regularity fails: equilibrium continua and unequal searchers.

The baseline theory assumes a nondecreasing reverse hazard F/f, which
pins down a unique symmetric equilibrium. This demo shows what the
library reports when those assumptions are dropped:

1. On a kinked piecewise-linear cost law F/f drops at c = 3/7, so it
   rises on two pieces, not one, and the two-player best-response scan
   finds a whole segment of asymmetric equilibria (c1, 1 - c1) instead of
   a single point.
2. With unequal find probabilities the Gauss-Seidel solve produces
   per-agent cutoffs; stronger agents search more, and the success
   probability decomposes agent by agent.
3. The designer's ideal cutoffs can form a vector that no single prize
   implements, for unequal agents and, on the kinked law, for equal ones;
   the solver reports the implied-prize disagreement instead of papering
   over it.
"""

import numpy as np

from searchcontest import ConvergenceError
from searchcontest.distributions import PiecewiseLinear, Uniform
from searchcontest.hetero import (
    HeteroContest,
    agent_win_probabilities,
    best_response_scan_n2,
    solve_principal_hetero,
    solve_principal_thresholds,
    solve_thresholds,
    success_probability,
)

LINE = "-" * 68


def main():
    kinked = PiecewiseLinear(
        ((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0))
    )
    print(LINE)
    print("kinked cost law, two players, q = 1, V = 5/7:")
    pieces = ", ".join(f"[{a:.4f}, {b:.4f}]" for a, b in kinked.rising_pieces())
    print(f"  F/f rises on {pieces}  (it drops at 3/7 = {3 / 7:.4f})")
    scan = best_response_scan_n2(kinked, 1.0, 5.0 / 7.0)
    c1 = scan.pairs[:, 0]
    print(f"  equilibrium pairs found: {scan.pairs.shape[0]}")
    print(f"  c1 range: [{c1.min():.6f}, {c1.max():.6f}]  "
          f"(3/7 = {3 / 7:.6f}, 4/7 = {4 / 7:.6f})")
    print(f"  every pair satisfies c2 = 1 - c1: "
          f"{bool(np.all(np.abs(scan.pairs.sum(axis=1) - 1.0) < 1e-9))}")
    print(f"  symmetric (1/2, 1/2) included: {scan.has_symmetric}")
    print("  a continuum of asymmetric equilibria, not a unique point.")

    print(LINE)
    print("unequal abilities q = (0.9, 0.6, 0.3), uniform costs, V = 1:")
    contest = HeteroContest((0.9, 0.6, 0.3), 1.0, Uniform(0.0, 1.0))
    sol = solve_thresholds(contest)
    total = success_probability(contest, sol.thresholds)
    print(f"  converged in {sol.sweeps} sweeps; P = {total:.6f}")
    shares = agent_win_probabilities(contest, sol.thresholds)
    for q_i, c_i, psi in zip(contest.q_values, sol.thresholds, shares):
        share = contest.dist.cdf(c_i) * psi
        print(f"  agent q={q_i:.1f}: cutoff {c_i:.6f}  win share {psi:.6f}  "
              f"contributes {share:.6f} to P")

    print(LINE)
    print("the designer's ideal cutoffs vs. what one prize can implement:")
    same = HeteroContest((0.5, 0.5), 1.0, Uniform(0.0, 1.0))
    sol = solve_principal_hetero(same, W=2.0)
    print(f"  q = (0.5, 0.5), W = 2: prize {sol.prize:.6f}, "
          f"implied-prize spread {sol.spread:.2e}  -> implementable")
    for qpair in ((0.6, 0.5), (0.9, 0.2)):
        try:
            solve_principal_hetero(HeteroContest(qpair, 1.0, Uniform(0.0, 1.0)), W=2.0)
        except ConvergenceError as e:
            spread = str(e).split("spread ")[1].split(" ")[0]
            print(f"  q = {qpair}, W = 2: rejected, implied prizes differ by {spread}")
    print("  each agent's cutoff divided by their win share is the prize that")
    print("  would induce it; unequal agents want unequal prizes, so the")
    print("  unconstrained optimum dies once abilities diverge.")
    kinked_pair = HeteroContest((0.5, 0.5), 1.0, kinked)
    first_best = solve_principal_thresholds(kinked_pair, W=2.0).thresholds
    print(f"  kinked law, q = (0.5, 0.5), W = 2: ideal cutoffs "
          f"({first_best[0]:.4f}, {first_best[1]:.4f})")
    try:
        solve_principal_hetero(kinked_pair, W=2.0)
    except ConvergenceError:
        print("  equal agents, yet the ideal is asymmetric: no single prize implements it.")


if __name__ == "__main__":
    main()

"""Monte Carlo cross-checks of the closed-form solvers.

Simulates the contest with seeded, chunked streams (Philox on the count
path these alike agents take; see `searchcontest.montecarlo`) and compares
the simulated success rate, per-searcher win rate, and cutoff-agent
payoff against the analytic values, reporting z-scores. The second half
estimates the gain from deviating to a fixed search cost: statistically
zero at the equilibrium cutoff, decisively signed away from it.
"""

from searchcontest.distributions import Uniform
from searchcontest.equilibrium import ContestConfig, solve_threshold, win_probability
from searchcontest.montecarlo import SimConfig, deviation_gain, simulate

LINE = "-" * 68
REPS = 200_000


def main():
    d = Uniform(0.0, 1.0)
    cfg = ContestConfig(n=10.0, q=0.5, V=1.0)
    res = solve_threshold(d, cfg)
    c = res.threshold
    print(LINE)
    print(f"uniform costs, q = 0.5, V = 1, n = 10, {REPS:,} replications, seed 7")
    print(f"  analytic: c* = {c:.6f}, P* = {res.success_prob:.6f}, "
          f"win prob = {res.win_prob:.6f}")
    est = simulate(d, cfg, SimConfig(REPS, 7, c))
    z_p = (est.success_rate - res.success_prob) / est.success_se
    z_w = (est.searcher_win_rate - res.win_prob) / est.searcher_win_se
    z_0 = est.mean_payoff_at_threshold / est.mean_payoff_se
    print(f"  simulated success rate     {est.success_rate:.6f}  (z = {z_p:+.2f})")
    print(f"  simulated win rate         {est.searcher_win_rate:.6f}  (z = {z_w:+.2f})")
    print(f"  cutoff-agent mean payoff   {est.mean_payoff_at_threshold:+.6f}  "
          f"(z = {z_0:+.2f}; indifference predicts zero)")
    print(f"  win probability from the formula at c*: "
          f"{win_probability(d, cfg, c):.6f}")

    print(LINE)
    print("gain from always searching at a fixed cost (rivals hold c*):")
    for at_cost in (c - 0.05, c, c + 0.05):
        g = deviation_gain(d, cfg, SimConfig(REPS, 23, c), at_cost)
        z = g.value / g.std_error
        verdict = "indifferent" if abs(z) < 3 else ("profitable" if z > 0 else "losing")
        print(f"  cost {at_cost:.6f}: gain {g.value:+.6f} +/- {g.std_error:.6f}  "
              f"(z = {z:+.1f}, {verdict})")
    print("  rivals' cutoffs fix the prize side at exactly c*, so the gain is")
    print("  c* minus the cost; the simulation recovers that line.")

    print(LINE)
    print("determinism: same seed, same estimate")
    again = simulate(d, cfg, SimConfig(REPS, 7, c))
    print(f"  rerun success rate matches bit for bit: "
          f"{again.success_rate == est.success_rate}")


if __name__ == "__main__":
    main()

"""Designing the prize: single-prize tuning and rank-prize mixtures.

A designer who values the object at W chooses what to pay out. With one
prize the only lever is its size V; the stakes window [w_lo, w_hi] marks
the W range whose optimum is interior. With rank-ordered prizes and a
fixed purse, the lever is the split: an equal split minimizes search, a
single winner-takes-all prize maximizes it, and a convex mix of the two
hits anything in between. As W grows the optimal split walks from equal
shares through an interior mix to winner-takes-all. Winner-takes-all
maximizes search but is not always best for the designer: with a large
purse it pushes the cutoff to the top of the support, where a cheaper mix
induces the same search.
"""

from searchcontest.distributions import Uniform
from searchcontest.multiprize import optimal_prize_structure, principal_value_multi
from searchcontest.multiprize import PrizeStructure
from searchcontest.principal import optimal_prize, stakes_window

LINE = "-" * 68


def main():
    d = Uniform(0.0, 1.0)

    print(LINE)
    print("single prize, uniform costs, q = 0.5, n = 10:")
    lo, hi = stakes_window(d, 0.5, 10.0)
    print(f"  interior stakes window: ({lo:.4f}, {hi:.4f})")
    for W in (1.2, 2.0, 6.0):
        sol = optimal_prize(d, 0.5, 10.0, W)
        print(f"  W={W:<4} -> prize V*={sol.prize:.6f}  cutoff={sol.threshold:.6f}  "
              f"designer payoff={sol.objective_value + W:.6f}  [{sol.regime}]")

    print(LINE)
    print("splitting a unit purse between two ranks (q = 1, n = 2, V = 1):")
    for top in (0.5, 0.75, 1.0):
        structure = PrizeStructure((top, 1.0 - top))
        value = principal_value_multi(d, 1.0, 2, 2.0, structure)
        print(f"  prizes ({top:.2f}, {1 - top:.2f}) -> designer value {value:.6f}")
    print("  at W = 2 the equal split wins: search is already worth less than")
    print("  it costs, so the designer wants as little of it as possible.")

    print(LINE)
    print("optimal split as the designer's stakes W grow:")
    for W in (2.0, 3.0, 10.0):
        sol = optimal_prize_structure(d, 1.0, 2, W, 1.0)
        print(f"  W={W:<5} -> regime {sol.regime:<16} "
              f"prizes ({sol.top_prize:.4f}, {sol.other_prize:.4f})  "
              f"cutoff {sol.threshold:.4f}  value {sol.value:.6f}")
    w_lo, w_hi = optimal_prize_structure(d, 1.0, 2, 3.0, 1.0).stakes_window
    print(f"  the walk happens inside the structure stakes window "
          f"({w_lo:.4f}, {w_hi:.4f}):")
    print("  below it equal-split is best, above it winner-takes-all.")

    print(LINE)
    print("a large purse (q = 0.5, n = 2, V = 3, W = 100):")
    wta = principal_value_multi(d, 0.5, 2, 100.0, PrizeStructure.winner_takes_all(3.0, 2))
    sol = optimal_prize_structure(d, 0.5, 2, 100.0, 3.0)
    print(f"  winner-takes-all -> everyone searches, designer value {wta:.6f}")
    print(f"  best split       -> regime {sol.regime}, "
          f"prizes ({sol.top_prize:.4f}, {sol.other_prize:.4f}), "
          f"cutoff {sol.threshold:.4f}, value {sol.value:.6f}")
    print("  the mix already makes everyone search, and it pays out less.")


if __name__ == "__main__":
    main()

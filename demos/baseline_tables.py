"""Reproduce the bundled reference tables and check the balance identity.

Each row solves the symmetric threshold equilibrium and prints the computed
cutoff and success probability next to the quoted four-decimal references.
The last section verifies the accounting identity c* n F(c*) = V P* that
links search spending to the prize bill.
"""

from searchcontest.distributions import distribution_from_spec
from searchcontest.tables import REFERENCE_TABLES, reproduce

LINE = "-" * 72


def main():
    worst = 0.0
    for name, spec in REFERENCE_TABLES.items():
        d = distribution_from_spec(spec["dist"])
        rows, _ = reproduce(name)
        print(LINE)
        print(f"{name}: dist={spec['dist']}  q={spec['q']}  V={spec['V']}")
        print(f"{'n':>6} {'c* (computed)':>14} {'c* (ref)':>9} "
              f"{'P* (computed)':>14} {'P* (ref)':>9}  ok")
        for row in rows:
            c, p = row["threshold"], row["success_prob"]
            print(f"{row['n']:>6} {c:>14.6f} {row['threshold_ref']:>9.4f} "
                  f"{p:>14.6f} {row['success_prob_ref']:>9.4f}  {'yes' if row['ok'] else 'NO'}")
            worst = max(worst, abs(c * row["n"] * d.cdf(c) - spec["V"] * p))

    print(LINE)
    print("balance identity c* n F(c*) = V P* across all rows:")
    print(f"  worst absolute residual: {worst:.3e}")


if __name__ == "__main__":
    main()

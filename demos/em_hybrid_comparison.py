"""Plain EM vs the project-then-lift hybrid, head to head.

Each trial draws a fresh 1-separated five-component spherical mixture,
fits it both ways from the same seed, and scores the fits by whether every
estimated center lands within a third of the true cluster radius, plus the
test log-likelihood. Dimension hurts plain EM; the hybrid shrugs it off.
The plain EM here starts once, from k random data points, and the harm
belongs to that start: Dasgupta and Schulman's two-round start (UAI 2000)
lifts plain EM to 0.993 at n = 50 and 1.000 at n = 200 on criterion 3's
150 trials at each n.
The trials are fig8's sweep (`fig8_body`) at n = 50, 100 and 200.

Run: python3 demos/em_hybrid_comparison.py [--trials 15]
"""

import argparse

from rpmix.experiments import fig8_body


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=15)
    args = parser.parse_args()

    print("%6s  %12s  %12s  %12s" % ("n", "plain ok", "hybrid ok", "hybrid beats"))
    for agg in fig8_body(10_000, trials=args.trials, n_values=(50, 100, 200)).aggregates():
        if agg["row_type"] == "mean":
            rates = (100 * agg[c] for c in ("reg_success", "rp_success", "rp_beats"))
            print("%6d  %11.0f%%  %11.0f%%  %11.0f%%" % (agg["n"], *rates))

    print()
    print("Plain EM's success rate slides as n grows; the hybrid, which does")
    print("its real work in a random 25-dimensional shadow of the data and")
    print("then takes a single high-dimensional EM step, stays put and wins")
    print("most test-likelihood comparisons outright.")


if __name__ == "__main__":
    main()

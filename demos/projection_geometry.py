"""How random projection treats cluster geometry.

Two effects, shown side by side:

  1. The separation between well-separated Gaussian clusters survives a
     random projection, no matter how high the original dimension was.
  2. Highly eccentric (cigar-shaped) Gaussians become much rounder after
     projection.

Both are the experiments' own sweeps (fig3 and fig6), at 20 trials a point.

Run: python3 demos/projection_geometry.py
"""

from rpmix.experiments import fig3_body, fig6_body

TRIALS = 20


def separation_survives():
    print("1-separated spherical pair in R^n, mean separation projected to d=20")
    for line in fig3_body(0, trials=TRIALS).summary_lines():
        print(line)
    print("The column is flat: the original dimension does not matter.\n")


def eccentricity_shrinks():
    print("one Gaussian in R^50 with eccentricity 1000, mean eccentricity projected to d")
    for line in fig6_body(0, trials=TRIALS, d_values=(49, 45, 40, 35, 30, 25)).summary_lines():
        print(line)
    print("Skinny clusters round out as the target dimension drops.")


if __name__ == "__main__":
    separation_survives()
    eccentricity_shrinks()

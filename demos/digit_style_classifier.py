"""A digit-style classifier that never sees the raw 256 dimensions.

Synthetic stand-in data mimics handwritten-digit clusters: ten classes in
R^256, extremely eccentric, 0.63-separated. The classifier fixes one random
projection, fits a small shared-covariance mixture per class down there,
and scores by the best Gaussian. Accuracy plateaus once d is large enough;
the projection also tames the wild per-class eccentricities. The accuracy
table is fig9's sweep (`fig9_body`) at one trial per d.

Run: python3 demos/digit_style_classifier.py
"""

import numpy as np

from rpmix import cluster_analysis
from rpmix.experiments import fig9_body, surrogate_digit_data
from rpmix.projection import random_orthonormal


def main():
    train_set, test_set = surrogate_digit_data(0)
    print(
        "surrogate data: %d train / %d test points, %d classes in R^%d"
        % (
            train_set.points.shape[0],
            test_set.points.shape[0],
            train_set.num_classes,
            train_set.dim,
        )
    )

    print("\n%8s  %12s" % ("d", "accuracy"))
    for agg in fig9_body(0, trials=1, d_values=(20, 40, 100)).aggregates():
        if agg["row_type"] == "mean":
            print("%8d  %11.1f%%" % (agg["d"], 100 * agg["accuracy"]))
    print("Past d=40 the extra dimensions buy nothing.")

    raw = cluster_analysis(train_set)
    proj = random_orthonormal(train_set.dim, 40, 0)
    low = cluster_analysis(train_set, proj)
    print("\nper-class eccentricity, raw R^256 vs projected R^40:")
    print("%8s  %14s  %14s" % ("class", "raw", "projected"))
    for cls in range(train_set.num_classes):
        flag = " (rank-deficient)" if raw.rank_deficient[cls] else ""
        print(
            "%8d  %14.3g  %14.3g%s"
            % (cls, raw.eccentricities[cls], low.eccentricities[cls], flag)
        )
    print(
        "\nmin between-class separation after projection: %.2f"
        % np.min(low.separations[np.triu_indices(train_set.num_classes, 1)])
    )


if __name__ == "__main__":
    main()

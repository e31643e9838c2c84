"""The eight acceptance criteria, each as one function of a base seed.

`criterion_N(base_seed)` runs criterion N's experiment at `base_seed` and
returns `(ok, stats, line)`: the verdict, the gated statistics by name, and
the `[criterion N] ...: PASS|FAIL (...)` line that states them against their
bounds. `CRITERIA` holds each criterion's Tier-1 base seed and trial count,
and `run` calls a criterion at one set of seeds: `tests/test_acceptance.py`
at set 0, the Tier-1 run, and `tools/verdicts.py --sets K` at sets 0 to
K - 1. Other sets give the same gates on other draws.
"""

import math
from itertools import permutations

import numpy as np
from scipy.optimize import brentq
from scipy.stats import beta

from rpmix import (
    CovarianceRestriction,
    Gaussian,
    Mixture,
    centers_recovered,
    e_step,
    norm_tail_bound,
    random_orthonormal,
    run_em,
)
from rpmix.errors import IllConditionedError, NotPositiveDefiniteError
from rpmix.experiments import (
    fig5_body,
    fig7_body,
    fig8_body,
    fig9_body,
    pca_collapse_body,
    second_em_body,
)


# criterion number -> (Tier-1 base seed, trials per set). Set i of a
# criterion runs at its base seed plus i times its trials, so no two sets
# share a trial's seed. Criteria 5 and 7 draw from the base seed alone.
CRITERIA = {1: (0, 40), 2: (0, 10), 3: (0, 150), 4: (0, 100), 5: (0, 1), 6: (0, 1), 7: (7, 1), 8: (0, 2)}


def run(num, i=0):
    """`(base_seed, ok, stats, line)` of criterion `num` at set i."""
    seed, trials = CRITERIA[num]
    base_seed = seed + i * trials
    return (base_seed, *globals()[f"criterion_{num}"](base_seed))


def _result(num, name, ok, detail, stats):
    """`(ok, stats, line)` of criterion `num`."""
    return ok, stats, f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"


def _wilson(rate, trials, z=1.96):
    """A 95% Wilson score interval for a success rate over `trials`, as text."""
    z2n = z * z / trials
    center = (rate + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(rate * (1.0 - rate) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    return f"95% Wilson [{center - half:.3f}, {center + half:.3f}]"


def _means(report, metric):
    out = {}
    for agg in report.aggregates():
        if agg["row_type"] == "mean":
            key = tuple(agg[c] for c in report.group_columns)
            out[key] = agg[metric]
    return out


def criterion_1(base_seed):
    """fig5's mean projected eccentricity within 3 sd of the paper's table."""
    cells = {
        (50, 50): (3.4, 0.62),
        (100, 100): (2.2, 0.19),
        (200, 200): (1.7, 0.06),
        (100, 25): (13.1, 5.79),
    }
    details = []
    stats = {}
    ok = True
    for (E, n), (target, sd) in cells.items():
        report = fig5_body(base_seed, trials=CRITERIA[1][1], E_values=(E,), n_values=(n,), d=20)
        mean = _means(report, "eccentricity")[(E, n)]
        stats[f"eccentricity E={E},n={n}"] = mean
        within = abs(mean - target) <= 3 * sd
        ok = ok and within
        details.append(f"E={E},n={n}: {mean:.3f} vs {target}+-{3 * sd:.2f}")
    return _result(1, "projected eccentricity table", ok, "; ".join(details), stats)


def _rp_share_floor(n, d, c, lo, hi, trials, alpha):
    """Least share of RP separations inside [lo, hi] that a sound RP keeps.

    For a uniformly random d-dim subspace of R^n, the squared length kept
    of any fixed vector is Beta(d/2, (n-d)/2) of its squared length. With
    the projected trace at its mean d/n of the original, a c-separated pair
    leaves [lo, hi] with probability p, the per-pair tail computed here.
    Each trial's share of pairs outside the band lies in [0, 1] and has
    mean p, and trials are independent, so by Hoeffding's bound the mean
    share over `trials` trials reaches a with probability at most
    exp(-trials * KL(a || p)). Returns 1 - a at which that bound is alpha.
    """
    kept = beta(d / 2, (n - d) / 2)
    p = kept.cdf((lo / c) ** 2 * d / n) + kept.sf((hi / c) ** 2 * d / n)

    def excess(a):
        kl = a * math.log(a / p) + (1 - a) * math.log((1 - a) / (1 - p))
        return trials * kl - math.log(1 / alpha)

    return 1.0 - brentq(excess, p, 1.0 - 1e-12)


def criterion_2(base_seed):
    """PCA to 10 dims collapses every pair; RP to 10 dims keeps them apart.

    PCA: the largest separation over all pairs and trials is at most 0.1.
    RP: a random projection does not promise that every one of the 100
    pairs stays in [0.25, 0.9]. A pair leaves the band with probability
    about 0.75%, almost all of it through the lower tail of the kept squared
    length, so the minimum over 100 pairs falls below 0.25 in about half of
    all seed sets. What it does promise is that few pairs leave the band:
    the share inside must reach the floor from `_rp_share_floor`, about 0.81
    at alpha = 1%. A sound projection therefore fails this by chance with
    probability at most 1%, however the ten pairs of one trial, which share
    a projection, depend on each other. On fig7's mixture, over 100 disjoint
    ten-trial seed sets, 0.80% of the 10,000 pairs left the band and no set
    had more than 4% outside. A map that loses the separations, as PCA does
    here, keeps almost no pair inside the band and fails.
    """
    n, c, d, trials = 100, 0.5, 10, CRITERIA[2][1]
    lo, hi = 0.25, 0.9
    report = fig7_body(base_seed, trials=trials, n=n, c=c, d=d)
    pca_vals, rp_vals = [], []
    for row in report.rows:
        (pca_vals if row["method"] == "pca" else rp_vals).append(row["separation"])
    pca_max = max(pca_vals)
    rp_vals = np.array(rp_vals)
    rp_inside = float(np.mean((rp_vals >= lo) & (rp_vals <= hi)))
    floor = _rp_share_floor(n, d, c, lo, hi, trials, alpha=0.01)
    ok = pca_max <= 0.1 and rp_inside >= floor
    return _result(
        2,
        "PCA collapses separations while RP preserves them",
        ok,
        f"pca max {pca_max:.3f} (need <=0.1), rp share inside [{lo}, {hi}] "
        f"{rp_inside:.2f} (need >={floor:.3f}), rp range "
        f"[{rp_vals.min():.3f}, {rp_vals.max():.3f}]",
        {"pca_max": pca_max, "rp_inside": rp_inside, "rp_floor": floor},
    )


def criterion_3(base_seed):
    """fig8: plain EM's success drops from n=50 to n=200, the hybrid's does not."""
    trials = CRITERIA[3][1]
    report = fig8_body(base_seed, trials=trials, n_values=(50, 200))
    reg = _means(report, "reg_success")
    rp = _means(report, "rp_success")
    beats = _means(report, "rp_beats")
    drop = reg[(50,)] - reg[(200,)]
    spread = abs(rp[(50,)] - rp[(200,)])
    beat200 = beats[(200,)]
    ok = drop >= 0.15 and spread <= 0.10 and beat200 > 0.50
    return _result(
        3,
        "plain EM degrades with dimension, the hybrid does not",
        ok,
        f"plain success {reg[(50,)]:.3f}->{reg[(200,)]:.3f} (drop {drop:.3f} "
        f">=0.15), hybrid spread {spread:.3f} <=0.10, hybrid beat rate at "
        f"n=200 {beat200:.3f} {_wilson(beat200, trials)} >0.50",
        {"drop": drop, "spread": spread, "beat200": beat200},
    )


def criterion_4(base_seed):
    """second-em: the hybrid wins on eccentric unrestricted mixtures."""
    trials = CRITERIA[4][1]
    report = second_em_body(base_seed, trials=trials)
    reg = _means(report, "reg_success")[(100,)]
    rp = _means(report, "rp_success")[(100,)]
    beat = _means(report, "rp_beats")[(100,)]
    ok = rp >= reg + 0.20 and beat >= 0.55
    return _result(
        4,
        "hybrid wins on eccentric unrestricted mixtures",
        ok,
        f"success {rp:.3f} vs {reg:.3f} (gap >=0.20), beat rate {beat:.3f} "
        f"{_wilson(beat, trials)} >=0.55",
        {"rp_success": rp, "reg_success": reg, "beat": beat},
    )


def criterion_5(base_seed):
    """Squared norms of N(0, I_1000) draws stay within `norm_tail_bound`."""
    n, total = 1000, 100000
    rng = np.random.default_rng(base_seed)
    deviations = np.empty(total)
    chunk = 5000
    for start in range(0, total, chunk):
        x = rng.standard_normal((chunk, n))
        deviations[start : start + chunk] = np.abs(
            np.sum(x * x, axis=1) / n - 1.0
        )
    details = []
    stats = {}
    ok = True
    for eps in (0.2, 0.3, 0.5):
        freq = float(np.mean(deviations > eps))
        bound = norm_tail_bound(n, eps)
        stats[f"freq eps={eps}"] = freq
        ok = ok and freq <= bound
        details.append(f"eps={eps}: {freq:.2e} <= {bound:.2e}")
    return _result(5, "squared-norm concentration", ok, "; ".join(details), stats)


def criterion_6(base_seed):
    """PCA one dimension short of the arrangement collapses a pair."""
    report = pca_collapse_body(base_seed, trials=CRITERIA[6][1], k=10)
    rows = {row["method"]: row for row in report.rows}
    original = rows["pca_full"]["original_min_separation"]
    collapse = rows["pca_collapse"]["min_separation"]
    full = rows["pca_full"]["min_separation"]
    ok = collapse < 0.05 and full >= 0.5 * original
    return _result(
        6,
        "one dimension short makes PCA collapse a pair",
        ok,
        f"to 4 dims: {collapse:.4f} <0.05; to 5 dims: {full:.3f} "
        f">= {0.5 * original:.3f}",
        {"collapse": collapse, "full": full, "original": original},
    )


def criterion_7(base_seed):
    """Property suites: EM, projections, posteriors and center matching.
    The instances are drawn from `base_seed`; the fits take seeds 1, 2, ...
    and the projections seeds 0-99 at every base seed."""
    checks = []

    # Monotone log-likelihood and row-normalized responsibilities on 50
    # random small instances.
    rng = np.random.default_rng(base_seed)
    monotone = True
    rows_normalized = True
    completed = 0
    trial = 0
    while completed < 50:
        trial += 1
        m = int(rng.integers(40, 80))
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        data = rng.standard_normal((m, n))
        data[: m // 2] += rng.standard_normal(n) * 3
        restriction = (
            CovarianceRestriction.FULL_DISTINCT
            if trial % 2 == 0
            else CovarianceRestriction.SHARED_FULL
        )
        try:
            fit = run_em(data, k, restriction, trial, max_iter=60)
        except (IllConditionedError, NotPositiveDefiniteError):
            # A degenerate fit aborts with its typed error; that is the
            # documented failure mode, not a monotonicity violation. Draw a
            # replacement instance so 50 full traces are still checked.
            continue
        completed += 1
        monotone = monotone and bool(np.all(np.diff(fit.loglik_trace) >= -1e-7))
        resp, _ = e_step(fit.model, data)
        rows_normalized = rows_normalized and bool(
            np.all(np.abs(resp.sum(axis=1) - 1.0) <= 1e-12)
        )
    checks.append(("monotone loglik x50", monotone))
    checks.append(("responsibility rows sum to 1", rows_normalized))

    # Orthonormality of 100 random projections.
    ortho = True
    for seed in range(100):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, n + 1))
        p = random_orthonormal(n, d, seed)
        ortho = ortho and float(
            np.max(np.abs(p.rows @ p.rows.T - np.eye(d)))
        ) <= 1e-9
    checks.append(("orthonormality x100", ortho))

    # Posterior responsibilities against scalar arithmetic on random
    # three-point one-dimensional instances.
    posterior_ok = True
    for _ in range(20):
        w0 = float(rng.uniform(0.2, 0.8))
        mus = rng.uniform(-3, 3, size=2)
        vars_ = rng.uniform(0.5, 4.0, size=2)
        mix = Mixture(
            [Gaussian([mus[0]], [[vars_[0]]]), Gaussian([mus[1]], [[vars_[1]]])],
            [w0, 1.0 - w0],
        )
        pts = rng.uniform(-4, 4, size=3)
        resp, _ = e_step(mix, pts[:, None])
        for r, x in enumerate(pts):
            joint = [
                w
                * math.exp(-((x - mu) ** 2) / (2 * var))
                / math.sqrt(2 * math.pi * var)
                for w, mu, var in zip((w0, 1.0 - w0), mus, vars_)
            ]
            total = sum(joint)
            posterior_ok = posterior_ok and (
                abs(resp[r, 0] - joint[0] / total) <= 1e-12
                and abs(resp[r, 1] - joint[1] / total) <= 1e-12
            )
    checks.append(("posterior vs scalar oracle", posterior_ok))

    # Center matching agrees with a brute-force bottleneck search for all
    # k <= 4.
    matching_ok = True
    for k in (2, 3, 4):
        for _ in range(15):
            truth_means = rng.standard_normal((k, 3)) * 4
            est_means = truth_means[rng.permutation(k)] + rng.standard_normal((k, 3))
            mk = lambda means: Mixture(
                [Gaussian(mu, np.eye(3)) for mu in means], np.full(k, 1.0 / k)
            )
            _, errors = centers_recovered(mk(est_means), mk(truth_means))
            dists = np.linalg.norm(
                est_means[:, None, :] - truth_means[None, :, :], axis=-1
            )
            best = min(
                max(dists[p[j], j] for j in range(k))
                for p in permutations(range(k))
            )
            matching_ok = matching_ok and abs(errors.max() - best) <= 1e-12 * max(
                best, 1.0
            )
    checks.append(("bottleneck matching brute force", matching_ok))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if p else 'FAILED'}" for name, p in checks)
    return _result(7, "property suites", ok, detail, dict(checks))


def criterion_8(base_seed):
    """fig9: accuracy gains under 2 points from d=40 to d=100."""
    report = fig9_body(base_seed, trials=CRITERIA[8][1], d_values=(40, 100))
    means = _means(report, "accuracy")
    gain = means[(100,)] - means[(40,)]
    ok = gain < 0.02
    return _result(
        8,
        "accuracy plateaus beyond d=40 on digit-like surrogate data",
        ok,
        f"d=40: {means[(40,)]:.4f}, d=100: {means[(100,)]:.4f}, gain "
        f"{gain * 100:.2f} points <2",
        {"accuracy d=40": means[(40,)], "accuracy d=100": means[(100,)], "gain": gain},
    )

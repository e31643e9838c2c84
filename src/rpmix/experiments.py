"""Seeded experiment bodies and CSV reports.

Every experiment is a pure function of its parameters and a base seed:
trial t derives its randomness from base_seed + t, and each report row
records the seed that produced it, so any single trial can be replayed in
isolation. Reports are long-format CSV: one row per measurement, followed
by aggregate rows (mean, sd, min, max, median) per parameter group.
"""

from __future__ import annotations

import inspect
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._blas import single_blas_thread
from .classifier import LabeledDataset, evaluate, ingest, train
from .em import (
    CovarianceRestriction,
    centers_recovered,
    rp_em,
    run_em,
    test_loglik,
)
from .errors import (
    BadDimsError,
    ConfigError,
    EmptyComponentError,
    IllConditionedError,
    MissingDataError,
    NotPositiveDefiniteError,
)
from .gaussians import (
    FLOAT_FMT,
    Gaussian,
    Mixture,
    _labelled_draw,
    mixture_separation,
    pairwise_separation,
    sample,
    spectral_summary,
)
from .projection import _haar_orthogonal, pca, project_mixture, random_orthonormal
from .synthesis import (
    CovarianceMode,
    MixtureSpec,
    eccentric_covariance,
    long_axis_mixture,
    make_mixture,
)

AGGREGATE_STATS = ("mean", "sd", "min", "max", "median")


@dataclass(frozen=True)
class ExperimentReport:
    group_columns: tuple
    metric_columns: tuple
    rows: tuple  # per-measurement dicts with group cols + "seed" + metrics

    def aggregates(self):
        """One dict per (group, stat): recomputable exactly from the rows."""
        groups = {}
        for row in self.rows:
            key = tuple(row[c] for c in self.group_columns)
            groups.setdefault(key, []).append(row)
        out = []
        for key, rows in groups.items():
            for stat in AGGREGATE_STATS:
                agg = {"row_type": stat, "seed": ""}
                agg.update(dict(zip(self.group_columns, key)))
                for col in self.metric_columns:
                    vals = np.array([float(r[col]) for r in rows])
                    # Failed trials carry -inf logliks; aggregate honestly
                    # (mean/sd become inf/nan) without runtime warnings.
                    with np.errstate(invalid="ignore"):
                        agg[col] = _agg_stat(stat, vals)
                out.append(agg)
        return out

    def to_csv(self, path):
        cols = ["row_type", *self.group_columns, "seed", *self.metric_columns]
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for row in self.rows:
                f.write(",".join(_fmt(row.get(c, "trial") if c == "row_type" else row[c]) for c in cols) + "\n")
            for agg in self.aggregates():
                f.write(",".join(_fmt(agg.get(c, "")) for c in cols) + "\n")

    def summary_lines(self):
        lines = []
        for agg in self.aggregates():
            if agg["row_type"] != "mean":
                continue
            group = ", ".join(
                f"{c}={agg[c]}" for c in self.group_columns
            )
            metrics = ", ".join(
                f"{c}={agg[c]:.4g}" for c in self.metric_columns
            )
            lines.append(f"[{group}] {metrics}" if group else metrics)
        return lines


def _agg_stat(stat, vals):
    if stat == "mean":
        return float(vals.mean())
    if stat == "sd":
        return float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
    if stat == "min":
        return float(vals.min())
    if stat == "max":
        return float(vals.max())
    return float(np.median(vals))


def _fmt(v):
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return FLOAT_FMT % v
    return str(v)


def _report(group_columns, metric_columns, rows) -> ExperimentReport:
    full = []
    for r in rows:
        row = {"row_type": "trial"}
        row.update(r)
        full.append(row)
    return ExperimentReport(tuple(group_columns), tuple(metric_columns), tuple(full))


def _trial_seeds(base_seed, trial, count):
    """Independent sub-streams for one trial, replayable from its seed."""
    return np.random.SeedSequence([int(base_seed) + int(trial)]).spawn(count)


# ---------------------------------------------------------------------------
# Separation experiments (projected-pair geometry)

@single_blas_thread()
def fig3_body(base_seed, trials=40, n_values=(50, 100, 200, 500, 1000), d=20):
    """Projected separation of a 1-separated spherical pair vs original dim."""
    rows = []
    for n in n_values:
        for t in range(trials):
            seed = base_seed + t
            _, s_proj = _trial_seeds(seed, 0, 2)
            mix = make_mixture(MixtureSpec(n=n, k=2, c=1.0, seed=seed))
            proj = random_orthonormal(n, d, s_proj)
            sep = mixture_separation(project_mixture(proj, mix))
            rows.append({"n": n, "seed": seed, "separation": sep})
    return _report(("n",), ("separation",), rows)


@single_blas_thread()
def fig4_body(base_seed, trials=40, k_values=(2, 3, 5, 10, 20), n=100, c=1.0):
    """Projected separation of maximally packed mixtures at d = 10 ln k."""
    rows = []
    for k in k_values:
        d = int(round(10.0 * math.log(k)))
        d = max(1, min(d, n))
        for t in range(trials):
            seed = base_seed + t
            _, s_proj = _trial_seeds(seed, 0, 2)
            mix = make_mixture(MixtureSpec(n=n, k=k, c=c, seed=seed))
            proj = random_orthonormal(n, d, s_proj)
            sep = mixture_separation(project_mixture(proj, mix))
            rows.append({"k": k, "d": d, "seed": seed, "separation": sep})
    return _report(("k", "d"), ("separation",), rows)


# ---------------------------------------------------------------------------
# Eccentricity experiments

@single_blas_thread()
def fig5_body(
    base_seed,
    trials=40,
    E_values=(50, 100, 150, 200),
    n_values=(25, 50, 75, 100, 200),
    d=20,
):
    """Projected eccentricity E* for a grid of (E, n), projecting to d dims."""
    rows = []
    for E in E_values:
        for n in n_values:
            if d > n:
                continue
            for t in range(trials):
                seed = base_seed + t
                s_cov, s_proj = _trial_seeds(seed, 0, 2)
                cov = eccentric_covariance(
                    n, float(E), CovarianceMode.DIAGONAL_DISTINCT, s_cov
                )
                proj = random_orthonormal(n, d, s_proj)
                ecc = spectral_summary(proj.rows @ cov @ proj.rows.T).eccentricity
                rows.append({"E": E, "n": n, "seed": seed, "eccentricity": ecc})
    return _report(("E", "n"), ("eccentricity",), rows)


@single_blas_thread()
def fig6_body(base_seed, trials=40, n=50, E=1000.0, d_values=tuple(range(49, 24, -1))):
    """One fixed eccentric Gaussian projected to successively lower dims."""
    cov = eccentric_covariance(
        n, E, CovarianceMode.DIAGONAL_DISTINCT, np.random.SeedSequence([int(base_seed), 0])
    )
    rows = []
    for d in d_values:
        for t in range(trials):
            seed = base_seed + t
            _, s_proj = _trial_seeds(seed, 0, 2)
            proj = random_orthonormal(n, d, s_proj)
            ecc = spectral_summary(proj.rows @ cov @ proj.rows.T).eccentricity
            rows.append({"d": d, "seed": seed, "eccentricity": ecc})
    return _report(("d",), ("eccentricity",), rows)


# ---------------------------------------------------------------------------
# PCA vs random projection

def fig7_streams(seed):
    """One seed tree for a fig7 trial: a disjoint child stream per role."""
    roles = ("truth", "sample", "projection")
    return dict(zip(roles, np.random.SeedSequence(int(seed)).spawn(len(roles))))


def fig7_tables(seed, n=100, k=5, c=0.5, E=1000.0, d=10, samples=1000):
    """Separation tables after PCA vs random projection of one eccentric mixture.

    The k components share d long axes of variance E**2, and their centers,
    c-separated in R^n, lie in the span of the short axes (see
    `long_axis_mixture`). The long axes carry more variance than any
    direction through the centers, so PCA to d dims keeps the long axes and
    projects the centers together, while a random projection keeps the
    separations. The paper's own Figure 7 mixture is not recorded here; this
    one is built from that premise. The true mixture parameters are pushed
    through both maps; PCA is fit on a fresh sample. The mixture, the sample
    and the projection draw from disjoint streams (`fig7_streams`). Returns
    (pca_table, rp_table), each k x k.
    """
    streams = fig7_streams(seed)
    mix, _ = long_axis_mixture(n, k, c, E, d, streams["truth"])
    data = sample(mix, samples, streams["sample"])
    pca_map = pca(data, d)
    rp_map = random_orthonormal(n, d, streams["projection"])

    def table(proj):
        projected = project_mixture(proj, mix).components
        out = np.zeros((k, k))
        for i, j in combinations(range(k), 2):
            out[i, j] = out[j, i] = pairwise_separation(projected[i], projected[j])
        return out

    return table(pca_map), table(rp_map)


@single_blas_thread()
def fig7_body(base_seed, trials=10, n=100, k=5, c=0.5, E=1000.0, d=10, samples=1000):
    rows = []
    for t in range(trials):
        seed = base_seed + t
        pca_table, rp_table = fig7_tables(seed, n=n, k=k, c=c, E=E, d=d, samples=samples)
        for method, tab in (("pca", pca_table), ("rp", rp_table)):
            for i in range(k):
                for j in range(i + 1, k):
                    rows.append(
                        {
                            "method": method,
                            "i": i,
                            "j": j,
                            "seed": seed,
                            "separation": tab[i, j],
                        }
                    )
    return _report(("method", "i", "j"), ("separation",), rows)


@single_blas_thread()
def pca_collapse_body(base_seed, k=10, samples=10000):
    """Symmetric arrangement where PCA to k/2 - 1 dims collapses a pair.

    Unit spherical Gaussians sit in R^(k/2), pair j at +-j on axis j. PCA to
    k/2 - 1 dims drops (roughly) the weakest axis; random projection and
    full-rank PCA keep all pairs separated.
    """
    if k % 2 != 0:
        raise BadDimsError("k must be even")
    n = k // 2
    if n < 2:
        raise BadDimsError("need k >= 4 so the ambient space has >= 2 dims")
    centers = []
    for j in range(1, n + 1):
        v = np.zeros(n)
        v[j - 1] = j
        centers.extend([v, -v])
    mix = Mixture(
        [Gaussian(mu, np.eye(n)) for mu in centers], np.full(k, 1.0 / k)
    )
    original_min = mixture_separation(mix)
    s_sample, s_proj = _trial_seeds(base_seed, 0, 2)
    data = sample(mix, samples, s_sample)
    d_rp = min(int(round(10.0 * math.log(k))), n)
    cases = (
        ("pca_collapse", pca(data, n - 1), n - 1),
        ("pca_full", pca(data, n), n),
        ("rp", random_orthonormal(n, d_rp, s_proj), d_rp),
    )
    rows = []
    for method, proj, d in cases:
        sep = mixture_separation(project_mixture(proj, mix))
        rows.append(
            {
                "method": method,
                "d": d,
                "seed": base_seed,
                "min_separation": sep,
                "original_min_separation": original_min,
            }
        )
    return _report(
        ("method", "d"), ("min_separation", "original_min_separation"), rows
    )


# ---------------------------------------------------------------------------
# EM comparison experiments

FIT_FAILURES = (IllConditionedError, NotPositiveDefiniteError, EmptyComponentError)


def em_compare_trial(
    n,
    seed,
    k=5,
    c=1.0,
    E=1.0,
    mode=CovarianceMode.SPHERICAL_SHARED,
    restriction=CovarianceRestriction.SHARED_FULL,
    d=25,
    train_size=1000,
    test_size=1000,
):
    """One head-to-head trial of regular EM vs the RP+EM hybrid.

    A failed fit (ill-conditioned or singular covariances, or a component
    that is empty when the hybrid lifts its soft labels) is scored as an
    unsuccessful run with -inf test log-likelihood, never dropped.
    """
    s_sample, s_test, s_fit = _trial_seeds(seed, 0, 3)
    truth = make_mixture(
        MixtureSpec(n=n, k=k, c=c, E=E, covariance_mode=mode, seed=seed)
    )
    train_data = sample(truth, train_size, s_sample)
    test_data = sample(truth, test_size, s_test)

    row = {"n": n, "seed": seed}
    try:
        reg = run_em(train_data, k, restriction, s_fit)
        row["reg_success"] = centers_recovered(reg.model, truth)[0]
        row["reg_iterations"] = reg.iterations
        row["reg_test_loglik"] = test_loglik(reg.model, test_data)
        row["reg_failed"] = False
    except FIT_FAILURES:
        row.update(
            reg_success=False,
            reg_iterations=0,
            reg_test_loglik=-np.inf,
            reg_failed=True,
        )
    try:
        fit_high, _, fit_low = rp_em(train_data, k, d, restriction, s_fit)
        row["rp_success"] = centers_recovered(fit_high.model, truth)[0]
        row["rp_low_iterations"] = fit_low.iterations
        row["rp_test_loglik"] = test_loglik(fit_high.model, test_data)
        row["rp_failed"] = False
    except FIT_FAILURES:
        row.update(
            rp_success=False,
            rp_low_iterations=0,
            rp_test_loglik=-np.inf,
            rp_failed=True,
        )
    a, b = row["rp_test_loglik"], row["reg_test_loglik"]
    if np.isfinite(a) and np.isfinite(b):
        matched = abs(a - b) <= 1e-9 * max(abs(a), abs(b))
    else:
        matched = a == b
    row["exact_match"] = matched
    row["rp_beats"] = (not matched) and a > b
    return row


EM_COMPARE_METRICS = (
    "reg_success",
    "reg_iterations",
    "reg_test_loglik",
    "reg_failed",
    "rp_success",
    "rp_low_iterations",
    "rp_test_loglik",
    "rp_failed",
    "exact_match",
    "rp_beats",
)


def _run_trials(worker_args, threads=1):
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_em_trial_star, worker_args))
    return [_em_trial_star(args) for args in worker_args]


# Scoped per trial as well as per body: a worker started by spawn or
# forkserver does not inherit the parent's thread count.
@single_blas_thread()
def _em_trial_star(args):
    n, seed, params = args
    return em_compare_trial(n, seed, **params)


@single_blas_thread()
def fig8_body(base_seed, trials=150, n_values=(50, 100, 150, 200), threads=1, **overrides):
    """Regular EM vs RP+EM on 1-separated spherical five-component mixtures.

    `overrides` are passed on to `em_compare_trial`.
    """
    args = [
        (n, base_seed + t, overrides) for n in n_values for t in range(trials)
    ]
    rows = _run_trials(args, threads=threads)
    return _report(("n",), EM_COMPARE_METRICS, rows)


@single_blas_thread()
def second_em_body(base_seed, trials=100, n=100, threads=1):
    """Three 0.8-separated eccentricity-25 Gaussians, unrestricted covariances."""
    params = dict(
        k=3,
        c=0.8,
        E=25.0,
        mode=CovarianceMode.ROTATED_DISTINCT,
        restriction=CovarianceRestriction.FULL_DISTINCT,
    )
    args = [(n, base_seed + t, params) for t in range(trials)]
    rows = _run_trials(args, threads=threads)
    return _report(("n",), EM_COMPARE_METRICS, rows)


# ---------------------------------------------------------------------------
# Digit classifier sweep

def surrogate_digit_data(base_seed, n=256, num_classes=10, c=0.63, E=1e4,
                         train_size=3000, test_size=1000, label_noise=0.05,
                         spectrum_decay=0.8):
    """Synthetic stand-in for the digit set, matching its gross statistics:
    ten 0.63-separated classes of eccentricity 1e4.

    Each class concentrates its variance in a few directions (a
    geometrically decaying spectrum, floored at 1) under its own random
    rotation; that concentration is what makes real digit clusters so
    eccentric. A small label-noise fraction models intrinsically ambiguous
    instances, capping accuracy below 1 so the accuracy-vs-d curve shows a
    genuine plateau rather than a trivially perfect one.
    """
    from .synthesis import packed_centers

    rng = np.random.default_rng(np.random.SeedSequence([int(base_seed), 9]))
    roots = np.maximum(E * spectrum_decay ** np.arange(n), 1.0)
    covs = []
    for _ in range(num_classes):
        q = _haar_orthogonal(rng.standard_normal((n, n)))
        covs.append((q * roots**2) @ q.T)
    radii = np.sqrt([np.trace(cov) for cov in covs])
    centers = packed_centers(num_classes, n, c, radii, rng.integers(0, 2**63))
    mix = Mixture(
        [Gaussian(mu, cov) for mu, cov in zip(centers, covs)],
        np.full(num_classes, 1.0 / num_classes),
    )
    s_train, s_test = _trial_seeds(base_seed, 0, 2)

    def draw(size, seed):
        draw_rng = np.random.default_rng(seed)
        labels, pts = _labelled_draw(mix, size, draw_rng)
        flip = draw_rng.random(size) < label_noise
        labels[flip] = draw_rng.choice(num_classes, size=int(flip.sum()))
        return LabeledDataset(pts, labels)

    return draw(train_size, s_train), draw(test_size, s_test)


@single_blas_thread()
def fig9_body(
    base_seed,
    trials=3,
    d_values=(20, 30, 40, 50, 60, 80, 100),
    train_path=None,
    test_path=None,
    per_class_k=5,
    surrogate=True,
):
    """Classifier accuracy vs projected dimension.

    Supply label-first CSVs (`label,x1,...,xn` per line) for the real digit
    data, both or neither; without them a synthetic surrogate with the same
    gross statistics is generated (unless surrogate=False, which raises
    MissingDataError).
    """
    if train_path is not None and test_path is not None:
        train_set = ingest(train_path)
        test_set = ingest(test_path)
    elif train_path is not None or test_path is not None:
        missing = "test_path" if test_path is None else "train_path"
        raise MissingDataError(
            f"{missing} is not set: supply train_path and test_path together, "
            "or neither for the synthetic surrogate"
        )
    elif not surrogate:
        raise MissingDataError(
            "supply train_path and test_path pointing to label-first CSV files "
            "(each line: integer label, then the feature values)"
        )
    else:
        train_set, test_set = surrogate_digit_data(base_seed)
    rows = []
    for d in d_values:
        for t in range(trials):
            seed = base_seed + t
            model = train(train_set, d, per_class_k=per_class_k, seed=seed)
            acc = evaluate(model, test_set)
            rows.append({"d": d, "seed": seed, "accuracy": acc})
    return _report(("d",), ("accuracy",), rows)


# ---------------------------------------------------------------------------
# Config-driven dispatch

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int | None = None
    base_seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {sorted(EXPERIMENTS)}"
            )
        if self.trials is not None and not _is_int_at_least(self.trials, 1):
            raise ConfigError(f"trials must be an int >= 1, got {self.trials!r}")
        if not _is_int_at_least(self.base_seed, 0):
            raise ConfigError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if not isinstance(self.overrides, dict):
            raise ConfigError(f"overrides must be a dict, got {self.overrides!r}")
        allowed = EXPERIMENTS[self.experiment][1]
        for key in self.overrides:
            if key not in allowed:
                raise ConfigError(
                    f"override {key!r} not valid for {self.experiment}; "
                    f"allowed: {sorted(allowed)}"
                )
        threads = self.overrides.get("threads", 1)
        if not _is_int_at_least(threads, 1):
            raise ConfigError(f"threads must be an int >= 1, got {threads!r}")


def _is_int_at_least(value, low):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _overrides(body, *passed_on):
    """The names a config may override: the defaulted parameters of `body`
    and of the functions it passes its extra keywords on to, less `trials`,
    which is a field of `ExperimentConfig` itself."""
    params = [
        p for f in (body, *passed_on) for p in inspect.signature(f).parameters.values()
    ]
    return {p.name for p in params if p.default is not p.empty} - {"trials"}


EXPERIMENTS = {
    name: (body, _overrides(body, *passed_on))
    for name, body, *passed_on in (
        ("fig3-sep-vs-n", fig3_body),
        ("fig4-sep-vs-k", fig4_body),
        ("fig5-ecc-table", fig5_body),
        ("fig6-ecc-vs-d", fig6_body),
        ("fig7-pca-vs-rp", fig7_body),
        ("fig8-em-compare", fig8_body, em_compare_trial),
        ("second-em-compare", second_em_body),
        ("fig9-digit-sweep", fig9_body),
        ("pca-collapse", pca_collapse_body),
    )
}


def run(config: ExperimentConfig) -> ExperimentReport:
    body, _ = EXPERIMENTS[config.experiment]
    signature = inspect.signature(body)
    kwargs = dict(config.overrides)
    if config.trials is not None and "trials" in signature.parameters:
        kwargs["trials"] = config.trials
    try:
        signature.bind(config.base_seed, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"{config.experiment}: {exc}") from exc
    return body(config.base_seed, **kwargs)

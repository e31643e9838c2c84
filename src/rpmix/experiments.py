"""Seeded experiment bodies and CSV reports.

Every experiment is a pure function of its parameters and a base seed:
trial t derives its randomness from base_seed + t, and each report row
records the seed that produced it, so any single trial can be replayed in
isolation. Each body builds a task list, one task per trial, maps a
module-level trial function over it with `_run_trials`, which runs the
trials on one OpenBLAS thread, and hands the measurements to `_report`.
Reports are long-format CSV: one row per measurement, followed by aggregate
rows (mean, sd, min, max, median) per parameter group.
"""

from __future__ import annotations

import inspect
import math
import multiprocessing
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from numbers import Integral, Real

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
    _checked_mixture,
    _file_name,
    _int_at_least,
    _labelled_draw,
    _radii,
    _seed_children,
    _separations,
    mixture_separation,
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
    packed_centers,
)

# Each parameter group's aggregate rows, in report order: stat -> its function
# of the group's values of one metric.
AGGREGATE_STATS = {
    "mean": np.mean, "sd": lambda vals: vals.std(ddof=1) if len(vals) > 1 else 0.0,
    "min": np.min, "max": np.max, "median": np.median,
}


@dataclass(frozen=True)
class ExperimentReport:
    group_columns: tuple
    metric_columns: tuple
    rows: tuple  # per-measurement dicts: "row_type", group cols, "seed", metrics

    def aggregates(self):
        """One dict per (group, stat): recomputable exactly from the rows."""
        groups = {}
        for row in self.rows:
            key = tuple(row[c] for c in self.group_columns)
            groups.setdefault(key, []).append(row)
        out = []
        for key, rows in groups.items():
            columns = {c: np.array([float(r[c]) for r in rows]) for c in self.metric_columns}
            for stat, fn in AGGREGATE_STATS.items():
                agg = {"row_type": stat, "seed": "", **dict(zip(self.group_columns, key))}
                # Failed trials carry -inf logliks; aggregate honestly
                # (mean/sd become inf/nan) without runtime warnings.
                with np.errstate(invalid="ignore"):
                    agg.update((c, float(fn(vals))) for c, vals in columns.items())
                out.append(agg)
        return out

    def to_csv(self, path):
        cols = ["row_type", *self.group_columns, "seed", *self.metric_columns]
        with open(_file_name(path), "w") as f:
            f.write(",".join(cols) + "\n")
            for row in (*self.rows, *self.aggregates()):
                f.write(",".join(_fmt(row[c]) for c in cols) + "\n")

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


def _fmt(v):
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return FLOAT_FMT % v
    return str(v)


def _report(group_columns, metric_columns, measurements) -> ExperimentReport:
    """The report of per-trial measurements. Each row keeps, after its row
    type, the group columns, the seed and the metrics of its measurement."""
    cols = (*group_columns, "seed", *metric_columns)
    rows = tuple({"row_type": "trial", **{c: m[c] for c in cols}} for m in measurements)
    return ExperimentReport(tuple(group_columns), tuple(metric_columns), rows)


def _log_dim(k, n):
    """The paper's target dimension for k components, 10 ln k, kept in [1, n]."""
    k = _int_at_least(k, "k", 2)
    return max(1, min(int(round(10.0 * math.log(k))), n))


# ---------------------------------------------------------------------------
# Separation experiments (projected-pair geometry)

def fig3_body(base_seed, trials=40, n_values=(50, 100, 200, 500, 1000), d=20, threads=None):
    """Projected separation of a 1-separated spherical pair vs original dim.

    The trials run in `threads` worker processes, None for one per core
    (see `_run_trials`).
    """
    tasks = [(n, 2, 1.0, d, base_seed + t) for n in n_values for t in range(trials)]
    return _report(("n",), ("separation",), _run_trials(_separation_trial, tasks, threads))


def fig4_body(base_seed, trials=40, k_values=(2, 3, 5, 10, 20), n=100, c=1.0):
    """Projected separation of maximally packed mixtures at d = 10 ln k."""
    tasks = [(n, k, c, _log_dim(k, n), base_seed + t) for k in k_values for t in range(trials)]
    return _report(("k", "d"), ("separation",), _run_trials(_separation_trial, tasks, 1))


def _separation_trial(task):
    """Separation of a packed c-separated k-mixture in R^n, projected to d dims."""
    n, k, c, d, seed = task
    _, s_proj = _seed_children(seed, 2)
    mix = make_mixture(MixtureSpec(n=n, k=k, c=c, seed=seed))
    proj = random_orthonormal(n, d, s_proj)
    sep = mixture_separation(project_mixture(proj, mix))
    return {"n": n, "k": k, "d": d, "seed": seed, "separation": sep}


# ---------------------------------------------------------------------------
# Eccentricity experiments

def fig5_body(
    base_seed,
    trials=40,
    E_values=(50, 100, 150, 200),
    n_values=(25, 50, 75, 100, 200),
    d=20,
):
    """Projected eccentricity E* for a grid of (E, n), projecting to d dims."""
    grid = [(E, n) for E in E_values for n in n_values if d <= n]
    tasks = [(E, n, base_seed + t) for E, n in grid for t in range(trials)]
    return _report(("E", "n"), ("eccentricity",), _run_trials(_fig5_trial, tasks, 1, (d,)))


def _fig5_trial(task, d):
    E, n, seed = task
    s_cov, s_proj = _seed_children(seed, 2)
    cov = eccentric_covariance(n, float(E), CovarianceMode.DIAGONAL_DISTINCT, s_cov)
    return {"E": E, "n": n, "seed": seed, "eccentricity": _projected_eccentricity(cov, d, s_proj)}


def fig6_body(base_seed, trials=40, n=50, E=1000.0, d_values=tuple(range(49, 24, -1))):
    """One fixed eccentric Gaussian projected to successively lower dims."""
    cov = eccentric_covariance(n, E, CovarianceMode.DIAGONAL_DISTINCT, base_seed)
    tasks = [(d, base_seed + t) for d in d_values for t in range(trials)]
    return _report(("d",), ("eccentricity",), _run_trials(_fig6_trial, tasks, 1, (cov,)))


def _fig6_trial(task, cov):
    d, seed = task
    _, s_proj = _seed_children(seed, 2)
    return {"d": d, "seed": seed, "eccentricity": _projected_eccentricity(cov, d, s_proj)}


def _projected_eccentricity(cov, d, seed):
    """Eccentricity of a covariance after a random projection to d dims."""
    proj = random_orthonormal(len(cov), d, seed).rows
    return spectral_summary(proj @ cov @ proj.T).eccentricity


# ---------------------------------------------------------------------------
# PCA vs random projection

@single_blas_thread()
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
    and the projection draw from the seed's children 0, 1 and 2. Returns
    (pca_table, rp_table), each k x k.

    The tables are computed on one BLAS thread, as every sweep's trials are:
    the last bits of PCA's Gram product depend on the thread count.
    """
    s_truth, s_sample, s_proj = _seed_children(seed, 3)
    mix, _ = long_axis_mixture(n, k, c, E, d, s_truth)
    data = sample(mix, samples, s_sample)
    pca_map = pca(data, d)
    rp_map = random_orthonormal(n, d, s_proj)
    projected = [project_mixture(proj, mix) for proj in (pca_map, rp_map)]
    return tuple(_separations(p.means, _radii(p)) for p in projected)


def fig7_body(base_seed, trials=10, n=100, k=5, c=0.5, E=1000.0, d=10, samples=1000, threads=None):
    """PCA vs random projection separation tables, one row per pair and map.

    The trials run in `threads` worker processes, None for one per core
    (see `_run_trials`).
    """
    seeds = [base_seed + t for t in range(trials)]
    tables = _run_trials(_pca_vs_rp_trial, seeds, threads, (n, k, c, E, d, samples))
    rows = [row for trial_rows in tables for row in trial_rows]
    return _report(("method", "i", "j"), ("separation",), rows)


def _pca_vs_rp_trial(seed, n, k, c, E, d, samples):
    pca_table, rp_table = fig7_tables(seed, n=n, k=k, c=c, E=E, d=d, samples=samples)
    return [
        {"method": method, "i": i, "j": j, "seed": seed, "separation": tab[i, j]}
        for method, tab in (("pca", pca_table), ("rp", rp_table))
        for i, j in combinations(range(k), 2)
    ]


def pca_collapse_body(base_seed, k=10, samples=10000):
    """Symmetric arrangement where PCA to k/2 - 1 dims collapses a pair.

    Unit spherical Gaussians sit in R^(k/2), pair j at +-j on axis j. PCA to
    k/2 - 1 dims drops (roughly) the weakest axis; random projection and
    full-rank PCA keep all pairs separated.
    """
    k = _int_at_least(k, "k", 1)
    if k % 2 != 0:
        raise BadDimsError("k must be even")
    n = k // 2
    if n < 2:
        raise BadDimsError("need k >= 4 so the ambient space has >= 2 dims")
    axes = np.diag(np.arange(1.0, n + 1))
    centers = np.stack([axes, -axes], axis=1).reshape(k, n)  # j e_j, then -j e_j
    mix = _checked_mixture(np.full(k, 1.0 / k), centers, [np.eye(n)], np.zeros(k, dtype=int))
    rows = _run_trials(_pca_collapse_trial, [base_seed], 1, (mix, samples))[0]
    return _report(
        ("method", "d"), ("min_separation", "original_min_separation"), rows
    )


def _pca_collapse_trial(seed, mix, samples):
    n, k = mix.dim, mix.k
    original_min = mixture_separation(mix)
    s_sample, s_proj = _seed_children(seed, 2)
    data = sample(mix, samples, s_sample)
    d_rp = _log_dim(k, n)
    cases = (
        ("pca_collapse", pca(data, n - 1), n - 1),
        ("pca_full", pca(data, n), n),
        ("rp", random_orthonormal(n, d_rp, s_proj), d_rp),
    )
    return [
        {
            "method": method,
            "d": d,
            "seed": seed,
            "min_separation": mixture_separation(project_mixture(proj, mix)),
            "original_min_separation": original_min,
        }
        for method, proj, d in cases
    ]


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
    s_sample, s_test, s_fit = _seed_children(seed, 3)
    truth = make_mixture(
        MixtureSpec(n=n, k=k, c=c, E=E, covariance_mode=mode, seed=seed)
    )
    train_data = sample(truth, train_size, s_sample)
    test_data = sample(truth, test_size, s_test)

    def plain():
        fit = run_em(train_data, k, restriction, s_fit)
        return fit.model, fit.iterations

    def hybrid():  # scored in R^n, its iterations counted in R^d
        fit_high, _, fit_low = rp_em(train_data, k, d, restriction, s_fit)
        return fit_high.model, fit_low.iterations

    reg, rp = _scored_fit(plain, truth, test_data), _scored_fit(hybrid, truth, test_data)
    a, b = rp[2], reg[2]
    matched = math.isclose(a, b)
    metrics = (*reg, *rp, matched, (not matched) and a > b)
    return {"n": n, "seed": seed, **dict(zip(EM_COMPARE_METRICS, metrics))}


def _scored_fit(fit, truth, test_data):
    """(success, iterations, test log-likelihood, failed) of `fit()`, which
    returns a fitted model and its iteration count. A fit that raises one of
    FIT_FAILURES scores (False, 0, -inf, True)."""
    try:
        model, iterations = fit()
        return centers_recovered(model, truth)[0], iterations, test_loglik(model, test_data), False
    except FIT_FAILURES:
        return False, 0, -np.inf, True


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


# The worker and shared arguments of the sweep a pool process serves. The
# pool's initializer sets it once in each worker process; the calling process
# never sets it.
_POOL_SWEEP = ContextVar("_POOL_SWEEP")


def _run_trials(worker, tasks, threads=None, shared=()):
    """`[worker(task, *shared) for task in tasks]`, spread over processes on
    one OpenBLAS thread: every sweep's one execution policy.

    `threads` is the number of worker processes, an int >= 1. None uses
    every core in the affinity mask, but no more processes than tasks. With
    one worker the tasks run here, in order, inside `single_blas_thread()`,
    with no pool. Otherwise the pool forks its workers inside that scope,
    whatever the platform default is, and each inherits one thread. A fork
    pool starts in about 0.02 s, where a spawn pool takes about 1 s, as long
    as a short sweep. `shared` reaches each worker once, through the pool's
    initializer, which fork hands over without pickling; only the tasks and
    the results cross a pipe. Results keep the order of `tasks`, so a report
    does not depend on the number of workers or the caller's thread count.
    """
    if threads is None:
        threads = min(len(os.sched_getaffinity(0)), len(tasks))
    else:
        threads = _int_at_least(threads, "threads", 1)
    with single_blas_thread():
        if threads <= 1:
            return [worker(task, *shared) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=threads,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_POOL_SWEEP.set,
            initargs=((worker, shared),),
        ) as pool:
            return list(pool.map(_pooled_trial, tasks))


def _pooled_trial(task):
    worker, shared = _POOL_SWEEP.get()
    return worker(task, *shared)


def _em_trial(task, overrides):
    n, seed = task
    return em_compare_trial(n, seed, **overrides)


def fig8_body(base_seed, trials=150, n_values=(50, 100, 150, 200), threads=None, **overrides):
    """Regular EM vs RP+EM on 1-separated spherical five-component mixtures.

    `overrides` are passed on to `em_compare_trial`. `threads` is the number
    of worker processes, None for one per core (see `_run_trials`).
    """
    tasks = [(n, base_seed + t) for n in n_values for t in range(trials)]
    rows = _run_trials(_em_trial, tasks, threads, (overrides,))
    return _report(("n",), EM_COMPARE_METRICS, rows)


def second_em_body(base_seed, trials=100, n=100, threads=None):
    """Three 0.8-separated eccentricity-25 Gaussians, unrestricted covariances."""
    return fig8_body(
        base_seed, trials, n_values=(n,), threads=threads, k=3, c=0.8, E=25.0,
        mode=CovarianceMode.ROTATED_DISTINCT, restriction=CovarianceRestriction.FULL_DISTINCT,
    )


# ---------------------------------------------------------------------------
# Digit classifier sweep

@single_blas_thread()
def surrogate_digit_data(base_seed, n=256, num_classes=10, E=1e4, train_size=3000, test_size=1000):
    """Synthetic stand-in for the digit set, matching its gross statistics:
    ten 0.63-separated classes of eccentricity 1e4.

    Each class concentrates its variance in a few directions under its own
    random rotation: its axis standard deviations decay geometrically from
    E, by a spectral decay of 0.8 per axis, floored at 1. That concentration
    is what makes real digit clusters so eccentric. A 5% label noise (each
    label redrawn uniformly with probability 0.05) models intrinsically
    ambiguous instances, capping accuracy below 1 so the accuracy-vs-d curve
    shows a genuine plateau rather than a trivially perfect one.

    It runs on one OpenBLAS thread, so its data depend on the seed alone: at
    n = 256 the class covariances are products that threads split, and a
    split sums in another order.
    """
    base = _int_at_least(base_seed, "base_seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence([base, 9]))
    roots = np.maximum(E * 0.8 ** np.arange(n), 1.0)
    covs = []
    for _ in range(num_classes):
        q = _haar_orthogonal(rng.standard_normal((n, n)))
        covs.append((q * roots**2) @ q.T)
    radii = np.sqrt([np.trace(cov) for cov in covs])
    centers = packed_centers(num_classes, n, 0.63, radii, rng.integers(0, 2**63))
    mix = _checked_mixture(
        np.full(num_classes, 1.0 / num_classes), centers, covs, np.arange(num_classes)
    )
    s_train, s_test = _seed_children(base_seed, 2)

    def draw(size, seed):
        draw_rng = np.random.default_rng(seed)
        labels, pts = _labelled_draw(mix, size, draw_rng)
        flip = draw_rng.random(size) < 0.05
        labels[flip] = draw_rng.choice(num_classes, size=int(flip.sum()))
        return LabeledDataset(pts, labels)

    return draw(train_size, s_train), draw(test_size, s_test)


def fig9_body(
    base_seed,
    trials=3,
    d_values=(20, 30, 40, 50, 60, 80, 100),
    train_path=None,
    test_path=None,
    per_class_k=5,
    threads=None,
):
    """Classifier accuracy vs projected dimension.

    Supply label-first CSVs (`label,x1,...,xn` per line) for the real digit
    data, both or neither: without them the sweep runs on the synthetic
    surrogate of `surrogate_digit_data`, and one path alone is a
    MissingDataError. The two files are read, and then the d x trials
    points run, in `threads` worker processes, None for one per core (see
    `_run_trials`).
    """
    if train_path is not None and test_path is not None:
        train_set, test_set = _run_trials(ingest, [train_path, test_path], threads)
    elif train_path is not None or test_path is not None:
        missing = "test_path" if test_path is None else "train_path"
        raise MissingDataError(
            f"{missing} is not set: supply train_path and test_path together, "
            "or neither for the synthetic surrogate"
        )
    else:
        train_set, test_set = surrogate_digit_data(base_seed)
    tasks = [(d, base_seed + t) for d in d_values for t in range(trials)]
    rows = _run_trials(_digit_trial, tasks, threads, (train_set, test_set, per_class_k))
    return _report(("d",), ("accuracy",), rows)


def _digit_trial(task, train_set, test_set, per_class_k):
    d, seed = task
    model = train(train_set, d, per_class_k=per_class_k, seed=seed)
    return {"d": d, "seed": seed, "accuracy": evaluate(model, test_set)}


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
        if self.trials is not None:
            _int_at_least(self.trials, "trials", 1, ConfigError)
        _int_at_least(self.base_seed, "base_seed", 0, ConfigError)
        if not isinstance(self.overrides, dict):
            raise ConfigError(f"overrides must be a dict, got {self.overrides!r}")
        allowed = EXPERIMENTS[self.experiment][1]
        for key in self.overrides:
            if key not in allowed:
                raise ConfigError(
                    f"override {key!r} not valid for {self.experiment}; "
                    f"allowed: {sorted(allowed)}"
                )
        _int_at_least(self.overrides.get("threads", 1), "threads", 1, ConfigError)
        # A path's default of None says nothing of its type, and `open` reads
        # an int as a file descriptor.
        for key in ("train_path", "test_path"):
            value = self.overrides.get(key)
            if value is not None and not isinstance(value, (str, os.PathLike)):
                raise ConfigError(
                    f"{self.experiment}: override {key!r} must be a path "
                    f"(a string), got {value!r}"
                )
        for key, value in self.overrides.items():
            if not _has_type_of(value, allowed[key]):
                raise ConfigError(
                    f"{self.experiment}: override {key!r} must have the type of its "
                    f"default {allowed[key]!r}, got {value!r}"
                )


def _has_type_of(value, default):
    """Whether an override `value` fits the type of its parameter's `default`:
    an int, a real (an int included), an enum member or its string, or a
    sequence of values that fit the default's first element; a bool fits
    none of these. A default of None admits any value."""
    if default is None:
        return True
    if isinstance(default, Enum):
        return isinstance(value, (type(default), str))
    if isinstance(default, tuple):
        return (
            isinstance(value, (Sequence, np.ndarray))
            and not isinstance(value, str)
            and all(_has_type_of(v, default[0]) for v in value)
        )
    if isinstance(value, bool):
        return False
    return isinstance(value, Integral if isinstance(default, int) else Real)


def _overrides(body, *passed_on):
    """The names a config may override, each with its default: the
    defaulted parameters of `body` and of the functions it passes its extra
    keywords on to, less `trials`, which is a field of `ExperimentConfig`
    itself."""
    params = [
        p for f in (body, *passed_on) for p in inspect.signature(f).parameters.values()
    ]
    return {p.name: p.default for p in params if p.default is not p.empty and p.name != "trials"}


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
    kwargs = dict(config.overrides)
    if config.trials is not None and "trials" in inspect.signature(body).parameters:
        kwargs["trials"] = config.trials
    return body(config.base_seed, **kwargs)

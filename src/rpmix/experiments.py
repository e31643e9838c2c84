"""Seeded experiment bodies and CSV reports.

Every experiment is a pure function of its parameters and a base seed, and
each report row records the seed that produced it, so any single trial can
be replayed in isolation. Each body is a grid of points and one `_sweep`, the
one place that seeds trial t at a point with the base seed plus t; it runs the
trials with `_run_trials`, on one OpenBLAS thread, and reports their rows.
Reports are long-format CSV: one row per measurement, followed by aggregate
rows (mean, sd, min, max, median) per parameter group.
"""

from __future__ import annotations

import hashlib
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
from .classifier import LabeledDataset, _ingest, evaluate, train
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


def _sweep(group_columns, metric_columns, worker, points, base_seed, trials, threads=1, shared=()):
    """The report of `trials` trials at each of `points`: trial t at `point` is the
    call `worker(*point, base_seed + t, *shared)`, made through `_run_trials`, which
    returns its rows. They keep task order, each with its row type, group columns, seed and metrics.
    A `base_seed` that is not an int >= 0, or `trials` not an int >= 1, raises
    InvalidParameterError naming it before any trial runs, also when a body is called directly."""
    base_seed, trials = _trial_args(base_seed, trials)
    tasks = [(*point, base_seed + t) for point in points for t in range(trials)]
    cols = (*group_columns, "seed", *metric_columns)
    results = _run_trials(worker, tasks, threads, shared)
    rows = tuple({"row_type": "trial", **{c: row[c] for c in cols}} for trial in results for row in trial)
    return ExperimentReport(tuple(group_columns), tuple(metric_columns), rows)


def _trial_args(base_seed, trials):
    """`base_seed` and `trials` as ints; InvalidParameterError names the first
    that is not an int >= 0, or not an int >= 1, respectively. A body whose
    set-up costs more than a check calls it first."""
    return _int_at_least(base_seed, "base_seed", 0), _int_at_least(trials, "trials", 1)


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
    points = [(n, 2, 1.0, d) for n in n_values]
    return _sweep(("n",), ("separation",), _separation_trial, points, base_seed, trials, threads)


def fig4_body(base_seed, trials=40, k_values=(2, 3, 5, 10, 20), n=100, c=1.0):
    """Projected separation of maximally packed mixtures at d = 10 ln k."""
    points = [(n, k, c, _log_dim(k, n)) for k in k_values]
    return _sweep(("k", "d"), ("separation",), _separation_trial, points, base_seed, trials)


def _separation_trial(n, k, c, d, seed):
    """Separation of a packed c-separated k-mixture in R^n, projected to d dims."""
    _, s_proj = _seed_children(seed, 2)
    mix = make_mixture(MixtureSpec(n=n, k=k, c=c, seed=seed))
    proj = random_orthonormal(n, d, s_proj)
    sep = mixture_separation(project_mixture(proj, mix))
    return [{"n": n, "k": k, "d": d, "seed": seed, "separation": sep}]


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
    points = [(E, n) for E in E_values for n in n_values if d <= n]
    return _sweep(("E", "n"), ("eccentricity",), _fig5_trial, points, base_seed, trials, shared=(d,))


def _fig5_trial(E, n, seed, d):
    s_cov, s_proj = _seed_children(seed, 2)
    cov = eccentric_covariance(n, float(E), CovarianceMode.DIAGONAL_DISTINCT, s_cov)
    return [{"E": E, "n": n, "seed": seed, "eccentricity": _projected_eccentricity(cov, d, s_proj)}]


def fig6_body(base_seed, trials=40, n=50, E=1000.0, d_values=tuple(range(49, 24, -1))):
    """One fixed eccentric Gaussian projected to successively lower dims."""
    cov = eccentric_covariance(n, E, CovarianceMode.DIAGONAL_DISTINCT, base_seed)
    points = [(d,) for d in d_values]
    return _sweep(("d",), ("eccentricity",), _fig6_trial, points, base_seed, trials, shared=(cov,))


def _fig6_trial(d, seed, cov):
    _, s_proj = _seed_children(seed, 2)
    return [{"d": d, "seed": seed, "eccentricity": _projected_eccentricity(cov, d, s_proj)}]


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


def fig7_body(base_seed, trials=10, threads=None, **params):
    """PCA vs random projection separation tables, one row per pair and map.

    `params` are passed on to `fig7_tables`. The trials run in `threads`
    worker processes, None for one per core (see `_run_trials`).
    """
    columns = ("method", "i", "j"), ("separation",)
    return _sweep(*columns, _pca_vs_rp_trial, [()], base_seed, trials, threads, (params,))


def _pca_vs_rp_trial(seed, params):
    pca_table, rp_table = fig7_tables(seed, **params)
    return [
        {"method": method, "i": i, "j": j, "seed": seed, "separation": tab[i, j]}
        for method, tab in (("pca", pca_table), ("rp", rp_table))
        for i, j in combinations(range(len(tab)), 2)
    ]


def pca_collapse_body(base_seed, trials=1, k=10, samples=10000):
    """Symmetric arrangement where PCA to k/2 - 1 dims collapses a pair.

    Unit spherical Gaussians sit in R^(k/2), pair j at +-j on axis j. PCA to
    k/2 - 1 dims drops (roughly) the weakest axis; random projection and
    full-rank PCA keep all pairs separated. Each trial samples the
    arrangement with its own seed; the rows follow trial, then method.
    """
    base_seed, trials = _trial_args(base_seed, trials)
    k = _int_at_least(k, "k", 1)
    if k % 2 != 0:
        raise BadDimsError("k must be even")
    n = k // 2
    if n < 2:
        raise BadDimsError("need k >= 4 so the ambient space has >= 2 dims")
    axes = np.diag(np.arange(1.0, n + 1))
    centers = np.stack([axes, -axes], axis=1).reshape(k, n)  # j e_j, then -j e_j
    mix = _checked_mixture(np.full(k, 1.0 / k), centers, [np.eye(n)], np.zeros(k, dtype=int))
    columns = ("method", "d"), ("min_separation", "original_min_separation")
    return _sweep(*columns, _pca_collapse_trial, [()], base_seed, trials, shared=(mix, samples))


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
        fit_high, _, fit_low = rp_em(train_data, k, random_orthonormal(n, d, s_fit), restriction, s_fit)
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
    """`[worker(*task, *shared) for task in tasks]`, spread over processes on
    one OpenBLAS thread: every sweep's one execution policy.

    `threads` is the number of worker processes, an int >= 1, or None for
    every core in the affinity mask; either is capped at the number of
    tasks, as a fork pool starts every worker at its first submit. With
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
        threads = len(os.sched_getaffinity(0))
    threads = min(_int_at_least(threads, "threads", 1), len(tasks))
    with single_blas_thread():
        if threads <= 1:
            return [worker(*task, *shared) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=threads,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_POOL_SWEEP.set,
            initargs=((worker, shared),),
        ) as pool:
            return list(pool.map(_pooled_trial, tasks))


def _pooled_trial(task):
    worker, shared = _POOL_SWEEP.get()
    return worker(*task, *shared)


def _em_trial(n, seed, overrides):
    return [em_compare_trial(n, seed, **overrides)]


def fig8_body(base_seed, trials=150, n_values=(50, 100, 150, 200), threads=None, **overrides):
    """Regular EM vs RP+EM on 1-separated spherical five-component mixtures.

    Plain EM here starts once, from k random data points, and the drop of
    its success with n belongs to that start: Dasgupta and Schulman's
    two-round start lifts it to 0.993 at n = 50 and 1.000 at n = 200.
    `overrides` are passed on to `em_compare_trial`. `threads` is the number
    of worker processes, None for one per core (see `_run_trials`).
    """
    points = [(n,) for n in n_values]
    return _sweep(("n",), EM_COMPARE_METRICS, _em_trial, points, base_seed, trials, threads, (overrides,))


def second_em_body(base_seed, trials=100, n=100, threads=None):
    """Three 0.8-separated eccentricity-25 Gaussians, unrestricted covariances."""
    return fig8_body(
        base_seed, trials, n_values=(n,), threads=threads, k=3, c=0.8, E=25.0,
        mode=CovarianceMode.ROTATED_DISTINCT, restriction=CovarianceRestriction.FULL_DISTINCT,
    )


# ---------------------------------------------------------------------------
# Digit classifier sweep

@single_blas_thread()
def surrogate_digit_data(base_seed):
    """Synthetic stand-in for the digit set, matching its gross statistics:
    ten 0.63-separated classes in R^256 of eccentricity E = 1e4, with 3000
    training and 1000 test points. The recipe is fixed; only the seed varies.

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
    n, num_classes = 256, 10
    rng = np.random.default_rng(np.random.SeedSequence([base, 9]))
    roots = np.maximum(1e4 * 0.8 ** np.arange(n), 1.0)
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

    return draw(3000, s_train), draw(1000, s_test)


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
    MissingDataError. The two files are read (see `_read_datasets`), and
    then the d x trials points run, in `threads` worker processes, None for
    one per core (see `_run_trials`).
    """
    base_seed, trials = _trial_args(base_seed, trials)
    if train_path is not None and test_path is not None:
        train_set, test_set = _read_datasets([train_path, test_path], threads)
    elif train_path is not None or test_path is not None:
        missing = "test_path" if test_path is None else "train_path"
        raise MissingDataError(
            f"{missing} is not set: supply train_path and test_path together, "
            "or neither for the synthetic surrogate"
        )
    else:
        train_set, test_set = surrogate_digit_data(base_seed)
    shared = (train_set, test_set, per_class_k)
    points = [(d,) for d in d_values]
    return _sweep(("d",), ("accuracy",), _digit_trial, points, base_seed, trials, threads, shared)


# The datasets of fig9's last read from files, keyed by the sha256 of the
# bytes each was parsed from: a repeated sweep over the same files in one
# process parses them once.
_PARSED = {}


def _read_datasets(paths, threads):
    """The datasets `ingest` reads from the label-first CSVs `paths`.

    A file whose bytes hash to a key of `_PARSED` gets that key's dataset,
    which a parse of those bytes would build again. The others are read in
    `threads` worker processes (see `_run_trials`), each hashed from the
    bytes its parse read, and an error is raised as `ingest` raises it, with
    nothing stored. Afterwards `_PARSED` holds exactly these files. While it
    is empty no file is hashed before it is read, so a single read costs one
    digest of the bytes it holds.
    """
    keys = [_file_digest(path) for path in paths] if _PARSED else [None] * len(paths)
    misses = [(path,) for path, key in zip(paths, keys) if key not in _PARSED]
    read = iter(_run_trials(_digested_ingest, misses, threads) if misses else ())
    pairs = [(key, _PARSED[key]) if key in _PARSED else next(read) for key in keys]
    _PARSED.clear()
    _PARSED.update(pairs)
    return [data for _, data in pairs]


def _file_digest(path):
    """The sha256 of the bytes of the file at `path`, or None where it cannot
    be read: `_digested_ingest` then raises the error."""
    digest = hashlib.sha256()
    try:
        with open(_file_name(path), "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    except (OSError, ValueError):  # InvalidParameterError is a ValueError
        return None
    return digest.digest()


def _digested_ingest(path):
    """The sha256 of the bytes `ingest(path)` parses, and its dataset."""
    data, raw = _ingest(path)
    return hashlib.sha256(raw).digest(), data


def _digit_trial(d, seed, train_set, test_set, per_class_k):
    model = train(train_set, random_orthonormal(train_set.dim, d, seed), per_class_k=per_class_k, seed=seed)
    return [{"d": d, "seed": seed, "accuracy": evaluate(model, test_set)}]


# ---------------------------------------------------------------------------
# Config-driven dispatch

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int | None = None
    base_seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
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
        ("fig7-pca-vs-rp", fig7_body, fig7_tables),
        ("fig8-em-compare", fig8_body, em_compare_trial),
        ("second-em-compare", second_em_body),
        ("fig9-digit-sweep", fig9_body),
        ("pca-collapse", pca_collapse_body),
    )
}


def run(config: ExperimentConfig) -> ExperimentReport:
    body, _ = EXPERIMENTS[config.experiment]
    kwargs = dict(config.overrides)
    if config.trials is not None:
        kwargs["trials"] = config.trials
    return body(config.base_seed, **kwargs)

"""Digit-style generative classifier: project once, fit a mixture per class.

One random projection is fixed up front; each class then gets its own
shared-covariance mixture fit by EM in the projected space. A point goes to
the class whose best single Gaussian, plus the class log prior, scores it
highest; a model with equal class priors scores without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmallError,
    DimensionMismatchError,
    InvalidParameterError,
    ParseError,
)
from .em import CovarianceRestriction, _log_joint, run_em
from .gaussians import (
    FLOAT_FMT, _as_float_array, _file_name, _frozen, _int_at_least, _read_csv, _separations, _Workspace,
    save_dataset,
)
from .projection import ProjectionMatrix, project_data, random_orthonormal


def _int64_valued(values):
    """Where the floats `values` are integers that int64 holds."""
    return (values == np.round(values)) & (values >= -(2.0**63)) & (values < 2.0**63)


def _int_labels(labels):
    """`labels` as an int array. An integer array whose values int64 holds
    passes as it is, not copied if int64; any other passes only if every
    entry is an integer value that int64 holds. InvalidParameterError
    otherwise."""
    rule = "labels must be integers that int64 holds"
    try:
        a = np.asarray(labels)
        if a.dtype.kind == "c":  # `astype` would drop the imaginary part
            raise TypeError(f"dtype {a.dtype} is not real")
        if a.dtype.kind in "biu" and a.max(initial=0) <= np.iinfo(int).max:
            return a.astype(int, copy=False)
        values = a.astype(float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{rule}: {exc}") from exc
    whole = _int64_valued(values)
    if not whole.all():
        raise InvalidParameterError(f"{rule}, got {float(values[~whole][0])!r}")
    return values.astype(int)


@dataclass(frozen=True)
class LabeledDataset:
    """Points with one class label each, held as read-only views: the
    dataset shares memory with the arrays passed in, which stay writable."""

    points: np.ndarray  # m x n
    labels: np.ndarray  # m integers in [0, num_classes)

    def __post_init__(self):
        points = _as_float_array(self.points, "points", ndmin=2)
        labels = _int_labels(self.labels)
        if labels.shape != (points.shape[0],):
            raise InvalidParameterError("one label per point required")
        if labels.size and labels.min() < 0:
            raise InvalidParameterError("labels must be non-negative")
        object.__setattr__(self, "points", _frozen(points))
        object.__setattr__(self, "labels", _frozen(labels))

    def __reduce__(self):
        # Unpickled through the constructor, so a dataset a worker process
        # sends back is read-only too; pickle alone drops the flag.
        return LabeledDataset, (self.points, self.labels)

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class ClassMixtureModel:
    projection: ProjectionMatrix
    per_class: tuple  # one Mixture per class, in the projected space
    class_priors: np.ndarray

    def __post_init__(self):
        per_class = tuple(self.per_class)
        priors = _as_float_array(self.class_priors, "class_priors")
        if priors.shape != (len(per_class),):
            raise InvalidParameterError(
                f"one class prior per class mixture required: {len(per_class)} "
                f"mixtures, priors of shape {priors.shape}"
            )
        if np.any(priors <= 0):
            raise InvalidParameterError(f"class priors must all be positive, got {priors}")
        if abs(priors.sum() - 1.0) > 1e-9:
            raise InvalidParameterError("class priors must sum to 1")
        d = self.projection.target_dim
        for mix in per_class:
            if mix.dim != d:
                raise DimensionMismatchError(
                    "per-class mixture dimension != projection target dimension"
                )
        object.__setattr__(self, "per_class", per_class)
        object.__setattr__(self, "class_priors", _frozen(priors))


def _check_no_empty_class(data: LabeledDataset):
    """Raise ClassTooSmallError for the first class in [0, num_classes) that
    has no point. Found from the distinct labels, before anything is sized by
    num_classes, which one stray large label can make huge."""
    present = np.unique(data.labels)
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise ClassTooSmallError(f"class {gaps[0]} has no points")


def ingest(path) -> LabeledDataset:
    """Read a label-first CSV: each line is `label,x1,...,xn`."""
    path = _file_name(path)
    table, linenos = _read_csv(path)
    if table.shape[1] < 2:
        raise ParseError(f"{path}: line {linenos[0]}: no feature values")
    labels = table[:, 0]
    whole = _int64_valued(labels)
    bad = ~whole | (labels < 0)
    if bad.any():
        row = int(np.argmax(bad))
        why = "is negative" if whole[row] else "is not an integer that int64 holds"
        raise ParseError(f"{path}: line {linenos[row]}: label {float(labels[row])!r} {why}")
    return LabeledDataset(table[:, 1:], labels.astype(int))


def save_labeled(data: LabeledDataset, path):
    """Write the label-first CSV format read by `ingest` (round-trips exactly)."""
    save_dataset(np.column_stack((data.labels, data.points)), path)


def train(data: LabeledDataset, d: int, per_class_k: int = 5, seed=0) -> ClassMixtureModel:
    """Fix one random projection, then fit each class independently.

    Each class gets a shared-covariance mixture of `per_class_k` Gaussians
    fit in the projected space; no high-dimensional parameters are kept.
    """
    per_class_k = _int_at_least(per_class_k, "per_class_k", 1)
    _check_no_empty_class(data)
    seed = _int_at_least(seed, "seed", 0)
    num_classes = data.num_classes
    proj = random_orthonormal(data.dim, d, seed)
    projected = project_data(proj, data.points)
    mixtures = []
    priors = np.zeros(num_classes)
    for cls in range(num_classes):
        cls_points = projected[data.labels == cls]
        if cls_points.shape[0] < per_class_k:
            raise ClassTooSmallError(
                f"class {cls} has {cls_points.shape[0]} points, needs {per_class_k}"
            )
        priors[cls] = cls_points.shape[0] / data.points.shape[0]
        fit = run_em(
            cls_points,
            per_class_k,
            CovarianceRestriction.SHARED_FULL,
            np.random.SeedSequence([seed, cls]),
        )
        mixtures.append(fit.model)
    return ClassMixtureModel(proj, tuple(mixtures), priors)


def _class_scores(model: ClassMixtureModel, points):
    """Best per-class Gaussian log-score, plus the class log prior, for every
    row of `points`."""
    work = _Workspace(project_data(model.projection, points), max(mix.k for mix in model.per_class))
    scores = np.empty((len(work.points), len(model.per_class)))
    for cls, mix in enumerate(model.per_class):
        scores[:, cls] = _log_joint(mix, work).max(axis=1) + np.log(model.class_priors[cls])
    return scores


def predict_batch(model: ClassMixtureModel, points) -> np.ndarray:
    """Labels for every row; ties go to the lower class index."""
    return np.argmax(_class_scores(model, points), axis=1)


def predict(model: ClassMixtureModel, x) -> int:
    x = _as_float_array(x, "x")
    if x.shape != (model.projection.source_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, expected ({model.projection.source_dim},)"
        )
    return int(predict_batch(model, x[None, :])[0])


def evaluate(model: ClassMixtureModel, test: LabeledDataset) -> float:
    return float(np.mean(predict_batch(model, test.points) == test.labels))


@dataclass(frozen=True)
class ClusterAnalysis:
    separations: np.ndarray  # num_classes x num_classes, zero diagonal
    eccentricities: np.ndarray
    rank_deficient: np.ndarray  # bool per class


def cluster_analysis(
    data: LabeledDataset, projection: ProjectionMatrix | None = None
) -> ClusterAnalysis:
    """Per-class single-Gaussian summary: pairwise separations + eccentricities.

    Covariances are maximum-likelihood (divide by count). Rank-deficient
    classes are flagged and get a pseudo-eccentricity using the smallest
    strictly positive eigenvalue instead of crashing; raw digit-style data
    is expected to be this degenerate.
    """
    _check_no_empty_class(data)
    points = data.points if projection is None else project_data(projection, data.points)
    num_classes = data.num_classes
    n = points.shape[1]
    means = np.zeros((num_classes, n))
    traces = np.zeros(num_classes)
    eccs = np.zeros(num_classes)
    deficient = np.zeros(num_classes, dtype=bool)
    for cls in range(num_classes):
        cls_points = points[data.labels == cls]
        means[cls] = cls_points.mean(axis=0)
        centered = cls_points - means[cls]
        cov = centered.T @ centered / cls_points.shape[0]
        lam = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        traces[cls] = lam.sum()
        floor = max(lam[-1], 1.0) * np.finfo(float).eps * n
        positive = lam[lam > floor]
        if lam[0] <= floor or cls_points.shape[0] <= n:
            deficient[cls] = True
        eccs[cls] = np.sqrt(lam[-1] / positive[0]) if positive.size else np.inf
    return ClusterAnalysis(_separations(means, np.sqrt(traces)), eccs, deficient)


def save_cluster_analysis(analysis: ClusterAnalysis, path):
    """CSV: class x class separation table with a trailing eccentricity column."""
    k = analysis.separations.shape[0]
    table = np.column_stack((np.arange(k), analysis.separations, analysis.eccentricities))
    header = ",".join(["class", *map(str, range(k)), "eccentricity"])
    np.savetxt(_file_name(path), table, fmt=FLOAT_FMT, delimiter=",", header=header, comments="")

"""Digit-style generative classifier: project once, fit a mixture per class.

The projection is given (the caller draws it: a random one for the paper's
classifier); each class then gets its own shared-covariance mixture fit by
EM in the projected space. A point goes to
the class whose best single Gaussian, plus the class log prior, scores it
highest. Equal class priors shift every class's score by one constant, so
they change no prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmallError,
    DimensionMismatchError,
    DuplicatePointsError,
    InvalidParameterError,
    NotEnoughDataError,
    ParseError,
)
from .em import CovarianceRestriction, _log_joint, run_em
from .gaussians import (
    Mixture, _as_float_array, _file_name, _frozen, _int_at_least, _of_type, _read_csv, _separations,
    _Workspace, save_dataset,
)
from .projection import ProjectionMatrix, project_data

# The least label a label-first CSV cannot round-trip: a label is read and
# written as a double, and from 2**53 on not every integer is one.
FILE_LABEL_BOUND = 2**53


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
        if labels.min(initial=0) < 0:
            raise InvalidParameterError("labels must be non-negative")
        object.__setattr__(self, "points", _frozen(points))
        object.__setattr__(self, "labels", _frozen(labels))

    def __reduce__(self):
        # Unpickled through the constructor, so a dataset a worker process
        # sends back is read-only too; pickle alone drops the flag.
        return LabeledDataset, (self.points, self.labels)

    @property
    def num_classes(self):
        return int(self.labels.max(initial=-1)) + 1

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class ClassMixtureModel:
    projection: ProjectionMatrix
    per_class: tuple  # one Mixture per class, in the projected space
    class_priors: np.ndarray

    def __post_init__(self):
        d = _of_type(self.projection, "projection", ProjectionMatrix).target_dim
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
        for i, mix in enumerate(per_class):
            if _of_type(mix, f"per_class[{i}]", Mixture).dim != d:
                raise DimensionMismatchError(
                    "per-class mixture dimension != projection target dimension"
                )
        object.__setattr__(self, "per_class", per_class)
        object.__setattr__(self, "class_priors", _frozen(priors))


def _class_counts(data: LabeledDataset):
    """The number of points of each class in [0, num_classes), from the
    distinct labels: nothing is sized by num_classes, which one stray large
    label can make huge. A data set with no points raises NotEnoughDataError,
    and then the first class with no point raises ClassTooSmallError."""
    if _of_type(data, "data", LabeledDataset).labels.size == 0:
        raise NotEnoughDataError("the data set has no points")
    present, counts = np.unique(data.labels, return_counts=True)
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise ClassTooSmallError(f"class {gaps[0]} has no points")
    return counts


def ingest(path) -> LabeledDataset:
    """Read a label-first CSV: each line is `label,x1,...,xn`."""
    return _ingest(path)[0]


def _ingest(path):
    """`ingest(path)`, and the bytes of the file it parsed."""
    path = _file_name(path)
    table, linenos, raw = _read_csv(path)
    if table.shape[1] < 2:
        raise ParseError(f"{path}: line {linenos[0]}: no feature values")
    labels = table[:, 0]
    whole = _int64_valued(labels)
    bad = ~whole | (labels < 0) | (labels >= FILE_LABEL_BOUND)
    if bad.any():
        row = int(np.argmax(bad))
        if not whole[row]:
            why = "is not an integer that int64 holds"
        elif labels[row] < 0:
            why = "is negative"
        else:
            why = "is not below 2**53, so it may not be the label written"
        raise ParseError(f"{path}: line {linenos[row]}: label {float(labels[row])!r} {why}")
    return LabeledDataset(table[:, 1:], labels.astype(int)), raw


def save_labeled(data: LabeledDataset, path):
    """Write the label-first CSV format read by `ingest` (round-trips exactly).
    A label of 2**53 or more, which the file cannot hold exactly, raises
    InvalidParameterError before the file is opened."""
    top = int(_of_type(data, "data", LabeledDataset).labels.max(initial=0))
    if top >= FILE_LABEL_BOUND:
        raise InvalidParameterError(f"label {top} is not below 2**53, so a label-first CSV cannot hold it")
    save_dataset(np.column_stack((data.labels, data.points)), path)


def train(data: LabeledDataset, proj: ProjectionMatrix, per_class_k: int = 5, seed=0) -> ClassMixtureModel:
    """Map the data by the projection `proj` it is given, then fit each class
    independently.

    Each class gets a shared-covariance mixture of `per_class_k` Gaussians
    fit in the projected space; no high-dimensional parameters are kept.
    `seed` feeds the class starts only, class c's from
    `SeedSequence([seed, c])`: the caller draws the map (the paper's is
    `random_orthonormal(n, d, ...)`), and any other map, such as
    `pca(data.points, d)`, goes through the same way.
    """
    per_class_k = _int_at_least(per_class_k, "per_class_k", 1)
    counts = _class_counts(data)
    seed = _int_at_least(seed, "seed", 0)
    small = np.flatnonzero(counts < per_class_k)
    if small.size:
        raise ClassTooSmallError(f"class {small[0]} has {counts[small[0]]} points, needs {per_class_k}")
    projected = project_data(_of_type(proj, "proj", ProjectionMatrix), data.points)
    mixtures = []
    for cls in range(counts.size):
        fit = run_em(
            projected[data.labels == cls],
            per_class_k,
            CovarianceRestriction.SHARED_FULL,
            np.random.SeedSequence([seed, cls]),
        )
        mixtures.append(fit.model)
    return ClassMixtureModel(proj, tuple(mixtures), counts / data.points.shape[0])


def _class_scores(model: ClassMixtureModel, points):
    """Best per-class Gaussian log-score, plus the class log prior, for every
    row of `points`. Each row maximum is taken over a Fortran-ordered copy of
    the log-joint, as `em._log_normalize` takes it: the same value, several
    times faster over rows of k entries."""
    model = _of_type(model, "model", ClassMixtureModel)
    work = _Workspace(project_data(model.projection, points))
    scores = np.empty((len(work.points), len(model.per_class)))
    for cls, mix in enumerate(model.per_class):
        best = np.asfortranarray(_log_joint(mix, work)).max(axis=1)
        scores[:, cls] = best + np.log(model.class_priors[cls])
    return scores


def predict_batch(model: ClassMixtureModel, points) -> np.ndarray:
    """Labels for every row; ties go to the lower class index."""
    return np.argmax(_class_scores(model, points), axis=1)


def predict(model: ClassMixtureModel, x) -> int:
    model = _of_type(model, "model", ClassMixtureModel)
    x = _as_float_array(x, "x")
    if x.shape != (model.projection.source_dim,):
        raise DimensionMismatchError(
            f"point has shape {x.shape}, expected ({model.projection.source_dim},)"
        )
    return int(predict_batch(model, x[None, :])[0])


def evaluate(model: ClassMixtureModel, test: LabeledDataset) -> float:
    """The share of `test`'s points that `predict_batch` labels correctly; a
    test set with no points raises NotEnoughDataError."""
    model, test = _of_type(model, "model", ClassMixtureModel), _of_type(test, "test", LabeledDataset)
    if test.labels.size == 0:
        raise NotEnoughDataError("the test set has no points")
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
    is expected to be this degenerate. A class with no positive eigenvalue,
    one whose points coincide, gets 1.0, as one with a single positive
    eigenvalue does; two such classes raise DuplicatePointsError. An
    eigenvalue counts as positive above the rank floor λ_max · ε · n, the
    class's largest eigenvalue times machine epsilon times the dimension.
    Every output is scale-free, so it is computed on the points over a power
    of two near their largest entry, as `packed_centers` scales its targets,
    and no covariance over- or underflows.
    """
    counts = _class_counts(data)
    exp = np.frexp(np.max(np.abs(data.points), initial=0.0))[1]
    points = np.ldexp(data.points, -exp)
    if projection is not None:
        points = project_data(projection, points)
    num_classes = counts.size
    n = points.shape[1]
    means = np.zeros((num_classes, n))
    traces = np.zeros(num_classes)
    eccs = np.zeros(num_classes)
    deficient = np.zeros(num_classes, dtype=bool)
    for cls in range(num_classes):
        cls_points = points[data.labels == cls]
        means[cls] = cls_points.mean(axis=0)
        centered = cls_points - means[cls]
        cov = centered.T @ centered / counts[cls]
        lam = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        traces[cls] = lam.sum()
        floor = lam[-1] * np.finfo(float).eps * n
        positive = lam[lam > floor]
        if lam[0] <= floor or counts[cls] <= n:
            deficient[cls] = True
        eccs[cls] = np.sqrt(lam[-1] / positive[0]) if positive.size else 1.0
    spreadless = np.flatnonzero(traces == 0)
    if spreadless.size > 1:
        raise DuplicatePointsError(
            f"classes {spreadless.tolist()} each have points that all coincide, "
            "so the separation between two of them has no scale"
        )
    return ClusterAnalysis(_separations(means, np.sqrt(traces)), eccs, deficient)


def save_cluster_analysis(analysis: ClusterAnalysis, path):
    """CSV: class x class separation table with a trailing eccentricity
    column, under a header line, as `save_dataset` writes it; a non-finite
    entry raises NonFiniteError. `load_dataset(path, skip_header=True)`
    reads it back."""
    k = analysis.separations.shape[0]
    table = np.column_stack((np.arange(k), analysis.separations, analysis.eccentricities))
    save_dataset(table, path, header=["class", *map(str, range(k)), "eccentricity"])

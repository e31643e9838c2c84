"""Every public function that takes an array rejects NaN and infinity with a
NonFiniteError that names the argument, before it computes or writes
anything. A non-numeric or ragged array ends in an InvalidParameterError
naming the argument, a bad parameter value in an RpmixError, a malformed
mixture or projection file in a ParseError naming the file, any other error
from a file's content in its own type naming the file, a non-integer size
argument (nan and inf included) in an InvalidParameterError naming it, an
enum argument given as None, an int, bytes or a list in an
InvalidParameterError, a seed that is neither an int >= 0 nor a
SeedSequence in an InvalidParameterError naming the seed, a
`tol` that is not a finite real >= 0 in an InvalidParameterError, an
`m_step` `previous` that is not a Mixture of its k components in its
dimension in an InvalidParameterError naming it, a
separation or eccentricity that is not a finite real in an RpmixError, a
covariance that overflows from finite input in a NonFiniteError naming the
covariance, data whose centering overflows in PCA in a NonFiniteError, a
point that a projection maps past the double range in a NonFiniteError
naming the point, a file path that is not a str, bytes or os.PathLike (an
int file descriptor included) in an InvalidParameterError naming it, and an
object that keeps an array argument leaves the caller's array writable. A
file of any bytes read as a CSV, a mixture, a projection or an experiment
config gives a value or
an RpmixError, an undecodable byte included, and a fit of points at a scale
from 1e-320 to 1e296, or of degenerate data or k (duplicate points, points
in a subspace, k = m or m - 1 for m points, k far above the dimension),
gives a finite log-likelihood trace or an RpmixError. A point set with no
rows gives an empty result or a NotEnoughDataError, never a warning, EM
data with no columns raises NotEnoughDataError naming its shape, and a
writer given an array with no values raises NotEnoughDataError and leaves
no file. A label of 2**53 or more, which a label-first CSV cannot hold
exactly, is a ParseError naming its line when read and an
InvalidParameterError before the file opens when written."""

import dataclasses
import inspect
import json
import os
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rpmix import (
    CovarianceRestriction,
    Gaussian,
    Mixture,
    centers_recovered,
    cluster_analysis,
    e_step,
    evaluate,
    ingest,
    init_params,
    load_dataset,
    load_mixture,
    log_density,
    m_step,
    mahalanobis,
    mixture_separation,
    norm_tail_bound,
    pairwise_separation,
    pca,
    predict,
    project_data,
    project_gaussian,
    project_mixture,
    rp_em,
    run_em,
    sample,
    save_dataset,
    save_labeled,
    save_mixture,
    save_projection,
    spectral_summary,
)
from rpmix import cli, em, experiments
from rpmix.classifier import (
    ClassMixtureModel,
    LabeledDataset,
    predict_batch,
    save_cluster_analysis,
    train,
)
from rpmix.em import test_loglik as held_out_loglik
from rpmix.errors import (
    BadDimsError,
    BadSeparationError,
    ConfigError,
    DimensionMismatchError,
    DuplicatePointsError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    NotPositiveDefiniteError,
    ParseError,
    RpmixError,
)
from rpmix.experiments import (
    ExperimentConfig,
    ExperimentReport,
    fig4_body,
    fig9_body,
    pca_collapse_body,
    run,
    surrogate_digit_data,
)
from rpmix.gaussians import _as_float_array, _checked_mixture, log_density_batch
from rpmix.projection import (
    ProjectionKind,
    ProjectionMatrix,
    load_projection,
    random_orthonormal,
    random_uniform,
)
from rpmix.synthesis import (
    CovarianceMode,
    MixtureSpec,
    eccentric_covariance,
    long_axis_mixture,
    make_mixture,
    mixing_weights,
    packed_centers,
)

FULL = CovarianceRestriction.FULL_DISTINCT

DATA = np.random.default_rng(0).standard_normal((40, 3))
DATA[20:] += 6.0
MODEL = init_params(DATA, 2, FULL, 0)
G = MODEL.components[0]
RESP = np.tile([0.5, 0.5], (40, 1))
PROJ = random_orthonormal(3, 2, 0)
# One mixture per class prior, in PROJ's target dimension.
CLASSES = (Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0]),) * 2


def poisoned(a, bad):
    """A float copy of `a` with its entry at flat index 1 set to `bad`."""
    a = np.array(a, dtype=float)
    a.flat[1] = bad
    return a


def write_projection(path, bad):
    rows = poisoned(PROJ.rows, bad).tolist()
    doc = {"kind": "orthonormal-rp", "source_dim": 3, "target_dim": 2, "rows": rows}
    path.write_text(json.dumps(doc))  # as the JSON literals NaN and Infinity
    return path


# case -> (argument name, call with the bad value and a scratch directory)
CASES = {
    "Gaussian-mean": ("mean", lambda b, tmp: Gaussian(poisoned([0, 0], b), np.eye(2))),
    "Gaussian-covariance": ("covariance", lambda b, tmp: Gaussian([0, 0], poisoned(np.eye(2), b))),
    "Mixture": ("weights", lambda b, tmp: Mixture(MODEL.components, poisoned([0.5, 0.5], b))),
    "log_density": ("x", lambda b, tmp: log_density(G, poisoned(DATA[0], b))),
    "log_density_batch": ("points", lambda b, tmp: log_density_batch(G, poisoned(DATA, b))),
    "mahalanobis": ("x", lambda b, tmp: mahalanobis(G, poisoned(DATA[0], b))),
    "spectral_summary": ("covariance", lambda b, tmp: spectral_summary(poisoned(np.eye(2), b))),
    "init_params": ("data", lambda b, tmp: init_params(poisoned(DATA, b), 2, FULL, 0)),
    "e_step": ("data", lambda b, tmp: e_step(MODEL, poisoned(DATA, b))),
    "m_step-resp": ("resp", lambda b, tmp: m_step(poisoned(RESP, b), DATA, FULL)),
    "m_step-data": ("data", lambda b, tmp: m_step(RESP, poisoned(DATA, b), FULL)),
    "run_em": ("data", lambda b, tmp: run_em(poisoned(DATA, b), 2, FULL, 0)),
    "rp_em": ("train", lambda b, tmp: rp_em(poisoned(DATA, b), 2, PROJ, FULL, 0)),
    "test_loglik": ("test", lambda b, tmp: held_out_loglik(MODEL, poisoned(DATA, b))),
    "pca": ("data", lambda b, tmp: pca(poisoned(DATA, b), 2)),
    "project_data": ("data", lambda b, tmp: project_data(PROJ, poisoned(DATA, b))),
    "ProjectionMatrix": (
        "rows",
        lambda b, tmp: ProjectionMatrix(poisoned(PROJ.rows, b), ProjectionKind.UNIFORM_RP),
    ),
    "load_projection": ("rows", lambda b, tmp: load_projection(write_projection(tmp / "p.json", b))),
    "LabeledDataset": ("points", lambda b, tmp: LabeledDataset(poisoned(DATA, b), [0] * 40)),
    "ClassMixtureModel": (
        "class_priors",
        lambda b, tmp: ClassMixtureModel(PROJ, CLASSES, poisoned([0.5, 0.5], b)),
    ),
    "packed_centers": ("radii", lambda b, tmp: packed_centers(2, 3, 2, poisoned([1, 1], b), 0)),
    "save_dataset": ("points", lambda b, tmp: save_dataset(poisoned(DATA, b), tmp / "out.csv")),
}


# case -> the file a loader case reads; a loader puts its path in front of the
# message of an error from the file's content
LOADED_FILES = {"load_projection": "p.json", "load_mixture-mean": "m.json"}


def path_prefix(case, tmp_path):
    """The pattern of the path in front of `case`'s message, if it loads a file."""
    return re.escape(f"{tmp_path / LOADED_FILES[case]}: ") if case in LOADED_FILES else ""


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_array_is_named(tmp_path, case, bad):
    name, call = CASES[case]
    prefix = path_prefix(case, tmp_path)
    with pytest.raises(NonFiniteError, match=f"^{prefix}{name} contains non-finite entries$"):
        call(bad, tmp_path)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("x", [2.0, [1.0, 2.0], [[1.0], [2.0]]], ids=["scalar", "vector", "matrix"])
def test_gate_adds_leading_axes_without_a_copy(x):
    a = np.asarray(x, dtype=float)
    out = _as_float_array(a, "x", ndmin=2)
    assert out.shape == np.atleast_2d(a).shape
    assert np.shares_memory(out, a)


# case -> call that passes a finite but invalid parameter
INVALID = {
    "Gaussian-mean-not-vector": lambda: Gaussian(np.zeros((2, 2)), np.eye(2)),
    "Mixture-no-component": lambda: Mixture([], []),
    "Mixture-not-a-Gaussian": lambda: Mixture([1, 2], [0.5, 0.5]),
    "Mixture-weight-count": lambda: Mixture(MODEL.components, [1.0]),
    "Mixture-negative-weight": lambda: Mixture(MODEL.components, [1.5, -0.5]),
    "Mixture-weight-sum": lambda: Mixture(MODEL.components, [0.5, 0.6]),
    "spectral_summary-not-square": lambda: spectral_summary(np.ones((2, 3))),
    "ClassMixtureModel-prior-sum": lambda: ClassMixtureModel(PROJ, CLASSES, [0.5, 0.6]),
    "packed_centers-radius-count": lambda: packed_centers(2, 3, 2, [1.0], 0),
    "packed_centers-no-component": lambda: packed_centers(0, 3, 1.0, [], 0),
    "eccentric_covariance-negative-n": lambda: eccentric_covariance(-1, 1.0, "diagonal-distinct", 0),
    "long_axis_mixture-no-component": lambda: long_axis_mixture(8, 0, 0.5, 2.0, 2, 0),
    "MixtureSpec-c-str": lambda: MixtureSpec(n=5, k=2, c="1"),
    "MixtureSpec-c-none": lambda: MixtureSpec(n=5, k=2, c=None),
    "MixtureSpec-c-bool": lambda: MixtureSpec(n=5, k=2, c=True),
    "MixtureSpec-E-str": lambda: MixtureSpec(n=5, k=2, c=1.0, E="2"),
    "MixtureSpec-E-bool": lambda: MixtureSpec(n=5, k=2, c=1.0, E=True),
    "MixtureSpec-seed-negative": lambda: MixtureSpec(n=5, k=2, c=1.0, seed=-1),
    "eccentric_covariance-E-str": lambda: eccentric_covariance(3, "2", "diagonal-distinct", 0),
    "long_axis_mixture-E-str": lambda: long_axis_mixture(8, 2, 1.0, "2", 2, 0),
}

# function -> call with a seed, valid but for the seed
SEEDED = {
    "sample": lambda seed: sample(MODEL, 5, seed),
    "random_orthonormal": lambda seed: random_orthonormal(4, 2, seed),
    "random_uniform": lambda seed: random_uniform(4, 2, seed),
    "eccentric_covariance": lambda seed: eccentric_covariance(3, 2.0, "rotated-distinct", seed),
    "packed_centers": lambda seed: packed_centers(2, 3, 1.0, [1.0, 1.0], seed),
    "mixing_weights": lambda seed: mixing_weights(3, seed),
    "init_params": lambda seed: init_params(DATA, 2, FULL, seed),
    "run_em": lambda seed: run_em(DATA, 2, FULL, seed),
    "rp_em": lambda seed: rp_em(DATA, 2, PROJ, FULL, seed),
    "long_axis_mixture": lambda seed: long_axis_mixture(100, 5, 0.5, 1000.0, 10, seed),
    "train": lambda seed: train(LabeledDataset(DATA, np.repeat([0, 1], 20)), PROJ, per_class_k=2, seed=seed),
}
BAD_SEEDS = (-1, "abc", 1.5)
INVALID.update(
    (f"{name}-seed-{bad}", partial(call, bad)) for name, call in SEEDED.items() for bad in BAD_SEEDS
)

# site -> (a valid value of the enum argument, call valid but for that argument)
ENUM_ARGUMENTS = {
    "run_em-restriction": ("full-distinct", lambda v: run_em(DATA, 2, v, 0)),
    "rp_em-restriction": ("shared-full", lambda v: rp_em(DATA, 2, PROJ, v, 0)),
    "MixtureSpec-covariance_mode": (
        "rotated-distinct", lambda v: MixtureSpec(n=5, k=2, c=1.0, covariance_mode=v)
    ),
    "eccentric_covariance-mode": ("diagonal-distinct", lambda v: eccentric_covariance(3, 2.0, v, 0)),
    "ProjectionMatrix-kind": ("uniform-rp", lambda v: ProjectionMatrix(PROJ.rows, v)),
}
INVALID.update(
    (f"{site}-{label}", partial(call, bad))
    for site, (valid, call) in ENUM_ARGUMENTS.items()
    for label, bad in {"none": None, "int": 1, "bytes": valid.encode(), "list": [valid]}.items()
)


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_parameter_is_typed(case):
    with pytest.raises(InvalidParameterError):
        INVALID[case]()


@pytest.mark.parametrize("components, index", [([1, 2], 0), ([G, "g"], 1)], ids=["first", "second"])
def test_mixture_names_the_component_that_is_not_a_gaussian(components, index):
    with pytest.raises(InvalidParameterError, match=f"^component {index} is not a Gaussian"):
        Mixture(components, [0.5, 0.5])


@pytest.mark.parametrize("seed", [-1, 2.0, "0", True, None])
def test_mixture_spec_seed_is_an_int_or_a_seed_sequence(seed):
    with pytest.raises(InvalidParameterError, match=r"^seed must be an int >= 0 or a SeedSequence, got "):
        MixtureSpec(n=5, k=2, c=1.0, seed=seed)


@pytest.mark.parametrize("function", sorted(SEEDED))
def test_seed_error_names_the_seed(function):
    with pytest.raises(InvalidParameterError, match=r"^seed must be an int >= 0"):
        SEEDED[function]("abc")


# The `[seed, ...]` entropy of these two takes an int, not a SeedSequence.
INT_SEEDED = {
    "train": ("seed", SEEDED["train"]),
    "surrogate_digit_data": ("base_seed", surrogate_digit_data),
}


@pytest.mark.parametrize("function", sorted(INT_SEEDED))
def test_int_only_seed_rejects_a_seed_sequence(function):
    name, call = INT_SEEDED[function]
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be an int >= 0, got SeedSequence"):
        call(np.random.SeedSequence(3))


def test_a_numpy_int_or_seed_sequence_seed_draws_as_its_int():
    drawn = sample(MODEL, 5, 3)
    assert np.array_equal(sample(MODEL, 5, np.int64(3)), drawn)
    assert np.array_equal(sample(MODEL, 5, np.random.SeedSequence(3)), drawn)


def test_mixture_spec_takes_a_seed_sequence():
    spec = MixtureSpec(n=5, k=2, c=1.0, seed=np.random.SeedSequence(3))
    assert make_mixture(spec).k == 2


@pytest.mark.parametrize("k", [1, 0, -3])
def test_fig4_component_count_below_two_is_typed(tmp_path, capsys, k):
    with pytest.raises(InvalidParameterError, match=r"^k must be an int >= 2"):
        fig4_body(0, trials=1, k_values=(k,))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "fig4-sep-vs-k", "overrides": {"k_values": [k]}}))
    assert cli.main(["experiment", "--config", str(path), "--trials", "1"]) == 1
    assert "error: k must be an int >= 2" in capsys.readouterr().err


def test_negative_weight_in_mixture_file_is_an_rpmix_error(tmp_path):
    path = tmp_path / "m.json"
    doc = {"weights": [1.5, -0.5], "means": [[0.0], [1.0]], "covariances": [[[1.0]], [[1.0]]]}
    path.write_text(json.dumps(doc))
    try:
        load_mixture(path)
    except RpmixError as exc:
        assert "positive" in str(exc)
    else:
        pytest.fail("load_mixture accepted a negative weight")


# case -> (constructor, attribute that keeps the array, array passed in)
KEEPERS = {
    "LabeledDataset-points": (lambda a: LabeledDataset(a, [0, 1, 1]), "points", np.ones((3, 2))),
    "LabeledDataset-labels": (lambda a: LabeledDataset(np.ones((3, 2)), a), "labels", np.array([0, 1, 1])),
    "ProjectionMatrix": (lambda a: ProjectionMatrix(a, ProjectionKind.UNIFORM_RP), "rows", np.ones((2, 3))),
    "Gaussian": (lambda a: Gaussian(a, np.eye(2)), "mean", np.ones(2)),
    "Mixture": (lambda a: Mixture(MODEL.components, a), "weights", np.array([0.25, 0.75])),
    "Mixture-means": (
        lambda a: _checked_mixture([0.25, 0.75], a, [np.eye(2)], [0, 0]), "means", np.ones((2, 2))
    ),
    "ClassMixtureModel": (lambda a: ClassMixtureModel(PROJ, CLASSES, a), "class_priors", np.array([0.25, 0.75])),
}


@pytest.mark.parametrize("case", sorted(KEEPERS))
def test_kept_array_is_a_read_only_view(case):
    make, attr, a = KEEPERS[case]
    kept = getattr(make(a), attr)
    a.flat[0] = 5
    assert kept.flat[0] == 5  # shared memory, not a copy
    assert not kept.flags.writeable


# case -> text of a malformed mixture file
MALFORMED_MIXTURES = {
    "missing-key": json.dumps({"means": [[0.0]], "covariances": [[[1.0]]]}),
    "top-level-list": json.dumps([[0.0], [[1.0]]]),
    "not-json": "weights: [1.0]\n",
    "ragged-lists": json.dumps(
        {"weights": [0.5, 0.5], "means": [[0.0], [1.0], [2.0]], "covariances": [[[1.0]], [[1.0]]]}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MIXTURES))
def test_malformed_mixture_file_is_a_parse_error(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(MALFORMED_MIXTURES[case])
    with pytest.raises(ParseError, match=f"{case}.json: "):
        load_mixture(path)


# case -> text of a malformed projection file
GOOD_PROJECTION = {"kind": "uniform-rp", "source_dim": 2, "target_dim": 1, "rows": [[0.5, 0.5]]}
MALFORMED_PROJECTIONS = {
    "missing-kind": json.dumps({k: v for k, v in GOOD_PROJECTION.items() if k != "kind"}),
    "top-level-list": json.dumps([GOOD_PROJECTION]),
    "unknown-kind": json.dumps({**GOOD_PROJECTION, "kind": "bogus"}),
    "missing-source-dim": json.dumps({k: v for k, v in GOOD_PROJECTION.items() if k != "source_dim"}),
    "not-json": "kind: uniform-rp\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROJECTIONS))
def test_malformed_projection_file_is_a_parse_error(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(MALFORMED_PROJECTIONS[case])
    with pytest.raises(ParseError, match=f"{case}.json: "):
        load_projection(path)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


# case -> (call, the argument it names)
NON_NUMERIC = {
    "Gaussian-mean": (lambda tmp: Gaussian("abc", np.eye(2)), "mean"),
    "project_data-ragged-rows": (lambda tmp: project_data(PROJ, [[1.0, 2.0, 3.0], [1.0, 2.0]]), "data"),
    "load_mixture-mean": (lambda tmp: load_mixture(write_json(
        tmp / "m.json", {"weights": [1.0], "means": ["abc"], "covariances": [[[1.0]]]}
    )), "mean"),
    # A complex entry is not truncated to its real part, even a zero imaginary one.
    "Gaussian-complex-mean": (lambda tmp: sample(Gaussian(np.zeros(2) + 0j, np.eye(2)), 2, 0), "mean"),
    "Gaussian-complex-covariance": (lambda tmp: Gaussian(np.zeros(2), np.eye(2) + 0j), "covariance"),
    "project_data-complex-rows": (lambda tmp: project_data(PROJ, np.array([[0j, 2.0, 3.0]])), "data"),
    "LabeledDataset-complex-points": (lambda tmp: LabeledDataset(np.ones((2, 2)) + 0j, [1, 0]), "points"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC))
def test_non_numeric_array_is_an_invalid_parameter(tmp_path, case):
    call, name = NON_NUMERIC[case]
    prefix = path_prefix(case, tmp_path)
    with pytest.raises(InvalidParameterError, match=f"^{prefix}{name} is not an array of numbers"):
        call(tmp_path)


def one_dim_mixture(**changes):
    return {"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]]], **changes}


# case -> (loader, error its content raises, document)
BAD_CONTENT = {
    "mixture-non-numeric-mean": (load_mixture, InvalidParameterError, one_dim_mixture(means=["abc"])),
    "mixture-negative-weight": (
        load_mixture,
        InvalidParameterError,
        one_dim_mixture(weights=[1.5, -0.5], means=[[0.0], [1.0]], covariances=[[[1.0]], [[1.0]]]),
    ),
    "mixture-nan-mean": (load_mixture, NonFiniteError, one_dim_mixture(means=[[float("nan")]])),
    "mixture-not-positive-definite": (
        load_mixture, NotPositiveDefiniteError, one_dim_mixture(covariances=[[[-1.0]]])
    ),
    "mixture-dimension-mismatch": (
        load_mixture, DimensionMismatchError, one_dim_mixture(means=[[0.0, 0.0]])
    ),
    "projection-declared-dims": (load_projection, BadDimsError, {**GOOD_PROJECTION, "source_dim": 3}),
    "projection-non-numeric-row": (
        load_projection, InvalidParameterError, {**GOOD_PROJECTION, "rows": [["a", 0.5]]}
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONTENT))
def test_error_from_file_content_names_the_file(tmp_path, case):
    load, error, doc = BAD_CONTENT[case]
    path = write_json(tmp_path / f"{case}.json", doc)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: ") as info:
        load(path)
    assert type(info.value) is error


def write_text(path, text):
    path.write_text(text)
    return path


# A Gaussian in R^2: outside DATA's, MODEL's and PROJ's source dimension 3.
PLANE = Gaussian(np.zeros(2), np.eye(2))

# case -> (error, the stable part of its message, call with a scratch directory)
TYPED = {
    "test_loglik-width": (
        DimensionMismatchError, "data dimension 2 != model dimension 3",
        lambda tmp: held_out_loglik(MODEL, DATA[:, :2]),
    ),
    "e_step-width": (
        DimensionMismatchError, "data dimension 2 != model dimension 3", lambda tmp: e_step(MODEL, DATA[:, :2])
    ),
    "log_density-dimension": (
        DimensionMismatchError, r"x has shape \(2,\), expected dimension 3", lambda tmp: log_density(G, [0.0, 0.0])
    ),
    "log_density_batch-dimension": (
        DimensionMismatchError, r"points has shape \(4, 2\), expected dimension 3",
        lambda tmp: log_density_batch(G, np.zeros((4, 2))),
    ),
    "pairwise_separation-dimensions": (
        DimensionMismatchError, "Gaussians have differing dimensions", lambda tmp: pairwise_separation(G, PLANE)
    ),
    "project_mixture-dimension": (
        DimensionMismatchError, "dimension 2 != source dimension 3", lambda tmp: project_mixture(PROJ, CLASSES[0])
    ),
    "project_gaussian-dimension": (
        DimensionMismatchError, "dimension 2 != source dimension 3", lambda tmp: project_gaussian(PROJ, PLANE)
    ),
    "ClassMixtureModel-dimension": (
        DimensionMismatchError, "per-class mixture dimension != projection target dimension",
        lambda tmp: ClassMixtureModel(PROJ, (MODEL, MODEL), [0.5, 0.5]),
    ),
    "ingest-label-only": (
        ParseError, "labels.csv: line 1: no feature values", lambda tmp: ingest(write_text(tmp / "labels.csv", "0\n1\n"))
    ),
    "init_params-coincident": (
        DuplicatePointsError, "all points coincide", lambda tmp: init_params(np.ones((5, 2)), 1, FULL, 0)
    ),
    "load_mixture-empty": (
        InvalidParameterError, "empty.json: a mixture needs at least one mean",
        lambda tmp: load_mixture(write_json(tmp / "empty.json", {"weights": [], "means": [], "covariances": []})),
    ),
}


@pytest.mark.parametrize("case", sorted(TYPED))
def test_error_is_typed_and_says_why(tmp_path, case):
    error, message, call = TYPED[case]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert type(info.value) is error


# case -> labels of two points that are not integers int64 holds
NOT_INT64_LABELS = {
    "fractional": [0.5, 1.7],
    "str": ["a", "b"],
    "nan": [np.nan, 1],
    "float-above-int64": [1e20, 0],
    "float-below-int64": [-1e20, 0],
    "int-above-int64": [2**70, 0],
    "uint64-above-int64": np.array([2**63, 0], dtype=np.uint64),
    "missing": [1, None],
    "complex": [1 + 1j, 0],
    "complex-real-valued": np.array([1 + 0j, 0]),
}


@pytest.mark.parametrize("case", sorted(NOT_INT64_LABELS))
def test_label_that_int64_does_not_hold_is_an_invalid_parameter(case):
    with pytest.raises(InvalidParameterError, match="^labels must be integers that int64 holds"):
        LabeledDataset(np.zeros((2, 3)), NOT_INT64_LABELS[case])


# case -> (integer-valued labels accepted as they were, the labels kept)
INTEGER_LABELS = {
    "int8": (np.array([1, 0], dtype=np.int8), [1, 0]),
    "uint64-at-int64-max": (np.array([2**63 - 1, 0], dtype=np.uint64), [2**63 - 1, 0]),
    "float": ([1.0, -0.0], [1, 0]),
    "float-at-2**62": ([2.0**62, 0.0], [2**62, 0]),
    "bool": ([True, False], [1, 0]),
    "str": (["1", "0"], [1, 0]),
}


@pytest.mark.parametrize("case", sorted(INTEGER_LABELS))
def test_integer_valued_labels_are_kept(case):
    labels, kept = INTEGER_LABELS[case]
    data = LabeledDataset(np.zeros((2, 3)), labels)
    assert data.labels.dtype == np.int64 and data.labels.tolist() == kept


@pytest.mark.parametrize("label", ["1e20", "-1e20", "9.3e18"])
def test_ingested_label_that_int64_does_not_hold_names_its_line(tmp_path, label):
    path = write_text(tmp_path / "labels.csv", f"0,1.0,2.0\n{label},3.0,4.0\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: label .* is not an integer"):
        ingest(path)


@pytest.mark.parametrize("label", ["-1", "-2.0", "-3e0"])
def test_ingested_negative_label_names_its_line(tmp_path, label):
    path = write_text(tmp_path / "labels.csv", f"0,1.0,2.0\n1,2.0,1.0\n{label},3.0,4.0\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: label -\d\.0 is negative$"):
        ingest(path)


# A label-first CSV holds labels as doubles, which from 2**53 on skip
# integers: 2**53 + 1 reads as 2**53, and 2**60 + 1 is written as 2**60.
@pytest.mark.parametrize("label", ["9007199254740992", "9007199254740993", "1152921504606846977"])
def test_ingested_label_from_2_53_on_names_its_line(tmp_path, label):
    path = write_text(tmp_path / "labels.csv", f"0,1.0,2.0\n{label},2,2\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: label \S+ is not below 2\*\*53"):
        ingest(path)


@pytest.mark.parametrize("label", [2**53, 2**60 + 1])
def test_saved_label_from_2_53_on_is_refused_before_the_file_opens(tmp_path, label):
    path = tmp_path / "labels.csv"
    with pytest.raises(InvalidParameterError, match=rf"^label {label} is not below 2\*\*53"):
        save_labeled(LabeledDataset(np.zeros((2, 3)), [label, 0]), path)
    assert not path.exists()


def test_label_below_2_53_round_trips(tmp_path):
    path = tmp_path / "labels.csv"
    save_labeled(LabeledDataset(np.zeros((2, 3)), [2**53 - 1, 0]), path)
    assert ingest(path).labels.tolist() == [2**53 - 1, 0]


# case -> (label-first CSV text, the error that names its line)
INGEST_ERRORS = {
    "label-only": ("0\n1\n", "line 1: no feature values"),
    "negative-label": ("0,1.0\n-1,2.0\n", "line 2: label -1.0 is negative"),
    "fractional-label": ("0,1.0\n0.5,2.0\n", "line 2: label 0.5 is not an integer that int64 holds"),
    "bad-cell": ("0,1.0\n1,x\n", "line 2: column 2: 'x' is not a number"),
}


@pytest.mark.parametrize("case", sorted(INGEST_ERRORS))
def test_ingest_names_a_bytes_path_as_a_str(tmp_path, case):
    text, message = INGEST_ERRORS[case]
    path = write_text(tmp_path / "labels.csv", text)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        ingest(os.fsencode(path))


# case -> (argument name, call with a size that is not an integer)
NON_INTEGER = {
    "run_em-k-float": ("k", lambda: run_em(DATA, 2.5, FULL, 0)),
    "run_em-k-bool": ("k", lambda: run_em(DATA, True, FULL, 0)),
    "run_em-k-str": ("k", lambda: run_em(DATA, "2", FULL, 0)),
    "run_em-max_iter": ("max_iter", lambda: run_em(DATA, 2, FULL, 0, max_iter=2.5)),
    "rp_em-k": ("k", lambda: rp_em(DATA, 2.5, PROJ, FULL, 0)),
    "random_orthonormal-d": ("d", lambda: random_orthonormal(4, 2.5, 0)),
    "random_orthonormal-n": ("n", lambda: random_orthonormal("4", 2, 0)),
    "pca-d": ("d", lambda: pca(DATA, 1.5)),
    "sample-count": ("count", lambda: sample(MODEL, 2.5, 0)),
    "mixing_weights-k": ("k", lambda: mixing_weights(2.5, 0)),
    "MixtureSpec-k": ("k", lambda: MixtureSpec(n=4, k=2.5, c=1.0)),
    "long_axis_mixture-n": ("n", lambda: long_axis_mixture(8.0, 2, 1.0, 2.0, 2, 0)),
    "long_axis_mixture-k": ("k", lambda: long_axis_mixture(8, 2.5, 1.0, 2.0, 2, 0)),
    "long_axis_mixture-d": ("d", lambda: long_axis_mixture(8, 2, 1.0, 2.0, 1.5, 0)),
    "eccentric_covariance-n": ("n", lambda: eccentric_covariance(2.5, 2.0, "rotated-distinct", 0)),
    "packed_centers-k": ("k", lambda: packed_centers(2.5, 3, 1.0, [1.0, 1.0], 0)),
    "packed_centers-n": ("n", lambda: packed_centers(2, "3", 1.0, [1.0, 1.0], 0)),
}
# site -> (argument name, call with the size)
SIZES = {
    "run_em-k": ("k", lambda v: run_em(DATA, v, FULL, 0)),
    "run_em-max_iter": ("max_iter", lambda v: run_em(DATA, 2, FULL, 0, max_iter=v)),
    "random_orthonormal-d": ("d", lambda v: random_orthonormal(4, v, 0)),
    "random_orthonormal-n": ("n", lambda v: random_orthonormal(v, 2, 0)),
    "sample-count": ("count", lambda v: sample(MODEL, v, 0)),
    "train-per_class_k": (
        "per_class_k", lambda v: train(LabeledDataset(DATA, np.repeat([0, 1], 20)), PROJ, per_class_k=v)
    ),
}
NON_INTEGER.update(
    (f"{site}-{bad}", (name, partial(call, bad)))
    for site, (name, call) in SIZES.items()
    for bad in (float("nan"), float("inf"))
)


@pytest.mark.parametrize("case", sorted(NON_INTEGER))
def test_non_integer_size_is_an_invalid_parameter(case):
    name, call = NON_INTEGER[case]
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call()


# site -> (name in the message, least valid value, error type, call with the int)
INT_GATES = {
    "train-seed": ("seed", 0, InvalidParameterError, SEEDED["train"]),
    "train-per_class_k": (
        "per_class_k", 1, InvalidParameterError,
        lambda v: train(LabeledDataset(DATA, np.repeat([0, 1], 20)), PROJ, per_class_k=v),
    ),
    "surrogate_digit_data-base_seed": ("base_seed", 0, InvalidParameterError, surrogate_digit_data),
    "init_params-k": ("k", 1, InvalidParameterError, lambda v: init_params(DATA, v, FULL, 0)),
    "run_em-k": ("k", 1, InvalidParameterError, lambda v: run_em(DATA, v, FULL, 0, max_iter=2)),
    "run_em-max_iter": ("max_iter", 0, InvalidParameterError, lambda v: run_em(DATA, 2, FULL, 0, max_iter=v)),
    "fig4_body-k": ("k", 2, InvalidParameterError, lambda v: fig4_body(0, trials=1, k_values=(v,), n=10)),
    "ExperimentConfig-trials": ("trials", 1, ConfigError, lambda v: ExperimentConfig("fig3-sep-vs-n", trials=v)),
    "ExperimentConfig-base_seed": (
        "base_seed", 0, ConfigError, lambda v: ExperimentConfig("fig3-sep-vs-n", base_seed=v)
    ),
    "run-threads": (
        "threads", 1, InvalidParameterError,
        lambda v: run(ExperimentConfig("fig3-sep-vs-n", trials=1, overrides={"threads": v, "n_values": [50]})),
    ),
    "MixtureSpec-n": ("dimension n", 1, InvalidParameterError, lambda v: MixtureSpec(n=v, k=2, c=1.0)),
    "MixtureSpec-k": ("k", 2, InvalidParameterError, lambda v: MixtureSpec(n=3, k=v, c=1.0)),
    "eccentric_covariance-n": (
        "n", 1, InvalidParameterError, lambda v: eccentric_covariance(v, 1.0, "diagonal-distinct", 0)
    ),
    "packed_centers-k": ("k", 1, InvalidParameterError, lambda v: packed_centers(v, 3, 1.0, [1.0], 0)),
    "packed_centers-n": ("n", 1, InvalidParameterError, lambda v: packed_centers(2, v, 1.0, [1.0, 1.0], 0)),
    "mixing_weights-k": ("k", 1, InvalidParameterError, lambda v: mixing_weights(v, 0)),
    "long_axis_mixture-n": ("n", 1, InvalidParameterError, lambda v: long_axis_mixture(v, 5, 0.5, 1000.0, 10, 0)),
    "long_axis_mixture-k": ("k", 1, InvalidParameterError, lambda v: long_axis_mixture(100, v, 0.5, 1000.0, 10, 0)),
    "long_axis_mixture-d": ("d", 1, InvalidParameterError, lambda v: long_axis_mixture(100, 5, 0.5, 1000.0, v, 0)),
    "pca_collapse_body-k": ("k", 1, InvalidParameterError, lambda v: pca_collapse_body(0, k=v, samples=50)),
    "norm_tail_bound-n": ("n", 1, InvalidParameterError, lambda v: norm_tail_bound(v, 0.5)),
    "sample-count": ("count", 1, InvalidParameterError, lambda v: sample(MODEL, v, 0)),
}

# site -> the error that its least valid value, as a numpy int, meets after the gate
PAST_THE_GATE = {
    "long_axis_mixture-n": (BadDimsError, "need 1 <= d <= n - 2 long axes, got d=10, n=1"),
    "pca_collapse_body-k": (BadDimsError, "k must be even"),
}


@pytest.mark.parametrize("value", ["bool", "float", "below", "numpy-least"])
@pytest.mark.parametrize("site", sorted(INT_GATES))
def test_int_gate_keeps_its_type_and_message(site, value):
    name, low, error, call = INT_GATES[site]
    if value == "numpy-least":
        if site not in PAST_THE_GATE:
            call(np.int64(low))
            return
        error, message = PAST_THE_GATE[site]
        bad = np.int64(low)
    else:
        bad = {"bool": True, "float": 2.5, "below": low - 1}[value]
        message = f"{name} must be an int >= {low}, got {bad!r}"
    with pytest.raises(error) as info:
        call(bad)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argument, bad",
    [("trials", bad) for bad in (0, -1, 2.5, True, "2")] + [("base_seed", bad) for bad in (-1, 2.5, True, "3")],
)
@pytest.mark.parametrize("experiment", sorted(experiments.EXPERIMENTS))
def test_body_called_directly_gates_trials_and_base_seed(experiment, argument, bad):
    """A body's `trials` and `base_seed` are gated before any trial runs. fig6
    gates its seed earlier, in its own words, so only `trials` is matched by name."""
    body, _ = experiments.EXPERIMENTS[experiment]
    with pytest.raises(InvalidParameterError, match=r"\btrials\b" if argument == "trials" else None):
        body(**{"base_seed": 0, "trials": 1, argument: bad})


def test_numpy_integer_sizes_are_accepted():
    fit = run_em(DATA, np.int64(2), FULL, 0, max_iter=np.int32(3))
    assert fit.iterations <= 3
    assert random_orthonormal(np.int64(3), np.int64(2), 0).target_dim == 2
    assert sample(MODEL, np.int64(5), 0).shape == (5, 3)
    assert mixing_weights(np.int64(3), 0).shape == (3,)
    assert eccentric_covariance(np.int64(3), 2.0, "rotated-distinct", 0).shape == (3, 3)
    assert packed_centers(np.int64(2), np.int32(3), 1.0, [1.0, 1.0], 0).shape == (2, 3)
    _, long_axes = long_axis_mixture(np.int64(100), np.int32(5), 0.5, 1000.0, np.int64(10), 0)
    assert long_axes.shape == (10,)


# caller -> call that takes `tol`
TOL_CALLERS = {
    "run_em": lambda tol: run_em(DATA, 2, FULL, 0, tol=tol),
}


@pytest.mark.parametrize("caller", sorted(TOL_CALLERS))
@pytest.mark.parametrize("tol", ["x", float("nan"), -1, float("inf"), True, None])
def test_tol_must_be_a_finite_real_at_least_zero(caller, tol):
    with pytest.raises(InvalidParameterError, match=r"^tol must be a finite real >= 0, got "):
        TOL_CALLERS[caller](tol)


def test_zero_tol_runs_every_iteration():
    fit = run_em(DATA, 2, FULL, 0, tol=0, max_iter=7)
    assert fit.iterations == 7 and not fit.converged


# m_step's `previous` that does not fit responsibilities of 3 components, the
# last one dead, over DATA's 40 points in R^3
BAD_PREVIOUS = {
    "two-components": MODEL,
    "in-R4": init_params(np.hstack([DATA, DATA[:, :1]]), 3, FULL, 0),
    "str": "MODEL",
}


@pytest.mark.parametrize("case", sorted(BAD_PREVIOUS))
def test_m_step_previous_must_fit_the_responsibilities_and_data(case):
    resp = np.column_stack([RESP, np.zeros(len(DATA))])
    with pytest.raises(InvalidParameterError, match=r"^previous must be a Mixture of 3 components in R\^3, got "):
        m_step(resp, DATA, FULL, BAD_PREVIOUS[case])


# site -> (call, option it does not take): every caller runs it at one
# setting, EM at run_em's defaults, scores with the class prior, fig9 on the
# surrogate when given no paths
ONE_SETTING = {
    "rp_em-tol": (rp_em, "tol"),
    "rp_em-max_iter": (rp_em, "max_iter"),
    "train-tol": (train, "tol"),
    "train-max_iter": (train, "max_iter"),
    "predict-use_priors": (predict, "use_priors"),
    "predict_batch-use_priors": (predict_batch, "use_priors"),
    "evaluate-use_priors": (evaluate, "use_priors"),
    "fig9_body-surrogate": (fig9_body, "surrogate"),
}


@pytest.mark.parametrize("site", sorted(ONE_SETTING))
def test_one_setting_option_is_no_parameter(site):
    call, option = ONE_SETTING[site]
    assert option not in inspect.signature(call).parameters


@pytest.mark.parametrize("c", [np.nan, np.inf, "1"], ids=["nan", "inf", "str"])
def test_separation_that_is_not_a_finite_real_is_a_bad_separation(c):
    with pytest.raises(BadSeparationError, match="finite"):
        packed_centers(3, 4, c, [1, 1, 2], 0)


@pytest.mark.parametrize("radii", [[0.0, 0.0], [-1.0, -1.0], [1.0, 0.0]], ids=["zero", "negative", "one-zero"])
def test_non_positive_radius_is_an_invalid_parameter(radii):
    with pytest.raises(InvalidParameterError, match="^radii must all be positive"):
        packed_centers(2, 3, 1.0, radii, 0)


def test_separation_times_radius_that_overflows_is_a_bad_separation():
    with pytest.raises(BadSeparationError, match="times a radius is not a positive finite number"):
        packed_centers(2, 3, 1e300, [1e10, 1e10], 0)


@pytest.mark.parametrize(
    "c, radii", [(1e150, [1e10, 2e10, 3e10]), (1.0, [1e308, 1.5e308, 1.7e308])], ids=["c", "radii"]
)
def test_targets_whose_squares_overflow_give_exact_centers(c, radii):
    centers = packed_centers(3, 4, c, radii, 0)
    scaled = centers / 2.0**600  # a power of two: the distances scale exactly
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        dist = np.linalg.norm(scaled[i] - scaled[j]) * 2.0**600
        assert dist == pytest.approx(c * max(radii[i], radii[j]), rel=1e-12)


def test_numpy_reals_are_accepted_as_separation_and_eccentricity():
    spec = MixtureSpec(n=5, k=2, c=np.float32(1.0), E=np.int64(2))
    assert (spec.c, spec.E) == (1.0, 2)


# An overflow below ends in NonFiniteError, not in scipy's ValueError, and
# emits no RuntimeWarning: the test configuration turns one into an error.


def test_covariance_that_overflows_when_symmetrized_is_non_finite():
    with pytest.raises(NonFiniteError, match="^covariance overflows"):
        Gaussian(np.zeros(2), np.diag([1e308, 1.7e308]))


# seed -> where the fit's first covariance overflows: with seed 0 the two
# initial centers share a blob, with seed 1 their squared distance overflows.
OVERFLOW_AT = {0: "iteration 0: covariance overflows", 1: "covariance overflows"}


@pytest.mark.parametrize("seed", sorted(OVERFLOW_AT))
@pytest.mark.parametrize("restriction", list(CovarianceRestriction))
def test_fit_covariance_that_overflows_is_non_finite(restriction, seed):
    # Finite points whose covariance about each mean passes 1e308.
    z = np.random.default_rng(0).standard_normal((100, 3))
    data = np.sqrt(1e307) * np.vstack([6.0 + z[:50], -6.0 + z[50:]])
    with pytest.raises(NonFiniteError, match=f"^{OVERFLOW_AT[seed]}$"):
        run_em(data, 2, restriction, seed)


# 60 N(0, 1) points in R^4 at scales 1e-320, 1e-292, ..., 1e296, alone or
# with one point at (v,)*4 for v = 1e300, -1e308 or 1e150. At these scales
# squared distances underflow, whitened means and traces overflow, and a
# fit may stop before any M-step could report either.
def _extreme_scales():
    out = {}
    for e in range(-320, 309, 28):
        x = np.random.default_rng(0).standard_normal((60, 4)) * 10.0**e
        for far in (None, 1e300, -1e308, 1e150):
            out[e, far] = x if far is None else np.vstack([x, np.full((1, 4), far)])
    return out


EXTREME_SCALES = _extreme_scales()


def _haar(x, d, seed=0):
    """The Haar map of `x`'s columns into R^d, or R^n for n < d, at `seed`:
    the hybrid's and the classifier's map as the experiments draw it."""
    return random_orthonormal(x.shape[1], min(d, x.shape[1]), seed)


def _run_em(restriction, **kw):
    return lambda x: [run_em(x, 3, restriction, 0, **kw).loglik_trace]


def _rp_em(restriction, seed=0):
    return lambda x: [fit.loglik_trace for fit in rp_em(x, 3, _haar(x, 2, seed), restriction, seed)[::2]]


def _train(x, seed=0):
    # A classifier keeps no trace: it returns or raises.
    train(LabeledDataset(x, np.arange(len(x)) % 2), _haar(x, 2, seed), per_class_k=2, seed=seed)
    return []


EXTREME_FITS = {
    **{f"run_em-{r.value}-max_iter={i}": _run_em(r, max_iter=i) for r in CovarianceRestriction for i in (0, 1)},
    **{f"run_em-{r.value}": _run_em(r) for r in CovarianceRestriction},
    **{f"rp_em-{r.value}": _rp_em(r) for r in CovarianceRestriction},
    "train": _train,
    # Seed 6's projection maps the far point (-1e308,) x 4 past the double
    # range; seed 0's keeps it in range.
    **{f"rp_em-{r.value}-seed=6": _rp_em(r, 6) for r in CovarianceRestriction},
    "train-seed=6": partial(_train, seed=6),
}


def ends_finite_or_typed(calls):
    """Check that each (label, call) of `calls`, with every warning an
    error, returns finite log-likelihood traces or raises an RpmixError;
    the number that returned."""
    finished = 0
    for label, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                traces = call()
            except RpmixError:
                continue
            except Warning as warning:
                pytest.fail(f"{label}: {warning!r}")
        assert all(np.all(np.isfinite(trace)) for trace in traces), f"{label}: {traces}"
        finished += 1
    return finished


@pytest.mark.parametrize("fit", EXTREME_FITS.values(), ids=EXTREME_FITS.keys())
def test_fit_at_an_extreme_scale_ends_finite_or_typed(fit):
    ends_finite_or_typed((f"scale 1e{e}, far point {far}", partial(fit, x)) for (e, far), x in EXTREME_SCALES.items())


FAR_POINT = np.full(4, -1e308)


@pytest.mark.parametrize("call, point", [
    (lambda model: project_data(model.projection, [np.zeros(4), FAR_POINT]), 1),
    (lambda model: predict_batch(model, [np.zeros(4), FAR_POINT]), 1),
    (lambda model: predict(model, FAR_POINT), 0),
], ids=["project_data", "predict_batch", "predict"])
def test_point_projected_past_the_double_range_is_named(call, point):
    x = np.random.default_rng(0).standard_normal((60, 4))
    # Seed 6's map sends the far point past the double range.
    model = train(LabeledDataset(x, np.arange(60) % 2), random_orthonormal(4, 2, 6), per_class_k=2, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=f"^point {point} projects past the double range$"):
            call(model)


def _degenerate_inputs():
    """(name, k) -> data, over degenerate shapes: duplicate points, points
    in a proper subspace, k = m and k = m - 1 for m points, and k far above
    the dimension n."""
    rng = np.random.default_rng(0)
    few = rng.standard_normal((3, 4))
    spread = rng.standard_normal((30, 4))
    data = {
        "one-point": few[np.zeros(30, dtype=int)],
        "three-points": few[np.arange(30) % 3],
        "half-one-point": np.vstack([few[np.zeros(15, dtype=int)], spread[:15]]),
        "rank-1-in-R^4": rng.standard_normal((30, 1)) @ few[:1],
        "rank-2-in-R^4": rng.standard_normal((30, 2)) @ few[:2],
        "constant-column": np.column_stack([spread[:, :3], np.ones(30)]),
        "6-in-R^4": spread[:6],
        "12-in-R^3": spread[:12, :3],
        "40-in-R^1": rng.standard_normal((40, 1)),
        "60-in-R^2": rng.standard_normal((60, 2)),
    }
    cases = {}
    for name, x in data.items():
        m, n = x.shape
        for k in sorted({2, 3, m - 1, m, 10 * n}):
            cases[name, k] = x
    return cases


DEGENERATE_INPUTS = _degenerate_inputs()


def _train_classes(x, k):
    # Two classes of m/2 points, each fit with k/2 components.
    train(LabeledDataset(x, np.arange(len(x)) % 2), _haar(x, 2), per_class_k=max(k // 2, 1), seed=0)
    return []


# fit -> call on (data, k) returning its log-likelihood traces
DEGENERATE_FITS = {
    **{f"run_em-{r.value}": lambda x, k, r=r: [run_em(x, k, r, 0).loglik_trace] for r in CovarianceRestriction},
    **{
        f"rp_em-{r.value}": lambda x, k, r=r: [fit.loglik_trace for fit in rp_em(x, k, _haar(x, 2), r, 0)[::2]]
        for r in CovarianceRestriction
    },
    "train": _train_classes,
}


@pytest.mark.parametrize("fit", DEGENERATE_FITS.values(), ids=DEGENERATE_FITS.keys())
def test_fit_of_degenerate_data_or_k_ends_finite_or_typed(fit):
    calls = ((f"{name}, k={k}", partial(fit, x, k)) for (name, k), x in DEGENERATE_INPUTS.items())
    assert ends_finite_or_typed(calls)  # the grid reaches fits that end, not only errors


NO_ROWS = np.empty((0, 3))
NO_POINTS = LabeledDataset(NO_ROWS, np.empty(0, dtype=int))
CLASSIFIER = ClassMixtureModel(PROJ, CLASSES, [0.5, 0.5])
# call on a point set with no rows -> whether it returns; one that does not
# raises NotEnoughDataError.
NO_ROW_CALLS = {
    "e_step": (lambda: e_step(MODEL, NO_ROWS), True),
    **{
        f"m_step-{r.value}-previous={p is not None}": (partial(m_step, np.empty((0, 2)), NO_ROWS, r, p), False)
        for r in CovarianceRestriction
        for p in (None, MODEL)
    },
    "log_density_batch": (lambda: [log_density_batch(G, NO_ROWS)], True),
    "test_loglik": (lambda: [held_out_loglik(MODEL, NO_ROWS)], True),
    "predict_batch": (lambda: [predict_batch(CLASSIFIER, NO_ROWS)], True),
    "evaluate": (lambda: [evaluate(CLASSIFIER, NO_POINTS)], False),
    "train": (lambda: train(NO_POINTS, PROJ, per_class_k=1), False),
    "cluster_analysis": (lambda: cluster_analysis(NO_POINTS), False),
}


@pytest.mark.parametrize("name", NO_ROW_CALLS)
def test_point_set_with_no_rows_ends_finite_or_typed(name):
    call, returns = NO_ROW_CALLS[name]
    assert ends_finite_or_typed([(name, call)]) == returns
    if not returns:
        with pytest.raises(NotEnoughDataError, match="^(need at least 1 point, got 0|the (data|test) set has no points)$"):
            call()


# an input with no rows -> the DimensionMismatchError message e_step gives, or
# None where it returns; `[]` is one row of no values.
NO_ROW_WIDTHS = {
    "(0, 3)": (NO_ROWS, None),
    "(0, 5)": (np.empty((0, 5)), "data dimension 5 != model dimension 3"),
    "[]": ([], "data dimension 0 != model dimension 3"),
}


@pytest.mark.parametrize("name", NO_ROW_WIDTHS)
def test_test_loglik_of_no_rows_agrees_with_e_step(name):
    points, message = NO_ROW_WIDTHS[name]
    if message is None:
        assert e_step(MODEL, points)[1] == held_out_loglik(MODEL, points) == 0.0
    else:
        for call in (e_step, held_out_loglik):
            with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
                call(MODEL, points)


# EM entry -> call on 5 points with no columns
NO_COLUMN_FITS = {
    **{f"run_em-{r.value}-k={k}": partial(run_em, np.zeros((5, 0)), k, r, 0)
       for r in CovarianceRestriction for k in (1, 2)},
    **{f"init_params-{r.value}": partial(init_params, np.zeros((5, 0)), 2, r, 0) for r in CovarianceRestriction},
    **{f"m_step-{r.value}": partial(m_step, np.full((5, 2), 0.5), np.zeros((5, 0)), r)
       for r in CovarianceRestriction},
}


@pytest.mark.parametrize("name", NO_COLUMN_FITS)
def test_em_data_with_no_columns_raises_naming_its_shape(name, capfd):
    with pytest.raises(NotEnoughDataError, match=r"^data has no values: shape \(5, 0\)$"):
        NO_COLUMN_FITS[name]()
    assert capfd.readouterr() == ("", "")  # LAPACK printed nothing


# writer -> call with a path writing an array that has no values
NO_VALUE_WRITES = {
    "save_dataset-(0, 3)": partial(save_dataset, NO_ROWS),
    "save_dataset-(3, 0)": partial(save_dataset, np.empty((3, 0))),
    "save_dataset-[]": partial(save_dataset, []),
    "save_dataset-header": partial(save_dataset, np.empty((0, 2)), header=["a", "b"]),
    "save_labeled": partial(save_labeled, NO_POINTS),
}


@pytest.mark.parametrize("name", NO_VALUE_WRITES)
def test_writer_of_no_values_raises_and_leaves_no_file(tmp_path, name):
    path = tmp_path / "out.csv"
    with pytest.raises(NotEnoughDataError, match=r"^points has no values: shape \(\d+, \d+\)$"):
        NO_VALUE_WRITES[name](path)
    assert not path.exists()


# 50 finite points near 1e308 in R^4: every column sum, and so the mean,
# overflows.
CENTERING_OVERFLOWS = 1e307 * (10.0 + np.random.default_rng(0).standard_normal((50, 4)))


def test_pca_of_data_whose_centering_overflows_is_non_finite():
    with pytest.raises(NonFiniteError, match="^data overflows when centred$"):
        pca(CENTERING_OVERFLOWS, 2)


def test_pca_command_on_data_whose_centering_overflows_is_typed(tmp_path, capsys):
    path = tmp_path / "s.csv"
    save_dataset(CENTERING_OVERFLOWS, path)
    argv = ["project", "--kind", "pca", "--d", "2", "--data", str(path), "--out", str(tmp_path / "p.json")]
    assert cli.main(argv) == 1
    assert "error: data overflows when centred" in capsys.readouterr().err


def test_test_loglik_gates_its_array_once(monkeypatch):
    calls = []
    gate = em._as_float_array
    monkeypatch.setattr(em, "_as_float_array", lambda *a, **kw: calls.append(a[1]) or gate(*a, **kw))
    assert np.isfinite(held_out_loglik(MODEL, DATA))
    assert calls == ["test"]


LABELED = LabeledDataset(DATA, [0] * 20 + [1] * 20)
REPORT = ExperimentReport(("g",), ("v",), ({"row_type": "trial", "g": 1, "seed": 0, "v": 0.5},))

NO_PATH = "path must be a str, bytes or os.PathLike"
# function -> call with a path: every library function that reads or writes a file.
PATH_CALLS = {
    "load_dataset": load_dataset,
    "ingest": ingest,
    "load_mixture": load_mixture,
    "load_projection": load_projection,
    "save_mixture": partial(save_mixture, MODEL),
    "save_projection": partial(save_projection, PROJ),
    "save_dataset": partial(save_dataset, DATA),
    "save_labeled": partial(save_labeled, LABELED),
    "save_cluster_analysis": partial(save_cluster_analysis, cluster_analysis(LABELED)),
    "ExperimentReport.to_csv": REPORT.to_csv,
}


@pytest.mark.parametrize("name", PATH_CALLS)
def test_file_descriptor_is_not_a_path(tmp_path, name):
    # `open` reads an int as a file descriptor, and closes it when done.
    fd = os.open(tmp_path / "f", os.O_RDWR | os.O_CREAT)
    try:
        with pytest.raises(InvalidParameterError, match=f"^{NO_PATH}, got {fd}$"):
            PATH_CALLS[name](fd)
        assert os.fstat(fd).st_size == 0
    finally:
        os.close(fd)


@pytest.mark.parametrize("path", [None, 2.5, ["f.csv"]], ids=["None", "float", "list"])
@pytest.mark.parametrize("name", PATH_CALLS)
def test_path_that_is_no_file_name_is_an_invalid_parameter(name, path):
    with pytest.raises(InvalidParameterError, match=re.escape(f"{NO_PATH}, got {path!r}")):
        PATH_CALLS[name](path)


@pytest.mark.parametrize("as_path", [str, os.fsencode, lambda p: p], ids=["str", "bytes", "PathLike"])
def test_str_bytes_and_path_like_file_names_work(tmp_path, as_path):
    def name(file):
        return as_path(tmp_path / file)

    save_dataset(DATA, name("d.csv"))
    assert np.array_equal(load_dataset(name("d.csv")), DATA)
    save_labeled(LABELED, name("l.csv"))
    read = ingest(name("l.csv"))
    assert np.array_equal(read.points, DATA) and np.array_equal(read.labels, LABELED.labels)
    save_mixture(MODEL, name("m.json"))
    assert np.array_equal(load_mixture(name("m.json")).means, MODEL.means)
    save_projection(PROJ, name("p.json"))
    assert np.array_equal(load_projection(name("p.json")).rows, PROJ.rows)
    save_cluster_analysis(cluster_analysis(LABELED), name("a.csv"))
    assert (tmp_path / "a.csv").read_text().startswith("class,0,1,eccentricity\n")
    REPORT.to_csv(name("r.csv"))
    assert (tmp_path / "r.csv").read_text().startswith("row_type,g,seed,v\ntrial,1,0,0.5\n")


# site -> (argument name, call valid but for the map it is given, at a path)
MAP_TAKERS = {
    "project_data": ("p", lambda bad, path: project_data(bad, DATA)),
    "project_mixture": ("p", lambda bad, path: project_mixture(bad, MODEL)),
    "save_projection": ("p", lambda bad, path: save_projection(bad, path)),
    "ClassMixtureModel": ("projection", lambda bad, path: ClassMixtureModel(bad, CLASSES, [0.5, 0.5])),
    "rp_em": ("proj", lambda bad, path: rp_em(DATA, 2, bad, FULL, 0)),
    "train": ("proj", lambda bad, path: train(LABELED, bad, per_class_k=2)),
}


@pytest.mark.parametrize("bad", [None, np.eye(3)[:2], "orthonormal-rp"], ids=["None", "rows", "str"])
@pytest.mark.parametrize("site", MAP_TAKERS)
def test_map_that_is_not_a_projection_matrix_is_an_invalid_parameter(tmp_path, site, bad):
    name, call = MAP_TAKERS[site]
    with pytest.raises(InvalidParameterError, match=f"^{name} must be a ProjectionMatrix, got "):
        call(bad, tmp_path / "p.json")
    assert not (tmp_path / "p.json").exists()


# site -> (argument name, call with an object of another type than it takes, at a path)
WRONG_OBJECTS = {
    "e_step": ("model", lambda path: e_step(None, DATA)),
    "test_loglik": ("model", lambda path: held_out_loglik("a", DATA)),
    "sample": ("m", lambda path: sample(None, 3, 0)),
    "mixture_separation": ("m", lambda path: mixture_separation(None)),
    "centers_recovered-model": ("model", lambda path: centers_recovered(None, MODEL)),
    "centers_recovered-truth": ("truth", lambda path: centers_recovered(MODEL, None)),
    "project_mixture": ("m", lambda path: project_mixture(PROJ, DATA)),
    "save_mixture": ("m", lambda path: save_mixture(DATA, path)),
    "ClassMixtureModel-per_class": (
        r"per_class\[1\]", lambda path: ClassMixtureModel(PROJ, (CLASSES[0], None), [0.5, 0.5])
    ),
    "train": ("data", lambda path: train(DATA, PROJ, per_class_k=2)),
    "cluster_analysis": ("data", lambda path: cluster_analysis(DATA)),
    "save_labeled": ("data", lambda path: save_labeled(DATA, path)),
    "evaluate-model": ("model", lambda path: evaluate(None, LABELED)),
    "evaluate-test": ("test", lambda path: evaluate(CLASSIFIER, DATA)),
    "predict": ("model", lambda path: predict(None, DATA[0])),
    "predict_batch": ("model", lambda path: predict_batch(None, DATA)),
}


@pytest.mark.parametrize("site", WRONG_OBJECTS)
def test_object_of_another_type_is_an_invalid_parameter(tmp_path, site):
    name, call = WRONG_OBJECTS[site]
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be a \w+, got "):
        call(tmp_path / "out")
    assert not (tmp_path / "out").exists()


# reader -> call that reads the CSV file at its one argument
CSV_READERS = {
    "load_dataset": load_dataset,
    "load_dataset-skip-header": partial(load_dataset, skip_header=True),
    "ingest": ingest,
    "fig9_body": lambda path: fig9_body(0, trials=1, d_values=(1,), train_path=path, test_path=path, threads=1),
}


@pytest.mark.parametrize("reader", CSV_READERS.values(), ids=CSV_READERS.keys())
def test_undecodable_csv_byte_is_a_parse_error_naming_the_file(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff4\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: .*can't decode byte 0xff"):
        reader(path)


# command -> its arguments around the CSV path it reads
CSV_COMMANDS = {
    "em": (["em", "--data"], ["--k", "1", "--out", "fit.json"]),
    "project-pca": (["project", "--kind", "pca", "--data"], ["--d", "1", "--out", "p.json"]),
    "classify": (["classify", "--train"], ["--d", "1"]),
}


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_undecodable_csv_byte_is_a_clean_command_error(tmp_path, capsys, command):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff4\n")
    before, after = CSV_COMMANDS[command]
    assert cli.main([*before, str(path), *after]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# reader -> call that reads the JSON file at its one argument
JSON_READERS = {"load_mixture": load_mixture, "load_projection": load_projection}

# case -> a JSON file that Python's json reads to no document
UNREADABLE_JSON = {
    "undecodable-byte": b'{"experiment": "pca-collapse\xff"}',
    "int-past-the-digit-limit": b"[1" + b"0" * 5000 + b"]",
    "nested-past-the-recursion-limit": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
@pytest.mark.parametrize("reader", JSON_READERS.values(), ids=JSON_READERS.keys())
def test_json_read_to_no_document_is_a_parse_error(tmp_path, reader, case):
    path = tmp_path / f"{case}.json"
    path.write_bytes(UNREADABLE_JSON[case])
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not valid JSON: "):
        reader(path)


@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_config_read_to_no_document_is_a_clean_command_error(tmp_path, capsys, case):
    path = tmp_path / f"{case}.json"
    path.write_bytes(UNREADABLE_JSON[case])
    assert cli.main(["experiment", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON: ")


# reader -> (a document holding an int past the float range, the array it names)
INT_PAST_FLOAT_RANGE = {
    "load_mixture": (one_dim_mixture(means=[[10**400]]), "mean"),
    "load_projection": ({**GOOD_PROJECTION, "rows": [[10**400, 0.5]]}, "rows"),
}


@pytest.mark.parametrize("reader", JSON_READERS.values(), ids=JSON_READERS.keys())
def test_int_past_the_float_range_in_a_file_is_non_finite(tmp_path, reader):
    doc, name = INT_PAST_FLOAT_RANGE[reader.__name__]
    path = write_json(tmp_path / "big.json", doc)
    with pytest.raises(NonFiniteError, match=f"^{re.escape(str(path))}: {name} contains non-finite"):
        reader(path)


# Each reader's own keys and values, so that generated documents reach past
# the first check of a reader.
DOCUMENT_KEYS = sorted(
    {"weights", "means", "covariances", "kind", "source_dim", "target_dim", "rows"}
    | {f.name for f in dataclasses.fields(ExperimentConfig)}
    | {key for _, allowed in experiments.EXPERIMENTS.values() for key in allowed}
)
DOCUMENT_WORDS = [
    *experiments.EXPERIMENTS, *(kind.value for kind in ProjectionKind),
    *(mode.value for mode in CovarianceMode), *(r.value for r in CovarianceRestriction),
]
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(DOCUMENT_WORDS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=12,
).map(lambda doc: json.dumps(doc).encode())
CSV_TOKENS = [
    b"0", b"1", b"-2.5", b"1e3", b"1e999", b"nan", b"inf", b"1_0", b"x", b"#", b",", b"\n",
    b" ", b"\r", b"\t", b"\x00", b"\xff", b"\xc3", "٣".encode(),
]
csv_files = st.lists(st.sampled_from(CSV_TOKENS), max_size=24).map(b"".join)
file_bytes = st.binary(max_size=48)
# About 2 s for the seven properties below.
READER_PROPERTY = settings(
    derandomize=True, max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def read_or_rpmix_error(reader, tmp_path, content):
    path = tmp_path / "file"
    path.write_bytes(content)
    try:
        reader(path)
    except RpmixError:
        pass


@pytest.mark.parametrize("reader", CSV_READERS.values(), ids=CSV_READERS.keys())
@READER_PROPERTY
@given(content=csv_files | file_bytes)
def test_any_csv_bytes_read_or_raise_an_rpmix_error(tmp_path, reader, content):
    read_or_rpmix_error(reader, tmp_path, content)


@pytest.mark.parametrize("reader", JSON_READERS.values(), ids=JSON_READERS.keys())
@READER_PROPERTY
@given(content=json_documents | file_bytes)
def test_any_json_bytes_read_or_raise_an_rpmix_error(tmp_path, reader, content):
    read_or_rpmix_error(reader, tmp_path, content)


@READER_PROPERTY
@given(content=json_documents | file_bytes)
def test_any_config_bytes_exit_zero_or_one(tmp_path, monkeypatch, capsys, content):
    # A config that passes its checks runs no sweep here: only the reader and
    # the checks are under test.
    monkeypatch.setattr(experiments, "run", lambda config: REPORT)
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["experiment", "--config", str(path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err

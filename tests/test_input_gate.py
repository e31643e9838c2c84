"""Every public function that takes an array rejects NaN and infinity with a
NonFiniteError that names the argument, before it computes or writes
anything. A non-numeric or ragged array ends in an InvalidParameterError
naming the argument, a bad parameter value in an RpmixError, a malformed
mixture or projection file in a ParseError naming the file, any other error
from a file's content in its own type naming the file, a non-integer size
argument in an InvalidParameterError naming it, a `tol` that is not a finite
real >= 0 in an InvalidParameterError, a separation or eccentricity that is
not a finite real in an RpmixError, a covariance that overflows from finite
input in a NonFiniteError naming the covariance, and an object that keeps an
array argument leaves the caller's array writable."""

import json
import re

import numpy as np
import pytest

from rpmix import (
    CovarianceRestriction,
    Gaussian,
    Mixture,
    e_step,
    init_params,
    load_mixture,
    log_density,
    m_step,
    mahalanobis,
    pca,
    project_data,
    rp_em,
    run_em,
    sample,
    save_dataset,
    spectral_summary,
)
from rpmix import cli
from rpmix.classifier import ClassMixtureModel, LabeledDataset, train
from rpmix.em import test_loglik as held_out_loglik
from rpmix.errors import (
    BadDimsError,
    BadSeparationError,
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParseError,
    RpmixError,
)
from rpmix.experiments import fig4_body
from rpmix.gaussians import _as_float_array, log_density_batch
from rpmix.projection import (
    ProjectionKind,
    ProjectionMatrix,
    load_projection,
    random_orthonormal,
)
from rpmix.synthesis import (
    MixtureSpec,
    eccentric_covariance,
    long_axis_mixture,
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
    "rp_em": ("train", lambda b, tmp: rp_em(poisoned(DATA, b), 2, 2, FULL, 0)),
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
        lambda b, tmp: ClassMixtureModel(PROJ, (), poisoned([0.5, 0.5], b)),
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
    "Mixture-weight-count": lambda: Mixture(MODEL.components, [1.0]),
    "Mixture-negative-weight": lambda: Mixture(MODEL.components, [1.5, -0.5]),
    "Mixture-weight-sum": lambda: Mixture(MODEL.components, [0.5, 0.6]),
    "spectral_summary-not-square": lambda: spectral_summary(np.ones((2, 3))),
    "ClassMixtureModel-prior-sum": lambda: ClassMixtureModel(PROJ, (), [0.5, 0.6]),
    "packed_centers-radius-count": lambda: packed_centers(2, 3, 2, [1.0], 0),
    "packed_centers-no-component": lambda: packed_centers(0, 3, 1.0, [], 0),
    "eccentric_covariance-negative-n": lambda: eccentric_covariance(-1, 1.0, "diagonal-distinct", 0),
    "long_axis_mixture-no-component": lambda: long_axis_mixture(8, 0, 0.5, 2.0, 2, 0),
    "MixtureSpec-c-str": lambda: MixtureSpec(n=5, k=2, c="1"),
    "MixtureSpec-c-none": lambda: MixtureSpec(n=5, k=2, c=None),
    "MixtureSpec-c-bool": lambda: MixtureSpec(n=5, k=2, c=True),
    "MixtureSpec-E-str": lambda: MixtureSpec(n=5, k=2, c=1.0, E="2"),
    "MixtureSpec-E-bool": lambda: MixtureSpec(n=5, k=2, c=1.0, E=True),
    "eccentric_covariance-E-str": lambda: eccentric_covariance(3, "2", "diagonal-distinct", 0),
    "long_axis_mixture-E-str": lambda: long_axis_mixture(8, 2, 1.0, "2", 2, 0),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_parameter_is_typed(case):
    with pytest.raises(InvalidParameterError):
        INVALID[case]()


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
    "ClassMixtureModel": (lambda a: ClassMixtureModel(PROJ, (), a), "class_priors", np.array([0.25, 0.75])),
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


# case -> (argument name, call with a size that is not an integer)
NON_INTEGER = {
    "run_em-k-float": ("k", lambda: run_em(DATA, 2.5, FULL, 0)),
    "run_em-k-bool": ("k", lambda: run_em(DATA, True, FULL, 0)),
    "run_em-k-str": ("k", lambda: run_em(DATA, "2", FULL, 0)),
    "run_em-max_iter": ("max_iter", lambda: run_em(DATA, 2, FULL, 0, max_iter=2.5)),
    "rp_em-d": ("d", lambda: rp_em(DATA, 2, 2.5, FULL, 0)),
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


@pytest.mark.parametrize("case", sorted(NON_INTEGER))
def test_non_integer_size_is_an_invalid_parameter(case):
    name, call = NON_INTEGER[case]
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call()


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


# caller -> call that passes `tol` on to run_em
TOL_CALLERS = {
    "run_em": lambda tol: run_em(DATA, 2, FULL, 0, tol=tol),
    "rp_em": lambda tol: rp_em(DATA, 2, 2, FULL, 0, tol=tol),
    "train": lambda tol: train(LabeledDataset(DATA, np.repeat([0, 1], 20)), 2, per_class_k=2, tol=tol),
}


@pytest.mark.parametrize("caller", sorted(TOL_CALLERS))
@pytest.mark.parametrize("tol", ["x", float("nan"), -1, float("inf"), True, None])
def test_tol_must_be_a_finite_real_at_least_zero(caller, tol):
    with pytest.raises(InvalidParameterError, match=r"^tol must be a finite real >= 0, got "):
        TOL_CALLERS[caller](tol)


def test_zero_tol_runs_every_iteration():
    fit = run_em(DATA, 2, FULL, 0, tol=0, max_iter=7)
    assert fit.iterations == 7 and not fit.converged


@pytest.mark.parametrize("c", [np.nan, np.inf, "1"], ids=["nan", "inf", "str"])
def test_separation_that_is_not_a_finite_real_is_a_bad_separation(c):
    with pytest.raises(BadSeparationError, match="finite"):
        packed_centers(3, 4, c, [1, 1, 2], 0)


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

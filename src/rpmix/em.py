"""EM for Gaussian mixtures and the random-projection hybrid.

Two covariance regimes are supported: every component owns a full
covariance (FULL_DISTINCT), or all components share a single pooled full
covariance (SHARED_FULL). The hybrid projects the data randomly, runs EM
to convergence in low dimension, lifts the final responsibilities back to
the original data, and performs exactly one high-dimensional EM step.

Inside a fit the model is plain arrays (`_Params`): weights, means, and one
covariance with its Cholesky factor per *distinct* covariance, so a shared
covariance is factored, checked and solved against once per iteration
whatever k is. Validated `Gaussian`/`Mixture` objects appear only at the
public boundary: `init_params`, `FitResult.model`, and the `e_step`,
`m_step` and `test_loglik` wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg import cholesky, solve_triangular
from scipy.special import logsumexp

from .errors import (
    DimensionMismatchError,
    DuplicatePointsError,
    EmptyComponentError,
    IllConditionedError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
    _ParameterEnum,
)
from .gaussians import (
    Gaussian,
    Mixture,
    _check_conditioning,
    _condition_number,
    radius,
)
from .projection import project_data, random_orthonormal

EMPTY_COMPONENT_FRACTION = 1e-10
MAX_RESCUES = 2


class CovarianceRestriction(_ParameterEnum):
    FULL_DISTINCT = "full-distinct"
    SHARED_FULL = "shared-full"


@dataclass(frozen=True)
class FitResult:
    model: Mixture
    iterations: int
    loglik_trace: np.ndarray
    converged: bool


class _Params(NamedTuple):
    """A mixture as arrays; components with equal covariances share a factor."""

    weights: np.ndarray  # k
    means: np.ndarray  # k x n
    covs: tuple  # one symmetric covariance per distinct factor
    chols: tuple  # the lower Cholesky factor of each
    owner: np.ndarray  # component -> factor index


def _as_data(data):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(data)):
        raise NonFiniteError("data contains non-finite entries")
    return data


def _model_arrays(model: Mixture, data):
    """Array state of `model` and the validated data it is to be applied to."""
    data = _as_data(data)
    if data.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"data dimension {data.shape[1]} != model dimension {model.dim}"
        )
    return _from_mixture(model), data


def _factor(covs):
    """Lower Cholesky factors of symmetric covariances, each checked once.

    Every covariance is factored before any is checked, so a matrix that is
    not positive definite is reported ahead of an ill-conditioned one. The
    condition number is exact (from `eigvalsh`).
    """
    try:
        chols = [cholesky(cov, lower=True) for cov in covs]
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    for cov in covs:
        _check_conditioning(_condition_number(eigvalsh(cov)))
    return tuple(chols)


def _from_mixture(model: Mixture) -> _Params:
    """Array state of a Mixture, one factor per distinct covariance."""
    covs, owner = [], []
    for g in model.components:
        for f, cov in enumerate(covs):
            if np.array_equal(cov, g.covariance):
                break
        else:
            f = len(covs)
            covs.append(g.covariance)
        owner.append(f)
    return _Params(
        model.weights, model.means, tuple(covs), _factor(covs), np.array(owner)
    )


def _to_mixture(params: _Params) -> Mixture:
    comps = [
        Gaussian(mu, params.covs[f]) for mu, f in zip(params.means, params.owner)
    ]
    return Mixture(comps, params.weights)


def _log_joint(params: _Params, data) -> np.ndarray:
    """log w_i + log N(x_j; mu_i, Sigma_i) for every point j and component i.

    Per distinct factor L, the data and the means that share L, all centred
    by the data mean, take one triangular solve; a component's quadratic
    form is the squared norm of the difference of its solved mean and the
    solved data.
    """
    m, n = data.shape
    center = data.mean(axis=0)
    const = -0.5 * n * np.log(2.0 * np.pi)
    out = np.empty((m, len(params.weights)))
    for f, chol in enumerate(params.chols):
        comps = np.flatnonzero(params.owner == f)
        rhs = np.concatenate([data, params.means[comps]])
        rhs -= center
        solved = solve_triangular(chol, rhs.T, lower=True, overwrite_b=True)
        y, mu = solved[:, :m], solved[:, m:]
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        for j, i in enumerate(comps):
            diff = y - mu[:, j : j + 1]
            diff *= diff
            quad = diff.sum(axis=0)
            out[:, i] = np.log(params.weights[i]) + (const - 0.5 * log_det - 0.5 * quad)
    return out


def _e_step(params: _Params, data):
    """Responsibilities and per-point log-likelihoods (log-space normalized)."""
    log_joint = _log_joint(params, data)
    lse = logsumexp(log_joint, axis=1)
    return np.exp(log_joint - lse[:, None]), lse


def _gram(data):
    """Column means and the Gram matrix of the mean-centred data."""
    center = data.mean(axis=0)
    centered = data - center
    return center, centered.T @ centered


def _m_step(resp, data, restriction, previous=None, gram=None) -> _Params:
    """M-step on arrays; `gram` is `_gram(data)`, reused across a fit."""
    m, k = resp.shape
    counts = resp.sum(axis=0)
    dead = np.flatnonzero(counts < EMPTY_COMPONENT_FRACTION * m)
    if dead.size and previous is None:
        raise EmptyComponentError(dead)

    weights = counts / m
    safe_counts = np.where(counts > 0, counts, 1.0)
    means = (resp.T @ data) / safe_counts[:, None]
    live = np.setdiff1d(np.arange(k), dead)
    owner = np.zeros(k, dtype=int)
    if restriction is CovarianceRestriction.SHARED_FULL:
        # sum_i sum_j r_ji (x_j - mu_i)(x_j - mu_i)^T over live i equals
        # G - sum_i N_i d_i d_i^T with d_i = mu_i - xbar, once the dead
        # components' share of G is taken out.
        center, gram = gram if gram is not None else _gram(data)
        for i in dead:
            centered = data - center
            gram = gram - (resp[:, i][:, None] * centered).T @ centered
        delta = means[live] - center
        pooled = (gram - (counts[live][:, None] * delta).T @ delta) / m
        covs = [(pooled + pooled.T) / 2.0]
    else:
        covs = []
        for i in live:
            centered = data - means[i]
            cov = (resp[:, i][:, None] * centered).T @ centered / counts[i]
            covs.append((cov + cov.T) / 2.0)
        owner[live] = np.arange(live.size)
    chols = list(_factor(covs))
    kept = {}  # previous factor index -> new factor index
    for i in dead:
        weights[i] = EMPTY_COMPONENT_FRACTION
        means[i] = previous.means[i]
        f = previous.owner[i]
        if f not in kept:
            kept[f] = len(covs)
            covs.append(previous.covs[f])
            chols.append(previous.chols[f])
        owner[i] = kept[f]
    return _Params(weights / weights.sum(), means, tuple(covs), tuple(chols), owner)


def init_params(data, k: int, restriction: CovarianceRestriction, seed) -> Mixture:
    """Paper-style initializer.

    Centers are drawn without replacement from the data; each initial
    covariance is spherical with variance min_j ||mu_j - mu_i||^2 / (2n).
    Under the shared restriction the smallest of these variances is used
    for every component.
    """
    restriction = CovarianceRestriction(restriction)
    data = np.atleast_2d(np.asarray(data, dtype=float))
    m, n = data.shape
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if m < k:
        raise NotEnoughDataError(f"need at least {k} points, got {m}")
    rng = np.random.default_rng(seed)
    centers = data[rng.choice(m, size=k, replace=False)]
    if k == 1:
        # No pairwise distances exist; fall back to the data's mean squared
        # spread so a single component still gets a sane spherical start.
        var = float(np.mean(np.sum((data - data.mean(axis=0)) ** 2, axis=1))) / n
        if var <= 0:
            raise DuplicatePointsError("all points coincide")
        variances = np.array([var])
    else:
        sq = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(sq, np.inf)
        nearest = sq.min(axis=1)
        if np.any(nearest == 0):
            raise DuplicatePointsError("two initial centers coincide")
        variances = nearest / (2.0 * n)
        if restriction is CovarianceRestriction.SHARED_FULL:
            variances = np.full(k, variances.min())
    comps = [
        Gaussian(mu, var * np.eye(n)) for mu, var in zip(centers, variances)
    ]
    return Mixture(comps, np.full(k, 1.0 / k))


def e_step(model: Mixture, data):
    """Posterior responsibilities and train log-likelihood.

    Row normalization happens in log space so that high-dimensional
    densities cannot underflow to an all-zero row.
    """
    resp, lse = _e_step(*_model_arrays(model, data))
    return resp, float(lse.sum())


def m_step(
    resp,
    data,
    restriction: CovarianceRestriction,
    previous: Mixture | None = None,
) -> Mixture:
    """Re-estimate weights, means, and covariances from soft labels.

    An effectively empty component raises EmptyComponentError unless a
    `previous` model is given, in which case the dead component keeps its
    previous parameters and the run continues.
    """
    restriction = CovarianceRestriction(restriction)
    resp = np.atleast_2d(np.asarray(resp, dtype=float))
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] != resp.shape[0]:
        raise ShapeMismatchError("responsibility rows != data rows")
    if previous is not None:
        previous = _from_mixture(previous)
    return _to_mixture(_m_step(resp, data, restriction, previous))


def run_em(
    data,
    k: int,
    restriction: CovarianceRestriction,
    seed,
    tol: float = 1e-5,
    max_iter: int = 500,
) -> FitResult:
    """EM to convergence: stop when the relative log-likelihood gain < tol.

    A component that empties is moved to the worst-explained point (at most
    MAX_RESCUES times per fit); after that it keeps its previous parameters.
    """
    restriction = CovarianceRestriction(restriction)
    data = _as_data(data)
    params = _from_mixture(init_params(data, k, restriction, seed))
    gram = _gram(data) if restriction is CovarianceRestriction.SHARED_FULL else None
    trace = []
    rescues = 0
    converged = False
    iterations = 0
    for _ in range(max_iter + 1):
        resp, lse = _e_step(params, data)
        ll = float(lse.sum())
        trace.append(ll)
        if len(trace) > 1 and abs(ll - trace[-2]) <= tol * abs(ll):
            converged = True
            break
        if iterations == max_iter:
            break
        try:
            params = _m_step(resp, data, restriction, gram=gram)
        except EmptyComponentError as exc:
            if rescues < MAX_RESCUES:
                rescues += 1
                means = params.means.copy()
                means[exc.indices[0]] = data[int(np.argmin(lse))]
                params = params._replace(means=means)
            else:
                params = _m_step(resp, data, restriction, params, gram)
        except (IllConditionedError, NotPositiveDefiniteError) as exc:
            raise type(exc)(f"iteration {iterations}: {exc}") from exc
        iterations += 1
    return FitResult(
        model=_to_mixture(params),
        iterations=iterations,
        loglik_trace=np.array(trace),
        converged=converged,
    )


def rp_em(
    train,
    k: int,
    d: int,
    restriction: CovarianceRestriction,
    seed,
    tol: float = 1e-5,
    max_iter: int = 500,
    extra_high_dim_steps: int = 0,
):
    """Random projection + EM hybrid.

    1. Project the training data into a random d-dimensional subspace.
    2. Run EM to convergence on the projected data.
    3. Apply the final low-dimensional soft labels to the original data,
       giving high-dimensional weights, means, and covariances.
    4. Run one high-dimensional EM step (more only if explicitly asked).

    Returns (high-dimensional FitResult, projection, low-dimensional FitResult).
    """
    restriction = CovarianceRestriction(restriction)
    train = _as_data(train)
    n = train.shape[1]
    proj = random_orthonormal(n, d, seed)
    low_data = project_data(proj, train)
    fit_low = run_em(low_data, k, restriction, seed, tol=tol, max_iter=max_iter)
    resp, _ = _e_step(_from_mixture(fit_low.model), low_data)
    gram = _gram(train) if restriction is CovarianceRestriction.SHARED_FULL else None
    params = _m_step(resp, train, restriction, gram=gram)
    trace = []
    steps = 1 + extra_high_dim_steps
    for _ in range(steps):
        resp, lse = _e_step(params, train)
        trace.append(float(lse.sum()))
        params = _m_step(resp, train, restriction, params, gram)
    _, lse = _e_step(params, train)
    trace.append(float(lse.sum()))
    fit_high = FitResult(
        model=_to_mixture(params),
        iterations=steps,
        loglik_trace=np.array(trace),
        converged=False,
    )
    return fit_high, proj, fit_low


def test_loglik(model: Mixture, test) -> float:
    """Log-likelihood of held-out data under the model (0 for no data)."""
    test = np.asarray(test, dtype=float)
    if test.size == 0:
        return 0.0
    _, ll = e_step(model, np.atleast_2d(test))
    return ll


def centers_recovered(model: Mixture, truth: Mixture):
    """Bottleneck-match estimated centers to true ones and score the fit.

    Success requires every matched center to lie within a third of the true
    component's trace-radius. Returns (success, errors in truth order).
    """
    if model.k != truth.k or model.dim != truth.dim:
        raise ShapeMismatchError("mixtures differ in k or dimension")
    k = truth.k
    dists = np.linalg.norm(
        model.means[:, None, :] - truth.means[None, :, :], axis=-1
    )
    best_perm = None
    best_max = np.inf
    for perm in permutations(range(k)):
        worst = max(dists[perm[j], j] for j in range(k))
        if worst < best_max:
            best_max = worst
            best_perm = perm
    errors = np.array([dists[best_perm[j], j] for j in range(k)])
    thresholds = np.array([radius(g) / 3.0 for g in truth.components])
    return bool(np.all(errors <= thresholds)), errors

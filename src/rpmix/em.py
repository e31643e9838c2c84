"""EM for Gaussian mixtures and the random-projection hybrid.

Two covariance regimes are supported: every component owns a full
covariance (FULL_DISTINCT), or all components share a single pooled full
covariance (SHARED_FULL). The hybrid maps the data by the projection it is
given (the caller draws it: a random one for the paper's hybrid), runs EM
to convergence in low dimension, lifts the final responsibilities back to
the original data, and performs exactly one high-dimensional EM step.

Each state of a fit is a `Mixture`: the weights, the means, and covariances
with their Cholesky factors L and L^-1, one per component under FULL_DISTINCT
and one in all under SHARED_FULL (the spherical start has one per distinct
variance). Every state is built whole by one `_factor_and_invert` call, so a
shared covariance is factored and checked once per iteration whatever k is,
by the library's one condition check, `gaussians._checked_inverse`. A fit's
model is its last state, so reading it back (the hybrid's lift,
`test_loglik`) neither factors nor checks again.
A SHARED_FULL fit's E-step whitens no point (`_shared_e_step`): the part of
the form every component shares cancels in the responsibilities and sums to
a trace over the data's Gram matrix. Elsewhere (distinct covariances, a
rescue, the public `e_step` and `test_loglik`) `_log_joint` whitens.

Each entry point builds one `gaussians._Workspace`, over the array it was
given (`rp_em`'s is on `train`). Every kernel reads its points from a
workspace: `_log_joint`, `_e_step`, `_m_step` (which pools one covariance
when the workspace keeps a Gram matrix) and `_fit`, the one EM loop of
`run_em` and the hybrid's high-dimensional step.
Responsibilities below the smallest normal double are exactly 0
(`_log_normalize`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
import numpy as np
from scipy.linalg.lapack import dlauum
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

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
    Mixture,
    _as_float_array,
    _checked_inverse,
    _cholesky,
    _int_at_least,
    _is_real,
    _log_normalizer,
    _of_type,
    _quad_forms,
    _radii,
    _scaled_norm,
    _seed_sequence,
    _Workspace,
)
from .projection import ProjectionMatrix, project_data

EMPTY_COMPONENT_FRACTION = 1e-10
MAX_RESCUES = 2
TINY = np.finfo(float).tiny  # the smallest normal double
LOWEST = -np.finfo(float).max  # the lowest finite double


class CovarianceRestriction(_ParameterEnum):
    FULL_DISTINCT = "full-distinct"
    SHARED_FULL = "shared-full"


@dataclass(frozen=True)
class FitResult:
    model: Mixture
    iterations: int
    loglik_trace: np.ndarray
    converged: bool


def _model_data(model: Mixture, data, name):
    """`data`, gated as `name`, checked to have the dimension of `model`, which
    is gated as a Mixture first."""
    model = _of_type(model, "model", Mixture)
    data = _as_float_array(data, name, ndmin=2)
    if data.shape[1] != model.dim:
        raise DimensionMismatchError(
            f"data dimension {data.shape[1]} != model dimension {model.dim}"
        )
    return data


def _factor_and_invert(covs):
    """Lower Cholesky factors of symmetric covariances and their inverses,
    each checked once by `_checked_inverse`. Every covariance is factored
    before any is checked, so a matrix that is not positive definite is
    reported ahead of an ill-conditioned one. A covariance whose computation
    overflowed raises NonFiniteError (`_cholesky`)."""
    chols = tuple(_cholesky(cov) for cov in covs)
    return chols, tuple(_checked_inverse(cov, chol) for cov, chol in zip(covs, chols))


def _log_joint(params: Mixture, work) -> np.ndarray:
    """log w_i + log N(x_j; mu_i, Sigma_i) for every point j of the
    `_Workspace` `work` and component i."""
    out = np.empty((len(work.points), len(params.weights)))
    for f, chol in enumerate(params._chols):
        comps = np.flatnonzero(params._owner == f)
        quad = _quad_forms(params._invs[f], params.means[comps], work)
        out[:, comps] = np.log(params.weights[comps]) + (_log_normalizer(chol) - 0.5 * quad)
    return out


def _log_normalize(scores):
    """Row-normalized exp(scores) and the log-sum-exp of each row, both
    computed after subtracting the row maximum. A row that is -inf under
    every component has a log-sum of -inf and responsibilities of zero: it
    is shifted by the lowest finite double instead, so its exponentials are
    0, and its total is raised to 1, which no other row's total is below
    (its largest term is exp(0) = 1), so there is no 0/0.

    The maximum is taken over a Fortran-ordered copy, where numpy reduces
    the short rows a column at a time, several times faster; a maximum is
    exact in any order. The row sums stay on the C-ordered array: there
    numpy groups the terms of a long row (k >= 8) otherwise, and the
    log-sums would move in the last bit.

    A responsibility below the smallest normal double is set to exactly 0:
    as a subnormal it would slow every product of an M-step that weights the
    data with it, several times over. It is flushed after the division, so
    no value in (0, tiny) is left, and the row totals are summed as before,
    so the log-sums keep their bits.
    """
    top = np.asfortranarray(scores).max(axis=1, keepdims=True)
    shifted = np.exp(scores - np.maximum(top, LOWEST))
    total = np.maximum(shifted.sum(axis=1, keepdims=True), 1.0)
    resp = shifted / total
    resp[resp < TINY] = 0.0
    return resp, (np.log(total) + top)[:, 0]


def _e_step(params: Mixture, work):
    """Responsibilities and the total log-likelihood (log-space normalized)
    of the points of the `_Workspace` `work`, by `_shared_e_step` when `work`
    keeps a Gram matrix (a state there has one factor), else `_log_joint`."""
    if work.gram is not None:
        return _shared_e_step(params, work)
    resp, lse = _log_normalize(_log_joint(params, work))
    dead = np.flatnonzero(np.isneginf(lse))
    if dead.size:
        raise NonFiniteError(
            f"point {dead[0]} has log-density -inf under every component, "
            "so its responsibilities are undefined"
        )
    return resp, float(lse.sum())


def _shared_e_step(params: Mixture, work):
    """`_e_step` for one covariance Sigma = L L^T shared by every component,
    whose L^-1 the state holds.

    With y_j = x_j - xbar and d_i = mu_i - xbar, the log-joint is
    a_ji - q_j / 2 + const - log det / 2, where
    a_ji = log w_i + y_j^T s_i - ||L^-1 d_i||^2 / 2, s_i = Sigma^-1 d_i and
    q_j = ||L^-1 y_j||^2. The responsibilities are softmax_i(a_ji), and
    sum_j q_j = tr(Sigma^-1 G) for the centred Gram matrix G, so the total
    log-likelihood is
    sum_j lse_i(a_ji) + m (const - log det / 2) - tr(Sigma^-1 G) / 2.
    `dlauum` forms the lower triangle P of Sigma^-1 = L^-T L^-1 in a third
    of the flops of a product with L^-1, and since both matrices are
    symmetric, tr(Sigma^-1 G) = 2 sum(P * G) - sum(diag(P) * diag(G)).
    """
    inv = params._invs[0]
    # An overflow leaves scores whose next covariance `_factor_and_invert`
    # reports, or a log-likelihood that `_fit` reports if it stops on it.
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = inv @ (params.means - work.center).T  # L^-1 d_i, n x k
        scores = np.log(params.weights) - 0.5 * np.einsum("ji,ji->i", whitened, whitened)
        scores = scores + work.centered @ (inv.T @ whitened)
        resp, lse = _log_normalize(scores)
        lower = dlauum(inv, lower=1)[0]
        g = work.gram
        trace = 2.0 * np.vdot(lower, g) - np.vdot(lower.diagonal(), g.diagonal())
        m = work.centered.shape[0]
        return resp, float(lse.sum() + m * _log_normalizer(params._chols[0]) - 0.5 * trace)


def _m_step(resp, work, previous=None) -> Mixture:
    """M-step on arrays, over the points of the `_Workspace` `work`: one
    covariance pooled over every component when `work` keeps a Gram matrix,
    one per component otherwise. A dead component keeps `previous`'s mean at
    the weight floor, and in the latter case its covariance, factored again."""
    data = work.points
    m, k = resp.shape
    counts = resp.sum(axis=0)
    is_dead = counts < EMPTY_COMPONENT_FRACTION * m
    dead = is_dead.nonzero()[0]
    if dead.size and previous is None:
        raise EmptyComponentError(dead)

    weights = counts / m
    safe_counts = np.where(counts > 0, counts, 1.0)
    means = (resp.T @ data) / safe_counts[:, None]
    # An overflow leaves a covariance that `_factor_and_invert` reports.
    with np.errstate(over="ignore", invalid="ignore"):
        if work.gram is not None:
            # sum_i sum_j r_ji (x_j - mu_i)(x_j - mu_i)^T over every i equals
            # G - sum_i N_i d_i d_i^T with d_i = mu_i - xbar.
            delta = means - work.center
            pooled = (work.gram - (counts[:, None] * delta).T @ delta) / m
            covs = [(pooled + pooled.T) / 2.0]
            owner = np.zeros(k, dtype=int)
        else:
            covs = []
            for i in range(k):
                if is_dead[i]:
                    covs.append(previous._covs[previous._owner[i]])
                    continue
                diff = np.subtract(data, means[i], out=work.diff)
                weighted = np.multiply(resp[:, i][:, None], diff, out=work.weighted)
                cov = weighted.T @ diff / counts[i]
                covs.append((cov + cov.T) / 2.0)
            owner = np.arange(k)
    chols, invs = _factor_and_invert(covs)
    for i in dead:
        weights[i] = EMPTY_COMPONENT_FRACTION
        means[i] = previous.means[i]
    return Mixture._of(weights / weights.sum(), means, covs, chols, owner, invs)


def init_params(data, k: int, restriction: CovarianceRestriction, seed) -> Mixture:
    """Paper-style initializer.

    Centers are drawn without replacement from the data; each initial
    covariance is spherical with variance min_j ||mu_j - mu_i||^2 / (2n).
    Under the shared restriction the smallest of these variances is used
    for every component. The start holds one spherical factor per distinct
    initial variance. Data with no columns raises NotEnoughDataError naming
    its shape.
    """
    restriction = CovarianceRestriction(restriction)
    data = _as_float_array(data, "data", ndmin=2)
    m, n = data.shape
    k = _int_at_least(k, "k", 1)
    if m < k:
        raise NotEnoughDataError(f"need at least {k} points, got {m}")
    if data.shape[1] == 0:
        raise NotEnoughDataError(f"data has no values: shape {data.shape}")
    rng = np.random.default_rng(_seed_sequence(seed))
    centers = data[rng.choice(m, size=k, replace=False)]
    # A distance that overflows leaves a covariance that `_factor_and_invert` reports.
    with np.errstate(over="ignore", invalid="ignore"):
        if k == 1:
            # No pairwise distances exist; fall back to the data's mean squared
            # spread so a single component still gets a sane spherical start.
            var = float(np.mean(np.sum((data - data.mean(axis=0)) ** 2, axis=1))) / n
            if var <= 0 and np.all(data == data[0]):
                raise DuplicatePointsError("all points coincide")
            variances = np.array([var])
        else:
            sq = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(sq, np.inf)
            nearest = sq.min(axis=1)
            if np.any(nearest == 0) and len(np.unique(centers, axis=0)) < k:
                raise DuplicatePointsError("two initial centers coincide")
            variances = nearest / (2.0 * n)
            if restriction is CovarianceRestriction.SHARED_FULL:
                variances = np.full(k, variances.min())
        if np.any(variances == 0):
            raise IllConditionedError(
                "initial variance underflows to 0: the points are distinct, but "
                "too close for their squared distances to be a double"
            )
        distinct, owner = np.unique(variances, return_inverse=True)
        covs = tuple(var * np.eye(n) for var in distinct)
    chols, invs = _factor_and_invert(covs)
    return Mixture._of(np.full(k, 1.0 / k), centers, covs, chols, owner, invs)


def e_step(model: Mixture, data):
    """Posterior responsibilities and train log-likelihood.

    Row normalization happens in log space so that high-dimensional
    densities cannot underflow to an all-zero row. A responsibility below
    the smallest normal double, `np.finfo(float).tiny`, is exactly 0; the
    log-likelihood does not change. A point whose
    log-density is -inf under every component has no responsibilities and
    raises NonFiniteError naming its row.
    """
    return _e_step(model, _Workspace(_model_data(model, data, "data")))


def m_step(
    resp,
    data,
    restriction: CovarianceRestriction,
    previous: Mixture | None = None,
) -> Mixture:
    """Re-estimate weights, means, and covariances from soft labels.

    An effectively empty component raises EmptyComponentError unless a
    `previous` Mixture of k components in R^n is given: then the dead
    component keeps its previous mean at the weight floor, with its previous
    covariance, factored again, under FULL_DISTINCT and the pooled one under
    SHARED_FULL. Data with no columns raises NotEnoughDataError naming its
    shape.
    """
    restriction = CovarianceRestriction(restriction)
    resp = _as_float_array(resp, "resp", ndmin=2)
    data = _as_float_array(data, "data", ndmin=2)
    if data.shape[0] != resp.shape[0]:
        raise ShapeMismatchError("responsibility rows != data rows")
    if data.shape[0] == 0:
        raise NotEnoughDataError("need at least 1 point, got 0")
    if data.shape[1] == 0:
        raise NotEnoughDataError(f"data has no values: shape {data.shape}")
    k, n = resp.shape[1], data.shape[1]
    if not (previous is None or (isinstance(previous, Mixture) and (previous.k, previous.dim) == (k, n))):
        raise InvalidParameterError(
            f"previous must be a Mixture of {k} components in R^{n}, got {previous!r}")
    work = _Workspace(data, restriction is CovarianceRestriction.SHARED_FULL)
    return _m_step(resp, work, previous)


def run_em(
    data,
    k: int,
    restriction: CovarianceRestriction,
    seed,
    tol: float = 1e-5,
    max_iter: int = 500,
) -> FitResult:
    """EM to convergence: stop when the relative log-likelihood gain < tol.

    `tol` is a finite real >= 0; at 0 the fit runs all `max_iter` iterations.

    A component that empties is moved to the worst-explained point (at most
    MAX_RESCUES times per fit); after that it stays as `m_step` keeps a
    dead component, so a SHARED_FULL state always has one covariance.
    """
    restriction = CovarianceRestriction(restriction)
    data = _as_float_array(data, "data", ndmin=2)
    max_iter = _int_at_least(max_iter, "max_iter", 0)
    if not _is_real(tol) or not 0 <= tol < np.inf:
        raise InvalidParameterError(f"tol must be a finite real >= 0, got {tol!r}")
    params = init_params(data, k, restriction, seed)
    work = _Workspace(data, restriction is CovarianceRestriction.SHARED_FULL)
    return _fit(params, work, tol, max_iter, MAX_RESCUES)


def _fit(params, work, tol, max_iter, rescues) -> FitResult:
    """`run_em`'s loop from state `params` on the points of the `_Workspace`
    `work`. The first `rescues` empty components move to the worst-explained
    point; later ones stay as `_m_step` keeps a dead component."""
    trace = []
    while True:
        resp, ll = _e_step(params, work)
        trace.append(ll)
        converged = len(trace) > 1 and abs(ll - trace[-2]) < tol * abs(ll)
        if converged or len(trace) > max_iter:
            if not np.isfinite(ll):
                raise NonFiniteError(f"iteration {len(trace) - 1}: log-likelihood is {ll}")
            break
        try:
            params = _m_step(resp, work, None if rescues else params)
        except EmptyComponentError as exc:
            rescues -= 1
            lse = _log_normalize(_log_joint(params, work))[1]
            means = params.means.copy()
            means[exc.indices[0]] = work.points[int(np.argmin(lse))]
            layout = (params._covs, params._chols, params._owner, params._invs)
            params = Mixture._of(params.weights, means, *layout)
        except (IllConditionedError, NotPositiveDefiniteError, NonFiniteError) as exc:
            raise type(exc)(f"iteration {len(trace) - 1}: {exc}") from exc
    return FitResult(params, len(trace) - 1, np.array(trace), converged)


def rp_em(train, k: int, proj: ProjectionMatrix, restriction: CovarianceRestriction, seed):
    """Random projection + EM hybrid, through the d x n map `proj` it is given.

    1. Project the training data by `proj`.
    2. Run EM to convergence on the projected data, from `run_em`'s start at
       `seed`.
    3. Apply the final low-dimensional soft labels to the original data,
       giving high-dimensional weights, means, and covariances.
    4. Run one high-dimensional EM step.

    `seed` feeds the low-dimensional start only: the caller draws the map
    (the paper's is `random_orthonormal(n, d, ...)`), and any other map, such
    as `pca(train, d)`, goes through the same way.

    Returns (fit in Rⁿ, the map it was given, fit in R^d).
    """
    restriction = CovarianceRestriction(restriction)
    train = _as_float_array(train, "train", ndmin=2)
    low_data = project_data(_of_type(proj, "proj", ProjectionMatrix), train)
    fit_low = run_em(low_data, k, restriction, seed)
    resp, _ = e_step(fit_low.model, low_data)
    work = _Workspace(train, restriction is CovarianceRestriction.SHARED_FULL)
    return _fit(_m_step(resp, work), work, 0.0, 1, 0), proj, fit_low


def test_loglik(model: Mixture, test) -> float:
    """Log-likelihood of held-out data under the model (0 for no rows, -inf
    where a point's log-density is -inf under every component)."""
    work = _Workspace(_model_data(model, test, "test"))
    return float(_log_normalize(_log_joint(model, work))[1].sum())


def _has_perfect_matching(adjacency):
    """Whether a square boolean biadjacency matrix has a perfect matching."""
    match = maximum_bipartite_matching(csr_array(adjacency), perm_type="column")
    return bool(np.all(match >= 0))


def centers_recovered(model: Mixture, truth: Mixture):
    """Bottleneck-match estimated centers to true ones and score the fit.

    The matching minimizes the largest center distance, and among the
    matchings that do, it is the lexicographically first in truth order:
    truth 0 takes the lowest model index that still completes one, then
    truth 1, and so on. Two searches ask one question, whether a perfect
    matching exists. `bisect` finds the bound among the distinct distances
    (Garfinkel, "An improved algorithm for the bottleneck assignment
    problem", 1971), and `next` finds each truth's model: the first allowed
    one whose removal, with the truth, leaves a perfect matching. So the
    cost is polynomial in k.

    Success requires every matched center to lie within a third of the true
    component's trace-radius. Returns (success, errors in truth order).
    """
    model, truth = _of_type(model, "model", Mixture), _of_type(truth, "truth", Mixture)
    if model.k != truth.k or model.dim != truth.dim:
        raise ShapeMismatchError("mixtures differ in k or dimension")
    k = truth.k
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(
            model.means[:, None, :] - truth.means[None, :, :], axis=-1
        )
        for i, j in zip(*np.nonzero(~np.isfinite(dists))):  # the squares overflowed: rescale
            scale, norm = _scaled_norm(model.means[i], truth.means[j])
            dists[i, j] = scale * norm
    values = np.unique(dists)
    # the largest value is never tested: every pair is allowed under it
    bound = bisect.bisect_left(range(values.size - 1), True,
                               key=lambda v: _has_perfect_matching(dists.T <= values[v]))
    allowed = dists.T <= values[bound]  # truth x model
    for j in range(k):
        i = next(i for i in np.flatnonzero(allowed[j])
                 if _has_perfect_matching(np.delete(np.delete(allowed, j, 0), i, 1)))
        allowed[j], allowed[:, i] = False, False
        allowed[j, i] = True
    errors = dists[np.argmax(allowed, axis=1), np.arange(k)]
    thresholds = _radii(truth) / 3.0
    return bool(np.all(errors <= thresholds)), errors

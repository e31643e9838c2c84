"""Multivariate Gaussians, mixtures, and their geometry.

Everything here works in units natural to high dimension: the radius of a
Gaussian is sqrt(trace(Sigma)), eccentricity is sqrt(lambda_max/lambda_min),
and two components are c-separated when their means are at least c radii
apart (using the larger of the two radii).
"""

from __future__ import annotations

import io
import json
import math
import os
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Integral, Real

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    InconsistentWidthError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    NotPositiveDefiniteError,
    ParseError,
    RpmixError,
    TooFewComponentsError,
)

SYMMETRY_RTOL = 1e-9
CONDITION_LIMIT = 1e12

LOG_2PI = math.log(2.0 * math.pi)

FLOAT_FMT = "%.17g"  # round-trips doubles; prints integers below 2**53 without a point


def _as_float_array(x, name, ndmin=0):
    """The one way an array argument enters the library: `x` as floats with
    at least `ndmin` axes (leading ones added, as `np.atleast_2d` adds them,
    without a copy). NaN, infinity or an int past the float range raises
    NonFiniteError naming `name`, and a complex, non-numeric or ragged entry
    InvalidParameterError."""
    try:
        a = np.asarray(x)
        if a.dtype.kind == "c":  # `astype` would drop the imaginary part
            raise TypeError(f"dtype {a.dtype} is not real")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} is not an array of numbers: {exc}") from exc
    except OverflowError as exc:  # an int past the float range
        raise NonFiniteError(f"{name} contains non-finite entries") from exc
    # After asarray no copy is needed, so copy=False means the same in NumPy 1 and 2.
    a = np.array(a, copy=False, ndmin=ndmin)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def _file_name(path):
    """The one way a file path enters the library: a str, bytes or os.PathLike
    `path` as a str (`os.fspath`, decoded: numpy's `savetxt` takes no bytes).
    Anything else, an int (a file descriptor to `open`) included, raises
    InvalidParameterError."""
    try:
        return os.fsdecode(path)
    except TypeError as exc:
        raise InvalidParameterError(f"path must be a str, bytes or os.PathLike, got {path!r}") from exc


def _is_int(value):
    """Whether `value` is an integer (a numpy integer included), not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value):
    """Whether `value` is a real number (numpy's included), not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _seed_sequence(seed):
    """The one way a seed enters the library. An int >= 0 (a numpy integer
    included) becomes the SeedSequence that `default_rng` would make of it;
    a SeedSequence passes as it is, not copied. Anything else raises
    InvalidParameterError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not _is_int(seed) or seed < 0:
        raise InvalidParameterError(f"seed must be an int >= 0 or a SeedSequence, got {seed!r}")
    return np.random.SeedSequence(seed)


def _int_at_least(value, name, low, error=InvalidParameterError):
    """`value` as a Python int if it is an int >= `low` (a numpy integer
    included, a bool not); anything else raises `error` naming `name`. The
    library's integer arguments with a lower bound enter through it, except
    a projection's sizes and a seed, whose messages have another form."""
    if not _is_int(value) or value < low:
        raise error(f"{name} must be an int >= {low}, got {value!r}")
    return int(value)


def _seed_children(seed, count):
    """The first `count` children of `seed`, one stream per role, spawned
    from a fresh copy of its sequence: child i extends the spawn key by i.
    Nothing is spawned from the caller's object, so one seed always gives
    the same children (NumPy NEP 19)."""
    ss = _seed_sequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key, pool_size=ss.pool_size).spawn(count)


def _frozen(a):
    """A read-only view of `a`. The object that keeps it shares memory with
    the array passed in, which stays writable for its owner."""
    view = a.view()
    view.setflags(write=False)
    return view


class Mixture:
    """A weighted mixture of k Gaussians in R^n, held in the array layout EM
    iterates on: read-only `weights` (k) and `means` (k x n), and for each
    distinct covariance f, `_covs[f]` symmetrized, `_chols[f]` its lower
    Cholesky factor L and `_invs[f]` its L^-1 from the condition check, which
    EM's states carry and other mixtures compute at first use; `_owner[i]`
    is the factor of component i. `components` are views built on first read.
    """

    def __init__(self, components, weights):
        components = list(components)
        if not components:
            raise InvalidParameterError("mixture needs at least one component")
        for i, g in enumerate(components):
            if not isinstance(g, Gaussian):
                raise InvalidParameterError(f"component {i} is not a Gaussian: {g!r}")
        if any(g.dim != components[0].dim for g in components):
            raise DimensionMismatchError("components have differing dimensions")
        m = _sharing_mixture(weights, [g.mean for g in components], [g.covariance for g in components])
        self._keep(m.weights, m.means, m._covs, m._chols, m._owner)

    @classmethod
    def _of(cls, *layout):
        """The Mixture of arrays its caller built and checked (see `_keep`)."""
        return cls.__new__(cls)._keep(*layout)

    def _keep(self, weights, means, covs, chols, owner, invs=None):
        self.weights, self.means = _frozen(weights), _frozen(means)
        self._covs, self._chols, self._owner = tuple(covs), tuple(chols), owner
        if invs is not None:  # else the check runs at the first use of `_invs`
            self._invs = tuple(invs)
        return self

    @cached_property
    def _invs(self):
        return tuple(_checked_inverse(cov, chol) for cov, chol in zip(self._covs, self._chols))

    @cached_property
    def components(self):
        """Each component as a Gaussian: a one-row view of this layout."""
        one, zero = np.ones(1), np.zeros(1, dtype=int)
        pairs = zip(self.means[:, None], self._owner)
        return tuple(Gaussian._of(one, mu, (self._covs[f],), (self._chols[f],), zero) for mu, f in pairs)

    @property
    def k(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.means.shape[1]

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, dim={self.dim})"


class Gaussian(Mixture):
    """An n-dimensional Gaussian N(mean, covariance): the Mixture of one
    component, in its layout.

    The covariance must be symmetric (within 1e-9 relative, max-abs scale)
    and positive definite; it is symmetrized once on construction and both
    arrays are read-only views, so instances are safe to share across
    threads. The mean shares memory with the array passed in. Like every
    Mixture, it runs the condition check (`_invs`) at its first density
    evaluation and keeps the result.
    """

    def __init__(self, mean, covariance):
        mean = _as_float_array(mean, "mean")
        if mean.ndim != 1:
            raise InvalidParameterError("mean must be a vector")
        one = _checked_mixture([1.0], mean[None], [covariance], [0])
        self._keep(one.weights, one.means, one._covs, one._chols, one._owner)

    @property
    def mean(self):
        return self.means[0]

    @property
    def covariance(self):
        return _frozen(self._covs[0])

    @property
    def chol(self):
        """Lower-triangular Cholesky factor of the covariance."""
        return _frozen(self._chols[0])


def _checked_weights(weights, k):
    w = _as_float_array(weights, "weights")
    if w.shape != (k,):
        raise InvalidParameterError("one weight per component required")
    if np.any(w <= 0):
        raise InvalidParameterError("weights must all be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise InvalidParameterError(f"weights sum to {w.sum()!r}, not 1")
    return w


def _sharing_mixture(weights, means, covs):
    """The `_checked_mixture` of one covariance per component, in which equal
    covariances (as by `np.array_equal`) share one factor. Only covariances
    of one shape and sum are compared, not every pair."""
    distinct, owner, seen = [], [], {}
    for cov in covs:
        cov = _as_float_array(cov, "covariance")
        with np.errstate(over="ignore", invalid="ignore"):
            same = seen.setdefault((cov.shape, float(cov.sum())), [])
        f = next((f for f in same if np.array_equal(distinct[f], cov)), len(distinct))
        if f == len(distinct):
            distinct.append(cov)
            same.append(f)
        owner.append(f)
    return _checked_mixture(weights, means, distinct, owner)


def _checked_mixture(weights, means, covs, owner):
    """The Mixture whose component i has mean `means[i]` and covariance
    `covs[owner[i]]`, with the checks of `Gaussian` and `Mixture`: finite
    vectors of one dimension, symmetric positive definite covariances and
    valid weights. Each covariance in `covs` is symmetrized and factored once."""
    owner = np.asarray(owner)
    means = _as_float_array(means, "mean")
    if means.ndim != 2 or not owner.size:
        raise InvalidParameterError("a mixture needs at least one mean, and each is a vector")
    n = means.shape[1]
    if n < 1:
        raise InvalidParameterError("a mixture needs dimension >= 1, got 0")
    covs = [_as_float_array(cov, "covariance") for cov in covs]
    for cov in covs:
        if cov.shape != (n, n):
            raise DimensionMismatchError(f"covariance shape {cov.shape} does not match dimension {n}")
    covs = [_symmetrized(cov) for cov in covs]
    chols = [_cholesky(cov) for cov in covs]
    return Mixture._of(_checked_weights(weights, owner.size), means, covs, chols, owner)


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # sorted ascending
    eccentricity: float
    trace: float


def _symmetrized(cov):
    """(cov + cov^T) / 2 of a non-empty square matrix symmetric within
    SYMMETRY_RTOL of its largest entry; NotPositiveDefiniteError otherwise,
    and NonFiniteError where the sum overflows."""
    scale = np.max(np.abs(cov))
    with np.errstate(over="ignore"):
        asym = np.max(np.abs(cov - cov.T))
        sym = (cov + cov.T) / 2.0
    if scale > 0 and asym > SYMMETRY_RTOL * scale:
        raise NotPositiveDefiniteError(
            f"covariance is not symmetric (asymmetry {asym:.3g} at scale {scale:.3g})"
        )
    if not np.all(np.isfinite(sym)):
        raise NonFiniteError("covariance overflows when symmetrized")
    return sym


def _cholesky(cov):
    """The library's one Cholesky factoring: the lower factor L of a
    symmetric covariance, NotPositiveDefiniteError where it has none and
    NonFiniteError where it holds a non-finite entry. It calls LAPACK's
    `dpotrf` on a copy, as scipy's `cholesky` does, without its wrapper's
    checks, so the factor has that function's bits and its message."""
    if not np.isfinite(cov).all():
        raise NonFiniteError("covariance overflows")
    chol, info = dpotrf(cov, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"{info}-th leading minor of the array is not positive definite")
    return chol


def _checked_inverse(cov, chol):
    """The library's one condition check, of a covariance Sigma = L L^T: L^-1.
    IllConditionedError if kappa_2(Sigma) reaches CONDITION_LIMIT, or if
    `dtrtri` fails or tr(Sigma^-1) = ||L^-1||_F^2 is not finite.

    The check starts from a cheap upper bound: for SPD Sigma,
    kappa_2(Sigma) <= tr(Sigma) tr(Sigma^-1) = tr(Sigma) ||L^-1||_F^2, and
    L^-1 is one `dtrtri`, several times cheaper than `eigvalsh`. The exact
    condition number (from `eigvalsh`) is computed only when the bound
    reaches CONDITION_LIMIT / 10 or overflows through tr(Sigma). A
    covariance that could reach the limit therefore always gets the exact
    check, and the factor 10 leaves room for the rounding of the bound, so
    no verdict depends on it.
    """
    inv, info = dtrtri(chol, lower=1)
    inv_sq = float(np.einsum("ij,ij->", inv, inv))
    if info != 0 or not math.isfinite(inv_sq):
        raise IllConditionedError("covariance inverse has a non-finite trace")
    with np.errstate(over="ignore"):  # tr(Sigma) * tr(Sigma^-1)
        bound = cov.trace() * inv_sq
    if not bound < CONDITION_LIMIT / 10:
        lam = eigvalsh(cov)
        cond = lam[-1] / lam[0] if lam[0] > 0 else np.inf
        if cond >= CONDITION_LIMIT:
            raise IllConditionedError(
                f"covariance condition number {cond:.3g} >= {CONDITION_LIMIT:g}"
            )
    return inv


class _Workspace:
    """One call's `points` and the buffers its kernels work in, so that no
    step of a fit allocates an m x n array. It belongs to that one call: two
    calls never share one.

    `centered` holds the points centred by their column mean `center`, and
    `product` takes `_quad_forms`' product of them with L^-1. `diff` and
    `weighted` take the M-step's x_j - mu_i and r_ji (x_j - mu_i). When
    `shared`, `gram` is the centred points' Gram matrix, from which the
    M-step pools one covariance (None otherwise); one that overflows makes
    the pooled covariance overflow, which the M-step's factorization
    reports.
    """

    def __init__(self, points, shared=False):
        m, n = points.shape
        self.points = points
        self.product = np.empty((m, n))
        self.diff = np.empty((m, n))
        self.weighted = np.empty((m, n))
        with np.errstate(over="ignore", invalid="ignore"):
            # The mean's bits, and zeros for no points, where `mean` warns.
            self.center = points.sum(axis=0) / max(m, 1)
            self.centered = points - self.center
            self.gram = self.centered.T @ self.centered if shared else None


def _quad_forms(inv, means, work):
    """||L^-1 (x_j - mu_i)||^2 for each point x_j of the `_Workspace` `work`
    and each mean mu_i sharing L.

    The points and the means, centred by the points' mean, each take a
    product with L^-1, giving y_j and m_i; like a solve, it errs with
    kappa(L) = sqrt(kappa(Sigma)) (Higham 2002, ch. 8 and 14). The form is
    expanded as ||y_j - m_i||^2 = ||y_j||^2 - 2 m_i^T y_j + ||m_i||^2: one
    norm pass over the points and one (points x n)(n x means) product, not
    one difference pass per mean. The expansion loses about
    eps * (||y_j||^2 + ||m_i||^2) to cancellation. Centring by the points'
    mean keeps both norms of the order of the quadratic forms themselves;
    points far from the origin would make them arbitrarily larger.

    One point about 1e154 or more from the others makes every y_j overflow,
    and the expansion inf - inf. Only the entries that come out non-finite
    are computed again, directly from L^-1 (x_j - mu_i): those of the
    points near the means become finite again, and those of the far points
    +inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.matmul(work.centered, inv.T, out=work.product)
        mu = (means - work.center) @ inv.T
        quad = np.einsum("ij,ij->i", y, y)[:, None] - 2.0 * (y @ mu.T) + np.einsum("ij,ij->i", mu, mu)
        bad = ~np.isfinite(quad)
        if bad.any():
            j, i = np.nonzero(bad)
            w = (work.points[j] - means[i]) @ inv.T
            quad[j, i] = np.einsum("ij,ij->i", w, w)
    return quad


def _log_normalizer(chol):
    """-(n log 2 pi + log det Sigma) / 2 for Sigma = L L^T, the log-density's
    constant, evaluated as -n log(2 pi) / 2 - log det Sigma / 2."""
    log_det = 2.0 * np.log(chol.diagonal()).sum()
    return -0.5 * chol.shape[0] * LOG_2PI - 0.5 * log_det


def _of_type(value, name, cls):
    """`value` if it is a `cls` (a Mixture, a ProjectionMatrix, ...);
    InvalidParameterError naming `name` otherwise."""
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _one_component(g, name="g"):
    """`g` if it is a one-component Mixture (a Gaussian is one), whose
    component the layout holds at `means[0]`, `_covs[0]` and `_chols[0]`;
    InvalidParameterError naming `name` otherwise."""
    if not isinstance(g, Mixture) or g.k != 1:
        raise InvalidParameterError(f"{name} must be a Gaussian (a one-component Mixture), got {g!r}")
    return g


def _quad_to_mean(g: Gaussian, x, name, ndmin):
    """`g`'s quadratic form at the point (ndmin 0) or rows (ndmin 2) of `x`,
    gated as `name`, dimension-checked and after `g`'s condition check."""
    g = _one_component(g)
    pts = _as_float_array(x, name, ndmin=ndmin)
    if pts.ndim != max(ndmin, 1) or pts.shape[-1] != g.dim:
        raise DimensionMismatchError(f"{name} has shape {pts.shape}, expected dimension {g.dim}")
    return _quad_forms(g._invs[0], g.means, _Workspace(pts.reshape(-1, g.dim)))[:, 0]


def log_density(g: Gaussian, x) -> float:
    """Log of the Gaussian density at a single point x."""
    quad = _quad_to_mean(g, x, "x", 0)[0]
    return float(_log_normalizer(g._chols[0]) - 0.5 * quad)


def log_density_batch(g: Gaussian, points) -> np.ndarray:
    """Log-density at every row of a dataset; one product with L^-1."""
    quad = _quad_to_mean(g, points, "points", 2)
    return _log_normalizer(g._chols[0]) - 0.5 * quad


def mahalanobis(g: Gaussian, x) -> float:
    """Distance from the center in the Gaussian's own metric."""
    return float(np.sqrt(_quad_to_mean(g, x, "x", 0)[0]))


def spectral_summary(cov) -> SpectralSummary:
    """Eigenvalues, eccentricity sqrt(l_max/l_min), and trace of a PD matrix."""
    cov = _as_float_array(cov, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
        raise InvalidParameterError("covariance must be a non-empty square matrix")
    lam = np.linalg.eigvalsh(_symmetrized(cov))
    if lam[0] <= 0:
        raise NotPositiveDefiniteError(f"smallest eigenvalue {lam[0]!r} <= 0")
    lam.setflags(write=False)
    return SpectralSummary(
        eigenvalues=lam,
        eccentricity=float(np.sqrt(lam[-1] / lam[0])),
        trace=float(lam.sum()),
    )


def radius(g: Gaussian) -> float:
    """sqrt(trace(Sigma)): the root expected squared distance from the mean."""
    return float(np.sqrt(np.trace(_one_component(g)._covs[0])))


def _radii(m: Mixture) -> np.ndarray:
    """The trace-radius of each component of `m`, one trace per factor."""
    return np.sqrt([np.trace(cov) for cov in m._covs])[m._owner]


def _scaled_norm(a, b):
    """(s, ||a / s - b / s||) for s the largest absolute entry of a and b:
    ||a - b|| is s times the norm, also where the squares of a - b overflow."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    return scale, np.linalg.norm(a / scale - b / scale)


def _separations(means, radii) -> np.ndarray:
    """The table of ||mu_i - mu_j|| / max(r_i, r_j) over the rows of `means`,
    zero on the diagonal, one row of differences at a time. Each squared
    norm is the `ddot` of a difference with itself that `np.linalg.norm`
    runs, here from one stacked `matmul` per row."""
    means = np.asarray(means, dtype=float)
    out = np.zeros((len(means), len(means)))
    for i in range(len(means) - 1):
        with np.errstate(over="ignore"):
            d = means[i + 1:] - means[i]
            dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        denom = np.maximum(radii[i + 1:], radii[i])
        row = dist / denom
        for j in np.flatnonzero(~np.isfinite(dist)):  # the squares overflowed: rescale
            scale, norm = _scaled_norm(means[i], means[i + 1 + j])
            row[j] = scale / denom[j] * norm
        out[i, i + 1:] = out[i + 1:, i] = row
    return out


def pairwise_separation(g1: Gaussian, g2: Gaussian) -> float:
    """Mean distance in units of the larger trace-radius."""
    g1, g2 = _one_component(g1, "g1"), _one_component(g2, "g2")
    if g1.dim != g2.dim:
        raise DimensionMismatchError("Gaussians have differing dimensions")
    return float(_separations([g1.means[0], g2.means[0]], [radius(g1), radius(g2)])[0, 1])


def mixture_separation(m: Mixture) -> float:
    """Minimum pairwise separation over all component pairs."""
    if _of_type(m, "m", Mixture).k < 2:
        raise TooFewComponentsError("separation needs at least two components")
    return float(_separations(m.means, _radii(m))[np.triu_indices(m.k, 1)].min())


def _labelled_draw(m: Mixture, count: int, rng):
    """Component indices and `count` i.i.d. points drawn with the generator `rng`."""
    count = _int_at_least(count, "count", 1)
    comps = rng.choice(m.k, size=count, p=m.weights)
    z = rng.standard_normal((count, m.dim))
    for i, (mu, f) in enumerate(zip(m.means, m._owner)):
        rows = comps == i  # disjoint rows, and z[rows] on the right is a copy
        z[rows] = z[rows] @ m._chols[f].T + mu
    return comps, z


def sample(m: Mixture, count: int, seed) -> np.ndarray:
    """Draw `count` i.i.d. points from the mixture; deterministic in `seed`."""
    return _labelled_draw(_of_type(m, "m", Mixture), count, np.random.default_rng(_seed_sequence(seed)))[1]


def norm_tail_bound(n: int, eps: float) -> float:
    """Upper bound 2 exp(-n eps^2 / 24) on P(| ||X||^2/n - 1 | > eps), X ~ N(0, I_n),
    for an int n >= 1 and a finite real eps > 0."""
    n = _int_at_least(n, "n", 1)
    if not _is_real(eps) or not 0 < eps < np.inf:
        raise InvalidParameterError(f"eps must be a finite real > 0, got {eps!r}")
    return 2.0 * np.exp(-n * eps * eps / 24.0)


# ---------------------------------------------------------------------------
# Serialization

def mixture_to_dict(m: Mixture) -> dict:
    m = _of_type(m, "m", Mixture)
    return {
        "weights": m.weights.tolist(),
        "means": m.means.tolist(),
        "covariances": [m._covs[f].tolist() for f in m._owner],
    }


_MIXTURE_KEYS = ("weights", "means", "covariances")


def mixture_from_dict(doc: dict) -> Mixture:
    """The Mixture of a `mixture_to_dict` document. A document that is not a
    dict holding the lists weights, means and covariances, all of one
    length, raises ParseError. Equal covariances are factored once."""
    if not isinstance(doc, dict):
        raise ParseError(f"a mixture document is an object, not {type(doc).__name__}")
    missing = [key for key in _MIXTURE_KEYS if not isinstance(doc.get(key), list)]
    if missing:
        raise ParseError(f"a mixture document needs the lists {', '.join(missing)}")
    lengths = [len(doc[key]) for key in _MIXTURE_KEYS]
    if len(set(lengths)) != 1:
        counts = ", ".join(f"{n} {key}" for n, key in zip(lengths, _MIXTURE_KEYS))
        raise ParseError(f"a mixture document has {counts}")
    return _sharing_mixture(doc["weights"], doc["means"], doc["covariances"])


def save_mixture(m: Mixture, path):
    doc = mixture_to_dict(m)
    with open(_file_name(path), "w") as f:
        json.dump(doc, f)


def _load_document(path, from_dict):
    """`from_dict` of the JSON document at `path`. A file that is not JSON
    raises ParseError, and an RpmixError raised while building the object is
    raised again as its own type; both messages start with `path`."""
    path = _file_name(path)
    try:
        with open(path) as f:
            doc = json.load(f)
    # A JSONDecodeError, an undecodable byte and an int past Python's digit
    # limit are ValueErrors; nesting past the recursion limit is not.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return from_dict(doc)
    except RpmixError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_mixture(path) -> Mixture:
    """The mixture saved at `path`. A file that is not JSON, or not a valid
    mixture document, raises an RpmixError naming `path` (ParseError for a
    malformed document)."""
    return _load_document(path, mixture_from_dict)


def save_dataset(points, path, header=None):
    """Write one point per CSV row at full double precision, under an
    optional `header`: one string per column, not a string itself, and no
    name holding a comma or a line break, so that the header is one row of
    as many cells as the data. An array with no values raises
    NotEnoughDataError before the file is opened: no reader takes its file."""
    points = _as_float_array(points, "points", ndmin=2)
    if points.size == 0:
        raise NotEnoughDataError(f"points has no values: shape {points.shape}")
    if header is not None and (
        isinstance(header, str)
        or not isinstance(header, Collection)
        or len(header) != points.shape[1]
        or not all(isinstance(name, str) and not set(name) & set(",\n\r") for name in header)
    ):
        raise InvalidParameterError(
            f"header must be a sequence of {points.shape[1]} column names, "
            f"none holding ',' or a line break, got {header!r}"
        )
    header = "" if header is None else ",".join(header)
    np.savetxt(_file_name(path), points, fmt=FLOAT_FMT, delimiter=",", header=header, comments="")


def _data_lines(path, raw, skip_header, linenos):
    """The lines of `raw`, the bytes of the file at `path`, that hold data:
    every line after the header (when `skip_header`) that is not blank or
    whitespace-only. The number of each line is appended to `linenos` as it
    is yielded. The bytes are decoded as `open(path)` decodes the file, and
    a byte that does not decode raises ParseError naming `path`."""
    with io.TextIOWrapper(io.BytesIO(raw)) as f:
        try:
            if skip_header:
                f.readline()
            for lineno, line in enumerate(f, start=2 if skip_header else 1):
                if not line.isspace():
                    linenos.append(lineno)
                    yield line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc


def _parse_lines(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _parses(text):
    """Whether numpy reads `text`, one line or one cell, as numbers; a blank
    cell is not a number."""
    if text.isspace() or not text:
        return False
    try:
        _parse_lines([text])
    except ValueError:
        return False
    return True


def _read_csv(path, skip_header=False):
    """A numeric CSV file as a float array, each row's line number, and the
    file's bytes.

    The file is read once, whole. numpy's `loadtxt` parses the lines of
    `_data_lines` as they are decoded, so blank and whitespace-only lines
    are skipped, and it rejects a row narrower or wider than the first,
    which raises InconsistentWidthError. A file with no data row raises
    ParseError. So does a cell that is not a finite number in numpy's
    syntax: `1_000` and non-ASCII digits are not numbers, and `#` starts no
    comment. When `loadtxt` fails, the same bytes are decoded again and the
    lines checked one at a time, and the cells of the failing one, only to
    name the line, and the width or the column; every error names the file
    and the line.
    """
    path, linenos = _file_name(path), []
    with open(path, "rb") as f:
        raw = f.read()
    lines = _data_lines(path, raw, skip_header, linenos)
    first = next(lines, None)
    if first is None:
        raise ParseError(f"{path}: no data rows")
    try:
        table = _parse_lines(chain([first], lines))
    except ValueError as exc:
        retry, width = [], first.count(",") + 1
        for line in _data_lines(path, raw, skip_header, retry):
            cells = line.split(",")
            if len(cells) != width:
                raise InconsistentWidthError(
                    f"{path}: line {retry[-1]}: expected {width} values, got {len(cells)}"
                ) from exc
            if _parses(line):
                continue
            for column, cell in enumerate(cells, start=1):
                if not _parses(cell):
                    raise ParseError(
                        f"{path}: line {retry[-1]}: column {column}: "
                        f"{cell.strip()!r} is not a number"
                    ) from exc
        raise ParseError(f"{path}: {exc}") from exc
    bad = ~np.isfinite(table)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ParseError(f"{path}: line {linenos[row]}: non-finite value")
    return table, linenos, raw


def load_dataset(path, skip_header=False) -> np.ndarray:
    """Read one point per CSV row, as written by `save_dataset`."""
    return _read_csv(path, skip_header)[0]

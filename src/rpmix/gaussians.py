"""Multivariate Gaussians, mixtures, and their geometry.

Everything here works in units natural to high dimension: the radius of a
Gaussian is sqrt(trace(Sigma)), eccentricity is sqrt(lambda_max/lambda_min),
and two components are c-separated when their means are at least c radii
apart (using the larger of the two radii).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Integral, Real

import numpy as np
from numpy.linalg import eigvalsh
from scipy.linalg import cholesky
from scipy.linalg.lapack import dtrtri

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    InconsistentWidthError,
    InvalidParameterError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParseError,
    RpmixError,
    TooFewComponentsError,
)

SYMMETRY_RTOL = 1e-9
CONDITION_LIMIT = 1e12

FLOAT_FMT = "%.17g"  # round-trips doubles; prints integers below 2**53 without a point


def _as_float_array(x, name, ndmin=0):
    """The one way an array argument enters the library: `x` as floats with
    at least `ndmin` axes (leading ones added, as `np.atleast_2d` adds them,
    without a copy). NaN or infinity raises NonFiniteError naming `name`, and
    a non-numeric or ragged entry InvalidParameterError."""
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} is not an array of numbers: {exc}") from exc
    # After asarray no copy is needed, so copy=False means the same in NumPy 1 and 2.
    a = np.array(a, copy=False, ndmin=ndmin)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def _is_int(value):
    """Whether `value` is an integer (a numpy integer included), not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_real(value):
    """Whether `value` is a real number (numpy's included), not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _frozen(a):
    """A read-only view of `a`. The object that keeps it shares memory with
    the array passed in, which stays writable for its owner."""
    view = a.view()
    view.setflags(write=False)
    return view


class Gaussian:
    """An n-dimensional Gaussian N(mean, covariance).

    The covariance must be symmetric (within 1e-9 relative, max-abs scale)
    and positive definite; it is symmetrized once on construction and both
    arrays are read-only views, so instances are safe to share across
    threads. The mean shares memory with the array passed in.

    An instance keeps L^-1 from its condition check (`_checked_inverse`): the
    check runs at the first density evaluation or EM read-back, and never for
    a Gaussian EM built, which carries L^-1 from EM's own check.
    """

    def __init__(self, mean, covariance):
        mean = _as_float_array(mean, "mean")
        cov = _as_float_array(covariance, "covariance")
        if mean.ndim != 1:
            raise InvalidParameterError("mean must be a vector")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise DimensionMismatchError(
                f"covariance shape {cov.shape} does not match dimension {n}"
            )
        cov = _symmetrized(cov)
        try:
            chol = cholesky(cov, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        self._set(mean, cov, chol)

    @classmethod
    def _factored(cls, mean, covariance, chol, inv):
        """A Gaussian from a finite mean, an exactly symmetric covariance, its
        lower Cholesky factor and `_checked_inverse` of the two, all computed
        by the caller (EM, which has already factored and checked every
        covariance it builds)."""
        g = cls.__new__(cls)
        g._set(mean, covariance, chol)
        g._inv = inv
        return g

    def _set(self, mean, cov, chol):
        self.mean = _frozen(mean)
        self.covariance = _frozen(cov)
        self._chol = _frozen(chol)

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def chol(self):
        """Lower-triangular Cholesky factor of the covariance."""
        return self._chol

    @cached_property
    def _inv(self):
        """L^-1 from the covariance's condition check, run once."""
        return _checked_inverse(self.covariance, self._chol)

    def __repr__(self):
        return f"Gaussian(dim={self.dim})"


class Mixture:
    """A weighted mixture of Gaussians of a common dimension. The weights are
    a read-only view sharing memory with the array passed in."""

    def __init__(self, components, weights):
        components = list(components)
        if not components:
            raise InvalidParameterError("mixture needs at least one component")
        n = components[0].dim
        for g in components:
            if g.dim != n:
                raise DimensionMismatchError("components have differing dimensions")
        w = _as_float_array(weights, "weights")
        if w.shape != (len(components),):
            raise InvalidParameterError("one weight per component required")
        if np.any(w <= 0):
            raise InvalidParameterError("weights must all be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidParameterError(f"weights sum to {w.sum()!r}, not 1")
        self.components = tuple(components)
        self.weights = _frozen(w)

    @property
    def k(self):
        return len(self.components)

    @property
    def dim(self):
        return self.components[0].dim

    @property
    def means(self):
        return np.array([g.mean for g in self.components])

    def __repr__(self):
        return f"Mixture(k={self.k}, dim={self.dim})"


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # sorted ascending
    eccentricity: float
    trace: float


def _symmetrized(cov):
    """(cov + cov^T) / 2 of a square matrix symmetric within SYMMETRY_RTOL of
    its largest entry; NotPositiveDefiniteError otherwise, and NonFiniteError
    where the sum overflows."""
    scale = np.max(np.abs(cov)) if cov.size else 0.0
    with np.errstate(over="ignore"):
        asym = np.max(np.abs(cov - cov.T)) if cov.size else 0.0
        sym = (cov + cov.T) / 2.0
    if scale > 0 and asym > SYMMETRY_RTOL * scale:
        raise NotPositiveDefiniteError(
            f"covariance is not symmetric (asymmetry {asym:.3g} at scale {scale:.3g})"
        )
    if not np.all(np.isfinite(sym)):
        raise NonFiniteError("covariance overflows when symmetrized")
    return sym


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
    inv_sq = np.einsum("ij,ij->", inv, inv)
    if info != 0 or not np.isfinite(inv_sq):
        raise IllConditionedError("covariance inverse has a non-finite trace")
    with np.errstate(over="ignore"):  # tr(Sigma) * tr(Sigma^-1)
        bound = np.trace(cov) * inv_sq
    if not bound < CONDITION_LIMIT / 10:
        lam = eigvalsh(cov)
        cond = lam[-1] / lam[0] if lam[0] > 0 else np.inf
        if cond >= CONDITION_LIMIT:
            raise IllConditionedError(
                f"covariance condition number {cond:.3g} >= {CONDITION_LIMIT:g}"
            )
    return inv


def _quad_forms(inv, points, means):
    """||L^-1 (x_j - mu_i)||^2 for each point x_j and each mean mu_i sharing L.

    The points and the means, centred by the points' mean, take one product
    with L^-1, giving y_j and m_i; like a solve, it errs with kappa(L) =
    sqrt(kappa(Sigma)) (Higham 2002, ch. 8 and 14). The form is expanded as
    ||y_j - m_i||^2 = ||y_j||^2 - 2 m_i^T y_j + ||m_i||^2: one norm pass over
    the points and one (points x n)(n x means) product, not one
    difference pass per mean. The expansion loses about
    eps * (||y_j||^2 + ||m_i||^2) to cancellation. Centring by the points'
    mean keeps both norms of the order of the quadratic forms themselves;
    points far from the origin would make them arbitrarily larger.
    """
    rhs = np.concatenate([points, means])
    rhs -= points.mean(axis=0)
    y, mu = np.split(rhs @ inv.T, [len(points)])
    return np.einsum("ij,ij->i", y, y)[:, None] - 2.0 * (y @ mu.T) + np.einsum("ij,ij->i", mu, mu)


def _log_normalizer(chol):
    """-(n log 2 pi + log det Sigma) / 2 for Sigma = L L^T, the log-density's
    constant, evaluated as -n log(2 pi) / 2 - log det Sigma / 2."""
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * chol.shape[0] * np.log(2.0 * np.pi) - 0.5 * log_det


def _quad_to_mean(g: Gaussian, x, name, ndmin):
    """`g`'s quadratic form at the point (ndmin 0) or rows (ndmin 2) of `x`,
    gated as `name`, dimension-checked and after `g`'s condition check."""
    pts = _as_float_array(x, name, ndmin=ndmin)
    if pts.ndim != max(ndmin, 1) or pts.shape[-1] != g.dim:
        raise DimensionMismatchError(f"{name} has shape {pts.shape}, expected dimension {g.dim}")
    return _quad_forms(g._inv, pts.reshape(-1, g.dim), g.mean[None])[:, 0]


def log_density(g: Gaussian, x) -> float:
    """Log of the Gaussian density at a single point x."""
    quad = _quad_to_mean(g, x, "x", 0)[0]
    return float(_log_normalizer(g.chol) - 0.5 * quad)


def log_density_batch(g: Gaussian, points) -> np.ndarray:
    """Log-density at every row of a dataset; one product with L^-1."""
    quad = _quad_to_mean(g, points, "points", 2)
    return _log_normalizer(g.chol) - 0.5 * quad


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
    return float(np.sqrt(np.trace(g.covariance)))


def pairwise_separation(g1: Gaussian, g2: Gaussian) -> float:
    """Mean distance in units of the larger trace-radius."""
    if g1.dim != g2.dim:
        raise DimensionMismatchError("Gaussians have differing dimensions")
    denom = np.sqrt(max(np.trace(g1.covariance), np.trace(g2.covariance)))
    return float(np.linalg.norm(g1.mean - g2.mean) / denom)


def mixture_separation(m: Mixture) -> float:
    """Minimum pairwise separation over all component pairs."""
    if m.k < 2:
        raise TooFewComponentsError("separation needs at least two components")
    return min(
        pairwise_separation(a, b) for a, b in combinations(m.components, 2)
    )


def _labelled_draw(m: Mixture, count: int, rng):
    """Component indices and `count` i.i.d. points drawn with the generator `rng`."""
    if not _is_int(count):
        raise InvalidParameterError(f"count must be an int, got {count!r}")
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    comps = rng.choice(m.k, size=count, p=m.weights)
    z = rng.standard_normal((count, m.dim))
    out = np.empty((count, m.dim))
    for i, g in enumerate(m.components):
        rows = comps == i
        if np.any(rows):
            out[rows] = z[rows] @ g.chol.T + g.mean
    return comps, out


def sample(m: Mixture, count: int, seed) -> np.ndarray:
    """Draw `count` i.i.d. points from the mixture; deterministic in `seed`."""
    return _labelled_draw(m, count, np.random.default_rng(seed))[1]


def norm_tail_bound(n: int, eps: float) -> float:
    """Upper bound 2 exp(-n eps^2 / 24) on P(| ||X||^2/n - 1 | > eps), X ~ N(0, I_n)."""
    return 2.0 * np.exp(-n * eps * eps / 24.0)


# ---------------------------------------------------------------------------
# Serialization

def mixture_to_dict(m: Mixture) -> dict:
    return {
        "weights": m.weights.tolist(),
        "means": [g.mean.tolist() for g in m.components],
        "covariances": [g.covariance.tolist() for g in m.components],
    }


_MIXTURE_KEYS = ("weights", "means", "covariances")


def mixture_from_dict(doc: dict) -> Mixture:
    """The Mixture of a `mixture_to_dict` document. A document that is not a
    dict holding the lists weights, means and covariances, all of one
    length, raises ParseError."""
    if not isinstance(doc, dict):
        raise ParseError(f"a mixture document is an object, not {type(doc).__name__}")
    missing = [key for key in _MIXTURE_KEYS if not isinstance(doc.get(key), list)]
    if missing:
        raise ParseError(f"a mixture document needs the lists {', '.join(missing)}")
    lengths = [len(doc[key]) for key in _MIXTURE_KEYS]
    if len(set(lengths)) != 1:
        counts = ", ".join(f"{n} {key}" for n, key in zip(lengths, _MIXTURE_KEYS))
        raise ParseError(f"a mixture document has {counts}")
    comps = [
        Gaussian(mu, cov) for mu, cov in zip(doc["means"], doc["covariances"])
    ]
    return Mixture(comps, doc["weights"])


def save_mixture(m: Mixture, path):
    with open(path, "w") as f:
        json.dump(mixture_to_dict(m), f)


def _load_document(path, from_dict):
    """`from_dict` of the JSON document at `path`. A file that is not JSON
    raises ParseError, and an RpmixError raised while building the object is
    raised again as its own type; both messages start with `path`."""
    try:
        with open(path) as f:
            return from_dict(json.load(f))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except RpmixError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_mixture(path) -> Mixture:
    """The mixture saved at `path`. A file that is not JSON, or not a valid
    mixture document, raises an RpmixError naming `path` (ParseError for a
    malformed document)."""
    return _load_document(path, mixture_from_dict)


def save_dataset(points, path, header=None):
    """Write one point per CSV row at full double precision."""
    points = _as_float_array(points, "points", ndmin=2)
    header = "" if header is None else ",".join(header)
    np.savetxt(path, points, fmt=FLOAT_FMT, delimiter=",", header=header, comments="")


def _read_csv(path, skip_header=False):
    """A numeric CSV file as a float array, plus each row's line number.

    Blank lines are skipped. A file with no data row raises ParseError. A
    cell that is not a finite number raises ParseError, and a row narrower or
    wider than the first raises InconsistentWidthError; both name the file
    and the line.
    """
    rows, linenos = [], []
    width = None
    with open(path) as f:
        if skip_header:
            f.readline()
        for lineno, line in enumerate(f, start=2 if skip_header else 1):
            line = line.strip()
            if not line:
                continue
            try:
                values = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise InconsistentWidthError(
                    f"{path}: line {lineno}: expected {width} values, got {len(values)}"
                )
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
    bad = ~np.isfinite(table)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ParseError(f"{path}: line {linenos[row]}: non-finite value")
    return table, linenos


def load_dataset(path, skip_header=False) -> np.ndarray:
    """Read one point per CSV row, as written by `save_dataset`."""
    return _read_csv(path, skip_header)[0]

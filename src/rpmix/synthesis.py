"""Synthetic mixture construction with controlled separation and eccentricity.

Covariances of eccentricity E are built by drawing the square roots of
their eigenvalues uniformly from [1, E] with the endpoints 1 and E always
included. Centers are packed as tightly as the c-separation requirement
allows, with every pair exactly c*max(r_i, r_j) apart: classical MDS of
that distance table gives them in k-1 dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    BadDimsError,
    BadSeparationError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    PackingError,
    TooManyComponentsError,
    _ParameterEnum,
)
from .gaussians import (
    Mixture, _as_float_array, _checked_mixture, _int_at_least, _is_real, _seed_children,
    _seed_sequence,
)
from .projection import _haar_orthogonal, random_orthonormal


class CovarianceMode(_ParameterEnum):
    SPHERICAL_SHARED = "spherical-shared"
    DIAGONAL_DISTINCT = "diagonal-distinct"
    ROTATED_DISTINCT = "rotated-distinct"
    FULL_SHARED = "full-shared"


@dataclass(frozen=True)
class MixtureSpec:
    n: int
    k: int
    c: float
    E: float = 1.0
    covariance_mode: CovarianceMode = CovarianceMode.SPHERICAL_SHARED
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "covariance_mode", CovarianceMode(self.covariance_mode))
        _int_at_least(self.n, "dimension n", 1)
        _int_at_least(self.k, "k", 2)
        if not _is_real(self.E) or not 1 <= self.E < np.inf:
            raise InvalidParameterError(f"eccentricity must be finite and >= 1, got {self.E!r}")
        if not _is_real(self.c) or not 0 <= self.c < np.inf:
            raise InvalidParameterError(f"separation must be finite and >= 0, got {self.c!r}")
        _seed_sequence(self.seed)  # raises InvalidParameterError on a bad seed


def eccentric_covariance(n: int, E: float, mode: CovarianceMode, seed) -> np.ndarray:
    """Covariance with eccentricity exactly E.

    Square-rooted eigenvalues: one pinned to 1, one to E (at random
    positions), the remaining n-2 uniform on [1, E]. Diagonal mode places
    them on the diagonal in random order; rotated/full modes conjugate by a
    random orthogonal matrix.
    """
    n = _int_at_least(n, "n", 1)
    mode = CovarianceMode(mode)
    rng = np.random.default_rng(_seed_sequence(seed))
    if E == 1.0 or mode is CovarianceMode.SPHERICAL_SHARED:
        if E != 1.0:
            raise BadDimsError("spherical mode requires E = 1")
        return np.eye(n)
    if n < 2:
        raise BadDimsError("eccentricity > 1 needs dimension >= 2")
    _check_eccentricity(E, n)
    roots = rng.uniform(1.0, E, size=n)
    pin = rng.choice(n, size=2, replace=False)
    roots[pin[0]] = 1.0
    roots[pin[1]] = E
    eigs = roots**2
    if mode is CovarianceMode.DIAGONAL_DISTINCT:
        return np.diag(eigs)
    q = _haar_orthogonal(rng.standard_normal((n, n)))
    return (q * eigs) @ q.T


def _check_eccentricity(E, n):
    """Reject an E below 1, or one so large that n * E**2, which bounds the
    trace of an n-dim covariance of eccentricity E, is not finite."""
    if not _is_real(E) or not 1 <= E <= np.sqrt(np.finfo(float).max / n):
        raise InvalidParameterError(
            f"eccentricity E must be >= 1 and keep n * E**2 finite (n={n}), got {E}"
        )


def packed_centers(k: int, n: int, c: float, radii, seed) -> np.ndarray:
    """k centers in R^n with every pair at distance exactly c*max(r_i, r_j).

    These targets T form an ultrametric, which embeds isometrically in
    R^(k-1) (Lemin 1985). Classical MDS (Torgerson 1952) recovers it: the
    rows of u sqrt(lambda) over the top k-1 eigenpairs of B = -J (T o T) J / 2,
    J the centring matrix, placed in a uniformly random subspace of R^n.
    T is scaled by a power of two first, so no square overflows and nothing
    is rounded. A distance off by over 1e-6 relative raises PackingError.
    """
    k, n = _int_at_least(k, "k", 1), _int_at_least(n, "n", 1)
    seed = _seed_sequence(seed)
    if not _is_real(c) or not 0 < c < np.inf:
        raise BadSeparationError(f"separation c must be finite and > 0, got {c!r}")
    if k > n + 1:
        raise TooManyComponentsError(f"k centers need k <= n+1 dimensions, got k={k}, n={n}")
    radii = _as_float_array(radii, "radii")
    if radii.shape != (k,):
        raise InvalidParameterError("need one radius per component")
    if not np.all(radii > 0):
        raise InvalidParameterError(f"radii must all be positive, got {radii.min():g}")
    if k == 1:
        return np.zeros((1, n))
    with np.errstate(over="ignore"):
        targets = c * np.maximum.outer(radii, radii)
    if not np.all((targets > 0) & (targets < np.inf)):
        raise BadSeparationError(f"c={c!r} times a radius is not a positive finite number")
    np.fill_diagonal(targets, 0.0)
    scale = np.ldexp(1.0, np.frexp(targets.max())[1] - 1)  # in (max/2, max], so finite
    sq = (targets / scale) ** 2
    B = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
    lam, vecs = eigh(B, subset_by_index=[1, k - 1])
    coords = vecs * np.sqrt(np.maximum(lam, 0.0))

    # Every distance at once, from the Gram matrix of the coordinates.
    gram = coords @ coords.T
    i, j = np.triu_indices(k, 1)
    dist = np.sqrt(np.maximum(gram[i, i] + gram[j, j] - 2.0 * gram[i, j], 0.0)) * scale
    err = np.abs(dist - targets[i, j])
    bad = np.flatnonzero(err > 1e-6 * targets[i, j])
    if bad.size:
        p = bad[0]
        raise PackingError(f"pair ({i[p]},{j[p]}) misses its distance target by {err[p]:.3g}")

    basis = random_orthonormal(n, k - 1, np.random.default_rng(seed).integers(0, 2**63)).rows
    return (coords * scale) @ basis


def mixing_weights(k: int, seed) -> np.ndarray:
    """Near-uniform weights: i.i.d. uniform on [1/2k, 3/2k], renormalized."""
    k = _int_at_least(k, "k", 1)
    rng = np.random.default_rng(_seed_sequence(seed))
    w = rng.uniform(1.0 / (2 * k), 3.0 / (2 * k), size=k)
    return w / w.sum()


def long_axis_mixture(n: int, k: int, c: float, E: float, d: int, seed):
    """k diagonal Gaussians in R^n sharing d long axes, centers off those axes.

    Every component has variance E**2 on the same d coordinate axes, chosen
    at random. On the other n - d axes each component draws its own spectrum
    from `eccentric_covariance` at eccentricity sqrt(E), so its variances run
    from 1 to E**2 and its eccentricity is exactly E. The centers are packed
    by `packed_centers` inside the span of the short axes, every pair exactly
    c-separated in R^n.

    The mixture is built for PCA to d dimensions to fail: PCA keeps the d
    long axes, and the centers project to a point, when the long-axis
    variance E**2 exceeds the mixture's variance along every direction of
    the short-axis span (the within-cluster variance plus the weighted
    between-center scatter). The built mixture is checked for that, and
    BadSeparationError is raised when (n, k, c, E, d) cannot meet it.

    `seed` is an int >= 0 or a SeedSequence; the axes, centers, weights and
    each covariance draw from their own children of it. Returns (mixture,
    long_axes), the latter the sorted indices of the shared long axes.
    """
    n, k, d = (_int_at_least(v, name, 1) for v, name in ((n, "n"), (k, "k"), (d, "d")))
    if not 1 <= d <= n - 2:
        raise BadDimsError(f"need 1 <= d <= n - 2 long axes, got d={d}, n={n}")
    _check_eccentricity(E, n)
    axes_seed, center_seed, weight_seed, *cov_seeds = _seed_children(seed, k + 3)
    long_axes = np.sort(
        np.random.default_rng(axes_seed).choice(n, size=d, replace=False)
    )
    short_axes = np.setdiff1d(np.arange(n), long_axes)
    variances = np.empty((k, n))
    variances[:, long_axes] = E**2
    for i, s in enumerate(cov_seeds):
        variances[i, short_axes] = np.diag(
            eccentric_covariance(
                n - d, np.sqrt(E), CovarianceMode.DIAGONAL_DISTINCT, s
            )
        )
    radii = np.sqrt(variances.sum(axis=1))
    short_centers = packed_centers(k, n - d, c, radii, center_seed)
    weights = mixing_weights(k, weight_seed)

    offsets = short_centers - weights @ short_centers
    short_cov = np.diag(weights @ variances[:, short_axes]) + (
        offsets.T * weights
    ) @ offsets
    top_short = np.linalg.eigvalsh(short_cov)[-1]
    if not top_short < E**2:
        raise BadSeparationError(
            f"the short-axis span has variance {top_short:.4g} >= the long-axis "
            f"variance {E**2:.4g}, so PCA to {d} dims would keep the centers"
        )
    centers = np.zeros((k, n))
    centers[:, short_axes] = short_centers
    covs = [np.diag(v) for v in variances]
    return _checked_mixture(weights, centers, covs, np.arange(k)), long_axes


def make_mixture(spec: MixtureSpec) -> Mixture:
    """Assemble the full synthetic mixture described by `spec`. A covariance
    that does not factor raises NotPositiveDefiniteError naming the mode and
    E: past E = 1e8 or so, rounding can leave one with no Cholesky factor."""
    *cov_seeds, center_seed, weight_seed = _seed_children(spec.seed, spec.k + 2)
    mode = spec.covariance_mode
    if mode in (CovarianceMode.SPHERICAL_SHARED, CovarianceMode.FULL_SHARED):
        cov_seeds = cov_seeds[:1]
    covs = [eccentric_covariance(spec.n, spec.E, mode, s) for s in cov_seeds]
    owner = np.arange(spec.k) % len(covs)  # one shared covariance, or one each
    radii = np.sqrt([np.trace(cov) for cov in covs])[owner]
    centers = packed_centers(spec.k, spec.n, spec.c, radii, center_seed)
    weights = mixing_weights(spec.k, weight_seed)
    try:
        return _checked_mixture(weights, centers, covs, owner)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"{mode.value} covariance at E={spec.E:g}: {exc}") from exc

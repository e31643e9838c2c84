"""Synthetic mixture construction with controlled separation and eccentricity.

Covariances of eccentricity E are built by drawing the square roots of
their eigenvalues uniformly from [1, E] with the endpoints 1 and E always
included. Centers are packed as tightly as the c-separation requirement
allows: a regular simplex with every pairwise constraint tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    BadDimsError,
    BadSeparationError,
    InvalidParameterError,
    PackingError,
    TooManyComponentsError,
    _ParameterEnum,
)
from .gaussians import Gaussian, Mixture, _as_float_array, _is_int, _is_real
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
        if not _is_int(self.n) or self.n < 1:
            raise InvalidParameterError(f"dimension n must be an int >= 1, got {self.n!r}")
        if not _is_int(self.k) or self.k < 2:
            raise InvalidParameterError(f"k must be an int >= 2, got {self.k!r}")
        if not _is_real(self.E) or not 1 <= self.E < np.inf:
            raise InvalidParameterError(f"eccentricity must be finite and >= 1, got {self.E!r}")
        if not _is_real(self.c) or not 0 <= self.c < np.inf:
            raise InvalidParameterError(f"separation must be finite and >= 0, got {self.c!r}")


def eccentric_covariance(n: int, E: float, mode: CovarianceMode, seed) -> np.ndarray:
    """Covariance with eccentricity exactly E.

    Square-rooted eigenvalues: one pinned to 1, one to E (at random
    positions), the remaining n-2 uniform on [1, E]. Diagonal mode places
    them on the diagonal in random order; rotated/full modes conjugate by a
    random orthogonal matrix.
    """
    _check_sizes(n=n)
    mode = CovarianceMode(mode)
    rng = np.random.default_rng(seed)
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


def _check_sizes(**sizes):
    """Reject a size argument that is not an int >= 1 (numpy integers pass)."""
    for name, value in sizes.items():
        if not _is_int(value) or value < 1:
            raise InvalidParameterError(f"{name} must be an int >= 1, got {value!r}")


def _check_eccentricity(E, n):
    """Reject an E below 1, or one so large that n * E**2, which bounds the
    trace of an n-dim covariance of eccentricity E, is not finite."""
    if not _is_real(E) or not 1 <= E <= np.sqrt(np.finfo(float).max / n):
        raise InvalidParameterError(
            f"eccentricity E must be >= 1 and keep n * E**2 finite (n={n}), got {E}"
        )


def packed_centers(k: int, n: int, c: float, radii, seed) -> np.ndarray:
    """k centers in R^n with every pair at distance exactly c*max(r_i, r_j).

    Built as a regular (k-1)-simplex in a uniformly random (k-1)-dimensional
    subspace; unequal radii are handled by iterative pairwise repair of the
    simplex shape.
    """
    _check_sizes(k=k, n=n)
    if not _is_real(c) or not 0 < c < np.inf:
        raise BadSeparationError(f"separation c must be finite and > 0, got {c!r}")
    if k > n + 1:
        raise TooManyComponentsError(
            f"simplex packing needs k <= n+1, got k={k}, n={n}"
        )
    radii = _as_float_array(radii, "radii")
    if radii.shape != (k,):
        raise InvalidParameterError("need one radius per component")
    if k == 1:
        return np.zeros((1, n))
    targets = np.zeros((k, k))
    for i, j in combinations(range(k), 2):
        targets[i, j] = targets[j, i] = c * max(radii[i], radii[j])

    # Regular unit-edge simplex coordinates in R^(k-1): center the standard
    # basis of R^k and rotate onto its (k-1)-dim span.
    verts = np.eye(k) - np.full((k, k), 1.0 / k)
    u, s, _ = np.linalg.svd(verts, full_matrices=False)
    coords = (u[:, : k - 1] * s[: k - 1]) / np.sqrt(2.0)  # unit edges

    rng = np.random.default_rng(seed)
    coords = coords * targets[targets > 0].mean()
    if not np.allclose(radii, radii[0]):
        for _ in range(200):
            worst = 0.0
            for i, j in combinations(range(k), 2):
                diff = coords[i] - coords[j]
                dist = np.linalg.norm(diff)
                t = targets[i, j]
                worst = max(worst, abs(dist - t) / t)
                step = 0.5 * (dist - t) / dist
                coords[i] -= step * diff
                coords[j] += step * diff
            if worst < 1e-9:
                break
    else:
        coords = coords / np.linalg.norm(coords[0] - coords[1]) * targets[0, 1]

    for i, j in combinations(range(k), 2):
        err = abs(np.linalg.norm(coords[i] - coords[j]) - targets[i, j])
        if err > 1e-6 * targets[i, j]:
            raise PackingError(
                f"pair ({i},{j}) misses its distance target by {err:.3g}"
            )

    basis = random_orthonormal(n, k - 1, rng.integers(0, 2**63)).rows
    return coords @ basis


def mixing_weights(k: int, seed) -> np.ndarray:
    """Near-uniform weights: i.i.d. uniform on [1/2k, 3/2k], renormalized."""
    if not _is_int(k) or k < 1:
        raise InvalidParameterError(f"k must be an int >= 1, got {k!r}")
    rng = np.random.default_rng(seed)
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

    `seed` is an int or a SeedSequence; the axes, centers, weights and each
    covariance draw from their own children of it. Returns (mixture,
    long_axes), the latter the sorted indices of the shared long axes.
    """
    _check_sizes(n=n, k=k, d=d)
    if not 1 <= d <= n - 2:
        raise BadDimsError(f"need 1 <= d <= n - 2 long axes, got d={d}, n={n}")
    _check_eccentricity(E, n)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    axes_seed, center_seed, weight_seed, *cov_seeds = seed.spawn(k + 3)
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
    comps = [Gaussian(mu, np.diag(v)) for mu, v in zip(centers, variances)]
    return Mixture(comps, weights), long_axes


def make_mixture(spec: MixtureSpec) -> Mixture:
    """Assemble the full synthetic mixture described by `spec`."""
    ss = np.random.SeedSequence(spec.seed)
    cov_seeds, center_seed, weight_seed = ss.spawn(spec.k), *ss.spawn(2)
    mode = spec.covariance_mode
    if mode in (CovarianceMode.SPHERICAL_SHARED, CovarianceMode.FULL_SHARED):
        shared = eccentric_covariance(spec.n, spec.E, mode, cov_seeds[0])
        covs = [shared] * spec.k
    else:
        covs = [
            eccentric_covariance(spec.n, spec.E, mode, s) for s in cov_seeds
        ]
    radii = np.sqrt([np.trace(cov) for cov in covs])
    centers = packed_centers(spec.k, spec.n, spec.c, radii, center_seed)
    weights = mixing_weights(spec.k, weight_seed)
    comps = [Gaussian(mu, cov) for mu, cov in zip(centers, covs)]
    return Mixture(comps, weights)

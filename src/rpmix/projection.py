"""Linear dimension-reduction maps: random projections and PCA.

A projection is a d x n matrix applied on the left (x -> A x). The
orthonormal generator orthonormalizes i.i.d. N(0,1) rows by sign-fixed
Householder QR (a Haar-random span); the cheaper uniform generator draws
entries from [-1, 1] and skips that. PCA picks the top variance directions:
the top-d eigenvectors of the centered data's Gram matrix, of which `eigh`
computes just those d (a thin SVD would also build the m x n left factor,
which PCA discards). The data is first divided by its largest absolute
entry, so the Gram matrix cannot overflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    BadDimsError,
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    ParseError,
    _ParameterEnum,
)
from .gaussians import (
    Gaussian, Mixture, _as_float_array, _checked_mixture, _file_name, _frozen, _is_int,
    _load_document, _of_type, _one_component, _seed_sequence,
)

ORTHONORMALITY_TOL = 1e-9


class ProjectionKind(_ParameterEnum):
    ORTHONORMAL_RP = "orthonormal-rp"
    UNIFORM_RP = "uniform-rp"
    PCA = "pca"


def _check_target_dim(d, n):
    if not (_is_int(d) and _is_int(n)):
        raise InvalidParameterError(f"d and n must be ints, got d={d!r}, n={n!r}")
    if d < 1 or d > n:
        raise BadDimsError(f"need 1 <= d <= n, got d={d}, n={n}")


@dataclass(frozen=True)
class ProjectionMatrix:
    """A d x n projection. Its rows are a read-only view: the matrix shares
    memory with the array passed in, which stays writable."""

    rows: np.ndarray  # d x n
    kind: ProjectionKind

    def __post_init__(self):
        object.__setattr__(self, "kind", ProjectionKind(self.kind))
        rows = _as_float_array(self.rows, "rows")
        if rows.ndim != 2:
            raise BadDimsError("projection rows must form a 2-D matrix")
        d, n = rows.shape
        _check_target_dim(d, n)
        if self.kind in (ProjectionKind.ORTHONORMAL_RP, ProjectionKind.PCA):
            gram_err = np.max(np.abs(rows @ rows.T - np.eye(d)))
            if gram_err > ORTHONORMALITY_TOL:
                raise BadDimsError(
                    f"rows are not orthonormal (max |AA^T - I| = {gram_err:.3g})"
                )
        object.__setattr__(self, "rows", _frozen(rows))

    @property
    def source_dim(self):
        return self.rows.shape[1]

    @property
    def target_dim(self):
        return self.rows.shape[0]


def _haar_orthogonal(gauss):
    """Q of the Householder QR of `gauss`, column signs set so R's diagonal is
    positive: for i.i.d. N(0,1) entries Q is then Haar-distributed (Mezzadri,
    "How to generate random matrices from the classical compact groups", 2007).
    """
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def random_orthonormal(n: int, d: int, seed) -> ProjectionMatrix:
    """Rows spanning a Haar-random d-dimensional subspace of R^n: the rows of
    a d x n N(0,1) draw, orthonormalized as Gram-Schmidt would, by QR."""
    _check_target_dim(d, n)
    rng = np.random.default_rng(_seed_sequence(seed))
    rows = _haar_orthogonal(rng.standard_normal((d, n)).T).T
    return ProjectionMatrix(rows, ProjectionKind.ORTHONORMAL_RP)


def random_uniform(n: int, d: int, seed) -> ProjectionMatrix:
    """Entries i.i.d. uniform on [-1, 1], scaled by sqrt(3/n).

    The scaling makes E||Av||^2 = d/n for unit v, matching the orthonormal
    generator; no orthonormalization is performed.
    """
    _check_target_dim(d, n)
    rng = np.random.default_rng(_seed_sequence(seed))
    entries = rng.uniform(-1.0, 1.0, size=(d, n)) * np.sqrt(3.0 / n)
    return ProjectionMatrix(entries, ProjectionKind.UNIFORM_RP)


def pca(data, d: int) -> ProjectionMatrix:
    """Top-d principal directions of the (centered) data: the eigenvectors of
    the d largest eigenvalues of its Gram matrix X^T X, from `eigh`.

    The centered data is first divided by its largest absolute entry. That
    leaves the eigenvectors unchanged and every Gram entry at most m in size,
    so the Gram matrix is finite for any finite data; data whose centering
    overflows raises NonFiniteError. Rows are ordered by descending captured
    variance; each row's first nonzero coordinate is made positive so outputs
    are reproducible.
    """
    data = _as_float_array(data, "data", ndmin=2)
    m, n = data.shape
    _check_target_dim(d, n)
    if m < d + 1:
        raise NotEnoughDataError(f"PCA to {d} dims needs at least {d + 1} rows, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=0)
    scale = np.max(np.abs(centered))
    if not np.isfinite(scale):
        raise NonFiniteError("data overflows when centred")
    centered /= scale or 1.0  # constant data centers to zero
    _, vecs = eigh(centered.T @ centered, subset_by_index=[n - d, n - 1])
    rows = vecs[:, ::-1].T.copy()
    first = np.argmax(np.abs(rows) > 1e-12, axis=1)  # each row has unit norm
    rows[rows[np.arange(d), first] < 0] *= -1.0
    return ProjectionMatrix(rows, ProjectionKind.PCA)


def project_data(p: ProjectionMatrix, data) -> np.ndarray:
    """The rows of `data` mapped by `p`. A point whose image lies past the
    double range raises NonFiniteError naming the point: no rescale can help,
    as the projected value itself is out of range."""
    p = _of_type(p, "p", ProjectionMatrix)
    data = _as_float_array(data, "data", ndmin=2)
    if data.shape[1] != p.source_dim:
        raise DimensionMismatchError(
            f"data dimension {data.shape[1]} != source dimension {p.source_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        projected = data @ p.rows.T
    finite = np.isfinite(projected).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"point {np.argmin(finite)} projects past the double range")
    return projected


def project_gaussian(p: ProjectionMatrix, g: Gaussian) -> Gaussian:
    return project_mixture(p, _one_component(g)).components[0]


def project_mixture(p: ProjectionMatrix, m: Mixture) -> Mixture:
    """The image of `m` under `p`: each mean mapped on its own, and each
    distinct covariance mapped and factored once."""
    p, m = _of_type(p, "p", ProjectionMatrix), _of_type(m, "m", Mixture)
    if m.dim != p.source_dim:
        raise DimensionMismatchError(
            f"mixture dimension {m.dim} != source dimension {p.source_dim}"
        )
    means = np.array([p.rows @ mu for mu in m.means])
    covs = [p.rows @ cov @ p.rows.T for cov in m._covs]
    return _checked_mixture(m.weights, means, covs, m._owner)


# ---------------------------------------------------------------------------
# Serialization

def projection_to_dict(p: ProjectionMatrix) -> dict:
    p = _of_type(p, "p", ProjectionMatrix)
    return {
        "kind": p.kind.value,
        "source_dim": p.source_dim,
        "target_dim": p.target_dim,
        "rows": p.rows.tolist(),
    }


_PROJECTION_KEYS = ("kind", "source_dim", "target_dim", "rows")


def projection_from_dict(doc: dict) -> ProjectionMatrix:
    """The ProjectionMatrix of a `projection_to_dict` document. A document
    that is not a dict holding every key, or names no known kind, raises
    ParseError."""
    if not isinstance(doc, dict):
        raise ParseError(f"a projection document is an object, not {type(doc).__name__}")
    missing = [key for key in _PROJECTION_KEYS if key not in doc]
    if missing:
        raise ParseError(f"a projection document needs the keys {', '.join(missing)}")
    try:
        kind = ProjectionKind(doc["kind"])
    except ValueError as exc:
        raise ParseError(f"unknown projection kind {doc['kind']!r}") from exc
    p = ProjectionMatrix(doc["rows"], kind)
    if p.source_dim != doc["source_dim"] or p.target_dim != doc["target_dim"]:
        raise BadDimsError("declared dims do not match the stored matrix")
    return p


def save_projection(p: ProjectionMatrix, path):
    doc = projection_to_dict(p)
    with open(_file_name(path), "w") as f:
        json.dump(doc, f)


def load_projection(path) -> ProjectionMatrix:
    """The projection saved at `path`. A file that is not JSON, or not a
    valid projection document, raises an RpmixError naming `path`
    (ParseError for a malformed document)."""
    return _load_document(path, projection_from_dict)

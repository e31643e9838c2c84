import json
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtri

from rpmix import (
    Gaussian,
    Mixture,
    ingest,
    load_dataset,
    load_mixture,
    log_density,
    mahalanobis,
    mixture_separation,
    norm_tail_bound,
    pairwise_separation,
    radius,
    sample,
    save_dataset,
    save_mixture,
    spectral_summary,
)
from rpmix.errors import (
    DimensionMismatchError,
    IllConditionedError,
    InconsistentWidthError,
    InvalidParameterError,
    NonFiniteError,
    NotPositiveDefiniteError,
    ParseError,
    TooFewComponentsError,
)
from rpmix import gaussians
from rpmix.gaussians import _quad_forms, _Workspace, log_density_batch
from rpmix.projection import project_gaussian, project_mixture, random_orthonormal
from rpmix.synthesis import CovarianceMode, MixtureSpec, make_mixture


def random_rotation(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestCholesky:
    """`gaussians._cholesky` calls LAPACK's `dpotrf` itself; it keeps the
    factor, the errors and the message of scipy's `cholesky`."""

    @pytest.mark.parametrize("n", [1, 3, 40, 200])
    def test_factor_is_scipy_cholesky_bit_for_bit(self, n):
        a = np.random.default_rng(n).standard_normal((n + 5, n))
        cov = a.T @ a / (n + 5)
        cov = (cov + cov.T) / 2.0
        assert np.array_equal(gaussians._cholesky(cov), cholesky(cov, lower=True))

    def test_second_leading_minor_is_named(self):
        cov = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError,
                           match="^2-th leading minor of the array is not positive definite$"):
            gaussians._cholesky(cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_overflows(self, bad):
        cov = np.eye(3)
        cov[2, 1] = cov[1, 2] = bad
        with pytest.raises(NonFiniteError, match="^covariance overflows$"):
            gaussians._cholesky(cov)


class TestGaussianConstruction:
    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            Gaussian([0.0, 0.0], cov)

    def test_symmetrizes_tiny_asymmetry(self):
        cov = np.array([[1.0, 0.3 + 1e-13], [0.3, 1.0]])
        g = Gaussian([0.0, 0.0], cov)
        assert np.array_equal(g.covariance, g.covariance.T)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(NotPositiveDefiniteError):
            Gaussian([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(NonFiniteError, match="mean contains non-finite"):
            Gaussian([0.0, bad], np.eye(2))
        with pytest.raises(NonFiniteError, match="covariance contains non-finite"):
            Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, bad]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Gaussian([0.0, 0.0, 0.0], np.eye(2))

    def test_arrays_are_frozen(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            g.mean[0] = 1.0
        with pytest.raises(ValueError):
            g.covariance[0, 0] = 2.0

    def test_mixture_weight_validation(self):
        comps = [Gaussian(np.zeros(2), np.eye(2)) for _ in range(2)]
        with pytest.raises(ValueError):
            Mixture(comps, [0.5, 0.6])
        with pytest.raises(ValueError):
            Mixture(comps, [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            Mixture([comps[0], Gaussian(np.zeros(3), np.eye(3))], [0.5, 0.5])

    def test_repr_names_the_class_its_count_and_dimension(self):
        g = Gaussian(np.zeros(3), np.eye(3))
        mix = Mixture([g, Gaussian(np.ones(3), 2.0 * np.eye(3))], [0.25, 0.75])
        assert repr(g) == "Gaussian(k=1, dim=3)"
        assert repr(mix.components[1]) == "Gaussian(k=1, dim=3)"
        assert repr(mix) == "Mixture(k=2, dim=3)"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Gaussian(np.zeros(0), np.zeros((0, 0))),
            lambda: gaussians.mixture_from_dict({"weights": [1.0], "means": [[]], "covariances": [[]]}),
        ],
        ids=["Gaussian", "mixture_from_dict"],
    )
    def test_rejects_dimension_zero(self, build):
        with pytest.raises(InvalidParameterError, match="needs dimension >= 1, got 0"):
            build()


ONE = Gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
OTHER = Gaussian([4.0, 0.5], np.eye(2))


def projected(g):
    h = project_gaussian(random_orthonormal(2, 1, 0), g)
    return np.concatenate([h.mean, h.covariance.ravel()])


# function -> call with a Gaussian argument `g`, giving numbers
SINGLE_GAUSSIAN_CALLS = {
    "log_density": lambda g: log_density(g, [0.5, 0.5]),
    "log_density_batch": lambda g: log_density_batch(g, [[0.5, 0.5], [3.0, -1.0]]),
    "mahalanobis": lambda g: mahalanobis(g, [0.5, 0.5]),
    "radius": radius,
    "pairwise_separation": lambda g: pairwise_separation(g, OTHER),
    "project_gaussian": projected,
}


class TestGaussianArgument:
    """A function of one Gaussian takes a one-component Mixture (a Gaussian
    is one) and rejects anything else with an InvalidParameterError naming
    the argument."""

    @pytest.mark.parametrize(
        "bad",
        [Mixture([ONE, OTHER, ONE], [0.2, 0.3, 0.5]), np.zeros((2, 2))],
        ids=["three-components", "ndarray"],
    )
    @pytest.mark.parametrize("name", SINGLE_GAUSSIAN_CALLS)
    def test_rejects_anything_but_one_component(self, name, bad):
        with pytest.raises(InvalidParameterError, match=r"^g1? must be a Gaussian \(a one-component Mixture\), got"):
            SINGLE_GAUSSIAN_CALLS[name](bad)

    @pytest.mark.parametrize("name", SINGLE_GAUSSIAN_CALLS)
    def test_one_component_mixture_is_its_gaussian(self, name):
        call = SINGLE_GAUSSIAN_CALLS[name]
        assert np.array_equal(call(Mixture([ONE], [1.0])), call(ONE))

    def test_second_gaussian_of_a_pair_is_named(self):
        with pytest.raises(InvalidParameterError, match="^g2 must be a Gaussian"):
            pairwise_separation(ONE, Mixture([ONE, OTHER], [0.5, 0.5]))


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        g = Gaussian([0.0], [[1.0]])
        assert log_density(g, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)

    def test_diagonal_matches_univariate_product(self):
        # Independent coordinates: joint log-density is the sum of scalar ones.
        g = Gaussian([1.0, -2.0], np.diag([4.0, 0.25]))
        x = np.array([2.5, -1.0])
        expected = stats.norm.logpdf(x[0], 1.0, 2.0) + stats.norm.logpdf(x[1], -2.0, 0.5)
        assert log_density(g, x) == pytest.approx(expected, rel=1e-12)

    def test_integrates_to_one_1d(self):
        g = Gaussian([0.7], [[2.25]])
        total, _ = integrate.quad(lambda x: math.exp(log_density(g, [x])), 0.7 - 12, 0.7 + 12)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_integrates_to_one_2d(self):
        g = Gaussian([0.0, 0.0], np.array([[1.0, 0.4], [0.4, 0.8]]))
        total, _ = integrate.dblquad(
            lambda y, x: math.exp(log_density(g, [x, y])), -8, 8, -8, 8
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        g = Gaussian(rng.standard_normal(3), cov)
        pts = rng.standard_normal((7, 3))
        batch = log_density_batch(g, pts)
        for i, p in enumerate(pts):
            assert batch[i] == pytest.approx(log_density(g, p), rel=1e-13)

    def test_ill_conditioned_rejected(self):
        g = Gaussian(np.zeros(2), np.diag([1.0, 1e13]))
        with pytest.raises(IllConditionedError):
            log_density(g, np.zeros(2))


def _solved_norms(chol, rows, center):
    """||L^-1 (r - center)||^2 of every row r, in difference form."""
    return np.sum(solve_triangular(chol, (rows - center).T, lower=True) ** 2, axis=0)


class TestQuadFormKernel:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 30),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        offset_exp=st.integers(0, 9),
        scale_exp=st.integers(-3, 3),
    )
    def test_expansion_within_cancellation_bound(self, n, m, k, seed, offset_exp, scale_exp):
        """The kernel agrees with the difference form ||L^-1 (x_j - mu_i)||^2
        within c * eps * (||y_j||^2 + ||m_i||^2), the documented cancellation
        of the expansion, for data up to 1e9 from the origin."""
        rng = np.random.default_rng(seed)
        q = random_rotation(n, [seed, 1])  # a stream apart from rng's
        lam = 10.0 ** (rng.uniform(0.0, 2.0, n) + scale_exp)  # SPD, condition <= 100
        chol = np.linalg.cholesky((q * lam) @ q.T)
        offset = 10.0**offset_exp * rng.standard_normal(n)
        points = offset + rng.standard_normal((m, n)) @ chol.T
        means = offset + (rng.uniform(0.0, 5.0, (k, 1)) * rng.standard_normal((k, n))) @ chol.T

        got = _quad_forms(dtrtri(chol, lower=1)[0], means, _Workspace(points))

        ref = np.column_stack([_solved_norms(chol, points, mu) for mu in means])
        center = points.mean(axis=0)
        scale = _solved_norms(chol, points, center)[:, None] + _solved_norms(chol, means, center)
        # Each term of the expansion is an n-term sum; the slack covers the solves.
        c = 4 * (n + 2)
        assert np.all(np.abs(got - ref) <= c * np.finfo(float).eps * scale)


    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 30),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        kappa_exp=st.floats(0.0, 11.0),
        offset_exp=st.integers(0, 9),
    )
    def test_whitening_error_grows_with_the_factor_condition(self, n, m, k, seed, kappa_exp, offset_exp):
        """Fed L^-1 of a covariance of condition number kappa up to 1e11, the
        kernel agrees with the difference form of triangular solves within
        c * eps * (1 + sqrt(kappa)) * (||y_j||^2 + ||m_i||^2), for data up to
        1e9 from the origin: the product with an explicit inverse, like the
        solve, errs by about eps * kappa(L) = eps * sqrt(kappa) relative to
        the whitened norms. The worst of 480 seeded draws, 40 per decade of
        kappa, reached 0.15 of this bound."""
        rng = np.random.default_rng(seed)
        q = random_rotation(n, [seed, 2])
        lam = np.geomspace(1.0, 10.0**kappa_exp, n)
        cov = (q * lam) @ q.T
        chol = np.linalg.cholesky((cov + cov.T) / 2.0)
        offset = 10.0**offset_exp * rng.standard_normal(n)
        points = offset + rng.standard_normal((m, n)) @ chol.T
        means = offset + (rng.uniform(0.0, 5.0, (k, 1)) * rng.standard_normal((k, n))) @ chol.T

        got = _quad_forms(dtrtri(chol, lower=1)[0], means, _Workspace(points))

        ref = np.column_stack([_solved_norms(chol, points, mu) for mu in means])
        center = points.mean(axis=0)
        scale = _solved_norms(chol, points, center)[:, None] + _solved_norms(chol, means, center)
        c = 4 * (n + 2)
        assert np.all(np.abs(got - ref) <= c * np.finfo(float).eps * (1.0 + np.sqrt(lam[-1])) * scale)

    def test_kept_whitening_gives_the_bits_of_a_new_one(self):
        # One `_Workspace` on the points, reused by factors with fewer and
        # more means than the first and with means that overflow, as a fit
        # and the classifier's scoring reuse it.
        rng = np.random.default_rng(63)
        points = rng.standard_normal((50, 4))
        work = _Workspace(points)
        centered = work.centered.copy()
        for k in (3, 1, 2, 3, 5):
            chol = np.linalg.cholesky(np.eye(4) + 0.3 * np.ones((4, 4)))
            inv = dtrtri(chol, lower=1)[0]
            means = rng.standard_normal((k, 4))
            if k == 2:
                means[1] = 1e160
            assert np.array_equal(_quad_forms(inv, means, work), _quad_forms(inv, means, _Workspace(points)))
        assert np.array_equal(work.centered, centered)


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        g = Gaussian(np.zeros(3), np.eye(3))
        x = np.array([1.0, 2.0, 2.0])
        assert mahalanobis(g, x) == pytest.approx(3.0, rel=1e-12)

    def test_zero_at_mean(self):
        g = Gaussian([1.0, 2.0], np.diag([3.0, 5.0]))
        assert mahalanobis(g, [1.0, 2.0]) == 0.0

    def test_diagonal_hand_value(self):
        g = Gaussian([0.0, 0.0], np.diag([4.0, 9.0]))
        assert mahalanobis(g, [2.0, 3.0]) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_consistent_with_log_density(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        g = Gaussian(rng.standard_normal(4), a @ a.T + 4 * np.eye(4))
        x = rng.standard_normal(4)
        _, logdet = np.linalg.slogdet(g.covariance)
        expected_sq = -2.0 * log_density(g, x) - 4 * math.log(2 * math.pi) - logdet
        assert mahalanobis(g, x) ** 2 == pytest.approx(expected_sq, rel=1e-9)


class TestSpectralSummary:
    def test_identity(self):
        s = spectral_summary(np.eye(5))
        assert s.eccentricity == 1.0
        assert s.trace == pytest.approx(5.0, rel=1e-12)

    def test_diagonal(self):
        s = spectral_summary(np.diag([1.0, 10000.0]))
        assert s.eccentricity == pytest.approx(100.0, rel=1e-12)
        assert np.allclose(s.eigenvalues, [1.0, 10000.0])

    def test_rotation_invariant(self):
        d = np.diag([1.0, 4.0, 25.0])
        q = random_rotation(3, 5)
        s = spectral_summary(q @ d @ q.T)
        assert s.eccentricity == pytest.approx(5.0, rel=1e-9)
        assert s.trace == pytest.approx(30.0, rel=1e-9)
        assert np.allclose(s.eigenvalues, [1.0, 4.0, 25.0], rtol=1e-9)

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositiveDefiniteError):
            spectral_summary(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,)])
    def test_rejects_empty_or_non_square(self, shape):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            spectral_summary(np.ones(shape))

    def test_eccentricity_at_least_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            s = spectral_summary(a @ a.T + 0.5 * np.eye(4))
            assert s.eccentricity >= 1.0


def per_pair_separations(means, radii):
    """The separation table one `np.linalg.norm` per pair, rescaled by the
    larger coordinate where the squares overflow."""
    out = np.zeros((len(means), len(means)))
    for i, j in combinations(range(len(means)), 2):
        a, b, denom = means[i], means[j], max(radii[i], radii[j])
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(a - b)
        if not np.isfinite(dist):
            scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
            out[i, j] = out[j, i] = scale / denom * np.linalg.norm(a / scale - b / scale)
        else:
            out[i, j] = out[j, i] = dist / denom
    return out


class TestSeparation:
    def test_radius_spherical(self):
        g = Gaussian(np.zeros(9), 4.0 * np.eye(9))
        assert radius(g) == pytest.approx(6.0, rel=1e-12)

    def test_radius_diagonal(self):
        g = Gaussian(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
        assert radius(g) == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_spherical_pair_two_separated(self):
        n = 16
        v = np.zeros(n)
        v[0] = 2.0 * math.sqrt(n)
        g1 = Gaussian(np.zeros(n), np.eye(n))
        g2 = Gaussian(v, np.eye(n))
        assert pairwise_separation(g1, g2) == pytest.approx(2.0, rel=1e-12)

    def test_identical_means_zero(self):
        g = Gaussian(np.ones(4), np.eye(4))
        assert pairwise_separation(g, g) == 0.0

    def test_uses_larger_trace(self):
        g1 = Gaussian([0.0, 0.0], np.eye(2))
        g2 = Gaussian([2.0 * math.sqrt(8.0), 0.0], 4.0 * np.eye(2))
        assert pairwise_separation(g1, g2) == pytest.approx(2.0, rel=1e-12)
        assert pairwise_separation(g2, g1) == pytest.approx(2.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        g1 = Gaussian(rng.standard_normal(3), 2.0 * np.eye(3))
        g2 = Gaussian(rng.standard_normal(3), np.eye(3))
        base = pairwise_separation(g1, g2)
        for s in (0.1, 7.0, 300.0):
            h1 = Gaussian(g1.mean * s, g1.covariance * s * s)
            h2 = Gaussian(g2.mean * s, g2.covariance * s * s)
            assert pairwise_separation(h1, h2) == pytest.approx(base, rel=1e-12)

    def test_means_whose_squared_distance_overflows(self):
        # ||mu1 - mu2||^2 passes 1e308; the distance and the separation do not.
        unit = np.eye(2)
        far = Gaussian([1e200, 1e200], unit)
        assert pairwise_separation(Gaussian(np.zeros(2), unit), far) == pytest.approx(1e200, rel=1e-15)
        # The difference of the means itself overflows.
        wide = Gaussian(np.full(2, 1e308), 1e300 * unit)
        assert pairwise_separation(Gaussian(np.full(2, -1e308), unit), wide) == pytest.approx(2e158, rel=1e-15)

    def test_finite_distance_is_not_rescaled(self):
        g1 = Gaussian(np.zeros(3), np.eye(3))
        g2 = Gaussian([1e150, -3e149, 7e149], 2.0 * np.eye(3))
        expected = np.linalg.norm(g1.mean - g2.mean) / np.sqrt(6.0)
        assert pairwise_separation(g1, g2) == expected

    @pytest.mark.parametrize("k", [2, 5, 50, 300])
    def test_table_matches_the_per_pair_norms(self, k):
        rng = np.random.default_rng(k)
        means = rng.standard_normal((k, 40)) * np.exp(rng.uniform(-3, 3, size=(k, 1)))
        radii = np.exp(rng.uniform(-3, 3, size=k))
        assert np.array_equal(gaussians._separations(means, radii), per_pair_separations(means, radii))

    def test_table_rescales_the_pairs_that_overflow(self):
        means = np.array([[0.0, 0.0], [1e200, 1e200], [3.0, 4.0]])
        radii = np.array([1.0, 2.0, 0.5])
        table = gaussians._separations(means, radii)
        assert np.array_equal(table, per_pair_separations(means, radii))
        assert table[0, 1] == pytest.approx(np.sqrt(2.0) * 1e200 / 2.0, rel=1e-15)
        assert table[0, 2] == 5.0

    def test_mixture_separation_is_min_pair(self):
        g1 = Gaussian(np.zeros(2), np.eye(2))
        g2 = Gaussian([3.0, 0.0], np.eye(2))
        pair = Mixture([g1, g2], [0.5, 0.5])
        assert mixture_separation(pair) == pytest.approx(
            pairwise_separation(g1, g2), rel=1e-15
        )

    def test_equilateral_triple(self):
        # Equilateral triangle with side sqrt(2) and unit spherical components:
        # every pair is exactly 1-separated.
        side = math.sqrt(2.0)
        centers = [
            np.array([0.0, 0.0]),
            np.array([side, 0.0]),
            np.array([side / 2.0, side * math.sqrt(3.0) / 2.0]),
        ]
        mix = Mixture([Gaussian(c, np.eye(2)) for c in centers], np.ones(3) / 3.0)
        assert mixture_separation(mix) == pytest.approx(1.0, rel=1e-12)

    def test_single_component_rejected(self):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        with pytest.raises(TooFewComponentsError):
            mixture_separation(mix)


class TestSampling:
    def test_seed_children_extend_the_spawn_key_by_their_index(self):
        # Children already spawned from the caller's sequence shift no role.
        seed = np.random.SeedSequence(7, spawn_key=(2,))
        seed.spawn(3)
        children = gaussians._seed_children(seed, 2)
        assert seed.n_children_spawned == 3
        for i, child in enumerate(children):
            by_key = np.random.SeedSequence(7, spawn_key=(2, i))
            assert np.array_equal(child.generate_state(4), by_key.generate_state(4))

    def test_deterministic(self):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        a = sample(mix, 4, 42)
        b = sample(mix, 4, 42)
        assert np.array_equal(a, b)
        c = sample(mix, 4, 43)
        assert not np.array_equal(a, c)

    def test_norm_concentration(self):
        n, sigma2 = 1000, 2.5
        mix = Mixture([Gaussian(np.zeros(n), sigma2 * np.eye(n))], [1.0])
        pts = sample(mix, 2000, 0)
        ratio = np.mean(np.sum(pts * pts, axis=1)) / (sigma2 * n)
        assert 0.95 <= ratio <= 1.05

    def test_component_frequencies(self):
        far = np.full(2, 100.0)
        mix = Mixture(
            [Gaussian(np.zeros(2), np.eye(2)), Gaussian(far, np.eye(2))],
            [0.9, 0.1],
        )
        pts = sample(mix, 10000, 7)
        frac_first = np.mean(np.linalg.norm(pts, axis=1) < 50.0)
        assert 0.88 <= frac_first <= 0.92

    def test_covariance_shape_respected(self):
        cov = np.array([[2.0, 1.2], [1.2, 1.0]])
        mix = Mixture([Gaussian([5.0, -3.0], cov)], [1.0])
        pts = sample(mix, 20000, 1)
        emp = np.cov(pts.T)
        assert np.allclose(emp, cov, atol=0.08)
        assert np.allclose(pts.mean(axis=0), [5.0, -3.0], atol=0.05)

    def test_count_validation(self):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        with pytest.raises(ValueError):
            sample(mix, 0, 0)

    # At count 1 two of the three components draw no point.
    @pytest.mark.parametrize("count", [500, 1])
    @pytest.mark.parametrize("factors", [1, 3])
    def test_draw_in_place_equals_a_draw_into_a_second_array(self, factors, count):
        rng = np.random.default_rng(5)
        covs = [a @ a.T + np.eye(4) for a in rng.standard_normal((factors, 4, 4))]
        mix = Mixture(
            [Gaussian(rng.standard_normal(4) * 10, covs[i % factors]) for i in range(3)],
            [0.5, 0.3, 0.2],
        )
        assert len(mix._chols) == factors
        comps, pts = gaussians._labelled_draw(mix, count, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = rng.choice(mix.k, size=count, p=mix.weights)
        z = rng.standard_normal((count, mix.dim))
        out = np.empty((count, mix.dim))
        for i, (mu, f) in enumerate(zip(mix.means, mix._owner)):
            out[want == i] = z[want == i] @ mix._chols[f].T + mu
        assert np.array_equal(comps, want)
        assert np.array_equal(pts, out)


class TestNormTailBound:
    def test_closed_form(self):
        assert norm_tail_bound(24, 1.0) == pytest.approx(2.0 / math.e, rel=1e-15)
        assert norm_tail_bound(1000, 0.2) == pytest.approx(
            2.0 * math.exp(-1000 * 0.04 / 24.0), rel=1e-15
        )

    def test_decreasing_in_n_and_eps(self):
        assert norm_tail_bound(2000, 0.2) < norm_tail_bound(1000, 0.2)
        assert norm_tail_bound(1000, 0.3) < norm_tail_bound(1000, 0.2)

    @pytest.mark.parametrize("n", ["a", -1, 0, 2.5, True])
    def test_dimension_must_be_an_int_at_least_one(self, n):
        with pytest.raises(InvalidParameterError, match=rf"^n must be an int >= 1, got {n!r}$"):
            norm_tail_bound(n, 0.1)

    @pytest.mark.parametrize("eps", ["a", 0.0, -0.1, np.inf, np.nan, True, None])
    def test_eps_must_be_a_finite_real_above_zero(self, eps):
        with pytest.raises(InvalidParameterError, match=r"^eps must be a finite real > 0, got "):
            norm_tail_bound(100, eps)


class TestSerialization:
    def test_mixture_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3))
        mix = Mixture(
            [
                Gaussian(rng.standard_normal(3), a @ a.T + np.eye(3)),
                Gaussian(rng.standard_normal(3), 2.0 * np.eye(3)),
            ],
            [0.25, 0.75],
        )
        path = tmp_path / "mix.json"
        save_mixture(mix, path)
        back = load_mixture(path)
        assert back.k == mix.k
        assert np.array_equal(back.weights, mix.weights)
        for g, h in zip(mix.components, back.components):
            assert np.array_equal(g.mean, h.mean)
            assert np.array_equal(g.covariance, h.covariance)

    def test_mixture_file_is_plain_json(self, tmp_path):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        path = tmp_path / "mix.json"
        save_mixture(mix, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"weights", "means", "covariances"}

    def test_dataset_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((17, 5)) * np.pi
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.array_equal(back, data)

    def test_dataset_header_skipped(self, tmp_path):
        data = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "data.csv"
        save_dataset(data, path, header=["a", "b", "c"])
        back = load_dataset(path, skip_header=True)
        assert np.array_equal(back, data)

    @pytest.mark.parametrize(
        "header",
        ["abc", ["a", "b"], ["a", "b", "c", "d"], [1, 2, 3], ["a", None, "c"], 5,
         ["a,b", "c", "d"], ["a\nb", "c", "d"], ["a\rb", "c", "d"]],
    )
    def test_dataset_header_needs_one_name_per_column(self, tmp_path, header):
        path = tmp_path / "data.csv"
        with pytest.raises(InvalidParameterError, match=r"^header must be a sequence of 3 column names"):
            save_dataset(np.zeros((2, 3)), path, header=header)
        assert not path.exists()

    def test_dataset_text_exact(self, tmp_path):
        data = [[-0.0, 1e-300, np.pi], [1.0, -2.5, 1 / 3]]
        rows = "-0,1e-300,3.1415926535897931\n1,-2.5,0.33333333333333331\n"
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        assert path.read_text() == rows
        save_dataset(data, path, header=["a", "b", "c"])
        assert path.read_text() == "a,b,c\n" + rows

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x", ""])
    def test_dataset_bad_cell_names_its_line(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ParseError, match="data.csv: line 3"):
            load_dataset(path, skip_header=True)

    @pytest.mark.parametrize("text, skip_header", [("", False), ("\n", False), ("a,b\n", True)])
    def test_dataset_without_rows_is_a_parse_error(self, tmp_path, text, skip_header):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="data.csv: no data rows"):
            load_dataset(path, skip_header=skip_header)

    def test_dataset_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0,5.0\n")
        with pytest.raises(InconsistentWidthError, match="line 3: expected 2 values, got 3"):
            load_dataset(path)


class TestCsvParser:
    def test_whitespace_only_and_crlf_lines_are_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"1.0,2.0\r\n \t \r\n\r\n3.0,4.0\r\n   \n5.0,x\r\n")
        with pytest.raises(ParseError, match="data.csv: line 6: "):
            load_dataset(path)
        path.write_bytes(b"1.0,2.0\r\n \t \r\n\r\n3.0,4.0\r\n   \n")
        assert np.array_equal(load_dataset(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "row",
        [
            "#3.0,4.0",  # `#` starts no comment
            "3.0,1_000",  # float() accepts the underscore
            "3.0,١",  # nor are non-ASCII digits numbers (ARABIC-INDIC DIGIT ONE)
        ],
    )
    def test_cell_outside_numpys_syntax_names_its_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0,2.0\n\n{row}\n5.0,6.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="data.csv: line 3: "):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["x", "1_000"])
    def test_bad_cell_names_its_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n\n3,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: line 3: column 2: {cell!r} is not a number"

    def test_bad_cell_in_the_last_of_many_rows_names_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,3.0\n" * 2999 + "1.0,y,3.0\n")
        with pytest.raises(ParseError, match="data.csv: line 3000: "):
            load_dataset(path)

    @pytest.mark.parametrize("reader", [load_dataset, ingest])
    def test_failure_is_diagnosed_from_the_bytes_that_failed(self, monkeypatch, tmp_path, reader):
        # The file is rewritten to valid rows once the parse has its lines.
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n5,6\n")
        parse_lines = gaussians._parse_lines

        def rewriting(lines):
            path.write_text("1,2\n3,4\n5,6\n")
            monkeypatch.setattr(gaussians, "_parse_lines", parse_lines)
            return parse_lines(lines)

        monkeypatch.setattr(gaussians, "_parse_lines", rewriting)
        with pytest.raises(ParseError) as err:
            reader(path)
        assert str(err.value) == f"{path}: line 2: column 2: 'x' is not a number"

    @pytest.mark.parametrize("text", ["1,2\n3,x\n", "1,2\n3\n", "1,2\n3,4\n"])
    def test_a_read_opens_its_file_once(self, monkeypatch, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        opened = []

        def counted(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(gaussians, "open", counted, raising=False)
        try:
            load_dataset(path)
        except ParseError:
            pass
        assert opened == [str(path)]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(-99, 99), min_size=2, max_size=2), min_size=2, max_size=8)
        | st.lists(st.lists(st.integers(-99, 99), min_size=3, max_size=3), min_size=2, max_size=8),
        fillers=st.lists(st.tuples(st.sampled_from(["", " ", "\t", " \t "]), st.integers(0, 20)), max_size=12),
        bad=st.tuples(st.integers(0, 7), st.integers(0, 2), st.sampled_from(["x", "1_0", "#1", "--1", None])),
    )
    def test_one_bad_row_among_blank_lines_is_named_exactly(self, tmp_path_factory, rows, fillers, bad):
        # A valid table with blank and whitespace-only lines spliced in; one
        # row gets a cell that is not a number, or (None) loses its last cell.
        row, column, cell = bad
        row, column = row % len(rows), column % len(rows[0])
        if cell is None:
            row = max(row, 1)  # the first row sets the width
        lines = [",".join(map(str, values)) for values in rows]
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:-1] if cell is None else cells[:column] + [cell] + cells[column + 1:])
        lines[row] += "\0"  # marks the row through the splicing
        for filler, place in fillers:
            lines.insert(place % (len(lines) + 1), filler)
        lineno = next(i for i, line in enumerate(lines, start=1) if line.endswith("\0"))
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text("\n".join(lines).replace("\0", "") + "\n")
        if cell is None:
            want = rf"line {lineno}: expected {len(cells)} values, got {len(cells) - 1}"
            error = InconsistentWidthError
        else:
            want = rf"line {lineno}: column {column + 1}: {re.escape(repr(cell))} is not a number"
            error = ParseError
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {want}$"):
            load_dataset(path)


class TestOneLayout:
    """A mixture's array layout gives the bits of the per-component
    references built from its public `components`, and a covariance that
    every component shares is factored once."""

    @staticmethod
    def _mixture(mode):
        E = 1.0 if mode is CovarianceMode.SPHERICAL_SHARED else 3.0
        return make_mixture(MixtureSpec(n=6, k=4, c=1.5, E=E, covariance_mode=mode, seed=5))

    @pytest.mark.parametrize("mode", list(CovarianceMode))
    def test_sample_is_a_draw_per_component(self, mode):
        mix = self._mixture(mode)
        rng = np.random.default_rng(11)
        comps = rng.choice(mix.k, size=500, p=mix.weights)
        z = rng.standard_normal((500, mix.dim))
        want = np.empty((500, mix.dim))
        for i, g in enumerate(mix.components):
            rows = comps == i
            want[rows] = z[rows] @ g.chol.T + g.mean
        assert np.array_equal(sample(mix, 500, 11), want)

    @pytest.mark.parametrize("mode", list(CovarianceMode))
    def test_separation_is_the_least_pairwise_separation(self, mode):
        mix = self._mixture(mode)
        want = min(pairwise_separation(a, b) for a, b in combinations(mix.components, 2))
        assert mixture_separation(mix) == want

    @pytest.mark.parametrize("mode", list(CovarianceMode))
    def test_projected_mixture_is_the_projected_components(self, mode):
        mix = self._mixture(mode)
        p = random_orthonormal(mix.dim, 3, 2)
        out = project_mixture(p, mix)
        assert np.array_equal(out.means, np.array([p.rows @ g.mean for g in mix.components]))
        for g, h in zip(mix.components, out.components):
            ref = project_gaussian(p, g)
            assert np.array_equal(h.covariance, ref.covariance)
            assert np.array_equal(h.chol, ref.chol)

    def test_components_are_read_once(self):
        mix = self._mixture(CovarianceMode.FULL_SHARED)
        assert mix.components is mix.components
        assert all(isinstance(g, Gaussian) for g in mix.components)

    def test_a_shared_covariance_is_factored_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(gaussians, "dpotrf", counted)
        mix = make_mixture(MixtureSpec(n=350, k=300, c=1.0))
        assert calls == [(350, 350)]
        project_mixture(random_orthonormal(350, 57, 0), mix)
        assert calls == [(350, 350), (57, 57)]

    def test_components_reuse_the_layout_factors(self, monkeypatch):
        mix = make_mixture(MixtureSpec(n=8, k=5, c=1.0, E=3.0, covariance_mode="rotated-distinct", seed=4))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(gaussians, "dpotrf", counted)
        components = mix.components
        assert calls == []
        for g in components:
            ref = Gaussian(g.mean, g.covariance)
            assert np.array_equal(g.mean, ref.mean)
            assert np.array_equal(g.covariance, ref.covariance)
            assert np.array_equal(g.chol, ref.chol)
            assert not (g.mean.flags.writeable or g.covariance.flags.writeable or g.chol.flags.writeable)

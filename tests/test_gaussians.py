import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri

from rpmix import (
    Gaussian,
    Mixture,
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
    NonFiniteError,
    NotPositiveDefiniteError,
    ParseError,
    TooFewComponentsError,
)
from rpmix.gaussians import _quad_forms, log_density_batch


def random_rotation(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


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

        got = _quad_forms(dtrtri(chol, lower=1)[0], points, means)

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

        got = _quad_forms(dtrtri(chol, lower=1)[0], points, means)

        ref = np.column_stack([_solved_norms(chol, points, mu) for mu in means])
        center = points.mean(axis=0)
        scale = _solved_norms(chol, points, center)[:, None] + _solved_norms(chol, means, center)
        c = 4 * (n + 2)
        assert np.all(np.abs(got - ref) <= c * np.finfo(float).eps * (1.0 + np.sqrt(lam[-1])) * scale)


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


class TestNormTailBound:
    def test_closed_form(self):
        assert norm_tail_bound(24, 1.0) == pytest.approx(2.0 / math.e, rel=1e-15)
        assert norm_tail_bound(1000, 0.2) == pytest.approx(
            2.0 * math.exp(-1000 * 0.04 / 24.0), rel=1e-15
        )

    def test_decreasing_in_n_and_eps(self):
        assert norm_tail_bound(2000, 0.2) < norm_tail_bound(1000, 0.2)
        assert norm_tail_bound(1000, 0.3) < norm_tail_bound(1000, 0.2)


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

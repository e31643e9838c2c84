import math
from itertools import combinations

import numpy as np
import pytest

from rpmix import (
    eccentric_covariance,
    make_mixture,
    mixing_weights,
    mixture_separation,
    packed_centers,
    pairwise_separation,
    spectral_summary,
)
from rpmix.gaussians import mixture_to_dict
from rpmix.synthesis import CovarianceMode, MixtureSpec, long_axis_mixture
from rpmix.errors import (
    BadDimsError,
    BadSeparationError,
    InvalidParameterError,
    TooManyComponentsError,
)


class TestEccentricCovariance:
    def test_unit_eccentricity_is_identity(self):
        cov = eccentric_covariance(7, 1.0, CovarianceMode.DIAGONAL_DISTINCT, 0)
        assert np.array_equal(cov, np.eye(7))

    def test_spherical_mode_requires_unit_eccentricity(self):
        with pytest.raises(BadDimsError):
            eccentric_covariance(7, 2.0, CovarianceMode.SPHERICAL_SHARED, 0)

    def test_eccentricity_hits_target(self):
        cov = eccentric_covariance(50, 1000.0, CovarianceMode.DIAGONAL_DISTINCT, 5)
        assert spectral_summary(cov).eccentricity == pytest.approx(1000.0, abs=1e-3)

    def test_endpoints_pinned(self):
        cov = eccentric_covariance(10, 30.0, CovarianceMode.DIAGONAL_DISTINCT, 8)
        roots = np.sqrt(np.sort(np.diag(cov)))
        assert roots[0] == pytest.approx(1.0, abs=1e-12)
        assert roots[-1] == pytest.approx(30.0, abs=1e-12)
        assert np.all((roots >= 1.0) & (roots <= 30.0))

    def test_rotated_same_spectrum_as_diagonal(self):
        diag = eccentric_covariance(12, 25.0, CovarianceMode.DIAGONAL_DISTINCT, 33)
        rot = eccentric_covariance(12, 25.0, CovarianceMode.ROTATED_DISTINCT, 33)
        assert np.allclose(
            np.sort(np.diag(diag)), np.linalg.eigvalsh(rot), rtol=1e-9
        )
        # Rotated output is genuinely dense, not a relabeled diagonal.
        off = rot - np.diag(np.diag(rot))
        assert np.max(np.abs(off)) > 1.0

    def test_dimension_too_small(self):
        with pytest.raises(BadDimsError):
            eccentric_covariance(1, 10.0, CovarianceMode.DIAGONAL_DISTINCT, 0)

    @pytest.mark.parametrize("mode", [CovarianceMode.DIAGONAL_DISTINCT, CovarianceMode.ROTATED_DISTINCT])
    def test_eccentricity_whose_trace_overflows_rejected(self, mode):
        with pytest.raises(InvalidParameterError, match="eccentricity E"):
            eccentric_covariance(5, 1e300, mode, 0)

    def test_long_axes_whose_variance_overflows_rejected(self):
        with pytest.raises(InvalidParameterError, match="eccentricity E"):
            long_axis_mixture(10, 2, 0.5, 1e155, 2, 0)

    def test_mode_given_as_its_string(self):
        a = eccentric_covariance(8, 9.0, "diagonal-distinct", 2)
        b = eccentric_covariance(8, 9.0, CovarianceMode.DIAGONAL_DISTINCT, 2)
        assert np.array_equal(a, b)

    def test_unknown_mode_lists_the_valid_strings(self):
        with pytest.raises(InvalidParameterError, match="'rotated-distinct'"):
            eccentric_covariance(8, 9.0, "nonsense", 2)

    def test_deterministic(self):
        a = eccentric_covariance(8, 9.0, CovarianceMode.ROTATED_DISTINCT, 2)
        b = eccentric_covariance(8, 9.0, CovarianceMode.ROTATED_DISTINCT, 2)
        assert np.array_equal(a, b)


class TestPackedCenters:
    def test_two_points_equal_radii(self):
        centers = packed_centers(2, 10, 1.5, np.array([2.0, 2.0]), 0)
        assert np.linalg.norm(centers[0] - centers[1]) == pytest.approx(3.0, rel=1e-9)

    def test_simplex_all_pairs_tight(self):
        k, n, c = 5, 100, 1.0
        centers = packed_centers(k, n, c, np.full(k, 7.0), 1)
        for i, j in combinations(range(k), 2):
            assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(
                7.0, rel=1e-9
            )

    def test_unequal_radii_targets(self):
        radii = np.array([1.0, 1.0, 2.0])
        centers = packed_centers(3, 6, 1.0, radii, 4)
        d01 = np.linalg.norm(centers[0] - centers[1])
        d02 = np.linalg.norm(centers[0] - centers[2])
        d12 = np.linalg.norm(centers[1] - centers[2])
        assert d01 == pytest.approx(1.0, rel=1e-6)
        assert d02 == pytest.approx(2.0, rel=1e-6)
        assert d12 == pytest.approx(2.0, rel=1e-6)

    def test_too_many_components(self):
        with pytest.raises(TooManyComponentsError):
            packed_centers(5, 3, 1.0, np.ones(5), 0)

    def test_zero_separation_rejected(self):
        with pytest.raises(BadSeparationError):
            packed_centers(3, 5, 0.0, np.ones(3), 0)

    def test_random_subspace_varies_with_seed(self):
        a = packed_centers(3, 20, 1.0, np.ones(3), 0)
        b = packed_centers(3, 20, 1.0, np.ones(3), 1)
        assert not np.allclose(a, b)


class TestMixingWeights:
    def test_basic_bounds(self):
        w = mixing_weights(5, 3)
        assert w.shape == (5,)
        assert np.all(w > 0.05) and np.all(w < 0.4)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_component(self):
        assert np.array_equal(mixing_weights(1, 0), [1.0])

    def test_mean_is_uniform(self):
        k = 5
        total = np.zeros(k)
        for seed in range(10000):
            total += mixing_weights(k, seed)
        assert np.max(np.abs(total / 10000 - 1.0 / k)) < 0.01


class TestMakeMixture:
    def test_spherical_defaults(self):
        mix = make_mixture(MixtureSpec(n=50, k=5, c=1.0, seed=0))
        assert mix.k == 5 and mix.dim == 50
        for g in mix.components:
            assert np.array_equal(g.covariance, np.eye(50))
        for a, b in combinations(mix.components, 2):
            assert pairwise_separation(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_separation_postcondition_eccentric(self):
        spec = MixtureSpec(
            n=100, k=3, c=0.8, E=25.0,
            covariance_mode=CovarianceMode.ROTATED_DISTINCT, seed=7,
        )
        mix = make_mixture(spec)
        assert mixture_separation(mix) == pytest.approx(0.8, rel=1e-6)
        for g in mix.components:
            ecc = spectral_summary(g.covariance).eccentricity
            assert ecc == pytest.approx(25.0, rel=1e-6)

    def test_shared_modes_share_covariance(self):
        spec = MixtureSpec(
            n=20, k=4, c=1.0, E=10.0,
            covariance_mode=CovarianceMode.FULL_SHARED, seed=3,
        )
        mix = make_mixture(spec)
        first = mix.components[0].covariance
        for g in mix.components[1:]:
            assert np.array_equal(g.covariance, first)

    def test_distinct_modes_differ(self):
        spec = MixtureSpec(
            n=20, k=3, c=1.0, E=10.0,
            covariance_mode=CovarianceMode.DIAGONAL_DISTINCT, seed=3,
        )
        mix = make_mixture(spec)
        assert not np.array_equal(
            mix.components[0].covariance, mix.components[1].covariance
        )

    def test_weights_sum_to_one(self):
        mix = make_mixture(MixtureSpec(n=10, k=4, c=1.0, seed=5))
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        spec = MixtureSpec(
            n=15, k=3, c=0.9, E=5.0,
            covariance_mode=CovarianceMode.ROTATED_DISTINCT, seed=11,
        )
        assert mixture_to_dict(make_mixture(spec)) == mixture_to_dict(make_mixture(spec))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=1, c=1.0)
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=2, c=1.0, E=0.5)
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=2, c=-1.0)
        with pytest.raises(BadSeparationError):
            make_mixture(MixtureSpec(n=10, k=2, c=0.0))

    def test_unequal_radii_still_meet_separation(self):
        # Distinct eccentric covariances give distinct trace-radii; every
        # pair must still sit at exactly c times the larger radius.
        spec = MixtureSpec(
            n=30, k=3, c=1.2, E=8.0,
            covariance_mode=CovarianceMode.DIAGONAL_DISTINCT, seed=2,
        )
        mix = make_mixture(spec)
        radii = [math.sqrt(np.trace(g.covariance)) for g in mix.components]
        assert len(set(np.round(radii, 6))) > 1
        for a, b in combinations(mix.components, 2):
            assert pairwise_separation(a, b) == pytest.approx(1.2, rel=1e-6)

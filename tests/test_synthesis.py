import math
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.spatial.distance import pdist

from rpmix import synthesis
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
    NotPositiveDefiniteError,
    PackingError,
    TooManyComponentsError,
)
from rpmix.experiments import em_compare_trial


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

    def test_one_component_sits_at_the_origin(self):
        centers = packed_centers(1, 3, 1.0, [2.0], 0)
        assert np.array_equal(centers, np.zeros((1, 3)))

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

    @pytest.mark.parametrize("k", [3, 50, 300])
    def test_every_distance_is_exact_with_spread_radii(self, k):
        rng = np.random.default_rng(k)
        radii, c = np.exp(rng.permutation([-3.0, 3.0, *rng.uniform(-3.0, 3.0, k - 2)])), 1.3
        centers = packed_centers(k, k + 10, c, radii, 2)
        i, j = np.triu_indices(k, 1)
        want = c * np.maximum(radii[i], radii[j])
        np.testing.assert_allclose(pdist(centers), want, rtol=1e-9, atol=0)

    def test_fifty_eccentric_distinct_components(self):
        spec = MixtureSpec(
            n=100, k=50, c=1, E=4,
            covariance_mode=CovarianceMode.DIAGONAL_DISTINCT, seed=1,
        )
        mix = make_mixture(spec)
        radii = np.sqrt([np.trace(g.covariance) for g in mix.components])
        i, j = np.triu_indices(50, 1)
        want = np.maximum(radii[i], radii[j])
        np.testing.assert_allclose(pdist(mix.means), want, rtol=1e-9, atol=0)

    def test_centers_are_centred_and_span_k_minus_one_dims(self):
        k, radii = 8, np.array([1.0, 2.0, 2.0, 3.0, 0.5, 5.0, 5.0, 1.5])
        centers = packed_centers(k, 20, 2.0, radii, 3)
        assert np.max(np.abs(centers.mean(axis=0))) < 1e-12 * 2.0 * radii.max()
        assert np.linalg.matrix_rank(centers) == k - 1

    def test_coordinates_without_sqrt_lambda_fail_the_post_check(self, monkeypatch):
        # Unit eigenvalues make the coordinates the bare eigenvectors, as if
        # the sqrt(lambda) scaling were dropped.
        def unit_eigenvalues(*args, **kwargs):
            lam, vecs = eigh(*args, **kwargs)
            return np.ones_like(lam), vecs

        monkeypatch.setattr(synthesis, "eigh", unit_eigenvalues)
        with pytest.raises(PackingError, match=r"^pair \(0,1\) misses its distance target by "):
            packed_centers(5, 10, 1.0, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0)


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

    def test_seed_sequence_seed_replays(self):
        # The streams are children of the seed, not spawned from it, so a
        # second call with the same SeedSequence builds the same mixture.
        spec = MixtureSpec(
            n=15, k=3, c=0.9, E=5.0,
            covariance_mode=CovarianceMode.ROTATED_DISTINCT, seed=np.random.SeedSequence(11),
        )
        first, second = make_mixture(spec), make_mixture(spec)
        assert np.array_equal(first.means, second.means)
        for a, b in zip(first.components, second.components):
            assert np.array_equal(a.covariance, b.covariance)
        assert mixture_to_dict(first) == mixture_to_dict(make_mixture(MixtureSpec(
            n=15, k=3, c=0.9, E=5.0, covariance_mode=CovarianceMode.ROTATED_DISTINCT, seed=11,
        )))

    def test_long_axis_mixture_seed_sequence_seed_replays(self):
        ss = np.random.SeedSequence(4)
        (first, axes), (second, again) = (long_axis_mixture(40, 3, 0.5, 100.0, 5, ss) for _ in range(2))
        assert np.array_equal(axes, again)
        assert np.array_equal(first.means, second.means)
        for a, b in zip(first.components, second.components):
            assert np.array_equal(a.covariance, b.covariance)

    # A rotated covariance of eccentricity 1e9 or more may round to one with
    # no Cholesky factor; at n = 20 and k = 3, seed 0 does.
    @pytest.mark.parametrize(
        "build, E",
        [
            (lambda: make_mixture(MixtureSpec(20, 3, 1.0, 1e9, "rotated-distinct", 0)), "1e\\+09"),
            (
                lambda: em_compare_trial(
                    20, 0, k=3, E=1e100, mode="rotated-distinct", restriction="full-distinct", d=5,
                    train_size=200, test_size=50,
                ),
                "1e\\+100",
            ),
        ],
        ids=["make_mixture", "em_compare_trial"],
    )
    def test_covariance_that_does_not_factor_names_the_mode_and_E(self, build, E):
        want = f"^rotated-distinct covariance at E={E}: .*not positive definite$"
        with pytest.raises(NotPositiveDefiniteError, match=want):
            build()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=1, c=1.0)
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=2, c=1.0, E=0.5)
        with pytest.raises(ValueError):
            MixtureSpec(n=10, k=2, c=-1.0)
        with pytest.raises(BadSeparationError):
            make_mixture(MixtureSpec(n=10, k=2, c=0.0))

    @pytest.mark.parametrize("n", [-3, 0, 2.5, True, "5"])
    def test_dimension_must_be_a_positive_int(self, n):
        with pytest.raises(InvalidParameterError, match="dimension n must be an int >= 1"):
            MixtureSpec(n=n, k=2, c=1.0)

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

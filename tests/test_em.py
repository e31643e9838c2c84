import math
from itertools import permutations

import numpy as np
import pytest

from rpmix import (
    CovarianceRestriction,
    Gaussian,
    Mixture,
    centers_recovered,
    e_step,
    init_params,
    m_step,
    radius,
    rp_em,
    run_em,
    sample,
)
from rpmix import em
from rpmix.em import _from_mixture, _gram, _log_joint, _m_step, _to_mixture
from rpmix.em import test_loglik as held_out_loglik
from rpmix.errors import (
    DuplicatePointsError,
    EmptyComponentError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    ShapeMismatchError,
)
from rpmix.gaussians import log_density_batch
from rpmix.projection import project_data, random_orthonormal

FULL = CovarianceRestriction.FULL_DISTINCT
SHARED = CovarianceRestriction.SHARED_FULL


def two_blob_data(m=100, dist=10.0, n=2, seed=0):
    rng = np.random.default_rng(seed)
    half = m // 2
    a = rng.standard_normal((half, n))
    b = rng.standard_normal((m - half, n))
    b[:, 0] += dist
    return np.vstack([a, b])


class TestInitParams:
    def test_two_point_variances(self):
        p = np.array([0.0, 0.0, 0.0])
        q = np.array([3.0, 0.0, 0.0])
        mix = init_params(np.vstack([p, q]), 2, FULL, 0)
        expected = 9.0 / (2.0 * 3)
        for g in mix.components:
            assert np.allclose(g.covariance, expected * np.eye(3))

    def test_weights_uniform(self):
        data = np.random.default_rng(1).standard_normal((20, 4))
        mix = init_params(data, 5, FULL, 0)
        assert np.array_equal(mix.weights, np.full(5, 0.2))

    def test_shared_uses_min_variance(self):
        data = np.random.default_rng(2).standard_normal((30, 3))
        full = init_params(data, 4, FULL, 7)
        shared = init_params(data, 4, SHARED, 7)
        full_vars = [g.covariance[0, 0] for g in full.components]
        for g in shared.components:
            assert g.covariance[0, 0] == pytest.approx(min(full_vars), rel=1e-12)

    def test_centers_come_from_data(self):
        data = np.random.default_rng(3).standard_normal((15, 2))
        mix = init_params(data, 3, FULL, 1)
        for g in mix.components:
            assert np.any(np.all(np.isclose(data, g.mean), axis=1))

    def test_errors(self):
        with pytest.raises(NotEnoughDataError):
            init_params(np.zeros((2, 3)), 5, FULL, 0)
        with pytest.raises(DuplicatePointsError):
            init_params(np.zeros((4, 3)), 2, FULL, 0)


FITS_BY_RESTRICTION = {
    "init_params": lambda data, r: init_params(data, 3, r, 0),
    "m_step": lambda data, r: m_step(
        np.random.default_rng(0).dirichlet(np.ones(3), len(data)), data, r
    ),
    "run_em": lambda data, r: run_em(data, 3, r, 0).model,
    "rp_em": lambda data, r: rp_em(data, 3, 2, r, 0)[0].model,
}


@pytest.mark.parametrize("fit", sorted(FITS_BY_RESTRICTION))
class TestRestrictionGivenAsString:
    def test_string_selects_its_member(self, fit):
        data = two_blob_data(m=200, n=3, seed=5)
        by_string = FITS_BY_RESTRICTION[fit](data, "shared-full")
        by_member = FITS_BY_RESTRICTION[fit](data, SHARED)
        for a, b in zip(by_string.components, by_member.components):
            assert np.array_equal(a.covariance, b.covariance)

    def test_unknown_string_lists_the_valid_ones(self, fit):
        data = two_blob_data(m=200, n=3, seed=5)
        with pytest.raises(InvalidParameterError, match="'full-distinct', 'shared-full'"):
            FITS_BY_RESTRICTION[fit](data, "nonsense")


class TestEStep:
    def test_single_component_all_ones(self):
        data = np.random.default_rng(0).standard_normal((9, 2))
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        resp, _ = e_step(mix, data)
        assert np.array_equal(resp, np.ones((9, 1)))

    def test_symmetric_point_splits_evenly(self):
        mix = Mixture(
            [Gaussian([-1.0, 0.0], np.eye(2)), Gaussian([1.0, 0.0], np.eye(2))],
            [0.5, 0.5],
        )
        resp, _ = e_step(mix, np.array([[0.0, 5.0]]))
        assert resp[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert resp[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_matches_scalar_bayes_oracle(self):
        # One-dimensional two-component model checked against direct scalar
        # arithmetic, independent of the library's linear-algebra path.
        w = (0.3, 0.7)
        mus = (0.0, 2.0)
        vars_ = (1.0, 4.0)
        mix = Mixture(
            [Gaussian([mus[0]], [[vars_[0]]]), Gaussian([mus[1]], [[vars_[1]]])],
            list(w),
        )
        pts = [-1.0, 0.5, 3.25]
        resp, ll = e_step(mix, np.array(pts)[:, None])

        def dens(x, mu, var):
            return math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        expected_ll = 0.0
        for r, x in enumerate(pts):
            joint = [w[i] * dens(x, mus[i], vars_[i]) for i in range(2)]
            total = joint[0] + joint[1]
            expected_ll += math.log(total)
            assert resp[r, 0] == pytest.approx(joint[0] / total, abs=1e-12)
            assert resp[r, 1] == pytest.approx(joint[1] / total, abs=1e-12)
        assert ll == pytest.approx(expected_ll, rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((50, 3))
        mix = init_params(data, 4, FULL, 2)
        resp, _ = e_step(mix, data)
        assert np.all(np.abs(resp.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((resp >= 0) & (resp <= 1))

    def test_survives_extreme_underflow(self):
        # Points far from both components: plain densities underflow to 0,
        # but log-space normalization must still give sane rows.
        mix = Mixture(
            [Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])], [0.5, 0.5]
        )
        resp, ll = e_step(mix, np.array([[1000.0]]))
        assert np.isfinite(ll)
        assert resp[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestMStep:
    def test_hard_labels_give_cluster_stats(self):
        data = two_blob_data(m=60, seed=5)
        resp = np.zeros((60, 2))
        resp[:30, 0] = 1.0
        resp[30:, 1] = 1.0
        mix = m_step(resp, data, FULL)
        for i, rows in enumerate((data[:30], data[30:])):
            assert np.allclose(mix.components[i].mean, rows.mean(axis=0))
            centered = rows - rows.mean(axis=0)
            ml_cov = centered.T @ centered / rows.shape[0]
            assert np.allclose(mix.components[i].covariance, ml_cov)
        assert np.allclose(mix.weights, [0.5, 0.5])

    def test_uniform_responsibilities_give_global_stats(self):
        data = two_blob_data(m=40, seed=6)
        resp = np.full((40, 2), 0.5)
        mix = m_step(resp, data, FULL)
        global_mean = data.mean(axis=0)
        for g in mix.components:
            assert np.allclose(g.mean, global_mean)
        assert np.allclose(
            mix.components[0].covariance, mix.components[1].covariance
        )

    def test_soft_responsibilities_hand_oracle(self):
        data = np.array([[0.0], [1.0], [2.0], [4.0]])
        resp = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.1, 0.9]])
        mix = m_step(resp, data, FULL)
        c0, c1 = resp.sum(axis=0)
        mean0 = (0.9 * 0 + 0.8 * 1 + 0.3 * 2 + 0.1 * 4) / c0
        mean1 = (0.1 * 0 + 0.2 * 1 + 0.7 * 2 + 0.9 * 4) / c1
        assert mix.components[0].mean[0] == pytest.approx(mean0, abs=1e-12)
        assert mix.components[1].mean[0] == pytest.approx(mean1, abs=1e-12)
        assert mix.weights[0] == pytest.approx(c0 / 4.0, abs=1e-12)

    def test_shared_covariance_identical_across_components(self):
        data = two_blob_data(m=50, seed=7)
        resp = np.random.default_rng(8).dirichlet(np.ones(3), size=50)
        mix = m_step(resp, data, SHARED)
        first = mix.components[0].covariance
        for g in mix.components[1:]:
            assert np.array_equal(g.covariance, first)
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_component_raises(self):
        data = two_blob_data(m=20, seed=9)
        resp = np.zeros((20, 2))
        resp[:, 0] = 1.0
        with pytest.raises(EmptyComponentError) as err:
            m_step(resp, data, FULL)
        assert 1 in err.value.indices

    def test_empty_component_keeps_previous(self):
        data = two_blob_data(m=20, seed=9)
        resp = np.zeros((20, 2))
        resp[:, 0] = 1.0
        previous = init_params(data, 2, FULL, 0)
        mix = m_step(resp, data, FULL, previous=previous)
        assert np.array_equal(
            mix.components[1].mean, previous.components[1].mean
        )
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            m_step(np.ones((3, 2)), np.zeros((4, 2)), FULL)


class TestRunEm:
    def test_recovers_easy_pair(self):
        data = two_blob_data(m=2000, dist=10.0, seed=10)
        fit = run_em(data, 2, FULL, 3)
        truth = np.array([[0.0, 0.0], [10.0, 0.0]])
        found = np.sort(fit.model.means, axis=0)
        assert np.all(np.linalg.norm(found - truth, axis=1) < 0.1)
        assert fit.converged

    def test_single_component_converges_fast(self):
        data = np.random.default_rng(11).standard_normal((50, 3))
        fit = run_em(data, 1, FULL, 0)
        assert fit.iterations <= 2
        assert np.allclose(fit.model.components[0].mean, data.mean(axis=0))

    def test_trace_monotone(self):
        rng = np.random.default_rng(12)
        for trial in range(8):
            m = int(rng.integers(40, 80))
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            data = rng.standard_normal((m, n))
            data[: m // 2] += rng.standard_normal(n) * 3
            restriction = FULL if trial % 2 == 0 else SHARED
            fit = run_em(data, k, restriction, trial, max_iter=60)
            diffs = np.diff(fit.loglik_trace)
            assert np.all(diffs >= -1e-7)

    def test_stationary_point_is_fixed(self):
        # With widely separated clusters the responsibilities saturate, so a
        # fully converged run sits at an exact fixed point of e/m.
        data = two_blob_data(m=80, dist=50.0, seed=13)
        fit = run_em(data, 2, FULL, 1, tol=1e-15, max_iter=300)
        resp, _ = e_step(fit.model, data)
        nxt = m_step(resp, data, FULL)
        for g, h in zip(fit.model.components, nxt.components):
            assert np.max(np.abs(g.mean - h.mean)) < 1e-8
            assert np.max(np.abs(g.covariance - h.covariance)) < 1e-8
        assert np.max(np.abs(fit.model.weights - nxt.weights)) < 1e-8

    def test_rotation_equivariance(self):
        data = two_blob_data(m=70, dist=8.0, n=3, seed=14)
        q = random_orthonormal(3, 3, 5).rows
        fit_a = run_em(data, 2, FULL, 9)
        fit_b = run_em(data @ q.T, 2, FULL, 9)
        assert np.allclose(fit_a.loglik_trace, fit_b.loglik_trace, rtol=1e-6)
        rotated = fit_a.model.means @ q.T
        assert np.allclose(np.sort(rotated, axis=0), np.sort(fit_b.model.means, axis=0), atol=1e-6)

    def test_deterministic(self):
        data = two_blob_data(m=60, seed=15)
        a = run_em(data, 2, SHARED, 4)
        b = run_em(data, 2, SHARED, 4)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)
        assert np.array_equal(a.model.means, b.model.means)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_raises(self, bad):
        data = two_blob_data(m=40, seed=16)
        data[7, 1] = bad
        for restriction in (FULL, SHARED):
            with pytest.raises(NonFiniteError):
                run_em(data, 2, restriction, 0)
        with pytest.raises(NonFiniteError):
            rp_em(data, 2, 1, SHARED, 0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_shared_fit_factors_once_per_m_step(self, k, monkeypatch):
        # Whatever k is, a SHARED_FULL M-step makes one Cholesky and one
        # eigvalsh; the initial model takes one more of each.
        calls = {"cholesky": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(em, "cholesky", counted("cholesky", em.cholesky))
        monkeypatch.setattr(em, "eigvalsh", counted("eigvalsh", em.eigvalsh))
        rng = np.random.default_rng(30)
        centers = rng.standard_normal((k, 4)) * 6
        data = np.vstack([c + rng.standard_normal((60, 4)) for c in centers])
        fit = run_em(data, k, SHARED, 1, max_iter=25)
        assert fit.iterations >= 2
        assert calls == {"cholesky": fit.iterations + 1, "eigvalsh": fit.iterations + 1}


def _stacked_log_joint(model, data):
    """Reference: log w_i + log N(x; mu_i, Sigma_i), one Gaussian at a time."""
    return np.column_stack(
        [
            np.log(w) + log_density_batch(g, data)
            for g, w in zip(model.components, model.weights)
        ]
    )


def _old_pooled(resp, data, dead=()):
    """Reference: the pooled scatter as one weighted Gram per live component."""
    counts = resp.sum(axis=0)
    means = (resp.T @ data) / counts[:, None]
    pooled = np.zeros((data.shape[1], data.shape[1]))
    for i in range(resp.shape[1]):
        if i in dead:
            continue
        centered = data - means[i]
        pooled += (resp[:, i][:, None] * centered).T @ centered
    pooled /= data.shape[0]
    return (pooled + pooled.T) / 2.0


class TestArrayCore:
    def _data(self, seed, m=120, n=5):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((m, n)) @ rng.standard_normal((n, n))
        data[: m // 3] += 4.0
        return data + 50.0

    def _assert_matches_reference(self, params, data):
        ref = _stacked_log_joint(_to_mixture(params), data)
        rel = np.abs(_log_joint(params, data) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12

    def test_log_joint_shared_state(self):
        data = self._data(31)
        resp = np.random.default_rng(32).dirichlet(np.ones(3), size=data.shape[0])
        params = _m_step(resp, data, SHARED)
        assert len(params.chols) == 1
        assert np.array_equal(params.owner, [0, 0, 0])
        self._assert_matches_reference(params, data)

    def test_log_joint_distinct_state(self):
        data = self._data(33)
        resp = np.random.default_rng(34).dirichlet(np.ones(3), size=data.shape[0])
        params = _m_step(resp, data, FULL)
        assert len(params.chols) == 3
        self._assert_matches_reference(params, data)

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_log_joint_dead_component_keeps_previous_factor(self, restriction):
        data = self._data(35)
        rng = np.random.default_rng(36)
        previous = _m_step(rng.dirichlet(np.ones(3), size=data.shape[0]), data, restriction)
        resp = rng.dirichlet(np.ones(3), size=data.shape[0])
        resp[:, 1] = 0.0
        resp /= resp.sum(axis=1, keepdims=True)
        params = _m_step(resp, data, restriction, previous)
        kept = previous.owner[1]
        assert params.chols[params.owner[1]] is previous.chols[kept]
        assert np.array_equal(params.means[1], previous.means[1])
        assert len(params.chols) == (2 if restriction is SHARED else 3)
        self._assert_matches_reference(params, data)

    def test_equal_covariances_share_a_factor(self):
        a, b = np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])
        mix = Mixture(
            [Gaussian([0.0, 0.0], a), Gaussian([1.0, 0.0], b), Gaussian([0.0, 1.0], a.copy())],
            [0.2, 0.3, 0.5],
        )
        params = _from_mixture(mix)
        assert len(params.chols) == 2
        assert np.array_equal(params.owner, [0, 1, 0])
        data = np.random.default_rng(37).standard_normal((30, 2))
        self._assert_matches_reference(params, data)

    def test_pooled_covariance_from_gram_matches_k_grams(self):
        data = self._data(38, m=200, n=6)
        rng = np.random.default_rng(39)
        resp = rng.dirichlet(np.ones(4), size=200)
        pooled = _m_step(resp, data, SHARED, gram=_gram(data)).covs[0]
        ref = _old_pooled(resp, data)
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * np.max(np.abs(ref))
        # With a dead component its (tiny) responsibility share leaves the
        # pooled scatter, as in the per-component sum.
        resp[:, 2] *= 5e-11
        resp /= resp.sum(axis=1, keepdims=True)
        previous = _m_step(rng.dirichlet(np.ones(4), size=200), data, SHARED)
        pooled = _m_step(resp, data, SHARED, previous, _gram(data)).covs[0]
        ref = _old_pooled(resp, data, dead=(2,))
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRpEm:
    def test_full_dimension_matches_plain_em_on_projected_data(self):
        data = two_blob_data(m=120, dist=9.0, n=4, seed=16)
        fit_high, proj, fit_low = rp_em(data, 2, 4, FULL, 6)
        assert proj.target_dim == 4
        replay = run_em(project_data(proj, data), 2, FULL, 6)
        assert fit_low.loglik_trace[-1] == pytest.approx(
            replay.loglik_trace[-1], rel=1e-6
        )

    def test_exactly_one_high_dim_step(self):
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        fit_high, _, fit_low = rp_em(data, 2, 3, SHARED, 2)
        assert fit_high.iterations == 1
        assert len(fit_high.loglik_trace) == 2
        assert fit_high.loglik_trace[1] >= fit_high.loglik_trace[0] - 1e-7
        assert fit_low.iterations >= 1

    def test_deterministic(self):
        data = two_blob_data(m=90, dist=7.0, n=5, seed=18)
        a_high, a_proj, a_low = rp_em(data, 2, 3, FULL, 8)
        b_high, b_proj, b_low = rp_em(data, 2, 3, FULL, 8)
        assert np.array_equal(a_proj.rows, b_proj.rows)
        assert np.array_equal(a_high.model.means, b_high.model.means)
        assert np.array_equal(a_low.loglik_trace, b_low.loglik_trace)

    def test_extra_steps_keep_improving(self):
        data = two_blob_data(m=100, dist=6.0, n=6, seed=19)
        fit_high, _, _ = rp_em(data, 2, 3, FULL, 1, extra_high_dim_steps=3)
        assert fit_high.iterations == 4
        diffs = np.diff(fit_high.loglik_trace)
        assert np.all(diffs >= -1e-7)


class TestTestLoglik:
    def test_true_model_beats_single_gaussian(self):
        truth = Mixture(
            [
                Gaussian(np.zeros(3), np.eye(3)),
                Gaussian(np.full(3, 8.0), np.eye(3)),
            ],
            [0.5, 0.5],
        )
        train = sample(truth, 300, 0)
        test = sample(truth, 300, 1)
        single = run_em(train, 1, FULL, 0)
        assert held_out_loglik(truth, test) > held_out_loglik(single.model, test)

    def test_duplication_doubles(self):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        test = np.random.default_rng(20).standard_normal((10, 2))
        once = held_out_loglik(mix, test)
        twice = held_out_loglik(mix, np.vstack([test, test]))
        assert twice == pytest.approx(2.0 * once, rel=1e-12)

    def test_empty_is_zero(self):
        mix = Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0])
        assert held_out_loglik(mix, np.empty((0, 2))) == 0.0


class TestCentersRecovered:
    def _mixture(self, means, cov_scale=1.0):
        n = means.shape[1]
        return Mixture(
            [Gaussian(mu, cov_scale * np.eye(n)) for mu in means],
            np.full(means.shape[0], 1.0 / means.shape[0]),
        )

    def test_exact_match(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        mix = self._mixture(means)
        ok, errors = centers_recovered(mix, mix)
        assert ok
        assert np.array_equal(errors, np.zeros(3))

    def test_displacement_beyond_third_radius_fails(self):
        truth = self._mixture(np.array([[0.0, 0.0], [10.0, 0.0]]))
        r = radius(truth.components[0])
        shifted = np.array([[0.4 * r, 0.0], [10.0, 0.0]])
        ok, errors = centers_recovered(self._mixture(shifted), truth)
        assert not ok
        assert errors.max() == pytest.approx(0.4 * r, rel=1e-9)

    def test_permutation_absorbed(self):
        truth = self._mixture(np.array([[0.0, 0.0], [10.0, 0.0]]))
        swapped = self._mixture(np.array([[10.0, 0.0], [0.0, 0.0]]))
        ok, errors = centers_recovered(swapped, truth)
        assert ok
        assert np.allclose(errors, 0.0)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 4):
            for _ in range(10):
                truth_means = rng.standard_normal((k, 3)) * 5
                est_means = truth_means[rng.permutation(k)] + rng.standard_normal(
                    (k, 3)
                )
                truth = self._mixture(truth_means)
                est = self._mixture(est_means)
                _, errors = centers_recovered(est, truth)
                dists = np.linalg.norm(
                    est_means[:, None, :] - truth_means[None, :, :], axis=-1
                )
                best = min(
                    max(dists[p[j], j] for j in range(k))
                    for p in permutations(range(k))
                )
                assert errors.max() == pytest.approx(best, rel=1e-12)

    def test_shape_mismatch(self):
        a = self._mixture(np.zeros((2, 2)) + np.array([[0.0, 0.0], [5.0, 0.0]]))
        b = self._mixture(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        with pytest.raises(ShapeMismatchError):
            centers_recovered(a, b)

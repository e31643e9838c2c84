import math
import pickle
import sys
import threading
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri
from scipy.special import logsumexp

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
from rpmix import em, gaussians
from rpmix.classifier import LabeledDataset, train
from rpmix.em import _log_joint, _m_step
from rpmix.em import test_loglik as held_out_loglik
from rpmix.errors import (
    DuplicatePointsError,
    EmptyComponentError,
    IllConditionedError,
    InvalidParameterError,
    NonFiniteError,
    NotEnoughDataError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
)
from rpmix.experiments import em_compare_trial
from rpmix.gaussians import CONDITION_LIMIT, _Workspace, log_density, log_density_batch, mahalanobis
from rpmix.projection import ProjectionMatrix, pca, project_data, random_orthonormal

FULL = CovarianceRestriction.FULL_DISTINCT
SHARED = CovarianceRestriction.SHARED_FULL


def haar_map(data, d, seed):
    """The Haar map of `data`'s columns into R^d at `seed`: the hybrid's map
    as the experiments and the CLI draw it, from the fit's own seed."""
    return random_orthonormal(np.shape(data)[1], d, seed)


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

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_distinct_points_whose_squared_distances_underflow(self, restriction, k):
        # Distinct points, but every squared distance between them is 0.
        data = 1e-200 * np.random.default_rng(0).standard_normal((60, 4))
        with pytest.raises(IllConditionedError, match="^initial variance underflows to 0"):
            run_em(data, k, restriction, 0)


FITS_BY_RESTRICTION = {
    "init_params": lambda data, r: init_params(data, 3, r, 0),
    "m_step": lambda data, r: m_step(
        np.random.default_rng(0).dirichlet(np.ones(3), len(data)), data, r
    ),
    "run_em": lambda data, r: run_em(data, 3, r, 0).model,
    "rp_em": lambda data, r: rp_em(data, 3, haar_map(data, 2, 0), r, 0)[0].model,
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

    def test_point_with_no_density_is_non_finite(self):
        # Each point's quadratic form overflows to inf under both components.
        mix = init_params(np.random.default_rng(4).standard_normal((50, 3)), 2, FULL, 2)
        with pytest.raises(NonFiniteError, match="^point 0 has log-density -inf under every component"):
            e_step(mix, 1e160 * np.ones((3, 3)))

    def test_far_point_leaves_the_near_points_forms_finite(self):
        # Centred by the points' mean, every row overflows in the expanded
        # form; the near rows are computed again from x - mu.
        data = np.random.default_rng(4).standard_normal((50, 3))
        mix = init_params(data, 2, FULL, 0)
        points = np.vstack([data[:2], 1e160 * np.ones((3, 3))])
        quad = np.column_stack(
            [gaussians._quad_forms(mix._invs[f], mix.means[[i]], _Workspace(points))[:, 0]
             for i, f in enumerate(mix._owner)]
        )
        near = [[mahalanobis(g, x) ** 2 for g in mix.components] for x in data[:2]]
        assert quad[:2] == pytest.approx(np.array(near), rel=1e-12)
        assert np.all(quad[2:] == np.inf)
        assert held_out_loglik(mix, points) == -np.inf
        with pytest.raises(NonFiniteError, match="^point 2 has log-density -inf under every component"):
            e_step(mix, points)

    def test_normalizing_a_dead_row_leaves_the_others_bits(self):
        scores = np.random.default_rng(5).standard_normal((6, 3)) * 50.0
        dead = scores.copy()
        dead[2] = -np.inf
        resp, lse = em._log_normalize(dead)
        # The max-shifted normalization the finite rows had before.
        top = scores.max(axis=1, keepdims=True)
        shifted = np.exp(scores - top)
        total = shifted.sum(axis=1, keepdims=True)
        live = [0, 1, 3, 4, 5]
        assert np.array_equal(resp[live], (shifted / total)[live])
        assert np.array_equal(lse[live], (np.log(total) + top)[live, 0])
        assert lse[2] == -np.inf and np.all(resp[2] == 0.0)

    def test_subnormal_responsibilities_are_exactly_zero(self):
        tiny = np.finfo(float).tiny
        # exp(-720) is subnormal and exp(-800) underflows to 0. In the second
        # row exp(-707.9) is normal, but its share of a total of 2 is not.
        scores = np.array([[0.0, -720.0, -800.0], [0.0, 0.0, np.log(1.5 * tiny)], [-1.0, -2.0, 0.0]])
        resp, lse = em._log_normalize(scores)
        top = scores.max(axis=1, keepdims=True)
        shifted = np.exp(scores - top)
        total = shifted.sum(axis=1, keepdims=True)
        assert 0.0 < shifted[0, 1] < tiny and 0.0 < (shifted / total)[1, 2] < tiny
        assert np.array_equal(resp[:2], [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        assert not np.any((resp > 0.0) & (resp < tiny))
        assert np.array_equal(resp[2], (shifted / total)[2])
        # The unflushed formula's log-sums, bit for bit.
        assert np.array_equal(lse, (np.log(total) + top)[:, 0])

    @staticmethod
    def _reference_normalize(scores):
        """The row normalization with a C-ordered maximum, `np.isneginf` and
        an explicit dead-row total, against which the kernel is pinned."""
        top = scores.max(axis=1, keepdims=True)
        dead = np.isneginf(top)
        shifted = np.exp(scores - np.where(dead, 0.0, top))
        total = shifted.sum(axis=1, keepdims=True)
        total[dead] = 1.0
        resp = shifted / total
        resp[resp < np.finfo(float).tiny] = 0.0
        return resp, (np.log(total) + top)[:, 0]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 17])
    def test_normalizing_keeps_the_reference_bits(self, k):
        rng = np.random.default_rng(100 + k)
        scores = rng.standard_normal((325, k)) * 300.0
        scores[rng.random((325, k)) < 0.2] = -np.inf  # rows holding -inf entries
        scores[[7, 40]] = -np.inf  # rows that are -inf everywhere
        resp, lse = em._log_normalize(scores)
        want_resp, want_lse = self._reference_normalize(scores)
        assert np.array_equal(resp, want_resp)
        assert np.array_equal(lse, want_lse)
        assert lse[7] == lse[40] == -np.inf and not resp[[7, 40]].any()


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

    def test_empty_components_are_named_by_python_ints(self):
        # Three tight clusters fit with k = 20: the lift's M-step leaves
        # components empty, found by np.flatnonzero.
        data = np.repeat([[0.0, 0, 0, 0], [5, 5, 5, 5], [9, 0, 9, 0]], 10, axis=0)
        data += 1e-13 * np.random.default_rng(0).standard_normal((30, 4))
        with pytest.raises(EmptyComponentError) as err:
            rp_em(data, 20, haar_map(data, 2, 0), FULL, 0)
        for error in (err.value, pickle.loads(pickle.dumps(err.value))):
            assert str(error) == "empty component(s): (10, 12, 14, 18)"
            assert all(type(i) is int for i in error.indices)

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
            rp_em(data, 2, haar_map(data, 1, 0), SHARED, 0)

    @staticmethod
    def _count_factor_calls(monkeypatch):
        """Count the Cholesky factorizations EM and `Gaussian` make, and the
        trace bounds and exact condition numbers of the condition checks."""
        calls = {"cholesky": 0, "dtrtri": 0, "eigvalsh": 0, "Gaussian cholesky": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # Both factor through `gaussians._cholesky`: EM by its own import of it.
        monkeypatch.setattr(em, "_cholesky", counted("cholesky", em._cholesky))
        monkeypatch.setattr(gaussians, "dtrtri", counted("dtrtri", gaussians.dtrtri))
        monkeypatch.setattr(gaussians, "eigvalsh", counted("eigvalsh", gaussians.eigvalsh))
        monkeypatch.setattr(
            gaussians, "_cholesky", counted("Gaussian cholesky", gaussians._cholesky)
        )
        return calls

    @pytest.mark.parametrize("k", [2, 5])
    def test_shared_fit_factors_once_per_m_step(self, k, monkeypatch):
        # Whatever k is, a SHARED_FULL M-step makes one Cholesky and one
        # trace bound, and so does the spherical start, which builds no
        # Gaussian. The fitted model reuses EM's factor. On this
        # well-conditioned data no bound reaches the exact check.
        calls = self._count_factor_calls(monkeypatch)
        rng = np.random.default_rng(30)
        centers = rng.standard_normal((k, 4)) * 6
        data = np.vstack([c + rng.standard_normal((60, 4)) for c in centers])
        fit = run_em(data, k, SHARED, 1, max_iter=25)
        assert fit.iterations >= 2
        assert calls == {
            "cholesky": fit.iterations + 1,
            "dtrtri": fit.iterations + 1,
            "eigvalsh": 0,
            "Gaussian cholesky": 0,
        }

    def test_comparison_trial_factors_each_covariance_once(self, monkeypatch):
        # A whole SHARED_FULL trial. The truth's one shared covariance is
        # factored once, by `make_mixture`, whatever k is. EM factors
        # once per M-step (the plain fit's, the projected fit's, and the
        # hybrid's lift and one high-dimensional step) and once for each of
        # the two spherical starts. The three models EM reads back (the
        # projected fit for the lift, and the two fits for their test
        # log-likelihoods) carry the inverses of EM's own checks, so they
        # take no new factor and no new bound.
        calls = self._count_factor_calls(monkeypatch)
        k = 3
        row = em_compare_trial(
            20, 1, k=k, c=2.0, d=5, restriction=SHARED, train_size=300, test_size=100
        )
        assert not row["reg_failed"] and not row["rp_failed"]
        m_steps = row["reg_iterations"] + row["rp_low_iterations"] + 2
        assert calls == {
            "cholesky": m_steps + 2,
            "dtrtri": m_steps + 2,
            "eigvalsh": 0,
            "Gaussian cholesky": 1,
        }


def _stacked_log_joint(model, data):
    """Reference: log w_i + log N(x; mu_i, Sigma_i), one Gaussian at a time,
    with the quadratic form in difference form, ||L^-1 (x - mu_i)||^2."""
    n = data.shape[1]
    columns = []
    for g, w in zip(model.components, model.weights):
        y = solve_triangular(g.chol, (data - g.mean).T, lower=True)
        log_det = 2.0 * np.sum(np.log(np.diag(g.chol)))
        columns.append(np.log(w) - 0.5 * (n * np.log(2.0 * np.pi) + log_det + np.sum(y * y, axis=0)))
    return np.column_stack(columns)


def _old_pooled(resp, data):
    """Reference: the pooled scatter as one weighted Gram per component."""
    counts = resp.sum(axis=0)
    means = (resp.T @ data) / counts[:, None]
    pooled = np.zeros((data.shape[1], data.shape[1]))
    for i in range(resp.shape[1]):
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
        ref = _stacked_log_joint(params, data)
        rel = np.abs(_log_joint(params, _Workspace(data)) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12

    def test_log_joint_shared_state(self):
        data = self._data(31)
        resp = np.random.default_rng(32).dirichlet(np.ones(3), size=data.shape[0])
        params = _m_step(resp, _Workspace(data, shared=True))
        assert len(params._chols) == 1
        assert np.array_equal(params._owner, [0, 0, 0])
        self._assert_matches_reference(params, data)

    def test_log_joint_distinct_state(self):
        data = self._data(33)
        resp = np.random.default_rng(34).dirichlet(np.ones(3), size=data.shape[0])
        params = _m_step(resp, _Workspace(data))
        assert len(params._chols) == 3
        self._assert_matches_reference(params, data)

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_log_joint_dead_component_keeps_previous_factor(self, restriction):
        # Under SHARED_FULL the dead component keeps its mean and shares the
        # pooled factor: the state still has one.
        data = self._data(35)
        rng = np.random.default_rng(36)
        work = _Workspace(data, shared=restriction is SHARED)
        previous = _m_step(rng.dirichlet(np.ones(3), size=data.shape[0]), work)
        resp = rng.dirichlet(np.ones(3), size=data.shape[0])
        resp[:, 1] = 0.0
        resp /= resp.sum(axis=1, keepdims=True)
        params = _m_step(resp, work, previous)
        assert np.array_equal(params.means[1], previous.means[1])
        if restriction is SHARED:
            assert len(params._chols) == 1
            assert np.array_equal(params._owner, [0, 0, 0])
        else:
            # The previous covariance is factored again: the same bits.
            f, g = params._owner[1], previous._owner[1]
            assert np.array_equal(params._covs[f], previous._covs[g])
            assert np.array_equal(params._chols[f], previous._chols[g])
            assert np.array_equal(params._invs[f], previous._invs[g])
            assert len(params._chols) == 3
        self._assert_matches_reference(params, data)

    def test_dead_components_that_shared_a_factor_get_one_each(self):
        # A FULL_DISTINCT state is factored whole, one factor per component:
        # two dead components whose previous covariance was one factor get
        # two, each with that factor's bits.
        data = self._data(40)
        rng = np.random.default_rng(41)
        a, b = _spd(5, 10.0, 42), _spd(5, 20.0, 43)
        previous = Mixture([Gaussian(data[0], a), Gaussian(data[1], a), Gaussian(data[2], b)],
                           [0.3, 0.3, 0.4])
        assert np.array_equal(previous._owner, [0, 0, 1])
        resp = rng.dirichlet(np.ones(3), size=data.shape[0])
        resp[:, :2] = 0.0
        resp /= resp.sum(axis=1, keepdims=True)
        params = _m_step(resp, _Workspace(data), previous)
        assert len(params._chols) == 3
        assert np.array_equal(params._owner, [0, 1, 2])
        for i in (0, 1):
            assert np.array_equal(params._chols[i], previous._chols[0])
            assert np.array_equal(params._invs[i], previous._invs[0])
            assert np.array_equal(params.means[i], previous.means[i])
        self._assert_matches_reference(params, data)

    def test_equal_covariances_share_a_factor(self):
        a, b = np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])
        mix = Mixture(
            [Gaussian([0.0, 0.0], a), Gaussian([1.0, 0.0], b), Gaussian([0.0, 1.0], a.copy())],
            [0.2, 0.3, 0.5],
        )
        assert len(mix._chols) == 2
        assert np.array_equal(mix._owner, [0, 1, 0])
        data = np.random.default_rng(37).standard_normal((30, 2))
        self._assert_matches_reference(mix, data)

    def test_pooled_covariance_from_gram_matches_k_grams(self):
        data = self._data(38, m=200, n=6)
        rng = np.random.default_rng(39)
        resp = rng.dirichlet(np.ones(4), size=200)
        pooled = _m_step(resp, _Workspace(data, shared=True))._covs[0]
        ref = _old_pooled(resp, data)
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * np.max(np.abs(ref))
        # A dead component's (tiny) responsibility share stays in the pooled
        # scatter, as in the per-component sum over every component.
        resp[:, 2] *= 5e-11
        resp /= resp.sum(axis=1, keepdims=True)
        previous = _m_step(rng.dirichlet(np.ones(4), size=200), _Workspace(data, shared=True))
        params = _m_step(resp, _Workspace(data, shared=True), previous)
        assert len(params._chols) == 1
        pooled = params._covs[0]
        ref = _old_pooled(resp, data)
        assert np.max(np.abs(pooled - ref)) <= 1e-12 * np.max(np.abs(ref))


def _spd(n, kappa, seed):
    """Symmetric matrix with eigenvalues geometric from 1 to kappa in a random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    cov = (q * np.geomspace(1.0, kappa, n)) @ q.T
    return (cov + cov.T) / 2.0


def _data_with_covariance(cov, m, seed):
    """m points whose sample covariance (normalised by m) is `cov`."""
    z = np.random.default_rng(seed).standard_normal((m, cov.shape[0]))
    z -= z.mean(axis=0)
    z = solve_triangular(np.linalg.cholesky(z.T @ z / m), z.T, lower=True).T
    return z @ np.linalg.cholesky(cov).T


def _bound(cov):
    """tr(Sigma) ||L^-1||_F^2, the upper bound on kappa_2(Sigma) that the
    condition check starts from."""
    inv = dtrtri(np.linalg.cholesky(cov), lower=1)[0]
    return np.trace(cov) * np.einsum("ij,ij->", inv, inv)


class TestConditionBound:
    @pytest.mark.parametrize("n", [2, 25, 200])
    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9, 1e11, 1e12, 1e13])
    def test_bound_is_at_least_the_exact_condition_number(self, n, kappa):
        for seed in range(3):
            cov = _spd(n, kappa, seed)
            lam = np.linalg.eigvalsh(cov)
            exact = lam[-1] / lam[0]
            bound = _bound(cov)
            # Both sides round by about eps * kappa (2e-3 at 1e13); the
            # exact check starts a factor 10 below the limit.
            assert bound >= (1.0 - 1e-2) * exact

    # At n = 200 the bound exceeds kappa about 70-fold, so at kappa = 1e11
    # it is past the limit: only the exact check can pass that covariance.
    @pytest.mark.parametrize("kappa, ill", [(2e12, True), (1e11, False)])
    def test_verdict_is_the_exact_one(self, kappa, ill):
        cov = _spd(200, kappa, 7)
        assert _bound(cov) >= CONDITION_LIMIT
        data = _data_with_covariance(cov, 400, 8)
        if ill:
            with pytest.raises(IllConditionedError):
                em._factor_and_invert([cov])
            with pytest.raises(IllConditionedError, match="iteration 0"):
                run_em(data, 1, FULL, 0)
        else:
            em._factor_and_invert([cov])
            assert run_em(data, 1, FULL, 0).converged

    def test_supplied_mixture_is_checked(self):
        # A Gaussian factors any positive definite covariance; EM reuses its
        # factor but still runs the condition check on it.
        model = Mixture([Gaussian(np.zeros(2), np.diag([1.0, 1e-13]))], [1.0])
        data = np.ones((3, 2))
        with pytest.raises(IllConditionedError):
            e_step(model, data)
        with pytest.raises(IllConditionedError):
            held_out_loglik(model, data)

    def _count_eigvalsh(self, monkeypatch):
        calls = []

        def counted(cov):
            calls.append(cov)
            return np.linalg.eigvalsh(cov)

        monkeypatch.setattr(gaussians, "eigvalsh", counted)
        return calls

    def test_exact_check_once_per_factor_whose_bound_clears(self, monkeypatch):
        calls = self._count_eigvalsh(monkeypatch)
        well, near = _spd(200, 10.0, 9), _spd(200, 1e11, 10)
        assert _bound(near) >= CONDITION_LIMIT / 10
        em._factor_and_invert([well, near, well.copy(), near.copy()])
        assert len(calls) == 2
        assert calls[0] is near

    @pytest.mark.parametrize(
        "dtrtri",
        [lambda chol, lower: (chol, 1), lambda chol, lower: (np.full_like(chol, np.nan), 0)],
        ids=["info", "nan"],
    )
    def test_failed_or_non_finite_inverse_is_ill_conditioned(self, monkeypatch, dtrtri):
        monkeypatch.setattr(gaussians, "dtrtri", dtrtri)
        cov = _spd(5, 10.0, 11)
        with pytest.raises(IllConditionedError, match="inverse has a non-finite trace"):
            gaussians._checked_inverse(cov, np.linalg.cholesky(cov))

    def test_bound_overflowing_through_the_trace_takes_the_exact_check(self, monkeypatch):
        # tr(Sigma) = 3.6e308 overflows; tr(Sigma^-1) and kappa = 8 do not.
        calls = self._count_eigvalsh(monkeypatch)
        cov = 1e307 * np.diag(np.arange(1.0, 9.0))
        chol = np.linalg.cholesky(cov)
        inv = gaussians._checked_inverse(cov, chol)
        assert len(calls) == 1
        assert np.array_equal(inv, dtrtri(chol, lower=1)[0])

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_inverse_that_overflows_is_ill_conditioned(self, restriction):
        # Sigma = 1e-310 diag(1, 2, 3) has kappa = 3, but ||L^-1||_F^2 = tr(Sigma^-1)
        # overflows, so no point can be whitened by it.
        g = Gaussian(np.zeros(3), 1e-310 * np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(IllConditionedError, match="inverse has a non-finite trace"):
            log_density_batch(g, np.zeros((2, 3)))
        data = np.sqrt(1e-310 * np.array([1.0, 2.0, 3.0])) * np.random.default_rng(14).standard_normal((30, 3))
        with pytest.raises(IllConditionedError, match="inverse has a non-finite trace"):
            run_em(data, 2, restriction, 0)

    @staticmethod
    def _ill_conditioned_message(call):
        try:
            call()
        except IllConditionedError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("kappa", [1e6, 5e11, 2e12])
    def test_density_and_em_give_one_verdict(self, kappa):
        cov = _spd(200, kappa, 12)
        g = Gaussian(np.zeros(200), cov)
        from_em = self._ill_conditioned_message(lambda: em._factor_and_invert([cov]))
        from_density = self._ill_conditioned_message(lambda: log_density_batch(g, np.ones((2, 200))))
        assert from_density == from_em
        assert (from_em is not None) == (kappa > CONDITION_LIMIT)

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_fitted_model_carries_its_inverses(self, restriction, monkeypatch):
        # The fit's model is its last state, and that state carries the
        # inverses of the last M-step's checks.
        built = []
        m_step = em._m_step
        monkeypatch.setattr(em, "_m_step", lambda *a, **kw: built.append(m_step(*a, **kw)) or built[-1])
        fit = run_em(two_blob_data(seed=17), 2, restriction, 0)
        calls = TestRunEm._count_factor_calls(monkeypatch)
        read = fit.model
        assert read._invs is not None and calls["dtrtri"] == 0
        assert len(read._invs) == len(built[-1]._invs)
        assert all(a is b for a, b in zip(read._invs, built[-1]._invs))

    def test_gaussian_keeps_its_check(self, monkeypatch):
        g = Gaussian(np.zeros(3), _spd(3, 10.0, 13))
        calls = TestRunEm._count_factor_calls(monkeypatch)
        log_density_batch(g, np.ones((4, 3)))
        assert (calls["dtrtri"], calls["eigvalsh"]) == (1, 0)
        log_density(g, np.ones(3))
        mahalanobis(g, np.ones(3))
        assert (calls["dtrtri"], calls["eigvalsh"]) == (1, 0)


class TestLogJointAccuracy:
    def test_far_means_under_ill_conditioned_shared_factor(self):
        # kappa = 1e6, data far from the origin, and means 10 sigma
        # (Mahalanobis) from the data mean. Components 0, 1 and 3 share a
        # factor; component 2 is dead and keeps the factor of its previous
        # model, as `_m_step` leaves it.
        n = 20
        cov, previous = _spd(n, 1e6, 40), _spd(n, 30.0, 41)
        rng = np.random.default_rng(42)
        chol = np.linalg.cholesky(cov)
        data = 1e3 + rng.standard_normal((300, n)) @ chol.T
        dirs = rng.standard_normal((4, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        means = data.mean(axis=0) + 10.0 * dirs @ chol.T
        weights = np.array([0.3, 0.3, em.EMPTY_COMPONENT_FRACTION, 0.4])
        chols, invs = em._factor_and_invert([cov, previous])
        params = Mixture._of(
            weights / weights.sum(), means, (cov, previous), chols, np.array([0, 0, 1, 0]), invs
        )
        ref = _stacked_log_joint(params, data)
        rel = np.abs(_log_joint(params, _Workspace(data)) - ref) / np.abs(ref)
        assert rel.max() <= 1e-12


class TestSharedEStep:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(2, 40),
        k=st.integers(1, 6),
        kappa_exp=st.floats(0.0, 8.0),
        scale_exp=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_log_joint(self, n, m, k, kappa_exp, scale_exp, seed):
        """The solve-free E-step of a shared covariance agrees with
        `_log_joint` plus a log-sum-exp on the same state, for data 1e3 from
        the origin and condition numbers up to 1e8.

        With s_j = ||L^-1 y_j||^2 + max_i ||L^-1 d_i||^2 (y_j and d_i
        centred by the data mean), the scores y_j^T Sigma^-1 d_i lose about
        n eps sqrt(kappa) s_j, and the responsibilities at most twice their
        largest error. The trace tr(Sigma^-1 G) sums entries up to kappa
        times larger than itself, so the total loses about
        n eps kappa sum_j s_j, plus eps per unit of each point's
        log-likelihood. The worst of 20000 seeded draws from these ranges
        reached 1.4 eps in these units; scoring the uncentred data reached
        2400 eps."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.geomspace(1.0, 10.0**kappa_exp, n) * 10.0**scale_exp
        cov = (q * lam) @ q.T
        chol = np.linalg.cholesky((cov + cov.T) / 2.0)
        data = 1e3 * rng.standard_normal(n) + rng.standard_normal((m, n)) @ chol.T
        means = data.mean(axis=0) + (rng.uniform(0.0, 5.0, (k, 1)) * rng.standard_normal((k, n))) @ chol.T
        model = Mixture([Gaussian(mu, cov) for mu in means], rng.dirichlet(np.ones(k)))
        params = model
        assert len(params._chols) == 1

        resp, ll = em._e_step(params, _Workspace(data, shared=True))

        log_joint = _log_joint(params, _Workspace(data))
        lse = logsumexp(log_joint, axis=1)
        eps = np.finfo(float).eps
        lam = np.linalg.eigvalsh(params._covs[0])
        kappa = lam[-1] / lam[0]
        center = data.mean(axis=0)
        s = _solved_norms(params._chols[0], data, center) + _solved_norms(params._chols[0], means, center).max()
        c = 8.0
        resp_bound = c * eps * (1.0 + n * np.sqrt(kappa) * s[:, None])
        assert np.all(np.abs(resp - np.exp(log_joint - lse[:, None])) <= resp_bound)
        assert abs(ll - lse.sum()) <= c * eps * (np.abs(lse).sum() + n * kappa * s.sum())

    def test_shared_fit_whitens_no_point(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gaussians._quad_forms(*args, **kwargs)

        monkeypatch.setattr(em, "_quad_forms", counted)
        rng = np.random.default_rng(60)
        centers = rng.standard_normal((3, 6)) * 6
        data = np.vstack([c + rng.standard_normal((80, 6)) for c in centers])
        fit = run_em(data, 3, SHARED, 2)
        assert fit.iterations >= 2 and fit.converged
        assert calls == []


def _solved_norms(chol, rows, center):
    """||L^-1 (r - center)||^2 of every row r, in difference form."""
    return np.sum(solve_triangular(chol, (rows - center).T, lower=True) ** 2, axis=0)


class TestRescue:
    """A component that empties moves to the worst-explained point, at most
    MAX_RESCUES times per fit; after that it keeps its previous mean at the
    weight floor, with its previous factor under FULL_DISTINCT and the pooled
    one under SHARED_FULL."""

    OUTLIER = 100  # index of the one point far from both blobs

    def _start(self, monkeypatch, restriction, far_weight):
        """Two blobs and an outlier, and a start whose component 2 sits far
        from every point with weight `far_weight`; `run_em` begins there.

        The outlier lies beyond blob 0 on the blobs' axis. It is the worst
        explained point, but not the lowest once the term -q_j / 2 that
        every component shares is dropped, as the shared E-step drops it."""
        data = two_blob_data(m=self.OUTLIER, dist=8.0, n=2, seed=61)
        data = np.vstack([data, [-12.0, 1.0]])
        if restriction is SHARED:
            covs = [np.eye(2)] * 3
        else:
            covs = [np.eye(2), np.diag([1.5, 0.8]), 0.5 * np.eye(2)]
        means = [data[:50].mean(axis=0), data[50:100].mean(axis=0), [500.0, -500.0]]
        weights = [0.5, 0.5 - far_weight, far_weight]
        start = Mixture([Gaussian(mu, cov) for mu, cov in zip(means, covs)], weights)
        monkeypatch.setattr(em, "init_params", lambda *args: start)
        return data, start

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_empty_component_moves_to_worst_explained_point(self, monkeypatch, restriction):
        data, start = self._start(monkeypatch, restriction, 1.0 / 3.0)
        worst = int(np.argmin(logsumexp(_stacked_log_joint(start, data), axis=1)))
        assert worst == self.OUTLIER
        # One M-step finds component 2 empty; the rescue is the whole step.
        fit = run_em(data, 3, restriction, 0, max_iter=1)
        assert fit.iterations == 1
        assert np.array_equal(fit.model.means[2], data[worst])
        assert np.array_equal(fit.model.means[:2], start.means[:2])

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_dead_component_keeps_previous_parameters_after_max_rescues(
        self, monkeypatch, restriction
    ):
        # At weight 1e-300 component 2 stays empty wherever it is moved, so
        # the first MAX_RESCUES M-steps are rescues and the next keeps it.
        # Such a rescue leaves the log-likelihood as it was, so a tol of 0
        # keeps the fit from stopping there as converged.
        data, start = self._start(monkeypatch, restriction, 1e-300)
        whitened = []

        def counted(*args):
            whitened.append(args)
            return gaussians._quad_forms(*args)

        monkeypatch.setattr(em, "_quad_forms", counted)
        fit = run_em(data, 3, restriction, 0, tol=0.0, max_iter=em.MAX_RESCUES + 1)
        assert fit.iterations == em.MAX_RESCUES + 1
        dead, live = fit.model.components[2], fit.model.components[:2]
        assert np.array_equal(dead.mean, data[self.OUTLIER])
        assert fit.model.weights[2] == pytest.approx(em.EMPTY_COMPONENT_FRACTION, rel=1e-9)
        assert not np.array_equal(live[0].mean, start.means[0])
        params = fit.model
        if restriction is SHARED:
            # One pooled factor for every component, so every E-step is the
            # shared one: only the rescues whiten, each through one factor.
            assert len(params._chols) == 1
            assert np.array_equal(live[0].covariance, live[1].covariance)
            assert np.array_equal(dead.covariance, live[0].covariance)
            assert len(whitened) == em.MAX_RESCUES
        else:
            assert np.array_equal(dead.covariance, start.components[2].covariance)
            assert len(params._chols) == 3

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_failed_keep_previous_step_names_its_iteration(self, monkeypatch, restriction):
        # The first M-step that factors is the one that keeps component 2,
        # after MAX_RESCUES rescues; its failure carries the iteration, as
        # every other failed step's does.
        data, _ = self._start(monkeypatch, restriction, 1e-300)

        def failing(covs):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(em, "_factor_and_invert", failing)
        with pytest.raises(NotPositiveDefiniteError, match=f"^iteration {em.MAX_RESCUES}: forced$"):
            run_em(data, 3, restriction, 0, tol=0.0, max_iter=em.MAX_RESCUES + 1)


def _assert_same_state(a, b):
    """Two mixtures hold equal arrays in every field of their layout."""
    fields = ("weights", "means", "_covs", "_chols", "_owner", "_invs")
    for x, y in ((getattr(a, f), getattr(b, f)) for f in fields):
        if isinstance(x, tuple):
            assert len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
        else:
            assert np.array_equal(x, y)


def _fresh(work):
    """A new `_Workspace` on the points of `work`, with a Gram matrix if
    `work` keeps one."""
    return _Workspace(work.points, shared=work.gram is not None)


class TestWorkspace:
    """The one `_Workspace` of a fit changes no bit of a step: every
    log-joint and M-step of the fit equals the one computed in a fresh
    workspace on the same points. A SHARED_FULL fit's log-joints are its
    rescues'; its E-steps whiten no point."""

    @pytest.mark.parametrize("restriction", [FULL, SHARED])
    def test_every_step_of_a_rescued_fit_matches_a_fresh_workspace(self, monkeypatch, restriction):
        # The fit of TestRescue: two rescues, then a dead component that is
        # kept, with its factor under FULL_DISTINCT and on the pooled one
        # under SHARED_FULL.
        data, _ = TestRescue()._start(monkeypatch, restriction, 1e-300)
        log_joint, m_step = em._log_joint, em._m_step
        spaces = []

        def checked_log_joint(params, work):
            out = log_joint(params, work)
            spaces.append(work)
            assert np.array_equal(out, log_joint(params, _fresh(work)))
            return out

        def checked_m_step(resp, work, previous=None):
            out = m_step(resp, work, previous)
            spaces.append(work)
            _assert_same_state(out, m_step(resp, _fresh(work), previous))
            return out

        monkeypatch.setattr(em, "_log_joint", checked_log_joint)
        monkeypatch.setattr(em, "_m_step", checked_m_step)
        fit = run_em(data, 3, restriction, 0, tol=0.0, max_iter=em.MAX_RESCUES + 1)
        assert fit.iterations == em.MAX_RESCUES + 1
        assert len(fit.model._chols) == (1 if restriction is SHARED else 3)
        # The rescues' log-joints, and in FULL_DISTINCT every E-step's.
        log_joints = em.MAX_RESCUES + (0 if restriction is SHARED else fit.iterations + 1)
        assert len(spaces) > log_joints
        assert all(isinstance(work, _Workspace) for work in spaces)
        assert len({id(work) for work in spaces}) == 1

    def test_distinct_fit_whitens_through_quad_forms(self, monkeypatch):
        # The workspace route is still `em._quad_forms`, so that counting
        # it (as `test_shared_fit_whitens_no_point` does) sees every whitening.
        works = []

        def counted(inv, means, work):
            works.append(work)
            return gaussians._quad_forms(inv, means, work)

        monkeypatch.setattr(em, "_quad_forms", counted)
        data = two_blob_data(m=120, dist=6.0, n=3, seed=62)
        fit = run_em(data, 3, FULL, 4, max_iter=5)
        # At least one factor per E-step; the start may share one.
        assert len(works) >= fit.iterations + 1
        assert all(isinstance(work, _Workspace) for work in works)


class TestReentrancy:
    def test_concurrent_fits_match_serial_ones(self):
        """Fits that run at once in threads, each on its own data, return
        the arrays they return one after the other: no buffer is shared."""
        jobs = [
            (two_blob_data(m=300, dist=5.0, n=6, seed=70 + i), FULL if i % 3 else SHARED)
            for i in range(6)
        ]
        serial = [run_em(data, 3, restriction, 1, tol=0.0, max_iter=30) for data, restriction in jobs]
        results = [None] * len(jobs)

        def fit(i):
            results[i] = run_em(jobs[i][0], 3, jobs[i][1], 1, tol=0.0, max_iter=30)

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert got.iterations == want.iterations and got.converged == want.converged
            assert np.array_equal(got.loglik_trace, want.loglik_trace)
            _assert_same_state(got.model, want.model)


class TestRpEm:
    def test_full_dimension_matches_plain_em_on_projected_data(self):
        data = two_blob_data(m=120, dist=9.0, n=4, seed=16)
        fit_high, proj, fit_low = rp_em(data, 2, haar_map(data, 4, 6), FULL, 6)
        assert proj.target_dim == 4
        replay = run_em(project_data(proj, data), 2, FULL, 6)
        assert fit_low.loglik_trace[-1] == pytest.approx(
            replay.loglik_trace[-1], rel=1e-6
        )

    def test_exactly_one_high_dim_step(self):
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        fit_high, _, fit_low = rp_em(data, 2, haar_map(data, 3, 2), SHARED, 2)
        assert fit_high.iterations == 1
        assert len(fit_high.loglik_trace) == 2
        assert fit_high.loglik_trace[1] >= fit_high.loglik_trace[0] - 1e-7
        assert fit_low.iterations >= 1

    @staticmethod
    def _lifted(data, k, proj, restriction, seed):
        """The hybrid's lifted state, built step by step, and a workspace on
        `data`: the low-dimensional fit's soft labels, one M-step up."""
        low = project_data(proj, data)
        resp, _ = em._e_step(run_em(low, k, restriction, seed).model, _Workspace(low))
        work = _Workspace(data, shared=restriction is SHARED)
        return _m_step(resp, work), work

    @pytest.mark.parametrize("restriction", [SHARED, FULL])
    def test_high_dim_step_is_one_em_step_from_the_lift(self, restriction):
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        proj = haar_map(data, 3, 2)
        lifted, work = self._lifted(data, 2, proj, restriction, 2)
        resp, ll = em._e_step(lifted, work)
        params = _m_step(resp, work, lifted)
        fit = rp_em(data, 2, proj, restriction, 2)[0]
        _assert_same_state(fit.model, params)
        assert np.array_equal(fit.loglik_trace, [ll, em._e_step(params, work)[1]])
        assert fit.iterations == 1 and fit.converged is False

    @pytest.mark.parametrize("restriction", [SHARED, FULL])
    def test_component_emptied_in_high_dim_step_keeps_its_lifted_state(
        self, monkeypatch, restriction
    ):
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        proj = haar_map(data, 3, 2)
        lifted, work = self._lifted(data, 2, proj, restriction, 2)
        e_step, emptied = em._e_step, []

        def emptying(params, work):
            # The first high-dimensional E-step gives component 0's mass to 1.
            resp, ll = e_step(params, work)
            if work.points.shape[1] == data.shape[1] and not emptied:
                resp = resp.copy()
                resp[:, 1] += resp[:, 0]
                resp[:, 0] = 0.0
                emptied.append(resp)
            return resp, ll

        monkeypatch.setattr(em, "_e_step", emptying)
        fit = rp_em(data, 2, proj, restriction, 2)[0]
        assert len(emptied) == 1 and fit.iterations == 1
        # Kept, not rescued: a rescue would move the mean to a data point and
        # keep the lifted weights.
        _assert_same_state(fit.model, _m_step(emptied[0], work, lifted))
        model = fit.model
        assert np.array_equal(model.means[0], lifted.means[0])
        assert model.weights[0] == pytest.approx(em.EMPTY_COMPONENT_FRACTION, rel=1e-9)
        if restriction is SHARED:
            # The emptied component shares the pooled factor.
            assert len(model._chols) == 1
        else:
            assert np.array_equal(
                model._chols[model._owner[0]], lifted._chols[lifted._owner[0]]
            )

    @pytest.mark.parametrize("restriction", [SHARED, FULL])
    def test_low_dim_fit_runs_at_run_em_defaults(self, restriction):
        # One setting for every caller: tol 1e-5 and at most 500 iterations.
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        proj = haar_map(data, 3, 2)
        fit_low = rp_em(data, 2, proj, restriction, 2)[2]
        want = run_em(project_data(proj, data), 2, restriction, 2, tol=1e-5, max_iter=500)
        assert fit_low.iterations == want.iterations
        assert fit_low.converged is want.converged
        assert np.array_equal(fit_low.loglik_trace, want.loglik_trace)
        _assert_same_state(fit_low.model, want.model)

    @pytest.mark.parametrize("restriction", [SHARED, FULL])
    def test_identity_map_gives_plain_em(self, restriction):
        # ROADMAP item 19's metamorphic check: through the identity map of
        # R^n the low-dimensional fit is plain EM, bit for bit.
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        identity = ProjectionMatrix(np.eye(6), "orthonormal-rp")
        fit_low = rp_em(data, 2, identity, restriction, 2)[2]
        want = run_em(data, 2, restriction, 2)
        assert fit_low.iterations == want.iterations
        assert np.array_equal(fit_low.loglik_trace, want.loglik_trace)
        _assert_same_state(fit_low.model, want.model)

    @pytest.mark.parametrize("restriction", [SHARED, FULL])
    def test_pca_map_goes_through_with_no_option(self, restriction):
        data = two_blob_data(m=100, dist=9.0, n=6, seed=17)
        proj = pca(data, 3)
        _, given, fit_low = rp_em(data, 2, proj, restriction, 2)
        want = run_em(project_data(proj, data), 2, restriction, 2)
        assert given is proj
        assert np.array_equal(fit_low.loglik_trace, want.loglik_trace)
        _assert_same_state(fit_low.model, want.model)

    def test_deterministic(self):
        data = two_blob_data(m=90, dist=7.0, n=5, seed=18)
        proj = haar_map(data, 3, 8)
        a_high, a_proj, a_low = rp_em(data, 2, proj, FULL, 8)
        b_high, b_proj, b_low = rp_em(data, 2, proj, FULL, 8)
        assert a_proj is b_proj is proj
        assert np.array_equal(a_high.model.means, b_high.model.means)
        assert np.array_equal(a_low.loglik_trace, b_low.loglik_trace)


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

    def test_point_with_no_density_gives_minus_inf(self):
        # As a failed fit's cell reads; the quadratic forms overflow to inf.
        mix = init_params(np.random.default_rng(4).standard_normal((50, 3)), 2, FULL, 2)
        assert held_out_loglik(mix, 1e160 * np.ones((3, 3))) == -np.inf


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

    @staticmethod
    def _scan(model, truth):
        """Oracle: the first permutation, in lexicographic order, whose
        largest center distance is the smallest over all k! of them."""
        k = truth.k
        dists = np.linalg.norm(model.means[:, None, :] - truth.means[None, :, :], axis=-1)
        best_perm, best_max = None, np.inf
        for perm in permutations(range(k)):
            worst = max(dists[perm[j], j] for j in range(k))
            if worst < best_max:
                best_perm, best_max = perm, worst
        errors = np.array([dists[best_perm[j], j] for j in range(k)])
        thresholds = np.array([radius(g) / 3.0 for g in truth.components])
        return bool(np.all(errors <= thresholds)), errors

    @pytest.mark.parametrize("ties", [False, True], ids=["continuous", "tied"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_the_permutation_scan(self, k, ties):
        rng = np.random.default_rng([22, k, int(ties)])
        for _ in range(25):
            if ties:  # integer grid points: many equal distances
                truth_means = rng.integers(-2, 3, (k, 2)).astype(float)
                est_means = rng.integers(-2, 3, (k, 2)).astype(float)
            else:
                truth_means = rng.standard_normal((k, 2)) * 4
                est_means = truth_means[rng.permutation(k)] + rng.standard_normal((k, 2))
            scales = rng.uniform(0.5, 20.0, k)  # unequal per-component radii
            truth = Mixture(
                [Gaussian(mu, s * np.eye(2)) for mu, s in zip(truth_means, scales)],
                np.full(k, 1.0 / k),
            )
            est = self._mixture(est_means)
            ok, errors = centers_recovered(est, truth)
            ok_scan, errors_scan = self._scan(est, truth)
            assert ok == ok_scan
            assert np.array_equal(errors, errors_scan)

    def test_large_k_is_polynomial(self):
        rng = np.random.default_rng(23)
        truth_means = rng.standard_normal((12, 5)) * 10
        est = self._mixture(truth_means[rng.permutation(12)] + rng.standard_normal((12, 5)))
        start = time.perf_counter()
        _, errors = centers_recovered(est, self._mixture(truth_means))
        assert time.perf_counter() - start < 1.0
        assert errors.shape == (12,)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_distance_whose_squares_overflow_is_rescaled(self, scale):
        truth = self._mixture(np.array([[0.0, 0, 0, 0], [10.0, 0, 0, 0]]))
        model = self._mixture(np.array([[scale] * 4, [12.0, 0, 0, 0]]))
        ok, errors = centers_recovered(model, truth)
        assert not ok
        assert errors.tolist() == [2 * scale, 2.0]

    def test_shape_mismatch(self):
        a = self._mixture(np.zeros((2, 2)) + np.array([[0.0, 0.0], [5.0, 0.0]]))
        b = self._mixture(np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]]))
        with pytest.raises(ShapeMismatchError):
            centers_recovered(a, b)


class TestEntryNearTheFloatLimit:
    """60 N(0, 1) points in R^4 and one at (1e300,)*4: the shared covariance
    overflows, and each fit through it ends in a typed error, with no
    RuntimeWarning under the suite's filter."""

    DATA = np.vstack([np.random.default_rng(0).standard_normal((60, 4)), np.full((1, 4), 1e300)])

    @pytest.mark.parametrize("fit", [
        lambda x: run_em(x, 3, SHARED, 0),
        lambda x: rp_em(x, 3, haar_map(x, 2, 0), SHARED, 0),
        lambda x: train(LabeledDataset(x, np.arange(61) % 2), haar_map(x, 2, 0), per_class_k=2, seed=0),
    ], ids=["run_em", "rp_em", "train"])
    def test_shared_fit_ends_typed(self, fit):
        with pytest.raises(NonFiniteError, match="iteration 0: covariance overflows"):
            fit(self.DATA)

    def test_shared_fit_that_stops_before_an_m_step_ends_typed(self):
        # With no M-step to report the overflow, the fit reports the
        # log-likelihood it stops on.
        with pytest.raises(NonFiniteError, match="^iteration 0: log-likelihood is nan$"):
            run_em(self.DATA, 3, SHARED, 0, max_iter=0)

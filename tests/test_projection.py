import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rpmix import (
    Gaussian,
    Mixture,
    load_projection,
    pairwise_separation,
    pca,
    project_data,
    project_gaussian,
    project_mixture,
    random_orthonormal,
    random_uniform,
    sample,
    save_projection,
)
from rpmix.projection import ProjectionKind, ProjectionMatrix, projection_to_dict
from rpmix.errors import (
    BadDimsError,
    DimensionMismatchError,
    InvalidParameterError,
    NotEnoughDataError,
)


def spherical_pair(n, separation):
    v = np.zeros(n)
    v[0] = separation * math.sqrt(n)
    return Mixture(
        [Gaussian(np.zeros(n), np.eye(n)), Gaussian(v, np.eye(n))], [0.5, 0.5]
    )


class TestProjectionMatrix:
    def test_rejects_bad_shapes(self):
        with pytest.raises(BadDimsError):
            ProjectionMatrix(np.zeros((3, 2)), ProjectionKind.UNIFORM_RP)
        with pytest.raises(BadDimsError):
            ProjectionMatrix(np.zeros(3), ProjectionKind.UNIFORM_RP)

    def test_orthonormal_kind_checks_gram(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        with pytest.raises(BadDimsError):
            ProjectionMatrix(rows, ProjectionKind.ORTHONORMAL_RP)
        ProjectionMatrix(rows, ProjectionKind.UNIFORM_RP)  # no constraint

    def test_kind_string_is_converted_before_the_gram_check(self):
        with pytest.raises(BadDimsError, match="^rows are not orthonormal"):
            ProjectionMatrix(np.ones((2, 3)), "pca")
        p = ProjectionMatrix(np.ones((2, 3)), "uniform-rp")
        assert p.kind is ProjectionKind.UNIFORM_RP
        assert projection_to_dict(p)["kind"] == "uniform-rp"

    @pytest.mark.parametrize("kind", [None, "bogus"])
    def test_unknown_kind_is_an_invalid_parameter(self, kind):
        with pytest.raises(InvalidParameterError, match=r"is not a valid ProjectionKind; choose from"):
            ProjectionMatrix(np.eye(2), kind)

    def test_rows_frozen(self):
        p = random_orthonormal(5, 2, 0)
        with pytest.raises(ValueError):
            p.rows[0, 0] = 9.0


class TestRandomOrthonormal:
    def test_square_case_is_orthogonal(self):
        p = random_orthonormal(6, 6, 3)
        assert abs(abs(np.linalg.det(p.rows)) - 1.0) < 1e-9

    def test_row_geometry(self):
        p = random_orthonormal(100, 20, 17)
        norms = np.linalg.norm(p.rows, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        gram = p.rows @ p.rows.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-9

    def test_deterministic(self):
        a = random_orthonormal(30, 5, 11)
        b = random_orthonormal(30, 5, 11)
        assert np.array_equal(a.rows, b.rows)
        c = random_orthonormal(30, 5, 12)
        assert not np.array_equal(a.rows, c.rows)

    @pytest.mark.parametrize("n, d", [(5, 1), (7, 7), (50, 49), (200, 25)])
    def test_rows_are_the_sign_fixed_qr_of_the_seeded_draw(self, n, d):
        # The rows A orthonormalize the draw G = R^T A with R upper-triangular
        # and positive on its diagonal, so G A^T = R^T. This pins the stream
        # the rows come from and the sign of every row.
        gauss = np.random.default_rng(8).standard_normal((d, n))
        low = gauss @ random_orthonormal(n, d, 8).rows.T
        assert np.max(np.abs(np.triu(low, 1))) <= 1e-10
        assert np.all(np.diag(low) > 0)

    def test_dim_validation(self):
        with pytest.raises(BadDimsError):
            random_orthonormal(10, 11, 0)
        with pytest.raises(BadDimsError):
            random_orthonormal(10, 0, 0)

    def test_expected_squared_norm(self):
        # E ||Av||^2 = d/n for any unit v when the rows span a uniformly
        # random d-dimensional subspace.
        n, d = 100, 20
        v = np.zeros(n)
        v[0] = 1.0
        total = 0.0
        for seed in range(1000):
            a = random_orthonormal(n, d, seed)
            total += float(np.sum((a.rows @ v) ** 2))
        assert abs(total / 1000 - d / n) < 0.02


class TestRandomUniform:
    def test_entry_range_and_scale(self):
        n, d = 50, 10
        p = random_uniform(n, d, 4)
        raw = p.rows / math.sqrt(3.0 / n)
        assert np.max(np.abs(raw)) <= 1.0
        assert p.kind is ProjectionKind.UNIFORM_RP

    def test_expected_squared_norm(self):
        n, d = 100, 20
        v = np.zeros(n)
        v[0] = 1.0
        total = 0.0
        for seed in range(1000):
            a = random_uniform(n, d, seed)
            total += float(np.sum((a.rows @ v) ** 2))
        assert abs(total / 1000 - d / n) < 0.02

    def test_separation_agrees_with_orthonormal_generator(self):
        # The two generators should preserve pair separation equally well
        # on average; compare Monte-Carlo means.
        n, d = 100, 20
        mix = spherical_pair(n, 1.0)
        means = []
        for gen in (random_orthonormal, random_uniform):
            seps = [
                pairwise_separation(*project_mixture(gen(n, d, s), mix).components)
                for s in range(200)
            ]
            means.append(np.mean(seps))
        assert abs(means[0] - means[1]) <= 0.1 * means[0]


class TestPca:
    def test_axis_aligned_variances(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2000, 2)) * np.array([3.0, 1.0])
        p = pca(data, 1)
        # Dominant direction is the first axis; sign fixed positive.
        assert abs(p.rows[0, 0]) > 0.999
        assert p.rows[0, 0] > 0

    def test_exact_line_recovered(self):
        t = np.linspace(-1, 1, 50)
        direction = np.array([2.0, 1.0, -2.0]) / 3.0
        data = np.outer(t, direction)
        p = pca(data, 1)
        captured = np.var(project_data(p, data))
        assert captured == pytest.approx(np.var(t) * 1.0, rel=1e-9)

    def test_beats_random_maps(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 3)) @ np.diag([4.0, 2.0, 0.5])
        p = pca(data, 2)
        centered = data - data.mean(axis=0)
        best_pca = np.sum(np.var(project_data(p, centered), axis=0))
        for seed in range(500):
            r = random_orthonormal(3, 2, seed)
            v = np.sum(np.var(project_data(r, centered), axis=0))
            assert best_pca >= v - 1e-9

    def test_needs_enough_rows(self):
        with pytest.raises(NotEnoughDataError):
            pca(np.zeros((3, 5)), 3)
        with pytest.raises(BadDimsError):
            pca(np.zeros((10, 5)), 6)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        nd=st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        extra_rows=st.integers(1, 40),
        scale_exp=st.floats(-150.0, 150.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spans_the_top_singular_subspace(self, nd, extra_rows, scale_exp, seed):
        """For centred data with sigma_d >= 2 sigma_(d+1), at scales 1e-150 to
        1e150, the rows' projector R^T R matches that of the top d right
        singular vectors from an SVD within 1e-10; the rows are orthonormal
        and each one's first nonzero coordinate is positive."""
        n, d = nd
        m = n + extra_rows
        rng = np.random.default_rng(seed)
        # Centred columns are orthogonal to the ones vector, and so is their
        # Q: the data below centres to exactly U diag(sigma) V^T.
        z = rng.standard_normal((m, n))
        u, _ = np.linalg.qr(z - z.mean(axis=0))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        top = np.sort(rng.uniform(1.0, 10.0, d))[::-1]
        rest = top[-1] * rng.uniform(0.0, 0.5, n - d)
        scale = 10.0**scale_exp
        data = scale * (10.0 * rng.standard_normal(n) + (u * np.concatenate([top, rest])) @ v.T)

        rows = pca(data, d).rows

        _, _, vt = np.linalg.svd(data - data.mean(axis=0))
        oracle = vt[:d]
        assert np.max(np.abs(rows.T @ rows - oracle.T @ oracle)) <= 1e-10
        assert np.max(np.abs(rows @ rows.T - np.eye(d))) <= 1e-12
        for row in rows:
            assert row[np.flatnonzero(np.abs(row) > 1e-12)[0]] > 0

    def test_deterministic_orientation(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((100, 4))
        a = pca(data, 3)
        b = pca(data.copy(), 3)
        assert np.array_equal(a.rows, b.rows)


class TestProjectData:
    def test_rotation_preserves_distances(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((12, 6))
        q = random_orthonormal(6, 6, 2)
        out = project_data(q, data)
        d_in = np.linalg.norm(data[:, None] - data[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        assert np.max(np.abs(d_in - d_out)) < 1e-9

    def test_orthonormal_projection_contracts(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((30, 20))
        p = random_orthonormal(20, 7, 0)
        out = project_data(p, data)
        assert np.all(
            np.linalg.norm(out, axis=1) <= np.linalg.norm(data, axis=1) + 1e-12
        )

    def test_dim_mismatch(self):
        p = random_orthonormal(5, 2, 0)
        with pytest.raises(DimensionMismatchError):
            project_data(p, np.zeros((3, 4)))


class TestProjectGaussian:
    def test_spherical_stays_spherical(self):
        g = Gaussian(np.arange(10.0), 2.0 * np.eye(10))
        p = random_orthonormal(10, 4, 1)
        out = project_gaussian(p, g)
        assert np.allclose(out.covariance, 2.0 * np.eye(4), atol=1e-9)
        assert np.allclose(out.mean, p.rows @ g.mean)

    def test_matches_sampling_distribution(self):
        # Project samples, then compare their Mahalanobis radii (under the
        # analytically projected Gaussian) to the chi-square law they must
        # follow if the analytic form is right.
        n, d = 30, 5
        rng = np.random.default_rng(14)
        a = rng.standard_normal((n, n))
        g = Gaussian(rng.standard_normal(n), a @ a.T + np.eye(n))
        p = random_orthonormal(n, d, 3)
        out = project_gaussian(p, g)
        pts = project_data(p, sample(Mixture([g], [1.0]), 10000, 5))
        y = np.linalg.solve(out.chol, (pts - out.mean).T)
        radii_sq = np.sum(y * y, axis=0)
        ks = stats.kstest(radii_sq, stats.chi2(df=d).cdf).statistic
        assert ks < 0.05


class TestProjectMixture:
    def test_square_orthogonal_preserves_separation(self):
        mix = spherical_pair(8, 1.3)
        q = random_orthonormal(8, 8, 9)
        out = project_mixture(q, mix)
        assert pairwise_separation(*out.components) == pytest.approx(1.3, abs=1e-9)
        assert np.array_equal(out.weights, mix.weights)

    def test_mean_projected_separation_near_original(self):
        n, d = 100, 20
        mix = spherical_pair(n, 1.0)
        seps = [
            pairwise_separation(
                *project_mixture(random_orthonormal(n, d, s), mix).components
            )
            for s in range(40)
        ]
        assert 0.8 <= np.mean(seps) <= 1.1

    def test_spherical_eccentricity_never_increases(self):
        g = Gaussian(np.zeros(12), 3.0 * np.eye(12))
        for seed in range(5):
            p = random_orthonormal(12, 4, seed)
            out = project_gaussian(p, g)
            lam = np.linalg.eigvalsh(out.covariance)
            assert math.sqrt(lam[-1] / lam[0]) == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        for gen, seed in ((random_orthonormal, 1), (random_uniform, 2)):
            p = gen(9, 3, seed)
            path = tmp_path / "proj.json"
            save_projection(p, path)
            back = load_projection(path)
            assert back.kind == p.kind
            assert np.array_equal(back.rows, p.rows)

    def test_pca_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        p = pca(rng.standard_normal((50, 6)), 2)
        path = tmp_path / "proj.json"
        save_projection(p, path)
        back = load_projection(path)
        assert back.kind is ProjectionKind.PCA
        assert np.array_equal(back.rows, p.rows)

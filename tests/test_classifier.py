import pickle

import numpy as np
import pytest

from rpmix import (
    CovarianceRestriction,
    Gaussian,
    Mixture,
    cluster_analysis,
    evaluate,
    ingest,
    load_dataset,
    predict,
    project_data,
    run_em,
    save_labeled,
    train,
)
from rpmix import classifier, em
from rpmix.classifier import (
    ClassMixtureModel,
    ClusterAnalysis,
    LabeledDataset,
    _class_scores,
    predict_batch,
    save_cluster_analysis,
)
from rpmix.errors import (
    ClassTooSmallError,
    DimensionMismatchError,
    DuplicatePointsError,
    InconsistentWidthError,
    InvalidParameterError,
    NonFiniteError,
    ParseError,
    RpmixError,
)
from rpmix.projection import ProjectionKind, ProjectionMatrix, pca, random_orthonormal


def labeled_blobs(num_classes=2, per_class=100, n=10, dist=8.0, seed=0):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for cls in range(num_classes):
        center = np.zeros(n)
        center[cls % n] = dist * (1 + cls // n)
        points.append(rng.standard_normal((per_class, n)) + center)
        labels.extend([cls] * per_class)
    return LabeledDataset(np.vstack(points), np.array(labels))


def haar_map(data, d, seed):
    """The Haar map of `data`'s space into R^d at `seed`: the classifier's
    map as fig9 and the CLI draw it, from the seed of the class starts."""
    return random_orthonormal(data.dim, d, seed)


class TestLabeledDataset:
    @pytest.mark.parametrize(
        "points, labels, error",
        [
            ([[1.0], [2.0]], [0, -1], InvalidParameterError),
            ([[1.0], [2.0]], [0], InvalidParameterError),
            ([[1.0], [np.nan]], [0, 1], NonFiniteError),
        ],
        ids=["negative-label", "label-count", "non-finite"],
    )
    def test_bad_input_is_typed(self, points, labels, error):
        with pytest.raises(error):
            LabeledDataset(np.array(points), np.array(labels))

    @pytest.mark.parametrize("analyze", [False, True], ids=["train", "cluster_analysis"])
    def test_huge_label_names_the_first_empty_class(self, analyze):
        data = labeled_blobs(num_classes=2, per_class=10)
        labels = data.labels.copy()
        labels[-1] = 10**12
        data = LabeledDataset(data.points, labels)
        with pytest.raises(ClassTooSmallError, match="class 2 has no points"):
            cluster_analysis(data) if analyze else train(data, haar_map(data, 2, 0), per_class_k=1)


class TestIngest:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("3,0.1,-0.5\n7,1.0,0.0\n")
        data = ingest(path)
        assert data.points.shape == (2, 2)
        assert list(data.labels) == [3, 7]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            ingest(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,x,2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest(path)

    @pytest.mark.parametrize("row", ["1,nan,2.0", "1,1.0,-inf", "1.5,1.0,2.0"])
    def test_non_finite_value_or_fractional_label_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1.0,2.0\n{row}\n")
        with pytest.raises(ParseError, match="bad.csv: line 2"):
            ingest(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(InconsistentWidthError, match="line 2"):
            ingest(path)

    def test_round_trip_exact(self, tmp_path):
        data = labeled_blobs(num_classes=3, per_class=7, n=4, seed=1)
        path = tmp_path / "dump.csv"
        save_labeled(data, path)
        back = ingest(path)
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.labels, data.labels)

    def test_saved_text_exact(self, tmp_path):
        data = LabeledDataset(np.array([[-0.0, np.pi], [1e-300, 2.0]]), np.array([3, 0]))
        path = tmp_path / "dump.csv"
        save_labeled(data, path)
        assert path.read_text() == "3,-0,3.1415926535897931\n0,1e-300,2\n"

    def test_surrogate_file_reads_as_float_reads_it(self, tmp_path):
        from rpmix.experiments import surrogate_digit_data

        full, _ = surrogate_digit_data(0)
        data = LabeledDataset(full.points[:200], full.labels[:200])
        path = tmp_path / "train.csv"
        save_labeled(data, path)
        cells = np.array([[float(v) for v in line.split(",")] for line in path.read_text().splitlines()])
        back = ingest(path)
        assert back.points.tobytes() == cells[:, 1:].tobytes()
        assert np.array_equal(back.labels, cells[:, 0].astype(int))

    def test_unpickled_dataset_is_read_only(self):
        data = pickle.loads(pickle.dumps(labeled_blobs(num_classes=2, per_class=3)))
        assert not data.points.flags.writeable
        assert not data.labels.flags.writeable


class TestTrainPredict:
    def test_training_accuracy_on_separated_classes(self):
        data = labeled_blobs(num_classes=2, per_class=100, seed=2)
        model = train(data, haar_map(data, 5, 0), per_class_k=2, seed=0)
        assert evaluate(model, data) > 0.95

    def test_single_gaussian_per_class(self):
        data = labeled_blobs(num_classes=2, per_class=40, seed=3)
        model = train(data, haar_map(data, 4, 0), per_class_k=1, seed=0)
        assert all(mix.k == 1 for mix in model.per_class)
        assert evaluate(model, data) > 0.95

    def test_class_too_small(self):
        data = labeled_blobs(num_classes=2, per_class=3, seed=4)
        with pytest.raises(ClassTooSmallError):
            train(data, haar_map(data, 2, 0), per_class_k=5, seed=0)

    def test_class_too_small_raises_before_any_fit(self, monkeypatch):
        fits = []

        def counted(*args, **kwargs):
            fits.append(args)
            return run_em(*args, **kwargs)

        monkeypatch.setattr(classifier, "run_em", counted)
        data = LabeledDataset(np.random.default_rng(4).standard_normal((23, 10)), [0] * 20 + [1] * 3)
        with pytest.raises(ClassTooSmallError, match="^class 1 has 3 points, needs 5$"):
            train(data, haar_map(data, 2, 0), per_class_k=5, seed=0)
        assert fits == []

    def test_shared_covariance_within_class(self):
        data = labeled_blobs(num_classes=2, per_class=80, seed=5)
        model = train(data, haar_map(data, 4, 1), per_class_k=3, seed=1)
        for mix in model.per_class:
            first = mix.components[0].covariance
            for g in mix.components[1:]:
                assert np.array_equal(g.covariance, first)

    def test_deterministic_end_to_end(self):
        data = labeled_blobs(num_classes=3, per_class=60, seed=6)
        probe = np.random.default_rng(7).standard_normal((20, 10))
        preds = [
            predict_batch(train(data, haar_map(data, 5, 11), per_class_k=2, seed=11), probe)
            for _ in range(2)
        ]
        assert np.array_equal(preds[0], preds[1])

    def test_training_point_goes_to_own_class(self):
        data = labeled_blobs(num_classes=2, per_class=50, seed=8)
        model = train(data, haar_map(data, 5, 0), per_class_k=2, seed=0)
        assert predict(model, data.points[0]) == 0
        assert predict(model, data.points[-1]) == 1

    def test_each_class_fits_at_run_em_defaults(self):
        # One setting for every caller: tol 1e-5 and at most 500 iterations.
        data = labeled_blobs(num_classes=3, per_class=60, seed=4)
        model = train(data, haar_map(data, 4, 3), per_class_k=2, seed=3)
        projected = project_data(model.projection, data.points)
        for cls, mix in enumerate(model.per_class):
            want = run_em(
                projected[data.labels == cls], 2, CovarianceRestriction.SHARED_FULL,
                np.random.SeedSequence([3, cls]), tol=1e-5, max_iter=500,
            ).model
            assert np.array_equal(mix.weights, want.weights)
            assert np.array_equal(mix.means, want.means)
            assert all(np.array_equal(a, b) for a, b in zip(mix._covs, want._covs))

    def test_pca_map_goes_through_with_no_option(self):
        data = labeled_blobs(num_classes=2, per_class=40, seed=3)
        proj = pca(data.points, 4)
        model = train(data, proj, per_class_k=2, seed=0)
        assert model.projection is proj
        assert evaluate(model, data) > 0.95

    def test_predict_dim_check(self):
        data = labeled_blobs(num_classes=2, per_class=30, seed=9)
        model = train(data, haar_map(data, 3, 0), per_class_k=1, seed=0)
        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros(4))


IDENTITY_3 = ProjectionMatrix(np.eye(3), ProjectionKind.ORTHONORMAL_RP)
IDENTITY_16 = ProjectionMatrix(np.eye(16), ProjectionKind.ORTHONORMAL_RP)


def shared_fit(points, k, seed, cls):
    """`run_em` as `train` fits class `cls` at `seed`."""
    return run_em(points, k, CovarianceRestriction.SHARED_FULL, np.random.SeedSequence([seed, cls]))


def assert_same_fit(fit, want):
    assert (fit.iterations, fit.converged) == (want.iterations, want.converged)
    assert np.array_equal(fit.loglik_trace, want.loglik_trace)
    assert_same_model(fit.model, want.model)


def assert_same_model(model, want):
    assert np.array_equal(model.weights, want.weights)
    assert np.array_equal(model.means, want.means)
    assert np.array_equal(model._owner, want._owner)
    for got, expected in ((model._covs, want._covs), (model._chols, want._chols), (model._invs, want._invs)):
        assert len(got) == len(expected) == 1
        assert np.array_equal(got[0], expected[0])


class TestLockstep:
    """`train` fits its classes together through `em._lockstep_fits`, and each
    class's fit is `run_em`'s, bit for bit; a class that leaves the common
    path is fit by `run_em` itself."""

    SEED = 0

    def _classes(self):
        """Three blobs in R^16, where a C-ordered copy of a stack of L^-1
        moves bits (R^10 is too small to show it), and a class whose start
        is its fit at k = 1: a symmetric star about its mean, which is the
        point its start draws."""
        rng = np.random.default_rng(12)
        axes = np.eye(16)
        classes = [rng.standard_normal((60, 16)) * rng.uniform(0.5, 2.0, 16) + 8.0 * axes[c] for c in range(3)]
        star = np.vstack([np.zeros(16)] + [s * r * axes[i] for r in (1.0, 2.0) for i in range(16) for s in (1, -1)])
        start_rng = np.random.default_rng(np.random.SeedSequence([self.SEED, 3]))
        drawn = start_rng.choice(len(star), size=1, replace=False)[0]  # as `init_params` draws it
        star[[0, drawn]] = star[[drawn, 0]]
        return [*classes, star + 20.0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_class_is_run_em_bit_for_bit(self, monkeypatch, k):
        classes = self._classes()
        fits = em._lockstep_fits(classes, k, [np.random.SeedSequence([self.SEED, c]) for c in range(len(classes))])
        wants = [shared_fit(points, k, self.SEED, c) for c, points in enumerate(classes)]
        assert len({want.iterations for want in wants}) >= 2
        for fit, want in zip(fits, wants):
            assert_same_fit(fit, want)

        refits = []
        monkeypatch.setattr(classifier, "run_em", lambda *args: refits.append(args))
        labels = np.repeat(np.arange(len(classes)), [len(points) for points in classes])
        model = train(LabeledDataset(np.vstack(classes), labels), IDENTITY_16, per_class_k=k, seed=self.SEED)
        assert refits == []
        for mix, want in zip(model.per_class, wants):
            assert_same_model(mix, want.model)

    def test_a_class_that_leaves_the_common_path_is_run_em(self, monkeypatch):
        # Class 1 starts with a far component that empties at the first
        # M-step, so its fit takes `run_em`'s rescue.
        rng = np.random.default_rng(61)
        blob = rng.standard_normal((40, 3))
        pair = np.vstack([rng.standard_normal((30, 3)), rng.standard_normal((30, 3)) + [8.0, 0.0, 0.0]])
        means = [pair[:30].mean(axis=0), pair[30:].mean(axis=0), [500.0, -500.0, 0.0]]
        start = Mixture([Gaussian(mu, np.eye(3)) for mu in means], [1 / 3] * 3)
        paper_start = em.init_params
        monkeypatch.setattr(
            em, "init_params",
            lambda data, *args: start if np.array_equal(data, pair) else paper_start(data, *args))
        seeds = [np.random.SeedSequence([self.SEED, c]) for c in range(2)]
        fits = em._lockstep_fits([blob, pair], 3, seeds)
        assert fits[1] is None
        wants = [shared_fit(points, 3, self.SEED, c) for c, points in enumerate((blob, pair))]
        assert_same_fit(fits[0], wants[0])

        data = LabeledDataset(np.vstack([blob, pair]), [0] * 40 + [1] * 60)
        model = train(data, IDENTITY_3, per_class_k=3, seed=self.SEED)
        assert np.array_equal(model.per_class[1].means[2], wants[1].model.means[2])
        for mix, want in zip(model.per_class, wants):
            assert_same_model(mix, want.model)

    def test_the_lowest_failing_class_raises_run_ems_error(self):
        # Class 1's points lie on a line, so its pooled covariance is
        # singular at its first M-step; class 2's coincide, so its start
        # raises first. `train` raises class 1's error, as a loop would.
        rng = np.random.default_rng(3)
        line = np.outer(rng.standard_normal(30), [1.0, 2.0, -1.0])
        classes = [rng.standard_normal((30, 3)), line, np.ones((30, 3))]
        with pytest.raises(DuplicatePointsError):
            shared_fit(classes[2], 2, self.SEED, 2)
        with pytest.raises(RpmixError) as want:
            shared_fit(classes[1], 2, self.SEED, 1)
        assert str(want.value).startswith("iteration 0: ")

        data = LabeledDataset(np.vstack(classes), np.repeat([0, 1, 2], 30))
        with pytest.raises(type(want.value)) as got:
            train(data, IDENTITY_3, per_class_k=2, seed=self.SEED)
        assert str(got.value) == str(want.value)

    def test_separated_blobs_need_no_run_em(self, monkeypatch):
        fits = []

        def counted(*args, **kwargs):
            fits.append(args)
            return run_em(*args, **kwargs)

        monkeypatch.setattr(classifier, "run_em", counted)
        data = labeled_blobs(num_classes=3, per_class=60, seed=4)
        model = train(data, haar_map(data, 4, 3), per_class_k=2, seed=3)
        assert fits == []
        assert len(model.per_class) == 3


class TestDecisionRule:
    def _symmetric_model(self):
        proj = ProjectionMatrix(np.eye(2), ProjectionKind.ORTHONORMAL_RP)
        left = Mixture([Gaussian([-1.0, 0.0], np.eye(2))], [1.0])
        right = Mixture([Gaussian([1.0, 0.0], np.eye(2))], [1.0])
        return ClassMixtureModel(proj, (left, right), np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "priors",
        [[0.5, 0.5], [0.2, 0.2, 0.3, 0.3], [1.5, -0.25, -0.25], [0.5, 0.5, 0.0]],
    )
    def test_priors_are_one_positive_number_per_class(self, priors):
        proj = ProjectionMatrix(np.eye(2), ProjectionKind.ORTHONORMAL_RP)
        per_class = tuple(
            Mixture([Gaussian([float(c), 0.0], np.eye(2))], [1.0]) for c in range(3)
        )
        ClassMixtureModel(proj, per_class, np.full(3, 1 / 3))
        with pytest.raises(InvalidParameterError, match="class prior"):
            ClassMixtureModel(proj, per_class, np.array(priors))

    def test_tie_goes_to_lower_class(self):
        model = self._symmetric_model()
        assert predict(model, np.array([0.0, 3.0])) == 0

    def test_argmax_invariant_under_score_doubling(self):
        data = labeled_blobs(num_classes=3, per_class=50, seed=10)
        model = train(data, haar_map(data, 4, 3), per_class_k=2, seed=3)
        probe = np.random.default_rng(11).standard_normal((25, 10))
        scores = _class_scores(model, probe)
        assert np.array_equal(
            np.argmax(scores, axis=1), np.argmax(2.0 * scores, axis=1)
        )

    def test_priors_change_rule_on_imbalanced_data(self):
        rng = np.random.default_rng(12)
        pts = np.vstack(
            [rng.standard_normal((180, 4)), rng.standard_normal((20, 4)) + 1.0]
        )
        labels = np.array([0] * 180 + [1] * 20)
        data = LabeledDataset(pts, labels)
        model = train(data, haar_map(data, 4, 0), per_class_k=1, seed=0)
        equal = ClassMixtureModel(model.projection, model.per_class, np.full(2, 0.5))
        probe = rng.standard_normal((200, 4)) + 0.5
        with_p = predict_batch(model, probe)
        without_p = predict_batch(equal, probe)
        assert np.sum(with_p == 0) > np.sum(without_p == 0)

    def test_scores_add_the_class_log_prior(self):
        rng = np.random.default_rng(12)
        pts = np.vstack(
            [rng.standard_normal((180, 4)), rng.standard_normal((20, 4)) + 1.0]
        )
        labels = np.array([0] * 180 + [1] * 20)
        data = LabeledDataset(pts, labels)
        model = train(data, haar_map(data, 4, 0), per_class_k=1, seed=0)
        equal = ClassMixtureModel(model.projection, model.per_class, np.full(2, 0.5))
        probe = rng.standard_normal((50, 4))
        shift = _class_scores(model, probe) - _class_scores(equal, probe)
        assert np.allclose(shift, np.log([0.9, 0.1]) - np.log(0.5), rtol=0, atol=1e-12)


class TestEvaluate:
    def test_perfect_labels(self):
        data = labeled_blobs(num_classes=2, per_class=60, seed=13)
        model = train(data, haar_map(data, 5, 0), per_class_k=1, seed=0)
        preds = predict_batch(model, data.points)
        assert evaluate(model, LabeledDataset(data.points, preds)) == 1.0

    def test_shuffled_labels_score_near_chance(self):
        data = labeled_blobs(num_classes=4, per_class=80, seed=14)
        model = train(data, haar_map(data, 6, 0), per_class_k=1, seed=0)
        shuffled = np.random.default_rng(15).permutation(data.labels)
        acc = evaluate(model, LabeledDataset(data.points, shuffled))
        assert 0.1 <= acc <= 0.45  # chance level is 0.25


class TestClusterAnalysis:
    def test_identical_classes_zero_separation(self):
        pts = np.random.default_rng(16).standard_normal((40, 3))
        data = LabeledDataset(np.vstack([pts, pts]), np.array([0] * 40 + [1] * 40))
        analysis = cluster_analysis(data)
        assert analysis.separations[0, 1] == 0.0

    def test_table_symmetric_zero_diagonal(self):
        data = labeled_blobs(num_classes=3, per_class=50, n=6, seed=17)
        analysis = cluster_analysis(data)
        assert np.array_equal(analysis.separations, analysis.separations.T)
        assert np.all(np.diag(analysis.separations) == 0.0)

    def test_recovers_designed_separation(self):
        # Ten spherical classes packed at pairwise separation 0.63: the
        # empirical class-means table should reproduce that value.
        from rpmix.synthesis import packed_centers

        n, k, per_class = 20, 10, 400
        centers = packed_centers(k, n, 0.63, np.full(k, np.sqrt(n)), 3)
        rng = np.random.default_rng(18)
        pts = np.vstack(
            [rng.standard_normal((per_class, n)) + c for c in centers]
        )
        labels = np.repeat(np.arange(k), per_class)
        analysis = cluster_analysis(LabeledDataset(pts, labels))
        off = analysis.separations[np.triu_indices(k, 1)]
        assert abs(off.min() - 0.63) < 0.06
        assert np.all(analysis.eccentricities < 1.6)
        assert not np.any(analysis.rank_deficient)

    def test_rank_deficient_flagged_not_crashed(self):
        # Fewer points than dimensions: the sample covariance is singular,
        # which must yield a flag and a finite pseudo-eccentricity.
        rng = np.random.default_rng(19)
        pts = rng.standard_normal((30, 50))
        labels = np.array([0] * 15 + [1] * 15)
        analysis = cluster_analysis(LabeledDataset(pts, labels))
        assert np.all(analysis.rank_deficient)
        assert np.all(np.isfinite(analysis.eccentricities))

    def test_projection_tames_eccentricity(self):
        # Heavily eccentric high-dimensional classes become far rounder
        # after a random projection to d=40, in every class.
        from rpmix.experiments import surrogate_digit_data

        train_set, _ = surrogate_digit_data(0)
        raw = cluster_analysis(train_set)
        proj = random_orthonormal(train_set.dim, 40, 0)
        low = cluster_analysis(train_set, proj)
        assert np.all(low.eccentricities < raw.eccentricities)
        assert not np.any(low.rank_deficient)

    def test_saved_text_exact(self, tmp_path):
        analysis = ClusterAnalysis(
            separations=np.array([[0.0, 1 / 3], [1 / 3, 0.0]]),
            eccentricities=np.array([np.pi, 1.0]),
            rank_deficient=np.array([False, True]),
        )
        path = tmp_path / "analysis.csv"
        save_cluster_analysis(analysis, path)
        assert path.read_text() == (
            "class,0,1,eccentricity\n"
            "0,0,0.33333333333333331,3.1415926535897931\n"
            "1,0.33333333333333331,0,1\n"
        )

    def test_non_finite_entry_is_not_saved(self, tmp_path):
        analysis = ClusterAnalysis(
            separations=np.zeros((2, 2)),
            eccentricities=np.array([np.pi, np.inf]),
            rank_deficient=np.array([False, True]),
        )
        path = tmp_path / "analysis.csv"
        with pytest.raises(NonFiniteError):
            save_cluster_analysis(analysis, path)
        assert not path.exists()

    def test_class_whose_points_coincide_has_eccentricity_one(self):
        # No eigenvalue above the floor: the value a class with exactly one
        # positive eigenvalue gets, and still flagged.
        data = LabeledDataset([[0, 0], [1, 1], [2, 2], [5, 5]], [0, 0, 0, 1])
        analysis = cluster_analysis(data)
        assert analysis.eccentricities.tolist() == [1.0, 1.0]
        assert analysis.rank_deficient.tolist() == [True, True]

    def test_two_classes_whose_points_coincide_raise(self):
        # Both radii are zero, so their separation has no scale.
        with pytest.raises(DuplicatePointsError, match=r"classes \[0, 1\]"):
            cluster_analysis(LabeledDataset([[0, 0], [5, 5]], [0, 1]))

    # Three points of each of two classes: full rank in R^2 at unit scale.
    SCALED = (np.array([[0, 0], [1, 2], [3, 1], [10, 10], [12, 11], [11, 13.0]]), [0, 0, 0, 1, 1, 1])

    def test_large_scale_reads_as_unit_scale_and_saves(self, tmp_path):
        # At 2^520 the class covariances (about 2^1040) overflow unless scaled.
        points, labels = self.SCALED
        unit = cluster_analysis(LabeledDataset(points, labels))
        large = cluster_analysis(LabeledDataset(points * 2.0**520, labels))
        assert np.array_equal(large.separations, unit.separations)
        assert np.array_equal(large.eccentricities, unit.eccentricities)
        assert np.array_equal(large.rank_deficient, unit.rank_deficient)
        assert unit.eccentricities[0] > 1.0
        path = tmp_path / "analysis.csv"
        save_cluster_analysis(large, path)
        assert np.array_equal(load_dataset(path, skip_header=True)[:, 1:], np.column_stack(
            (large.separations, large.eccentricities)
        ))

    def test_small_scale_keeps_separations_and_the_rank_floor(self):
        # At 2^-700 the class covariances (about 2^-1400) underflow to zero
        # unless scaled. The rank floor, lambda_max * eps * n, scales with
        # the data: no class reads as degenerate.
        points, labels = self.SCALED
        unit = cluster_analysis(LabeledDataset(points, labels))
        small = cluster_analysis(LabeledDataset(points * 2.0**-700, labels))
        assert np.array_equal(small.separations, unit.separations)
        assert np.array_equal(small.eccentricities, unit.eccentricities)
        assert np.array_equal(small.rank_deficient, unit.rank_deficient)

    @pytest.mark.parametrize("scale", [1e-8, 1e-10])
    def test_small_variances_are_no_rank_deficiency(self, scale):
        # Every variance here lies below eps * n, a floor in absolute units.
        points, labels = self.SCALED
        unit = cluster_analysis(LabeledDataset(points, labels))
        small = cluster_analysis(LabeledDataset(points * scale, labels))
        assert np.allclose(small.separations, unit.separations, rtol=1e-14, atol=0)
        assert np.allclose(small.eccentricities, unit.eccentricities, rtol=1e-14, atol=0)
        assert np.array_equal(small.rank_deficient, unit.rank_deficient)

    def test_saved_analysis_reads_back(self, tmp_path):
        data = LabeledDataset([[0, 0], [1, 1], [2, 0], [5, 5]], [0, 0, 0, 1])
        analysis = cluster_analysis(data)
        path = tmp_path / "analysis.csv"
        save_cluster_analysis(analysis, path)
        table = load_dataset(path, skip_header=True)
        assert np.array_equal(table[:, 0], [0, 1])
        assert np.array_equal(table[:, 1:3], analysis.separations)
        assert np.array_equal(table[:, 3], analysis.eccentricities)

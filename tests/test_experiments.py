from itertools import combinations

import numpy as np
import pytest

from rpmix import experiments, pairwise_separation, spectral_summary
from rpmix.errors import (
    BadDimsError,
    BadSeparationError,
    ConfigError,
    EmptyComponentError,
    MissingDataError,
)
from rpmix.experiments import (
    ExperimentConfig,
    em_compare_trial,
    fig3_body,
    fig4_body,
    fig5_body,
    fig6_body,
    fig7_streams,
    fig7_tables,
    fig8_body,
    fig9_body,
    pca_collapse_body,
    run,
    surrogate_digit_data,
)
from rpmix.em import CovarianceRestriction
from rpmix.synthesis import CovarianceMode, long_axis_mixture


def rows_of_type(path, row_type):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        if fields["row_type"] == row_type:
            out.append(fields)
    return header, out


class TestReportFormat:
    def test_single_trial_aggregates_equal_row(self):
        report = fig3_body(0, trials=1, n_values=(50,))
        assert len(report.rows) == 1
        sep = report.rows[0]["separation"]
        for agg in report.aggregates():
            if agg["row_type"] == "sd":
                assert agg["separation"] == 0.0
            else:
                assert agg["separation"] == pytest.approx(sep, rel=1e-15)

    def test_csv_replay_byte_exact(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig5-ecc-table",
            trials=3,
            base_seed=7,
            overrides={"E_values": (50,), "n_values": (50,)},
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(cfg).to_csv(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_aggregates_recomputable_from_trial_rows(self, tmp_path):
        report = fig3_body(3, trials=5, n_values=(50, 100))
        path = tmp_path / "r.csv"
        report.to_csv(path)
        _, trials = rows_of_type(path, "trial")
        _, means = rows_of_type(path, "mean")
        _, sds = rows_of_type(path, "sd")
        for n in ("50", "100"):
            vals = np.array(
                [float(r["separation"]) for r in trials if r["n"] == n]
            )
            mean_row = next(r for r in means if r["n"] == n)
            sd_row = next(r for r in sds if r["n"] == n)
            assert mean_row["separation"] == "%.17g" % vals.mean()
            assert sd_row["separation"] == "%.17g" % vals.std(ddof=1)

    def test_every_trial_row_records_its_seed(self, tmp_path):
        report = fig3_body(40, trials=3, n_values=(50,))
        path = tmp_path / "r.csv"
        report.to_csv(path)
        _, trials = rows_of_type(path, "trial")
        assert [r["seed"] for r in trials] == ["40", "41", "42"]


class TestSeparationBodies:
    def test_projected_separation_flat_across_dimension(self):
        report = fig3_body(0, trials=15, n_values=(50, 200, 1000))
        means = [
            agg["separation"]
            for agg in report.aggregates()
            if agg["row_type"] == "mean"
        ]
        grand = np.mean(means)
        assert max(abs(m - grand) / grand for m in means) < 0.15

    def test_identity_dimension_preserves_exactly(self):
        report = fig3_body(0, trials=2, n_values=(20,), d=20)
        for row in report.rows:
            assert row["separation"] == pytest.approx(1.0, abs=1e-9)

    def test_separation_flat_across_component_count(self):
        report = fig4_body(0, trials=10, k_values=(2, 5, 10))
        means = [
            agg["separation"]
            for agg in report.aggregates()
            if agg["row_type"] == "mean"
        ]
        grand = np.mean(means)
        assert max(abs(m - grand) / grand for m in means) < 0.2

    def test_target_dim_grows_logarithmically(self):
        report = fig4_body(0, trials=1, k_values=(2, 20))
        ds = sorted({row["d"] for row in report.rows})
        assert ds == [7, 30]


class TestEccentricityBodies:
    def test_projected_eccentricity_shrinks_with_original_dim(self):
        report = fig5_body(
            0, trials=10, E_values=(50,), n_values=(25, 50, 100, 200)
        )
        means = {
            agg["n"]: agg["eccentricity"]
            for agg in report.aggregates()
            if agg["row_type"] == "mean"
        }
        ordered = [means[n] for n in (25, 50, 100, 200)]
        for a, b in zip(ordered, ordered[1:]):
            assert b <= a * 1.05

    def test_square_projection_keeps_eccentricity(self):
        report = fig6_body(0, trials=2, d_values=(50,))
        for row in report.rows:
            assert row["eccentricity"] == pytest.approx(1000.0, rel=1e-6)

    def test_eccentricity_decays_as_target_dim_drops(self):
        report = fig6_body(0, trials=15, d_values=(49, 40, 30, 25))
        medians = {
            agg["d"]: agg["eccentricity"]
            for agg in report.aggregates()
            if agg["row_type"] == "median"
        }
        ordered = [medians[d] for d in (49, 40, 30, 25)]
        for a, b in zip(ordered, ordered[1:]):
            assert b <= a * 1.05
        assert ordered[0] > 3 * ordered[-1]

    def test_min_median_max_ordering(self):
        report = fig6_body(0, trials=8, d_values=(30,))
        stats = {
            agg["row_type"]: agg["eccentricity"] for agg in report.aggregates()
        }
        assert stats["min"] <= stats["median"] <= stats["max"]


class TestPcaVsRp:
    def test_tables_symmetric_zero_diagonal(self):
        pca_table, rp_table = fig7_tables(0)
        for tab in (pca_table, rp_table):
            assert np.array_equal(tab, tab.T)
            assert np.all(np.diag(tab) == 0.0)
            assert np.all(tab[np.triu_indices(5, 1)] > 0.0)

    def test_report_has_one_row_per_pair_and_method(self):
        report = experiments.fig7_body(0, trials=2)
        assert len(report.rows) == 2 * 2 * 10  # trials x methods x pairs

    def test_mixture_premise_pca_keeps_long_axes(self):
        n, k, c, E, d = 100, 5, 0.5, 1000.0, 10
        # The mixture fig7_tables(0) projects.
        mix, long_axes = long_axis_mixture(n, k, c, E, d, fig7_streams(0)["truth"])
        short_axes = np.setdiff1d(np.arange(n), long_axes)
        covs = np.array([g.covariance for g in mix.components])
        means = mix.means
        assert len(long_axes) == d
        assert np.all(covs[:, long_axes, long_axes] == E**2)
        for g in mix.components:
            assert spectral_summary(g.covariance).eccentricity == pytest.approx(E)
        # Centers lie in the span of the short axes.
        assert np.all(means[:, long_axes] == 0.0)
        for a, b in combinations(mix.components, 2):
            assert pairwise_separation(a, b) == pytest.approx(c, rel=1e-9)
        # The mixture's covariance: within-cluster plus between-center
        # scatter. Every direction of the short-axis span, centers included,
        # carries less variance than the long axes, so PCA keeps the latter.
        w = mix.weights
        offsets = means - w @ means
        total = np.einsum("i,ijk->jk", w, covs) + (offsets.T * w) @ offsets
        assert np.all(total[np.ix_(long_axes, short_axes)] == 0.0)
        short_top = np.linalg.eigvalsh(total[np.ix_(short_axes, short_axes)])[-1]
        assert short_top < E**2
        assert np.linalg.eigvalsh(total)[-d] == pytest.approx(E**2)

    def test_mixture_rejects_a_separation_pca_would_keep(self):
        # At c = 2 the between-center scatter per direction, about
        # c^2 tr(Sigma) / 2k = 4 E^2, outweighs the long axes.
        with pytest.raises(BadSeparationError):
            long_axis_mixture(100, 5, 2.0, 1000.0, 10, 0)

    def test_consumers_draw_from_distinct_streams(self, monkeypatch):
        seen = []
        real = np.random.default_rng

        def recording(seed=None):
            ss = (
                seed
                if isinstance(seed, np.random.SeedSequence)
                else np.random.SeedSequence(seed)
            )
            entropy = tuple(np.atleast_1d(ss.entropy).tolist())
            seen.append((entropy, ss.spawn_key))
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        fig7_tables(4)
        # Three roles and, inside the truth stream, one per covariance.
        assert len(seen) >= 3 + 5
        assert len(set(seen)) == len(seen)
        streams = fig7_streams(4)
        for role in ("sample", "projection"):
            assert ((4,), streams[role].spawn_key) in seen


class TestPcaCollapse:
    def test_odd_or_degenerate_k_rejected(self):
        with pytest.raises(BadDimsError):
            pca_collapse_body(0, k=9)
        with pytest.raises(BadDimsError):
            pca_collapse_body(0, k=2)

    def test_collapse_vs_preservation_small_case(self):
        report = pca_collapse_body(0, k=4, samples=4000)
        rows = {row["method"]: row for row in report.rows}
        original = rows["pca_full"]["original_min_separation"]
        assert rows["pca_collapse"]["min_separation"] < 0.25 * original
        assert rows["pca_full"]["min_separation"] >= 0.5 * original

    def test_stable_across_sample_sizes(self):
        small = {
            r["method"]: r["min_separation"]
            for r in pca_collapse_body(1, k=10, samples=500).rows
        }
        large = {
            r["method"]: r["min_separation"]
            for r in pca_collapse_body(1, k=10, samples=2000).rows
        }
        for method in ("pca_full", "rp"):
            assert abs(small[method] - large[method]) <= 0.1 * large[method]
        # The collapsed value estimates a quantity that is 0 in the limit,
        # so only an absolute comparison is meaningful for it.
        assert small["pca_collapse"] < 0.15
        assert large["pca_collapse"] < 0.15
        assert abs(small["pca_collapse"] - large["pca_collapse"]) < 0.1


class TestEmComparison:
    def test_trial_row_schema(self):
        row = em_compare_trial(50, 0)
        for key in experiments.EM_COMPARE_METRICS:
            assert key in row
        assert isinstance(row["reg_success"], bool)
        assert row["exact_match"] in (True, False)
        assert not (row["exact_match"] and row["rp_beats"])

    def test_dead_component_at_lift_is_a_failed_trial(self, monkeypatch):
        def dead_at_lift(*args, **kwargs):
            raise EmptyComponentError((1,))

        monkeypatch.setattr(experiments, "rp_em", dead_at_lift)
        row = em_compare_trial(10, 0, k=2, d=3, train_size=100, test_size=50)
        assert row["rp_failed"] is True
        assert row["rp_success"] is False
        assert row["rp_test_loglik"] == -np.inf
        assert row["rp_low_iterations"] == 0
        assert row["reg_failed"] is False and np.isfinite(row["reg_test_loglik"])
        assert row["rp_beats"] is False

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name, overrides",
        [("fig8-em-compare", {"n_values": (50,)}), ("second-em-compare", {})],
    )
    def test_worker_pool_report_byte_identical(self, tmp_path, name, overrides):
        def csv(threads):
            config = ExperimentConfig(
                experiment=name, trials=4, base_seed=11,
                overrides={**overrides, "threads": threads},
            )
            path = tmp_path / f"{threads}.csv"
            run(config).to_csv(path)
            return path.read_bytes()

        assert csv(2) == csv(1)

    @pytest.mark.parametrize(
        "name, member, extra",
        [
            ("restriction", CovarianceRestriction.SHARED_FULL, {}),
            ("mode", CovarianceMode.DIAGONAL_DISTINCT, {"E": 4.0}),
        ],
    )
    def test_string_value_runs_the_same_model_as_its_member(self, name, member, extra):
        # A JSON config can only give the string; it must not select
        # another covariance model.
        kwargs = dict(k=2, d=5, train_size=200, test_size=100, **extra)
        by_member = em_compare_trial(20, 3, **{name: member}, **kwargs)
        by_string = em_compare_trial(20, 3, **{name: member.value}, **kwargs)
        assert by_string == by_member

    def test_small_batch_runs(self):
        report = fig8_body(0, trials=2, n_values=(50,))
        assert len(report.rows) == 2
        for row in report.rows:
            if not row["reg_failed"]:
                assert np.isfinite(row["reg_test_loglik"])
            if not row["rp_failed"]:
                assert np.isfinite(row["rp_test_loglik"])


class TestDigitSweep:
    def test_surrogate_statistics(self):
        train_set, test_set = surrogate_digit_data(
            0, train_size=400, test_size=100
        )
        assert train_set.points.shape == (400, 256)
        assert test_set.points.shape == (100, 256)
        assert train_set.num_classes == 10

    def test_surrogate_deterministic(self):
        a, _ = surrogate_digit_data(3, train_size=50, test_size=10)
        b, _ = surrogate_digit_data(3, train_size=50, test_size=10)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_real_data_raises_with_schema_hint(self):
        with pytest.raises(MissingDataError, match="label"):
            fig9_body(0, surrogate=False)

    @pytest.mark.parametrize("given, missing", [("train_path", "test_path"), ("test_path", "train_path")])
    def test_one_data_path_alone_is_an_error(self, tmp_path, given, missing):
        with pytest.raises(MissingDataError, match=missing):
            fig9_body(0, trials=1, d_values=(5,), **{given: tmp_path / "data.csv"})

    def test_real_data_path_used_when_supplied(self, tmp_path):
        from rpmix import save_labeled
        from rpmix.classifier import LabeledDataset

        rng = np.random.default_rng(0)
        pts = np.vstack(
            [rng.standard_normal((60, 12)), rng.standard_normal((60, 12)) + 8.0]
        )
        data = LabeledDataset(pts, np.array([0] * 60 + [1] * 60))
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        save_labeled(data, train_path)
        save_labeled(data, test_path)
        report = fig9_body(
            0,
            trials=1,
            d_values=(6,),
            train_path=train_path,
            test_path=test_path,
            per_class_k=2,
        )
        assert report.rows[0]["accuracy"] > 0.95


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nonsense")

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fig3-sep-vs-n", overrides={"k": 3})

    def test_bad_trial_count(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fig3-sep-vs-n", trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", "3"),
            ("trials", True),
            ("trials", 1.5),
            ("base_seed", "x"),
            ("base_seed", -1),
            ("base_seed", None),
            ("overrides", [1]),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ExperimentConfig(experiment="fig3-sep-vs-n", **{field: value})

    @pytest.mark.parametrize("threads", [0, -1, "2", 1.5, True, None])
    def test_bad_threads_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads must be an int >= 1"):
            ExperimentConfig(experiment="fig8-em-compare", overrides={"threads": threads})

    def test_keyword_the_body_does_not_take_is_config_error(self, monkeypatch):
        def body(base_seed, trials=1):
            return base_seed

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig3-sep-vs-n", (body, {"d"}))
        with pytest.raises(ConfigError, match="fig3-sep-vs-n: .*'d'"):
            run(ExperimentConfig(experiment="fig3-sep-vs-n", overrides={"d": 3}))

    def test_type_error_inside_body_propagates(self, monkeypatch):
        def body(base_seed, trials=1, d=2):
            return len(d)

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig3-sep-vs-n", (body, {"d"}))
        with pytest.raises(TypeError, match="has no len"):
            run(ExperimentConfig(experiment="fig3-sep-vs-n", overrides={"d": 3}))

    def test_dispatch_runs_named_experiment(self):
        report = run(
            ExperimentConfig(
                experiment="fig6-ecc-vs-d",
                trials=2,
                overrides={"d_values": (50,)},
            )
        )
        assert len(report.rows) == 2


class TestRegistry:
    OVERRIDES = {
        "fig3-sep-vs-n": {"n_values", "d"},
        "fig4-sep-vs-k": {"k_values", "n", "c"},
        "fig5-ecc-table": {"E_values", "n_values", "d"},
        "fig6-ecc-vs-d": {"n", "E", "d_values"},
        "fig7-pca-vs-rp": {"n", "k", "c", "E", "d", "samples"},
        "fig8-em-compare": {
            "n_values", "threads", "k", "c", "E", "mode", "restriction", "d",
            "train_size", "test_size",
        },
        "second-em-compare": {"n", "threads"},
        "fig9-digit-sweep": {
            "d_values", "train_path", "test_path", "per_class_k", "surrogate",
        },
        "pca-collapse": {"k", "samples"},
    }

    def test_override_sets(self):
        got = {name: set(allowed) for name, (_, allowed) in experiments.EXPERIMENTS.items()}
        assert got == self.OVERRIDES

    def test_trials_ignored_by_an_experiment_without_trials(self):
        report = run(ExperimentConfig("pca-collapse", trials=5))
        assert [row["method"] for row in report.rows] == ["pca_collapse", "pca_full", "rp"]

import inspect
import json
import multiprocessing
import os
import pickle
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from rpmix import errors, experiments, pairwise_separation, spectral_summary
from rpmix._blas import single_blas_thread
from rpmix.errors import (
    BadDimsError,
    BadSeparationError,
    ConfigError,
    EmptyComponentError,
    InconsistentWidthError,
    InvalidParameterError,
    MissingDataError,
)
from rpmix.experiments import (
    ExperimentConfig,
    em_compare_trial,
    fig3_body,
    fig4_body,
    fig5_body,
    fig6_body,
    fig7_tables,
    fig8_body,
    fig9_body,
    pca_collapse_body,
    run,
    surrogate_digit_data,
)
from rpmix.classifier import LabeledDataset, train
from rpmix.em import CovarianceRestriction, rp_em
from rpmix.gaussians import _seed_children
from rpmix.projection import random_orthonormal
from rpmix.synthesis import CovarianceMode, long_axis_mixture


def stream_state(seed):
    """`generate_state(4)` of the stream `np.random.default_rng(seed)` draws."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return tuple(ss.generate_state(4).tolist())


def record_streams(monkeypatch):
    """The list that every later `np.random.default_rng` call appends its
    stream's `stream_state` to. States, not (entropy, spawn_key): the keys
    of SeedSequence([7, 0]) and SeedSequence(7) differ, their streams do
    not."""
    seen = []
    real = np.random.default_rng

    def recording(seed=None):
        seen.append(stream_state(seed))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seen


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

    def test_aggregates_keep_the_bits_of_each_statistic(self):
        # Group 2 holds a failed trial's -inf: its mean is -inf and its sd NaN.
        values = {0: [0.1, 0.7, 1e20, 0.3], 1: [0.1, 0.7, 0.2, 0.3, -2.5], 2: [-np.inf, 0.5]}
        rows = [{"row_type": "trial", "g": g, "seed": i, "v": v, "w": i % 2 == 0}
                for g, vs in values.items() for i, v in enumerate(vs)]
        report = experiments.ExperimentReport(("g",), ("v", "w"), tuple(rows))
        for agg in report.aggregates():
            group = [r for r in rows if r["g"] == agg["g"]]
            for col in ("v", "w"):
                vals = np.array([float(r[col]) for r in group])
                with np.errstate(invalid="ignore"):
                    want = {
                        "mean": vals.mean(), "min": vals.min(), "max": vals.max(), "median": np.median(vals),
                        "sd": vals.std(ddof=1) if len(vals) > 1 else 0.0,
                    }[agg["row_type"]]
                assert type(agg[col]) is float
                assert np.array_equal(agg[col], want, equal_nan=True)
        assert [agg["row_type"] for agg in report.aggregates()] == ["mean", "sd", "min", "max", "median"] * 3

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

    def test_summary_lines_are_the_mean_rows_to_four_digits(self):
        report = fig3_body(0, trials=2, n_values=(50, 100), threads=1)
        means = [agg for agg in report.aggregates() if agg["row_type"] == "mean"]
        lines = report.summary_lines()
        assert len(lines) == len(means) == 2
        for line, agg in zip(lines, means):
            n, value = re.fullmatch(r"\[n=(\d+)\] separation=(\S+)", line).groups()
            assert int(n) == agg["n"]
            assert len(value.replace(".", "").lstrip("0")) <= 4
            assert float(value) == float("%.4g" % agg["separation"])
        rows = ({"row_type": "trial", "g": 1, "h": "a", "seed": 0, "v": 0.123456, "w": True},)
        assert experiments.ExperimentReport(("g", "h"), ("v", "w"), rows).summary_lines() == ["[g=1, h=a] v=0.1235, w=1"]

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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fig4_at_two_components_is_fig3_at_its_dim(self, seed):
        # Both bodies map one trial; at k=2, fig4 projects to round(10 ln 2) = 7.
        fig4 = fig4_body(seed, trials=3, k_values=(2,), n=100, c=1.0)
        fig3 = fig3_body(seed, trials=3, n_values=(100,), d=7, threads=1)
        assert {row["d"] for row in fig4.rows} == {7}
        assert [(r["seed"], r["separation"]) for r in fig4.rows] == [
            (r["seed"], r["separation"]) for r in fig3.rows
        ]


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

    def test_one_component_has_no_pair(self):
        assert experiments.fig7_body(0, trials=1, k=1, threads=1).rows == ()

    def test_tables_do_not_follow_the_callers_blas_threads(self):
        # The last bits of PCA's Gram product depend on the BLAS thread
        # count, so fig7_tables runs on one thread wherever it is called.
        outside = fig7_tables(0)
        with single_blas_thread():
            inside = fig7_tables(0)
        for a, b in zip(outside, inside):
            assert np.array_equal(a, b)

    def test_pooled_rows_follow_trial_then_method_then_pair(self):
        report = experiments.fig7_body(5, trials=3, k=4, threads=2)
        expected = []
        for seed in (5, 6, 7):
            pca_table, rp_table = fig7_tables(seed, k=4)
            for method, tab in (("pca", pca_table), ("rp", rp_table)):
                for i, j in combinations(range(4), 2):
                    expected.append((method, i, j, seed, tab[i, j]))
        got = [(r["method"], r["i"], r["j"], r["seed"], r["separation"]) for r in report.rows]
        assert got == expected

    def test_mixture_premise_pca_keeps_long_axes(self):
        n, k, c, E, d = 100, 5, 0.5, 1000.0, 10
        # The mixture fig7_tables(0) projects.
        mix, long_axes = long_axis_mixture(n, k, c, E, d, _seed_children(0, 3)[0])
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
        seen = record_streams(monkeypatch)
        fig7_tables(4)
        # Three roles and, inside the truth stream, one per covariance.
        assert len(seen) >= 3 + 5
        assert len(set(seen)) == len(seen)
        for role in _seed_children(4, 3)[1:]:  # the sample and the projection
            assert stream_state(role) in seen


class TestGivenAMap:
    """Given its map, a fit draws only the start streams that its seed feeds."""

    DATA = np.random.default_rng(0).standard_normal((90, 6)) + np.arange(90)[:, None] % 3
    PROJ = random_orthonormal(6, 3, 5)

    def test_rp_em_draws_only_its_low_dimensional_start(self, monkeypatch):
        seen = record_streams(monkeypatch)
        rp_em(self.DATA, 2, self.PROJ, CovarianceRestriction.SHARED_FULL, 7)
        assert seen == [stream_state(7)]

    def test_train_draws_only_its_class_starts(self, monkeypatch):
        data = LabeledDataset(self.DATA, np.arange(90) % 3)
        seen = record_streams(monkeypatch)
        train(data, self.PROJ, per_class_k=2, seed=7)
        assert seen == [stream_state(np.random.SeedSequence([7, cls])) for cls in range(3)]


# The four derivations that share a stream, each made at a call site in
# experiments.py, pinned until ROADMAP item 3.
COLLIDE_EM = (
    "ROADMAP item 3: em_compare_trial seeds its truth with the trial seed, so the "
    "first covariance's stream is the sample's, and it gives its fit seed to the "
    "hybrid's map and to both fits' starts, so the map's stream is the starts'"
)
COLLIDE_DIGITS = (
    "ROADMAP item 3: _digit_trial draws train's map from SeedSequence(seed), the "
    "stream of class 0's start SeedSequence([seed, 0]), and class 9's start at the "
    "base seed is the surrogate's SeedSequence([b, 9])"
)

# body -> one run at a small size, one grid point and two trials: the grid
# points of a body share their trial seeds on purpose.
SMALL_BODIES = {
    "fig3": lambda: fig3_body(0, trials=2, n_values=(20,), d=5, threads=1),
    "fig4": lambda: fig4_body(0, trials=2, k_values=(3,), n=20),
    "fig5": lambda: fig5_body(0, trials=2, E_values=(50,), n_values=(25,)),
    "fig6": lambda: fig6_body(0, trials=2, n=10, E=10.0, d_values=(5,)),
    "fig7": lambda: experiments.fig7_body(0, trials=2, n=30, k=3, d=5, samples=100, threads=1),
    "pca-collapse": lambda: pca_collapse_body(0, k=4, samples=200),
    "fig8": pytest.param(
        lambda: fig8_body(0, trials=2, n_values=(10,), threads=1, k=2, d=3, train_size=200, test_size=50),
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=COLLIDE_EM),
    ),
    "second-em": pytest.param(
        lambda: experiments.second_em_body(0, trials=2, n=30, threads=1),
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=COLLIDE_EM),
    ),
    "fig9": pytest.param(
        lambda: fig9_body(0, trials=2, d_values=(5,), threads=1),
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=COLLIDE_DIGITS),
    ),
}


@pytest.mark.parametrize("body", SMALL_BODIES.values(), ids=SMALL_BODIES.keys())
def test_every_stream_of_a_body_run_is_distinct(monkeypatch, body):
    seen = record_streams(monkeypatch)
    body()
    assert len(seen) >= 2
    assert len(set(seen)) == len(seen)


class TestPcaCollapse:
    def test_odd_or_degenerate_k_rejected(self):
        with pytest.raises(BadDimsError):
            pca_collapse_body(0, k=9)
        with pytest.raises(BadDimsError):
            pca_collapse_body(0, k=2)

    @pytest.mark.parametrize("k", [4.0, "4", True, 0])
    def test_k_that_is_not_a_positive_int_is_an_invalid_parameter(self, k):
        with pytest.raises(InvalidParameterError, match=rf"^k must be an int >= 1, got {k!r}$"):
            pca_collapse_body(0, k=k)

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

    # (hybrid's test loglik, plain EM's) -> (exact_match, rp_beats): a match is
    # a relative gap of at most 1e-9 of the larger magnitude, and an infinity
    # matches only itself.
    MATCH_RULE = [
        ((-100.0, -100.0), (True, False)),
        ((-100.0, -100.0 * (1 + 9e-10)), (True, False)),
        ((-100.0, -100.0 * (1 + 2e-9)), (False, True)),
        ((-100.0 * (1 + 2e-9), -100.0), (False, False)),
        ((-np.inf, -np.inf), (True, False)),
        ((-100.0, -np.inf), (False, True)),
        ((-np.inf, -100.0), (False, False)),
    ]

    @pytest.mark.parametrize("logliks, verdict", MATCH_RULE)
    def test_exact_match_rule(self, monkeypatch, logliks, verdict):
        rp, reg = logliks
        scores = iter([(True, 1, reg, False), (True, 1, rp, False)])  # plain EM is scored first
        monkeypatch.setattr(experiments, "_scored_fit", lambda fit, truth, test: next(scores))
        row = em_compare_trial(4, 0, k=2, d=2, train_size=10, test_size=5)
        assert (row["exact_match"], row["rp_beats"]) == verdict
        assert type(row["exact_match"]) is bool

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
        [
            ("fig8-em-compare", {"n_values": (50,)}),
            ("second-em-compare", {}),
            ("fig9-digit-sweep", {"d_values": (20,)}),
            ("fig3-sep-vs-n", {"n_values": [50, 200]}),
            ("fig7-pca-vs-rp", {}),
        ],
    )
    def test_worker_pool_report_byte_identical(self, tmp_path, name, overrides):
        # threads=None is the default: one worker per core.
        def csv(threads):
            config = ExperimentConfig(
                experiment=name, trials=4, base_seed=11, overrides={**overrides, "threads": threads}
            )
            path = tmp_path / f"{threads}.csv"
            run(config).to_csv(path)
            return path.read_bytes()

        serial = csv(1)
        assert csv(2) == serial
        assert csv(None) == serial

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


SMALL_TRIAL = dict(n_values=(20,), k=3, c=2.0, d=5, train_size=300, test_size=100)


ERRORS = {
    name: value
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, Exception)
}


class TestTrialPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """The keyword arguments of every executor `_run_trials` builds, on a
        machine with three cores in the affinity mask. Each executor starts
        no more workers than the real machine has cores."""
        built = []
        cores = len(os.sched_getaffinity(0))

        class Recording(ProcessPoolExecutor):
            def __init__(self, **kwargs):
                built.append(kwargs)
                super().__init__(**{**kwargs, "max_workers": min(kwargs["max_workers"], cores)})

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        return built

    @pytest.mark.parametrize("trials, workers", [(2, 2), (4, 3)])
    def test_default_is_one_forked_worker_per_core_at_most_one_per_trial(
        self, pools, trials, workers
    ):
        # Python 3.14 makes forkserver the Linux default; set another default
        # here to show the pool does not follow it.
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            report = fig8_body(0, trials=trials, **SMALL_TRIAL)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert len(report.rows) == trials
        assert len(pools) == 1
        assert pools[0]["mp_context"].get_start_method() == "fork"
        assert pools[0]["max_workers"] == workers

    def test_default_fig7_sweep_builds_one_fork_pool(self, pools):
        report = experiments.fig7_body(0)
        assert len(report.rows) == 10 * 2 * 10  # default trials x methods x pairs
        assert len(pools) == 1
        assert pools[0]["mp_context"].get_start_method() == "fork"
        assert pools[0]["max_workers"] == 3

    def test_explicit_threads_is_capped_at_the_tasks(self, monkeypatch):
        # A fork pool forks all its workers at the first submit. The fake
        # records the count and starts no process.
        built = []

        class Fake:
            def __init__(self, max_workers, initargs, **kwargs):
                built.append(max_workers)
                self.worker, self.shared = initargs[0]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, _, tasks):
                return [self.worker(task, *self.shared) for task in tasks]

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Fake)
        assert experiments._run_trials(abs, [-1, -2, -3], 1000) == [1, 2, 3]
        assert built == [3]

    def test_explicit_threads_is_the_worker_count(self, pools):
        fig8_body(0, trials=3, threads=2, **SMALL_TRIAL)
        assert [kwargs["max_workers"] for kwargs in pools] == [2]

    @pytest.mark.parametrize("trials, threads", [(1, None), (3, 1)])
    def test_one_trial_or_one_thread_builds_no_pool(self, pools, trials, threads):
        report = fig8_body(0, trials=trials, threads=threads, **SMALL_TRIAL)
        assert len(report.rows) == trials
        assert pools == []

    @pytest.mark.parametrize("threads", [0, -2, True, 2.5, "2"])
    def test_worker_count_that_is_not_an_int_at_least_one_is_invalid(self, pools, threads):
        with pytest.raises(InvalidParameterError, match=f"^threads must be an int >= 1, got {threads!r}$"):
            fig3_body(0, trials=1, n_values=(50,), threads=threads)
        assert pools == []

    @pytest.mark.parametrize("threads", [None, 1, 2])
    def test_empty_task_list_maps_to_no_results(self, threads):
        assert experiments._run_trials(abs, [], threads) == []

    def test_shared_arguments_reach_the_workers(self, pools):
        def worker(task, offset):
            return task + offset, os.getpid()

        rows = experiments._run_trials(worker, [(1,), (2,), (3,)], 2, (10,))
        assert [value for value, _ in rows] == [11, 12, 13]
        assert os.getpid() not in {pid for _, pid in rows}

    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_error_keeps_its_message_through_a_pickle(self, name):
        # A pool worker sends its exception back pickled.
        cls = ERRORS[name]
        error = cls((1, 2)) if cls is EmptyComponentError else cls("a message")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))

    def test_pooled_sweep_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fig8_body(0, trials=2, threads=2, **SMALL_TRIAL)
        assert len(report.rows) == 2


class TestDigitSweep:
    def test_surrogate_statistics(self):
        train_set, test_set = surrogate_digit_data(0)
        assert train_set.points.shape == (3000, 256)
        assert test_set.points.shape == (1000, 256)
        assert train_set.num_classes == 10

    def test_surrogate_deterministic(self):
        a, _ = surrogate_digit_data(3)
        b, _ = surrogate_digit_data(3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

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


    @pytest.fixture
    def digit_files(self, tmp_path):
        from rpmix import save_labeled
        from rpmix.classifier import LabeledDataset

        rng = np.random.default_rng(0)
        pts = np.vstack([rng.standard_normal((60, 12)), rng.standard_normal((60, 12)) + 8.0])
        paths = tmp_path / "train.csv", tmp_path / "test.csv"
        for path, part in zip(paths, (slice(None), slice(None, None, 3))):
            save_labeled(LabeledDataset(pts[part], np.repeat([0, 1], 60)[part]), path)
        return paths

    def test_report_from_files_byte_identical_across_threads(self, tmp_path, digit_files):
        # threads=None is the default: one worker per core. Each call reads
        # its files in the pool, with no parse kept from the call before.
        def csv(threads):
            experiments._PARSED.clear()
            report = fig9_body(
                3, trials=2, d_values=(4, 6), train_path=digit_files[0],
                test_path=digit_files[1], per_class_k=2, threads=threads,
            )
            path = tmp_path / f"{threads}.csv"
            report.to_csv(path)
            return path.read_bytes()

        serial = csv(1)
        assert csv(2) == serial
        assert csv(None) == serial

    def test_pooled_reads_hand_read_only_datasets_to_the_trials(self, monkeypatch, digit_files):
        from rpmix import ingest

        shared = []
        run_trials = experiments._run_trials

        def recording(worker, tasks, threads=None, shared_args=()):
            shared.append(shared_args)
            return run_trials(worker, tasks, threads, shared_args)

        monkeypatch.setattr(experiments, "_run_trials", recording)
        fig9_body(0, trials=1, d_values=(4,), train_path=digit_files[0],
                  test_path=digit_files[1], per_class_k=2, threads=2)
        assert shared[0] == ()  # the reads
        for data, path in zip(shared[1][:2], digit_files):
            assert not data.points.flags.writeable
            assert not data.labels.flags.writeable
            assert np.array_equal(data.points, ingest(path).points)

    @staticmethod
    def recorded_runs(monkeypatch):
        """(worker, tasks, shared) of every later `_run_trials` call."""
        runs, run_trials = [], experiments._run_trials

        def recording(worker, tasks, threads=None, shared=()):
            runs.append((worker, list(tasks), shared))
            return run_trials(worker, tasks, threads, shared)

        monkeypatch.setattr(experiments, "_run_trials", recording)
        return runs

    @staticmethod
    def reads(runs):
        return [[path for (path,) in tasks] for worker, tasks, _ in runs if worker is experiments._digested_ingest]

    @staticmethod
    def sweep_csv(digit_files, path, threads=2):
        fig9_body(3, trials=2, d_values=(4,), train_path=digit_files[0],
                  test_path=digit_files[1], per_class_k=2, threads=threads).to_csv(path)
        return path.read_bytes()

    @pytest.mark.parametrize("threads", [1, None])
    def test_second_call_on_the_same_files_reuses_the_parse(self, monkeypatch, tmp_path, digit_files, threads):
        from rpmix import ingest

        runs = self.recorded_runs(monkeypatch)
        first = self.sweep_csv(digit_files, tmp_path / "first.csv", threads)
        assert self.reads(runs) == [list(digit_files)]
        del runs[:]
        assert self.sweep_csv(digit_files, tmp_path / "second.csv", threads) == first
        [(worker, _, shared)] = runs  # the trials, and no read
        assert worker is experiments._digit_trial
        for data, path in zip(shared[:2], digit_files):
            assert not data.points.flags.writeable
            assert not data.labels.flags.writeable
            assert np.array_equal(data.points, ingest(path).points)

    def test_file_rewritten_with_its_size_and_mtime_is_read_again(self, monkeypatch, tmp_path, digit_files):
        runs = self.recorded_runs(monkeypatch)
        train_path = digit_files[0]
        first = self.sweep_csv(digit_files, tmp_path / "first.csv")
        stat = train_path.stat()
        # The labels swapped: other values of the same byte length.
        swapped = [("1" if line[0] == "0" else "0") + line[1:] for line in train_path.read_text().splitlines(True)]
        train_path.write_text("".join(swapped))
        os.utime(train_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (train_path.stat().st_size, train_path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        assert self.sweep_csv(digit_files, tmp_path / "second.csv") != first
        assert self.reads(runs) == [list(digit_files), [train_path]]

    def test_ragged_file_raises_on_every_call_and_mended_gives_a_report(self, tmp_path, digit_files):
        test_path = digit_files[1]
        good = test_path.read_bytes()
        first = self.sweep_csv(digit_files, tmp_path / "first.csv")
        lines = good.decode().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        test_path.write_text("".join(lines))
        for _ in range(2):
            with pytest.raises(InconsistentWidthError, match=r"test\.csv: line 3: expected 13 values, got 12"):
                self.sweep_csv(digit_files, tmp_path / "bad.csv")
        test_path.write_bytes(good)
        assert self.sweep_csv(digit_files, tmp_path / "mended.csv") == first

    @pytest.mark.parametrize("bad", ["path", "missing", "not utf-8"])
    def test_an_unreadable_file_raises_as_ingest_does_on_every_call(self, tmp_path, digit_files, bad):
        from rpmix import ingest

        self.sweep_csv(digit_files, tmp_path / "first.csv")  # something kept to reuse
        if bad == "path":
            test_path = 987
        elif bad == "missing":
            test_path = tmp_path / "absent.csv"
        else:
            test_path = tmp_path / "latin-1.csv"
            test_path.write_bytes(digit_files[1].read_bytes() + b"0,\xe9\n")
        with pytest.raises(Exception) as direct:
            ingest(test_path)
        for _ in range(2):
            with pytest.raises(type(direct.value), match=re.escape(str(direct.value))):
                self.sweep_csv((digit_files[0], test_path), tmp_path / "bad.csv")

    def test_kept_parse_holds_only_the_last_calls_files(self, tmp_path, digit_files):
        import hashlib

        from rpmix import ingest, save_labeled
        from rpmix.classifier import LabeledDataset

        self.sweep_csv(digit_files, tmp_path / "first.csv")
        rng = np.random.default_rng(1)
        other = tmp_path / "other-train.csv", tmp_path / "other-test.csv"
        for path, size in zip(other, (80, 20)):
            save_labeled(LabeledDataset(rng.standard_normal((size, 12)), np.arange(size) % 2), path)
        self.sweep_csv(other, tmp_path / "second.csv")
        kept = experiments._PARSED
        assert set(kept) == {hashlib.sha256(path.read_bytes()).digest() for path in other}
        for path in other:
            assert np.array_equal(kept[hashlib.sha256(path.read_bytes()).digest()].points, ingest(path).points)

    def test_ragged_file_read_in_a_worker_names_its_line(self, digit_files):
        test_path = digit_files[1]
        lines = test_path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        test_path.write_text("".join(lines))
        with pytest.raises(InconsistentWidthError, match=r"test\.csv: line 3: expected 13 values, got 12"):
            fig9_body(0, trials=1, d_values=(4,), train_path=digit_files[0],
                      test_path=test_path, per_class_k=2, threads=2)


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nonsense")

    @pytest.mark.parametrize("name", [["fig3-sep-vs-n"], {"fig3-sep-vs-n": 1}, 3])
    def test_experiment_that_is_not_a_string_is_unknown(self, name):
        # A config file can hold any JSON value; a list or an object is no key.
        with pytest.raises(ConfigError, match=f"^unknown experiment {re.escape(repr(name))}; "):
            ExperimentConfig(experiment=name)

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="fig3-sep-vs-n", overrides={"k": 3})

    def test_surrogate_is_not_an_override(self):
        # fig9 chooses its data by its paths alone: neither means the surrogate.
        with pytest.raises(ConfigError, match="^override 'surrogate' not valid for fig9-digit-sweep"):
            ExperimentConfig("fig9-digit-sweep", overrides={"surrogate": False})

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

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("fig3-sep-vs-n", "n_values", "abc"),
            ("fig3-sep-vs-n", "n_values", 50),
            ("fig3-sep-vs-n", "n_values", [50, 2.5]),
            ("fig3-sep-vs-n", "n_values", [True]),
            ("fig3-sep-vs-n", "d", "20"),
            ("fig3-sep-vs-n", "d", 20.0),
            ("fig4-sep-vs-k", "c", "1"),
            ("fig4-sep-vs-k", "c", False),
            ("fig8-em-compare", "mode", 3),
            ("fig8-em-compare", "mode", None),
            ("fig8-em-compare", "mode", b"rotated-distinct"),
            ("fig8-em-compare", "mode", ["rotated-distinct"]),
            ("fig8-em-compare", "restriction", CovarianceMode.SPHERICAL_SHARED),
            ("fig8-em-compare", "restriction", None),
            ("fig8-em-compare", "restriction", 1),
            ("fig8-em-compare", "restriction", b"full-distinct"),
            ("fig8-em-compare", "restriction", ["full-distinct"]),
        ],
    )
    def test_override_of_the_wrong_type_rejected(self, experiment, key, value):
        with pytest.raises(ConfigError, match=f"{experiment}: override '{key}' must"):
            ExperimentConfig(experiment=experiment, overrides={key: value})

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("fig3-sep-vs-n", {"n_values": [50], "d": np.int64(5)}),
            ("fig3-sep-vs-n", {"n_values": range(50, 52)}),
            ("fig4-sep-vs-k", {"c": 2, "k_values": (3,)}),
            ("fig6-ecc-vs-d", {"E": 10, "d_values": np.array([20, 30])}),
            ("fig8-em-compare", {"mode": "diagonal-distinct", "restriction": "full-distinct"}),
            ("fig8-em-compare", {"mode": CovarianceMode.FULL_SHARED}),
            ("fig9-digit-sweep", {"train_path": "a.csv", "test_path": "b.csv"}),
            ("fig9-digit-sweep", {"train_path": Path("a.csv"), "test_path": None}),
            ("fig9-digit-sweep", {"train_path": b"a.csv", "test_path": "b.csv"}),
        ],
    )
    def test_override_of_the_default_type_accepted(self, experiment, overrides):
        assert ExperimentConfig(experiment=experiment, overrides=overrides).overrides == overrides

    @pytest.mark.parametrize(
        "overrides",
        [
            {"train_path": 987, "test_path": "b.csv"},
            {"train_path": "a.csv", "test_path": 988},
            {"train_path": ["a.csv"], "test_path": "b.csv"},
        ],
    )
    def test_data_path_that_is_not_a_path_rejected(self, tmp_path, monkeypatch, overrides):
        # fig9 reads both paths through `ingest` before any trial runs; `open`
        # would read an int as a file descriptor.
        monkeypatch.chdir(tmp_path)
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("0,1.0\n")
        bad = next(v for v in overrides.values() if not isinstance(v, str))
        config = ExperimentConfig(
            experiment="fig9-digit-sweep", overrides={**overrides, "threads": 1}
        )
        with pytest.raises(
            InvalidParameterError,
            match=re.escape(f"path must be a str, bytes or os.PathLike, got {bad!r}"),
        ):
            run(config)

    @pytest.mark.parametrize("threads", [0, -1, "2", 1.5, True])
    def test_bad_threads_rejected(self, threads):
        config = ExperimentConfig(experiment="fig8-em-compare", overrides={"threads": threads})
        with pytest.raises(InvalidParameterError, match="threads must be an int >= 1"):
            run(config)

    def test_type_error_inside_body_propagates(self, monkeypatch):
        def body(base_seed, trials=1, d=2):
            return len(d)

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig3-sep-vs-n", (body, {"d": 2}))
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
        "fig3-sep-vs-n": {"n_values", "d", "threads"},
        "fig4-sep-vs-k": {"k_values", "n", "c"},
        "fig5-ecc-table": {"E_values", "n_values", "d"},
        "fig6-ecc-vs-d": {"n", "E", "d_values"},
        "fig7-pca-vs-rp": {"n", "k", "c", "E", "d", "samples", "threads"},
        "fig8-em-compare": {
            "n_values", "threads", "k", "c", "E", "mode", "restriction", "d",
            "train_size", "test_size",
        },
        "second-em-compare": {"n", "threads"},
        "fig9-digit-sweep": {"d_values", "train_path", "test_path", "per_class_k", "threads"},
        "pca-collapse": {"k", "samples"},
    }

    def test_override_sets(self):
        got = {name: set(allowed) for name, (_, allowed) in experiments.EXPERIMENTS.items()}
        assert got == self.OVERRIDES

    @pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
    def test_every_override_at_its_default_binds_to_the_body(self, name):
        # So `run` calls the body with any set of allowed overrides, and a
        # keyword the body does not take never reaches it.
        body, allowed = experiments.EXPERIMENTS[name]
        inspect.signature(body).bind(0, **allowed)

    @pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
    def test_config_can_state_every_default(self, name):
        # Each default as a config file holds it: an enum member as its
        # value, a tuple as a list, None (threads) as null.
        _, allowed = experiments.EXPERIMENTS[name]
        overrides = json.loads(json.dumps(allowed, default=lambda member: member.value))
        assert ExperimentConfig(name, overrides=overrides).overrides == overrides

    def test_threads_null_is_the_default(self, tmp_path):
        def csv(overrides):
            path = tmp_path / "fig3-sep-vs-n.csv"
            run(ExperimentConfig("fig3-sep-vs-n", trials=1, overrides=overrides)).to_csv(path)
            return path.read_bytes()

        assert csv(json.loads('{"threads": null}')) == csv({})

    def test_pca_collapse_runs_its_trial_count(self):
        report = run(ExperimentConfig("pca-collapse", trials=3))
        methods = ["pca_collapse", "pca_full", "rp"]
        assert [(row["seed"], row["method"]) for row in report.rows] == [
            (seed, method) for seed in (0, 1, 2) for method in methods
        ]
        assert report.rows[:3] == run(ExperimentConfig("pca-collapse", trials=1)).rows

import json
import re

import numpy as np
import pytest

from rpmix import (
    Gaussian,
    Mixture,
    cli,
    experiments,
    load_dataset,
    load_mixture,
    load_projection,
    save_labeled,
)
from rpmix.classifier import LabeledDataset, cluster_analysis, save_cluster_analysis
from rpmix.em import FitResult
from test_blas import SMALL_RUNS


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestSynth:
    def test_writes_mixture_and_samples(self, tmp_path, capsys):
        mix_path = tmp_path / "mix.json"
        data_path = tmp_path / "data.csv"
        code = run_cli(
            [
                "synth", "--n", 10, "--k", 3, "--c", 1.0, "--seed", 4,
                "--out", mix_path, "--samples", 50, "--data-out", data_path,
            ]
        )
        assert code == 0
        mix = load_mixture(mix_path)
        assert mix.k == 3 and mix.dim == 10
        assert load_dataset(data_path).shape == (50, 10)
        out = capsys.readouterr().out
        assert "separation" in out

    def test_bad_spec_exits_nonzero(self, tmp_path, capsys):
        code = run_cli(
            [
                "synth", "--n", 5, "--k", 3, "--c", 0.0,
                "--out", tmp_path / "mix.json",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_eccentricity_is_named(self, tmp_path, capsys):
        code = run_cli(
            [
                "synth", "--n", 5, "--k", 2, "--c", 1.0, "-E", 1e300,
                "--mode", "diagonal-distinct", "--out", tmp_path / "mix.json",
            ]
        )
        assert code == 1
        assert "error: eccentricity E" in capsys.readouterr().err

    def test_bad_sample_count_writes_nothing(self, tmp_path, capsys):
        mix_path, data_path = tmp_path / "mix.json", tmp_path / "data.csv"
        code = run_cli(
            [
                "synth", "--n", 5, "--k", 2, "--c", 1.0, "--samples", -3,
                "--out", mix_path, "--data-out", data_path,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: count must be >= 1, got -3\n"
        assert not mix_path.exists() and not data_path.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["synth", "--n", 5, "--k", 1, "--c", 1.0],
        ["synth", "--n", 5, "--k", 2, "--c", 1.0, "-E", 0.5],
        ["synth", "--n", 5, "--k", 2, "--c", "nan"],
        ["synth", "--n", 5, "--k", 2, "--c", 1.0, "--samples", -3],
        ["synth", "--n", -3, "--k", 2, "--c", 1.0],
        ["synth", "--n", 0, "--k", 2, "--c", 1.0],
        ["project", "--kind", "orthonormal", "--d", 2],
        ["project", "--kind", "uniform", "--d", 2],
        ["em", "--k", 0],
    ],
    ids=[
        "synth-k", "synth-E", "synth-c-nan", "synth-samples", "synth-n-negative", "synth-n-zero",
        "orthonormal-n", "uniform-n", "em-k",
    ],
)
def test_bad_parameter_is_clean_error(tmp_path, capsys, args):
    data_path = tmp_path / "data.csv"
    data_path.write_text("0,1\n1,0\n")
    if args[0] == "em":
        args = [*args, "--data", data_path]
    code = run_cli([*args, "--out", tmp_path / "out.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--n", 4, "--k", 2, "--c", 1.0, "--samples", 5, "--out", "m.json"],
        ["project", "--n", 4, "--d", 2, "--out", "p.json"],
        ["em", "--data", "data.csv", "--k", 2, "--out", "m.json"],
        ["classify", "--train", "train.csv", "--d", 2],
    ],
    ids=["synth", "project", "em", "classify"],
)
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # numpy's generators reject a negative seed; the parser rejects it first.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("0,1\n1,0\n2,1\n")
    save_labeled(LabeledDataset(np.eye(4)[[0, 1, 2, 3] * 3], [0, 1] * 6), tmp_path / "train.csv")
    with pytest.raises(SystemExit) as info:
        run_cli([*command, "--seed", -1])
    assert info.value.code == 2
    assert "argument --seed: expected an int >= 0, got '-1'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "train.csv"]


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize(
    "command", [["em", "--k", 2], ["project", "--kind", "pca", "--d", 1]], ids=["em", "project"]
)
def test_csv_without_data_rows_is_a_parse_error(tmp_path, capsys, command, text):
    data_path = tmp_path / "empty.csv"
    data_path.write_text(text)
    code = run_cli([*command, "--data", data_path, "--out", tmp_path / "out.json"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {data_path}: no data rows\n"
    assert not (tmp_path / "out.json").exists()


class TestProject:
    def test_random_projection_applied_to_data(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.random.default_rng(0).standard_normal((20, 8)), delimiter=",")
        proj_path = tmp_path / "proj.json"
        low_path = tmp_path / "low.csv"
        code = run_cli(
            [
                "project", "--kind", "orthonormal", "--n", 8, "--d", 3,
                "--seed", 1, "--data", data_path, "--data-out", low_path,
                "--out", proj_path,
            ]
        )
        assert code == 0
        proj = load_projection(proj_path)
        assert proj.rows.shape == (3, 8)
        assert load_dataset(low_path).shape == (20, 3)

    def test_pca_requires_data(self, tmp_path, capsys):
        code = run_cli(
            ["project", "--kind", "pca", "--d", 2, "--out", tmp_path / "p.json"]
        )
        assert code == 1
        assert "data" in capsys.readouterr().err


class TestEm:
    def test_fit_and_hybrid(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        data = np.vstack(
            [rng.standard_normal((80, 6)), rng.standard_normal((80, 6)) + 8.0]
        )
        data_path = tmp_path / "train.csv"
        np.savetxt(data_path, data, delimiter=",")
        out_path = tmp_path / "fit.json"
        trace_path = tmp_path / "trace.csv"
        code = run_cli(
            [
                "em", "--data", data_path, "--k", 2, "--restriction", "full",
                "--seed", 0, "--out", out_path, "--trace-out", trace_path,
                "--test", data_path,
            ]
        )
        assert code == 0
        fit = load_mixture(out_path)
        assert fit.k == 2
        trace_lines = trace_path.read_text().strip().split("\n")
        assert trace_lines[0] == "iteration,train_loglik"
        assert len(trace_lines) > 2
        assert "test loglik" in capsys.readouterr().out

        proj_path = tmp_path / "proj.json"
        code = run_cli(
            [
                "em", "--data", data_path, "--k", 2, "--restriction", "shared",
                "--seed", 0, "--rp-dim", 3, "--out", out_path,
                "--projection-out", proj_path,
            ]
        )
        assert code == 0
        assert load_projection(proj_path).target_dim == 3

    def test_trace_text_exact(self, tmp_path, monkeypatch):
        data_path = tmp_path / "train.csv"
        data_path.write_text("0,1\n1,0\n")
        fit = FitResult(
            model=Mixture([Gaussian(np.zeros(2), np.eye(2))], [1.0]),
            iterations=2,
            loglik_trace=np.array([-np.pi, -1e-300, -0.0]),
            converged=True,
        )
        monkeypatch.setattr(cli, "run_em", lambda *args: fit)
        trace_path = tmp_path / "trace.csv"
        code = run_cli(
            ["em", "--data", data_path, "--k", 1, "--out", tmp_path / "fit.json",
             "--trace-out", trace_path]
        )
        assert code == 0
        assert trace_path.read_text() == (
            "iteration,train_loglik\n0,-3.1415926535897931\n1,-1e-300\n2,-0\n"
        )

    def test_bad_csv_is_clean_error(self, tmp_path, capsys):
        for name, text, kind in (
            ("nan.csv", "0.5,1.0\n1.5,nan\n2.0,0.0\n", "non-finite"),
            ("ragged.csv", "0.5,1.0\n1.5\n2.0,0.0\n", "expected 2 values"),
        ):
            path = tmp_path / name
            path.write_text(text)
            code = run_cli(["em", "--data", path, "--k", 2, "--out", tmp_path / "o.json"])
            assert code == 1
            err = capsys.readouterr().err
            assert f"{name}: line 2: {kind}" in err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = run_cli(
            ["em", "--data", tmp_path / "absent.csv", "--k", 2,
             "--out", tmp_path / "o.json"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestClassify:
    def test_train_evaluate_analyze(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        pts = np.vstack(
            [rng.standard_normal((60, 8)), rng.standard_normal((60, 8)) + 8.0]
        )
        data = LabeledDataset(pts, np.array([0] * 60 + [1] * 60))
        train_path = tmp_path / "train.csv"
        save_labeled(data, train_path)
        analysis_path = tmp_path / "analysis.csv"
        code = run_cli(
            [
                "classify", "--train", train_path, "--test", train_path,
                "--d", 4, "--per-class-k", 2, "--seed", 0,
                "--analysis-out", analysis_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        lines = analysis_path.read_text().strip().split("\n")
        assert lines[0] == "class,0,1,eccentricity"
        assert len(lines) == 3


    def test_raw_analysis_is_the_unprojected_one(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        data = LabeledDataset(np.vstack([rng.standard_normal((30, 6)), rng.standard_normal((30, 6)) + 8.0]),
                              np.repeat([0, 1], 30))
        train_path, raw_path, want_path = tmp_path / "train.csv", tmp_path / "raw.csv", tmp_path / "want.csv"
        save_labeled(data, train_path)
        code = run_cli(
            ["classify", "--train", train_path, "--d", 3, "--per-class-k", 2, "--raw-analysis-out", raw_path]
        )
        assert code == 0
        assert f"wrote raw-space cluster analysis to {raw_path}" in capsys.readouterr().out
        save_cluster_analysis(cluster_analysis(data), want_path)
        assert raw_path.read_text().startswith("class,0,1,eccentricity\n")
        assert raw_path.read_bytes() == want_path.read_bytes()

    @pytest.mark.parametrize(
        "label, message",
        [(-1, "{train}: line 3: label -1.0 is negative"), (10**12, "class 1 has no points")],
        ids=["negative", "huge"],
    )
    def test_bad_label_is_clean_error(self, tmp_path, capsys, label, message):
        train_path = tmp_path / "train.csv"
        train_path.write_text(f"0,1.0,2.0\n0,2.0,1.0\n{label},3.0,3.0\n")
        code = run_cli(["classify", "--train", train_path, "--d", 1])
        assert code == 1
        assert f"error: {message.format(train=train_path)}" in capsys.readouterr().err

    def test_per_class_k_below_one_is_clean_error(self, tmp_path, capsys):
        train_path = tmp_path / "train.csv"
        train_path.write_text("0,1.0,2.0\n1,2.0,1.0\n")
        assert run_cli(["classify", "--train", train_path, "--d", 1, "--per-class-k", 0]) == 1
        assert capsys.readouterr().err == "error: per_class_k must be an int >= 1, got 0\n"


class TestExperiment:
    def test_named_experiment_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code = run_cli(
            [
                "experiment", "fig3-sep-vs-n", "--trials", 2, "--seed", 0,
                "--out", out_dir, "--config", self._config(tmp_path),
            ]
        )
        assert code == 0
        report = (out_dir / "fig3-sep-vs-n.csv").read_text()
        assert report.startswith("row_type,n,seed,separation")
        assert "mean" in report

    def _config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"overrides": {"n_values": [50]}}))
        return path

    def test_config_file_alone_names_experiment(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "fig6-ecc-vs-d",
                    "trials": 1,
                    "overrides": {"d_values": [50]},
                }
            )
        )
        assert run_cli(["experiment", "--config", path]) == 0

    def test_no_experiment_named_is_clean_error(self, capsys):
        assert run_cli(["experiment"]) == 1
        assert capsys.readouterr().err == "error: no experiment named (positional argument or config file)\n"

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        code = run_cli(["experiment", "--config", self._bad_config(tmp_path)])
        assert code == 1
        assert "unknown experiment" in capsys.readouterr().err

    def _bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        return path

    def test_config_not_json_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert run_cli(["experiment", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "empty.json: not valid JSON" in err

    def test_config_not_an_object_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(["fig3-sep-vs-n"]))
        assert run_cli(["experiment", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "list.json: expected a JSON object, got list" in err

    def test_unknown_config_key_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"experiment": "pca-collapse", "overides": {"k": 3}, "seed": 5}))
        assert run_cli(["experiment", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: unknown keys ['overides', 'seed']; "
            "a config takes ['experiment', 'trials', 'base_seed', 'overrides']\n"
        )

    def test_threads_below_one_rejected(self, capsys):
        code = run_cli(["experiment", "second-em-compare", "--trials", 1, "--threads", 0])
        assert code == 1
        assert "threads must be an int >= 1, got 0" in capsys.readouterr().err

    def test_threads_for_experiment_without_workers_rejected(self, capsys):
        code = run_cli(["experiment", "fig5-ecc-table", "--trials", 1, "--threads", 2])
        assert code == 1
        err = capsys.readouterr().err
        assert "--threads does not apply to fig5-ecc-table" in err
        assert (
            "['fig3-sep-vs-n', 'fig7-pca-vs-rp', 'fig8-em-compare', "
            "'fig9-digit-sweep', 'second-em-compare']"
        ) in err

    def test_threads_string_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"experiment": "second-em-compare", "overrides": {"threads": "2"}})
        )
        assert run_cli(["experiment", "--config", path]) == 1
        assert "threads must be an int >= 1, got '2'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("trials", "3"), ("base_seed", "x"), ("base_seed", -1), ("overrides", [1])],
    )
    def test_bad_config_value_rejected(self, tmp_path, capsys, field, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "fig3-sep-vs-n", field: value}))
        assert run_cli(["experiment", "--config", path]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["mode", "restriction"])
    def test_unknown_enum_value_in_config_rejected(self, tmp_path, capsys, name):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "fig8-em-compare",
                    "trials": 1,
                    "overrides": {"n_values": [20], name: "nonsense"},
                }
            )
        )
        assert run_cli(["experiment", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: 'nonsense' is not a valid" in err

    def test_override_of_the_wrong_type_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"experiment": "fig3-sep-vs-n", "overrides": {"n_values": "abc"}})
        )
        assert run_cli(["experiment", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: fig3-sep-vs-n: override 'n_values' must" in err
        assert "Traceback" not in err

    def test_data_path_override_that_is_an_int_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "fig9-digit-sweep",
                    "overrides": {"train_path": 987, "test_path": 988},
                }
            )
        )
        assert run_cli(["experiment", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "error: fig9-digit-sweep: override 'train_path' must be a path" in err
        assert "Bad file descriptor" not in err

    def test_help_documents_report_columns(self, capsys):
        try:
            run_cli(["experiment", "--help"])
        except SystemExit:
            pass
        assert "row_type" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
    def test_help_names_every_metric_column(self, capsys, name):
        body, _ = experiments.EXPERIMENTS[name]
        metrics = body(0, **SMALL_RUNS[name]).metric_columns
        with pytest.raises(SystemExit):
            run_cli(["experiment", "--help"])
        text = capsys.readouterr().out
        assert [c for c in metrics if not re.search(rf"\b{c}\b", text)] == []

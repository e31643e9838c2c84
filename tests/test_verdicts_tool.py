"""`tools/verdicts.py` on a fake experiment registry: it writes its file and
exits 1 where a report of one seed depends on the worker count, or, with
`--against`, where a digest or a criterion set differs from an earlier
file's. These tests start no process. The last test, slow, runs the 28 real
reports, whose pooled routes fork workers, and compares their digests with
the committed baseline, `VERDICTS_baseline.json`, where this process has the
baseline's numpy, scipy and OpenBLAS kernels."""

import importlib.util
import json
from pathlib import Path

import pytest

from rpmix import experiments

_SPEC = importlib.util.spec_from_file_location(
    "verdicts", Path(__file__).resolve().parent.parent / "tools" / "verdicts.py"
)
verdicts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verdicts)


def fake_body(rows_of_threads):
    """A body whose one trial row at each seed reads `rows_of_threads(threads)`."""

    def body(base_seed, trials=2, threads=None):
        rows = tuple(
            {"row_type": "trial", "seed": base_seed + t, "value": rows_of_threads(threads)}
            for t in range(trials)
        )
        return experiments.ExperimentReport((), ("value",), rows)

    return body


ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "cores": 2,
               "openblas_threads": [2, 2], "openblas_kernels": ["SkylakeX", "SkylakeX"]}


def run_main(monkeypatch, tmp_path, body, *options):
    monkeypatch.setattr(experiments, "EXPERIMENTS", {"fake": (body, {"threads": None})})
    monkeypatch.setattr(verdicts, "CHECKOUT", tmp_path)
    monkeypatch.setattr(verdicts, "environment", lambda: dict(ENVIRONMENT))
    code = verdicts.main(["--label", "test", *options])
    return code, json.loads((tmp_path / "VERDICTS_test.json").read_text())


def test_report_that_depends_on_the_worker_count_exits_1(monkeypatch, tmp_path, capsys):
    body = fake_body(lambda threads: 1.0 if threads == 1 else 2.0)
    code, document = run_main(monkeypatch, tmp_path, body)
    assert code == 1
    assert sorted(document["digests"]["fake"]) == [
        "seed=0 threads=1", "seed=0 threads=null", "seed=7 threads=1", "seed=7 threads=null",
    ]
    assert capsys.readouterr().err == (
        "fake at seed=0: the report depends on the worker count\n"
        "fake at seed=7: the report depends on the worker count\n"
    )


def test_consistent_reports_exit_0(monkeypatch, tmp_path, capsys):
    code, document = run_main(monkeypatch, tmp_path, fake_body(lambda threads: 1.0))
    assert code == 0
    assert document["trials"] == {"fake": 2}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("digests, splits", [
    ({"a": {"seed=0": "x", "seed=7": "y"}}, []),
    ({"a": {"seed=0 threads=1": "x", "seed=0 threads=null": "x", "seed=7 threads=1": "y",
            "seed=7 threads=null": "z"}}, [("a", "seed=7")]),
], ids=["one-route", "one-seed-split"])
def test_worker_count_splits(digests, splits):
    assert verdicts.worker_count_splits(digests) == splits


def test_against_an_equal_file_exits_0(monkeypatch, tmp_path, capsys):
    body = fake_body(lambda threads: 1.0)
    _, document = run_main(monkeypatch, tmp_path, body)
    earlier = tmp_path / "VERDICTS_earlier.json"
    earlier.write_text(json.dumps(document))
    assert run_main(monkeypatch, tmp_path, body, "--against", str(earlier))[0] == 0
    assert capsys.readouterr().err == ""


def test_against_a_changed_digest_exits_1_and_names_it(monkeypatch, tmp_path, capsys):
    body = fake_body(lambda threads: 1.0)
    _, document = run_main(monkeypatch, tmp_path, body)
    document["digests"]["fake"]["seed=7 threads=1"] = "0" * 64
    earlier = tmp_path / "VERDICTS_earlier.json"
    earlier.write_text(json.dumps(document))
    assert run_main(monkeypatch, tmp_path, body, "--against", str(earlier))[0] == 1
    assert capsys.readouterr().err == f"against {earlier}: fake at seed=7 threads=1: the report digest differs\n"


@pytest.mark.parametrize("changed", [False, True], ids=["same-digests", "changed-digest"])
def test_against_a_file_of_another_setting_names_both_first(monkeypatch, tmp_path, capsys, changed):
    body = fake_body(lambda threads: 1.0)
    _, document = run_main(monkeypatch, tmp_path, body)
    document["environment"]["openblas_kernels"] = ["Haswell", "Haswell"]
    del document["environment"]["scipy"]
    if changed:
        document["digests"]["fake"]["seed=0 threads=null"] = "0" * 64
    earlier = tmp_path / "VERDICTS_earlier.json"
    earlier.write_text(json.dumps(document))
    assert run_main(monkeypatch, tmp_path, body, "--against", str(earlier))[0] == int(changed)
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == (
        f'against {earlier}: made on numpy "2.4.6", scipy null, openblas_kernels ["Haswell", "Haswell"]; '
        'this run on numpy "2.4.6", scipy "1.17.1", openblas_kernels ["SkylakeX", "SkylakeX"]'
    )
    assert lines[1:] == ([f"against {earlier}: fake at seed=0 threads=null: the report digest differs"]
                         if changed else [])


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name"),
    ('["digests"]', "is not a VERDICTS file"),
], ids=["missing", "not-json", "no-digests"])
def test_against_a_file_that_is_no_verdicts_file_ends_before_any_sweep(
        monkeypatch, tmp_path, capsys, text, message):
    earlier = tmp_path / "VERDICTS_earlier.json"
    if text is not None:
        earlier.write_text(text)
    monkeypatch.setattr(verdicts, "CHECKOUT", tmp_path)
    monkeypatch.setattr(verdicts, "report_digests", lambda: pytest.fail("a sweep ran"))
    with pytest.raises(SystemExit) as exit_:
        verdicts.main(["--label", "test", "--against", str(earlier)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert str(earlier) in err and message in err
    assert not (tmp_path / "VERDICTS_test.json").exists()


def test_differences_compare_criteria_set_for_set():
    one = {"base_seed": 0, "ok": True, "stats": {"x": 1.5}, "line": "[criterion 1] PASS"}
    document = {"digests": {}, "criteria": {"criterion 1": {"sets": [one, dict(one, ok=False)]}}}
    against = {"digests": {}, "criteria": {"criterion 1": {"sets": [one, one, one]}}}
    assert verdicts.differences(document, against) == ["criterion 1 set 1: the verdict set differs"]
    # No criteria part in one of them: only the digests are compared.
    assert verdicts.differences({"digests": {}}, against) == []


@pytest.mark.slow
def test_reports_equal_the_baseline():
    # Reports replay byte for byte on one setting; on another, the baseline
    # says nothing about this checkout's reports.
    baseline = json.loads((verdicts.CHECKOUT / "VERDICTS_baseline.json").read_text())
    ours, theirs = verdicts.setting(verdicts.environment()), verdicts.setting(baseline["environment"])
    if ours != theirs:
        pytest.skip(f"VERDICTS_baseline.json was made on {theirs}; this process runs {ours}")
    digests, _ = verdicts.report_digests()
    assert verdicts.differences({"digests": digests}, baseline) == []

"""`tools/bench.py` without a benchmark run: its summary of hand-made runs,
and a run that times out. No test here starts a process."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def paired_runs(base, change, name="m"):
    """The runs `main` records for one metric read `base[p]` and `change[p]`
    in pair p, the base first in even pairs and the change first in odd ones."""
    runs = []
    for pair, values in enumerate(zip(base, change)):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for position, side in enumerate(order):
            runs.append({"pair": pair, "side": side, "first": position == 0, "correct": True,
                         "metrics": {name: values[side == "change"]}})
    return runs


BASE = [10.0, 14.0, 12.0, 11.0, 13.0]
CHANGE = [13.0, 17.0, 15.0, 14.0, 16.0]  # 3 above the base in every pair


def test_summary_of_a_higher_metric():
    entry = bench.summary(paired_runs(BASE, CHANGE), {"m": "higher"})["m"]
    assert entry["base"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert entry["change"] == {"q1": 14.0, "median": 15.0, "q3": 16.0}
    assert entry["pairs"] == 5 and entry["wins"] == 5
    assert entry["second_wins"] == 3  # pairs 0, 2 and 4, where the change went second
    assert entry["median_gain_beyond_base_iqr"] is True  # 3 > 13 - 11


def test_summary_of_a_lower_metric():
    entry = bench.summary(paired_runs(BASE, CHANGE), {"m": "lower"})["m"]
    assert entry["better"] == "lower"
    assert entry["pairs"] == 5 and entry["wins"] == 0
    assert entry["second_wins"] == 2  # pairs 1 and 3, where the base went second
    assert entry["median_gain_beyond_base_iqr"] is False


def test_summary_gain_within_the_base_iqr_is_not_beyond_it():
    change = [b + 2.0 for b in BASE]
    entry = bench.summary(paired_runs(BASE, change), {"m": "higher"})["m"]
    assert entry["wins"] == 5 and entry["median_gain_beyond_base_iqr"] is False  # 2 = 13 - 11


def test_summary_without_a_direction_has_only_quartiles():
    entry = bench.summary(paired_runs(BASE, CHANGE), {})["m"]
    assert entry == {"better": None, "base": {"q1": 11.0, "median": 12.0, "q3": 13.0},
                     "change": {"q1": 14.0, "median": 15.0, "q3": 16.0}}


def test_summary_leaves_out_a_metric_read_once_on_a_side():
    runs = paired_runs(BASE[:2], CHANGE[:2])
    runs[0]["metrics"] = {}  # pair 0's base run read nothing
    assert bench.summary(runs, {"m": "higher"}) == {}


def _timeout(cmd, **kwargs):
    raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])


def test_run_that_times_out_is_not_correct(monkeypatch):
    monkeypatch.setattr(bench.subprocess, "run", _timeout)
    assert bench.run_once(Path("root"), "w", 1) == {
        "correct": False, "metrics": {}, "stderr": "timed out after 600 s"
    }


def test_timed_out_run_keeps_the_other_pairs(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "work_per_s", "better": "higher"}],
        "per_layer": [],
    }))
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs["cwd"])
        if len(calls) == 1:
            _timeout(cmd, **kwargs)
        line = json.dumps({"correct": True, "metrics": {"work_per_s": {"value": float(len(calls))}}})
        return subprocess.CompletedProcess(cmd, 0, stdout=f"log\n{line}\n", stderr="")

    monkeypatch.setattr(bench, "CHECKOUT", tmp_path)
    monkeypatch.setattr(bench, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--ab", "base", "--label", "t", "--pairs", "3"])
    assert bench.main() == 1
    document = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = document["workloads"]["w"]["runs"]
    assert len(runs) == 6 and len(calls) == 6
    assert runs[0] == {"pair": 0, "side": "base", "first": True, "correct": False, "metrics": {},
                       "stderr": "timed out after 600 s"}
    assert all(r["correct"] for r in runs[1:])
    assert document["workloads"]["w"]["summary"]["work_per_s"]["pairs"] == 2
    assert capsys.readouterr().out.endswith("runs not correct: [('w', 0, 'base')]\n")


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_fewer_than_two_pairs_is_a_usage_error(monkeypatch, pairs):
    monkeypatch.setattr(sys, "argv", ["bench.py", "--ab", "base", "--label", "t", "--pairs", pairs])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 2

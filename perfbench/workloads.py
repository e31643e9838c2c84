"""The four benchmark workloads: which sweep each runs and how its report is read.

Every workload is a closed loop of experiment sweeps driven through the same
path as `rpmix experiment --config`: `experiments.run(ExperimentConfig(...))`
followed by `ExperimentReport.to_csv`. A run does a fixed amount of work for a
given seed and `--seconds`: the number of sweeps is `--seconds` divided by the
nominal sweep time measured on the reference machine (2 cores, default
OpenBLAS threading, the seed commit). Fixed work keeps the report digests and
exact counts identical between runs of the same code, and lets two commits be
compared on the same trials.

This module imports nothing from rpmix at import time, so the benchmark can
fail cleanly in a directory that has no program.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# Sweep i of a run with seed s uses base_seed s * SEED_STRIDE + i * trials, so
# runs with different seeds never share a trial.
SEED_STRIDE = 100_000

EM_METRICS = (
    "reg_success", "reg_iterations", "reg_test_loglik", "reg_failed",
    "rp_success", "rp_low_iterations", "rp_test_loglik", "rp_failed",
    "exact_match", "rp_beats",
)

# Work of one em_compare_trial, in passes over the n-dimensional training or
# test data, read from its report row:
# - plain EM that stops after I iterations runs I + 1 E-steps and I M-steps,
#   then one E-step over the test set: 2I + 2 passes;
# - the hybrid runs EM in the projected space (I_low + 1 E-steps, I_low
#   M-steps, then one E-step for the lift), each pass there counting d/n of a
#   full pass, then the lifting M-step, one E/M step, a final E-step and one
#   test E-step: 5 full passes.
# A failed fit completes no passes; its time counts as wasted.
HYBRID_PASSES = 5
PROJECTED_DIM = 25  # the experiments' default d for the hybrid


def em_passes(row) -> float:
    passes = 0.0
    if row["reg_failed"] == "0":
        passes += 2 * int(row["reg_iterations"]) + 2
    if row["rp_failed"] == "0":
        low = 2 * int(row["rp_low_iterations"]) + 2
        passes += HYBRID_PASSES + low * PROJECTED_DIM / int(row["n"])
    return passes


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    overrides: dict
    trials: int  # trials per sweep
    nominal_sweep_s: float  # mean sweep time on the reference machine
    groups: tuple  # report group columns
    metrics: tuple  # report metric columns
    rows_per_trial: int  # trial rows each trial writes
    work_unit: str
    digit_inputs: bool = False

    def sweeps(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_sweep_s))

    def base_seeds(self, seed: int, seconds: float):
        return [seed * SEED_STRIDE + i * self.trials for i in range(self.sweeps(seconds))]

    def work(self, rows) -> float:
        """Work units completed by the trial rows of one report."""
        if self.work_unit == "pass":
            return sum(em_passes(r) for r in rows)
        return len(rows) // self.rows_per_trial

    def counts(self, rows) -> dict:
        """Exact counts summed over the trial rows of one EM report."""
        if self.metrics != EM_METRICS:
            return {}
        cols = ("reg_iterations", "rp_low_iterations", "reg_failed", "rp_failed")
        return {col: sum(int(r[col]) for r in rows) for col in cols}

    def quality(self, rows) -> dict:
        """Output-quality figures; deterministic for a given seed."""
        if self.metrics == EM_METRICS:
            count = len(rows)
            mean = lambda col: sum(int(r[col]) for r in rows) / count
            return {
                "quality.reg_success_rate": mean("reg_success"),
                "quality.rp_success_rate": mean("rp_success"),
                "quality.rp_beat_rate": mean("rp_beats"),
                "quality.fit_fail_rate": (mean("reg_failed") + mean("rp_failed")) / 2,
            }
        if self.metrics == ("accuracy",):
            return {"quality.accuracy": sum(float(r["accuracy"]) for r in rows) / len(rows)}
        pca = [float(r["separation"]) for r in rows if r["method"] == "pca"]
        rp = [float(r["separation"]) for r in rows if r["method"] == "rp"]
        return {"quality.pca_sep_max": max(pca), "quality.rp_sep_min": min(rp)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="em-shared-200",
            experiment="fig8-em-compare",
            overrides={"n_values": [200]},
            trials=2,
            nominal_sweep_s=6.3,
            groups=("n",),
            metrics=EM_METRICS,
            rows_per_trial=1,
            work_unit="pass",
        ),
        Workload(
            name="em-distinct-100",
            experiment="second-em-compare",
            overrides={"n": 100},
            trials=10,
            nominal_sweep_s=6.4,
            groups=("n",),
            metrics=EM_METRICS,
            rows_per_trial=1,
            work_unit="pass",
        ),
        Workload(
            name="classify-digits-40",
            experiment="fig9-digit-sweep",
            overrides={"d_values": [40]},
            trials=4,
            nominal_sweep_s=4.3,
            groups=("d",),
            metrics=("accuracy",),
            rows_per_trial=1,
            work_unit="trial",
            digit_inputs=True,
        ),
        Workload(
            name="geometry-pca-rp",
            experiment="fig7-pca-vs-rp",
            overrides={},
            trials=100,
            nominal_sweep_s=3.5,
            groups=("method", "i", "j"),
            metrics=("separation",),
            # fig7 defaults: k = 5, one row per pair for each of pca and rp
            rows_per_trial=2 * math.comb(5, 2),
            work_unit="trial",
        ),
    )
}


def make_inputs(workload: Workload, seed: int, workdir) -> list:
    """Generate the workload's input files and return their paths.

    Only classify-digits-40 has files: label-first CSVs of the surrogate digit
    data for `seed`. The other workloads' only input is the seed itself.
    """
    if not workload.digit_inputs:
        return []
    from rpmix.classifier import save_labeled
    from rpmix.experiments import surrogate_digit_data

    paths = [workdir / "train.csv", workdir / "test.csv"]
    for path, data in zip(paths, surrogate_digit_data(seed)):
        save_labeled(data, path)
    return paths


def configs(workload: Workload, seed: int, seconds: float, workdir):
    """The sweeps of one run, in order, as ExperimentConfig objects."""
    from rpmix.experiments import ExperimentConfig

    overrides = dict(workload.overrides)
    if workload.digit_inputs:
        overrides["train_path"] = str(workdir / "train.csv")
        overrides["test_path"] = str(workdir / "test.csv")
    return [
        ExperimentConfig(
            experiment=workload.experiment,
            trials=workload.trials,
            base_seed=base,
            overrides=dict(overrides),
        )
        for base in workload.base_seeds(seed, seconds)
    ]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

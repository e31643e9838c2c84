"""Output checks on one report CSV, made outside the timed region.

The report must re-parse, carry exactly the trial rows the sweep asked for,
and its aggregate rows must recompute from its trial rows. Failed fits must
carry a -inf test log-likelihood and no success.
"""

from __future__ import annotations

import csv
import math

import numpy as np

AGGREGATE_STATS = ("mean", "sd", "min", "max", "median")
FLOAT_FMT = "%.17g"


def _stat(stat, vals):
    # Same arithmetic as the report writer, so equal inputs give equal bytes.
    with np.errstate(invalid="ignore"):
        if stat == "mean":
            return float(vals.mean())
        if stat == "sd":
            return float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        if stat == "min":
            return float(vals.min())
        if stat == "max":
            return float(vals.max())
        return float(np.median(vals))


def check_report(path, workload, base_seed):
    """Returns (problems, trial rows as dicts). No problems means correct."""
    problems = []
    with open(path, newline="") as f:
        table = list(csv.reader(f))
    header = ["row_type", *workload.groups, "seed", *workload.metrics]
    if not table or table[0] != header:
        return [f"header {table[0] if table else None} != {header}"], []
    width = len(header)
    ragged = [i for i, r in enumerate(table) if len(r) != width]
    if ragged:
        return [f"rows {ragged[:5]} do not have {width} fields"], []
    records = [dict(zip(header, r)) for r in table[1:]]
    trials = [r for r in records if r["row_type"] == "trial"]
    aggregates = [r for r in records if r["row_type"] != "trial"]

    expected = workload.trials * workload.rows_per_trial
    if len(trials) != expected:
        problems.append(f"{len(trials)} trial rows, expected {expected}")
    seeds = {int(r["seed"]) for r in trials}
    wanted = set(range(base_seed, base_seed + workload.trials))
    if seeds != wanted:
        problems.append(f"trial seeds {sorted(seeds)} != {sorted(wanted)}")

    groups = {}
    for r in trials:
        groups.setdefault(tuple(r[c] for c in workload.groups), []).append(r)
    if len(aggregates) != len(AGGREGATE_STATS) * len(groups):
        problems.append(f"{len(aggregates)} aggregate rows for {len(groups)} groups")
    for agg in aggregates:
        key = tuple(agg[c] for c in workload.groups)
        if key not in groups or agg["row_type"] not in AGGREGATE_STATS:
            problems.append(f"aggregate row {agg['row_type']} {key} has no group")
            continue
        for col in workload.metrics:
            vals = np.array([float(r[col]) for r in groups[key]])
            want = FLOAT_FMT % _stat(agg["row_type"], vals)
            if agg[col] != want:
                problems.append(f"{agg['row_type']} {col} {key}: {agg[col]} != {want}")

    for r in trials:
        problems.extend(_check_trial(r, workload.metrics))
    return problems, trials


def _check_trial(row, metrics):
    problems = []
    if "reg_failed" in metrics:
        for side in ("reg", "rp"):
            failed = row[f"{side}_failed"]
            loglik = float(row[f"{side}_test_loglik"])
            if failed == "1" and (loglik != -math.inf or row[f"{side}_success"] != "0"):
                problems.append(f"seed {row['seed']}: failed {side} fit has loglik {loglik}")
            if failed == "0" and not math.isfinite(loglik):
                problems.append(f"seed {row['seed']}: {side} fit has loglik {loglik}")
        for col in ("reg_success", "reg_failed", "rp_success", "rp_failed", "exact_match", "rp_beats"):
            if row[col] not in ("0", "1"):
                problems.append(f"seed {row['seed']}: {col} = {row[col]}")
    if "accuracy" in metrics and not 0.0 <= float(row["accuracy"]) <= 1.0:
        problems.append(f"seed {row['seed']}: accuracy {row['accuracy']}")
    if "separation" in metrics:
        sep = float(row["separation"])
        if not (math.isfinite(sep) and sep > 0.0):
            problems.append(f"seed {row['seed']}: separation {sep}")
    return problems

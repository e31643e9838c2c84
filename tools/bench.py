"""Paired benchmark runs of a base revision against the working tree, in one
file at the root of the checkout.

    python3 tools/bench.py --ab REV --label L [--pairs N] [--workload W ...] [--seed S]

exports the committed files of REV (`git archive`) into a temporary
directory, removed on exit, also on error. For each workload (default: every
workload of BENCHMARK.json) it then runs N pairs (default 10) of the
unchanged `perfbench/run.py --seconds 25 --trace 0` at seed S (default 1):
one run from REV's files and one from this checkout, each in a fresh
process, the base first in even pairs and the change first in odd ones. It
reads each run's last stdout line and writes BENCH_<L>.json with:

- "runs": every run's pair, side, order, `correct` and end-to-end metrics;
- "summary": per workload and metric, each side's median and quartiles, the
  change's wins over the base in its pairs, with the direction taken from
  BENCHMARK.json's `better`, the pairs in which the run that went second
  read better whichever tree it was (`second_wins`, the order effect), and
  whether the medians lie further apart than the base's quartiles;
- "environment": `rpmix._blas.environment()`, read before any run.

A run that times out (after 600 s) is recorded as not `correct`, and the
pairs go on. It exits 1 if any run is not `correct`, after writing the file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from rpmix._blas import environment  # noqa: E402

SECONDS = 25
RUN_TIMEOUT_S = 600


def export(rev, into):
    """The committed files of `rev`, written under `into`; its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=CHECKOUT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=CHECKOUT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_once(root, workload, seed):
    """The last stdout line of one benchmark run from the checkout `root`, as
    a dict; a run that prints no JSON line, or times out, is not correct."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "metrics": {}, "stderr": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}


def summary(runs, better):
    """Per metric: each side's median and quartiles, the change's wins over
    the base in its pairs, the second run's wins over the first in them, and
    whether the medians lie further apart than the base's quartiles. A metric
    that either side read in fewer than two runs has no quartiles and is left
    out."""
    values = {}
    second = {run["pair"]: run["side"] for run in runs if not run["first"]}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault(name, {}).setdefault(run["side"], {})[run["pair"]] = metric
    out = {}
    for name, sides in sorted(values.items()):
        if set(sides) != {"base", "change"} or min(map(len, sides.values())) < 2:
            continue
        entry = {"better": better.get(name)}
        for side, by_pair in sides.items():
            q1, median, q3 = statistics.quantiles(by_pair.values(), n=4, method="inclusive")
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        if entry["better"] is not None:
            sign = 1 if entry["better"] == "higher" else -1
            pairs = sorted(set(sides["base"]) & set(sides["change"]))
            entry["pairs"] = len(pairs)
            gains = {p: sign * (sides["change"][p] - sides["base"][p]) for p in pairs}
            entry["wins"] = sum(gain > 0 for gain in gains.values())
            entry["second_wins"] = sum(
                gain > 0 if second[p] == "change" else gain < 0 for p, gain in gains.items()
            )
            base = entry["base"]
            gap = sign * (entry["change"]["median"] - base["median"])
            entry["median_gain_beyond_base_iqr"] = gap > base["q3"] - base["q1"]
        out[name] = entry
    return out


def main():
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ab", required=True, metavar="REV", help="the base revision")
    parser.add_argument("--label", required=True, help="names the file: BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10, metavar="N")
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    document = {"base": None, "seed": args.seed, "seconds": SECONDS, "pairs": args.pairs,
                "environment": environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="rpmix-bench-") as tmp:
        base_root = Path(tmp)
        document["base"] = export(args.ab, base_root)
        for workload in args.workload or names:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    result = run_once(base_root if side == "base" else CHECKOUT, workload, args.seed)
                    metrics = {k: m["value"] for k, m in result["metrics"].items()}
                    runs.append({"pair": pair, "side": side, "first": position == 0,
                                 "correct": result["correct"] is True, "metrics": metrics,
                                 **({"stderr": result["stderr"]} if "stderr" in result else {})})
                    print(f"{workload} pair {pair} {side}: correct={result['correct']} "
                          f"work_per_s={metrics.get('work_per_s')}", flush=True)
            document["workloads"][workload] = {"runs": runs, "summary": summary(runs, better)}
    out = CHECKOUT / f"BENCH_{args.label}.json"
    with open(out, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")
    bad = [(w, r["pair"], r["side"]) for w, part in document["workloads"].items()
           for r in part["runs"] if not r["correct"]]
    print(f"wrote {out}" + (f"; runs not correct: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

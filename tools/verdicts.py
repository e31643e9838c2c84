"""Report digests, verdict distributions and the environment, in one file at
the root of the checkout.

    python3 tools/verdicts.py --label L [--sets K]

writes VERDICTS_<L>.json from the program's sources under src/, in up to
three parts:

- "digests": the sha256 of every experiment's report at small fixed trial
  counts. Each of the nine registered experiments runs through
  `experiments.run(...).to_csv` at base seeds 0 and 7, with two trials
  (pca-collapse at its default), and with a `threads` override of 1 and of
  None (one worker per core) where its body takes one: 28 reports. Reports
  depend on neither the worker count nor the BLAS thread count, so the
  digests of two files from one commit should be equal, and within a file
  every report of one seed should have one digest. A change that keeps
  every report's bytes keeps this part's bytes.
- "environment": the Python, numpy and scipy versions, the cores in the
  affinity mask and each mapped OpenBLAS's thread count, read before any
  sweep (`rpmix._blas.environment`).
- "criteria", with `--sets K` for K >= 1: each acceptance criterion of
  `tests/criteria.py` at K base seeds, with its gated statistics, verdict
  and line at each, and the pass count. Set i is at the criterion's Tier-1
  seed plus i times its trial count (`criteria.CRITERIA`), so set 0 gives
  the `[criterion N]` lines of the Tier-1 run. Ten sets took 2 min 41 s on
  two cores.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(CHECKOUT / "tests"))

import criteria  # noqa: E402
from rpmix import experiments  # noqa: E402
from rpmix._blas import environment  # noqa: E402

SEEDS = (0, 7)
TRIALS = 2


def report_digests():
    """{experiment: {"seed=S[ threads=T]": sha256 of its report}}, and the
    trial count of each experiment, None for its body's default."""
    digests, trials = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        for name, (_, allowed) in experiments.EXPERIMENTS.items():
            # pca-collapse keeps its body's default: one trial of 10000 points.
            trials[name] = None if name == "pca-collapse" else TRIALS
            routes = {"": {}}
            if "threads" in allowed:
                routes = {f" threads={json.dumps(t)}": {"threads": t} for t in (1, None)}
            digests[name] = {}
            for seed in SEEDS:
                for suffix, overrides in routes.items():
                    config = experiments.ExperimentConfig(name, trials[name], seed, overrides)
                    experiments.run(config).to_csv(path)
                    digests[name][f"seed={seed}{suffix}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests, trials


def verdict_sets(sets):
    """{"criterion N": {"trials": T, "passed": count, "sets": [...]}}, each set
    with its base seed, verdict, gated statistics and line."""
    out = {}
    for num, (_, trials) in criteria.CRITERIA.items():
        runs = []
        for i in range(sets):
            base_seed, ok, stats, line = criteria.run(num, i)
            runs.append({"base_seed": base_seed, "ok": bool(ok), "stats": stats, "line": line})
            print(line, flush=True)
        passed = sum(run["ok"] for run in runs)
        out[f"criterion {num}"] = {"trials": trials, "passed": passed, "sets": runs}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file: VERDICTS_<label>.json")
    parser.add_argument(
        "--sets", type=int, default=0, metavar="K",
        help="run each acceptance criterion at K base seeds (default 0: none)",
    )
    args = parser.parse_args()
    if args.sets < 0:
        parser.error(f"--sets must be >= 0, got {args.sets}")
    env = environment()
    digests, trials = report_digests()
    document = {"digests": digests, "trials": trials, "environment": env}
    if args.sets:
        document["criteria"] = verdict_sets(args.sets)
    out = CHECKOUT / f"VERDICTS_{args.label}.json"
    with open(out, "w") as f:
        # A statistic may be a numpy scalar.
        json.dump(document, f, indent=1, default=lambda value: value.item())
        f.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} report digests to {out}")


if __name__ == "__main__":
    main()

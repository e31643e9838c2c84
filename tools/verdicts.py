"""Report digests, verdict distributions and the environment, in one file at
the root of the checkout.

    python3 tools/verdicts.py --label L [--sets K] [--against VERDICTS_<B>.json]

writes VERDICTS_<L>.json from the program's sources under src/, in up to
three parts:

- "digests": the sha256 of every experiment's report at small fixed trial
  counts. Each of the nine registered experiments runs through
  `experiments.run(...).to_csv` at base seeds 0 and 7, with two trials
  (pca-collapse at its default), and with a `threads` override of 1 and of
  None (one worker per core) where its body takes one: 28 reports. Reports
  depend on neither the worker count nor the BLAS thread count, so the
  digests of two files from one commit should be equal, and within a file
  every report of one seed should have one digest: where it has two, the
  tool exits 1, after writing the file, and names the experiment and the
  seed. A change that keeps every report's bytes keeps this part's bytes.
- "environment": the Python, numpy and scipy versions, the cores in the
  affinity mask and each mapped OpenBLAS's thread count and kernel, read
  before any sweep (`rpmix._blas.environment`). Reports replay byte for byte
  on one setting: one numpy, one scipy and one kernel per OpenBLAS.
- "criteria", with `--sets K` for K >= 1: each acceptance criterion of
  `tests/criteria.py` at K base seeds, with its gated statistics, verdict
  and line at each, and the pass count. Set i is at the criterion's Tier-1
  seed plus i times its trial count (`criteria.CRITERIA`), so set 0 gives
  the `[criterion N]` lines of the Tier-1 run. Ten sets of the nine
  criteria took 2 min 50 s on two cores.

With `--against FILE`, the file written is compared with FILE, an earlier
VERDICTS file: each report whose digest differs from FILE's (or that only
one of the two holds) is named, and when both files have a criteria part,
so is each set, at an index both hold, that differs. Any difference exits
1, after writing the file. Where FILE was made on another setting, one line
names both settings first. A FILE that cannot be read as a VERDICTS file is
an error before any sweep.

`VERDICTS_baseline.json` at the root is the committed baseline, made with
`--label baseline --sets 10`. A change that moves a report rewrites it in
the same commit; tests/test_verdicts_tool.py compares this checkout's
digests with it whenever the setting is the baseline's.
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
# The entries of an environment block that a report's bytes depend on.
SETTING = ("numpy", "scipy", "openblas_kernels")


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


def worker_count_splits(digests):
    """(experiment, "seed=S") of every seed whose reports in `digests` have
    more than one digest across their worker counts."""
    return [
        (name, seed)
        for name, runs in digests.items()
        for seed in dict.fromkeys(key.split()[0] for key in runs)
        if len({digest for key, digest in runs.items() if key.split()[0] == seed}) > 1
    ]


def setting(environment):
    """The numpy and scipy versions and the OpenBLAS kernels of an
    environment block, as one line; null where the block lacks one."""
    return ", ".join(f"{key} {json.dumps(environment.get(key))}" for key in SETTING)


def differences(document, against):
    """A line for each report whose digest differs between the VERDICTS
    documents `document` and `against`, and, when both have a criteria part,
    for each criterion set at an index both hold that differs."""
    lines = []
    ours, theirs = document["digests"], against["digests"]
    for name in sorted(ours.keys() | theirs.keys()):
        runs, other = ours.get(name, {}), theirs.get(name, {})
        lines += [f"{name} at {key}: the report digest differs"
                  for key in sorted(runs.keys() | other.keys()) if runs.get(key) != other.get(key)]
    if "criteria" in document and "criteria" in against:
        ours, theirs = document["criteria"], against["criteria"]
        for name in sorted(ours.keys() | theirs.keys()):
            sets = zip(ours.get(name, {}).get("sets", []), theirs.get(name, {}).get("sets", []))
            lines += [f"{name} set {i}: the verdict set differs" for i, (a, b) in enumerate(sets) if a != b]
    return lines


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file: VERDICTS_<label>.json")
    parser.add_argument(
        "--sets", type=int, default=0, metavar="K",
        help="run each acceptance criterion at K base seeds (default 0: none)",
    )
    parser.add_argument(
        "--against", type=Path, metavar="FILE",
        help="compare the file written with this earlier VERDICTS file; exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    if args.sets < 0:
        parser.error(f"--sets must be >= 0, got {args.sets}")
    against = None
    if args.against is not None:
        try:
            against = json.loads(args.against.read_text())
        except (OSError, ValueError) as error:
            parser.error(f"--against: cannot read {args.against}: {error}")
        if not isinstance(against, dict) or not isinstance(against.get("digests"), dict):
            parser.error(f"--against: {args.against} is not a VERDICTS file: it has no digests part")
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
    splits = worker_count_splits(digests)
    for name, seed in splits:
        print(f"{name} at {seed}: the report depends on the worker count", file=sys.stderr)
    changed = []
    if against is not None:
        ours, theirs = setting(env), setting(against.get("environment", {}))
        if ours != theirs:
            print(f"against {args.against}: made on {theirs}; this run on {ours}", file=sys.stderr)
        # The file is read back, so that both sides are what JSON holds.
        changed = differences(json.loads(out.read_text()), against)
    for line in changed:
        print(f"against {args.against}: {line}", file=sys.stderr)
    return 1 if splits or changed else 0


if __name__ == "__main__":
    sys.exit(main())

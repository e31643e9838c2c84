"""Report digests: the sha256 of every experiment's report at small fixed
trial counts, in one file at the root of the checkout.

    python3 tools/verdicts.py --label L

writes VERDICTS_<L>.json from the program's sources under src/. Each of
the nine registered experiments runs through `experiments.run(...).to_csv`
at base seeds 0 and 7, with two trials (pca-collapse at its default), and
with a `threads` override of 1 and of None (one worker per core) where its
body takes one: 28 reports. Reports depend on neither the worker count nor
the BLAS thread count, so two files from one commit should be equal, and
within a file every report of one seed should have one digest. A change
that keeps every report's bytes keeps this file's bytes.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

from rpmix import experiments  # noqa: E402

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file: VERDICTS_<label>.json")
    args = parser.parse_args()
    digests, trials = report_digests()
    out = CHECKOUT / f"VERDICTS_{args.label}.json"
    with open(out, "w") as f:
        json.dump({"digests": digests, "trials": trials}, f, indent=1)
        f.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} report digests to {out}")


if __name__ == "__main__":
    main()

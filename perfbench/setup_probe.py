"""One set-up sample: import rpmix and make a workload's inputs, timed.

run.py starts this in a fresh process for every sample, so each one pays the
full import. It prints one JSON line: {"setup_s": ..., "inputs": {name: sha256}}.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import rpmix.experiments  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS, make_inputs, sha256_file

    paths = make_inputs(WORKLOADS[args.workload], args.seed, args.workdir)
    setup_s = time.perf_counter() - START
    print(json.dumps({"setup_s": setup_s, "inputs": {p.name: sha256_file(p) for p in paths}}))


if __name__ == "__main__":
    main()

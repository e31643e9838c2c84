"""rpmix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload em-shared-200 --seed 1 --seconds 25 --trace 0

Run it from anywhere; it works on the checkout that holds this file and uses
the program's sources under src/ as they are (there is nothing to build).

A run measures set-up in fresh processes (the median of SETUP_SAMPLES), then
runs the workload's sweeps one after another in this process, with no
`threads` override, so the program's default parallelism and the default BLAS
environment are what is measured. Every report is checked after the timed loop.
With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 each sweep runs again right after itself with every layer function
wrapped (see layertrace.py), and the last line holds the per-layer metrics.
Environment, digests, trial counts and layer shares go to the lines before it
and to .perfbench_out/<workload>-seed<seed>-trace<trace>.json; spans of a
traced run go beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_report
from layertrace import LAYER_NAMES, ROOT as TRACE_ROOT, Tracer
from workloads import WORKLOADS, configs, sha256_file

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench_out"
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
# OpenBLAS symbol (prefix, suffix) pairs: numpy's and scipy's wheels rename them.
BLAS_SYMBOLS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

QUALITY = (
    "quality.reg_success_rate", "quality.rp_success_rate", "quality.rp_beat_rate",
    "quality.fit_fail_rate", "quality.accuracy", "quality.pca_sep_max",
    "quality.rp_sep_min",
)


@dataclasses.dataclass
class Sweep:
    base_seed: int
    wall_s: float
    stolen_s: float
    trials: int
    path: Path | None = None  # None when the sweep raised
    rows: list = dataclasses.field(default_factory=list)
    work: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)
    digest: str = ""
    problems: list = dataclasses.field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rpmix benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed, workdir):
    """Set-up times of SETUP_SAMPLES fresh processes, and their input digests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    samples, inputs = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
             "--seed", str(seed), "--workdir", str(workdir)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(result["setup_s"])
        inputs.append(result["inputs"])
    return samples, inputs


def run_sweeps(workload, cfgs, workdir, tracer=None):
    """Closed loop: one sweep at a time, each timed from run() to to_csv().

    With a tracer, each sweep runs a second time right after the first, traced
    and in-process, so that both runs of a sweep see the same machine state.
    Returns the untraced sweeps, the traced sweeps and the CPU seconds (self
    and children) of the untraced ones.
    """
    from rpmix import experiments

    plain, traced, cpu_s = [], [], 0.0
    for i, cfg in enumerate(cfgs):
        cpu0 = cpu_seconds()
        plain.append(_sweep(experiments, cfg, workdir / f"untraced-{i}.csv"))
        cpu_s += cpu_seconds() - cpu0
        if tracer is None:
            continue
        if "threads" in experiments.EXPERIMENTS[cfg.experiment][1]:
            cfg = dataclasses.replace(cfg, overrides={**cfg.overrides, "threads": 1})
        tracer.install()
        try:
            traced.append(_sweep(experiments, cfg, workdir / f"traced-{i}.csv"))
        finally:
            tracer.uninstall()
    for sweep in plain + traced:
        if sweep.path is None:
            continue
        sweep.problems, sweep.rows = check_report(sweep.path, workload, sweep.base_seed)
        sweep.work = workload.work(sweep.rows)
        sweep.counts = workload.counts(sweep.rows)
        sweep.digest = sha256_file(sweep.path)
    return plain, traced, cpu_s


def _sweep(experiments, cfg, path):
    stolen, start = stolen_s(), time.perf_counter()
    try:
        experiments.run(cfg).to_csv(path)
    except Exception:
        traceback.print_exc()
        path = None
    wall = time.perf_counter() - start
    return Sweep(cfg.base_seed, wall, stolen_s() - stolen, cfg.trials, path)


def stolen_s():
    """CPU time the hypervisor gave to other guests, summed over all CPUs.

    This is the `steal` column of /proc/stat. On a shared virtual machine it
    comes in bursts that stall the sweep for as long as they last. It is
    subtracted from the sweep wall time, so that host load does not show as
    a change in the program. Where the counter is missing it reads 0.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def environment():
    import ctypes

    import numpy
    import scipy

    def call(lib, names, restype):
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                return fn()
        return None

    blas = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            threads = call(lib, [f"{p}openblas_get_num_threads{s}" for p, s in BLAS_SYMBOLS],
                           ctypes.c_int)
            config = call(lib, [f"{p}openblas_get_config{s}" for p, s in BLAS_SYMBOLS],
                          ctypes.c_char_p)
            blas.append({"package": pkg.__name__, "library": path.name,
                         "threads": threads,
                         "config": config.decode() if config else None})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def quality(workload, sweeps):
    rows = [r for s in sweeps for r in s.rows]
    found = workload.quality(rows) if rows else {}
    return {name: found.get(name, 0.0) for name in QUALITY}


def unstolen_s(sweeps):
    return sum(s.wall_s - s.stolen_s for s in sweeps)


def trials_per_s(sweeps):
    return sum(s.trials for s in sweeps) / sum(s.wall_s for s in sweeps)


def run(workload, args, workdir):
    samples, inputs = measure_setup(workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    env = environment()
    problems = []
    if any(i != inputs[0] for i in inputs):
        problems.append(f"set-up made different inputs for one seed: {inputs}")

    cfgs = configs(workload, args.seed, args.seconds, workdir)
    tracer = Tracer() if args.trace else None
    sweeps, traced, cpu_s = run_sweeps(workload, cfgs, workdir, tracer)
    cpu_util = cpu_s / sum(s.wall_s for s in sweeps) / os.cpu_count()

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": samples,
        "inputs": inputs[0], "work_unit": workload.work_unit,
    }
    if args.trace == 0:
        lost = sum(s.trials for s in sweeps if s.path is None)
        metrics = {
            "work_per_s": (sum(s.work for s in sweeps) / unstolen_s(sweeps), "1/s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "trial_ok_rate": (1.0 - lost / sum(s.trials for s in sweeps), "ratio"),
        }
    else:
        from rpmix import experiments

        for plain, wrapped in zip(sweeps, traced):
            if plain.digest != wrapped.digest:
                problems.append(f"traced report for base seed {plain.base_seed} differs")
        traced_wall = sum(s.wall_s for s in traced)
        layer = tracer.metrics(traced_wall)
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        shares = {
            name: layer[f"{name}.self_s"] / traced_wall
            for name in LAYER_NAMES if name != TRACE_ROOT
        }
        dominant = max(shares, key=shares.get)
        base = trials_per_s(sweeps)
        metrics.update({
            "trace.uncovered_share": (layer["trace.uncovered_s"] / traced_wall, "ratio"),
            "trace.overhead_trials_per_s": (trials_per_s(traced) - base, "1/s"),
            "sweep.trials": (sum(s.trials for s in sweeps), "count"),
            "sweep.trials_per_s": (base, "1/s"),
            "sweep.work": (sum(s.work for s in sweeps), "count"),
            "experiments.cpu_util": (cpu_util, "ratio"),
        })
        metrics.update({name: (value, "ratio") for name, value in quality(workload, sweeps).items()})
        record["layer_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
        record["dominant_layer"] = {"name": dominant, "share": shares[dominant]}
        record["threads_forced_in_process"] = (
            "threads" in experiments.EXPERIMENTS[workload.experiment][1]
        )
        spans_path = OUT / f"{workload.name}-seed{args.seed}-trace1.spans.json"
        tracer.write_spans(spans_path)
        record["spans"] = spans_path.name

    all_sweeps = sweeps + traced
    for s in all_sweeps:
        problems.extend(s.problems)
    attempted = sum(s.trials for s in all_sweeps)
    failed = sum(s.trials for s in all_sweeps if s.path is None)
    record["sweeps"] = [
        {"traced": is_traced, "base_seed": s.base_seed, "trials": s.trials,
         "wall_s": s.wall_s, "stolen_s": s.stolen_s, "work": s.work,
         "counts": s.counts, "sha256": s.digest, "problems": s.problems}
        for is_traced, group in ((False, sweeps), (True, traced))
        for s in group
    ]
    record["problems"] = problems
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    _print_summary(workload, record, sweeps, problems)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _print_summary(workload, record, sweeps, problems):
    env = record["environment"]
    blas = ", ".join(f"{b['package']}:{b['threads']} threads" for b in env["openblas"])
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} openblas[{blas}] "
          f"{env['openblas'][0]['config'] if env['openblas'] else ''}")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in record['setup_samples_s'])}")
    trials = sum(s.trials for s in sweeps)
    wall = sum(s.wall_s for s in sweeps)
    work = sum(s.work for s in sweeps)
    print(f"{workload.name}: {len(sweeps)} sweeps, {trials} trials in {wall:.3f} s "
          f"({trials / wall:.4g} trials/s), work {work:g} (unit: {workload.work_unit})")
    for s in record["sweeps"]:
        kind = "traced" if s["traced"] else "sweep"
        print(f"  {kind} base_seed={s['base_seed']} trials={s['trials']} "
              f"wall={s['wall_s']:.3f}s sha256={s['sha256']}")
    if "dominant_layer" in record:
        if record["threads_forced_in_process"]:
            print("traced run: threads=1 forced so every trial runs in the traced process")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in list(record["layer_shares"].items())[:6])
        print(f"layer self-time shares: {shares}; uncovered "
              f"{record['metrics']['trace.uncovered_share']:.1%}")
        print(f"dominant layer: {record['dominant_layer']['name']} "
              f"({record['dominant_layer']['share']:.1%})")
    for p in problems:
        print(f"CHECK FAILED: {p}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rpmix" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'rpmix'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

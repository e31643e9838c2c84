"""Command-line harness.

Subcommands: synth, project, em, classify, experiment. Every command is
deterministic given its --seed, and all outputs are plain CSV or JSON so
runs can be diffed and replayed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import experiments
from ._blas import single_blas_thread
from .classifier import (
    cluster_analysis,
    evaluate,
    ingest,
    save_cluster_analysis,
    train,
)
from .em import CovarianceRestriction, rp_em, run_em, test_loglik
from .errors import ConfigError, RpmixError
from .gaussians import (
    load_dataset,
    mixture_separation,
    sample,
    save_dataset,
    save_mixture,
)
from .projection import (
    pca,
    project_data,
    random_orthonormal,
    random_uniform,
    save_projection,
)
from .synthesis import CovarianceMode, MixtureSpec, make_mixture

REPORT_COLUMNS_HELP = """\
experiment report CSV columns:
  row_type    'trial' for raw measurements; 'mean', 'sd', 'min', 'max',
              'median' for aggregates recomputed per parameter group
  <group...>  experiment parameters (e.g. n, k, d, E, method, i, j)
  seed        the per-trial seed (blank on aggregate rows)
  <metrics>   measured quantities, full double precision:
              separation (fig3, fig4, fig7), eccentricity (fig5, fig6),
              accuracy (fig9), min_separation and original_min_separation
              (pca-collapse); for plain EM (reg_) and the hybrid (rp_) in
              fig8 and second-em: reg_success, reg_iterations,
              reg_test_loglik, reg_failed, rp_success, rp_low_iterations
              (counted in the projected space), rp_test_loglik, rp_failed,
              exact_match, rp_beats
"""

_RESTRICTIONS = {
    "shared": CovarianceRestriction.SHARED_FULL,
    "full": CovarianceRestriction.FULL_DISTINCT,
}


def _cmd_synth(args):
    spec = MixtureSpec(
        n=args.n,
        k=args.k,
        c=args.c,
        E=args.eccentricity,
        covariance_mode=args.mode,
        seed=args.seed,
    )
    mix = make_mixture(spec)
    data = sample(mix, args.samples, args.seed) if args.samples else None
    save_mixture(mix, args.out)
    print(f"wrote mixture (k={mix.k}, n={mix.dim}, separation="
          f"{mixture_separation(mix):.6g}) to {args.out}")
    if data is not None:
        save_dataset(data, args.data_out)
        print(f"wrote {args.samples} samples to {args.data_out}")


def _cmd_project(args):
    data = load_dataset(args.data) if args.data else None
    if args.kind == "pca":
        if data is None:
            raise RpmixError("--data is required for kind=pca")
        proj = pca(data, args.d)
    else:
        if args.n is None:
            raise RpmixError(f"--n is required for kind={args.kind}")
        gen = random_orthonormal if args.kind == "orthonormal" else random_uniform
        proj = gen(args.n, args.d, args.seed)
    save_projection(proj, args.out)
    print(f"wrote {proj.kind.value} projection {proj.target_dim}x{proj.source_dim} to {args.out}")
    if data is not None and args.data_out:
        save_dataset(project_data(proj, data), args.data_out)
        print(f"wrote projected data to {args.data_out}")


def _cmd_em(args):
    data = load_dataset(args.data)
    restriction = _RESTRICTIONS[args.restriction]
    if args.rp_dim:
        fit, proj, fit_low = rp_em(data, args.k, args.rp_dim, restriction, args.seed)
        print(f"low-dim EM: {fit_low.iterations} iterations, "
              f"final train loglik {fit_low.loglik_trace[-1]:.6f}")
        if args.projection_out:
            save_projection(proj, args.projection_out)
    else:
        fit = run_em(data, args.k, restriction, args.seed)
    save_mixture(fit.model, args.out)
    print(f"fit: {fit.iterations} iterations, converged={fit.converged}, "
          f"train loglik {fit.loglik_trace[-1]:.6f}")
    if args.trace_out:
        table = np.column_stack((np.arange(len(fit.loglik_trace)), fit.loglik_trace))
        save_dataset(table, args.trace_out, header=["iteration", "train_loglik"])
    if args.test:
        test = load_dataset(args.test)
        print(f"test loglik {test_loglik(fit.model, test):.6f}")


def _cmd_classify(args):
    train_set = ingest(args.train)
    model = train(train_set, args.d, per_class_k=args.per_class_k, seed=args.seed)
    print(f"trained {len(model.per_class)}-class model at d={args.d}")
    if args.test:
        test_set = ingest(args.test)
        acc = evaluate(model, test_set)
        print(f"test accuracy {acc:.4f}")
    if args.analysis_out:
        analysis = cluster_analysis(train_set, model.projection)
        save_cluster_analysis(analysis, args.analysis_out)
        print(f"wrote projected cluster analysis to {args.analysis_out}")
    if args.raw_analysis_out:
        analysis = cluster_analysis(train_set)
        save_cluster_analysis(analysis, args.raw_analysis_out)
        print(f"wrote raw-space cluster analysis to {args.raw_analysis_out}")


def _cmd_experiment(args):
    cfg = {}
    if args.config:
        with open(args.config) as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(
                f"{args.config}: expected a JSON object, got {type(cfg).__name__}"
            )
        keys = [f.name for f in dataclasses.fields(experiments.ExperimentConfig)]
        unknown = sorted(set(cfg) - set(keys))
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {unknown}; a config takes {keys}")
    name = args.name or cfg.get("experiment")
    if not name:
        raise RpmixError("no experiment named (positional argument or config file)")
    config = experiments.ExperimentConfig(
        experiment=name,
        trials=args.trials if args.trials is not None else cfg.get("trials"),
        base_seed=args.seed if args.seed is not None else cfg.get("base_seed", 0),
        overrides=cfg.get("overrides", {}),
    )
    if args.threads is not None:
        takes_threads = _pooled_experiments()
        if name not in takes_threads:
            raise ConfigError(
                f"--threads does not apply to {name}; it applies to {takes_threads}"
            )
        config = dataclasses.replace(
            config, overrides={**config.overrides, "threads": args.threads}
        )
    report = experiments.run(config)
    for line in report.summary_lines():
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}.csv")
        report.to_csv(path)
        print(f"wrote report to {path}")


def _pooled_experiments():
    """The experiments whose trials take a `threads` override, sorted."""
    return sorted(e for e, (_, allowed) in experiments.EXPERIMENTS.items() if "threads" in allowed)


def _seed(text):
    """An argparse type: a seed is an int >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rpmix",
        description="Random projection for learning mixtures of Gaussians.",
        epilog=REPORT_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic mixture (and samples)")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--k", type=int, required=True, help="number of components")
    p.add_argument("--c", type=float, required=True, help="pairwise separation")
    p.add_argument("--eccentricity", "-E", type=float, default=1.0)
    p.add_argument("--mode", choices=sorted(m.value for m in CovarianceMode), default="spherical-shared")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="mixture JSON output path")
    p.add_argument("--samples", type=int, default=0, help="also draw this many points")
    p.add_argument("--data-out", default="samples.csv", help="sample CSV output path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("project", help="generate a projection, optionally apply it")
    p.add_argument("--kind", choices=("orthonormal", "uniform", "pca"), default="orthonormal")
    p.add_argument("--n", type=int, help="source dimension (random kinds)")
    p.add_argument("--d", type=int, required=True, help="target dimension")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--data", help="input dataset CSV (required for pca)")
    p.add_argument("--data-out", help="projected dataset CSV output")
    p.add_argument("--out", required=True, help="projection JSON output path")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("em", help="fit a mixture by EM or the RP+EM hybrid")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restriction", choices=("shared", "full"), default="full")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rp-dim", type=int, default=0,
                   help="if set, use the RP+EM hybrid with this projected dim")
    p.add_argument("--test", help="held-out dataset CSV for test log-likelihood")
    p.add_argument("--out", required=True, help="fitted mixture JSON output")
    p.add_argument("--trace-out", help="CSV of the training log-likelihood trace")
    p.add_argument("--projection-out", help="JSON of the projection used (hybrid only)")
    p.set_defaults(func=_cmd_em)

    p = sub.add_parser("classify", help="train/evaluate the per-class mixture classifier")
    p.add_argument("--train", required=True, help="label-first CSV training data")
    p.add_argument("--test", help="label-first CSV test data")
    p.add_argument("--d", type=int, required=True, help="projected dimension")
    p.add_argument("--per-class-k", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--analysis-out", help="projected-space separation/eccentricity CSV")
    p.add_argument("--raw-analysis-out", help="raw-space separation/eccentricity CSV")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "experiment",
        help="run a named experiment and write its CSV report",
        epilog=REPORT_COLUMNS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("name", nargs="?", choices=sorted(experiments.EXPERIMENTS),
                   help="experiment to run (or set it in --config)")
    p.add_argument("--config", help="JSON config: experiment, trials, base_seed, overrides")
    p.add_argument("--seed", type=_seed, default=None, help="base seed (trial t uses seed+t)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", help="directory for the report CSV")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for the trials of "
                        f"{', '.join(_pooled_experiments())} (default: one per "
                        "core, at most one per trial; 1 runs them in this process)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with single_blas_thread():
            args.func(args)
    except (RpmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

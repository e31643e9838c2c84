"""Command-line harness.

Subcommands: synth, project, em, classify, experiment. Every command is
deterministic given its --seed, and all outputs are plain CSV or JSON so
runs can be diffed and replayed. Each `_cmd_*` computes everything and
returns its files, (save, path) pairs, and its stdout lines; `main`, the one
writer, writes all of the files or none (`_write_all`), then prints the lines.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import os
import secrets
import sys
from functools import partial

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
    _load_document,
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


def _write_all(outputs):
    """Run each `save(path)` of `outputs`, a sequence of (save, path), so that
    every path is written or none is. Each save writes a fresh name beside
    its target that ends in the target's name, so it keeps the suffix (numpy's
    `savetxt` gzips a `.gz` name); `open` makes it, so it has the permissions
    of a direct write. The names move into place once every save is done, so
    a target that is a directory fails first, as a rename onto it would fail
    after the earlier ones. A failure removes the names, and an OSError names
    the target, not its stand-in. Two paths that name one file (the same
    `os.path.realpath`) raise RpmixError before anything is staged."""
    seen = set()
    for _, path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise RpmixError(f"two outputs name one file: {path}")
        seen.add(real)
    staged = []
    try:
        for save, path in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            head, tail = os.path.split(path)
            stage = os.path.join(head, f".{secrets.token_hex(4)}-{tail}")
            try:
                open(stage, "x").close()
                staged.append(stage)
                save(stage)
            except OSError as exc:
                if exc.filename == stage:
                    exc.filename = path
                raise
        for stage, (_, path) in zip(staged, outputs):
            os.replace(stage, path)
    except BaseException:
        for stage in staged:
            with contextlib.suppress(OSError):
                os.remove(stage)
        raise


def _cmd_synth(args):
    if args.data_out and not args.samples:
        raise RpmixError("--data-out needs --samples")
    spec = MixtureSpec(
        n=args.n,
        k=args.k,
        c=args.c,
        E=args.eccentricity,
        covariance_mode=args.mode,
        seed=args.seed,
    )
    mix = make_mixture(spec)
    files = [(partial(save_mixture, mix), args.out)]
    lines = [f"wrote mixture (k={mix.k}, n={mix.dim}, separation="
             f"{mixture_separation(mix):.6g}) to {args.out}"]
    if args.samples:
        data_out = args.data_out or "samples.csv"
        files.append((partial(save_dataset, sample(mix, args.samples, args.seed)), data_out))
        lines.append(f"wrote {args.samples} samples to {data_out}")
    return files, lines


def _cmd_project(args):
    if args.data_out and not args.data:
        raise RpmixError("--data-out needs --data")
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
    files = [(partial(save_projection, proj), args.out)]
    lines = [f"wrote {proj.kind.value} projection {proj.target_dim}x{proj.source_dim} to {args.out}"]
    if args.data_out:
        files.append((partial(save_dataset, project_data(proj, data)), args.data_out))
        lines.append(f"wrote projected data to {args.data_out}")
    return files, lines


def _cmd_em(args):
    if args.projection_out and not args.rp_dim:
        raise RpmixError("--projection-out needs --rp-dim")
    data = load_dataset(args.data)
    test = load_dataset(args.test) if args.test else None
    restriction = _RESTRICTIONS[args.restriction]
    lines = []
    if args.rp_dim:
        proj = random_orthonormal(data.shape[1], args.rp_dim, args.seed)
        fit, _, fit_low = rp_em(data, args.k, proj, restriction, args.seed)
        lines.append(f"low-dim EM: {fit_low.iterations} iterations, "
                     f"final train loglik {fit_low.loglik_trace[-1]:.6f}")
    else:
        fit = run_em(data, args.k, restriction, args.seed)
    lines.append(f"fit: {fit.iterations} iterations, converged={fit.converged}, "
                 f"train loglik {fit.loglik_trace[-1]:.6f}")
    if test is not None:
        lines.append(f"test loglik {test_loglik(fit.model, test):.6f}")
    files = [(partial(save_mixture, fit.model), args.out)]
    if args.projection_out:
        files.append((partial(save_projection, proj), args.projection_out))
    if args.trace_out:
        table = np.column_stack((np.arange(len(fit.loglik_trace)), fit.loglik_trace))
        header = ["iteration", "train_loglik"]
        files.append((partial(save_dataset, table, header=header), args.trace_out))
    return files, lines


def _cmd_classify(args):
    train_set = ingest(args.train)
    proj = random_orthonormal(train_set.dim, args.d, args.seed)
    model = train(train_set, proj, per_class_k=args.per_class_k, seed=args.seed)
    lines = [f"trained {len(model.per_class)}-class model at d={args.d}"]
    if args.test:
        test_set = ingest(args.test)
        acc = evaluate(model, test_set)
        lines.append(f"test accuracy {acc:.4f}")
    files = []
    if args.analysis_out:
        projected = cluster_analysis(train_set, model.projection)
        files.append((partial(save_cluster_analysis, projected), args.analysis_out))
        lines.append(f"wrote projected cluster analysis to {args.analysis_out}")
    if args.raw_analysis_out:
        raw = cluster_analysis(train_set)
        files.append((partial(save_cluster_analysis, raw), args.raw_analysis_out))
        lines.append(f"wrote raw-space cluster analysis to {args.raw_analysis_out}")
    return files, lines


def _config_document(doc):
    """The fields that a --config document sets: a JSON object whose keys
    are among `ExperimentConfig`'s fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"expected a JSON object, got {type(doc).__name__}")
    keys = [f.name for f in dataclasses.fields(experiments.ExperimentConfig)]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}; a config takes {keys}")
    return doc


def _cmd_experiment(args):
    cfg = _load_document(args.config, _config_document) if args.config else {}
    given = {"experiment": args.name, "trials": args.trials, "base_seed": args.seed}
    cfg.update((key, value) for key, value in given.items() if value is not None)
    if not cfg.get("experiment"):
        raise RpmixError("no experiment named (positional argument or config file)")
    config = experiments.ExperimentConfig(**cfg)
    name = config.experiment
    if args.threads is not None:
        config = dataclasses.replace(config, overrides={**config.overrides, "threads": args.threads})
    report = experiments.run(config)
    lines = report.summary_lines()
    if not args.out:
        return [], lines
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}.csv")
    return [(report.to_csv, path)], [*lines, f"wrote report to {path}"]


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
    p.add_argument("--data-out", help="sample CSV output path (default samples.csv; needs --samples)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("project", help="generate a projection, optionally apply it")
    p.add_argument("--kind", choices=("orthonormal", "uniform", "pca"), default="orthonormal")
    p.add_argument("--n", type=int, help="source dimension (random kinds)")
    p.add_argument("--d", type=int, required=True, help="target dimension")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--data", help="input dataset CSV (required for pca)")
    p.add_argument("--data-out", help="projected dataset CSV output (needs --data)")
    p.add_argument("--out", required=True, help="projection JSON output path")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("em", help="fit a mixture by EM or the RP+EM hybrid")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restriction", choices=("shared", "full"), default="full",
                   help="full (default): one covariance per component, which needs well "
                        "over n points in each; shared: one pooled covariance")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rp-dim", type=int, default=0,
                   help="if set, use the RP+EM hybrid with this projected dim")
    p.add_argument("--test", help="held-out dataset CSV for test log-likelihood")
    p.add_argument("--out", required=True, help="fitted mixture JSON output")
    p.add_argument("--trace-out", help="CSV of the training log-likelihood trace")
    p.add_argument("--projection-out", help="JSON of the projection used (needs --rp-dim)")
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
                        f"{', '.join(_pooled_experiments())}, capped at one per trial "
                        "(default: one per core; 1 runs them in this process)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with single_blas_thread():
            files, lines = args.func(args)
            _write_all(files)
            for line in lines:
                print(line)
    except (RpmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

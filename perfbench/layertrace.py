"""Span tracing of rpmix's public layer functions, installed from outside.

The tracer replaces each function listed in LAYERS with a wrapper that records
a span (name, start, end, parent span) in memory. Importing modules hold their
own references (`from .gaussians import log_density_batch`), so every alias in
every loaded rpmix module is rebound, and `Gaussian.__init__` and
`ExperimentReport.to_csv` are wrapped on their classes. Nothing under src/ is
changed; `uninstall` puts the originals back.

Only the calling process is traced. Worker processes started by a sweep would
run unwrapped code, so a traced sweep must run in-process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every traced layer function. A dotted attribute is a
# method, wrapped on its class.
LAYERS = (
    ("rpmix.gaussians", "Gaussian.__init__"),
    ("rpmix.gaussians", "log_density_batch"),
    ("rpmix.gaussians", "sample"),
    ("rpmix.em", "init_params"),
    ("rpmix.em", "e_step"),
    ("rpmix.em", "m_step"),
    ("rpmix.em", "run_em"),
    ("rpmix.em", "rp_em"),
    ("rpmix.em", "test_loglik"),
    ("rpmix.em", "centers_recovered"),
    ("rpmix.projection", "pca"),
    ("rpmix.projection", "random_orthonormal"),
    ("rpmix.projection", "project_data"),
    ("rpmix.projection", "project_mixture"),
    ("rpmix.synthesis", "make_mixture"),
    ("rpmix.classifier", "ingest"),
    ("rpmix.classifier", "train"),
    ("rpmix.classifier", "evaluate"),
    ("rpmix.experiments", "run"),
    ("rpmix.experiments", "ExperimentReport.to_csv"),
)

# The sweep's root span; its self time is the part of the sweep that no other
# traced layer covers.
ROOT = "experiments.run"

# A fit that raises is counted once, at the outermost fit call.
FITS = ("em.run_em", "em.rp_em")
FIT_ERRORS = (
    "IllConditionedError", "NotPositiveDefiniteError", "EmptyComponentError",
)

COUNTS = (
    "em.run_em.iterations",
    "em.rp_em.low_iterations",
    "classifier.ingest.bytes",
    "experiments.to_csv.bytes",
    *(f"em.fit.failed.{e}" for e in FIT_ERRORS),
    "em.fit.failed.other",
)


def layer_name(module, attr):
    short = module.rsplit(".", 1)[1]
    owner, _, method = attr.rpartition(".")
    if owner and method == "__init__":
        return f"{short}.{owner}"
    return f"{short}.{method or attr}"


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS)


def _count_run_em(counts, args, kwargs, fit):
    counts["em.run_em.iterations"] += fit.iterations
    counts["em.run_em.converged"] += int(fit.converged)


def _count_rp_em(counts, args, kwargs, result):
    counts["em.rp_em.low_iterations"] += result[2].iterations


def _count_ingest(counts, args, kwargs, result):
    counts["classifier.ingest.bytes"] += os.path.getsize(args[0])


def _count_to_csv(counts, args, kwargs, result):
    counts["experiments.to_csv.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "em.run_em": _count_run_em,
    "em.rp_em": _count_rp_em,
    "classifier.ingest": _count_ingest,
    "experiments.to_csv": _count_to_csv,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._restore = []

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if name == "rpmix" or name.startswith("rpmix.")
        ]
        for module, attr in LAYERS:
            owner = sys.modules[module]
            cls_name, _, attr_name = attr.rpartition(".")
            wrapper_name = layer_name(module, attr)
            if cls_name:
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr_name]
                self._rebind(cls, attr_name, original, self._wrap(wrapper_name, original))
                continue
            original = getattr(owner, attr_name)
            wrapper = self._wrap(wrapper_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def _wrap(self, name, fn):
        spans, open_spans, counts = self.spans, self._open, self.counts
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name in FITS and not self._inside_fit(span[3]):
                    kind = type(exc).__name__
                    counts[f"em.fit.failed.{kind if kind in FIT_ERRORS else 'other'}"] += 1
                raise
            finally:
                span[2] = perf_counter()
                open_spans.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _inside_fit(self, parent):
        while parent >= 0:
            if self.spans[parent][0] in FITS:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, wall_s):
        """Per-layer calls and self times, the exact counts, and the remainder.

        A span's self time is its duration minus its direct children's. Spans
        nest on one thread, so children never overlap. `wall_s` is the traced
        sweeps' total wall time; the part of it outside every root span, plus
        the root's own self time, is reported as uncovered.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                roots += end - start
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        fits = calls["em.run_em"]
        out["em.run_em.converged_ratio"] = self.counts["em.run_em.converged"] / fits if fits else 0.0
        out["trace.uncovered_s"] = self_s[ROOT] + (wall_s - roots)
        return out

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, start - origin, end - origin, parent]
                        for name, start, end, parent in self.spans
                    ],
                },
                f,
            )

"""Span tracer that times delaypsa's layers from outside the package.

The tracer replaces functions with timing wrappers at the names their
callers look them up by (for example `predictor.assemble`, which the
predictor calls, rather than `discretization.assemble`), records one span
per call made while an operation is active, and restores every name when
it is closed.  A span is [name, start, end, parent span index, operation
id].  Spans and counts stay in memory until the run writes them out.

A target whose name no longer exists is skipped; every layer metric that
depends only on skipped targets is then reported as missing instead of
crashing the run.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.skipped = []      # "module.attr" targets that do not exist
        self.installed = set()  # span names with at least one live target
        self.hook_errors = set()  # span names whose result hook failed
        self._stack = []
        self._patched = []

    def install(self, targets):
        for module, attr, name, hook in targets:
            original = getattr(module, attr, None)
            if not callable(original):
                self.skipped.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, hook))
            self._patched.append((module, attr, original))
            self.installed.add(name)

    def close(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    self.hook_errors.add(name)
            return result
        return wrapper

    def totals(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; calls are single-threaded, so children never overlap.
        """
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return calls, total, own


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_eig(counts, args, kwargs, _):
    d = int(_first(args, kwargs, "matrix").shape[0])
    counts[f"eig_dim.{d}"] += 1
    counts["eig_flop"] += 10 * d ** 3


def _count_batched_svd(counts, args, kwargs, _):
    shape = _first(args, kwargs, "stack").shape
    counts["batched_svd_matrices"] += math.prod(shape[:-2])


def _count_gauss_newton(counts, args, kwargs, result):
    counts["gn_iterations"] += int(result.iterations)
    counts["gn_converged"] += bool(result.converged)


def _count_region(counts, args, kwargs, _):
    region = args[2] if len(args) > 2 else kwargs["region"]
    counts["grid_points"] += int(region.n_re) * int(region.n_im)


def targets():
    """(module, attribute, span name, result hook) for every traced call site."""
    import delaypsa
    from delaypsa import corrector, model, numerics, oracle, pipeline, predictor

    t = [
        (delaypsa, "compute_psa", "pipeline.compute_psa", None),
        (delaypsa, "contours", "oracle.contours", _count_region),
        (delaypsa, "grid_psa", "oracle.grid_psa", None),
        (pipeline, "predict", "predictor.predict", None),
        (pipeline, "correct", "corrector.correct", None),
        (predictor, "spectral_abscissa_exact", "predictor.spectral_abscissa", None),
        (predictor, "bisect", "predictor.bisect", None),
        (predictor, "hamiltonian", "predictor.hamiltonian", None),
        (predictor, "imaginary_axis_frequencies",
         "predictor.imaginary_axis_frequencies", None),
        (predictor, "assemble", "discretization.assemble", None),
        (predictor, "spectral_abscissa_approx",
         "discretization.spectral_abscissa_approx", None),
        (corrector, "gauss_newton", "corrector.gauss_newton", _count_gauss_newton),
        (corrector, "start_vector", "corrector.start_vector", None),
        (corrector, "build_nleig", "corrector.build_nleig", None),
        (corrector, "residual", "corrector.residual", None),
        (corrector, "jacobian", "corrector.jacobian", None),
        (oracle, "grid_level", "oracle.grid_level", _count_region),
        (numerics, "eig_real", "numerics.eig_real", _count_eig),
        (numerics, "svd_complex", "numerics.svd_complex", None),
        (numerics, "singular_values", "numerics.singular_values",
         _count_batched_svd),
        (numerics, "solve_complex", "numerics.solve_complex", None),
        (numerics, "least_squares_real", "numerics.least_squares_real", None),
    ]
    # model functions are imported by name into several modules; wrap each
    # lookup site so a call is counted once whichever module makes it
    for name in ("check_pair", "shift_system", "char_matrix", "eval_weight"):
        for module in (model, predictor, corrector, oracle):
            if module is model or name in vars(module):
                t.append((module, name, f"model.{name}", None))
    return t


def _ratio(a, b):
    return a / b if b else 0.0


def _time(metric, span):
    return (metric, "s/op", [span], lambda c, t, n, k: t[span] / k)


def _calls(metric, span):
    return (metric, "count/op", [span], lambda c, t, n, k: c[span] / k)


def _count(metric, unit, spans, key, per=1):
    return (metric, unit, spans, lambda c, t, n, k: n[key] / per / k)


LEVEL_TEST = ["predictor.hamiltonian", "predictor.imaginary_axis_frequencies"]

# name, unit, span names it reads, value from (calls, total s, counts, ops)
LAYER_METRICS = [
    _time("predictor.predict_s", "predictor.predict"),
    _time("predictor.spectral_abscissa_s", "predictor.spectral_abscissa"),
    _time("predictor.bisect_s", "predictor.bisect"),
    _calls("predictor.level_tests", "predictor.imaginary_axis_frequencies"),
    ("predictor.level_test_s", "s/test", LEVEL_TEST,
     lambda c, t, n, k: _ratio(sum(t[s] for s in LEVEL_TEST), c[LEVEL_TEST[1]])),
    _calls("discretization.assemble_calls", "discretization.assemble"),
    _time("discretization.assemble_s", "discretization.assemble"),
    _time("corrector.correct_s", "corrector.correct"),
    _calls("corrector.gn_starts", "corrector.gauss_newton"),
    _count("corrector.gn_iterations", "count/op", ["corrector.gauss_newton"],
           "gn_iterations"),
    ("corrector.gn_iter_s", "s/iter", ["corrector.gauss_newton"],
     lambda c, t, n, k: _ratio(t["corrector.gauss_newton"], n["gn_iterations"])),
    ("corrector.gn_converged_ratio", "ratio", ["corrector.gauss_newton"],
     lambda c, t, n, k: _ratio(n["gn_converged"], c["corrector.gauss_newton"])),
    _calls("model.check_pair_calls", "model.check_pair"),
    _calls("model.shift_system_calls", "model.shift_system"),
    _calls("model.char_matrix_calls", "model.char_matrix"),
    _calls("numerics.eig_calls", "numerics.eig_real"),
    _time("numerics.eig_s", "numerics.eig_real"),
    _count("numerics.eig_gflop_computed", "GFLOP/op", ["numerics.eig_real"],
           "eig_flop", per=1e9),
    _calls("numerics.svd_calls", "numerics.svd_complex"),
    _time("numerics.svd_s", "numerics.svd_complex"),
    _calls("numerics.solve_calls", "numerics.solve_complex"),
    _calls("numerics.lstsq_calls", "numerics.least_squares_real"),
    _count("numerics.batched_svd_matrices", "count/op",
           ["numerics.singular_values"], "batched_svd_matrices"),
    _time("numerics.batched_svd_s", "numerics.singular_values"),
    _time("oracle.grid_level_s", "oracle.grid_level"),
    _time("oracle.contours_s", "oracle.contours"),
    _time("oracle.grid_psa_s", "oracle.grid_psa"),
    _count("oracle.grid_points", "count/op",
           ["oracle.grid_level", "oracle.contours"], "grid_points"),
    _time("pipeline.compute_psa_s", "pipeline.compute_psa"),
]


def layer_metrics(tracer, ops):
    """Per-layer metrics over `ops` traced operations, and the missing ones.

    A metric is missing when none of the span names it reads has a live
    target, or when a result hook feeding it failed.
    """
    calls, total, _ = tracer.totals()
    metrics, missing = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if (not any(s in tracer.installed for s in needs)
                or any(s in tracer.hook_errors for s in needs)):
            missing.append(name)
            continue
        metrics[name] = {"value": float(value(calls, total, tracer.counts, ops)),
                         "unit": unit}
    return metrics, missing


def eig_histogram(tracer):
    """Dense eigensolves by matrix dimension, {dimension: calls}."""
    hist = {int(key.split(".", 1)[1]): v for key, v in tracer.counts.items()
            if key.startswith("eig_dim.")}
    return dict(sorted(hist.items()))

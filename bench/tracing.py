"""Outside-in layer trace for the benchmark's traced runs.

Spans are recorded around calls into each module's public functions by
replacing the function at every ``opshift`` module that holds it under
any name, so calls made through ``from .moi import moi_eval`` style
imports are traced too.  Spans stay in memory as
``(name_id, parent_index, start, end)`` and are written out once, at
the end of the run, outside any ``--out`` directory.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter

from opshift import approx, cli, cov, functions, linalg, moi, piecewise, ssf

WORKLOADS = ("moi-remainder", "eta-density", "cli-all")
MOI, ETA, CLI = WORKLOADS


def _tuple_count(operators):
    return math.prod(len(h.decomposition().eigenvalues) for h in operators)


# span name -> (module, attribute, counter hook).  A hook runs after the
# call returns and yields (counter name, amount); decompositions are
# cached on the operators by then, so it adds no eigensolver work.
FUNCTION_SPANS = {
    "linalg.spectral_decompose": (linalg, "spectral_decompose", None),
    "linalg.func_calculus": (linalg, "func_calculus", None),
    "functions.divided_difference": (functions, "divided_difference", None),
    "functions.peano_kernel": (functions, "peano_kernel", None),
    "piecewise.weighted_abs_integral": (
        piecewise,
        "weighted_abs_integral",
        lambda a, kw: ("density_intervals", len(a[0].breakpoints) - 1),
    ),
    "piecewise.integral_against_derivative": (piecewise, "integral_against_derivative", None),
    "moi.moi_eval": (moi, "moi_eval", lambda a, kw: ("moi_tuples", _tuple_count(a[1].operators))),
    "moi.taylor_remainder": (moi, "taylor_remainder", None),
    "cov.eigen_tuple_density": (cov, "eigen_tuple_density", lambda a, kw: ("cov_tuples", _tuple_count(a[2]))),
    "cov.cov_expand": (cov, "cov_expand", None),
    "ssf.ssf_compute": (ssf, "ssf_compute", None),
    "ssf.weighted_norm_and_scaling": (ssf, "weighted_norm_and_scaling", None),
    "approx.finite_rank_sequence": (approx, "finite_rank_sequence", None),
    "approx.remainder_sup_experiment": (approx, "remainder_sup_experiment", None),
    "approx.shift_density_convergence": (approx, "shift_density_convergence", None),
    **{
        f"cli.suite.{name}": (cli, "suite_" + name.replace("-", "_"), None)
        for name in ("verify-identities", "ssf", "trace-formula", "bounds", "approx")
    },
}
METHOD_SPANS = {
    "piecewise.add": (piecewise.PiecewisePolynomial, "__add__"),
    "piecewise.refined": (piecewise.PiecewisePolynomial, "refined"),
}

# Per-layer metrics: (name, unit, {workload: end-to-end metrics it should
# move there}).  Calls and self times are per op of the traced phase.
_MOI_MOVES = {MOI: ("ops_per_s", "op_p50_ms", "op_tail_ms", "accuracy_digits", "ops_ok_share"), CLI: ("ops_per_s",)}
_FOLD_MOVES = {ETA: ("ops_per_s", "op_tail_ms"), CLI: ("ops_per_s",)}
_NORM_MOVES = {ETA: ("accuracy_digits", "ops_ok_share")}
_EVERYWHERE = {w: ("ops_per_s",) for w in WORKLOADS}
_CLI_MOVES = {CLI: ("ops_per_s",)}
LAYER_METRICS = (
    ("moi.moi_eval.calls", "count/op", _MOI_MOVES),
    ("moi.moi_eval.self_s", "s/op", _MOI_MOVES),
    ("moi.tuples", "count/op", _MOI_MOVES),
    ("moi.us_per_tuple", "us", _MOI_MOVES),
    ("functions.divided_difference.calls", "count/op", _MOI_MOVES),
    ("functions.divided_difference.self_s", "s/op", _MOI_MOVES),
    ("cov.eigen_tuple_density.calls", "count/op", _FOLD_MOVES),
    ("cov.eigen_tuple_density.self_s", "s/op", _FOLD_MOVES),
    ("cov.tuples", "count/op", _FOLD_MOVES),
    ("piecewise.add.calls", "count/op", _FOLD_MOVES),
    ("piecewise.add.self_s", "s/op", _FOLD_MOVES),
    ("piecewise.refined.calls", "count/op", _FOLD_MOVES),
    ("piecewise.refined.self_s", "s/op", _FOLD_MOVES),
    ("functions.peano_kernel.calls", "count/op", _FOLD_MOVES),
    ("functions.peano_kernel.self_s", "s/op", _FOLD_MOVES),
    ("functions.kernel_cache.hit_ratio", "ratio", _FOLD_MOVES),
    ("piecewise.weighted_abs_integral.self_s", "s/op", _NORM_MOVES),
    ("piecewise.integral_against_derivative.self_s", "s/op", _NORM_MOVES),
    ("piecewise.density_intervals", "count", _NORM_MOVES),
    ("linalg.spectral_decompose.calls", "count/op", _EVERYWHERE),
    ("linalg.spectral_decompose.self_s", "s/op", _EVERYWHERE),
    ("linalg.func_calculus.self_s", "s/op", _EVERYWHERE),
    ("ssf.ssf_compute.calls", "count/op", _CLI_MOVES),
    ("ssf.ssf_compute.self_s", "s/op", _CLI_MOVES),
    ("ssf.weighted_norm_and_scaling.self_s", "s/op", _CLI_MOVES),
    ("cov.cov_expand.self_s", "s/op", _CLI_MOVES),
    ("approx.finite_rank_sequence.self_s", "s/op", _CLI_MOVES),
    ("approx.remainder_sup_experiment.self_s", "s/op", _CLI_MOVES),
    ("approx.shift_density_convergence.self_s", "s/op", _CLI_MOVES),
    ("cli.suite.verify-identities.self_s", "s/op", _CLI_MOVES),
    ("cli.suite.ssf.self_s", "s/op", _CLI_MOVES),
    ("cli.suite.trace-formula.self_s", "s/op", _CLI_MOVES),
    ("cli.suite.bounds.self_s", "s/op", _CLI_MOVES),
    ("cli.suite.approx.self_s", "s/op", _CLI_MOVES),
    ("trace.overhead_ratio", "ratio", {}),
    ("trace.unattributed_share", "ratio", {}),
    ("checks.ops_failed_share", "ratio", {MOI: ("ops_ok_share",), ETA: ("ops_ok_share",), CLI: ("ops_ok_share",)}),
    ("accuracy.min_digits", "digits", {MOI: ("accuracy_digits",), ETA: ("accuracy_digits",)}),
)


class Tracer:
    """Span recorder that patches the layer entry points while installed."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self._restore = []
        self._cache_start = None
        self._op = self._wrap("op", lambda fn: fn())

    def _wrap(self, name, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if hook is not None:
                key, amount = hook(args, kwargs)
                counts[key] += amount
                counts[key + "_calls"] += 1
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "opshift" or n.startswith("opshift.")]
        for name, (module, attr, hook) in FUNCTION_SPANS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (cls, attr) in METHOD_SPANS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        self._cache_start = functions._bspline_kernel.cache_info()

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def run_op(self, fn):
        """Run one op under a root span."""
        return self._op(fn)

    def layer_metrics(self):
        """Per-layer values named as in LAYER_METRICS (trace.* and checks.* excluded)."""
        n = len(self.names)
        calls, incl, child = [0] * n, [0.0] * n, [0.0] * len(self.spans)
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = [0.0] * n
        op_total = op_uncovered = 0.0
        n_ops = 0
        for i, (nid, parent, t0, t1) in enumerate(self.spans):
            calls[nid] += 1
            incl[nid] += t1 - t0
            self_time[nid] += t1 - t0 - child[i]
            if parent < 0:
                n_ops += 1
                op_total += t1 - t0
                op_uncovered += t1 - t0 - child[i]
        by_name = Counter()
        for nid, name in enumerate(self.names):
            if name != "op":
                by_name[name + ".calls"] += calls[nid]
                by_name[name + ".self_s"] += self_time[nid]
                by_name[name + ".incl_s"] += incl[nid]
        per_op = max(n_ops, 1)
        out = {}
        for metric, unit, _ in LAYER_METRICS:
            if unit in ("count/op", "s/op"):
                out[metric] = by_name[metric] / per_op
        tuples = self.counts["moi_tuples"]
        out["moi.tuples"] = tuples / per_op
        out["moi.us_per_tuple"] = 1e6 * by_name["moi.moi_eval.incl_s"] / tuples if tuples else 0.0
        out["cov.tuples"] = self.counts["cov_tuples"] / per_op
        norm_calls = self.counts["density_intervals_calls"]
        out["piecewise.density_intervals"] = self.counts["density_intervals"] / norm_calls if norm_calls else 0.0
        end = functions._bspline_kernel.cache_info()
        hits = end.hits - self._cache_start.hits
        lookups = hits + end.misses - self._cache_start.misses
        out["functions.kernel_cache.hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.unattributed_share"] = op_uncovered / op_total if op_total else 0.0
        return out

    def write(self, path, extra):
        """Spans with their parents, plus run facts, as gzipped JSON."""
        payload = {"names": self.names, "spans": self.spans, "counts": dict(self.counts), **extra}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def patched_sites(tracer):
    """Names of the (module, attribute) sites a tracer replaced, for tests."""
    return {f"{getattr(owner, '__name__', owner)}.{key}" for owner, key, _ in tracer._restore}


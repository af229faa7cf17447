"""Span recording around the library's module boundaries, from outside.

A Tracer wraps every public module-level function of the `liouville_lab`
modules and records one span per call: name, module, start, end, parent span
and work counts. Work counts are computed from the call's public arguments
with the grid rule each function's docstring states, so they are labelled
"computed", not measured. The wrapper replaces the function in every module
namespace that holds it, because `from .util import fsum` binds `fsum` in
eight modules besides `util`.
"""

import contextlib
import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

MODULES = (
    "arith_core", "util", "dirichlet_poly", "zeta_mellin", "interval_stats",
    "mr_factorization", "entropy_chowla", "expsum_circle", "cli",
)


class Span:
    __slots__ = ("name", "module", "parent", "start", "end", "counts")

    def __init__(self, name, module, parent):
        self.name = name
        self.module = module
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "module": self.module, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}


# ------------------------------------------------------ computed work counts

def _window(a):
    return int(a["hi"]) - int(a["lo"])


def _poly_step(coeffs):
    # shared grid step of dirichlet_poly: pi / (4 log support_hi), support_hi >= 3
    return math.pi / (4.0 * math.log(max(coeffs.support_hi, 3)))


def _poly_counts(coeffs, nodes):
    import numpy as np

    return {"node_terms": nodes * len(coeffs.values),
            "nonzero_node_terms": nodes * int(np.count_nonzero(coeffs.values))}


def _mean_value_counts(a, _):
    # fine grid: 2 ceil(T / step) + 1 nodes
    return _poly_counts(a["coeffs"], 2 * math.ceil(float(a["T"]) / _poly_step(a["coeffs"])) + 1)


def _halasz_counts(a, _):
    step = _poly_step(a["coeffs"])
    nodes = sum(2 * max(math.ceil((b - lo) / step), 1) + 1 for lo, b in a["subset"].intervals)
    return _poly_counts(a["coeffs"], nodes)


def _large_value_counts(a, _):
    # endpoints and midpoints of max(ceil(T / step), 1) cells
    return _poly_counts(a["coeffs"], 2 * max(math.ceil(a["T"] / _poly_step(a["coeffs"])), 1) + 1)


def _parseval_counts(a, _):
    # T = X / (h delta^2) sampled at half the 0.5 step, X terms
    X = int(a["X"])
    T = X / (int(a["h"]) * a["delta"] * a["delta"])
    return {"node_terms": (2 * math.ceil(T / 0.5) + 1) * X}


def _elements(a, _):
    values = a["values"]
    size = getattr(values, "size", None)
    return {"elements": int(size) if size is not None else len(values)}


COUNTERS = {
    "arith_core.primes_upto": lambda a, _: {"ints": max(int(a["bound"]) + 1, 0)},
    "arith_core.build_sieve": lambda a, _: {"ints": _window(a), "table_ints": _window(a)},
    "arith_core.mobius_range": lambda a, _: {"ints": _window(a), "table_ints": _window(a)},
    "arith_core.liouville_range": lambda a, _: {"ints": _window(a), "parity_ints": _window(a)},
    "arith_core.summatory_lambda": lambda a, _: {"ints": max(int(a["x"]), 0),
                                                 "parity_ints": max(int(a["x"]), 0)},
    "arith_core.primality_range": lambda a, _: {"ints": _window(a)},
    "arith_core.count_excluding_prime_band": lambda a, _: {"ints": max(int(a["x"]) - 1, 0)},
    "util.fsum": _elements,
    "dirichlet_poly.mean_value_integral": _mean_value_counts,
    "dirichlet_poly.halasz_subset_integral": _halasz_counts,
    "dirichlet_poly.large_value_measure": _large_value_counts,
    "zeta_mellin.zeta_strip_grid": lambda a, _: {"node_terms": len(a["ts"]) * int(a["terms"])},
    "interval_stats.variance": lambda a, _: {"windows": int(a["spec"].X)},
    "interval_stats.parseval_link": _parseval_counts,
    "mr_factorization.factorization_identity_residual": lambda a, _: {"q_nodes": int(a["q_nodes"])},
    "entropy_chowla.build_joint": lambda a, joint: {"joint_ints": a["model"].n_count,
                                                    "joint_keys": len(joint.keys)},
}


# ------------------------------------------------------ recording

class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name, module):
        span = Span(name, module, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself, around one invocation."""
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, module):
        qualified = "%s.%s" % (module, fn.__name__)
        counter = COUNTERS.get(qualified)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualified, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of every module in MODULES, rebinding
        each wherever a package module (or the CLI registry) holds it."""
        modules = [importlib.import_module(package.__name__ + "." + name)
                   for name in MODULES]
        wrapped = {}
        for name, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(obj, name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrapped[obj])
        registry = modules[MODULES.index("cli")].EXPERIMENTS
        for exp, (handler, spec, anchor) in list(registry.items()):
            if handler in wrapped:
                self._undo.append((registry, exp, registry[exp]))
                registry[exp] = (wrapped[handler], spec, anchor)
        return self

    def uninstall(self):
        for namespace, attr, original in reversed(self._undo):
            namespace[attr] = original
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ------------------------------------------------------ aggregation

def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    work_self = defaultdict(float)
    render_s = 0.0
    for span, s in zip(spans, selfs):
        self_s[span.module] += s
        calls[span.module] += 1
        for k, v in (span.counts or {}).items():
            work[span.module + "." + k] += v
            work_self[span.module + "." + k] += s
        if span.name in ("cli.render_csv", "cli.render_json"):
            render_s += span.duration
    out = {}
    for mod in MODULES:
        out[mod + ".self_s"] = self_s[mod]
        out[mod + ".calls"] = calls[mod]
    out.update({
        "arith_core.ints": work["arith_core.ints"],
        "arith_core.parity.ns_per_int": _per(work_self["arith_core.parity_ints"],
                                             work["arith_core.parity_ints"], 1e9),
        "arith_core.table.ns_per_int": _per(work_self["arith_core.table_ints"],
                                            work["arith_core.table_ints"], 1e9),
        "util.fsum.elements": work["util.elements"],
        "util.fsum.ns_per_element": _per(work_self["util.elements"], work["util.elements"], 1e9),
        "dirichlet_poly.node_terms": work["dirichlet_poly.node_terms"],
        "dirichlet_poly.ns_per_node_term": _per(work_self["dirichlet_poly.node_terms"],
                                                work["dirichlet_poly.node_terms"], 1e9),
        "dirichlet_poly.nonzero_share": _per(work["dirichlet_poly.nonzero_node_terms"],
                                             work["dirichlet_poly.node_terms"]),
        "zeta_mellin.node_terms": work["zeta_mellin.node_terms"],
        "zeta_mellin.ns_per_node_term": _per(work_self["zeta_mellin.node_terms"],
                                             work["zeta_mellin.node_terms"], 1e9),
        "interval_stats.windows": work["interval_stats.windows"],
        "interval_stats.ns_per_window": _per(work_self["interval_stats.windows"],
                                             work["interval_stats.windows"], 1e9),
        "interval_stats.node_terms": work["interval_stats.node_terms"],
        "mr_factorization.q_nodes": work["mr_factorization.q_nodes"],
        "mr_factorization.us_per_q_node": _per(work_self["mr_factorization.q_nodes"],
                                               work["mr_factorization.q_nodes"], 1e6),
        "entropy_chowla.joint_ints": work["entropy_chowla.joint_ints"],
        "entropy_chowla.joint_keys": work["entropy_chowla.joint_keys"],
        "entropy_chowla.ns_per_joint_int": _per(work_self["entropy_chowla.joint_ints"],
                                                work["entropy_chowla.joint_ints"], 1e9),
        "cli.render_s": render_s,
        "trace.spans": len(spans),
    })
    return out

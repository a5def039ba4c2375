"""Spans and work counts around barronlab's public functions, from outside.

``Patch`` swaps a wrapper in for each named public function.  Several
modules bind functions through ``from .x import y``, so the wrapper is
rebound in every module namespace that holds the original object, and the
originals are restored on exit.  Nothing inside barronlab changes.

``Tracer`` records one span per call (name, start, end, parent, op id) in
memory, and derives work counts from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# module -> public functions timed by the traced run.
TRACED = {
    "numerics": ("sobolev_weight", "tensor_nodes", "loglog_fit"),
    "barron": ("fourier_sum", "hm_norm_exact", "periodize_expand", "barron_norm"),
    "greedy_fourier": ("synthetic_heavy_tail", "order_frequencies", "tail_error_hm"),
    "sphere_geom": ("greedy_net", "separated_subset", "covering_radius"),
    "subsample": ("maurey_subsample",),
    "lower_bounds": ("build_packing", "pairwise_separation", "dyadic_blocks",
                     "residual_tail_norm", "highfreq_gap"),
    "relu_nets": ("compile_sobolev_approximant", "SobolevApproximant.__call__",
                  "SobolevApproximant.smoothed", "network_hm_upper",
                  "evaluate_network"),
    "rates": ("run_experiment",),
    "cli": ("dispatch",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _resolve(name: str):
    """'relu_nets.SobolevApproximant.smoothed' -> (owner, attribute, object)."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"barronlab.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Patch:
    """Context manager that replaces named functions by ``make(name, fn)``."""

    def __init__(self, names, make):
        self.names = tuple(names)
        self.make = make
        self._undo = []

    def __enter__(self):
        namespaces = [vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__dict__", None) is not None]
        for name in self.names:
            owner, attr, original = _resolve(name)
            wrapper = self.make(name, original)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        ns[key] = wrapper
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()
        return False


def capture(names, sink: dict):
    """Patch that appends every result of each named function to ``sink``."""

    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.setdefault(name, []).append(result)
            return result
        return wrapper

    return Patch(names, make)


# ----------------------------------------------------------------------
# work counts, computed from a call's bound arguments and its result
# ----------------------------------------------------------------------

def _greedy_net(a, r):
    m, pool = a["m"], a["candidate_pool"] or 256 * a["m"]
    return {"sphere_geom.pool_draws": 1 + (m - 1) * pool,
            "sphere_geom.net_kept": r.size}


def _pairwise(a, r):
    n = len(a["family"].signs)
    return {"lower_bounds.pairs_enumerated": n * (n - 1) // 2,
            "lower_bounds.pairs_evaluated": r.pairs_evaluated}


def _cert(a, r):
    spec = a["spec"]
    nodes = (spec.resolution if spec is not None else 48) ** len(a["omega_box"])
    return {"relu_nets.cert_quad_evals": a["net"].width * nodes}


COUNTERS = {
    "barron.fourier_sum": lambda a, r: {"barron.modes_built": r.support_size()},
    "greedy_fourier.tail_error_hm": lambda a, r: {
        "greedy_fourier.tail_modes": max(0, a["fs"].support_size() - max(0, int(a["n"])))},
    "sphere_geom.greedy_net": _greedy_net,
    "sphere_geom.covering_radius": lambda a, r: {
        "sphere_geom.cover_probes": a["probes"] if a["probe_points"] is None
        else len(a["probe_points"])},
    "sphere_geom.separated_subset": lambda a, r: {
        "sphere_geom.subset_draws": a["candidate_pool"],
        "sphere_geom.subset_kept": r.size},
    "lower_bounds.pairwise_separation": _pairwise,
    "lower_bounds.highfreq_gap": lambda a, r: {
        "lower_bounds.gap_solves": a["candidates"] * a["n_units"],
        "lower_bounds.gap_regularized": r.regularized},
    "relu_nets.compile_sobolev_approximant": lambda a, r: {
        "relu_nets.cells_fit": a["cells"].q ** a["cells"].d},
    "relu_nets.SobolevApproximant.smoothed": lambda a, r: {
        "relu_nets.smoothed_cell_scans":
            a["self"].partition.q ** a["self"].partition.d * len(a["x"])},
    "relu_nets.network_hm_upper": _cert,
    "relu_nets.evaluate_network": lambda a, r: {
        "relu_nets.unit_evals": a["net"].width * len(a["x"])},
    "subsample.maurey_subsample": lambda a, r: {"subsample.restarts": a["restarts"]},
}

# ratio name -> (numerator count, denominator count)
RATIOS = {
    "sphere_geom.net_yield": ("sphere_geom.net_kept", "sphere_geom.pool_draws"),
    "sphere_geom.subset_yield": ("sphere_geom.subset_kept", "sphere_geom.subset_draws"),
    "lower_bounds.pair_yield": ("lower_bounds.pairs_evaluated",
                                "lower_bounds.pairs_enumerated"),
}

REPORTED_COUNTS = (
    "barron.modes_built", "greedy_fourier.tail_modes", "sphere_geom.pool_draws",
    "sphere_geom.cover_probes", "lower_bounds.pairs_enumerated",
    "lower_bounds.pairs_evaluated", "lower_bounds.gap_solves",
    "lower_bounds.gap_regularized", "relu_nets.cells_fit",
    "relu_nets.smoothed_cell_scans", "relu_nets.cert_quad_evals",
    "relu_nets.unit_evals", "subsample.restarts",
)


class Tracer:
    """In-memory spans for every traced call, plus per-call work counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.child_time = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def patch(self) -> Patch:
        return Patch(TRACED_NAMES, self._wrap)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.op])
            self.child_time.append(0.0)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span[2] = end
                if parent is not None:
                    self.child_time[parent] += end - span[1]
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def root_seconds(self) -> float:
        """Time covered by root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    def layer_metrics(self) -> dict:
        """name -> (value, unit, note) for ``F.calls``, ``F.self_s``, the work
        counts and the yield ratios."""
        calls = dict.fromkeys(TRACED_NAMES, 0)
        self_s = dict.fromkeys(TRACED_NAMES, 0.0)
        for (name, start, end, _, _), children in zip(self.spans, self.child_time):
            calls[name] += 1
            self_s[name] += end - start - children
        out = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = (calls[name], "count", "")
            out[f"{name}.self_s"] = (self_s[name], "s", "")
        for name in REPORTED_COUNTS:
            out[name] = (self.counts[name], "count", "")
        for name, (num, den) in RATIOS.items():
            den_value = self.counts[den]
            out[name] = (self.counts[num] / den_value if den_value else 0.0, "ratio",
                         f"{self.counts[num]} / {den_value}")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines, once the run has ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for (name, start, end, parent, op), children in zip(self.spans, self.child_time):
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": end - start - children,
                }) + "\n")

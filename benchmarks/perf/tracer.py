"""In-memory span tracer that wraps rematch's public functions from outside.

A :class:`Tracer` replaces each traced function with a wrapper in every
namespace that binds it: the defining module, every loaded ``rematch``
module that imported it under any name (``coupling.draw_sample`` is
``model.sample``, ``montecarlo.run_sm`` is ``policies.run_sm``) and the
package namespace itself.  Methods and classmethods are patched on their
class.  Each wrapped call records a span (layer, parent, start, end) in
flat arrays; :meth:`Tracer.layer_stats` turns the spans into per-layer
self time, where self time is a span's duration minus the time its child
spans cover.

The program itself is not modified; :meth:`Tracer.uninstall` puts every
original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, defining module, attribute).  Several functions may share a layer;
# a dotted attribute names a method or classmethod, patched on its class.
TARGETS = (
    ("model.trace", "rematch.model", "Trace.from_selection_masks"),
    ("model.trace", "rematch.model", "Trace.selection_masks"),
    ("model.sample", "rematch.model", "sample"),
    ("model.enumerate", "rematch.model", "enumerate_samples"),
    ("model.tables", "rematch.model", "Tables.build_enumeration"),
    ("kernels.sm_trace", "rematch.kernels", "sm_trace"),
    ("kernels.gc_trace", "rematch.kernels", "gc_trace"),
    ("kernels.dp_solve", "rematch.kernels", "dp_solve"),
    ("policies.build_dp", "rematch.policies", "build_dp"),
    ("policies.run_opt", "rematch.policies", "run_opt"),
    ("policies.run_alternating_scan", "rematch.policies", "run_alternating_scan"),
    ("policies.run_sm", "rematch.policies", "run_sm"),
    ("policies.run_greedy_commit", "rematch.policies", "run_greedy_commit"),
    ("policies.run_opt_follower", "rematch.policies", "run_opt_follower"),
    ("policies.offline_max_matching", "rematch.policies", "offline_max_matching"),
    ("matching.max_weight_matching", "rematch.matching", "max_weight_matching"),
    ("montecarlo.monte_carlo", "rematch.montecarlo", "monte_carlo"),
    ("coupling.coupling_expectations", "rematch.coupling", "coupling_expectations"),
    ("coupling.verify", "rematch.coupling", "verify_charging"),
    ("coupling.verify", "rematch.coupling", "verify_domination"),
    ("factorlp.solve_lp", "rematch.factorlp", "solve_lp"),
    ("factorlp.dual", "rematch.factorlp", "dual_certificate"),
    ("factorlp.dual", "rematch.factorlp", "verify_dual_feasible"),
    ("generators", "rematch.generators", "gen_double_star"),
    ("generators", "rematch.generators", "gen_complete_bipartite"),
    ("generators", "rematch.generators", "gen_random"),
)


def _rematch_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rematch" or name.startswith("rematch."))]


class Tracer:
    """Spans and counters for one traced run: install, run, uninstall."""

    def __init__(self):
        self.layers: list[str] = []
        self.span_layer = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def _open(self, layer: int) -> int:
        sid = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, layer: str, attr: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        idx = self.layers.index(layer)
        calls, failed, counts = self.calls, self.failed, self.counts
        tracer = self

        if attr == "enumerate_samples":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per yielded sample: the time spent inside the generator
                calls[layer] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        failed[layer] += 1
                        raise
                    finally:
                        tracer._close(sid)
                    counts[f"{layer}.samples"] += 1
                    if item[1] > 0.0:
                        counts[f"{layer}.useful"] += 1
                    yield item
            return gen_wrapper

        # a memoized function counts only the calls that did the work
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            sid = tracer._open(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                calls[layer] += 1
                failed[layer] += 1
                raise
            finally:
                tracer._close(sid)
            if not cache_info or cache_info().misses > misses:
                calls[layer] += 1
            return out

        if attr == "Tables.build_enumeration":
            @functools.wraps(fn)
            def tables_wrapper(tables, *args, **kwargs):
                # the method returns at once when the tables are already built
                fresh = tables.feas is None
                out = traced(tables, *args, **kwargs)
                if fresh:
                    counts[f"{layer}.feasible"] += len(tables.feas)
                return out
            return tables_wrapper
        if attr == "dp_solve":
            @functools.wraps(fn)
            def dp_wrapper(*args, **kwargs):
                out = traced(*args, **kwargs)
                counts[f"{layer}.states"] += len(out[1])
                return out
            return dp_wrapper
        if attr == "monte_carlo":
            @functools.wraps(fn)
            def mc_wrapper(*args, **kwargs):
                out = traced(*args, **kwargs)
                counts[f"{layer}.trials"] += out.trials
                return out
            return mc_wrapper
        return traced

    # -- install / uninstall -----------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded rematch modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = _rematch_modules()
        for layer, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(layer, attr, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(layer, attr, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, attr, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def bindings(self) -> list[tuple[str, str]]:
        """(owner, name) of every binding currently wrapped."""
        return [(getattr(owner, "__name__", repr(owner)), name)
                for owner, name, _ in self._patches]

    # -- aggregation --------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, failed, self_s and total_s (outermost spans only)."""
        layer = np.array(self.span_layer, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(layer, weights=dur - child, minlength=len(self.layers))
        outer = np.ones(len(dur), dtype=bool)
        outer[nested] = layer[parent[nested]] != layer[nested]
        total_s = np.bincount(layer[outer], weights=dur[outer], minlength=len(self.layers))
        return {name: {"calls": self.calls[name], "failed": self.failed[name],
                       "self_s": float(self_s[i]), "total_s": float(total_s[i])}
                for i, name in enumerate(self.layers)}

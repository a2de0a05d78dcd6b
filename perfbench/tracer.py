"""Per-layer tracing of hypsurf from the benchmark's side, without source edits.

`Tracer.install()` wraps the public functions of every layer module and
rebinds each wrapper in the defining module and in every hypsurf module that
imported the name, so nested cross-layer calls (variance_pipeline_bounds ->
bs_statistic, fem_eigensolve called from cli) open their own spans.

Two kinds of wrapper:
- span: records (id, parent, layer, name, task, start, end) in memory;
- hot: counts calls and aggregates time only.  Used for leaf functions that
  run up to millions of times per pass (GroupElement products, disc maps,
  Gauss-Legendre rules, the domain sampler's inner loop).

Self time of a layer is the time during which it is the innermost layer on
the stack: each span's duration minus its child spans and the hot calls of
other layers made directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "variance", "eigensolve", "fuchsian", "geometry", "transforms",
          "observables", "propagators", "quadrature")

# Whole layers whose functions are leaves called from inner loops.
HOT_LAYERS = {"geometry", "quadrature"}
# Hot functions inside span layers.
HOT_NAMES = {"fuchsian.DomainSampler.sample", "fuchsian.DomainSampler.contains",
             "fuchsian.smoothstep_cutoff", "transforms.phi_eval"}
# Public methods traced besides the module-level functions.
METHODS = {"geometry": {"GroupElement": ("compose",)},
           "fuchsian": {"DomainSampler": ("__init__", "sample", "contains")}}


def _observe_orbit(tr, args, kwargs, result, dt):
    tr.count["fuchsian.orbit_calls"] += 1
    tr.count["fuchsian.orbit_elements"] += len(result)


def _observe_injrad(tr, args, kwargs, result, dt):
    tr.count["fuchsian.injrad_queries"] += 1
    tr.count["fuchsian.injrad_hits"] += bool(result)


def _observe_sampler_build(tr, args, kwargs, result, dt):
    tr.count["fuchsian.sampler_builds"] += 1


def _observe_sample(tr, args, kwargs, result, dt):
    tr.count["fuchsian.sampler_samples"] += 1


def _observe_contains(tr, args, kwargs, result, dt):
    if tr.leaf_name == "fuchsian.DomainSampler.sample":
        tr.count["fuchsian.sampler_contains"] += 1


def _observe_compose(tr, args, kwargs, result, dt):
    tr.count["geometry.compose_calls"] += 1


def _observe_mesh(tr, args, kwargs, result, dt):
    tr.count["eigensolve.mesh_s"] += dt
    tr.count["eigensolve.mesh_nodes"] += len(result.points)
    tr.count["eigensolve.stiffness_nnz"] += result.stiffness.nnz


def _observe_solve(tr, args, kwargs, result, dt):
    tr.count["eigensolve.solve_s"] += dt
    tr.count["eigensolve.modes_solved"] += result.n_modes
    tr.count["eigensolve.max_residual"] = max(tr.count["eigensolve.max_residual"],
                                              float(result.residuals.max()))


def _observe_gl(tr, args, kwargs, result, dt):
    tr.count["quadrature.nodes"] += len(result[0])


OBSERVERS = {
    "fuchsian.orbit_enumerate": _observe_orbit,
    "fuchsian.injrad_below": _observe_injrad,
    "fuchsian.DomainSampler.__init__": _observe_sampler_build,
    "fuchsian.DomainSampler.sample": _observe_sample,
    "fuchsian.DomainSampler.contains": _observe_contains,
    "geometry.GroupElement.compose": _observe_compose,
    "eigensolve.disc_surface_mesh": _observe_mesh,
    "eigensolve.torus_mesh": _observe_mesh,
    "eigensolve.fem_eigensolve": _observe_solve,
    "quadrature.gauss_legendre": _observe_gl,
}


class Tracer:
    """Spans and counters of one pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans = []           # [id, parent, layer, name, task, t0, t1, hot_child_s]
        self.stack = []
        self.task = None
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.hot_self = defaultdict(float)
        self.count = defaultdict(float)
        self.leaf_name = None

    # -- wrappers ---------------------------------------------------------
    def _span(self, layer, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.leaf_name is not None:
                self.calls[layer] += 1
                return fn(*args, **kwargs)
            rec = [len(self.spans), self.stack[-1][0] if self.stack else None,
                   layer, name, self.task, 0.0, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(rec)
            self.depth[layer] += 1
            rec[5] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = t1 = time.perf_counter()
                self.stack.pop()
                self.depth[layer] -= 1
                self.calls[layer] += 1
                if self.depth[layer] == 0:
                    self.busy[layer] += t1 - t0
            if observe is not None:
                observe(self, args, kwargs, result, t1 - t0)
            return result
        return wrapper

    def _hot(self, layer, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.leaf_name is not None:
                result = fn(*args, **kwargs)
                self.calls[layer] += 1
                if observe is not None:
                    observe(self, args, kwargs, result, 0.0)
                return result
            self.leaf_name = name
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.leaf_name = None
                self.calls[layer] += 1
                top = self.stack[-1] if self.stack else None
                if top is None or top[2] != layer:
                    if top is not None:
                        top[7] += dt
                    self.hot_self[layer] += dt
                if self.depth[layer] == 0:
                    self.busy[layer] += dt
            if observe is not None:
                observe(self, args, kwargs, result, dt)
            return result
        return wrapper

    def wrap(self, layer, name, fn):
        hot = layer in HOT_LAYERS or name in HOT_NAMES
        return (self._hot if hot else self._span)(layer, name, fn, OBSERVERS.get(name))

    def span(self, layer, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span: for direct library calls."""
        return self._span(layer, name, fn, None)(*args, **kwargs)

    def counted(self, key, fn):
        """fn with every call counted under key (callables passed to the package)."""
        def wrapper(*args, **kwargs):
            self.count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every public function of every layer in all hypsurf modules."""
        modules = {layer: importlib.import_module("hypsurf." + layer) for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replace[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(layer, f"{layer}.{cls_name}.{meth}",
                                                 getattr(cls, meth)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypsurf" or mod_name.startswith("hypsurf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict:
        child = defaultdict(float)
        for sid, parent, layer, name, task, t0, t1, hot in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float, self.hot_self)
        for sid, parent, layer, name, task, t0, t1, hot in self.spans:
            out[layer] += (t1 - t0) - child[sid] - hot
        return out

    def metrics(self) -> dict:
        """Per-layer metrics of the pass as {name: (value, unit)}."""
        self_s = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        c = self.count
        for key in ("fuchsian.orbit_calls", "fuchsian.orbit_elements",
                    "fuchsian.injrad_queries", "fuchsian.sampler_builds",
                    "geometry.compose_calls", "eigensolve.mesh_nodes",
                    "eigensolve.stiffness_nnz", "eigensolve.modes_solved",
                    "transforms.symbol_calls", "quadrature.nodes"):
            out[key] = (c[key], "count")
        out["fuchsian.injrad_hit_ratio"] = (
            c["fuchsian.injrad_hits"] / c["fuchsian.injrad_queries"]
            if c["fuchsian.injrad_queries"] else 0.0, "ratio")
        out["fuchsian.sampler_acceptance"] = (
            c["fuchsian.sampler_samples"] / c["fuchsian.sampler_contains"]
            if c["fuchsian.sampler_contains"] else 0.0, "ratio")
        out["eigensolve.mesh_s"] = (c["eigensolve.mesh_s"], "s")
        out["eigensolve.solve_s"] = (c["eigensolve.solve_s"], "s")
        out["eigensolve.max_residual"] = (c["eigensolve.max_residual"], "rel")
        return out

    def dump(self) -> dict:
        keys = ("id", "parent", "layer", "name", "task", "start", "end", "hot_child_s")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "counters": dict(self.count),
                "calls": dict(self.calls)}

"""Counting and span tracing around decomap's layers, from outside the package.

Two instruments, both installed by rebinding module attributes where the
callers look them up, and both removable:

* `SolverCounter` (on in every pass, traced or not) wraps the two Dykstra
  entry points and records each solve's flavour, iteration count and stop
  reason, read from the returned result: converged, capped (iterations
  reached max_iter) or else stagnated.  One record per solve costs a few
  microseconds against thousands of iterations.
* `Tracer` (traced pass only) records a span for every call of a public
  function of a layer that comes from another layer, for every call of a
  function a per-layer metric names, and for numpy's `eigh` / `eigvalsh`
  as the `kernel` layer.  Spans live in flat in-memory arrays: name, start,
  end, parent span and request id.  `cones._psd_clip` and
  `maps._seesaw_once` call numpy directly, which is why the kernel is
  wrapped in numpy itself; `stormer` and `dykstra` import some functions by
  name, which is why every module's namespace is rebound, not just the
  defining module's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("linalg", "dykstra", "cones", "modular", "maps", "stormer", "cli")
ALL_LAYERS = ("kernel",) + LAYERS
SPLIT, INTERSECT = "dykstra.split_sum", "dykstra.project_intersection"
SELF = ("linalg.psd_project", "linalg.partial_transpose")   # .calls and .self_s
CALLS = ("maps.k_positivity_search", "maps.db_adjoint", "maps.transfer_operator",
         "cones.hull_membership", "cones.cone_membership", "modular.build_modular",
         "stormer.build_local_decomposition")
BUSY = ("maps.k_positivity_search", "maps.db_adjoint", "cones.hull_membership",
        "cones.cone_membership", "modular.build_modular", "modular.check_identities",
        "stormer.build_local_decomposition", "stormer.verify_locdec",
        "stormer.check_prop41", "cli.build_parser", "cli.render_report")
# functions a per-layer metric names: spanned even when called from their own layer
NAMED = {SPLIT, INTERSECT, *SELF, *CALLS, *BUSY}


class SolverCounter:
    """Per-solve outcomes of dykstra.split_sum / project_intersection."""

    def __init__(self):
        self.records: list[tuple[str, int, str]] = []   # (flavour, iterations, stop)
        self._restore = []

    def install(self):
        from decomap import dykstra
        for name, flavour in (("split_sum", "split"), ("project_intersection", "intersect")):
            fn = getattr(dykstra, name)
            setattr(dykstra, name, self._wrap(fn, flavour))
            self._restore.append((dykstra, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def _wrap(self, fn, flavour):
        sig = inspect.signature(fn)
        records = self.records

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            if res.converged:
                stop = "converged"
            elif res.iterations >= call.arguments["max_iter"]:
                stop = "capped"
            else:
                stop = "stagnated"
            records.append((flavour, res.iterations, stop))
            return res
        return counted

    def mark(self) -> int:
        return len(self.records)

    def since(self, mark: int) -> list[tuple[str, int, str]]:
        return self.records[mark:]


class Tracer:
    """In-memory spans at every layer boundary, plus a few result observers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._matrices = [0]            # matrices passed to the kernel
        self.restarts = 0               # k_positivity_search restarts
        self.hull_inside = 0            # hull_membership results inside
        self.current_request = [-1]
        self._stack = [-1]
        self._layer_stack = [-1]
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"decomap.{layer}")
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                home = value.__module__.rsplit(".", 1)[-1]
                if value.__module__ != f"decomap.{home}" or home not in LAYERS \
                        or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{home}.{value.__name__}")
                setattr(module, attr, wrappers[id(value)])
                self._restore.append((module, attr, value))
        for attr in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._wrap(fn, f"kernel.{attr}", kernel=True))
            self._restore.append((np.linalg, attr, fn))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name, kernel=False):
        """Span-recording wrapper.

        A call from inside the same layer records no span (it crosses no
        layer boundary), unless a per-layer metric names the function.
        """
        self.names.append(name)
        nid = len(self.names) - 1
        lid = ALL_LAYERS.index(name.split(".", 1)[0])
        always = name in NAMED
        names, parents, requests = self.span_name, self.parent, self.request
        starts, ends, stack, current = self.start, self.end, self._stack, self.current_request
        layer_stack, matrices = self._layer_stack, self._matrices
        perf = time.perf_counter
        observe = {"maps.k_positivity_search": self._observe_restarts,
                   "cones.hull_membership": self._observe_hull}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and layer_stack[-1] == lid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(current[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            layer_stack.append(lid)
            if kernel:
                shape = args[0].shape
                matrices[0] += 1 if len(shape) == 2 else int(np.prod(shape[:-2]))
            starts[i] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
                layer_stack.pop()
            if observe is not None:
                observe(out)
            return out
        return traced

    def _observe_restarts(self, res):
        self.restarts += res.restarts

    def _observe_hull(self, res):
        self.hull_inside += int(res.inside)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return names, parent, start, end

    def save(self, path):
        names, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), span_name=names, parent=parent,
                 request=np.frombuffer(self.request, dtype=np.int32), start=start, end=end)

    def layer_metrics(self, wall_s, outcomes):
        """Per-layer metrics of the traced pass.

        wall_s is the traced pass's wall time.  The benchmark's own work
        (answer checks, the loop, yardstick slices) is the part of it that
        no program span covers, so the layer self times and `bench.self_s`
        add up to it exactly.  outcomes are the SolverCounter records of the
        pass.
        """
        names, parent, start, end = self.arrays()
        n = len(names)
        dur = end - start
        layer_of_name = np.array([ALL_LAYERS.index(s.split(".", 1)[0]) for s in self.names],
                                 dtype=np.int32)
        layer = layer_of_name[names] if n else np.zeros(0, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        exclusive = dur - children
        per_layer = np.bincount(layer, weights=exclusive, minlength=len(ALL_LAYERS))

        # depth of each span, for level-by-level propagation
        depth = np.zeros(n, dtype=np.int32)
        changed = True
        while changed:
            new = np.where(has_parent, depth[np.maximum(parent, 0)] + 1, 0)
            changed = bool(np.any(new != depth))
            depth = new
        # cross[i]: time of span i spent in other layers (same-layer callees
        # count as the span's own), summed bottom-up level by level
        cross = np.zeros(n)
        for level in range(int(depth.max(initial=0)), 0, -1):
            idx = np.nonzero(depth == level)[0]
            p = parent[idx]
            contrib = np.where(layer[idx] != layer[p], dur[idx], cross[idx])
            np.add.at(cross, p, contrib)
        layer_self = dur - cross
        # which Dykstra flavour (if any) each span runs under
        flavour = np.zeros(n, dtype=np.int8)
        ids = {s: i for i, s in enumerate(self.names)}
        for code, name in ((1, SPLIT), (2, INTERSECT)):
            if name in ids:
                flavour[names == ids[name]] = code
        for level in range(1, int(depth.max(initial=0)) + 1):
            idx = np.nonzero((depth == level) & (flavour == 0))[0]
            flavour[idx] = flavour[parent[idx]]
        is_kernel = layer == 0

        def spans(name):
            return names == ids[name] if name in ids else np.zeros(n, dtype=bool)

        m: dict[str, tuple[float, str]] = {
            "kernel.eigh.calls": (int(is_kernel.sum()), "count"),
            "kernel.eigh.matrices": (self._matrices[0], "count"),
            "kernel.eigh.busy_s": (float(dur[is_kernel].sum()), "s"),
        }
        for name in SELF:
            m[f"{name}.calls"] = (int(spans(name).sum()), "count")
            m[f"{name}.self_s"] = (float(layer_self[spans(name)].sum()), "s")
        for code, (label, name) in enumerate((("split", SPLIT), ("intersect", INTERSECT)), 1):
            rec = [r for r in outcomes if r[0] == label]
            calls = len(rec)
            iters = sum(r[1] for r in rec)
            total = float(dur[spans(name)].sum())
            inner_kernel = float(dur[is_kernel & (flavour == code)].sum())
            m[f"dykstra.{label}.calls"] = (calls, "count")
            m[f"dykstra.{label}.iterations"] = (iters, "count")
            m[f"dykstra.{label}.self_s"] = (float(layer_self[spans(name)].sum()), "s")
            m[f"dykstra.{label}.us_per_iter"] = (total / iters * 1e6 if iters else 0.0, "us")
            m[f"dykstra.{label}.overhead_frac"] = (
                (total - inner_kernel) / total if total else 0.0, "ratio")
            m[f"dykstra.{label}.converged_frac"] = (
                sum(r[2] == "converged" for r in rec) / calls if calls else 0.0, "ratio")
            if label == "split":
                m["dykstra.split.stagnated"] = (sum(r[2] == "stagnated" for r in rec), "count")
            m[f"dykstra.{label}.capped"] = (sum(r[2] == "capped" for r in rec), "count")
        for name in CALLS:
            m[f"{name}.calls"] = (int(spans(name).sum()), "count")
        for name in BUSY:
            m[f"{name}.busy_s"] = (float(dur[spans(name)].sum()), "s")
        hulls = m["cones.hull_membership.calls"][0]
        m["maps.k_positivity_search.restarts"] = (self.restarts, "count")
        m["cones.hull_membership.inside_frac"] = (
            self.hull_inside / hulls if hulls else 0.0, "ratio")
        top = float(dur[~has_parent].sum())
        for i, name in enumerate(ALL_LAYERS):
            m[f"{name}.self_s"] = (float(per_layer[i]), "s")
        m["bench.self_s"] = (wall_s - top, "s")
        m["trace.wall_s"] = (wall_s, "s")
        m["trace.spans"] = (n, "count")
        return m

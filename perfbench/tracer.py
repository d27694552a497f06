"""External per-module tracer for nefmirror.

The tracer wraps the public functions of each layer from outside the
program.  ``from .lattice import convex_hull`` copies the binding into the
importing module, so every module attribute that holds a wrapped function
is rebound, not only the one in its defining module.  Scalar helpers are
left alone: they are called millions of times and their cost is charged
to the caller's self time.

Each wrapper records calls, inclusive time, self time (inclusive time
minus the inclusive time of wrapped callees) and exceptions.  A few
wrappers also key their input to count distinct inputs, or measure the
size of their result.  Spans are kept in memory for every call that
crosses from one layer into another, and written out by the caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("intlin", "lattice", "toric", "nefpart", "invariants", "periods",
          "catalog", "cli")

# Vector and number helpers of intlin that are too small to time.
SCALAR_HELPERS = frozenset({
    "canon_num", "canon_vec", "dot", "vsub", "vadd", "vneg", "vscale",
    "is_integral", "vec_gcd", "primitivize"})


def _points_key(args, kwargs):
    points = args[0] if args else kwargs["points"]
    return frozenset(tuple(p) for p in points)


def _polytope_key(args, kwargs):
    poly = args[0] if args else kwargs["polytope"]
    return poly.vertices


def _partition_key(args, kwargs):
    np_ = args[0] if args else kwargs["nef_partition"]
    return (np_.delta.vertices, np_.parts)


# Input keys for the distinct-input ratios.
KEYS = {
    "lattice.convex_hull": _points_key,
    "toric.mpcp_fan": _polytope_key,
    "nefpart.dualize": _partition_key,
}

# Result sizes: function -> (counter name, size of the result).
SIZES = {
    "lattice.maximal_boundary_triangulation":
        ("lattice.maximal_boundary_triangulation.simplices",
         lambda tri: len(tri.simplices)),
    "lattice.lattice_points": ("lattice.lattice_points.points", len),
    "periods.gkz_data": ("periods.gkz_data.columns", lambda data: len(data.A[0])),
    "invariants.verify_mirror_duality":
        ("invariants.dk_terms", lambda result: len(result[1]["dk_terms"])),
}


def layer_modules():
    return {layer: importlib.import_module("nefmirror." + layer)
            for layer in LAYERS}


def package_modules():
    return [module for name, module in list(sys.modules.items())
            if name == "nefmirror" or name.startswith("nefmirror.")]


def public_functions(module):
    """Functions defined in the module whose names are public, minus the
    scalar helpers."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and name not in SCALAR_HELPERS}


class FunctionStats:
    __slots__ = ("calls", "incl_s", "self_s", "errors", "keys")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.keys = set()


class Tracer:
    """Wraps every public function of every layer; ``install`` and
    ``uninstall`` swap the bindings, so untraced code runs unwrapped."""

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self.spans = []
        self._targets = {}        # qualname -> original, while installed
        self._bindings = []       # (module, attribute name, original)
        self._frames = []         # per active call: [child inclusive time]
        self._layers = []         # per active call: its layer
        self._span_parents = []   # index of the enclosing boundary span

    # -- wiring -------------------------------------------------------------

    def targets(self):
        """qualname -> original function, for every wrapped function."""
        found = {}
        for layer, module in layer_modules().items():
            for name, fn in public_functions(module).items():
                found[f"{layer}.{name}"] = fn
        return found

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        self._targets = self.targets()
        wrappers = {id(fn): self._wrap(qualname, fn)
                    for qualname, fn in self._targets.items()}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []
        self._targets = {}

    def unwrapped_bindings(self):
        """Every place in the package that still holds an original target
        while the tracer is installed: module attributes and the items of
        module-level containers.  Empty means no call path is missed."""
        originals = {id(fn) for fn in self._targets.values()}
        misses = []
        for module in package_modules():
            for attr, value in vars(module).items():
                items = [value]
                if isinstance(value, dict):
                    items.extend(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items.extend(value)
                if any(id(item) in originals for item in items):
                    misses.append(f"{module.__name__}.{attr}")
        return misses

    # -- recording ----------------------------------------------------------

    def _wrap(self, qualname, fn):
        stats = self.stats.setdefault(qualname, FunctionStats())
        layer = qualname.split(".", 1)[0]
        key_of = KEYS.get(qualname)
        size = SIZES.get(qualname)
        by_dim = qualname == "lattice.convex_hull"
        frames, layers, parents, spans = (self._frames, self._layers,
                                          self._span_parents, self.spans)
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_dim:
                # Points may come as a generator; keying must not consume it.
                args = (list(args[0]),) + args[1:] if args else args
                if args and args[0]:
                    name = f"lattice.convex_hull.calls_d{len(args[0][0])}"
                    counters[name] = counters.get(name, 0) + 1
            if key_of is not None:
                stats.keys.add(key_of(args, kwargs))
            boundary = not layers or layers[-1] != layer
            if boundary:
                span = [qualname, parents[-1] if parents else -1, 0.0, 0.0]
                parents.append(len(spans))
                spans.append(span)
            frames.append(0.0)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                child = frames.pop()
                layers.pop()
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - child
                if frames:
                    frames[-1] += elapsed
                if boundary:
                    parents.pop()
                    span[2] = start
                    span[3] = start + elapsed
            if size is not None:
                counter, measure = size
                counters[counter] = counters.get(counter, 0) + measure(result)
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_self_s(self):
        totals = {layer: 0.0 for layer in LAYERS}
        for qualname, stats in self.stats.items():
            totals[qualname.split(".", 1)[0]] += stats.self_s
        return totals

    def function_table(self):
        return {qualname: {"calls": s.calls, "incl_s": s.incl_s,
                           "self_s": s.self_s, "errors": s.errors,
                           "distinct_inputs": len(s.keys) if qualname in KEYS
                           else None}
                for qualname, s in sorted(self.stats.items()) if s.calls}

    def counts(self):
        """Every exact count the trace holds: calls, errors, distinct
        inputs and result sizes.  Two traced passes over the same inputs
        give the same counts."""
        out = dict(self.counters)
        for qualname, s in self.stats.items():
            out[qualname + ".calls"] = s.calls
            out[qualname + ".errors"] = s.errors
            if qualname in KEYS:
                out[qualname + ".distinct"] = len(s.keys)
        return dict(sorted(out.items()))

    def metric(self, name):
        """One per-layer metric by its public name: ``<layer>.self_s``,
        ``<layer>.<function>.<calls|incl_s|self_s|errors|distinct_ratio>``,
        or a counter such as ``invariants.dk_terms``."""
        head, measure = name.rsplit(".", 1)
        if head in LAYERS and measure == "self_s":
            return self.layer_self_s()[head]
        if measure == "distinct_ratio":
            stats = self.stats[head]
            return len(stats.keys) / stats.calls if stats.calls else 0.0
        if measure in FunctionStats.__slots__:
            return getattr(self.stats[head], measure)
        return self.counters.get(name, 0)

    def span_records(self):
        """Spans as [function, index of parent span or -1, start, end]."""
        return [list(span) for span in self.spans]

"""Per-layer tracing by wrapping the package's functions from outside.

Each traced function is replaced, in every module namespace that binds it,
by a wrapper that keeps in-memory aggregates: calls, inclusive time
(outermost activation only, so recursion is not counted twice) and self
time (the span minus the spans of wrapped callees).  Nothing under
``src/`` changes; the aggregates are read out when the sample ends.

The package imports helpers by name (``reduced.inverse_columns``,
``networks._column_sign``), so patching only the defining module would
miss calls.  ``install`` therefore patches every binding it finds and
fails if a binding listed in ``TRACED`` is missing, so that a refactor
which renames or moves a traced function cannot drop out of the trace
silently.
"""

from __future__ import annotations

import functools
import importlib
import time

# metric name -> (module, attribute path, modules that must bind it).
# The attribute path is "Class.method" for methods, patched on the class.
TRACED = {
    "alphabet.commutes": ("alphabet", "CommutationAlphabet.commutes", ()),
    "alphabet.from_coxeter": ("alphabet", "CommutationAlphabet.from_coxeter", ()),
    "poset.build_word_poset": ("poset", "build_word_poset", ("trace", "cli")),
    "poset.adjoin_min": ("poset", "adjoin_min", ("reduced",)),
    "poset.canonical_word": ("poset", "canonical_word", ("reduced", "trace")),
    "poset.count_linear_extensions": ("poset", "count_linear_extensions",
                                      ("reduced", "trace", "cli")),
    "trace.count_class": ("trace", "count_class", ()),
    "coxeter.inverse_columns": ("coxeter", "inverse_columns", ("reduced",)),
    "coxeter.apply_generator": ("coxeter", "apply_generator", ("networks",)),
    "coxeter.matrix_key": ("coxeter", "matrix_key", ("reduced", "networks")),
    "coxeter.delete_left_descent": ("coxeter", "delete_left_descent", ("reduced",)),
    "coxeter.column_sign": ("coxeter", "_column_sign", ("networks",)),
    "coxeter.descents_from_inverse": ("coxeter", "descents_from_inverse", ("reduced",)),
    "coxeter.canonical_form": ("coxeter", "canonical_form", ("reduced", "networks")),
    "coxeter.shortest_non_reduced_prefix": ("coxeter", "shortest_non_reduced_prefix", ()),
    "reduced.count": ("reduced", "ClassCounter.count", ()),
    "reduced.independent_subsets": ("reduced", "_independent_subsets", ()),
    "reduced.wp_set": ("reduced", "wp_set", ()),
    "reduced.count_reduced_words": ("reduced", "count_reduced_words", ()),
    "reduced.oracle_reduced": ("reduced", "oracle_reduced", ()),
    "networks.p_n": ("networks", "p_n", ()),
    "networks.search_M": ("networks", "search_M", ()),
    "cli.run": ("cli", "run", ()),
}

LAYERS = ("alphabet", "poset", "trace", "coxeter", "reduced", "networks", "cli")


class TracingError(RuntimeError):
    """A traced function or one of its expected bindings is missing."""


class Tracer:
    """Aggregates per traced name: [calls, inclusive seconds, self seconds]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}
        self._stack = []  # child-time accumulator of each open span

    def wrap(self, name, fn):
        agg = self.stats[name]
        stack = self._stack
        clock = self.clock
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            agg[0] += 1
            children = [0.0]
            stack.append(children)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                agg[2] += dt - children[0]
                if depth[0] == 0:
                    agg[1] += dt
                if stack:
                    stack[-1][0] += dt

        return traced

    def install(self, package="wordposets"):
        """Wrap every traced function in every module that binds it.

        All bindings are checked before any is patched, so a failure
        leaves the package untouched.
        """
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        modules["__init__"] = importlib.import_module(package)
        patches = []
        for name, (home, path, expected) in TRACED.items():
            owner = modules[home]
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    raise TracingError(f"{home}.{path} is missing")
                patches.append((name, [cls], attr, raw))
                continue
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise TracingError(f"{home}.{attr} is missing")
            binders = [mod for mod in modules.values()
                       if any(value is fn for value in vars(mod).values())]
            for label in expected:
                if modules[label] not in binders:
                    raise TracingError(f"{label} no longer binds {home}.{attr}")
            patches.append((name, binders, attr, fn))
        for name, targets, attr, fn in patches:
            if isinstance(fn, classmethod):
                setattr(targets[0], attr, classmethod(self.wrap(name, fn.__func__)))
                continue
            wrapped = self.wrap(name, fn)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, key, wrapped)

    def metrics(self):
        """Per name ``.calls`` and ``.self_s``, and ``<layer>.self_s``."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            layer_self[name.split(".")[0]] += self_s
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        return out

"""In-memory call tracing for the benchmark's traced runs.

The tracer wraps named functions of the ``viewflux`` package from outside:
each wrapper replaces the function in every module namespace that binds it
(``from .closure import power_view`` makes a second binding in the importing
module), so all call sites go through it.  Per name it aggregates the call
count, the total time and the self time (total time minus the time spent in
wrapped callees).  No individual span is stored: the ``{a,b,c}`` check makes
more than ten million wrapped calls.

Recursive calls of a wrapped function (``queries.evaluate`` calls itself)
count as calls of their own, so self time stays exact.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from time import perf_counter

#: (module, attribute) -> traced name, for plain timed functions.
TIMED = {
    ("closure", "closed_subsets"): "closure.closed_subsets",
    ("closure", "total_object"): "closure.total_object",
    ("closure", "generating_queries"): "closure.generating_queries",
    ("closure", "meet_closed"): "closure.meet_closed",
    ("core", "subset_instances"): "core.subset_instances",
    ("queries", "evaluate"): "queries.evaluate",
    ("morphisms", "semantic_homset"): "morphisms.semantic_homset",
    ("morphisms", "semantic_arrow"): "morphisms.semantic_arrow",
    ("morphisms", "compose"): "morphisms.compose",
    ("morphisms", "identity"): "morphisms.identity",
    ("morphisms", "invert"): "morphisms.invert",
    ("catops", "matching"): "catops.matching",
    ("catops", "merging"): "catops.merging",
    ("catops", "merge_arrow"): "catops.merge_arrow",
    ("catops", "tensor_arrow"): "catops.tensor_arrow",
    ("catops", "coproduct"): "catops.coproduct",
    ("catops", "tagged_flux"): "catops.tagged_flux",
    ("topos", "distance"): "topos.distance",
    ("topos", "is_pullback_square"): "topos.is_pullback_square",
    ("topos", "coproduct_pullback_check"): "topos.coproduct_pullback_check",
    ("topos", "pullback"): "topos.pullback",
    ("topos", "metric_suite"): "topos.metric_suite",
    ("topos", "negative_probes"): "topos.negative_probes",
    ("topos", "classifier"): "topos.classifier",
    ("formats", "load_instance"): "formats.load_instance",
    ("formats", "render_instance"): "formats.render_instance",
}

#: (module, attribute) -> traced name, for functions that are only counted.
COUNTED = {
    ("closure", "is_closed"): "closure.is_closed",
    ("core", "universe_relations"): "core.universe_relations",
}

#: (module, class, method) -> traced name, for methods that are only counted.
COUNTED_METHODS = {
    ("core", "Instance", "__post_init__"): "core.instance",
    ("core", "Relation", "__repr__"): "core.relation_repr",
}

POWER_VIEW = "closure.power_view"
CONTEXT = "suites.context"
LAW_PREFIX = "suites.law."


def _law_names(suites) -> dict[int, str]:
    """Map each law function of ``suites`` to its short name.

    The short name is the module attribute without its ``law_`` prefix, so
    ``law_coproduct_pullback`` is ``coproduct_pullback``.
    """
    return {
        id(value): attr[len("law_"):]
        for attr, value in vars(suites).items()
        if attr.startswith("law_")
    }


class Tracer:
    """Aggregated call statistics: name -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self.power_view_seen: set = set()
        self.power_view_split = {"hit_s": 0.0, "miss_s": 0.0}
        self._counted: set[str] = set()

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def timed(self, name: str, fn):
        """Wrap ``fn`` so each call adds to the count, total and self time."""
        stat = self._stat(name)
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            # A generator does its work across next() calls, so each resume
            # is timed; the call itself is counted once.
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - start
                        child = stack.pop()
                        stat[1] += elapsed
                        stat[2] += elapsed - child
                        if stack:
                            stack[-1] += elapsed
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call is counted; its time stays with the caller."""
        stat = self._stat(name)
        self._counted.add(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def power_view(self, fn):
        """Wrap ``closure.power_view``, splitting its time into hits and misses.

        A call is a miss when its input relation set (with its configuration)
        has not been seen before in this process.
        """
        stat = self._stat(POWER_VIEW)
        stack = self._stack
        seen = self.power_view_seen
        split = self.power_view_split

        def wrapper(inst, cfg):
            key = (inst.relations, cfg)
            miss = key not in seen
            if miss:
                seen.add(key)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(inst, cfg)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                split["miss_s" if miss else "hit_s"] += elapsed
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self, package) -> None:
        """Wrap every traced name of ``package`` (the imported ``viewflux``)."""
        modules = _package_modules(package)
        replacements = {}
        for (mod, attr), name in TIMED.items():
            fn = getattr(modules[mod], attr)
            replacements[id(fn)] = (fn, self.timed(name, fn))
        for (mod, attr), name in COUNTED.items():
            fn = getattr(modules[mod], attr)
            replacements[id(fn)] = (fn, self.counted(name, fn))
        pv = modules["closure"].power_view
        replacements[id(pv)] = (pv, self.power_view(pv))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        for (mod, cls, method), name in COUNTED_METHODS.items():
            klass = getattr(modules[mod], cls)
            setattr(klass, method, self.counted(name, getattr(klass, method)))
        suites = modules["suites"]
        names = _law_names(suites)
        for fns in suites.SUITES.values():
            for i, fn in enumerate(fns):
                fns[i] = self.timed(LAW_PREFIX + names[id(fn)], fn)
        context = suites.SuiteContext
        context.__init__ = self.timed(CONTEXT, context.__init__)

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics, named as in the benchmark definition.

        Timed names give ``<name>.calls`` and ``<name>.self_s``, counted names
        only ``<name>.calls``, and the suite set-up and each law their total
        time as ``<name>_s``.  ``closure.power_view`` gives its call count,
        the number of distinct inputs, the hit ratio and the time of hits and
        of misses.
        """
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            if name == CONTEXT or name.startswith(LAW_PREFIX):
                out[name + "_s"] = total
                continue
            out[name + ".calls"] = calls
            if name not in self._counted and name != POWER_VIEW:
                out[name + ".self_s"] = self_s
        calls = self.stats.get(POWER_VIEW, [0])[0]
        distinct = len(self.power_view_seen)
        out[POWER_VIEW + ".distinct"] = distinct
        out[POWER_VIEW + ".hit_ratio"] = (calls - distinct) / calls if calls else 0.0
        for key, value in self.power_view_split.items():
            out[f"{POWER_VIEW}.{key}"] = value
        return out


def _package_modules(package) -> dict:
    """The package itself plus each of its submodules, by short name."""
    modules = {"__init__": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return modules

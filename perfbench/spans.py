"""Per-module spans, recorded from outside the program.

install() replaces every public function of the survey modules, in every
module namespace that holds it, by one wrapper that times the call.  A
function imported into several modules (howell_array, ring_make,
smith_diagonalize, ...) is therefore timed wherever it is called from, under
its home module's name.  A span's self time is its duration minus the
durations of the spans it directly encloses; a span nested in one of the
same name (compute_fitting_ideal retrying itself) is not an outermost call.
"""

import inspect
import time
from dataclasses import dataclass, field

import numpy as np

SURVEY_MODULES = ("arith", "quadforms", "iwasawa", "cycunits", "criteria",
                  "cli")


@dataclass
class SpanStats:
    calls: int = 0
    outer_calls: int = 0
    total_s: float = 0.0  # over outermost calls
    self_s: float = 0.0  # over all calls
    counts: dict = field(default_factory=dict)  # see _observe


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []  # child time accumulated per open span
        self._depth = {}  # open spans per name

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        children, depth = self._children, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                depth[name] -= 1
                stats.calls += 1
                stats.self_s += elapsed - inner
                if outer:
                    stats.outer_calls += 1
                    stats.total_s += elapsed
            if outer:
                for key, value in _observe(name, args, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced


def _observe(name, args, result):
    """Counts read off an outermost call's arguments and result."""
    if name == "arith.howell_array":
        a = np.asarray(args[0])
        return {"rows_in": a.size // a.shape[-1] if a.size else 0}
    if name == "cycunits.ingest_table":
        return {"lines": len(result)}
    if name in ("cli.scan_quadratic", "cli.scan_cubic"):
        return {"records": len(result)}
    if name == "cycunits.compute_fitting_ideal":
        # batches of 4 aux primes; the last stabilization_count of them
        # left the ideal unchanged
        batches = len(result.aux_primes_used) // 4
        return {"aux_primes": len(result.aux_primes_used),
                "batches": batches,
                "changing_batches": batches - result.stabilization_count}
    return {}


def install(tracer, package):
    """Wrap the public functions of package's survey modules in place."""
    modules = [getattr(package, name) for name in SURVEY_MODULES]
    wrapped = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            home = getattr(obj, "__module__", None) or ""
            if (attr.startswith("_") or inspect.isclass(obj)
                    or inspect.ismodule(obj) or not callable(obj)
                    or not home.startswith(package.__name__ + ".")):
                continue
            if id(obj) not in wrapped:
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                wrapped[id(obj)] = tracer.wrap(name, obj)
            setattr(mod, attr, wrapped[id(obj)])

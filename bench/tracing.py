"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` wraps every public function of galedisc's library
modules, and `MPoly.evaluate`, in a span, and patches each wrapper in
wherever the original is bound: in its defining module and in every
galedisc module that imported it by name.  A span's self time is its
duration minus the time covered by the spans it encloses.  The two private
determinant engines of `mpoly`, when they exist, are only counted, to show
which engine ran; their time stays in the resultant's self time.
Untraced runs never import this module, so they carry no instrumentation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("intmat", "mpoly", "parametrization", "basepoints", "degree", "discriminant")
# Modules that import from the layers by name; patched, not traced.
IMPORTERS = ("galedisc", "galedisc.cli")
ENGINES = {"_det_by_interpolation": "engine_interpolation", "_det_bareiss_poly": "engine_bareiss"}


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []  # child time accumulated by each open span
        self.size_max = 0  # largest Sylvester matrix, dp + dq
        self.coeff_bits_max = 0  # largest coefficient of a resultant
        self.base_point_count = 0

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                # Bookkeeping outside the span is charged to no layer.
                t1 = perf_counter()
                after(args, out)
                if stack:
                    stack[-1] += perf_counter() - t1
            return out

        return wrapper

    def _count(self, name, fn):
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_resultant(self, args, out):
        p, q, var = args
        self.size_max = max(self.size_max, p.degree_in(var) + q.degree_in(var))
        bits = max((abs(c).bit_length() for c in out.terms.values()), default=0)
        self.coeff_bits_max = max(self.coeff_bits_max, bits)

    def _after_base_points(self, args, out):
        self.base_point_count += len(out)

    def install(self):
        """Patch the wrappers in."""
        modules = [importlib.import_module("galedisc." + m) for m in LAYERS]
        modules += [importlib.import_module(m) for m in IMPORTERS]
        after = {
            "mpoly.sylvester_resultant": self._after_resultant,
            "basepoints.base_points": self._after_base_points,
        }
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module("galedisc." + layer)
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in ENGINES:
                    continue
                if attr in ENGINES:
                    wrapper = self._count("%s.%s" % (layer, ENGINES[attr]), fn)
                else:
                    name = "%s.%s" % (layer, attr)
                    wrapper = self._wrap(name, fn, after.get(name))
                replace[id(fn)] = (fn, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        mpoly = importlib.import_module("galedisc.mpoly")
        mpoly.MPoly.evaluate = self._wrap("mpoly.MPoly.evaluate", mpoly.MPoly.evaluate)

    def charge_to_none(self, seconds):
        """Keep time spent outside the program (a reference sample) out of
        the self time of the span it interrupted."""
        if self.stack:
            self.stack[-1] += seconds

    def calls(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def self_s(self, name):
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

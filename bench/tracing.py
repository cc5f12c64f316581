"""In-memory tracing of the library's layers, from outside the library.

``install`` replaces the public functions of each ``pastures`` module with
wrappers, everywhere the function object is bound (its own module and every
module that imported it by name).  A *span* wrapper records calls, total
time and self time, the span's duration minus the durations of the spans it
encloses.  A *counted* wrapper, used for the hottest functions, records calls
only: it costs one dict update per call instead of two clock reads, and its
time stays in the enclosing span's self time.

Spans are aggregated per function as they close, so a traced round keeps a
few hundred numbers in memory however many calls it makes.  A function that
no longer exists is listed in ``missing`` and its metrics are reported as
missing (``None``) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("gf", "groups", "pasture", "hexagons", "lifts", "morphisms",
           "matroids", "expr", "verify", "cli")

# Called up to millions of times per round: counted, not timed.
COUNTED = (
    "gf.GF.__init__",
    "groups.evaluate_word",
    "pasture.unit",
    "pasture.canonical_orbit",
    "pasture.Pasture.mul",
    "pasture.Pasture.inv",
    "pasture.Pasture.null_contains",
    "hexagons.is_fundamental",
    "hexagons.sigma",
    "hexagons.rho",
)

# Methods traced besides the public module-level functions.
METHODS = ("matroids.Matroid.from_bases",)


class Tracer:
    def __init__(self):
        self.calls = {}          # name -> calls, spans and counted alike
        self.total = {}          # name -> seconds, spans only
        self.self_time = {}      # name -> seconds, spans only
        self.extra = {}          # derived counts, see EXTRAS
        self.missing = []
        self._stack = []         # [name, seconds covered by child spans]

    def active(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    def span(self, name, fn, extra=None):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter
        calls[name] = 0
        total[name] = 0.0
        self_time[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[1]
            if extra is not None:
                extra(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self):
        return [dict(d) for d in (self.calls, self.total, self.self_time,
                                  self.extra)]

    def restore(self, snap):
        """Forget what happened since ``snap``: the benchmark's own checks
        call the library too, and their work is not the workload's."""
        for d, saved in zip((self.calls, self.total, self.self_time,
                             self.extra), snap):
            d.clear()
            d.update(saved)

    def report(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total),
                "self_s": dict(self.self_time), "extra": dict(self.extra),
                "missing": list(self.missing)}


# -- derived counts -------------------------------------------------------------


def _snf_cells(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    width = args[1] if len(args) > 1 else kwargs["width"]
    tracer.add("groups.smith_normal_form.cells", len(rows) * width)


def _hom_candidates(tracer, args, kwargs, result):
    tracer.add("groups.enumerate_homs.candidates", len(result))
    if tracer.active("morphisms.hom_set"):
        tracer.add("morphisms.hom_set.candidates", len(result))


def _hom_returned(tracer, args, kwargs, result):
    tracer.add("morphisms.hom_set.returned", len(result))


def _classes(tracer, args, kwargs, result):
    tracer.add("matroids.representation_classes.classes", len(result))
    tracer.add("matroids.representation_classes.members",
               sum(len(c.members) for c in result))


EXTRAS = {
    "groups.smith_normal_form": _snf_cells,
    "groups.enumerate_homs": _hom_candidates,
    "morphisms.hom_set": _hom_returned,
    "matroids.representation_classes": _classes,
}


# -- installation -----------------------------------------------------------------


def _rebind(old, new):
    """Point every binding of ``old`` in the package's modules at ``new``,
    including the values of module-level dicts (dispatch tables)."""
    for name, mod in list(sys.modules.items()):
        if name != "pastures" and not name.startswith("pastures."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def _public_functions(mod):
    for attr, value in vars(mod).items():
        if attr.startswith("_") or inspect.isclass(value):
            continue
        if not callable(value) or getattr(value, "__module__", None) != mod.__name__:
            continue
        yield attr, value


def _wrap(tracer, name, fn):
    if name in COUNTED:
        return tracer.counted(name, fn)
    return tracer.span(name, fn, EXTRAS.get(name))


def install() -> Tracer:
    """Wrap the package's public functions and the listed methods; return
    the tracer that collects their statistics."""
    tracer = Tracer()
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"pastures.{short}")
        except ImportError:
            tracer.missing.append(short)
    for short, mod in mods.items():
        for attr, fn in list(_public_functions(mod)):
            _rebind(fn, _wrap(tracer, f"{short}.{attr}", fn))
    for name in METHODS + COUNTED:
        short, *owner, meth = name.split(".")
        if not owner:
            if name not in tracer.calls:
                tracer.missing.append(name)
            continue
        cls = getattr(mods.get(short), owner[0], None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            tracer.missing.append(name)
        elif isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(_wrap(tracer, name, raw.__func__)))
        else:
            setattr(cls, meth, _wrap(tracer, name, raw))
    return tracer

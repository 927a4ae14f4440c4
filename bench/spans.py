"""Span tracing of flatspec's public functions, from outside the package.

``Tracer.install`` replaces each named function by a wrapper in every
``flatspec`` module namespace that holds it, so that calls through
``from .x import f`` bindings are traced too.  Spans stay in memory as
``(name index, start ns, end ns, parent span)``; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import operator
import sys
import time

# Functions wrapped in a traced run, as "<module>.<name>" under flatspec.
# The corpus, JSON and CLI entries are wrapped so that CLI self time
# excludes library calls; they get no metric of their own except the CLI.
TRACED = (
    "crystal.close_point_group",
    "crystal.check_torsion_condition",
    "crystal.validate_bieberbach",
    "crystal.first_homology",
    "crystal.group_from_json",
    "corpus.example",
    "exact_linear.trace_p",
    "exact_linear.det",
    "exact_linear.smith_normal_form",
    "exact_linear.integer_kernel",
    "spectral.enumerate_fixed_shell",
    "spectral.character_sum",
    "spectral.multiplicity",
    "spectral.reduce_tally",
    "spectral.betti_row",
    "spectral.multiplicity_table",
    "isospec.compare_spectra",
    "isospec.is_orientable",
    "cli.run",
    "cli.main",
)

# lru caches whose hit ratio is reported
HIT_RATIO = ("spectral.character_sum", "spectral.multiplicity")
# modules whose lru cache sizes are summed
CACHE_LAYERS = ("spectral", "crystal")


# Counters taken from a traced function's arguments and result:
# qualname -> (counter suffix, value of one call, fold of two values)
COUNTERS = {
    "spectral.enumerate_fixed_shell": ("vectors", lambda args, result: len(result), operator.add),
    "spectral.reduce_tally": ("max_modulus", lambda args, result: args[0].modulus, max),
}


def _flatspec_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "flatspec" or name.startswith("flatspec."))
    ]


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self.absent: list[str] = []
        self.cached: dict[str, list] = {}

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records one span per call."""
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (idx, start, clock(), parent)
                stack.pop()
            if counter is not None:
                suffix, value, fold = counter
                key = f"{name}.{suffix}"
                counters[key] = fold(counters.get(key, 0), value(args, result))
            return result

        return wrapper

    def install(self, qualnames=TRACED) -> None:
        """Wrap each existing function; a missing one is recorded as absent."""
        import importlib

        for layer in CACHE_LAYERS:
            module = importlib.import_module(f"flatspec.{layer}")
            self.cached[layer] = [
                value for value in vars(module).values()
                if hasattr(value, "cache_info") and value.__module__ == module.__name__
            ]
        for qualname in qualnames:
            module_name, _, attr = qualname.rpartition(".")
            try:
                module = importlib.import_module(f"flatspec.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(qualname)
                continue
            wrapper = self.wrap(qualname, fn)
            self.originals[qualname] = fn
            for mod in _flatspec_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """JSON-able per-process totals, merged across processes by ``merge``."""
        caches = {}
        for qualname in HIT_RATIO:
            fn = self.originals.get(qualname)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                caches[qualname] = [info.hits, info.misses]
        entries = {
            layer: sum(fn.cache_info().currsize for fn in fns)
            for layer, fns in self.cached.items()
        }
        return {
            "funcs": self_times(self.names, self.spans),
            "counters": dict(self.counters),
            "caches": caches,
            "cache_entries": entries,
            "absent": list(self.absent),
        }


def self_times(names, spans) -> dict[str, list[int]]:
    """name -> [calls, self ns], from the nested spans."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for slot, (idx, start, end, _) in enumerate(spans):
        entry = out.setdefault(names[idx], [0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[slot]
    return out


def merge(summaries: list[dict]) -> dict:
    """Sum calls, self time, cache counts and CLI import time across
    processes; fold counters by their own rule; take the peak cache size."""
    total = {"funcs": {}, "counters": {}, "caches": {}, "cache_entries": {},
             "absent": set(), "cli_import_ns": 0}
    folds = {f"{name}.{suffix}": fold for name, (suffix, _, fold) in COUNTERS.items()}
    for s in summaries:
        for name, (calls, ns) in s["funcs"].items():
            entry = total["funcs"].setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += ns
        for name, value in s["counters"].items():
            total["counters"][name] = folds[name](total["counters"].get(name, 0), value)
        for name, (hits, misses) in s["caches"].items():
            entry = total["caches"].setdefault(name, [0, 0])
            entry[0] += hits
            entry[1] += misses
        for layer, size in s["cache_entries"].items():
            total["cache_entries"][layer] = max(total["cache_entries"].get(layer, 0), size)
        total["absent"].update(s["absent"])
        total["cli_import_ns"] += s.get("cli_import_ns", 0)
    total["absent"] = sorted(total["absent"])
    return total

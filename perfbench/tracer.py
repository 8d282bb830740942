"""Span tracing of delayedbp from outside the package.

``Tracer.install`` wraps every public function of the package's modules at
every module attribute it is bound to (``delayedbp.spectral.pf_decompose``
and ``delayedbp.malthusian.pf_decompose`` get the same wrapper), so a call
made through any of those names opens a span whose parent is the innermost
open span.  ``uninstall`` puts every original object back.  No source file
is edited.

Spans are kept in memory as (name, start, end, parent, op) tuples; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "model", "spectral", "malthusian", "recursion", "paths",
           "simulate")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.sampling: list[tuple[dict, int, int]] = []  # (beta, s, samples)
        self.patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def targets(self) -> dict[int, tuple[object, str]]:
        """id(function) -> (function, span name) for every public function
        defined in one of the package's modules."""
        out = {}
        for short in MODULES:
            mod = sys.modules[f"delayedbp.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    out[id(obj)] = (obj, f"{short}.{obj.__name__}")
        return out

    def install(self) -> None:
        targets = self.targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "delayedbp"
                                   or mod_name.startswith("delayedbp.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self.patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.patched):
            setattr(mod, attr, obj)
        self.patched.clear()

    def _wrap(self, fn, name):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    # -- counters read where the work happens -----------------------------

    def _count_recursion_evolve_means(self, args, kwargs, result):
        self.counts["recursion.steps"] += _arg(args, kwargs, 2, "horizon") + 1

    def _count_paths_enumerate_words(self, args, kwargs, result):
        self.counts["paths.words"] += len(result)

    def _count_paths_xi_by_sampling(self, args, kwargs, result):
        mal = _arg(args, kwargs, 1, "mal")
        s = _arg(args, kwargs, 2, "s")
        self.sampling.append((dict(mal.beta), s, result.n_samples))
        self.counts["paths.samples"] += result.n_samples

    def _count_simulate_ensemble(self, args, kwargs, result):
        self.counts["simulate.replicas"] += _arg(args, kwargs, 2, "replicas")
        self.counts["simulate.used_replicas"] += result.replicas

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k]
                for k, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": n, "self_s": total self time}}."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            cell = out[span[0]]
            cell["calls"] += 1
            cell["self_s"] += self_s
        return dict(out)

    def nested_calls(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with a span named ``outer`` among their ancestors."""
        count = 0
        for name, _, _, parent, _ in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

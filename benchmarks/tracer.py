"""Outside-in span tracer for the covchan modules.

Every public function of the traced modules is replaced, at every module
attribute that binds it, by a wrapper that records a span (name, start, end,
parent span, item id).  Rebinding every attribute matters: calls reach the
library through module attributes (``mc.choi_of``), through names imported
into other modules (``from .covariant import partial_shift``), through the
package re-exports, and through a module's own globals, and each of those is
a separate binding of the same function object.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "channels", "covariant", "capacity", "timing",
    "fock", "serialize", "cli", "generate",
)

ROOT_SPAN = "bench.item"  # the benchmark's own span around one item


def _count_choi_bytes(counts, args, kwargs, result):
    chan = args[0] if args else kwargs["channel"]
    counts["channels.choi_bytes"] += 16 * (chan.dim_in * chan.dim_out) ** 2


def _count_sectors(counts, args, kwargs, result):
    counts["covariant.sectors"] += len(result.sectors)


def _count_mc_samples(counts, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    counts["fock.mc_samples"] += params.mc_samples


def _count_bytes_in(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["serialize.bytes_in"] += os.path.getsize(path)


def _count_bytes_out(counts, args, kwargs, result):
    counts["serialize.bytes_out"] += len(result.encode("utf-8"))


# Work counters computed from a traced call's arguments or result.
COUNTERS = {
    "channels.choi_of": _count_choi_bytes,
    "covariant.decompose": _count_sectors,
    "fock.monte_carlo_channel": _count_mc_samples,
    "serialize.load_json": _count_bytes_in,
    "serialize.dumps": _count_bytes_out,
}


def public_functions(module):
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Records spans for calls into covchan while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self.counts = defaultdict(int)
        self.item = "setup"
        self.recording = True  # False while oracles run between items
        self._stack = []
        self._patches = []  # (owner module, attribute, original)

    # -- span recording -------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every public function of the traced modules to a wrapper."""
        if self._patches:
            return
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"covchan.{short}")
            for fname, fn in public_functions(mod).items():
                originals[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "covchan" or n.startswith("covchan."))]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- aggregation ----------------------------------------------------

    def self_times(self):
        """Per-span self time in seconds, aligned with ``self.spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def totals(self):
        """{name: (calls, self seconds, total seconds)} over all spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += span[2] - span[1]
        return {n: (calls[n], self_s[n], total_s[n]) for n in calls}

    def write_spans(self, path):
        """Write the spans as tab-separated lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\titem\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i}\t{item}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")

"""Spans around qsync's public functions, for the traced benchmark run.

`Tracer.install` rebinds every public function of the five modules (`cli`,
`models`, `lindblad`, `opalg`, `syncmeter`) at every `qsync.*` attribute that
is bound to it, for example `qsync.cli.evolve`, `qsync.lindblad.partial_trace`
and `qsync.syncmeter.fit_oscillation`, so calls from one module into another
are seen.  `Tracer.uninstall` puts the original functions back.

A reference held somewhere rebinding cannot reach is not traced.  The one
that matters is cli's `_MODEL_BUILDERS` table: model builds run inside
`cli.run_scenario`'s self time, and run.py times the build functions by
calling them directly instead.

Spans are kept in memory as (name, start, end, parent, op) and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; spans are properly nested (one thread), so that is the
sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "models", "lindblad", "opalg", "syncmeter")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.active = False
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [importlib.import_module("qsync")]
        modules += [importlib.import_module(f"qsync.{m}") for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules[1:]):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def bound_sites(self) -> int:
        return len(self._saved)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

"""Span tracing of the program's layers, installed from outside the program.

`Tracer.installed()` replaces every public module-level function of the
traced coarseops modules, and the callback of every `cli` subcommand, by a
wrapper that records one span per call: the layer's name, the span that
was open when it was called, and its start and end times.  The wrapper is
put wherever a caller looks the function up (every coarseops module that
imported it by name), and the originals come back when the block ends.

Spans sit in flat arrays while the pass runs; `layer_totals` turns them
into per-layer self time (a span's duration minus that of its children)
and call counts, and `write` saves them.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np

TRACED_MODULES = ("thermo", "protocol", "engine", "paths", "bounds",
                  "characterize", "cli")
# Layers whose results the benchmark inspects after the pass, so that the
# counting is not charged to the span that called them.
KEEP_RESULTS = ("engine.exact_work_distribution", "engine.monte_carlo")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list[int] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP_RESULTS}

    def wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        keep = name in KEEP_RESULTS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = clock()
                stack.pop()
            if keep:
                self.kept[name].append((args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every public function of the traced modules for the block."""
        modules = [importlib.import_module(f"coarseops.{m}")
                   for m in TRACED_MODULES]
        package = importlib.import_module("coarseops")
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        patched = []
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)][1])
        cli = modules[TRACED_MODULES.index("cli")]
        commands = list(cli.main.commands.values())
        callbacks = [(c, c.callback) for c in commands]
        for command, callback in callbacks:
            command.callback = self.wrap(f"cli.{command.name}", callback)
        try:
            yield self
        finally:
            for command, callback in callbacks:
                command.callback = callback
            for namespace, attr, obj in patched:
                setattr(namespace, attr, obj)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self seconds and calls per layer name over the recorded spans."""
        names = np.array(self.span_name, dtype=np.int32)
        parents = np.array(self.span_parent, dtype=np.int32)
        duration = (np.array(self.span_end, dtype=np.float64)
                    - np.array(self.span_start, dtype=np.float64))
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent],
                               weights=duration[has_parent],
                               minlength=len(duration))
        self_time = duration - children
        n = len(self.names)
        seconds = np.bincount(names, weights=self_time, minlength=n)
        calls = np.bincount(names, minlength=n)
        return {name: (float(seconds[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Save the recorded spans; the layer names go in as JSON."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            span_name=np.array(self.span_name, dtype=np.int32),
            span_parent=np.array(self.span_parent, dtype=np.int32),
            span_start=np.array(self.span_start, dtype=np.float64),
            span_end=np.array(self.span_end, dtype=np.float64),
        )

"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside the library, every public function of each
layer module of ``ergosmp`` (the names in the module's ``__all__``, or for a
module without one its public functions) plus ``ControlLaw.evaluate``.  A
function imported by name into several modules (``simulate_state`` is bound in
``forward``, ``adjoint``, ``smp``, ``duality``, ``cli``, ``ergodic_cost`` and
the package itself) is replaced in every one of those namespaces, so calls made
through any binding are seen.

Each call becomes one span (name, start, end, parent).  A span's self time is
its duration minus the time covered by its child spans; a layer's self time
is the sum over its spans, so the layer self times plus the time outside all
spans add up to the traced wall time exactly.  Calls run on one thread: the
workloads use ``workers=1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("model", "config", "forward", "adjoint", "ergodic_cost", "duality", "smp", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Recorder:
    """Wraps layer functions while installed and keeps their spans in memory.

    ``hooks`` maps a span name to ``fn(recorder, span, args, kwargs, result)``,
    which adds work counts measured at that boundary to ``recorder.counts``.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []
        self.counts = {}
        self._stack = []
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, clock(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                self.spans.append(span)
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding of every layer's public functions."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        targets = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"ergosmp.{layer}"]
            names = getattr(module, "__all__", None)
            if names is None:
                names = [k for k in vars(module) if not k.startswith("_")]
            for attr in names:
                obj = getattr(module, attr)
                if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
                    targets[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ergosmp" or mod_name.startswith("ergosmp.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, obj))
        control_law = sys.modules["ergosmp.model"].ControlLaw
        original = control_law.__dict__["evaluate"]
        control_law.evaluate = self._wrap("model.ControlLaw.evaluate", original)
        self._restore.append((control_law, "evaluate", original))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    def clear(self):
        self.spans = []
        self.counts = {}

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- summaries ----------------------------------------------------------

    def self_time(self, *names):
        wanted = set(names)
        return sum(s.self_time for s in self.spans if s.name in wanted)

    def total_time(self, *names):
        wanted = set(names)
        return sum(s.duration for s in self.spans if s.name in wanted)

    def layer_self_times(self):
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += s.self_time
        return out

    def root_time(self):
        return sum(s.duration for s in self.spans if s.parent is None)

    def dump(self, path, t0=0.0):
        """Write the spans as JSON lines (start/end relative to t0)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": index.get(id(s.parent)),
                }) + "\n")

"""In-memory tracing of the qudit_mermin modules, installed from outside.

The package is not edited: ``install`` replaces chosen functions with timing
wrappers in every namespace that binds them, so names imported into other
modules (``run_search`` in ``hidden_variables``/``generalized``,
``compare_real_coeffs`` in ``_enumeration``, ``exhaustive_search`` in
``cli``, the package re-exports) go through the wrapper too.

Two kinds of target:

* span targets record one span per call (name, request, parent, start, end,
  self time) besides their aggregate;
* hot targets (ring arithmetic with millions of calls) record only the
  aggregate: calls, total time and self time.

Self time is a call's duration minus the time of the traced calls nested in
it, whichever kind they are. Everything stays in memory until the caller
writes it out. Spans inside forked pool workers are not collected.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        # name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.request = None
        # frames: [child_s, enclosing span id]
        self._stack: list[list] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body, such as one CLI command."""
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        self.active[name] += 1
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.active[name] -= 1
            duration = end - start
            self_s = duration - frame[0]
            if self._stack:
                self._stack[-1][0] += duration
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s
            self.spans.append(
                {
                    "id": frame[1],
                    "name": name,
                    "request": self.request,
                    "parent": parent,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                }
            )

    def wrap(self, name: str, fn, keep_span: bool, hook=None):
        """Timing wrapper for ``fn``; ``hook(tracer, args, result)`` runs after."""
        if keep_span:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result

            return wrapper

        # Hot path: the same accounting as span(), inlined, with no span record.
        stack = self._stack
        entry = self.stats[name]

        @functools.wraps(fn)
        def hot_wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
            if hook is not None:
                hook(self, args, result)
            return result

        return hot_wrapper


def _namespaces(package: str):
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (
            mod_name == package or mod_name.startswith(package + ".")
        ):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__.startswith(package):
                    yield value


def install(tracer: Tracer, targets, package: str = "qudit_mermin"):
    """Wrap each target everywhere it is bound; return a function that undoes it.

    ``targets`` holds ``(name, owner, attribute, keep_span, hook)`` tuples,
    where ``owner`` is the module or class that defines the attribute.
    """
    namespaces = list(dict.fromkeys(_namespaces(package)))
    undo = []
    for name, owner, attribute, keep_span, hook in targets:
        original = vars(owner)[attribute]
        wrapper = tracer.wrap(name, original, keep_span, hook)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    undo.append((namespace, key, original))

    def uninstall() -> None:
        for namespace, key, original in reversed(undo):
            setattr(namespace, key, original)

    return uninstall

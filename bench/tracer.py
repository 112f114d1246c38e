"""Span tracer that wraps library functions from outside the library.

``Tracer.install`` replaces each listed function, in every module
namespace that binds it, with a wrapper that records a span: call id,
parent call id, name, start and end in nanoseconds, and the class name
of any exception that escaped.  Spans stay in memory until ``write``.
A listed function that the library no longer defines is reported as
absent; it is neither wrapped nor counted.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets, on_return=None):
        """targets: (module, function name) pairs, spans named "<module leaf>.<name>".

        on_return maps a span name to a function of the call's return
        value whose numeric results are summed per name in ``totals``.
        """
        self.targets = list(targets)
        self.on_return = dict(on_return or {})
        self.spans = []
        self.absent = []
        self.totals = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _wrap(self, name, fn):
        hook = self.on_return.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(call_id)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((call_id, parent, name, start, end, error))
            if hook is not None:
                self.totals[name] += hook(result)
            return result

        return wrapper

    def install(self, namespaces):
        """Wrap every target wherever one of the namespaces binds it.

        Spans and totals accumulate over repeated installs.
        """
        self.absent = []
        for module, attr in self.targets:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))
        return self

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Spans as gzip JSON lines: [call_id, parent, name, start_ns, end_ns, error]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per name: {"self_s", "calls", "errors"} from a list of spans.

    A span's self time is its duration minus the durations of its direct
    children; calls in one thread nest, so the children never overlap.
    """
    child_ns = defaultdict(int)
    for call_id, parent, _name, start, end, _error in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for call_id, _parent, name, start, end, error in spans:
        rec = out.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": defaultdict(int)})
        rec["self_s"] += (end - start - child_ns[call_id]) * 1e-9
        rec["calls"] += 1
        if error is not None:
            rec["errors"][error] += 1
    return out

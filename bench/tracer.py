"""Timing spans around the package's public functions, installed from outside.

A Tracer replaces every module attribute that refers to a listed function
with a wrapper that records a span (name, start, end, parent) on a parent
stack, so calls made through any binding of the function are seen: for
example unitarity_defect is bound in both kickedtop.floquet and
kickedtop.spectral.  Spans stay in memory until the run ends.  A listed
name that does not exist records zero calls.

The benchmark runs the package in one thread, so a single stack suffices.
"""

import functools
import json
import time
import uuid
from dataclasses import fields, is_dataclass


def array_bytes(obj, _seen=None) -> int:
    """Bytes of every distinct array reachable through dataclass fields,
    dicts, lists and tuples."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in fields(obj))
    if isinstance(obj, dict):
        return sum(array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v, seen) for v in obj)
    return 0


class Tracer:
    """Spans for the functions named "<module>.<function>" under a package."""

    def __init__(self, names, sized=(), clock=time.perf_counter):
        self.names = list(names)
        self.sized = set(sized)       # names whose results' array bytes are recorded
        self.clock = clock
        self.run_id = uuid.uuid4().hex
        self.spans = []               # [id, parent, name, start, end, bytes]
        self._stack = []
        self._patched = []

    def install(self, modules: dict) -> None:
        """Wrap the listed functions in every module of `modules`
        (short name -> module object) that binds them."""
        for name in self.names:
            module_name, _, attr = name.partition(".")
            original = getattr(modules.get(module_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def _wrap(self, name: str, fn):
        sized = name in self.sized

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                    self.clock(), None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = self.clock()
            if sized:
                span[5] = array_bytes(result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per name: calls, self time in ms, and the largest recorded result bytes."""
        out = {name: {"calls": 0, "self_ms": 0.0, "bytes": 0} for name in self.names}
        for span_id, self_s in self_times(self.spans).items():
            _, _, name, _, _, nbytes = self.spans[span_id]
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "bytes": 0})
            entry["calls"] += 1
            entry["self_ms"] += 1e3 * self_s
            entry["bytes"] = max(entry["bytes"], nbytes or 0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, nbytes in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "bytes": nbytes}) + "\n")


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it covered by its children."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for span in spans:
        span_id, _, _, start, end = span[:5]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out

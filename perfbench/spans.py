"""In-memory call spans around the functions a module looks up by name.

A Tracer swaps selected attributes of a module for timing wrappers while it
is entered and puts the originals back on exit, so the traced program runs
unmodified code and only its name lookups are redirected. Each call becomes
a Span with its parent (the innermost open span) and a request key shared by
all spans under one keyed call, e.g. every stage of one replication.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: object = None
    error: str | None = None


class Tracer:
    """Wrap ``names`` of ``module`` with span recorders while entered.

    ``hooks[name](result, *args, **kwargs)`` runs after a successful call and
    may return a failure message. Its time is recorded as a sibling span named
    ``"trace"``, so it never counts as time spent in the traced layer or in
    the caller. ``keys[name](*args, **kwargs)`` gives the request key of a
    span; spans without a key function inherit their parent's key.
    """

    def __init__(self, module, names, hooks=None, keys=None):
        self.module = module
        self.names = tuple(names)
        self.hooks = dict(hooks or {})
        self.keys = dict(keys or {})
        self.spans: list[Span] = []
        self.failures: list[tuple[object, str, str]] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def __enter__(self):
        for name in self.names:
            original = getattr(self.module, name)
            self._originals[name] = original
            setattr(self.module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._originals.items():
            setattr(self.module, name, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped name holds its original object again."""
        return all(getattr(self.module, n) is f for n, f in self._originals.items())

    def span(self, name: str):
        """Context manager recording one span around a block of code."""
        return self._recording(name, None)

    @contextlib.contextmanager
    def _recording(self, name: str, request):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        span = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        key = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._recording(name, key(*args, **kwargs) if key else None) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                with self._recording("trace", span.request):
                    message = hook(result, *args, **kwargs)
                if message:
                    self.failures.append((span.request, name, message))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out

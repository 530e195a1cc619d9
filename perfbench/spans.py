"""In-memory span tracer that wraps opembed's public functions from outside.

The tracer patches every name a function is reachable under (the defining
module, every module that imported it, the package re-exports), records one
span per call, and restores the originals on ``uninstall``. Nothing inside
the program changes; with the tracer uninstalled the program runs its own
functions untouched.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the parent span, -1 for a root
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Spans kept in a list; nesting comes from a stack of open span ids."""

    def __init__(self, attrs: dict | None = None, keep: tuple[str, ...] = ()):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._attrs = attrs or {}        # span name -> fn(args, kwargs, result) -> dict
        self._keep = set(keep)           # span names whose last result is retained
        self.last: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else -1))
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        attrs_fn = self._attrs.get(name)
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._end(idx)
                if attrs_fn is not None and result is not None:
                    self.spans[idx].attrs = attrs_fn(args, kwargs, result)
                if keep:
                    self.last[name] = result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, package: str, modules, extra=()) -> None:
        """Wrap the public, non-generator functions defined in each module,
        under every name they are bound to in the package's modules.

        extra holds (owner, attribute, span name) triples for callables that
        are not module functions, such as a class's ``__call__`` or a click
        command's callback.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == package or n.startswith(package + "."))]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                traced = self.wrap(fn, f"{short}.{attr}")
                for owner in loaded:
                    for alias, value in vars(owner).copy().items():
                        if value is fn:
                            self._patch(owner, alias, traced)
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_ms(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ms
        return out

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines: id, name, start/end ms, parent, attrs."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start_ms": round((s.start - t0) * 1e3, 6),
                    "end_ms": round((s.end - t0) * 1e3, 6),
                    "attrs": s.attrs,
                }) + "\n")


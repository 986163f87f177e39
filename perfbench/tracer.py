"""In-memory span recorder that wraps functions from the benchmark's side.

A span is recorded for each call of a wrapped function: name, start, end,
parent span, thread, and the calling thread's CPU time over the call. Spans
stay in a list until the caller takes them with `spans()`; nothing is written
while the pipeline runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Mapping


class TracerError(RuntimeError):
    """A function the tracer was told to wrap does not exist."""


class Tracer:
    def __init__(self) -> None:
        self._spans: list[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None  # parent of spans opened on a fresh thread
        self.origin = time.perf_counter()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(
        self,
        name: str,
        fn: Callable,
        measure: Callable | None = None,
        attrs: Callable | None = None,
        root: bool = False,
    ):
        """Wrap fn so each call records a span. `measure(args, kwargs, result)`
        may add attributes such as byte or row counts; `attrs(args)` adds
        attributes known before the call. While a root span is open it is the
        parent of spans opened on threads with no span of their own (the
        engine's workers)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = self._new_id()
            parent = stack[-1] if stack else self._root
            record: dict[str, Any] = {"id": sid, "name": name, "parent": parent}
            if attrs is not None:
                record.update(attrs(args))
            if root:
                self._root = sid
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                if root:
                    self._root = None
                record.update(
                    thread=threading.get_ident(),
                    start=t0 - self.origin,
                    end=t1 - self.origin,
                    thread_cpu=cpu1 - cpu0,
                )
                self._spans.append(record)
            if measure is not None:
                record.update(measure(args, kwargs, result))
            return result

        return wrapper

    def patch(self, traced: Mapping[str, tuple]) -> None:
        """Replace each named function by a traced wrapper in every loaded
        sdgflow module that holds a reference to it.

        traced maps span name -> (module name, attribute, measure or None).
        A missing module or attribute raises TracerError.
        """
        for name, (modname, attr, measure) in traced.items():
            try:
                module = importlib.import_module(modname)
            except ImportError as e:
                raise TracerError(f"{name}: cannot import {modname}: {e}") from None
            original = getattr(module, attr, None)
            if not callable(original):
                raise TracerError(f"{name}: {modname}.{attr} is missing or not a function")
            wrapper = self.span(name, original, measure)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "sdgflow" or mname.startswith("sdgflow.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def spans(self) -> list[dict]:
        return list(self._spans)


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds. Self time is
    a span's duration minus that of its children on the same thread."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_time[parent["id"]] = child_time.get(parent["id"], 0.0) + s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["inclusive_s"] += dur
        row["self_s"] += dur - child_time.get(s["id"], 0.0)
    return out

"""Span-and-counter collection for the traced benchmark run.

Everything here lives in the benchmark, not in ``repro``: spans come from
wrappers that :class:`Patcher` installs around the public functions of
each layer, and every wrapper is removed again when the traced section
ends.

* Spans nest per thread.  A span's *self time* is its duration minus
  the part of that interval its child spans cover (children of one
  thread never overlap, so the coverage is the sum of their durations).
* Per name, ``total`` adds only the outermost span of that name, so a
  public function that calls another public function of the same layer
  is not counted twice.
* Forked workers (the campaign's shard processes) start with an empty
  collector and write their spans to ``spans-<pid>.json`` in the spool
  directory; :meth:`Tracer.merge_spool` folds those files into the
  parent's totals.
* :meth:`Tracer.chrome_trace` returns Chrome trace-event JSON, which
  Perfetto and ``chrome://tracing`` open.  It keeps the first
  :data:`EVENT_CAP` events of each span name; totals count every span.
* A wrapper made with ``within=`` records a span only while a span of
  one of those names is open on the same thread, so a helper shared by
  several layers is charged only to the one that asked.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import threading
import time
from typing import Callable

#: Chrome trace events kept per span name.
EVENT_CAP = 2000


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """In-memory spans and counters; cheap enough to wrap per-step calls.

    ``clock`` is injectable so tests can drive exact timings.
    """

    def __init__(
        self,
        spool: str | os.PathLike | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.spool = pathlib.Path(spool) if spool is not None else None
        self.clock = clock
        self.origin = clock()
        self.owner = os.getpid()
        self._lock = threading.Lock()
        self._reset(self.owner)
        if self.spool is not None:
            self.spool.mkdir(parents=True, exist_ok=True)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self._local = threading.local()
        # name -> [calls, total_s (outermost of that name), self_s]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.events: list[dict] = []
        self._event_counts: dict[str, int] = {}

    def _stack(self) -> list[_Frame]:
        if os.getpid() != self.pid:  # first use in a forked child
            self._reset(os.getpid())
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack().append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        finished = self.clock()
        stack = self._stack()
        stack.pop()
        duration = finished - frame.start
        outermost = True
        if stack:
            stack[-1].child += duration
            outermost = all(other.name != frame.name for other in stack)
        name = frame.name
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            if outermost:
                entry[1] += duration
            entry[2] += duration - frame.child
            recorded = self._event_counts.get(name, 0)
            if recorded < EVENT_CAP:
                self._event_counts[name] = recorded + 1
                self.events.append(
                    {
                        "name": name,
                        "ph": "X",
                        "ts": (frame.start - self.origin) * 1e6,
                        "dur": duration * 1e6,
                        "pid": self.pid,
                        "tid": threading.get_ident(),
                    }
                )

    def count(self, name: str, amount: float = 1) -> None:
        if os.getpid() != self.pid:
            self._reset(os.getpid())
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(
        self,
        function: Callable,
        name: str | Callable[..., str],
        on_result: Callable | None = None,
        within: frozenset[str] | None = None,
    ) -> Callable:
        """``function`` inside a span; ``name`` may be computed from the
        call's arguments; ``on_result(result, *args, **kwargs)`` may
        record counters after the call returns.  With ``within``, calls
        made while no span of those names is open on this thread run
        unrecorded."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if within is not None and not any(
                frame.name in within for frame in tracer._stack()
            ):
                return function(*args, **kwargs)
            frame = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(frame)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def dump_child(self) -> None:
        """Write this (forked) process's spans to the spool directory."""
        if self.spool is None or os.getpid() == self.owner:
            return
        with self._lock:
            payload = {
                "pid": self.pid,
                "totals": self.totals,
                "counters": self.counters,
                "events": self.events,
            }
        target = self.spool / f"spans-{self.pid}.json"
        temporary = target.with_suffix(".tmp")
        temporary.write_text(json.dumps(payload))
        os.replace(temporary, target)

    def merge_spool(self) -> None:
        """Fold every spooled child file into this collector, deleting
        each file once merged."""
        if self.spool is None:
            return
        for path in sorted(self.spool.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            with self._lock:
                for name, (calls, total, self_s) in payload["totals"].items():
                    entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += self_s
                for name, amount in payload["counters"].items():
                    self.counters[name] = self.counters.get(name, 0) + amount
                self.events.extend(payload["events"])
            path.unlink()

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (the object form Perfetto loads)."""
        with self._lock:
            return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}


class Patcher:
    """Installs tracer wrappers and restores every original on exit.

    ``function`` rebinds the module-level name in its defining module
    and in every loaded ``repro`` module that imported it by name
    (``from x import f``).  ``method`` patches at class level, on the
    class itself and, with ``subclasses=True``, on every loaded subclass
    that overrides the method.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, value: object) -> None:
        """Set ``owner.attribute`` (a module or class) until restore."""
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def function(
        self, module_name: str, attribute: str, name, on_result=None,
        within=None,
    ) -> None:
        module = sys.modules[module_name]
        original = getattr(module, attribute)
        wrapper = self.tracer.wrap(original, name, on_result, within)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.replace(loaded, key, wrapper)

    def method(
        self,
        cls: type,
        attribute: str,
        name,
        on_result=None,
        subclasses: bool = False,
        within=None,
    ) -> None:
        owners = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                pending.extend(sub.__subclasses__())
                if attribute in sub.__dict__:
                    owners.append(sub)
        for owner in owners:
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self.tracer.wrap(raw.__func__, name, on_result, within)
                )
            else:
                wrapped = self.tracer.wrap(raw, name, on_result, within)
            self.replace(owner, attribute, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

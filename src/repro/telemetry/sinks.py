"""Telemetry sinks: ring buffer, JSONL run log, console, callbacks.

A sink is anything with ``handle(event)``; ``close()`` is optional and
called by :meth:`TelemetryBus.close`.  The JSONL format is the on-disk
run log consumed by ``repro-trace`` and the CI smoke job: one event per
line, schema-checked by :func:`validate_run_log`.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from .bus import LEVEL_NAMES, Event


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._events: deque = deque(maxlen=capacity)

    def handle(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()


class JsonlSink:
    """Append every event to a JSONL run log.

    Lines are flushed on ``close`` (or per event with ``flush_every=1``)
    so a crashed run still leaves a usable prefix on disk.  Writes are
    serialized under a lock: the planner daemon emits from many threads
    at once, and ``TextIOWrapper`` corrupts its buffer under concurrent
    writers.
    """

    def __init__(
        self, path: Union[str, Path], *, flush_every: int = 64
    ) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._flush_every = max(1, flush_every)
        self._pending = 0
        self._lock = threading.Lock()

    def handle(self, event: Event) -> None:
        line = json.dumps(event.to_json()) + "\n"
        with self._lock:
            self._handle.write(line)
            self._pending += 1
            if self._pending >= self._flush_every:
                self._handle.flush()
                self._pending = 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


class ConsoleSink:
    """Render events at or above ``min_level`` as log lines."""

    def __init__(self, stream=None, *, min_level: int = 30) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_level = min_level

    def handle(self, event: Event) -> None:
        if event.level < self.min_level:
            return
        level = LEVEL_NAMES.get(event.level, str(event.level))
        attrs = " ".join(
            f"{key}={value}"
            for key, value in event.attrs.items()
            if not key.startswith("_")
        )
        prefix = f"[{event.ts:9.3f}s {level:<7}] {event.name}"
        print(f"{prefix} {attrs}".rstrip(), file=self.stream)


class CallbackSink:
    """Invoke ``fn(event)`` for events whose name is in ``names``.

    ``names=None`` subscribes to everything.  This is how in-process
    consumers (e.g. checkpoint recording in the stage-count driver)
    ride the bus instead of bespoke callback plumbing.
    """

    def __init__(
        self,
        fn: Callable[[Event], None],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self._fn = fn
        self._names = frozenset(names) if names is not None else None

    def handle(self, event: Event) -> None:
        if self._names is None or event.name in self._names:
            self._fn(event)


def validate_run_log(path: Union[str, Path]) -> List[Event]:
    """Read a JSONL run log whose every line passes the run-log schema
    checker (:func:`repro.lint.artifacts.check_run_log_event`).

    Raises :class:`~repro.lint.diagnostics.ArtifactError` on the first
    bad line, as ``line N: ACE34x ...``.
    """
    from ..lint.artifacts import parse_run_log_line
    from ..lint.diagnostics import require_valid

    events: List[Event] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            data, diagnostics = parse_run_log_line(line, f"line {lineno}")
            require_valid(diagnostics)
            events.append(Event.from_json(data))
    return events

"""Process-local telemetry bus: typed events, spans, and counters.

One bus per process fans events out to pluggable sinks (ring buffer,
JSONL run log, console).  The design constraint is the estimator hot
path: with no sinks attached the bus is *inactive* and every ``emit``
returns after one attribute check, so disabled telemetry costs nothing
measurable (``benchmarks/bench_perfmodel_micro.py`` guards this).

Producers never hold a bus reference across process boundaries; they
call :func:`get_bus` at emit time, and pool workers install their own
bus per task (see ``repro.core.pool._pool_worker_main``) whose captured
events are forwarded to the parent with worker attribution.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Event severity levels (logging-module numeric scale).
DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40

LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning",
               ERROR: "error"}
LEVELS_BY_NAME = {name: value for value, name in LEVEL_NAMES.items()}

#: Event kinds.
EVENT, SPAN_BEGIN, SPAN_END, COUNTER = (
    "event", "span_begin", "span_end", "counter"
)


@dataclass(frozen=True)
class Event:
    """One telemetry record.

    ``ts`` is seconds since the emitting bus's epoch (monotonic within
    one process).  ``attrs`` keys starting with ``_`` carry in-memory
    payload objects for same-process subscribers and are dropped by
    serializing sinks.
    """

    name: str
    kind: str = EVENT
    ts: float = 0.0
    pid: int = 0
    source: str = ""
    level: int = INFO
    attrs: Mapping = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-safe representation (private ``_`` attrs dropped)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "ts": self.ts,
            "pid": self.pid,
            "source": self.source,
            "level": self.level,
            "attrs": {
                key: _json_safe(value)
                for key, value in self.attrs.items()
                if not key.startswith("_")
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Event":
        level = data.get("level", INFO)
        return cls(
            name=data["name"],
            kind=data.get("kind", EVENT),
            ts=float(data.get("ts", 0.0)),
            pid=int(data.get("pid", 0)),
            source=data.get("source", ""),
            # Run logs may spell a level by name ("info").
            level=int(LEVELS_BY_NAME.get(level, level)),
            attrs=dict(data.get("attrs", {})),
        )

    def with_attrs(self, **extra) -> "Event":
        """Copy with ``extra`` merged into ``attrs`` (attribution)."""
        merged = dict(self.attrs)
        merged.update(extra)
        return Event(
            name=self.name,
            kind=self.kind,
            ts=self.ts,
            pid=self.pid,
            source=self.source,
            level=self.level,
            attrs=merged,
        )


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class Span:
    """Live span handle: set attributes before the span closes."""

    __slots__ = ("name", "attrs", "_begin")

    def __init__(self, name: str, attrs: dict, begin: float) -> None:
        self.name = name
        self.attrs = attrs
        self._begin = begin

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    """Shared no-op span for the inactive-bus fast path."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TelemetryBus:
    """Process-local event bus with pluggable sinks.

    The bus is *active* exactly when at least one sink is attached;
    every producer guards on that, so a sinkless bus adds only the cost
    of the check.
    """

    def __init__(self) -> None:
        self._sinks: List = []
        self.epoch = time.perf_counter()
        self.pid = os.getpid()

    # -- sink management ----------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._sinks)

    def add_sink(self, sink):
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @contextmanager
    def sink(self, sink) -> Iterator:
        """Attach ``sink`` for the duration of a ``with`` block."""
        self.add_sink(sink)
        try:
            yield sink
        finally:
            self.remove_sink(sink)

    # -- emission ------------------------------------------------------
    def clock(self) -> float:
        return time.perf_counter() - self.epoch

    def emit(
        self,
        name: str,
        *,
        kind: str = EVENT,
        source: str = "",
        level: int = INFO,
        **attrs,
    ) -> Optional[Event]:
        """Build and dispatch an event; no-op on an inactive bus."""
        if not self._sinks:
            return None
        event = Event(
            name=name,
            kind=kind,
            ts=self.clock(),
            pid=self.pid,
            source=source,
            level=level,
            attrs=attrs,
        )
        self.emit_event(event)
        return event

    def emit_event(self, event: Event) -> None:
        """Dispatch a pre-built event (e.g. forwarded from a worker)."""
        for sink in self._sinks:
            sink.handle(event)

    @contextmanager
    def span(
        self, name: str, *, source: str = "", level: int = INFO, **attrs
    ) -> Iterator:
        """Emit ``span_begin``/``span_end`` around a block.

        The yielded handle's :meth:`Span.set` attributes land on the
        closing event, which also carries the measured ``duration``.
        """
        if not self._sinks:
            yield _NULL_SPAN
            return
        begin = self.clock()
        self.emit_event(Event(
            name=name, kind=SPAN_BEGIN, ts=begin, pid=self.pid,
            source=source, level=level, attrs=dict(attrs),
        ))
        handle = Span(name, dict(attrs), begin)
        try:
            yield handle
        finally:
            end = self.clock()
            handle.attrs["duration"] = end - begin
            self.emit_event(Event(
                name=name, kind=SPAN_END, ts=end, pid=self.pid,
                source=source, level=level, attrs=handle.attrs,
            ))

    def close(self) -> None:
        """Close every sink that supports closing and detach all."""
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()
        self._sinks.clear()


class Counter:
    """A named monotonically-increasing integer.

    Deliberately minimal — ``inc`` is called on estimator hot paths, so
    it is one slot-attribute add, nothing else.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class CounterGroup:
    """A set of related counters that snapshots into one event."""

    def __init__(self, source: str, names: Tuple[str, ...]) -> None:
        self.source = source
        self._counters: Dict[str, Counter] = {
            name: Counter(name) for name in names
        }

    def __getitem__(self, name: str) -> Counter:
        return self._counters[name]

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name].value += n

    def snapshot(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    def emit_to(self, bus: "TelemetryBus", name: Optional[str] = None) -> None:
        """Emit one ``counter`` event with the current values.

        The default name is ``<source>.counters``; groups used outside
        tests must register theirs in :mod:`repro.telemetry.events`.
        """
        bus.emit(
            name or f"{self.source}.counters",  # lint: allow(ACE902)
            kind=COUNTER,
            source=self.source,
            level=DEBUG,
            **self.snapshot(),
        )


# ---------------------------------------------------------------------
# process-global default bus
# ---------------------------------------------------------------------
_GLOBAL_BUS = TelemetryBus()


def get_bus() -> TelemetryBus:
    """The process-global bus (inactive until a sink is attached)."""
    return _GLOBAL_BUS


def set_bus(bus: TelemetryBus) -> TelemetryBus:
    """Replace the global bus; returns the previous one."""
    global _GLOBAL_BUS
    previous = _GLOBAL_BUS
    # Swapping the bus is a single reference assignment, done from the
    # main thread during setup/teardown (using_bus in tests, CLI boot)
    # before worker threads exist; a lock here would buy nothing.
    _GLOBAL_BUS = bus  # lint: allow(ACE936)
    return previous


@contextmanager
def using_bus(bus: TelemetryBus) -> Iterator[TelemetryBus]:
    """Install ``bus`` as the global bus for a ``with`` block."""
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        set_bus(previous)

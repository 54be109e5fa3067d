"""One event bus for search, perf model, runtime, faults, and CLI.

Aceso's interesting behaviour *is* its search dynamics — which
bottleneck was picked, which primitive fired, how many estimates an
improvement cost, which worker retried.  This package makes those
first-class: every subsystem emits typed :class:`Event` records onto a
process-local :class:`TelemetryBus`, and pluggable sinks turn the
stream into artifacts (an in-memory ring buffer, a JSONL run log, a
console narration, a Chrome ``chrome://tracing`` timeline).

With no sinks attached the bus is inactive and emission short-circuits
after one check, so telemetry-off code paths stay at full speed
(guarded by ``benchmarks/bench_perfmodel_micro.py``).
"""

from .bus import (
    COUNTER,
    DEBUG,
    ERROR,
    EVENT,
    INFO,
    LEVELS_BY_NAME,
    LEVEL_NAMES,
    SPAN_BEGIN,
    SPAN_END,
    WARNING,
    Counter,
    CounterGroup,
    Event,
    Span,
    TelemetryBus,
    get_bus,
    set_bus,
    using_bus,
)
from .chrome import (
    chrome_trace_from_events,
    chrome_trace_from_tasks,
    validate_chrome_trace,
    write_chrome_trace,
)
from .sinks import (
    CallbackSink,
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    validate_run_log,
)
from .summary import render_summary, summarize_events

__all__ = [
    "COUNTER",
    "CallbackSink",
    "ConsoleSink",
    "Counter",
    "CounterGroup",
    "DEBUG",
    "ERROR",
    "EVENT",
    "Event",
    "INFO",
    "JsonlSink",
    "LEVELS_BY_NAME",
    "LEVEL_NAMES",
    "RingBufferSink",
    "SPAN_BEGIN",
    "SPAN_END",
    "Span",
    "TelemetryBus",
    "WARNING",
    "chrome_trace_from_events",
    "chrome_trace_from_tasks",
    "get_bus",
    "render_summary",
    "set_bus",
    "summarize_events",
    "using_bus",
    "validate_chrome_trace",
    "validate_run_log",
    "write_chrome_trace",
]

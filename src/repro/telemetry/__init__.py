"""One event bus for search, perf model, runtime, faults, and CLI.

Aceso's interesting behaviour *is* its search dynamics — which
bottleneck was picked, which primitive fired, how many estimates an
improvement cost, which worker retried.  This package makes those
first-class: every subsystem emits typed :class:`Event` records onto a
process-local :class:`TelemetryBus`, and pluggable sinks turn the
stream into artifacts (an in-memory ring buffer, a JSONL run log, a
console narration, a Chrome ``chrome://tracing`` timeline).

An event no attached sink keeps is never built: each sink states what
it keeps as a :class:`SinkFilter`, and producers ask
``TelemetryBus.wants(name, level)`` first.  With no sinks attached that
answer is one check, so telemetry-off code paths stay at full speed
(guarded by ``benchmarks/bench_perfmodel_micro.py``).
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bus": (
        "COUNTER", "Counter", "CounterGroup", "DEBUG", "ERROR", "EVENT",
        "Event", "INFO", "KEEP_ALL", "LEVELS_BY_NAME", "LEVEL_NAMES",
        "SPAN_BEGIN", "SPAN_END", "SinkFilter", "Span", "TelemetryBus",
        "WARNING", "get_bus", "set_bus", "using_bus",
    ),
    "chrome": (
        "chrome_trace_from_events", "chrome_trace_from_tasks",
        "validate_chrome_trace", "write_chrome_trace",
    ),
    "sinks": (
        "CallbackSink", "ConsoleSink", "JsonlSink", "RingBufferSink",
        "validate_run_log",
    ),
    "summary": ("render_summary", "summarize_events"),
})

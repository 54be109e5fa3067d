"""Telemetry: bus semantics, sinks, run logs, Chrome traces, CLI."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AcesoSearch, SearchBudget, search_all_stage_counts
from repro.core.trace import SearchTrace
from repro.elastic import ChurnEvent, ChurnTimeline
from repro.faults import FaultPlan
from repro.lint.diagnostics import ArtifactError
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.runtime import Executor
from repro.runtime.simulator import simulate_pipeline
from repro.telemetry import (
    DEBUG,
    ERROR,
    INFO,
    KEEP_ALL,
    WARNING,
    CallbackSink,
    ConsoleSink,
    CounterGroup,
    Event,
    JsonlSink,
    RingBufferSink,
    SinkFilter,
    TelemetryBus,
    chrome_trace_from_events,
    chrome_trace_from_tasks,
    get_bus,
    render_summary,
    summarize_events,
    using_bus,
    validate_chrome_trace,
    validate_run_log,
    write_chrome_trace,
)

BUDGET = {"max_iterations": 6}


def fresh_model(graph, cluster, database):
    return PerfModel(graph, cluster, database)


class TestBus:
    def test_inactive_emit_is_noop(self):
        bus = TelemetryBus()
        assert not bus.active
        assert bus.emit("x", value=1) is None

    def test_sink_receives_events(self):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        event = bus.emit("unit.test", source="tests", value=3)
        assert bus.active
        assert ring.events == [event]
        assert event.attrs == {"value": 3}
        assert event.pid == bus.pid

    def test_sink_context_detaches(self):
        bus = TelemetryBus()
        with bus.sink(RingBufferSink()) as ring:
            bus.emit("inside")
        bus.emit("outside")
        assert [e.name for e in ring.events] == ["inside"]
        assert not bus.active

    def test_span_measures_duration(self):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with bus.span("unit.span", source="tests") as span:
            span.set(detail="yes")
        begin, end = ring.events
        assert begin.kind == "span_begin"
        assert end.kind == "span_end"
        assert end.attrs["detail"] == "yes"
        assert end.attrs["duration"] >= 0
        assert end.ts >= begin.ts

    def test_inactive_span_yields_null_handle(self):
        bus = TelemetryBus()
        with bus.span("unit.span") as span:
            span.set(ignored=True)  # must not raise

    def test_with_attrs_merges(self):
        event = Event(name="x", attrs={"a": 1})
        stamped = event.with_attrs(b=2)
        assert stamped.attrs == {"a": 1, "b": 2}
        assert event.attrs == {"a": 1}

    def test_callback_sink_filters_names(self):
        bus = TelemetryBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append, names=("wanted",)))
        bus.emit("wanted")
        bus.emit("unwanted")
        assert [e.name for e in seen] == ["wanted"]

    @pytest.mark.parametrize("make_sink, kept", [
        (lambda tmp: RingBufferSink(), {
            ("any.name", DEBUG), ("any.name", ERROR), ("wanted", INFO),
        }),
        (lambda tmp: JsonlSink(tmp / "log.jsonl"), {
            ("any.name", DEBUG), ("any.name", ERROR), ("wanted", INFO),
        }),
        (lambda tmp: ConsoleSink(min_level=WARNING), {
            ("any.name", ERROR),
        }),
        (lambda tmp: CallbackSink(print, names=("wanted",)), {
            ("wanted", INFO),
        }),
        (lambda tmp: CallbackSink(print), {
            ("any.name", DEBUG), ("any.name", ERROR), ("wanted", INFO),
        }),
    ], ids=["ring", "jsonl", "console-warning", "callback-names",
            "callback-all"])
    def test_wants_truth_table(self, tmp_path, make_sink, kept):
        bus = TelemetryBus()
        questions = [("any.name", DEBUG), ("any.name", ERROR),
                     ("wanted", INFO)]
        assert not any(bus.wants(*q) for q in questions)
        bus.add_sink(make_sink(tmp_path))
        assert {q for q in questions if bus.wants(*q)} == kept
        # The memo is keyed by (name, level) and stable between sink
        # changes: asking again gives the same answers.
        assert {q for q in questions if bus.wants(*q)} == kept
        bus.close()
        assert not any(bus.wants(*q) for q in questions)

    def test_wants_memo_resets_on_add_and_remove(self):
        bus = TelemetryBus()
        bus.add_sink(ConsoleSink(min_level=WARNING))
        assert not bus.wants("unit.test", DEBUG)  # memoized False
        ring = bus.add_sink(RingBufferSink())
        assert bus.wants("unit.test", DEBUG)  # add_sink cleared it
        bus.remove_sink(ring)
        assert not bus.wants("unit.test", DEBUG)  # so did remove_sink
        assert bus.wants("unit.test", WARNING)
        assert bus.filters == (SinkFilter(min_level=WARNING),)

    def test_bus_filters_are_distinct_and_picklable(self):
        import pickle

        bus = TelemetryBus()
        bus.add_sink(RingBufferSink())
        bus.add_sink(RingBufferSink())
        bus.add_sink(CallbackSink(print, names=("a", "b")))
        filters = bus.filters
        assert filters == (
            KEEP_ALL, SinkFilter(names=frozenset({"a", "b"})),
        )
        assert pickle.loads(pickle.dumps(filters)) == filters

    def test_filtered_ring_keeps_only_what_its_filters_keep(self):
        ring = RingBufferSink(filters=(
            SinkFilter(names=frozenset({"a"})), SinkFilter(min_level=ERROR),
        ))
        bus = TelemetryBus()
        bus.add_sink(ring)
        bus.add_sink(RingBufferSink())  # keeps everything
        for name in ("a", "b"):
            for level in (DEBUG, ERROR):
                bus.emit(name, level=level)
        assert [(e.name, e.level) for e in ring.events] == [
            ("a", DEBUG), ("a", ERROR), ("b", ERROR),
        ]

    def test_unwanted_events_and_spans_are_not_built(self):
        bus = TelemetryBus()
        seen = []
        bus.add_sink(CallbackSink(seen.append, names=("wanted",)))
        assert bus.emit("unwanted", value=1) is None
        with bus.span("unwanted.span") as span:
            span.set(ignored=True)  # the shared no-op handle
        with bus.span("wanted") as span:
            span.set(kept=True)
        assert [(e.name, e.kind) for e in seen] == [
            ("wanted", "span_begin"), ("wanted", "span_end"),
        ]

    def test_concurrent_sink_changes_lose_no_sink(self):
        """Threads attach and detach their own sinks on one shared bus,
        as ``TelemetryBus.sink`` blocks do, while the others emit; a
        lost add or remove would leave a thread's own sink missing (its
        events undelivered) or a stale one behind."""
        import sys
        import threading

        bus = TelemetryBus()
        rounds, threads = 300, 8
        delivered = [0] * threads

        def churn(index):
            name = f"unit.thread{index}"

            def count(event):
                delivered[index] += 1

            for _ in range(rounds):
                sink = bus.add_sink(CallbackSink(count, names=(name,)))
                if bus.wants(name):
                    bus.emit(name)
                bus.remove_sink(sink)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=churn, args=(i,))
                for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert delivered == [rounds] * threads
        assert not bus.active and bus.filters == ()

    def test_using_bus_restores_previous(self):
        override = TelemetryBus()
        before = get_bus()
        with using_bus(override):
            assert get_bus() is override
        assert get_bus() is before

    def test_counter_group_snapshot_and_emit(self):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        group = CounterGroup("tests", ("a", "b"))
        group.inc("a", 3)
        group["b"].inc()
        assert group.snapshot() == {"a": 3, "b": 1}
        group.emit_to(bus)
        (event,) = ring.events
        assert event.kind == "counter"
        assert event.attrs == {"a": 3, "b": 1}


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = TelemetryBus()
        bus.add_sink(JsonlSink(path))
        bus.emit("alpha", source="tests", level=DEBUG, n=1)
        bus.emit("beta", source="tests", level=WARNING,
                 nested={"k": [1, 2]})
        bus.close()
        # validation accepts what the sink writes, event for event
        events = validate_run_log(path)
        assert [e.name for e in events] == ["alpha", "beta"]
        assert events[1].attrs == {"nested": {"k": [1, 2]}}
        assert events[1].level == WARNING
        assert [e.to_json() for e in events] == [
            json.loads(line) for line in path.read_text().splitlines()
        ]

    #: (bad line, short label naming the case's test id, expected error)
    BAD_LINES = [
        ("not json", "invalid JSON", "line 1: ACE340 invalid JSON"),
        ("[1, 2]", "must be an object",
         "line 1: ACE341 event must be a JSON object"),
        ('{"name": "x"}', "missing keys",
         "line 1: ACE341 missing event field"),
        ('{"name": "", "kind": "event", "ts": 0, "pid": 1, '
         '"source": "", "level": 20, "attrs": {}}',
         "name must be a string",
         "line 1: ACE341 event field 'name' must be a non-empty string"),
        ('{"name": "x", "kind": "event", "ts": -1, "pid": 1, '
         '"source": "", "level": 20, "attrs": {}}',
         "non-negative",
         "line 1: ACE341 event field 'ts' must be a non-negative number"),
        ('{"name": "x", "kind": "event", "ts": 0, "pid": 1, '
         '"source": "", "level": 20, "attrs": []}',
         "attrs must be an object",
         "line 1: ACE341 event field 'attrs' must be a JSON object"),
        ('{"name": "x", "kind": "bogus", "ts": 0, "pid": 1, '
         '"source": "", "level": 20, "attrs": {}}',
         "unknown kind",
         "line 1: ACE342 event field 'kind' must be one of"),
    ]

    @pytest.mark.parametrize(
        "line, message",
        [(line, message) for line, _, message in BAD_LINES],
        ids=[f"{line}-{label}" for line, label, _ in BAD_LINES],
    )
    def test_validation_rejects_bad_lines(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ArtifactError, match=message):
            validate_run_log(path)

    def test_validation_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(Event(name="ok").to_json())
        path.write_text(good + "\n" + "broken\n")
        with pytest.raises(ValueError, match="line 2"):
            validate_run_log(path)


class TestChromeTrace:
    def _simulated_tasks(self):
        sim = simulate_pipeline(
            [0.2, 0.3], [0.4, 0.5], 4, record_tasks=True
        )
        assert sim.tasks
        return sim

    def test_trace_from_tasks_is_valid(self, tmp_path):
        sim = self._simulated_tasks()
        trace = chrome_trace_from_tasks(sim.tasks)
        validate_chrome_trace(trace)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(sim.tasks)
        for span in spans:
            assert {"ph", "ts", "pid", "tid", "dur"} <= span.keys()
            assert span["ts"] >= 0 and span["dur"] >= 0
        # one metadata track name per stage plus the process name
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {
            "process_name", "thread_name"
        }
        path = tmp_path / "trace.json"
        write_chrome_trace(trace, path)
        parsed = json.loads(path.read_text())
        assert parsed == trace

    def test_timestamps_monotone_per_track(self):
        trace = chrome_trace_from_tasks(self._simulated_tasks().tasks)
        last = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            track = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(track, 0.0)
            last[track] = event["ts"]

    def test_trace_from_events_groups_by_pid(self):
        def task_event(pid, stage, start):
            return Event(
                name="runtime.task",
                pid=pid,
                attrs={
                    "stage": stage,
                    "microbatch": 0,
                    "direction": "fwd",
                    "start": start,
                    "end": start + 0.1,
                },
            )

        events = [
            task_event(100, 0, 0.0),
            task_event(200, 0, 0.0),
            Event(name="search.begin"),  # ignored
        ]
        trace = chrome_trace_from_events(events)
        validate_chrome_trace(trace)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {100, 200}

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "ts": 0, "pid": 1}]}
            )
        with pytest.raises(ValueError, match="non-negative dur"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "ts": 0, "pid": 1, "tid": 0, "dur": -1}
                ]}
            )
        with pytest.raises(ValueError, match="regress"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "ts": 5, "pid": 1, "tid": 0, "dur": 1},
                    {"ph": "X", "ts": 1, "pid": 1, "tid": 0, "dur": 1},
                ]}
            )
        with pytest.raises(ValueError, match="strict JSON"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"ph": "X", "ts": float("nan"), "pid": 1, "tid": 0,
                     "dur": 0}
                ]}
            )


record_strategy = st.fixed_dictionaries({
    "elapsed": st.floats(0, 1e3, allow_nan=False),
    "bottlenecks_tried": st.integers(1, 5),
    "hops_used": st.integers(0, 4),
    "improved": st.booleans(),
    "objective": st.floats(0, 1e6, allow_nan=False),
    "best_objective": st.floats(0, 1e6, allow_nan=False),
})


class TestSearchTraceFromEvents:
    @settings(max_examples=50, deadline=None)
    @given(
        start=st.floats(0, 1e6, allow_nan=False),
        records=st.lists(record_strategy, max_size=12),
    )
    def test_matches_legacy_recording(self, start, records):
        legacy = SearchTrace()
        legacy.convergence.append((0.0, start))
        events = [
            Event(name="search.begin", attrs={"best_objective": start})
        ]
        for i, record in enumerate(records, start=1):
            legacy.record_iteration(index=i, **record)
            events.append(Event(
                name="search.iteration", attrs={"index": i, **record}
            ))
        events.append(Event(name="search.end"))  # ignored
        rebuilt = SearchTrace.from_events(events)
        assert rebuilt.records == legacy.records
        assert rebuilt.convergence == legacy.convergence

    def test_live_search_trace_equals_event_replay(
        self, tiny_graph, small_cluster, tiny_database
    ):
        perf_model = fresh_model(tiny_graph, small_cluster, tiny_database)
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            search = AcesoSearch(tiny_graph, small_cluster, perf_model)
            result = search.run(
                balanced_config(tiny_graph, small_cluster, 2),
                SearchBudget(max_iterations=5),
            )
        assert result.trace.num_iterations > 0
        search_events = [
            e for e in ring.events if e.source == "search"
        ]
        rebuilt = SearchTrace.from_events(search_events)
        # bit-exact: the trace IS the replayed event stream
        assert rebuilt.records == result.trace.records
        assert rebuilt.convergence == result.trace.convergence

    def test_search_emits_without_sinks(
        self, tiny_graph, small_cluster, tiny_database
    ):
        perf_model = fresh_model(tiny_graph, small_cluster, tiny_database)
        with using_bus(TelemetryBus()):
            search = AcesoSearch(tiny_graph, small_cluster, perf_model)
            result = search.run(
                balanced_config(tiny_graph, small_cluster, 2),
                SearchBudget(max_iterations=4),
            )
        # the trace comes from the local event list even when the
        # process bus is inactive
        assert result.trace.num_iterations > 0
        assert result.trace.convergence


class TestPerfModelTelemetry:
    def test_counters_track_estimates(
        self, tiny_graph, small_cluster, tiny_database
    ):
        perf_model = fresh_model(tiny_graph, small_cluster, tiny_database)
        config = balanced_config(tiny_graph, small_cluster, 2)
        assert perf_model.num_estimates == 0
        perf_model.estimate(config)
        assert perf_model.num_estimates == 1
        perf_model.estimate(config)  # cached
        assert perf_model.num_estimates == 1
        assert perf_model.counters.snapshot()["config_hits"] == 1

    def test_estimate_events_emitted_when_active(
        self, tiny_graph, small_cluster, tiny_database
    ):
        perf_model = fresh_model(tiny_graph, small_cluster, tiny_database)
        config = balanced_config(tiny_graph, small_cluster, 2)
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            perf_model.estimate(config)
            perf_model.estimate(config)
        names = [e.name for e in ring.events]
        assert names.count("perfmodel.estimate") == 1  # miss only
        assert "perfmodel.first_feasible" in names


    def test_console_only_bus_builds_no_debug_event(
        self, tiny_graph, small_cluster, tiny_database, monkeypatch
    ):
        """A warning-level console keeps no DEBUG estimate event, so a
        scalar miss builds and emits none."""
        import io

        perf_model = fresh_model(tiny_graph, small_cluster, tiny_database)
        config = balanced_config(tiny_graph, small_cluster, 2)
        bus = TelemetryBus()
        stream = io.StringIO()
        bus.add_sink(ConsoleSink(stream, min_level=WARNING))
        built = []
        real_emit_event = TelemetryBus.emit_event
        monkeypatch.setattr(
            TelemetryBus, "emit_event",
            lambda self, event: (
                built.append(event), real_emit_event(self, event)
            ),
        )
        with using_bus(bus):
            perf_model.estimate(config)
            perf_model.estimate_batch(
                [balanced_config(tiny_graph, small_cluster, 4)]
            )
            perf_model.emit_counters()
        assert perf_model.num_estimates == 2
        assert built == [] and stream.getvalue() == ""


class TestDriverTelemetry:
    def test_serial_driver_emits_lifecycle(
        self, tiny_graph, small_cluster, tiny_database
    ):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                stage_counts=[1, 2],
            )
        names = [e.name for e in ring.events]
        assert names.count("driver.begin") == 1
        assert names.count("driver.count.completed") == 2
        assert names.count("driver.end") == 1
        completed = [
            e for e in ring.events if e.name == "driver.count.completed"
        ]
        assert sorted(e.attrs["num_stages"] for e in completed) == [1, 2]

    def test_subprocess_events_forwarded_with_attribution(
        self, tiny_graph, small_cluster, tiny_database
    ):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                stage_counts=[1, 2],
                workers=2,
            )
        spawns = [
            e for e in ring.events if e.name == "driver.worker.spawn"
        ]
        assert len(spawns) == 2
        worker_events = [
            e for e in ring.events if e.pid != bus.pid
        ]
        # the workers' search events crossed the pipe with attribution
        assert any(e.name == "search.iteration" for e in worker_events)
        assert all("num_stages" in e.attrs for e in worker_events)
        worker_pids = {e.pid for e in worker_events}
        assert worker_pids == {
            e.attrs["worker_pid"] for e in spawns
        }


class TestRuntimeTelemetry:
    def test_record_trace_populates_tasks(self, tiny_graph, small_cluster):
        executor = Executor(tiny_graph, small_cluster, seed=0)
        config = balanced_config(tiny_graph, small_cluster, 2)
        run = executor.run(config, record_trace=True)
        assert run.tasks
        assert len(run.tasks) == run.tasks_total
        trace = chrome_trace_from_tasks(run.tasks)
        validate_chrome_trace(trace)

    def test_plain_run_records_nothing(self, tiny_graph, small_cluster):
        executor = Executor(tiny_graph, small_cluster, seed=0)
        config = balanced_config(tiny_graph, small_cluster, 2)
        with using_bus(TelemetryBus()):
            run = executor.run(config)
        assert run.tasks == ()

    def test_active_bus_gets_task_and_fault_events(
        self, tiny_graph, small_cluster
    ):
        executor = Executor(tiny_graph, small_cluster, seed=0)
        config = balanced_config(tiny_graph, small_cluster, 2)
        plan = FaultPlan.from_timeline(ChurnTimeline(events=(
            ChurnEvent(0.0, "straggler_on", device_id=0, factor=2.0),
            ChurnEvent(0.002, "device_fail", device_id=0),
        )), small_cluster)
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            run = executor.run(config, fault_plan=plan)
        names = [e.name for e in ring.events]
        assert "faults.straggler" in names
        assert "faults.device_failure" in names
        assert names.count("runtime.run") == 1
        task_events = [e for e in ring.events if e.name == "runtime.task"]
        assert len(task_events) == len(run.tasks)
        assert not run.completed


class TestSummary:
    def test_summarize_real_run(
        self, tiny_graph, small_cluster, tiny_database
    ):
        bus = TelemetryBus()
        ring = bus.add_sink(RingBufferSink())
        with using_bus(bus):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                stage_counts=[1, 2],
            )
        summary = summarize_events(ring.events)
        assert summary["num_events"] == len(ring.events)
        assert summary["search"]["iterations"] > 0
        assert summary["search"]["best_objective"] is not None
        assert summary["events_by_source"]["search"] > 0
        json.dumps(summary)  # JSON-able throughout
        lines = render_summary(summary)
        assert lines and "events" in lines[0]


class TestCli:
    def test_run_log_and_trace_cli(self, tmp_path, capsys):
        from repro.cli import search_main, trace_main

        log = tmp_path / "events.jsonl"
        plan = tmp_path / "plan.json"
        rc = search_main([
            "--model", "gpt-2l", "--gpus", "4",
            "--iterations", "2", "--stage-counts", "2",
            "--run-log", str(log), "--output", str(plan), "--quiet",
        ])
        assert rc == 0
        events = validate_run_log(log)
        assert any(e.name == "search.iteration" for e in events)
        assert any(e.name == "runtime.task" for e in events)

        assert trace_main(["validate", str(log)]) == 0
        assert trace_main(["summary", str(log)]) == 0
        out = tmp_path / "trace.json"
        assert trace_main(["chrome", str(log), "-o", str(out)]) == 0
        validate_chrome_trace(json.loads(out.read_text()))
        capsys.readouterr()

    def test_trace_cli_rejects_bad_log(self, tmp_path, capsys):
        from repro.cli import trace_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("nonsense\n")
        assert trace_main(["summary", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_quiet_suppresses_console(self, tmp_path, capsys):
        from repro.cli import estimate_main, search_main

        plan = tmp_path / "plan.json"
        search_main([
            "--model", "gpt-2l", "--gpus", "4", "--iterations", "2",
            "--stage-counts", "2", "--output", str(plan), "--quiet",
            "--json",
        ])
        capsys.readouterr()
        rc = estimate_main([
            "--model", "gpt-2l", "--gpus", "4", str(plan),
            "--quiet", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        json.loads(captured.out)  # --json output stays machine-readable

    def test_console_sink_renders_warnings(self, capsys):
        bus = TelemetryBus()
        bus.add_sink(ConsoleSink(min_level=WARNING))
        bus.emit("unit.warn", level=WARNING, detail="boom")
        bus.emit("unit.debug", level=DEBUG)
        err = capsys.readouterr().err
        assert "unit.warn" in err and "detail=boom" in err
        assert "unit.debug" not in err

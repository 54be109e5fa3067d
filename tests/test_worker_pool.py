"""Lifecycle tests for the persistent worker pool.

These exercise :class:`repro.core.pool.WorkerPool` directly — the
scheduler-level behavior (retries, timeouts, deadline shedding) lives
in ``test_search_faults.py``.  The properties pinned here are the ones
the pool exists for: one fork serves many tasks, a task error does not
cost the process, and worker lifetimes are visible in telemetry.  The
last group pins filtered capture: a worker builds and returns only the
events the parent bus's sinks keep, and no choice of sinks changes the
plan a pooled or serial search finds.
"""

import io
import multiprocessing
from collections import Counter

import pytest

from repro.core import search_all_stage_counts
from repro.core.checkpoint import SearchCheckpoint
from repro.core.pool import WorkerPool
from repro.parallel.serialization import config_to_dict
from repro.perfmodel import PerfModel
from repro.service import plan_digest
from repro.telemetry import (
    DEBUG,
    WARNING,
    ConsoleSink,
    RingBufferSink,
    TelemetryBus,
    using_bus,
)
from repro.telemetry.events import (
    DRIVER_POOL_WORKER_EXIT,
    DRIVER_POOL_WORKER_START,
    PERFMODEL_ESTIMATE,
    SEARCH_ITERATION,
)


def _double(payload):
    return payload * 2


def _flaky(payload):
    if payload == "boom":
        raise RuntimeError("kaput")
    return "ok:" + payload


def _identity(task):
    return task


def _run_task(pool, worker, task):
    pool.send(worker, task)
    message = worker.conn.recv()
    worker.busy = False
    worker.tasks_done += 1
    return message


def test_one_worker_serves_many_tasks():
    with WorkerPool(_double, _identity, max_workers=1) as pool:
        results = []
        for task in (1, 2, 3):
            worker = pool.acquire()
            status, result, _events = _run_task(pool, worker, task)
            assert status == "ok"
            results.append(result)
    assert results == [2, 4, 6]
    assert pool.num_forks == 1  # persistence: three tasks, one fork


def test_worker_survives_task_error():
    with WorkerPool(_flaky, _identity, max_workers=1) as pool:
        worker = pool.acquire()
        status, detail, _events = _run_task(pool, worker, "boom")
        assert status == "error"
        assert "RuntimeError" in detail and "kaput" in detail
        # Same process takes the next task.
        pid_before = worker.pid
        status, result, _events = _run_task(pool, pool.acquire(), "next")
        assert (status, result) == ("ok", "ok:next")
        assert pool.acquire().pid == pid_before
    assert pool.num_forks == 1


def test_pool_is_lazy_and_capped():
    with WorkerPool(_double, _identity, max_workers=2) as pool:
        assert len(pool) == 0  # nothing forked until acquire
        first = pool.acquire()
        first.busy = True
        second = pool.acquire()
        second.busy = True
        assert pool.acquire() is None  # saturated at max_workers
        assert pool.num_forks == 2
        first.busy = False
        assert pool.acquire() is first
        first.busy = False
        _run_task(pool, first, 21)


def test_discarded_worker_is_replaced():
    with WorkerPool(_double, _identity, max_workers=1) as pool:
        first = pool.acquire()
        first_pid = first.pid
        pool.discard(first, kill=True)
        assert len(pool) == 0
        replacement = pool.acquire()
        assert replacement.pid != first_pid
        status, result, _events = _run_task(pool, replacement, 5)
        assert (status, result) == ("ok", 10)
    assert pool.num_forks == 2


def test_worker_lifetimes_are_visible_in_telemetry():
    bus = TelemetryBus()
    sink = bus.add_sink(RingBufferSink())
    with WorkerPool(_double, _identity, max_workers=1, bus=bus) as pool:
        worker = pool.acquire()
        _run_task(pool, worker, 1)
        _run_task(pool, worker, 2)
    starts = [e for e in sink.events if e.name == DRIVER_POOL_WORKER_START]
    exits = [e for e in sink.events if e.name == DRIVER_POOL_WORKER_EXIT]
    assert len(starts) == 1 and len(exits) == 1
    assert starts[0].attrs["worker_pid"] == exits[0].attrs["worker_pid"]
    assert exits[0].attrs["tasks"] == 2
    assert exits[0].attrs["killed"] is False


def test_spawned_state_shipping_when_fork_unavailable():
    """Under spawn/forkserver the pool ships state once per worker."""
    ctx_method = multiprocessing.get_start_method()
    pool = WorkerPool(_double, _identity, max_workers=1)
    # Force the shipping path regardless of platform default: module-
    # level functions are picklable, so this works under any method.
    pool._fork = False
    try:
        worker = pool.acquire()
        status, result, _events = _run_task(pool, worker, 7)
        assert (status, result) == ("ok", 14)
    finally:
        pool.shutdown()
    assert ctx_method in ("fork", "spawn", "forkserver")


# ---------------------------------------------------------------------
# filtered capture: a worker keeps only what the parent bus's sinks keep
# ---------------------------------------------------------------------
def _emitting(payload):
    from repro.telemetry import get_bus

    bus = get_bus()
    bus.emit("unit.debug", level=DEBUG)
    bus.emit("unit.warning", level=WARNING)
    return payload


def _worker_event_names(bus):
    with WorkerPool(_emitting, _identity, max_workers=1, bus=bus) as pool:
        status, result, events = _run_task(pool, pool.acquire(), 3)
    assert (status, result) == ("ok", 3)
    return [event.name for event in events]


def test_worker_captures_only_what_the_parent_keeps():
    assert _worker_event_names(TelemetryBus()) == []  # inactive parent
    console = TelemetryBus()
    console.add_sink(ConsoleSink(io.StringIO(), min_level=WARNING))
    assert _worker_event_names(console) == ["unit.warning"]
    ring = TelemetryBus()
    ring.add_sink(RingBufferSink())
    assert _worker_event_names(ring) == ["unit.debug", "unit.warning"]


def _search(graph, cluster, database, *, workers, counts=(1, 2),
            checkpoint_path=None):
    return search_all_stage_counts(
        graph,
        cluster,
        PerfModel(graph, cluster, database),
        budget_per_count={"max_iterations": 4},
        stage_counts=list(counts),
        workers=workers,
        # A per-count timeout keeps the pool even on a 1-core host.
        timeout_per_count=600 if workers > 1 else None,
        checkpoint_path=checkpoint_path,
    )


def test_parent_ring_receives_every_worker_event(
    tiny_graph, small_cluster, tiny_database
):
    """Filtered capture under a keep-everything parent loses nothing:
    each count's forwarded events are exactly the events the same
    count emits in-process, stamped with ``num_stages``."""
    bus = TelemetryBus()
    ring = bus.add_sink(RingBufferSink())
    with using_bus(bus):
        _search(tiny_graph, small_cluster, tiny_database, workers=2)
    forwarded = [e for e in ring.events if e.pid != bus.pid]
    assert forwarded
    for count in (1, 2):
        serial_bus = TelemetryBus()
        serial = serial_bus.add_sink(RingBufferSink())
        with using_bus(serial_bus):
            _search(tiny_graph, small_cluster, tiny_database, workers=1,
                    counts=(count,))
        expected = Counter(
            e.name for e in serial.events
            if e.name.startswith(("search.", "perfmodel."))
        )
        got = Counter(
            e.name for e in forwarded if e.attrs["num_stages"] == count
        )
        assert got == expected
        assert expected[SEARCH_ITERATION] and expected[PERFMODEL_ESTIMATE]


def test_checkpoint_only_parent_gets_no_worker_events(
    tiny_graph, small_cluster, tiny_database, tmp_path, monkeypatch
):
    """The checkpoint sink keeps only ``driver.count.*``, which workers
    never emit, so tasks capture nothing; every count is still
    checkpointed."""
    forwarded = []
    real_forward = WorkerPool.forward
    monkeypatch.setattr(
        WorkerPool, "forward",
        lambda self, events, **attribution: (
            forwarded.extend(events),
            real_forward(self, events, **attribution),
        ),
    )
    path = tmp_path / "ckpt.json"
    with using_bus(TelemetryBus()):
        outcome = _search(tiny_graph, small_cluster, tiny_database,
                          workers=2, checkpoint_path=path)
    assert outcome.pool_tasks == 2
    assert forwarded == []
    assert sorted(SearchCheckpoint.load(path).completed) == [1, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_plans_do_not_depend_on_attached_sinks(
    tiny_graph, small_cluster, tiny_database, tmp_path, workers
):
    outcomes = {}
    for kind in ("none", "checkpoint", "console", "ring"):
        bus = TelemetryBus()
        if kind == "console":
            bus.add_sink(ConsoleSink(io.StringIO(), min_level=WARNING))
        elif kind == "ring":
            bus.add_sink(RingBufferSink())
        with using_bus(bus):
            multi = _search(
                tiny_graph, small_cluster, tiny_database, workers=workers,
                counts=(1, 2, 4),
                checkpoint_path=(
                    tmp_path / f"{workers}.ckpt.json"
                    if kind == "checkpoint" else None
                ),
            )
        assert multi.pool_tasks == (3 if workers > 1 else 0)
        outcomes[kind] = (
            plan_digest(config_to_dict(multi.best.best_config)),
            multi.best.best_objective,
            multi.num_estimates,
        )
    assert len(set(outcomes.values())) == 1, outcomes

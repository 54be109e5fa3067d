"""Planner service: protocol, admission, breaker, cache, daemon, HTTP.

The daemon tests swap the real search for deterministic fake planners
(the daemon treats planning as an opaque callable); two end-to-end
tests at the bottom run the real planner and the real ``repro-serve``
process, including the SIGTERM drain/resume contract.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.lint.artifacts import fold_checkpoint
from repro.service import (
    STATUS_FAILED,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_SERVED,
    TERMINAL_STATUSES,
    AdmissionController,
    BreakerOpenError,
    CircuitBreaker,
    FleetConfig,
    FleetRouter,
    InProcessReplica,
    PlanCache,
    PlanOutcome,
    PlanRequest,
    PlanResponse,
    PlannerDaemon,
    ProtocolError,
    QueueFullError,
    TicketTimeout,
    serve,
)
from repro.service.httpd import JSONHandler
from repro.telemetry import CallbackSink, TelemetryBus, using_bus


def ok_outcome(request, objective=1.0, partial=False):
    return PlanOutcome(
        plan={"model": request.model, "gpus": request.gpus},
        objective=objective,
        partial=partial,
    )


def quick_planner(request, *, deadline=None, checkpoint_path=None,
                  cluster=None):
    return ok_outcome(request)


def cache_entry(objective=1.0):
    """A cache entry that passes the ``ACE31x`` schema."""
    plan = {
        "format_version": 1, "microbatch_size": 1,
        "stages": [{"start": 0, "end": 1, "num_devices": 4, "tp": [2],
                    "dp": [2], "tp_dim": [0], "recompute": [False]}],
    }
    return {"plan": plan, "objective": objective, "model": "m", "gpus": 4}


@contextlib.contextmanager
def fleet_of_one(state_dir, planner, config=None, **daemon_kwargs):
    """What ``repro-serve`` runs: one replica behind the router and its
    HTTP front; yields ``(http_server, replica)``."""
    daemon_kwargs = {"workers": 2, "queue_limit": 8, **daemon_kwargs}
    replica = InProcessReplica(
        "replica-0",
        state_dir=state_dir / "replica-0",
        planner=planner,
        daemon_kwargs=daemon_kwargs,
    ).start()
    router = FleetRouter({"replica-0": replica}, config=config).start()
    http_server = serve(router, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=http_server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield http_server, replica
    finally:
        http_server.shutdown()
        router.stop()
        http_server.server_close()


@pytest.fixture()
def bus_events():
    """Install a fresh global bus and collect every event."""
    events = []
    bus = TelemetryBus()
    bus.add_sink(CallbackSink(events.append))
    with using_bus(bus):
        yield events


class TestProtocol:
    def test_request_round_trip(self):
        request = PlanRequest(
            model="gpt-4l",
            gpus=4,
            stage_counts=(1, 2),
            iterations=5,
            seed=3,
            deadline_seconds=2.5,
            priority=7,
        )
        assert PlanRequest.from_json(request.to_json()) == request

    def test_response_round_trip(self):
        response = PlanResponse(
            status=STATUS_PARTIAL,
            request_id=4,
            fingerprint="abc",
            plan={"stages": []},
            objective=0.5,
            failures=[{"num_stages": 2, "kind": "deadline"}],
        )
        assert PlanResponse.from_json(response.to_json()) == response
        assert response.ok

    def test_fingerprint_canonicalizes_stage_counts(self):
        a = PlanRequest(model="m", stage_counts=(1, 2, 4))
        b = PlanRequest(model="m", stage_counts=(4, 2, 1, 2))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_ignores_deadline_and_priority(self):
        patient = PlanRequest(model="m")
        impatient = PlanRequest(
            model="m", deadline_seconds=0.5, priority=9
        )
        assert patient.fingerprint() == impatient.fingerprint()
        assert (
            PlanRequest(model="m", seed=1).fingerprint()
            != patient.fingerprint()
        )

    def test_rejects_malformed_requests(self):
        with pytest.raises(ProtocolError):
            PlanRequest(model="")
        with pytest.raises(ProtocolError):
            PlanRequest(model="m", gpus=0)
        with pytest.raises(ProtocolError):
            PlanRequest(model="m", deadline_seconds=0.0)
        with pytest.raises(ProtocolError):
            PlanRequest(model="m", stage_counts=(0,))
        with pytest.raises(ProtocolError, match="unknown request"):
            PlanRequest.from_json({"model": "m", "bogus": 1})
        with pytest.raises(ProtocolError, match="protocol version"):
            PlanRequest.from_json({"model": "m", "protocol_version": 99})
        with pytest.raises(ProtocolError):
            PlanResponse(status="nope", request_id=1, fingerprint="x")


class TestAdmission:
    def test_priority_then_fifo(self):
        queue = AdmissionController(8)
        queue.submit("low-1", priority=0)
        queue.submit("high", priority=5)
        queue.submit("low-2", priority=0)
        order = [queue.next(timeout=0.1) for _ in range(3)]
        assert order == ["high", "low-1", "low-2"]

    def test_overflow_rejects_with_retry_after(self):
        queue = AdmissionController(2, workers=1)
        queue.submit("a")
        queue.submit("b")
        with pytest.raises(QueueFullError) as exc_info:
            queue.submit("c")
        assert exc_info.value.retry_after > 0
        assert exc_info.value.depth == 2
        assert queue.stats()["rejected"] == 1
        assert queue.saturated

    def test_retry_after_tracks_service_times(self):
        slow = AdmissionController(1, workers=1)
        fast = AdmissionController(1, workers=1)
        for _ in range(20):
            slow.note_service_seconds(10.0)
            fast.note_service_seconds(0.01)
        slow.submit("x")
        fast.submit("x")
        with pytest.raises(QueueFullError) as on_slow:
            slow.submit("y")
        with pytest.raises(QueueFullError) as on_fast:
            fast.submit("y")
        assert on_slow.value.retry_after > on_fast.value.retry_after

    def test_close_unblocks_waiting_consumer(self):
        queue = AdmissionController(2)
        got = []
        worker = threading.Thread(
            target=lambda: got.append(queue.next(timeout=5))
        )
        worker.start()
        queue.close()
        worker.join(timeout=2)
        assert not worker.is_alive()
        assert got == [None]
        with pytest.raises(RuntimeError):
            queue.submit("late")


class TestCircuitBreaker:
    def make(self, **kwargs):
        self.now = [0.0]
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("reset_seconds", 10.0)
        return CircuitBreaker(clock=lambda: self.now[0], **kwargs)

    def test_opens_after_consecutive_failures(self):
        breaker = self.make()
        breaker.record_failure("k", "boom 1")
        breaker.check("k")  # one failure: still closed
        breaker.record_failure("k", "boom 2")
        with pytest.raises(BreakerOpenError) as exc_info:
            breaker.check("k")
        assert "boom 2" in str(exc_info.value)
        assert breaker.state("k") == "open"

    def test_success_resets_the_count(self):
        breaker = self.make()
        breaker.record_failure("k", "boom")
        breaker.record_success("k")
        breaker.record_failure("k", "boom")
        breaker.check("k")  # never reached the threshold

    def test_half_open_probe_closes_on_success(self):
        breaker = self.make()
        breaker.record_failure("k", "a")
        breaker.record_failure("k", "b")
        self.now[0] = 11.0
        breaker.check("k")  # admitted as the half-open probe
        # Concurrent non-probe callers keep failing fast.
        with pytest.raises(BreakerOpenError):
            breaker.check("k")
        breaker.record_success("k")
        assert breaker.state("k") == "closed"
        breaker.check("k")

    def test_failed_probe_reopens_immediately(self):
        breaker = self.make()
        breaker.record_failure("k", "a")
        breaker.record_failure("k", "b")
        self.now[0] = 11.0
        breaker.check("k")
        breaker.record_failure("k", "probe died")
        assert breaker.state("k") == "open"
        with pytest.raises(BreakerOpenError):
            breaker.check("k")

    def test_keys_are_independent(self):
        breaker = self.make()
        breaker.record_failure("bad", "x")
        breaker.record_failure("bad", "y")
        breaker.check("good")
        assert breaker.any_open
        snapshot = breaker.snapshot()
        assert snapshot["bad"]["state"] == "open"
        assert "good" not in snapshot or (
            snapshot["good"]["state"] == "closed"
        )


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", {"plan": 1})
        cache.put("b", {"plan": 2})
        assert cache.get("a")["plan"] == 1  # refresh a
        cache.put("c", {"plan": 3})  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_write_through_persistence(self, tmp_path):
        fingerprint = PlanRequest(model="m", gpus=4).fingerprint()
        first = PlanCache(directory=tmp_path)
        first.put(fingerprint, cache_entry(objective=0.5))
        assert (tmp_path / f"{fingerprint}.plan.json").exists()
        reborn = PlanCache(directory=tmp_path)
        assert reborn.get(fingerprint)["objective"] == 0.5

    def test_schema_invalid_entry_is_not_preloaded(self, tmp_path):
        fingerprint = PlanRequest(model="m", gpus=4).fingerprint()
        (tmp_path / f"{fingerprint}.plan.json").write_text(
            json.dumps({"plan": {"stages": "junk"}})
        )
        assert PlanCache(directory=tmp_path).get(fingerprint) is None

    def test_torn_plan_file_is_skipped(self, tmp_path):
        (tmp_path / "bad.plan.json").write_text('{"plan": tru')
        cache = PlanCache(directory=tmp_path)
        assert cache.get("bad") is None

    def test_invalidate_reaches_disk(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        cache.put("a", {"plan": 1, "gpus": 4})
        cache.put("b", {"plan": 2, "gpus": 8})
        dropped = cache.invalidate(gpus=4)
        assert dropped == 1
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert not (tmp_path / "a.plan.json").exists()
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_get_does_not_wait_behind_an_unlink(self, tmp_path, monkeypatch):
        """invalidate unlinks plan files after it releases the cache
        lock, so a slow unlink never stalls a concurrent get."""
        cache = PlanCache(directory=tmp_path)
        cache.put("a", {"plan": 1, "gpus": 4})
        cache.put("b", {"plan": 2, "gpus": 8})
        entered, release = threading.Event(), threading.Event()
        unlink = Path.unlink

        def blocking_unlink(path, *args, **kwargs):
            entered.set()
            release.wait(10)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", blocking_unlink)
        invalidating = threading.Thread(
            target=cache.invalidate, kwargs={"gpus": 4}
        )
        invalidating.start()
        try:
            assert entered.wait(10)
            hits = []
            getter = threading.Thread(
                target=lambda: hits.append(cache.get("b"))
            )
            getter.start()
            getter.join(5)
            assert hits == [{"plan": 2, "gpus": 8}]
        finally:
            release.set()
            invalidating.join(10)
        assert not (tmp_path / "a.plan.json").exists()


class TestDaemon:
    def make(self, planner=quick_planner, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("queue_limit", 4)
        daemon = PlannerDaemon(planner=planner, **kwargs).start()
        self.daemons.append(daemon)
        return daemon

    @pytest.fixture(autouse=True)
    def _cleanup(self):
        self.daemons = []
        yield
        for daemon in self.daemons:
            daemon.drain(timeout=5)

    def test_serves_and_caches(self, bus_events):
        daemon = self.make()
        request = PlanRequest(model="m", gpus=4)
        first = daemon.submit(request, timeout=10)
        assert first.status == STATUS_SERVED
        assert not first.cached
        second = daemon.submit(request, timeout=10)
        assert second.status == STATUS_SERVED
        assert second.cached
        assert second.plan == first.plan
        names = [e.name for e in bus_events]
        assert "service.request.completed" in names
        assert "service.cache.hit" in names

    def test_partial_outcome_is_not_cached(self, bus_events):
        def partial_planner(request, *, deadline=None,
                            checkpoint_path=None):
            return ok_outcome(request, partial=True)

        daemon = self.make(planner=partial_planner)
        request = PlanRequest(model="m")
        first = daemon.submit(request, timeout=10)
        assert first.status == STATUS_PARTIAL
        second = daemon.submit(request, timeout=10)
        assert second.status == STATUS_PARTIAL
        assert not second.cached

    def test_failures_open_the_breaker(self, bus_events):
        def broken_planner(request, *, deadline=None,
                           checkpoint_path=None):
            raise RuntimeError("no such model")

        daemon = self.make(planner=broken_planner, breaker_threshold=2)
        request = PlanRequest(model="bad")
        assert daemon.submit(request, timeout=10).status == STATUS_FAILED
        assert daemon.submit(request, timeout=10).status == STATUS_FAILED
        # Breaker open: the third request never reaches a worker.
        fast = daemon.submit(request, timeout=10)
        assert fast.status == STATUS_REJECTED
        assert fast.retry_after is not None
        assert "no such model" in fast.error
        assert daemon.health()["status"] == "degraded"
        names = [e.name for e in bus_events]
        assert "service.breaker.open" in names

    def test_breaker_probe_recovers_health(self, bus_events):
        calls = []

        def flaky_planner(request, *, deadline=None,
                          checkpoint_path=None):
            calls.append(request.model)
            if len(calls) <= 2:
                raise RuntimeError("transient")
            return ok_outcome(request)

        daemon = self.make(
            planner=flaky_planner,
            breaker_threshold=2,
            breaker_reset_seconds=0.2,
        )
        request = PlanRequest(model="m")
        daemon.submit(request, timeout=10)
        daemon.submit(request, timeout=10)
        assert daemon.health()["status"] == "degraded"
        time.sleep(0.25)  # past reset: next request is the probe
        probe = daemon.submit(request, timeout=10)
        assert probe.status == STATUS_SERVED
        assert daemon.health()["status"] == "healthy"
        names = [e.name for e in bus_events]
        assert "service.breaker.probe" in names
        assert "service.breaker.close" in names

    def test_queue_burst_sheds_load(self, bus_events):
        release = threading.Event()

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            release.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(
            planner=gated_planner, workers=1, queue_limit=2
        )
        tickets, rejected = [], []
        # Worker busy on the first + two queued; the rest must shed.
        for i in range(6):
            out = daemon.submit_nowait(PlanRequest(model=f"m{i}"))
            if isinstance(out, PlanResponse):
                rejected.append(out)
            else:
                tickets.append(out)
        assert len(rejected) >= 2
        assert all(r.status == STATUS_REJECTED for r in rejected)
        assert all(r.retry_after > 0 for r in rejected)
        release.set()
        for ticket in tickets:
            response = ticket.wait(timeout=10)
            assert response is not None
            assert response.status == STATUS_SERVED

    def test_deadline_starts_at_admission(self):
        """A queued request's search gets a deadline its queue wait has
        already spent: the clock starts at admission, not at dequeue."""
        busy, release = threading.Event(), threading.Event()
        remaining = []

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            if request.model == "first":
                busy.set()
                release.wait(timeout=10)
            else:
                remaining.append(deadline.remaining())
            return ok_outcome(request)

        daemon = self.make(planner=gated_planner, workers=1)
        first = daemon.submit_nowait(PlanRequest(model="first"))
        assert busy.wait(timeout=10)
        queued = daemon.submit_nowait(
            PlanRequest(model="second", deadline_seconds=30.0)
        )
        time.sleep(0.3)
        release.set()
        assert first.wait(timeout=10).status == STATUS_SERVED
        assert queued.wait(timeout=10).status == STATUS_SERVED
        assert remaining[0] <= 30.0 - 0.3

    def test_deadline_spent_in_queue_fails_without_breaker(self):
        """A deadline that runs out while its ticket queues answers
        ``failed`` without a search, and never opens the breaker: the
        caller's deadline failed, not the config."""
        busy, release = threading.Event(), threading.Event()
        searched = []

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            if request.model.startswith("first"):
                busy.set()
                release.wait(timeout=10)
            else:
                searched.append(request.model)
            return ok_outcome(request)

        daemon = self.make(
            planner=gated_planner, workers=1, breaker_threshold=2
        )
        queued = PlanRequest(model="second", deadline_seconds=0.2)
        for i in range(3):
            busy.clear()
            release.clear()
            first = daemon.submit_nowait(PlanRequest(model=f"first{i}"))
            assert busy.wait(timeout=10)
            ticket = daemon.submit_nowait(queued)
            time.sleep(0.5)
            release.set()
            assert first.wait(timeout=10).status == STATUS_SERVED
            response = ticket.wait(timeout=10)
            assert response.status == STATUS_FAILED
            assert "expired while queued" in response.error
        assert searched == []
        assert daemon.breaker.state(daemon._breaker_key(queued)) == "closed"

    def test_deadline_cut_failures_spare_the_breaker(self):
        def slow_planner(request, *, deadline=None,
                         checkpoint_path=None):
            while not deadline.expired():
                time.sleep(0.01)
            raise RuntimeError("no stage count finished")

        daemon = self.make(planner=slow_planner, breaker_threshold=2)
        request = PlanRequest(model="m", deadline_seconds=0.05)
        for _ in range(3):
            response = daemon.submit(request, timeout=10)
            assert response.status == STATUS_FAILED
        assert daemon.breaker.state(daemon._breaker_key(request)) == "closed"

    def test_journal_readmits_after_restart(self, tmp_path, bus_events):
        request = PlanRequest(model="m", gpus=4)
        journal = tmp_path / f"{request.fingerprint()}.request.json"
        journal.write_text(json.dumps(request.to_json()))
        daemon = self.make(state_dir=tmp_path)
        # The re-admitted request is planned without any client call.
        for _ in range(100):
            if (
                daemon.cache.get(request.fingerprint()) is not None
                and not journal.exists()
            ):
                break
            time.sleep(0.05)
        assert daemon.cache.get(request.fingerprint()) is not None
        assert not journal.exists()
        assert "service.request.readmitted" in [
            e.name for e in bus_events
        ]

    def test_malformed_cached_plan_is_searched_fresh(
        self, tmp_path, bus_events
    ):
        request = PlanRequest(model="m", gpus=4)
        (tmp_path / f"{request.fingerprint()}.plan.json").write_text(
            json.dumps({"plan": {"stages": "junk"}})
        )
        daemon = self.make(state_dir=tmp_path)
        response = daemon.submit(request, timeout=10)
        assert response.status == STATUS_SERVED
        assert not response.cached
        assert response.plan == ok_outcome(request).plan

    def test_misnamed_journal_is_not_readmitted(self, tmp_path, bus_events):
        request = PlanRequest(model="m", gpus=4)
        journal = tmp_path / f"{'0' * 16}.request.json"  # ACE331
        journal.write_text(json.dumps(request.to_json()))
        daemon = self.make(state_dir=tmp_path)
        # Re-admission runs synchronously inside start().
        assert "service.request.readmitted" not in [
            e.name for e in bus_events
        ]
        assert daemon.admission.stats()["admitted"] == 0
        assert journal.exists()

    def test_drain_sheds_queue_and_reports(self, bus_events):
        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            # Runs until the drain cancels its deadline (a cooperative
            # search stopping at an iteration boundary).
            started = time.monotonic()
            while not (deadline and deadline.expired()):
                if time.monotonic() - started > 10:
                    raise RuntimeError("drain never cancelled")
                time.sleep(0.01)
            return ok_outcome(request)

        daemon = self.make(
            planner=gated_planner, workers=1, queue_limit=4
        )
        tickets = [
            daemon.submit_nowait(PlanRequest(model=f"m{i}"))
            for i in range(3)
        ]
        summary = daemon.drain(timeout=10)
        assert not daemon.ready
        assert summary["queued_shed"] + summary[
            "in_flight_interrupted"
        ] >= 1
        for ticket in tickets:
            response = ticket.wait(timeout=5)
            assert response is not None
            assert response.status in TERMINAL_STATUSES
        late = daemon.submit(PlanRequest(model="late"), timeout=5)
        assert late.status == STATUS_REJECTED

    def test_chaos_every_request_terminates(self, bus_events):
        """The acceptance scenario: concurrent load + injected crashes
        + a sub-second deadline + a queue burst — every request gets a
        well-formed terminal response, nothing hangs, and health goes
        degraded -> healthy once the breaker closes."""
        crash_count = [0]

        def chaos_planner(request, *, deadline=None,
                          checkpoint_path=None):
            if request.model.startswith("crash"):
                crash_count[0] += 1
                if crash_count[0] <= 2:
                    raise RuntimeError("injected worker crash")
                return ok_outcome(request)
            if request.model == "slow":
                while not (deadline and deadline.expired()):
                    time.sleep(0.01)
                return ok_outcome(request, partial=True)
            time.sleep(0.02)
            return ok_outcome(request)

        daemon = self.make(
            planner=chaos_planner,
            workers=2,
            queue_limit=3,
            breaker_threshold=2,
            breaker_reset_seconds=0.2,
        )
        requests = (
            # Distinct fingerprints (identical in-flight requests would
            # coalesce into one search — one crash, not two) but the
            # same breaker key, which ignores the seed.
            [PlanRequest(model="crash-model", seed=i)
             for i in range(2)]
            + [PlanRequest(model="slow", deadline_seconds=0.3)]
            + [PlanRequest(model=f"burst-{i}") for i in range(9)]
        )
        responses = [None] * len(requests)

        def client(index):
            responses[index] = daemon.submit(requests[index], timeout=30)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(requests))
        ]
        # The crash and deadline requests launch first so the queue
        # burst cannot shed them before they reach a worker.
        for thread in threads[:3]:
            thread.start()
        time.sleep(0.1)
        for thread in threads[3:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "a request hung"
        statuses = set()
        for response in responses:
            assert response is not None
            assert response.status in TERMINAL_STATUSES
            statuses.add(response.status)
            round_trip = PlanResponse.from_json(response.to_json())
            assert round_trip.status == response.status
        assert STATUS_FAILED in statuses  # the injected crashes
        # Sub-second deadline answered with the best-so-far plan.
        slow_response = responses[2]
        assert slow_response.status in (STATUS_PARTIAL, STATUS_REJECTED)
        # Breaker opened on the crash model -> degraded; after the
        # reset window a successful probe closes it -> healthy again.
        assert "service.breaker.open" in [e.name for e in bus_events]
        time.sleep(0.25)
        recovered = daemon.submit(
            PlanRequest(model="crash-model"), timeout=10
        )
        assert recovered.status == STATUS_SERVED
        assert daemon.health()["status"] == "healthy"


class TestCoalescing:
    @pytest.fixture(autouse=True)
    def _cleanup(self):
        self.daemons = []
        yield
        for daemon in self.daemons:
            daemon.drain(timeout=5)

    def make(self, planner=quick_planner, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("queue_limit", 8)
        daemon = PlannerDaemon(planner=planner, **kwargs).start()
        self.daemons.append(daemon)
        return daemon

    def test_concurrent_identical_requests_share_one_search(
        self, bus_events
    ):
        """N same-fingerprint submits in flight -> exactly one planner
        call; every caller gets an identical plan."""
        gate = threading.Event()
        calls = []
        lock = threading.Lock()

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            with lock:
                calls.append(request.fingerprint())
            gate.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(planner=gated_planner, workers=1)
        request = PlanRequest(model="m", gpus=4)
        tickets = [daemon.submit_nowait(request) for _ in range(5)]
        followers = [t for t in tickets if t.coalesced]
        assert len(followers) == 4
        gate.set()
        responses = [t.wait(timeout=10) for t in tickets]
        assert len(calls) == 1
        assert all(r.status == STATUS_SERVED for r in responses)
        plans = {json.dumps(r.plan, sort_keys=True) for r in responses}
        assert len(plans) == 1
        # Followers are flagged and keep their own request ids.
        assert [r.request_id for r in responses] == [
            t.request_id for t in tickets
        ]
        coalesced = [r for r in responses if r.coalesced]
        assert len(coalesced) == 4
        names = [e.name for e in bus_events]
        assert names.count("coalesce.attach") == 4
        assert "coalesce.fanout" in names
        stats = daemon.health()["coalesce"]
        assert stats["total"] == 4

    def test_distinct_fingerprints_do_not_coalesce(self):
        gate = threading.Event()

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            gate.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(planner=gated_planner, workers=2)
        one = daemon.submit_nowait(PlanRequest(model="m", gpus=4))
        two = daemon.submit_nowait(PlanRequest(model="m", gpus=8))
        assert not one.coalesced and not two.coalesced
        gate.set()
        assert one.wait(timeout=10).status == STATUS_SERVED
        assert two.wait(timeout=10).status == STATUS_SERVED

    def test_deadline_less_request_does_not_ride_a_deadlined_primary(
        self, bus_events
    ):
        """A deadline-less request queued behind a same-key deadlined
        one searches on its own: the deadline's failure is not its."""
        gate = threading.Event()
        calls = []

        def gated_planner(request, *, deadline=None,
                          checkpoint_path=None):
            calls.append(request.model)
            if request.model == "blocker":
                gate.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(planner=gated_planner, workers=1)
        blocker = daemon.submit_nowait(PlanRequest(model="blocker"))
        deadlined = daemon.submit_nowait(
            PlanRequest(model="m", gpus=4, deadline_seconds=0.2)
        )
        patient = daemon.submit_nowait(PlanRequest(model="m", gpus=4))
        assert not patient.coalesced
        time.sleep(0.5)  # both queue past the first one's deadline
        gate.set()
        assert blocker.wait(timeout=10).status == STATUS_SERVED
        failed = deadlined.wait(timeout=10)
        assert failed.status == STATUS_FAILED
        assert "deadline expired while queued" in failed.error
        served = patient.wait(timeout=10)
        assert served.status == STATUS_SERVED
        assert not served.coalesced and not served.cached
        assert calls == ["blocker", "m"]
        assert "coalesce.attach" not in [e.name for e in bus_events]

    def test_wait_timeout_is_typed(self):
        gate = threading.Event()

        def stuck_planner(request, *, deadline=None,
                          checkpoint_path=None):
            gate.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(planner=stuck_planner, workers=1)
        ticket = daemon.submit_nowait(PlanRequest(model="m"))
        outcome = ticket.wait(timeout=0.05)
        assert isinstance(outcome, TicketTimeout)
        assert not outcome.ok
        assert outcome.fingerprint == ticket.request.fingerprint()
        assert outcome.waited_seconds >= 0.05
        gate.set()
        final = ticket.wait(timeout=10)
        assert final.status == STATUS_SERVED

    def test_submit_maps_timeout_to_failed_response(self):
        gate = threading.Event()

        def stuck_planner(request, *, deadline=None,
                          checkpoint_path=None):
            gate.wait(timeout=10)
            return ok_outcome(request)

        daemon = self.make(planner=stuck_planner, workers=1)
        response = daemon.submit(PlanRequest(model="m"), timeout=0.05)
        assert response.status == STATUS_FAILED
        assert "timed out" in response.error
        gate.set()


class TestHTTP:
    @pytest.fixture()
    def server(self, tmp_path):
        with fleet_of_one(
            tmp_path, quick_planner, queue_limit=4
        ) as (http_server, _):
            yield http_server

    def post(self, server, path, payload):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get(self, server, path):
        port = server.server_address[1]
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10
            ) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_plan_and_health_endpoints(self, server):
        request = PlanRequest(model="m", gpus=4)
        code, body = self.post(server, "/plan", request.to_json())
        assert code == 200
        response = PlanResponse.from_json(body)
        assert response.status == STATUS_SERVED
        code, health = self.get(server, "/healthz")
        assert code == 200
        assert health["status"] == "healthy"
        assert list(health["replicas"]) == ["replica-0"]
        assert health["replicas"]["replica-0"]["health"]["status"] == (
            "healthy"
        )
        code, readiness = self.get(server, "/readyz")
        assert code == 200 and readiness["ready"]

    def test_open_breaker_degrades_healthz(self, tmp_path):
        """A fleet of one reports its replica's own health: an open
        breaker makes ``/healthz`` say ``degraded``."""

        def broken_planner(request, *, deadline=None,
                           checkpoint_path=None):
            raise RuntimeError("boom")

        with fleet_of_one(
            tmp_path, broken_planner,
            config=FleetConfig(health_interval=0.02), breaker_threshold=1,
        ) as (server, replica):
            code, body = self.post(
                server, "/plan", PlanRequest(model="m", gpus=4).to_json()
            )
            assert code == 500 and body["status"] == STATUS_FAILED
            assert replica.daemon.breaker.any_open
            deadline = time.monotonic() + 10
            while True:
                code, health = self.get(server, "/healthz")
                if health["status"] != "healthy" or \
                        time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            assert code == 200
            assert health["status"] == "degraded"
            assert health["replicas"]["replica-0"]["healthy"]
            own = health["replicas"]["replica-0"]["health"]
            assert own["status"] == "degraded"
            assert set(own) >= {"queue", "breakers", "cache"}

    def test_bad_requests_get_400(self, server):
        code, body = self.post(server, "/plan", {"bogus": True})
        assert code == 400
        assert "error" in body
        code, _ = self.post(server, "/nowhere", {})
        assert code == 404
        code, _ = self.get(server, "/nowhere")
        assert code == 404

    def test_invalidate_endpoint(self, server):
        request = PlanRequest(model="m", gpus=4)
        self.post(server, "/plan", request.to_json())
        code, body = self.post(server, "/invalidate", {"gpus": 4})
        assert code == 200
        assert body["dropped"] == 1
        code, body = self.post(server, "/invalidate", {"gpus": "x"})
        assert code == 400

    def test_keep_alive_requests_do_not_stall(self, server):
        """Sequential requests on one keep-alive connection never wait
        on the client's delayed ACK (about 40 ms each without
        ``TCP_NODELAY``)."""
        body = json.dumps(PlanRequest(model="m", gpus=4).to_json())
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10
        )

        def roundtrip(method, path, payload=None):
            conn.request(method, path, body=payload)
            reply = conn.getresponse()
            data = json.loads(reply.read())
            assert reply.status == 200, data
            return data

        try:
            roundtrip("POST", "/plan", body)  # warm the cache
            start = time.perf_counter()
            for _ in range(10):
                roundtrip("GET", "/healthz")
                assert roundtrip("POST", "/plan", body)["cached"]
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 20 * 0.015, f"20 requests took {elapsed:.3f}s"

    def test_access_log_with_and_without_sink(self, server, monkeypatch):
        clients = []
        real_address_string = JSONHandler.address_string

        def recording_address_string(handler):
            clients.append(real_address_string(handler))
            return clients[-1]

        monkeypatch.setattr(
            JSONHandler, "address_string", recording_address_string
        )
        with using_bus(TelemetryBus()):
            assert self.get(server, "/healthz")[0] == 200
        assert clients == []  # no sink: nothing formatted
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            assert self.get(server, "/healthz")[0] == 200
        access = [e for e in events if e.name == "service.http.access"]
        assert len(access) == 1
        assert access[0].source == "service"
        assert access[0].attrs == {
            "client": "127.0.0.1",
            "line": '"GET /healthz HTTP/1.1" 200 -',
        }


class TestRealPlannerEndToEnd:
    def test_request_plans_and_caches(self, tmp_path):
        daemon = PlannerDaemon(
            workers=1, queue_limit=2, state_dir=tmp_path
        ).start()
        try:
            request = PlanRequest(
                model="gpt-2l", gpus=4, stage_counts=(1, 2),
                iterations=3,
            )
            first = daemon.submit(request, timeout=120)
            assert first.status == STATUS_SERVED
            assert first.plan["stages"]
            assert first.objective > 0
            second = daemon.submit(request, timeout=10)
            assert second.cached
            assert second.plan == first.plan
        finally:
            daemon.drain(timeout=10)

    def test_cold_request_writes_its_checkpoint_once_then_appends(
        self, tmp_path, monkeypatch
    ):
        """The counted cut: one atomic write of the checkpoint when the
        search starts, one appended record per stage count, no rename
        onto an existing checkpoint, and one unlink once served."""
        import repro.core.checkpoint as checkpoint_module

        request = PlanRequest(
            model="gpt-16l", gpus=4, stage_counts=(1, 2, 4), iterations=3
        )
        path = tmp_path / f"{request.fingerprint()}.ckpt.json"
        atomic, replaced_live, unlinked = [], [], []
        write_json_atomic = checkpoint_module.write_json_atomic
        replace, unlink = os.replace, Path.unlink

        def counting_write(target, payload, **kwargs):
            atomic.append(Path(target))
            return write_json_atomic(target, payload, **kwargs)

        def counting_replace(src, dst, *args, **kwargs):
            if Path(dst) == path and path.exists():
                replaced_live.append(dst)
            return replace(src, dst, *args, **kwargs)

        def counting_unlink(target, *args, **kwargs):
            if target == path:
                unlinked.append(target.read_text())
            return unlink(target, *args, **kwargs)

        monkeypatch.setattr(
            checkpoint_module, "write_json_atomic", counting_write
        )
        monkeypatch.setattr(os, "replace", counting_replace)
        monkeypatch.setattr(Path, "unlink", counting_unlink)
        daemon = PlannerDaemon(
            workers=1, queue_limit=2, state_dir=tmp_path
        ).start()
        try:
            response = daemon.submit(request, timeout=120)
        finally:
            daemon.drain(timeout=10)
        assert response.status == STATUS_SERVED
        assert atomic == [path]
        assert replaced_live == []
        assert len(unlinked) == 1
        header, *records = filter(None, unlinked[0].split("\n"))
        assert fold_checkpoint(header)["completed"] == {}
        assert [list(json.loads(r)["completed"]) for r in records] == [
            ["1"], ["2"], ["4"]
        ]

    def test_sub_second_deadline_returns_partial_or_valid(self):
        daemon = PlannerDaemon(workers=1, queue_limit=2).start()
        try:
            response = daemon.submit(
                PlanRequest(
                    model="gpt-4l",
                    gpus=4,
                    stage_counts=(1, 2, 4),
                    iterations=200,
                    deadline_seconds=0.5,
                ),
                timeout=60,
            )
            assert response.status in TERMINAL_STATUSES
            if response.ok:
                assert response.plan is not None
        finally:
            daemon.drain(timeout=10)

    def test_cli_and_daemon_give_the_same_plan(self, tmp_path):
        """The two ways in (``repro-search`` and the daemon's ``/plan``
        path) answer one request with one plan."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.cli import search_main
        from repro.service import plan_digest, plan_request

        estimates = {}

        def planner(request, **kwargs):
            outcome = plan_request(request, **kwargs)
            estimates[request.fingerprint()] = outcome.num_estimates
            return outcome

        daemon = PlannerDaemon(
            planner=planner, admission_lint=True, workers=1
        ).start()
        plan_file = tmp_path / "plan.json"

        @st.composite
        def requests(draw):
            gpus = draw(st.sampled_from([1, 2, 4, 8]))
            counts = [c for c in (1, 2, 4, 8) if c <= gpus]
            return PlanRequest(
                model=f"gpt-{draw(st.integers(2, 6))}l",
                gpus=gpus,
                stage_counts=draw(st.none() | st.lists(
                    st.sampled_from(counts), min_size=1,
                    max_size=len(counts), unique=True,
                ).map(tuple)),
                iterations=draw(st.integers(1, 2)),
                seed=draw(st.integers(0, 2 ** 16)),
                strategy=draw(st.sampled_from(["greedy", "mcmc"])),
            )

        @settings(max_examples=20, deadline=None, database=None)
        @given(request=requests())
        def check(request):
            argv = [
                "--model", request.model, "--gpus", str(request.gpus),
                "--iterations", str(request.iterations),
                "--seed", str(request.seed),
                "--strategy", request.strategy,
                "--output", str(plan_file), "--json", "--quiet",
            ]
            if request.stage_counts is not None:
                argv += ["--stage-counts", *map(str, request.stage_counts)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = search_main(argv)
            response = daemon.submit(request, timeout=120)
            assert response.status == STATUS_SERVED
            assert code == 0
            assert plan_digest(json.loads(plan_file.read_text())) == (
                plan_digest(response.plan)
            )
            payload = json.loads(out.getvalue())
            assert payload["estimates"] == estimates[request.fingerprint()]
            assert payload["failures"] == response.failures

        try:
            check()
        finally:
            daemon.drain(timeout=10)


SERVE_TIMEOUT = 90


@pytest.mark.timeout(SERVE_TIMEOUT + 30)
class TestSigtermDrain:
    """Satellite 4: SIGTERM mid-search checkpoints and resumes."""

    REQUEST = dict(
        model="gpt-4l", gpus=4, stage_counts=[1, 2, 4], iterations=30
    )

    def spawn(self, state_dir, run_log):
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.cli import serve_main; "
                "raise SystemExit(serve_main())",
                "--port", "0",
                "--workers", "1",
                "--state-dir", str(state_dir),
                "--run-log", str(run_log),
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
        line = process.stdout.readline()
        assert "listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        return process, port

    def post_plan(self, port, payload, timeout=60):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/plan",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return json.loads(reply.read())

    def test_drain_checkpoints_and_resume_is_bit_exact(self, tmp_path):
        state_dir = tmp_path / "state"
        process, port = self.spawn(state_dir, tmp_path / "run1.jsonl")
        fingerprint = PlanRequest(**{
            **self.REQUEST, "stage_counts": (1, 2, 4),
        }).fingerprint()
        # repro-serve is a fleet of one: its daemon owns replica-0/.
        replica_dir = state_dir / "replica-0"
        checkpoint = replica_dir / f"{fingerprint}.ckpt.json"
        plan_file = replica_dir / f"{fingerprint}.plan.json"
        responses = []

        def client():
            try:
                responses.append(self.post_plan(port, self.REQUEST))
            except (OSError, urllib.error.URLError):
                responses.append(None)  # cut off mid-drain: journaled

        thread = threading.Thread(target=client)
        thread.start()
        try:
            # Wait for the first stage count to land in the checkpoint
            # (or the whole search to finish), then pull the plug.
            deadline = time.monotonic() + SERVE_TIMEOUT
            while time.monotonic() < deadline:
                if plan_file.exists():
                    break
                if checkpoint.exists():
                    try:
                        done = fold_checkpoint(
                            checkpoint.read_text()
                        )["completed"]
                    except (ValueError, KeyError):
                        done = {}
                    if done:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint progress before timeout")
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=SERVE_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
        thread.join(timeout=30)
        # Durable state survived the drain: either the finished plan,
        # or the checkpoint + journal of the interrupted search.
        interrupted = not plan_file.exists()
        if interrupted:
            assert checkpoint.exists()
            assert (
                replica_dir / f"{fingerprint}.request.json"
            ).exists()

        # Restart: the journaled request is re-admitted and resumed
        # from the checkpoint; completed counts are not re-searched.
        process2, port2 = self.spawn(state_dir, tmp_path / "run2.jsonl")
        try:
            deadline = time.monotonic() + SERVE_TIMEOUT
            while time.monotonic() < deadline:
                if plan_file.exists():
                    break
                time.sleep(0.1)
            assert plan_file.exists(), "restart did not finish the plan"
            final = self.post_plan(port2, self.REQUEST)
            assert final["status"] == STATUS_SERVED
        finally:
            process2.send_signal(signal.SIGTERM)
            try:
                process2.wait(timeout=30)
            finally:
                if process2.poll() is None:
                    process2.kill()

        # Bit-exact: the drained-and-resumed plan equals the plan an
        # uninterrupted in-process search finds.
        from repro.service.planner import plan_request

        reference = plan_request(PlanRequest(**{
            **self.REQUEST, "stage_counts": (1, 2, 4),
        }))
        assert final["objective"] == reference.objective
        assert final["plan"] == reference.plan

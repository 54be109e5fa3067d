"""Planner fleet: ring properties, atomic writes, router resilience,
chaos replay, fleet artifacts lint, and the HTTP front-end.

The hash-ring properties (balance, *exact* minimal remapping, ladder
stability under membership changes) are pinned with hypothesis; the
router tests use scripted in-process replica clients so failover,
hedging, and every degradation rung are deterministic.
"""

from __future__ import annotations

import http.client
import inspect
import json
import os
import tempfile
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ioutil import write_json_atomic
from repro.lint.artifacts import (
    lint_artifact_path,
    lint_fleet_state_file,
    lint_run_log_file,
)
from repro.service import (
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_SERVED,
    ChaosEvent,
    ChaosReport,
    FleetConfig,
    FleetRouter,
    HashRing,
    InProcessReplica,
    PlanOutcome,
    PlanRequest,
    PlanResponse,
    PlannerDaemon,
    ReplicaError,
    plan_digest,
    run_chaos,
    seeded_schedule,
    serve,
    synthetic_planner,
)
from repro.service.daemon import WATCHDOG_GRACE
from repro.telemetry import CallbackSink, TelemetryBus, using_bus


@pytest.fixture()
def bus_events():
    events = []
    bus = TelemetryBus()
    bus.add_sink(CallbackSink(events.append))
    with using_bus(bus):
        yield events


# ----------------------------------------------------------------------
# atomic JSON writes
# ----------------------------------------------------------------------
class TestWriteJsonAtomic:
    def test_writes_and_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "artifact.json"
        out = write_json_atomic(path, {"a": 1})
        assert out == path
        assert json.loads(path.read_text()) == {"a": 1}
        assert path.read_text().endswith("\n")

    def test_replaces_existing_atomically(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_atomic(path, {"v": 1})
        write_json_atomic(path, {"v": 2}, sort_keys=True)
        assert json.loads(path.read_text()) == {"v": 2}
        # No temp-file orphans after successful writes.
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_leaves_previous_contents(self, tmp_path):
        path = tmp_path / "x.json"
        write_json_atomic(path, {"v": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_single_write_of_compact_json(self, tmp_path, monkeypatch):
        writes = []
        real_fdopen = os.fdopen

        class RecordingHandle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                self.handle.__enter__()
                return self

            def __exit__(self, *exc):
                return self.handle.__exit__(*exc)

            def write(self, text):
                writes.append(text)
                return self.handle.write(text)

        monkeypatch.setattr(
            os, "fdopen",
            lambda *a, **k: RecordingHandle(real_fdopen(*a, **k)),
        )
        path = tmp_path / "x.json"
        payload = {"b": [1, 2.5], "a": {"c": None, "d": "e"}}
        write_json_atomic(path, payload, sort_keys=True)
        expected = json.dumps(payload, sort_keys=True) + "\n"
        assert writes == [expected]
        assert path.read_text() == expected
        assert expected.count("\n") == 1

    def test_unserializable_payload_raises_before_temp_file(
        self, tmp_path, monkeypatch
    ):
        def no_temp_file(*args, **kwargs):
            pytest.fail("temp file created for an unserializable payload")

        monkeypatch.setattr(tempfile, "mkstemp", no_temp_file)
        with pytest.raises(TypeError):
            write_json_atomic(tmp_path / "x.json", {"bad": object()})
        assert list(tmp_path.iterdir()) == []

    def test_indent_keyword_is_gone(self, tmp_path):
        assert "indent" not in inspect.signature(
            write_json_atomic
        ).parameters
        with pytest.raises(TypeError):
            write_json_atomic(tmp_path / "x.json", {}, indent=2)


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
_NODE_NAMES = st.sets(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
        min_size=1,
        max_size=12,
    ),
    min_size=2,
    max_size=8,
)
_KEYS = [f"key-{i}" for i in range(600)]


class TestHashRing:
    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().node_for("k")

    def test_membership_validation(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.add("")
        with pytest.raises(KeyError):
            ring.remove("missing")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_ladder_is_distinct_and_owner_first(self):
        ring = HashRing(["a", "b", "c"])
        ladder = ring.nodes_for("some-key", 3)
        assert len(ladder) == len(set(ladder)) == 3
        assert ladder[0] == ring.node_for("some-key")
        # count beyond membership clamps
        assert ring.nodes_for("some-key", 10) == ladder

    @settings(max_examples=50, deadline=None)
    @given(nodes=_NODE_NAMES)
    def test_balance(self, nodes):
        """No replica owns a wildly outsized share of the key space."""
        ring = HashRing(nodes, vnodes=128)
        shares = ring.shares(_KEYS)
        assert min(shares.values()) > 0
        assert max(shares.values()) / min(shares.values()) <= 3.5

    @settings(max_examples=50, deadline=None)
    @given(nodes=_NODE_NAMES, joined=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=13, max_size=16
    ))
    def test_minimal_remapping_on_join(self, nodes, joined):
        """Exact property: a key whose owner changed after a join must
        now be owned by the joined node — nothing else moved."""
        ring = HashRing(nodes)
        before = {key: ring.node_for(key) for key in _KEYS}
        ring.add(joined)
        for key in _KEYS:
            after = ring.node_for(key)
            if after != before[key]:
                assert after == joined

    @settings(max_examples=50, deadline=None)
    @given(nodes=_NODE_NAMES)
    def test_minimal_remapping_on_leave(self, nodes):
        """Exact property: only the removed node's keys move."""
        ring = HashRing(nodes)
        victim = sorted(nodes)[0]
        before = {key: ring.node_for(key) for key in _KEYS}
        ring.remove(victim)
        for key in _KEYS:
            after = ring.node_for(key)
            if after != before[key]:
                assert before[key] == victim

    @settings(max_examples=50, deadline=None)
    @given(nodes=_NODE_NAMES)
    def test_ladder_stable_under_leave(self, nodes):
        """Removing a node deletes it from every failover ladder
        without reordering the survivors."""
        ring = HashRing(nodes)
        victim = sorted(nodes)[-1]
        before = {
            key: ring.nodes_for(key, len(nodes)) for key in _KEYS[:100]
        }
        ring.remove(victim)
        for key, ladder in before.items():
            expected = [n for n in ladder if n != victim]
            assert ring.nodes_for(key, len(nodes)) == expected

    def test_remove_is_exact_inverse_of_add(self):
        ring = HashRing(["a", "b"])
        ring.add("c")
        ring.remove("c")
        fresh = HashRing(["a", "b"])
        assert all(
            ring.node_for(k) == fresh.node_for(k) for k in _KEYS
        )


# ----------------------------------------------------------------------
# scripted replica clients
# ----------------------------------------------------------------------
def _request(model="gpt-4l", **kwargs):
    kwargs.setdefault("gpus", 4)
    kwargs.setdefault("iterations", 2)
    return PlanRequest(model=model, **kwargs)


class ScriptedClient:
    """A replica client whose behavior is scripted per call."""

    def __init__(self, behavior):
        #: ``behavior(payload) -> PlanResponse`` or raises ReplicaError.
        self.behavior = behavior
        self.calls = []
        self.timeouts = []
        self.invalidations = 0

    def plan(self, payload, timeout):
        self.calls.append(dict(payload))
        self.timeouts.append(timeout)
        return self.behavior(payload)

    def health(self):
        return {"queue_depth": 0}

    def ready(self):
        return True

    def invalidate(self, *, gpus=None):
        self.invalidations += 1
        return {"dropped": 0}

    def churn(self, event):
        return {"dropped": 0}

    def close(self, drain_timeout=None):
        pass


def _served(payload, *, tag):
    fingerprint = PlanRequest.from_json(payload).fingerprint()
    return PlanResponse(
        status=STATUS_SERVED,
        request_id=1,
        fingerprint=fingerprint,
        plan={"tag": tag},
        objective=1.0,
    )


def _fleet_config(**overrides):
    overrides.setdefault("retries", 0)
    overrides.setdefault("health_interval", 30.0)
    overrides.setdefault("backoff_base", 0.001)
    overrides.setdefault("backoff_cap", 0.002)
    return FleetConfig(**overrides)


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class TestFleetRouter:
    def _local_fleet(self, tmp_path, n=2, delay=0.0, **config):
        replicas = {
            f"r{i}": InProcessReplica(
                f"r{i}",
                state_dir=tmp_path / f"r{i}",
                planner=synthetic_planner(delay),
                daemon_kwargs={"workers": 2, "queue_limit": 8},
            ).start()
            for i in range(n)
        }
        router = FleetRouter(
            replicas,
            config=_fleet_config(**config),
            state_path=tmp_path / "router.fleet.json",
        ).start()
        return router, replicas

    def test_routes_and_write_through_cache(self, tmp_path):
        router, _ = self._local_fleet(tmp_path, n=2)
        try:
            request = _request()
            first = router.submit(request)
            assert first.status == STATUS_SERVED
            assert first.replica in ("r0", "r1")
            assert not first.cached
            second = router.submit(request)
            # Served from the router's shared tier, no replica call.
            assert second.cached and second.replica is None
            assert second.plan == first.plan
        finally:
            router.stop()

    def test_failover_on_killed_owner(self, tmp_path):
        router, replicas = self._local_fleet(tmp_path, n=2)
        try:
            request = _request()
            owner = router.ring.node_for(request.fingerprint())
            replicas[owner].killed = True
            response = router.submit(request)
            assert response.status == STATUS_SERVED
            assert response.replica != owner
            assert response.failovers == 1
        finally:
            for client in replicas.values():
                client.killed = False
            router.stop()

    def test_backpressure_fails_over(self):
        def overloaded(payload):
            fingerprint = PlanRequest.from_json(payload).fingerprint()
            return PlanResponse(
                status=STATUS_REJECTED,
                request_id=1,
                fingerprint=fingerprint,
                retry_after=0.5,
            )

        clients = {
            "a": ScriptedClient(overloaded),
            "b": ScriptedClient(lambda p: _served(p, tag="b")),
        }
        router = FleetRouter(clients, config=_fleet_config())
        request = _request()
        owner = router.ring.node_for(request.fingerprint())
        if owner == "b":  # make "a" the owner for a deterministic test
            router.stop()
            clients["a"], clients["b"] = clients["b"], clients["a"]
            router = FleetRouter(
                {"a": clients["a"], "b": clients["b"]},
                config=_fleet_config(),
            )
        response = router.submit(request)
        assert response.status == STATUS_SERVED
        assert response.failovers >= 1
        router.stop()

    def test_degrades_to_partial_when_all_replicas_shed(self):
        trimmed = FleetConfig.__dataclass_fields__[
            "degraded_deadline_seconds"
        ].default

        def overloaded(payload):
            fingerprint = PlanRequest.from_json(payload).fingerprint()
            if payload.get("deadline_seconds") == trimmed:
                return PlanResponse(
                    status=STATUS_PARTIAL,
                    request_id=1,
                    fingerprint=fingerprint,
                    plan={"cut": True},
                    objective=9.0,
                )
            return PlanResponse(
                status=STATUS_REJECTED,
                request_id=1,
                fingerprint=fingerprint,
                retry_after=0.5,
            )

        router = FleetRouter(
            {"a": ScriptedClient(overloaded),
             "b": ScriptedClient(overloaded)},
            config=_fleet_config(),
        )
        response = router.submit(_request())
        assert response.status == STATUS_PARTIAL
        assert response.plan == {"cut": True}
        router.stop()

    def test_attempt_waits_as_long_as_the_request_allows(self):
        """No deadline, no bound; a deadline gets a bound that outlasts
        the daemon's watchdog grace."""
        client = ScriptedClient(lambda p: _served(p, tag="a"))
        router = FleetRouter({"a": client}, config=_fleet_config())
        try:
            router.submit(_request())
            router.submit(_request(model="gpt-2l", deadline_seconds=3.0))
        finally:
            router.stop()
        unbounded, bounded = client.timeouts
        assert unbounded is None
        assert bounded > 3.0 + WATCHDOG_GRACE

    def test_degrades_to_stale_then_shed(self, tmp_path):
        router, replicas = self._local_fleet(tmp_path, n=2)
        try:
            request = _request()
            fresh = router.submit(request)
            assert fresh.status == STATUS_SERVED
            for client in replicas.values():
                client.killed = True
            # Invalidation demotes the shared tier to stale entries.
            result = router.invalidate()
            assert result["demoted"] >= 1
            stale = router.submit(request)
            assert stale.status == STATUS_SERVED
            assert stale.stale is True
            assert stale.plan == fresh.plan
            # A fingerprint with no stale entry is shed, typed.
            shed = router.submit(_request(model="gpt-13l"))
            assert shed.status == STATUS_REJECTED
            assert shed.retry_after is not None
        finally:
            for client in replicas.values():
                client.killed = False
            router.stop()

    def test_hedged_request_wins_on_slow_owner(self):
        def slow(payload):
            time.sleep(0.4)
            return _served(payload, tag="slow")

        def fast(payload):
            return _served(payload, tag="fast")

        request = _request()
        fingerprint = request.fingerprint()
        probe = FleetRouter(
            {"a": ScriptedClient(fast), "b": ScriptedClient(fast)},
            config=_fleet_config(),
        )
        owner, backup = probe.ring.nodes_for(fingerprint, 2)
        probe.stop()
        router = FleetRouter(
            {owner: ScriptedClient(slow), backup: ScriptedClient(fast)},
            config=_fleet_config(hedge_min_seconds=0.05),
        )
        # Hedging arms only with latency history: pretend the owner
        # usually answers fast, so 0.4s is past its p99 budget.
        for _ in range(10):
            router._replicas[owner].latencies.append(0.01)
        response = router.submit(request)
        assert response.status == STATUS_SERVED
        assert response.hedged is True
        assert response.plan == {"tag": "fast"}
        assert response.replica == backup
        router.stop()

    def test_invalidate_fans_out(self):
        clients = {
            "a": ScriptedClient(lambda p: _served(p, tag="a")),
            "b": ScriptedClient(lambda p: _served(p, tag="b")),
        }
        router = FleetRouter(clients, config=_fleet_config())
        result = router.invalidate(gpus=4)
        assert set(result["replicas"]) == {"a", "b"}
        assert all(c.invalidations == 1 for c in clients.values())
        router.stop()

    def test_state_artifact_is_lintable(self, tmp_path):
        router, _ = self._local_fleet(tmp_path, n=2)
        try:
            state = tmp_path / "router.fleet.json"
            assert state.exists()
            assert lint_fleet_state_file(state) == []
            assert lint_artifact_path(state) == []
        finally:
            router.stop()

    def test_fleet_health_and_ready(self, tmp_path):
        router, replicas = self._local_fleet(tmp_path, n=2)
        try:
            health = router.fleet_health()
            assert health["status"] == "healthy"
            assert set(health["replicas"]) == {"r0", "r1"}
            assert router.ready
        finally:
            router.stop()

    def test_fleet_health_folds_in_replica_health(self):
        """A replica that is up but reports itself degraded (open
        breaker, saturated queue) degrades the fleet; its own report
        and queue depth come from the poll."""

        class Degraded(ScriptedClient):
            def health(self):
                return {"status": "degraded", "queue_depth": 3}

        router = FleetRouter(
            {"a": ScriptedClient(None), "b": Degraded(None)},
            config=_fleet_config(),
        ).start()
        try:
            health = router.fleet_health()
            assert health["status"] == "degraded"
            assert health["replicas"]["b"]["healthy"]
            assert health["replicas"]["b"]["queue_depth"] == 3
            assert health["replicas"]["b"]["health"]["status"] == (
                "degraded"
            )
            assert health["replicas"]["a"]["queue_depth"] == 0
        finally:
            router.stop()

    def test_stop_drains_every_replica_and_keeps_journals(
        self, tmp_path, bus_events, monkeypatch
    ):
        """``stop(drain_timeout=…)`` reaches each replica's drain while
        each holds one blocked search: every replica drains, and every
        interrupted request stays journaled for a restart."""
        started = threading.Semaphore(0)

        def blocked_planner(request, *, deadline=None,
                            checkpoint_path=None):
            started.release()
            while not deadline.cancelled:
                time.sleep(0.005)
            return PlanOutcome(plan={"cut": True}, objective=1.0,
                               partial=True)

        timeouts = []
        real_drain = PlannerDaemon.drain

        def recording_drain(daemon, timeout=30.0):
            timeouts.append(timeout)
            return real_drain(daemon, timeout)

        monkeypatch.setattr(PlannerDaemon, "drain", recording_drain)
        replicas = {
            name: InProcessReplica(
                name,
                state_dir=tmp_path / name,
                planner=blocked_planner,
                daemon_kwargs={"workers": 1, "queue_limit": 4},
            ).start()
            for name in ("r0", "r1")
        }
        router = FleetRouter(
            dict(replicas), config=_fleet_config()
        ).start()
        owned = {}
        index = 0
        while len(owned) < len(replicas):
            request = _request(model=f"m{index}")
            owned.setdefault(
                router.ring.node_for(request.fingerprint()), request
            )
            index += 1
        answers = []
        clients = [
            threading.Thread(
                target=lambda r=request: answers.append(router.submit(r))
            )
            for request in owned.values()
        ]
        for client in clients:
            client.start()
        for _ in clients:
            assert started.acquire(timeout=10)
        router.stop(drain_timeout=7.5)
        for client in clients:
            client.join(timeout=10)
        assert timeouts == [7.5, 7.5]
        ends = [e for e in bus_events if e.name == "service.drain.end"]
        assert [e.attrs["in_flight_interrupted"] for e in ends] == [1, 1]
        assert sorted(a.status for a in answers) == [
            STATUS_PARTIAL, STATUS_PARTIAL,
        ]
        for name, request in owned.items():
            journal = tmp_path / name / f"{request.fingerprint()}.request.json"
            assert journal.exists(), name

    def test_emits_routed_and_completed(self, tmp_path, bus_events):
        router, _ = self._local_fleet(tmp_path, n=2)
        try:
            router.submit(_request())
        finally:
            router.stop()
        names = [e.name for e in bus_events]
        assert "fleet.start" in names
        assert "fleet.request.routed" in names
        assert "fleet.request.completed" in names
        assert "fleet.stop" in names


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------
class TestChaos:
    def test_chaos_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(0, "explode", "r0")
        with pytest.raises(ValueError):
            ChaosEvent(-1, "kill", "r0")
        event = ChaosEvent(3, "kill", "r0")
        assert ChaosEvent.from_json(event.to_json()) == event

    def test_seeded_schedule_is_deterministic(self):
        names = ["replica-0", "replica-1", "replica-2"]
        one = seeded_schedule(seed=7, requests=20, replicas=names)
        two = seeded_schedule(seed=7, requests=20, replicas=names)
        assert one == two
        other = seeded_schedule(seed=8, requests=20, replicas=names)
        assert one != other

    def test_unknown_replica_in_events_rejected(self):
        with pytest.raises(ValueError, match="unknown replicas"):
            run_chaos(
                [_request()],
                [ChaosEvent(0, "kill", "nope")],
                replicas=2,
                planner=synthetic_planner(),
            )

    def test_zero_lost_and_digest_identical(self, tmp_path):
        requests = [
            _request(model=f"m{i % 3}", seed=i % 2) for i in range(14)
        ]
        events = seeded_schedule(
            seed=3, requests=len(requests),
            replicas=["replica-0", "replica-1", "replica-2"],
        )
        report = run_chaos(
            requests,
            events,
            replicas=3,
            planner=synthetic_planner(0.005),
            state_root=tmp_path,
            daemon_kwargs={"workers": 2, "queue_limit": 16},
        )
        assert report.total == len(requests)
        assert report.lost == 0
        assert report.digest_mismatches == []
        assert report.ok
        # every answer is terminal and typed
        assert sum(report.by_status.values()) == report.total
        round_tripped = ChaosReport.from_json(report.to_json())
        assert round_tripped.to_json() == report.to_json()

    def test_kill_every_owner_still_serves(self, tmp_path):
        """Kill each replica right before a request it owns; the fleet
        must still answer everything, bit-identically."""
        requests = [_request(model=f"m{i}") for i in range(6)]
        events = [
            ChaosEvent(1, "kill", "replica-0"),
            ChaosEvent(3, "restart", "replica-0"),
            ChaosEvent(4, "kill", "replica-1"),
        ]
        report = run_chaos(
            requests,
            events,
            replicas=2,
            planner=synthetic_planner(0.005),
            state_root=tmp_path,
            daemon_kwargs={"workers": 2, "queue_limit": 16},
        )
        assert report.lost == 0
        assert report.ok

    def test_restart_readmits_state(self, tmp_path):
        replica = InProcessReplica(
            "solo",
            state_dir=tmp_path / "solo",
            planner=synthetic_planner(),
            daemon_kwargs={"workers": 1, "queue_limit": 4},
        ).start()
        request = _request()
        response = replica.plan(request.to_json(), 10.0)
        assert response.status == STATUS_SERVED
        replica.kill()
        with pytest.raises(ReplicaError):
            replica.plan(request.to_json(), 10.0)
        replica.restart()
        warm = replica.plan(request.to_json(), 10.0)
        # The restarted daemon preloaded its disk cache.
        assert warm.cached
        assert plan_digest(warm.plan) == plan_digest(response.plan)
        replica.close()


# ----------------------------------------------------------------------
# fleet artifact lint (ACE40x / ACE41x)
# ----------------------------------------------------------------------
def _fleet_state(**overrides):
    state = {
        "format_version": 1,
        "fleet": FleetConfig().to_json(),
        "replicas": [
            {"name": "r0", "healthy": True, "address": None},
            {"name": "r1", "healthy": False, "address": None},
        ],
    }
    state.update(overrides)
    return state


def _log_line(name, **attrs):
    return json.dumps({
        "name": name, "kind": "event", "ts": 1.0, "pid": 1,
        "source": "fleet", "level": "info", "attrs": attrs,
    })


class TestFleetLint:
    def test_clean_state(self, tmp_path):
        path = tmp_path / "ok.fleet.json"
        write_json_atomic(path, _fleet_state())
        assert lint_fleet_state_file(path) == []

    def test_unreadable_and_missing_fields(self, tmp_path):
        path = tmp_path / "torn.fleet.json"
        path.write_text("{nope")
        codes = [d.code for d in lint_fleet_state_file(path)]
        assert codes == ["ACE401"]
        path2 = tmp_path / "sparse.fleet.json"
        write_json_atomic(path2, {"format_version": 1})
        codes = [d.code for d in lint_fleet_state_file(path2)]
        assert "ACE401" in codes

    def test_state_with_retired_request_timeout_still_loads(self, tmp_path):
        state = _fleet_state()
        state["fleet"]["request_timeout"] = 60.0
        path = tmp_path / "old.fleet.json"
        write_json_atomic(path, state)
        assert lint_fleet_state_file(path) == []
        assert FleetConfig.from_json(state["fleet"]) == FleetConfig()

    def test_duplicate_replicas(self, tmp_path):
        path = tmp_path / "dup.fleet.json"
        write_json_atomic(path, _fleet_state(replicas=[
            {"name": "r0", "healthy": True},
            {"name": "r0", "healthy": True},
        ]))
        codes = [d.code for d in lint_fleet_state_file(path)]
        assert codes == ["ACE402"]

    def test_config_out_of_range(self, tmp_path):
        bad = _fleet_state()
        bad["fleet"]["vnodes"] = 0
        bad["fleet"]["retries"] = -1
        path = tmp_path / "bad.fleet.json"
        write_json_atomic(path, bad)
        codes = sorted(d.code for d in lint_fleet_state_file(path))
        assert codes == ["ACE403", "ACE403"]

    def test_zero_replicas(self, tmp_path):
        path = tmp_path / "none.fleet.json"
        write_json_atomic(path, _fleet_state(replicas=[]))
        codes = [d.code for d in lint_fleet_state_file(path)]
        assert codes == ["ACE403"]

    def test_dispatch_by_shape(self, tmp_path):
        path = tmp_path / "renamed.json"
        write_json_atomic(path, _fleet_state(replicas=[
            {"name": "r0", "healthy": True},
            {"name": "r0", "healthy": True},
        ]))
        codes = [d.code for d in lint_artifact_path(path)]
        assert codes == ["ACE402"]

    def test_run_log_clean(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text("\n".join([
            _log_line("fleet.start", replicas=["r0", "r1"]),
            _log_line("fleet.request.routed", fingerprint="f" * 16,
                      owner="r0", ladder=["r0", "r1"]),
            _log_line("fleet.request.completed", fingerprint="f" * 16,
                      status="served", replica="r0"),
            _log_line("fleet.stop"),
        ]) + "\n")
        assert lint_run_log_file(log) == []

    def test_run_log_lost_request(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text("\n".join([
            _log_line("fleet.start", replicas=["r0"]),
            _log_line("fleet.request.routed", fingerprint="a" * 16,
                      owner="r0", ladder=["r0"]),
        ]) + "\n")
        codes = [d.code for d in lint_run_log_file(log)]
        assert codes == ["ACE410"]

    def test_run_log_undeclared_replica(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text("\n".join([
            _log_line("fleet.start", replicas=["r0"]),
            _log_line("fleet.replica.down", replica="ghost"),
        ]) + "\n")
        codes = [d.code for d in lint_run_log_file(log)]
        assert codes == ["ACE411"]

    def test_run_log_joined_replica_is_declared(self, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text("\n".join([
            _log_line("fleet.start", replicas=["r0"]),
            _log_line("fleet.ring.rebuilt", replicas=["r0", "r2"],
                      joined="r2"),
            _log_line("fleet.replica.down", replica="r2"),
        ]) + "\n")
        assert lint_run_log_file(log) == []


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class TestFleetHTTP:
    @pytest.fixture()
    def fleet(self, tmp_path):
        """A 2-replica fleet behind a live HTTP front; yields
        ``(server, replica names)``."""
        replicas = {
            f"r{i}": InProcessReplica(
                f"r{i}",
                state_dir=tmp_path / f"r{i}",
                planner=synthetic_planner(),
                daemon_kwargs={"workers": 1, "queue_limit": 4},
            ).start()
            for i in range(2)
        }
        router = FleetRouter(
            dict(replicas), config=_fleet_config()
        ).start()
        server = serve(router, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            yield server, set(replicas)
        finally:
            server.shutdown()
            thread.join(timeout=5)
            router.stop()
            server.server_close()

    def test_plan_health_invalidate_over_http(self, fleet):
        server, replicas = fleet
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        body = json.dumps(_request().to_json()).encode()
        req = urllib.request.Request(
            f"{base}/plan", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as raw:
            assert raw.status == 200
            data = json.loads(raw.read())
        assert data["status"] == STATUS_SERVED
        assert data["replica"] in replicas
        with urllib.request.urlopen(
            f"{base}/healthz", timeout=10
        ) as raw:
            health = json.loads(raw.read())
        assert health["status"] == "healthy"
        inv = urllib.request.Request(
            f"{base}/invalidate", data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(inv, timeout=10) as raw:
            dropped = json.loads(raw.read())
        assert set(dropped["replicas"]) == replicas

    def test_keep_alive_requests_do_not_stall(self, fleet):
        """Sequential requests on one keep-alive connection never wait
        on the client's delayed ACK (about 40 ms each without
        ``TCP_NODELAY``)."""
        server, _ = fleet
        body = json.dumps(_request().to_json())
        conn = http.client.HTTPConnection(
            *server.server_address[:2], timeout=10
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

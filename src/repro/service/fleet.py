"""Planner fleet: shard, fail over, hedge, degrade — never lose a request.

``FleetRouter`` fronts N ≥ 1 in-process planner replicas
(:class:`InProcessReplica`, one :class:`PlannerDaemon` each) and owns
the resilience policy the single daemon cannot provide for itself.
Every ``repro-serve`` and ``repro-fleet`` run is such a fleet — one
replica by default for ``repro-serve`` — behind the one HTTP front in
:mod:`~repro.service.httpd`:

* **sharding** — request fingerprints are consistent-hashed onto
  replicas (:class:`~repro.service.ring.HashRing`), so each replica's
  plan cache and admission queue sees a stable, near-even slice of the
  fingerprint space and membership changes only remap the keys that
  must move;
* **failover** — a replica that fails at the transport level or
  answers with back-pressure is retried with decorrelated-jitter
  backoff, then the router walks the fingerprint's failover ladder
  (the next distinct replicas clockwise on the ring);
* **hedging** — when the owning replica exceeds its own p99 latency
  budget (scaled up by its polled queue depth, so a busy-but-healthy
  replica is not hedged eagerly), the router races a backup request on
  the next ladder replica and takes whichever answers first;
* **graceful degradation** — when the whole ladder fails, the router
  prefers a deadline-trimmed ``partial`` answer, then a
  stale-but-flagged plan from its demotion tier, and sheds
  (``rejected`` + ``retry_after``) only when it has nothing at all;
* **shared cache tier** — fresh full plans are written through to a
  router-level :class:`PlanCache`, and ``/invalidate`` / ``/churn``
  fan out to every replica, demoting the shared entries to the stale
  tier first;
* **health** — a poller keeps each replica's own ``health()`` report
  (queue, breakers, cache), and the fleet reports ``degraded`` while
  any replica is down or degraded itself.

Every decision is a ``fleet.*`` telemetry event; the router also
persists its membership + health view as a ``*.fleet.json`` artifact
(Tier-A lintable, ``ACE401``–``ACE403``) via atomic writes.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..ioutil import write_json_atomic
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    FLEET_FANOUT,
    FLEET_REPLICA_DOWN,
    FLEET_REPLICA_UP,
    FLEET_REQUEST_COMPLETED,
    FLEET_REQUEST_DEGRADED,
    FLEET_REQUEST_FAILOVER,
    FLEET_REQUEST_HEDGED,
    FLEET_REQUEST_ROUTED,
    FLEET_START,
    FLEET_STOP,
)
from .cache import PlanCache
from .daemon import WATCHDOG_GRACE, PlannerDaemon
from .protocol import STATUS_REJECTED, STATUS_SERVED, PlanRequest, PlanResponse
from .ring import HashRing

#: Format marker for ``*.fleet.json`` state artifacts.
FLEET_STATE_FORMAT_VERSION = 1

#: Seconds one replica call waits past its request's deadline: longer
#: than the daemon's watchdog grace, so a deadline-cut search answers
#: with its plan before the router stops waiting for it.
ATTEMPT_GRACE = WATCHDOG_GRACE + 1.0

#: Bounds of the :class:`FleetConfig` knobs, declared once: the config
#: raises on the first violation, ``repro-lint`` reports all (ACE403).
FLEET_BOUNDS = {
    "vnodes": (">=", 1),
    "retries": (">=", 0),
    "hedge_factor": (">", 0),
    "down_after": (">=", 1),
}


def fleet_config_problems(values: dict) -> List[str]:
    """Every :data:`FLEET_BOUNDS` violation in a config mapping."""
    problems = []
    for key, (relation, bound) in FLEET_BOUNDS.items():
        value = values.get(key)
        in_range = type(value) in (int, float) and (
            value > bound or (relation == ">=" and value == bound)
        )
        if value is not None and not in_range:
            problems.append(f"{key} must be {relation} {bound}, got {value!r}")
    return problems


def _attempt_bound(payload: dict) -> Optional[float]:
    """Seconds to wait on one replica call for request ``payload``."""
    deadline = payload.get("deadline_seconds")
    return None if deadline is None else deadline + ATTEMPT_GRACE


class ReplicaError(RuntimeError):
    """A replica failed at the transport level (no protocol answer)."""


@dataclass(frozen=True)
class FleetConfig:
    """Routing policy knobs (all defaults are deliberately mild)."""

    vnodes: int = 128
    #: Transport-level retries per replica before failing over.
    retries: int = 1
    backoff_base: float = 0.02
    backoff_cap: float = 0.5
    #: Hedge budget = p99 × factor × (1 + queue_depth × load_weight).
    hedge_factor: float = 1.5
    hedge_min_seconds: float = 0.05
    load_weight: float = 0.25
    #: Deadline used for the degraded (partial-plan) attempt.
    degraded_deadline_seconds: float = 0.5
    health_interval: float = 0.5
    #: Consecutive failed health polls before a replica is marked down.
    down_after: int = 2
    cache_entries: int = 256
    stale_entries: int = 256
    retry_after_seconds: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        problems = fleet_config_problems(self.to_json())
        if problems:
            raise ValueError(problems[0])

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "FleetConfig":
        return cls(**{
            key: data[key] for key in cls.__dataclass_fields__
            if key in data
        })


# ----------------------------------------------------------------------
# replicas
# ----------------------------------------------------------------------
class InProcessReplica:
    """One named replica: a :class:`PlannerDaemon` called in-process.

    ``kill`` simulates a crashed process: ``killed`` is set and every
    later call raises :class:`ReplicaError` (exactly what a crash looks
    like to the router) until ``restart`` boots a fresh daemon on the
    same state directory, so journal re-admission and the warm disk
    cache are exercised too.  The router keeps this one object across
    restarts.
    """

    def __init__(
        self,
        name: str,
        *,
        state_dir: Optional[Path] = None,
        planner: Optional[Callable] = None,
        daemon_kwargs: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.state_dir = Path(state_dir) if state_dir else None
        self._planner = planner
        self._daemon_kwargs = dict(daemon_kwargs or {})
        self.daemon: Optional[PlannerDaemon] = None
        self.killed = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "InProcessReplica":
        self.daemon = PlannerDaemon(
            planner=self._planner,
            state_dir=self.state_dir,
            **self._daemon_kwargs,
        ).start()
        self.killed = False
        return self

    def kill(self) -> None:
        """Crash: every subsequent call is a transport error."""
        if self.daemon is None:
            return
        self.killed = True
        # Quick drain so worker threads stop; journals stay on disk for
        # the restarted daemon to re-admit.
        self.daemon.drain(timeout=1.0)

    def restart(self) -> None:
        """Boot a fresh daemon on the same state directory (journal
        re-admission + warm disk cache) and rejoin the fleet."""
        self.start()

    def close(self, drain_timeout: Optional[float] = 5.0) -> None:
        """Drain the live daemon for at most ``drain_timeout`` seconds."""
        daemon, self.daemon = self.daemon, None
        if daemon is not None and not self.killed:
            daemon.drain(timeout=drain_timeout)

    def _live(self) -> PlannerDaemon:
        if self.killed:
            raise ReplicaError(f"replica {self.name} killed")
        if self.daemon is None:
            raise ReplicaError(f"replica {self.name} is not running")
        return self.daemon

    # -- replica protocol (what the router calls) ----------------------
    def plan(self, payload: dict, timeout: Optional[float]) -> PlanResponse:
        response = self._live().submit(PlanRequest.from_json(payload), timeout)
        if self.killed:  # killed mid-flight: the answer is lost
            raise ReplicaError(f"replica {self.name} killed")
        return response

    def health(self) -> dict:
        return self._live().health()

    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        return {"dropped": self._live().invalidate_plans(gpus=gpus)}

    def churn(self, event) -> dict:
        return self._live().apply_churn(event)


@dataclass
class _ReplicaState:
    """Router-side view of one replica's health."""

    client: object
    healthy: bool = True
    consecutive_failures: int = 0
    #: The replica's own last polled ``health()`` report.
    health: dict = field(default_factory=dict)
    latencies: deque = field(default_factory=lambda: deque(maxlen=64))


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class FleetRouter:
    """Consistent-hash router with failover, hedging, and degradation."""

    def __init__(
        self,
        replicas: Dict[str, object],
        *,
        config: Optional[FleetConfig] = None,
        state_path: Optional[Path] = None,
    ) -> None:
        if not replicas:
            raise ValueError("fleet needs at least one replica")
        self.config = config or FleetConfig()
        self.state_path = Path(state_path) if state_path else None
        self.ring = HashRing(replicas, vnodes=self.config.vnodes)
        self._lock = threading.Lock()
        self._replicas: Dict[str, _ReplicaState] = {
            name: _ReplicaState(client=client)
            for name, client in replicas.items()
        }
        self.cache = PlanCache(self.config.cache_entries)
        #: fingerprint -> demoted cache entry, served only as last
        #: resort with ``stale=True``.
        self._stale: "Dict[str, dict]" = {}
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.counters = {
            "routed": 0, "completed": 0, "failovers": 0, "hedged": 0,
            "degraded_partial": 0, "degraded_stale": 0, "shed": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "FleetRouter":
        get_bus().emit(
            FLEET_START,
            source="fleet",
            replicas=sorted(self._replicas),
            vnodes=self.config.vnodes,
        )
        self._stop.clear()
        self._poll()
        self._poller = threading.Thread(
            target=self._poll_loop, name="fleet-health", daemon=True
        )
        self._poller.start()
        self.save_state()
        return self

    def stop(self, *, drain_timeout: Optional[float] = 5.0) -> None:
        """Stop polling and drain every replica at once, each for at
        most ``drain_timeout`` seconds."""
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=2.0)
            self._poller = None
        with ThreadPoolExecutor(max_workers=len(self._replicas)) as pool:
            closing = [
                pool.submit(state.client.close, drain_timeout)
                for state in self._replicas.values()
            ]
            for future in closing:
                future.result()
        self.save_state()
        get_bus().emit(FLEET_STOP, source="fleet", **dict(self.counters))

    # -- request path --------------------------------------------------
    def submit(self, request: PlanRequest) -> PlanResponse:
        bus = get_bus()
        fingerprint = request.fingerprint()
        ladder = self._ladder(fingerprint)
        with self._lock:
            self.counters["routed"] += 1
        bus.emit(
            FLEET_REQUEST_ROUTED,
            source="fleet",
            fingerprint=fingerprint,
            owner=ladder[0] if ladder else None,
            ladder=ladder,
        )
        response = self._route(request, fingerprint, ladder)
        with self._lock:
            self.counters["completed"] += 1
        bus.emit(
            FLEET_REQUEST_COMPLETED,
            source="fleet",
            fingerprint=fingerprint,
            status=response.status,
            replica=response.replica,
            failovers=response.failovers,
            hedged=response.hedged,
            stale=response.stale,
            cached=response.cached,
        )
        return response

    def _route(
        self, request: PlanRequest, fingerprint: str, ladder: List[str]
    ) -> PlanResponse:
        cached = self.cache.get(fingerprint)
        if cached is not None:
            return PlanResponse(
                status=STATUS_SERVED,
                request_id=0,
                fingerprint=fingerprint,
                plan=cached.get("plan"),
                objective=cached.get("objective"),
                cached=True,
            )
        payload = request.to_json()
        failovers = 0
        reachable = False
        last_response: Optional[PlanResponse] = None
        for position, name in enumerate(ladder):
            backup = ladder[position + 1] if position + 1 < len(ladder) \
                else None
            response = self._attempt(name, backup, payload, fingerprint)
            if response is None:
                failovers += 1
                with self._lock:
                    self.counters["failovers"] += 1
                get_bus().emit(
                    FLEET_REQUEST_FAILOVER,
                    source="fleet",
                    level=WARNING,
                    fingerprint=fingerprint,
                    replica=name,
                    failovers=failovers,
                )
                continue
            reachable = True
            if self._is_backpressure(response):
                # The replica is up but shedding; its ladder successor
                # owns a different queue — try it before degrading.
                last_response = response
                failovers += 1
                with self._lock:
                    self.counters["failovers"] += 1
                get_bus().emit(
                    FLEET_REQUEST_FAILOVER,
                    source="fleet",
                    level=WARNING,
                    fingerprint=fingerprint,
                    replica=name,
                    failovers=failovers,
                    backpressure=True,
                )
                continue
            response.failovers = failovers
            if response.ok and not response.stale and response.plan \
                    is not None and response.status == STATUS_SERVED:
                self.cache.put(fingerprint, {
                    "plan": response.plan,
                    "objective": response.objective,
                    "model": request.model,
                    "gpus": request.gpus,
                    "strategy": request.strategy,
                })
            return response
        return self._degrade(
            request, fingerprint, ladder,
            failovers=failovers,
            reachable=reachable,
            last_response=last_response,
        )

    def _degrade(
        self,
        request: PlanRequest,
        fingerprint: str,
        ladder: List[str],
        *,
        failovers: int,
        reachable: bool,
        last_response: Optional[PlanResponse],
    ) -> PlanResponse:
        """The ladder is exhausted: partial > stale > shed."""
        bus = get_bus()
        if reachable and request.deadline_seconds != \
                self.config.degraded_deadline_seconds:
            # A replica is up but overloaded/slow: ask the owner for a
            # deadline-trimmed anytime answer — a flagged partial plan
            # beats shedding.
            trimmed = dict(request.to_json())
            trimmed["deadline_seconds"] = \
                self.config.degraded_deadline_seconds
            for name in ladder:
                try:
                    response = self._call(name, trimmed)
                except ReplicaError:
                    continue
                if response.ok and not self._is_backpressure(response):
                    response.replica = name
                    response.failovers = failovers
                    with self._lock:
                        self.counters["degraded_partial"] += 1
                    bus.emit(
                        FLEET_REQUEST_DEGRADED,
                        source="fleet",
                        level=WARNING,
                        fingerprint=fingerprint,
                        mode="partial",
                        replica=name,
                    )
                    return response
        stale = self._stale.get(fingerprint)
        if stale is not None:
            with self._lock:
                self.counters["degraded_stale"] += 1
            bus.emit(
                FLEET_REQUEST_DEGRADED,
                source="fleet",
                level=WARNING,
                fingerprint=fingerprint,
                mode="stale",
                replica=None,
            )
            return PlanResponse(
                status=STATUS_SERVED,
                request_id=0,
                fingerprint=fingerprint,
                plan=stale.get("plan"),
                objective=stale.get("objective"),
                cached=True,
                stale=True,
                failovers=failovers,
            )
        if last_response is not None:
            last_response.failovers = failovers
            return last_response
        with self._lock:
            self.counters["shed"] += 1
        bus.emit(
            FLEET_REQUEST_DEGRADED,
            source="fleet",
            level=WARNING,
            fingerprint=fingerprint,
            mode="shed",
            replica=None,
        )
        return PlanResponse(
            status=STATUS_REJECTED,
            request_id=0,
            fingerprint=fingerprint,
            error="no replica could serve the request",
            retry_after=self.config.retry_after_seconds,
            failovers=failovers,
        )

    # -- per-replica attempt (retries + hedging) -----------------------
    def _attempt(
        self,
        name: str,
        backup: Optional[str],
        payload: dict,
        fingerprint: str,
    ) -> Optional[PlanResponse]:
        """Call ``name`` with bounded retries; ``None`` after the last
        transport failure (the caller fails over)."""
        for attempt in range(self.config.retries + 1):
            if attempt:
                time.sleep(self._retry_delay(fingerprint, attempt))
            try:
                budget = self._hedge_budget(name)
                if backup is not None and budget is not None:
                    return self._race(
                        name, backup, payload, fingerprint, budget
                    )
                return self._call(name, payload)
            except ReplicaError:
                self._note_failure(name)
        return None

    def _call(self, name: str, payload: dict) -> PlanResponse:
        """One replica call, waiting as long as the request allows: no
        bound without a deadline, else the deadline plus
        :data:`ATTEMPT_GRACE`."""
        state = self._replicas[name]
        started = time.monotonic()
        response = state.client.plan(payload, _attempt_bound(payload))
        elapsed = time.monotonic() - started
        with self._lock:
            state.latencies.append(elapsed)
        self._note_success(name)
        response.replica = name
        return response

    def _race(
        self,
        primary: str,
        backup: str,
        payload: dict,
        fingerprint: str,
        budget: float,
    ) -> PlanResponse:
        """Primary call, hedged onto ``backup`` past ``budget`` seconds.

        First answer wins; the loser's response is discarded (both
        daemons cache their result, so the work is not wasted)."""
        results: "queue.Queue[Tuple[str, object]]" = queue.Queue()

        def call(name: str) -> None:
            try:
                results.put((name, self._call(name, payload)))
            except ReplicaError as exc:
                self._note_failure(name)
                results.put((name, exc))

        threading.Thread(
            target=call, args=(primary,), daemon=True,
            name=f"fleet-call-{primary}",
        ).start()
        try:
            name, outcome = results.get(timeout=budget)
        except queue.Empty:
            with self._lock:
                self.counters["hedged"] += 1
            get_bus().emit(
                FLEET_REQUEST_HEDGED,
                source="fleet",
                fingerprint=fingerprint,
                primary=primary,
                backup=backup,
                budget=budget,
            )
            threading.Thread(
                target=call, args=(backup,), daemon=True,
                name=f"fleet-call-{backup}",
            ).start()
            pending = 2
            bound = _attempt_bound(payload)
            deadline = None if bound is None else time.monotonic() + bound
            first_error: Optional[ReplicaError] = None
            while pending:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                try:
                    name, outcome = results.get(timeout=remaining)
                except queue.Empty:
                    break
                pending -= 1
                if isinstance(outcome, PlanResponse):
                    outcome.hedged = name == backup
                    return outcome
                first_error = first_error or outcome
            raise first_error or ReplicaError(
                f"hedged call to {primary}/{backup} timed out"
            )
        if isinstance(outcome, ReplicaError):
            raise outcome
        return outcome

    def _is_backpressure(self, response: PlanResponse) -> bool:
        return (
            response.status == STATUS_REJECTED
            and not response.diagnostics
        )

    def _retry_delay(self, fingerprint: str, attempt: int) -> float:
        """Decorrelated jitter, deterministic per (seed, key, attempt)."""
        rng = random.Random(
            f"{self.config.seed}:{fingerprint}:{attempt}"
        )
        low = self.config.backoff_base
        high = min(self.config.backoff_cap, low * (3 ** attempt))
        return rng.uniform(low, max(low, high))

    def _hedge_budget(self, name: str) -> Optional[float]:
        """Seconds to wait on ``name`` before racing its backup, from
        its own observed p99 scaled by its polled queue depth —
        ``None`` (never hedge) until enough latency history exists."""
        state = self._replicas[name]
        with self._lock:
            if len(state.latencies) < 8:
                return None
            ordered = sorted(state.latencies)
            p99 = ordered[min(
                len(ordered) - 1, int(0.99 * (len(ordered) - 1))
            )]
            queue_depth = state.health.get("queue_depth", 0)
            load = 1.0 + queue_depth * self.config.load_weight
        return max(
            self.config.hedge_min_seconds,
            p99 * self.config.hedge_factor * load,
        )

    # -- health --------------------------------------------------------
    def _ladder(self, fingerprint: str) -> List[str]:
        ladder = self.ring.nodes_for(fingerprint, len(self.ring))
        with self._lock:
            healthy = {
                name for name, state in self._replicas.items()
                if state.healthy
            }
        # Stable partition: healthy replicas keep ring order; down ones
        # stay reachable as a last resort (health polling lags crashes).
        return [n for n in ladder if n in healthy] + \
            [n for n in ladder if n not in healthy]

    def _note_failure(self, name: str) -> None:
        state = self._replicas[name]
        with self._lock:
            state.consecutive_failures += 1
            flip = (
                state.healthy
                and state.consecutive_failures >= self.config.down_after
            )
            if flip:
                state.healthy = False
        if flip:
            get_bus().emit(
                FLEET_REPLICA_DOWN,
                source="fleet",
                level=WARNING,
                replica=name,
            )
            self.save_state()

    def _note_success(self, name: str) -> None:
        state = self._replicas[name]
        with self._lock:
            flip = not state.healthy
            state.healthy = True
            state.consecutive_failures = 0
        if flip:
            get_bus().emit(FLEET_REPLICA_UP, source="fleet", replica=name)
            self.save_state()

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval):
            self._poll()

    def _poll(self) -> None:
        """One health round: keep each replica's own report."""
        for name, state in self._replicas.items():
            try:
                health = state.client.health()
            except ReplicaError:
                self._note_failure(name)
                continue
            with self._lock:
                state.health = health
            self._note_success(name)

    # -- shared cache tier ---------------------------------------------
    def _demote_to_stale(self) -> int:
        """Move every shared-cache entry into the stale tier (bounded)."""
        snapshot = self.cache.snapshot()
        with self._lock:
            self._stale.update(snapshot)
            while len(self._stale) > self.config.stale_entries:
                self._stale.pop(next(iter(self._stale)))
        return len(snapshot)

    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        """Drop shared-tier plans (demoting them to stale) and fan the
        invalidation out to every replica."""
        demoted = self._demote_to_stale()
        if gpus is None:
            dropped = self.cache.invalidate()
        else:
            dropped = self.cache.invalidate(
                lambda _fp, entry: entry.get("gpus") == gpus
            )
        per_replica = self._fanout("invalidate", gpus)
        return {
            "dropped": dropped,
            "demoted": demoted,
            "replicas": per_replica,
        }

    def churn(self, event: dict) -> dict:
        """Fold one churn event into the whole fleet.  A malformed event
        raises :class:`~repro.lint.diagnostics.ArtifactError` before any
        tier is touched."""
        from ..elastic.timeline import ChurnEvent

        event = ChurnEvent.from_dict(event)
        demoted = self._demote_to_stale()
        dropped = self.cache.invalidate()
        per_replica = self._fanout("churn", event)
        return {
            "dropped": dropped,
            "demoted": demoted,
            "replicas": per_replica,
        }

    def _fanout(self, op: str, body) -> dict:
        outcomes = {}
        for name, state in self._replicas.items():
            try:
                if op == "invalidate":
                    outcomes[name] = state.client.invalidate(gpus=body)
                else:
                    outcomes[name] = state.client.churn(body)
            except ReplicaError as exc:
                self._note_failure(name)
                outcomes[name] = {"error": str(exc)}
        get_bus().emit(
            FLEET_FANOUT,
            source="fleet",
            op=op,
            replicas=sorted(outcomes),
            errors=sorted(
                n for n, o in outcomes.items() if "error" in o
            ),
        )
        return outcomes

    # -- introspection / persistence -----------------------------------
    def fleet_health(self) -> dict:
        """``/healthz``: ``down`` with no replica up, ``degraded`` while
        any replica is down or reports itself degraded (open breaker,
        saturated queue, draining), else ``healthy``."""
        with self._lock:
            replicas = {
                name: {
                    "healthy": state.healthy,
                    "consecutive_failures": state.consecutive_failures,
                    "queue_depth": state.health.get("queue_depth", 0),
                    "observed_calls": len(state.latencies),
                    "health": state.health,
                }
                for name, state in self._replicas.items()
            }
            counters = dict(self.counters)
        healthy = sum(1 for r in replicas.values() if r["healthy"])
        degraded = healthy < len(replicas) or any(
            r["health"].get("status") == "degraded"
            for r in replicas.values()
        )
        return {
            "status": "down" if not healthy
            else ("degraded" if degraded else "healthy"),
            "replicas": replicas,
            "counters": counters,
            "cache": self.cache.stats(),
            "stale_entries": len(self._stale),
        }

    @property
    def ready(self) -> bool:
        with self._lock:
            return any(s.healthy for s in self._replicas.values())

    def save_state(self) -> Optional[Path]:
        """Persist membership + health as a ``*.fleet.json`` artifact."""
        if self.state_path is None:
            return None
        with self._lock:
            replicas = [
                {"name": name, "healthy": state.healthy}
                for name, state in sorted(self._replicas.items())
            ]
        return write_json_atomic(self.state_path, {
            "format_version": FLEET_STATE_FORMAT_VERSION,
            "fleet": self.config.to_json(),
            "replicas": replicas,
        })

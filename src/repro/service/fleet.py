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
  router-level :class:`PlanCache`; ``/invalidate`` demotes the shared
  entries to the stale tier and fans out to every replica;
* **churn** — the router keeps the fleet's one :class:`ChurnFold` of
  the ``/churn`` events and stamps every request with its membership,
  which enters the fingerprint: every tier and replica caches, routes,
  journals and plans a churned request under its own address, and a
  restarted replica plans it on the cluster the churn left;
* **health** — a poller keeps each replica's own ``health()`` report
  (queue, breakers, cache), and the fleet reports ``degraded`` while
  any replica is down or degraded itself.

Every decision is a ``fleet.*`` telemetry event: ``fleet.start``
carries the replica names and the whole :class:`FleetConfig`, health
flips are ``fleet.replica.down``/``up``, and ``/healthz`` serves the
live view.  The router persists nothing of its own; a restarted fleet
reads only its replicas' state directories.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..core.search import DEADLINE_KILL_GRACE
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    ELASTIC_CACHE_INVALIDATE,
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
from .daemon import PlannerDaemon
from .protocol import STATUS_REJECTED, STATUS_SERVED, PlanRequest, PlanResponse
from .ring import HashRing

#: Seconds one replica call waits past its request's deadline: longer
#: than the stage-count scheduler's reap of a worker past the deadline,
#: so a deadline-cut search answers with its plan before the router
#: stops waiting for it.
ATTEMPT_GRACE = DEADLINE_KILL_GRACE + 2.0

def _attempt_bound(request: PlanRequest) -> Optional[float]:
    """Seconds to wait on one replica call for ``request``."""
    deadline = request.deadline_seconds
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
        for key, relation, bound in (
            ("vnodes", ">=", 1),
            ("retries", ">=", 0),
            ("hedge_factor", ">", 0),
            ("down_after", ">=", 1),
        ):
            value = getattr(self, key)
            if type(value) not in (int, float) or not (
                value > bound or (relation == ">=" and value == bound)
            ):
                raise ValueError(
                    f"{key} must be {relation} {bound}, got {value!r}"
                )


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
    def plan(
        self, request: PlanRequest, timeout: Optional[float]
    ) -> PlanResponse:
        response = self._live().submit(request, timeout)
        if self.killed:  # killed mid-flight: the answer is lost
            raise ReplicaError(f"replica {self.name} killed")
        return response

    def health(self) -> dict:
        return self._live().health()

    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        return {"dropped": self._live().cache.invalidate(gpus=gpus)}


class ChurnFold:
    """The churn events the fleet has accepted, folded against each
    request's paper cluster (:class:`~repro.faults.plan.Membership`).

    Before the first event every request is nominal and
    :mod:`repro.faults` stays unloaded.
    """

    def __init__(self) -> None:
        self._events: list = []
        self._states: Dict[int, Optional[dict]] = {}  # gpus -> state
        self._lock = threading.Lock()

    def add(self, event) -> None:
        with self._lock:
            self._events.append(event)
            self._states.clear()

    def state(self, gpus: int) -> Optional[dict]:
        """The :attr:`~repro.faults.plan.Membership.state` of the
        ``gpus`` paper cluster folded with every accepted event."""
        with self._lock:
            if self._events and gpus not in self._states:
                self._states[gpus] = self._fold(gpus)
            return self._states.get(gpus)

    def _fold(self, gpus: int) -> Optional[dict]:
        from ..cluster.topology import paper_cluster
        from ..faults.plan import Membership

        try:
            return Membership.fold(paper_cluster(gpus), self._events).state
        except ValueError:  # no such cluster: the admission lint says so
            return None


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
    ) -> None:
        if not replicas:
            raise ValueError("fleet needs at least one replica")
        self.config = config or FleetConfig()
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
        self._churn = ChurnFold()
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
            config=asdict(self.config),
        )
        self._stop.clear()
        self._poll()
        self._poller = threading.Thread(
            target=self._poll_loop, name="fleet-health", daemon=True
        )
        self._poller.start()
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
        get_bus().emit(FLEET_STOP, source="fleet", **dict(self.counters))

    # -- request path --------------------------------------------------
    def submit(self, request: PlanRequest) -> PlanResponse:
        bus = get_bus()
        membership = self._churn.state(request.gpus)
        if membership != request.membership:
            # The fleet's fold, not the client, says what is left.
            request = replace(request, membership=membership)
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
        failovers = 0
        reachable = False
        last_response: Optional[PlanResponse] = None
        for position, name in enumerate(ladder):
            backup = ladder[position + 1] if position + 1 < len(ladder) \
                else None
            response = self._attempt(name, backup, request, fingerprint)
            reachable = reachable or response is not None
            if response is None or self._is_backpressure(response):
                # Down, or up but shedding: its ladder successor owns a
                # different queue — try it before degrading.
                shedding = {} if response is None else {"backpressure": True}
                last_response = response or last_response
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
                    **shedding,
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
        if reachable and request.deadline_seconds != \
                self.config.degraded_deadline_seconds:
            # A replica is up but overloaded/slow: ask the owner for a
            # deadline-trimmed anytime answer — a flagged partial plan
            # beats shedding.
            trimmed = replace(
                request,
                deadline_seconds=self.config.degraded_deadline_seconds,
            )
            for name in ladder:
                try:
                    response = self._call(name, trimmed)
                except ReplicaError:
                    continue
                if response.ok and not self._is_backpressure(response):
                    response.replica = name
                    response.failovers = failovers
                    self._note_degraded("degraded_partial", fingerprint, name)
                    return response
        stale = self._stale.get(fingerprint)
        if stale is not None:
            self._note_degraded("degraded_stale", fingerprint)
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
        self._note_degraded("shed", fingerprint)
        return PlanResponse(
            status=STATUS_REJECTED,
            request_id=0,
            fingerprint=fingerprint,
            error="no replica could serve the request",
            retry_after=self.config.retry_after_seconds,
            failovers=failovers,
        )

    def _note_degraded(
        self, counter: str, fingerprint: str, replica: Optional[str] = None
    ) -> None:
        with self._lock:
            self.counters[counter] += 1
        get_bus().emit(
            FLEET_REQUEST_DEGRADED,
            source="fleet",
            level=WARNING,
            fingerprint=fingerprint,
            mode=counter.replace("degraded_", ""),
            replica=replica,
        )

    # -- per-replica attempt (retries + hedging) -----------------------
    def _attempt(
        self,
        name: str,
        backup: Optional[str],
        request: PlanRequest,
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
                        name, backup, request, fingerprint, budget
                    )
                return self._call(name, request)
            except ReplicaError:
                self._note_failure(name)
        return None

    def _call(self, name: str, request: PlanRequest) -> PlanResponse:
        """One replica call, waiting as long as the request allows: no
        bound without a deadline, else the deadline plus
        :data:`ATTEMPT_GRACE`."""
        state = self._replicas[name]
        started = time.monotonic()
        response = state.client.plan(request, _attempt_bound(request))
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
        request: PlanRequest,
        fingerprint: str,
        budget: float,
    ) -> PlanResponse:
        """Primary call, hedged onto ``backup`` past ``budget`` seconds.

        First answer wins; the loser's response is discarded (both
        daemons cache their result, so the work is not wasted)."""
        results: "queue.Queue[Tuple[str, object]]" = queue.Queue()

        def call(name: str) -> None:
            try:
                results.put((name, self._call(name, request)))
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
            bound = _attempt_bound(request)
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

    def _note_success(self, name: str) -> None:
        state = self._replicas[name]
        with self._lock:
            flip = not state.healthy
            state.healthy = True
            state.consecutive_failures = 0
        if flip:
            get_bus().emit(FLEET_REPLICA_UP, source="fleet", replica=name)

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
    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        """Drop shared-tier plans (demoting them to stale) and fan the
        invalidation out to every replica."""
        snapshot = self.cache.snapshot()
        with self._lock:
            self._stale.update(snapshot)
            while len(self._stale) > self.config.stale_entries:
                self._stale.pop(next(iter(self._stale)))
        dropped = self.cache.invalidate(gpus=gpus)
        outcomes = {}
        for name, state in self._replicas.items():
            try:
                outcomes[name] = state.client.invalidate(gpus=gpus)
            except ReplicaError as exc:
                self._note_failure(name)
                outcomes[name] = {"error": str(exc)}
        get_bus().emit(
            FLEET_FANOUT,
            source="fleet",
            op="invalidate",
            replicas=sorted(outcomes),
            errors=sorted(
                n for n, o in outcomes.items() if "error" in o
            ),
        )
        return {
            "dropped": dropped,
            "demoted": len(snapshot),
            "replicas": outcomes,
        }

    def churn(self, event) -> dict:
        """Fold one :class:`~repro.elastic.timeline.ChurnEvent` (or its
        dict form, which raises ``ArtifactError`` when malformed, before
        anything changes) and drop the shared tier.  Nothing is demoted:
        later requests carry the new membership in their fingerprints."""
        from ..elastic.timeline import ChurnEvent

        if isinstance(event, dict):
            event = ChurnEvent.from_dict(event)
        self._churn.add(event)
        dropped = self.cache.invalidate()
        get_bus().emit(
            ELASTIC_CACHE_INVALIDATE,
            source="fleet",
            level=WARNING,
            # ``kind`` is TelemetryBus.emit's reserved event-kind
            # parameter; the churn kind travels under its own name.
            churn_kind=event.kind,
            time=event.time,
            dropped=dropped,
        )
        return {"kind": event.kind, "dropped": dropped}

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

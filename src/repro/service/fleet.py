"""Planner fleet: shard, fail over, hedge, degrade — never lose a request.

``FleetRouter`` fronts N planner replicas (:class:`PlannerDaemon`
instances, in-process or remote over HTTP) and owns the resilience
policy the single daemon cannot provide for itself:

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
  tier first.

Every decision is a ``fleet.*`` telemetry event; the router also
persists its membership + health view as a ``*.fleet.json`` artifact
(Tier-A lintable, ``ACE401``–``ACE403``) via atomic writes.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

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
    SERVICE_HTTP_LISTEN,
)
from .cache import PlanCache
from .daemon import PlannerDaemon
from .httpd import JSONHandler
from .protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    PlanRequest,
    PlanResponse,
    ProtocolError,
)
from .ring import HashRing

#: Format marker for ``*.fleet.json`` state artifacts.
FLEET_STATE_FORMAT_VERSION = 1

#: Bounds of the :class:`FleetConfig` knobs, declared once: the config
#: raises on the first violation, ``repro-lint`` reports all (ACE403).
FLEET_BOUNDS = {
    "vnodes": (">=", 1),
    "retries": (">=", 0),
    "request_timeout": (">", 0),
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
    #: Per-attempt wall-clock bound on one replica call.
    request_timeout: float = 60.0
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
        return {
            "vnodes": self.vnodes,
            "retries": self.retries,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "request_timeout": self.request_timeout,
            "hedge_factor": self.hedge_factor,
            "hedge_min_seconds": self.hedge_min_seconds,
            "load_weight": self.load_weight,
            "degraded_deadline_seconds": self.degraded_deadline_seconds,
            "health_interval": self.health_interval,
            "down_after": self.down_after,
            "cache_entries": self.cache_entries,
            "stale_entries": self.stale_entries,
            "retry_after_seconds": self.retry_after_seconds,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FleetConfig":
        return cls(**{
            key: data[key] for key in cls.__dataclass_fields__
            if key in data
        })


# ----------------------------------------------------------------------
# replica transports
# ----------------------------------------------------------------------
class LocalReplicaClient:
    """In-process replica: wraps a :class:`PlannerDaemon` directly.

    ``killed`` simulates a crashed process — every call raises
    :class:`ReplicaError` until the flag clears — which is how the
    chaos harness injects deterministic transport failures.
    """

    def __init__(self, daemon: PlannerDaemon) -> None:
        self.daemon = daemon
        self.killed = False

    def _check(self) -> None:
        if self.killed:
            raise ReplicaError("replica killed")

    def plan(self, payload: dict, timeout: float) -> PlanResponse:
        self._check()
        request = PlanRequest.from_json(payload)
        response = self.daemon.submit(request, timeout=timeout)
        self._check()  # killed mid-flight: the answer is lost
        return response

    def health(self) -> dict:
        self._check()
        return self.daemon.health()

    def ready(self) -> bool:
        self._check()
        return self.daemon.ready

    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        self._check()
        return {"dropped": self.daemon.invalidate_plans(gpus=gpus)}

    def churn(self, event: dict) -> dict:
        self._check()
        return self.daemon.apply_churn(event)

    def close(self) -> None:
        if not self.killed:
            self.daemon.stop()


class HTTPReplicaClient:
    """Remote replica reached over the daemon's HTTP front-end."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")

    def _call(
        self, method: str, path: str,
        body: Optional[dict], timeout: float,
    ) -> dict:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as raw:
                return json.loads(raw.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # The daemon answered: 4xx/5xx bodies are protocol-level
            # responses (rejected/failed), not transport failures.
            try:
                return json.loads(exc.read().decode("utf-8"))
            except (OSError, ValueError) as parse_exc:
                raise ReplicaError(
                    f"HTTP {exc.code} with unparseable body"
                ) from parse_exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ReplicaError(f"{type(exc).__name__}: {exc}") from exc

    def plan(self, payload: dict, timeout: float) -> PlanResponse:
        data = self._call("POST", "/plan", payload, timeout)
        try:
            return PlanResponse.from_json(data)
        except ProtocolError as exc:
            raise ReplicaError(f"malformed response: {exc}") from exc

    def health(self) -> dict:
        return self._call("GET", "/healthz", None, 5.0)

    def ready(self) -> bool:
        try:
            return bool(self._call("GET", "/readyz", None, 5.0)["ready"])
        except (ReplicaError, KeyError):
            return False

    def invalidate(self, *, gpus: Optional[int] = None) -> dict:
        body = {} if gpus is None else {"gpus": gpus}
        return self._call("POST", "/invalidate", body, 10.0)

    def churn(self, event: dict) -> dict:
        return self._call("POST", "/churn", event, 10.0)

    def close(self) -> None:
        pass


@dataclass
class _ReplicaState:
    """Router-side view of one replica's health."""

    client: object
    healthy: bool = True
    consecutive_failures: int = 0
    queue_depth: int = 0
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
        self._poller = threading.Thread(
            target=self._poll_loop, name="fleet-health", daemon=True
        )
        self._poller.start()
        self.save_state()
        return self

    def stop(self, *, close_replicas: bool = True) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=2.0)
            self._poller = None
        if close_replicas:
            for state in self._replicas.values():
                state.client.close()
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
                    response = self._call(
                        name, trimmed,
                        timeout=self.config.degraded_deadline_seconds
                        + self.config.request_timeout,
                    )
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
                return self._call(
                    name, payload, timeout=self.config.request_timeout
                )
            except ReplicaError:
                self._note_failure(name)
        return None

    def _call(
        self, name: str, payload: dict, *, timeout: float
    ) -> PlanResponse:
        with self._lock:
            client = self._replicas[name].client
        started = time.monotonic()
        response = client.plan(payload, timeout)
        elapsed = time.monotonic() - started
        with self._lock:
            state = self._replicas[name]
            state.latencies.append(elapsed)
        self._mark(name, healthy=True)
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
                results.put((name, self._call(
                    name, payload, timeout=self.config.request_timeout
                )))
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
            deadline = time.monotonic() + self.config.request_timeout
            first_error: Optional[ReplicaError] = None
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
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
        with self._lock:
            state = self._replicas.get(name)
            if state is None or len(state.latencies) < 8:
                return None
            ordered = sorted(state.latencies)
            p99 = ordered[min(
                len(ordered) - 1, int(0.99 * (len(ordered) - 1))
            )]
            load = 1.0 + state.queue_depth * self.config.load_weight
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
        with self._lock:
            state = self._replicas.get(name)
            if state is None:
                return
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

    def _mark(self, name: str, *, healthy: bool) -> None:
        if not healthy:
            self._note_failure(name)
            return
        with self._lock:
            state = self._replicas.get(name)
            if state is None:
                return
            flip = not state.healthy
            state.healthy = True
            state.consecutive_failures = 0
        if flip:
            get_bus().emit(FLEET_REPLICA_UP, source="fleet", replica=name)
            self.save_state()

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval):
            with self._lock:
                names = list(self._replicas)
            for name in names:
                with self._lock:
                    state = self._replicas.get(name)
                    client = state.client if state else None
                if client is None:
                    continue
                try:
                    health = client.health()
                except ReplicaError:
                    self._note_failure(name)
                    continue
                with self._lock:
                    state = self._replicas.get(name)
                    if state is not None:
                        state.queue_depth = int(
                            health.get("queue_depth", 0)
                        )
                self._mark(name, healthy=True)

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
        per_replica = self._fanout("invalidate", {"gpus": gpus})
        return {
            "dropped": dropped,
            "demoted": demoted,
            "replicas": per_replica,
        }

    def churn(self, event: dict) -> dict:
        """Fold one churn event into the whole fleet."""
        demoted = self._demote_to_stale()
        dropped = self.cache.invalidate()
        per_replica = self._fanout("churn", event)
        return {
            "dropped": dropped,
            "demoted": demoted,
            "replicas": per_replica,
        }

    def _fanout(self, op: str, body: dict) -> dict:
        with self._lock:
            targets = list(self._replicas.items())
        outcomes = {}
        for name, state in targets:
            try:
                if op == "invalidate":
                    gpus = body.get("gpus")
                    outcomes[name] = state.client.invalidate(gpus=gpus)
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
        with self._lock:
            replicas = {
                name: {
                    "healthy": state.healthy,
                    "consecutive_failures": state.consecutive_failures,
                    "queue_depth": state.queue_depth,
                    "observed_calls": len(state.latencies),
                }
                for name, state in self._replicas.items()
            }
            counters = dict(self.counters)
        healthy = sum(1 for r in replicas.values() if r["healthy"])
        return {
            "status": "healthy" if healthy == len(replicas)
            else ("degraded" if healthy else "down"),
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
                {
                    "name": name,
                    "healthy": state.healthy,
                    "address": getattr(state.client, "base_url", None),
                }
                for name, state in sorted(self._replicas.items())
            ]
        return write_json_atomic(self.state_path, {
            "format_version": FLEET_STATE_FORMAT_VERSION,
            "fleet": self.config.to_json(),
            "replicas": replicas,
        })


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
class FleetHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to a :class:`FleetRouter`."""

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 64

    def __init__(self, address, router: FleetRouter) -> None:
        super().__init__(address, _FleetHandler)
        self.fleet_router = router


class _FleetHandler(JSONHandler):
    telemetry_source = "fleet"

    @property
    def _router(self) -> FleetRouter:
        return self.server.fleet_router  # type: ignore[attr-defined]

    def _health(self) -> dict:
        return self._router.fleet_health()

    def _ready(self) -> bool:
        return self._router.ready

    def _submit(self, request: PlanRequest):
        return self._router.submit(request)

    def _invalidate(self, gpus: Optional[int]) -> dict:
        return self._router.invalidate(gpus=gpus)

    def _churn(self, body: dict) -> dict:
        return self._router.churn(body)


def serve_fleet(
    router: FleetRouter,
    *,
    host: str = "127.0.0.1",
    port: int = 8348,
) -> FleetHTTPServer:
    """Bind (without blocking) and return the server; the caller runs
    ``serve_forever`` and owns shutdown ordering."""
    server = FleetHTTPServer((host, port), router)
    get_bus().emit(
        SERVICE_HTTP_LISTEN,
        source="fleet",
        host=host,
        port=server.server_address[1],
    )
    return server

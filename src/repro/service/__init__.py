"""Resilient planner service: anytime search behind admission-controlled,
self-healing daemons, served as a fleet of one or more.

Every piece is usable as a library on its own:

- :class:`~repro.service.protocol.PlanRequest` /
  :class:`~repro.service.protocol.PlanResponse` — the JSON wire
  protocol and the canonical request fingerprint;
- :class:`~repro.service.admission.AdmissionController` — bounded
  priority queue with 429-style rejection and live ``retry_after``;
- :class:`~repro.service.breaker.CircuitBreaker` — per-config
  consecutive-failure breaker with half-open probes;
- :class:`~repro.service.cache.PlanCache` — fingerprint-keyed LRU with
  write-through persistence and explicit invalidation;
- :func:`~repro.service.planner.plan_request` — one request through
  the crash-safe, deadline-aware stage-count search;
- :class:`~repro.service.daemon.PlannerDaemon` — one replica: the
  composition, with request journal, coalescing, and drain;
- :class:`~repro.service.ring.HashRing` /
  :class:`~repro.service.fleet.FleetRouter` /
  :class:`~repro.service.fleet.InProcessReplica` — N ≥ 1 in-process
  replicas sharded by consistent hashing, with failover, hedging, and
  graceful degradation;
- :func:`~repro.service.httpd.serve` — the stdlib HTTP front-end over
  a router (``repro-serve`` is a fleet of one, ``repro-fleet`` of N);
- :mod:`~repro.service.chaos` — the seeded kill/restart harness that
  proves the fleet loses nothing.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "admission": ("AdmissionController", "QueueFullError"),
    "breaker": ("BreakerOpenError", "CircuitBreaker"),
    "cache": ("PlanCache",),
    "chaos": (
        "ChaosEvent", "ChaosReport", "run_chaos", "seeded_schedule",
        "synthetic_planner",
    ),
    "daemon": ("PlannerDaemon", "Ticket", "TicketTimeout"),
    "fleet": (
        "FleetConfig", "FleetRouter", "InProcessReplica", "ReplicaError",
    ),
    "httpd": ("serve",),
    "planner": ("PlanOutcome", "plan_digest", "plan_request"),
    "protocol": (
        "PROTOCOL_VERSION", "PlanRequest", "PlanResponse", "ProtocolError",
        "STATUS_FAILED", "STATUS_PARTIAL", "STATUS_REJECTED", "STATUS_SERVED",
        "TERMINAL_STATUSES",
    ),
    "ring": ("HashRing",),
})

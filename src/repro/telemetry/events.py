"""Central registry of every telemetry event name.

Event names used to live as string literals scattered across eight
modules; a typo'd name silently produced an event nobody aggregated.
This module is now the single vocabulary: every emit site imports its
constant from here, :mod:`repro.telemetry.summary` groups by the
prefixes declared here, and the ``repro-lint`` Tier-B checker
(``ACE902``/``ACE903``) rejects any emit whose name is not a literal
drawn from this registry.

Adding an event is a one-line change here plus the emit site; the
registry is the contract that run-log consumers (``repro-trace``,
artifact linting, dashboards) can rely on.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

# -- search (Algorithm 1 iterations) ----------------------------------
SEARCH_BEGIN = "search.begin"
SEARCH_ITERATION = "search.iteration"
SEARCH_DEADLINE = "search.deadline"
SEARCH_END = "search.end"

# -- search strategies (per-strategy detail streams) ------------------
SEARCH_STRATEGY_PROPOSAL = "search.strategy.proposal"
SEARCH_STRATEGY_ARM = "search.strategy.arm"
SEARCH_STRATEGY_STATS = "search.strategy.stats"

# -- strategy arena (tournament harness) ------------------------------
ARENA_BEGIN = "arena.begin"
ARENA_ENTRY_BEGIN = "arena.entry.begin"
ARENA_ENTRY_END = "arena.entry.end"
ARENA_ENTRY_FAILED = "arena.entry.failed"
ARENA_END = "arena.end"

# -- performance model ------------------------------------------------
PERFMODEL_ESTIMATE = "perfmodel.estimate"
PERFMODEL_FIRST_FEASIBLE = "perfmodel.first_feasible"
PERFMODEL_COUNTERS = "perfmodel.counters"

# -- stage-count driver ----------------------------------------------
DRIVER_BEGIN = "driver.begin"
DRIVER_END = "driver.end"
DRIVER_COUNT_COMPLETED = "driver.count.completed"
DRIVER_COUNT_FAILED = "driver.count.failed"
DRIVER_COUNT_RESTORED = "driver.count.restored"
DRIVER_WORKER_SPAWN = "driver.worker.spawn"
DRIVER_WORKER_RETRY = "driver.worker.retry"
DRIVER_WORKER_TIMEOUT = "driver.worker.timeout"
DRIVER_WORKER_CRASH = "driver.worker.crash"
DRIVER_WORKER_ERROR = "driver.worker.error"
DRIVER_POOL_WORKER_START = "driver.pool.worker_start"
DRIVER_POOL_WORKER_EXIT = "driver.pool.worker_exit"

# -- runtime executor -------------------------------------------------
RUNTIME_RUN = "runtime.run"
RUNTIME_TASK = "runtime.task"

# -- fault injection --------------------------------------------------
FAULTS_DEVICE_FAILURE = "faults.device_failure"
FAULTS_STRAGGLER = "faults.straggler"
FAULTS_LINK_DEGRADATION = "faults.link_degradation"
FAULTS_CLUSTER_SHRUNK = "faults.cluster_shrunk"

# -- checkpointing ----------------------------------------------------
CHECKPOINT_CORRUPT = "checkpoint.corrupt"

# -- elastic controller ----------------------------------------------
ELASTIC_RUN_BEGIN = "elastic.run.begin"
ELASTIC_RUN_END = "elastic.run.end"
ELASTIC_EVENT = "elastic.event"
ELASTIC_DECISION = "elastic.decision"
ELASTIC_REPLAN_BEGIN = "elastic.replan.begin"
ELASTIC_REPLAN_END = "elastic.replan.end"
ELASTIC_FALLBACK = "elastic.fallback"
ELASTIC_CLUSTER_SHRUNK = "elastic.cluster.shrunk"
ELASTIC_CACHE_INVALIDATE = "elastic.cache.invalidate"

# -- request coalescing (in-daemon fingerprint sharing) ---------------
COALESCE_ATTACH = "coalesce.attach"
COALESCE_FANOUT = "coalesce.fanout"

# -- planner fleet (router, replicas, chaos harness) ------------------
FLEET_START = "fleet.start"
FLEET_STOP = "fleet.stop"
FLEET_REQUEST_ROUTED = "fleet.request.routed"
FLEET_REQUEST_COMPLETED = "fleet.request.completed"
FLEET_REQUEST_FAILOVER = "fleet.request.failover"
FLEET_REQUEST_HEDGED = "fleet.request.hedged"
FLEET_REQUEST_DEGRADED = "fleet.request.degraded"
FLEET_REPLICA_UP = "fleet.replica.up"
FLEET_REPLICA_DOWN = "fleet.replica.down"
FLEET_FANOUT = "fleet.fanout"
FLEET_CHAOS_KILL = "fleet.chaos.kill"
FLEET_CHAOS_RESTART = "fleet.chaos.restart"

# -- planner service --------------------------------------------------
SERVICE_START = "service.start"
SERVICE_DRAIN_BEGIN = "service.drain.begin"
SERVICE_DRAIN_END = "service.drain.end"
SERVICE_REQUEST_RECEIVED = "service.request.received"
SERVICE_REQUEST_STARTED = "service.request.started"
SERVICE_REQUEST_COMPLETED = "service.request.completed"
SERVICE_REQUEST_FAILED = "service.request.failed"
SERVICE_REQUEST_REJECTED = "service.request.rejected"
SERVICE_REQUEST_READMITTED = "service.request.readmitted"
SERVICE_REQUEST_INVALID = "service.request.invalid"
SERVICE_ADMISSION_ADMITTED = "service.admission.admitted"
SERVICE_ADMISSION_REJECTED = "service.admission.rejected"
SERVICE_BREAKER_OPEN = "service.breaker.open"
SERVICE_BREAKER_CLOSE = "service.breaker.close"
SERVICE_BREAKER_PROBE = "service.breaker.probe"
SERVICE_CACHE_HIT = "service.cache.hit"
SERVICE_CACHE_MISS = "service.cache.miss"
SERVICE_CACHE_INVALIDATE = "service.cache.invalidate"
SERVICE_HTTP_LISTEN = "service.http.listen"
SERVICE_HTTP_ACCESS = "service.http.access"

#: Subsystem prefixes, in display order.  ``summarize_events`` groups
#: by these instead of hard-coding strings at each aggregation site.
SEARCH_PREFIX = "search."
ARENA_PREFIX = "arena."
PERFMODEL_PREFIX = "perfmodel."
DRIVER_PREFIX = "driver."
DRIVER_WORKER_PREFIX = "driver.worker."
RUNTIME_PREFIX = "runtime."
FAULTS_PREFIX = "faults."
CHECKPOINT_PREFIX = "checkpoint."
ELASTIC_PREFIX = "elastic."
SERVICE_PREFIX = "service."
FLEET_PREFIX = "fleet."
COALESCE_PREFIX = "coalesce."

EVENT_PREFIXES: Tuple[str, ...] = (
    SEARCH_PREFIX,
    ARENA_PREFIX,
    PERFMODEL_PREFIX,
    DRIVER_PREFIX,
    RUNTIME_PREFIX,
    FAULTS_PREFIX,
    CHECKPOINT_PREFIX,
    ELASTIC_PREFIX,
    SERVICE_PREFIX,
    FLEET_PREFIX,
    COALESCE_PREFIX,
)

#: Driver worker lifecycle issues surfaced per-event in summaries.
DRIVER_WORKER_ISSUES: Tuple[str, ...] = (
    DRIVER_WORKER_RETRY,
    DRIVER_WORKER_TIMEOUT,
    DRIVER_WORKER_CRASH,
    DRIVER_WORKER_ERROR,
)

#: Every registered event name.  Assembled from the module's own
#: constants so a new event cannot be added without also naming it.
EVENT_NAMES: FrozenSet[str] = frozenset(
    value
    for key, value in list(globals().items())
    if key.isupper()
    and not key.endswith(("_PREFIX", "_PREFIXES", "_ISSUES", "_NAMES"))
    and isinstance(value, str)
)

#: Constant identifier -> event name (used by the Tier-B lint rule to
#: accept ``bus.emit(SEARCH_BEGIN, ...)`` alongside registered string
#: literals).
CONSTANTS_BY_IDENTIFIER = {
    key: value
    for key, value in list(globals().items())
    if key.isupper() and isinstance(value, str) and value in EVENT_NAMES
}


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered telemetry event name."""
    return name in EVENT_NAMES


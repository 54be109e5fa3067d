"""Seeded chaos harness: kill replicas mid-traffic, lose nothing.

The fleet's resilience claims are only worth what a chaos run can
demonstrate, so this module makes the demonstration deterministic and
cheap enough for CI:

* :class:`ChaosEvent` schedules a ``kill`` or ``restart`` of a named
  replica *by request index*, not wall-clock — replaying the same
  event list over the same request list injects the same faults at the
  same points regardless of machine speed;
* :func:`run_chaos` drives a request list through a
  :class:`FleetRouter` over N
  :class:`~repro.service.fleet.InProcessReplica` replicas while
  applying the event schedule (``kill`` makes every call a transport
  error, ``restart`` boots a fresh daemon on the same state
  directory), then replays every unique request against a fresh
  single-daemon **oracle** and checks that each non-degraded fleet
  answer's plan digest is bit-identical to the oracle's.

The resulting :class:`ChaosReport` asserts the two invariants the
paper-scale deployment needs: **zero lost requests** (every submit got
a terminal response) and **digest equality** for every full answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..telemetry import WARNING, get_bus
from ..telemetry.events import FLEET_CHAOS_KILL, FLEET_CHAOS_RESTART
from .daemon import PlannerDaemon
from .fleet import FleetConfig, FleetRouter, InProcessReplica
from .planner import PlanOutcome, plan_digest
from .protocol import (
    STATUS_REJECTED,
    STATUS_SERVED,
    PlanRequest,
    PlanResponse,
)

_EVENT_KINDS = frozenset(("kill", "restart"))


@dataclass(frozen=True)
class ChaosEvent:
    """Kill or restart ``replica`` just before request ``after_request``
    (0-based index into the replayed request list) is submitted."""

    after_request: int
    kind: str
    replica: str

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown chaos event kind: {self.kind!r}")
        if self.after_request < 0:
            raise ValueError("after_request must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def seeded_schedule(
    *,
    seed: int,
    requests: int,
    replicas: Sequence[str],
    kills: int = 2,
) -> List[ChaosEvent]:
    """A reproducible kill/restart schedule: ``kills`` kill events at
    seeded request indices, each followed by a restart a few requests
    later (so the run also exercises rejoin + journal re-admission)."""
    rng = random.Random(f"chaos:{seed}")
    events: List[ChaosEvent] = []
    if requests < 2 or not replicas:
        return events
    for _ in range(kills):
        index = rng.randrange(1, requests)
        name = rng.choice(list(replicas))
        events.append(ChaosEvent(index, "kill", name))
        revive = index + rng.randrange(1, 4)
        if revive < requests:
            events.append(ChaosEvent(revive, "restart", name))
    events.sort(key=lambda e: (e.after_request, e.kind, e.replica))
    return events


def synthetic_planner(
    delay_seconds: float = 0.0,
) -> Callable[..., PlanOutcome]:
    """A deterministic stand-in planner: the plan is a pure function of
    the request, found after ``delay_seconds`` of pretend searching.

    Used by the fleet tests and the service benchmark so chaos replay
    and latency numbers measure the *service layers*, not the search.
    """

    def planner(
        request: PlanRequest, *, deadline=None, checkpoint_path=None
    ) -> PlanOutcome:
        if delay_seconds:
            time.sleep(delay_seconds)
        if deadline is not None and deadline.expired():
            # Anytime contract: out of time still yields a plan, flagged
            # partial.
            return PlanOutcome(
                plan={"model": request.model, "cut": True},
                objective=1.0,
                partial=True,
            )
        rng = random.Random(
            f"{request.model}:{request.gpus}:{request.seed}"
        )
        num_stages = max(request.stage_counts or (min(4, request.gpus),))
        devices = max(1, request.gpus // num_stages)
        # Shaped like ``config_to_dict``: a restarted daemon's cache
        # reloads it through the plan schema.
        stages = [
            {"start": i, "end": i + 1, "num_devices": devices, "tp": [1],
             "dp": [devices], "tp_dim": [rng.randrange(2)],
             "recompute": [False]}
            for i in range(num_stages)
        ]
        plan = {"format_version": 1, "stages": stages,
                "microbatch_size": rng.choice((1, 2, 4))}
        return PlanOutcome(
            plan=plan,
            objective=round(rng.uniform(1.0, 2.0), 6),
            num_estimates=request.iterations,
        )

    return planner


@dataclass
class ChaosReport:
    """What a chaos run proved (or failed to prove)."""

    total: int
    lost: int
    by_status: Dict[str, int] = field(default_factory=dict)
    degraded: int = 0
    failovers: int = 0
    hedged: int = 0
    coalesced: int = 0
    digest_checked: int = 0
    digest_mismatches: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Zero lost requests, every answer terminal, all non-degraded
        plans bit-identical to the single-daemon oracle."""
        return self.lost == 0 and not self.digest_mismatches

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "lost": self.lost,
            "by_status": dict(self.by_status),
            "degraded": self.degraded,
            "failovers": self.failovers,
            "hedged": self.hedged,
            "coalesced": self.coalesced,
            "digest_checked": self.digest_checked,
            "digest_mismatches": list(self.digest_mismatches),
            "events": list(self.events),
            "ok": self.ok,
        }


def run_chaos(
    requests: Sequence[PlanRequest],
    events: Sequence[ChaosEvent],
    *,
    replicas: int = 3,
    planner: Optional[Callable] = None,
    state_root: Optional[Path] = None,
    config: Optional[FleetConfig] = None,
    daemon_kwargs: Optional[dict] = None,
) -> ChaosReport:
    """Replay ``requests`` through a fleet while applying ``events``;
    compare every non-degraded full answer against a fresh
    single-daemon oracle.  Deterministic given deterministic inputs."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    state_root = Path(state_root) if state_root is not None else None
    names = [f"replica-{i}" for i in range(replicas)]
    bad = sorted(
        {e.replica for e in events} - set(names)
    )
    if bad:
        raise ValueError(f"chaos events name unknown replicas: {bad}")
    fleet_replicas: Dict[str, InProcessReplica] = {}
    for name in names:
        state_dir = state_root / name if state_root else None
        fleet_replicas[name] = InProcessReplica(
            name,
            state_dir=state_dir,
            planner=planner,
            daemon_kwargs=daemon_kwargs,
        ).start()
    router = FleetRouter(
        dict(fleet_replicas),
        config=config or FleetConfig(health_interval=0.1, retries=1),
    ).start()
    schedule: Dict[int, List[ChaosEvent]] = {}
    for event in events:
        schedule.setdefault(event.after_request, []).append(event)
    bus = get_bus()
    responses: List[Optional[PlanResponse]] = []
    try:
        for index, request in enumerate(requests):
            for event in schedule.get(index, ()):
                replica = fleet_replicas[event.replica]
                if event.kind == "kill":
                    replica.kill()
                    bus.emit(
                        FLEET_CHAOS_KILL,
                        source="chaos",
                        level=WARNING,
                        replica=event.replica,
                        after_request=index,
                    )
                else:
                    replica.restart()
                    bus.emit(
                        FLEET_CHAOS_RESTART,
                        source="chaos",
                        replica=event.replica,
                        after_request=index,
                    )
            try:
                responses.append(router.submit(request))
            except Exception:  # noqa: BLE001 - a lost request is data
                responses.append(None)
    finally:
        router.stop()
    # -- oracle comparison --------------------------------------------
    oracle_dir = state_root / "oracle" if state_root else None
    oracle = PlannerDaemon(
        planner=planner,
        state_dir=oracle_dir,
        **dict(daemon_kwargs or {}),
    ).start()
    oracle_digests: Dict[str, Optional[str]] = {}
    try:
        for request in requests:
            fingerprint = request.fingerprint()
            if fingerprint in oracle_digests:
                continue
            answer = oracle.submit(request, timeout=120.0)
            oracle_digests[fingerprint] = (
                plan_digest(answer.plan) if answer.ok else None
            )
    finally:
        oracle.stop()
    report = ChaosReport(
        total=len(responses),
        lost=sum(1 for r in responses if r is None),
        events=[e.to_dict() for e in events],
    )
    for response in responses:
        if response is None:
            continue
        report.by_status[response.status] = (
            report.by_status.get(response.status, 0) + 1
        )
        report.failovers += response.failovers
        report.hedged += int(response.hedged)
        report.coalesced += int(response.coalesced)
        degraded = (
            response.stale
            or response.status not in (STATUS_SERVED,)
        )
        if degraded:
            report.degraded += int(
                response.stale or response.status != STATUS_REJECTED
            )
            continue
        expected = oracle_digests.get(response.fingerprint)
        if expected is None:
            continue
        report.digest_checked += 1
        got = plan_digest(response.plan)
        if got != expected:
            report.digest_mismatches.append({
                "fingerprint": response.fingerprint,
                "expected": expected,
                "got": got,
                "replica": response.replica,
            })
    return report

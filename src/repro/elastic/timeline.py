"""Seeded churn timelines: typed cluster-membership events over time.

A :class:`ChurnTimeline` is the elastic controller's input: a time-
ordered sequence of membership events — node preemption and rejoin,
device failure, straggler onset and recovery, link degradation and
repair — plus the seed every downstream consumer derives determinism
from.  It is the only persisted fault artifact: the executor's
in-memory :class:`~repro.faults.plan.FaultPlan` is derived from it.  Timelines
round-trip through JSON (``save``/``load``) so a run can be replayed
bit-exactly from a file, and :func:`random_churn_timeline` samples
plausible SWARM-style churn from a seed alone.

The timeline is pure data; :mod:`repro.elastic.controller` interprets
it against a cluster.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

#: Format marker so future layout changes stay loadable.
CHURN_FORMAT_VERSION = 1

#: Link scopes a link event may target.
LINK_SCOPES = ("intra", "inter")

#: Event kinds a timeline may contain, with their required payload.
EVENT_KINDS = (
    "node_preempt",    # node_id
    "node_join",       # node_id
    "device_fail",     # device_id
    "straggler_on",    # device_id, factor (>= 1)
    "straggler_off",   # device_id
    "link_degrade",    # scope, factor in (0, 1)
    "link_repair",     # scope
)

_NODE_KINDS = frozenset(("node_preempt", "node_join"))
_DEVICE_KINDS = frozenset(("device_fail", "straggler_on", "straggler_off"))
_LINK_KINDS = frozenset(("link_degrade", "link_repair"))


@dataclass(frozen=True)
class ChurnEvent:
    """One typed membership event at a point in virtual time.

    Exactly the payload fields its ``kind`` requires are set; the rest
    stay ``None`` and are omitted from the JSON form.
    """

    time: float
    kind: str
    node_id: Optional[int] = None
    device_id: Optional[int] = None
    factor: Optional[float] = None
    scope: Optional[str] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown churn event kind {self.kind!r}; "
                f"choose from {EVENT_KINDS}"
            )
        if self.kind in _NODE_KINDS:
            if self.node_id is None or self.node_id < 0:
                raise ValueError(
                    f"{self.kind} requires a non-negative node_id"
                )
        if self.kind in _DEVICE_KINDS:
            if self.device_id is None or self.device_id < 0:
                raise ValueError(
                    f"{self.kind} requires a non-negative device_id"
                )
        if self.kind == "straggler_on":
            if self.factor is None or self.factor < 1.0:
                raise ValueError("straggler_on requires factor >= 1.0")
        if self.kind in _LINK_KINDS:
            if self.scope not in LINK_SCOPES:
                raise ValueError(
                    f"{self.kind} requires scope from {LINK_SCOPES}"
                )
        if self.kind == "link_degrade":
            if self.factor is None or not 0.0 < self.factor < 1.0:
                raise ValueError(
                    "link_degrade requires factor in (0, 1)"
                )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"time": self.time, "kind": self.kind}
        for field in ("node_id", "device_id", "factor", "scope"):
            value = getattr(self, field)
            if value is not None:
                data[field] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChurnEvent":
        """Inverse of :meth:`to_dict`; raises ``ArtifactError``
        (``ACE353``) unless ``data`` passes the churn-event schema."""
        from ..lint.artifacts import check_churn_event
        from ..lint.diagnostics import require_valid

        require_valid(check_churn_event(data, "churn event"))
        return cls(**data)


@dataclass(frozen=True)
class ChurnTimeline:
    """A seeded, time-ordered sequence of churn events.

    The ``(seed, events)`` pair fully determines every downstream
    decision of a deterministic controller run, which is what the
    replay-equivalence tests assert.
    """

    seed: int = 0
    events: Tuple[ChurnEvent, ...] = ()
    #: Cluster size the timeline was sampled against, when known.  A
    #: timeline only *mentions* the nodes it touches; without this the
    #: lint cannot distinguish "every node preempted" from "every node
    #: the timeline happens to mention preempted".
    num_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        times = [event.time for event in self.events]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("churn events must be time-ordered")

    @property
    def horizon(self) -> float:
        """Virtual time of the last event (0.0 when empty)."""
        return self.events[-1].time if self.events else 0.0

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "format_version": CHURN_FORMAT_VERSION,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }
        if self.num_nodes is not None:
            data["num_nodes"] = self.num_nodes
        return data

    @classmethod
    def from_dict(
        cls, data: dict, location: str = "churn timeline"
    ) -> "ChurnTimeline":
        """Inverse of :meth:`to_dict`; raises ``ArtifactError``
        (``ACE35x``) unless ``data`` passes the churn-timeline schema."""
        from ..lint.artifacts import check_churn_timeline
        from ..lint.diagnostics import require_valid

        require_valid(check_churn_timeline(data, location))
        return cls(
            seed=data.get("seed", 0),
            events=tuple(ChurnEvent(**event) for event in data["events"]),
            num_nodes=data.get("num_nodes"),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChurnTimeline":
        from ..lint.artifacts import load_artifact

        return cls.from_dict(load_artifact(path, "ACE350"), str(path))


def random_churn_timeline(
    num_nodes: int,
    gpus_per_node: int = 8,
    *,
    seed: int = 0,
    num_events: int = 8,
    horizon_seconds: float = 60.0,
    max_straggler_factor: float = 2.5,
) -> ChurnTimeline:
    """Sample a plausible churn timeline for an elastic cluster.

    Events arrive with exponential gaps over ``horizon_seconds`` and
    stay *state-consistent*: a node rejoin names a currently preempted
    node, a straggler recovery names a current straggler, a link repair
    names a degraded scope — and at least one node stays up at all
    times.  The draw is fully determined by ``seed``.
    """
    if num_nodes < 1 or gpus_per_node < 1:
        raise ValueError("cluster dimensions must be positive")
    if num_events < 0:
        raise ValueError("num_events must be non-negative")
    if horizon_seconds <= 0:
        raise ValueError("horizon_seconds must be positive")
    rng = np.random.default_rng(
        (seed, zlib.crc32(b"elastic.churn_timeline"))
    )
    num_gpus = num_nodes * gpus_per_node

    preempted: set = set()
    stragglers: set = set()
    degraded: set = set()
    #: kind -> relative draw weight when the kind is applicable.
    weights = {
        "node_preempt": 2.0,
        "node_join": 2.0,
        "straggler_on": 1.5,
        "straggler_off": 1.5,
        "link_degrade": 1.0,
        "link_repair": 1.0,
    }

    events = []
    time = 0.0
    for _ in range(num_events):
        time += float(
            rng.exponential(horizon_seconds / max(1, num_events))
        )
        allowed = []
        if len(preempted) < num_nodes - 1:
            allowed.append("node_preempt")
        if preempted:
            allowed.append("node_join")
        if len(stragglers) < num_gpus:
            allowed.append("straggler_on")
        if stragglers:
            allowed.append("straggler_off")
        if len(degraded) < len(LINK_SCOPES):
            allowed.append("link_degrade")
        if degraded:
            allowed.append("link_repair")
        probs = np.array([weights[kind] for kind in allowed])
        kind = str(rng.choice(allowed, p=probs / probs.sum()))

        if kind == "node_preempt":
            up = sorted(set(range(num_nodes)) - preempted)
            node = int(rng.choice(up))
            preempted.add(node)
            events.append(ChurnEvent(time, kind, node_id=node))
        elif kind == "node_join":
            node = int(rng.choice(sorted(preempted)))
            preempted.discard(node)
            events.append(ChurnEvent(time, kind, node_id=node))
        elif kind == "straggler_on":
            healthy = sorted(set(range(num_gpus)) - stragglers)
            device = int(rng.choice(healthy))
            stragglers.add(device)
            factor = float(rng.uniform(1.2, max_straggler_factor))
            events.append(
                ChurnEvent(time, kind, device_id=device, factor=factor)
            )
        elif kind == "straggler_off":
            device = int(rng.choice(sorted(stragglers)))
            stragglers.discard(device)
            events.append(ChurnEvent(time, kind, device_id=device))
        elif kind == "link_degrade":
            scope = str(
                rng.choice(sorted(set(LINK_SCOPES) - degraded))
            )
            degraded.add(scope)
            factor = float(rng.uniform(0.3, 0.9))
            events.append(
                ChurnEvent(time, kind, scope=scope, factor=factor)
            )
        else:  # link_repair
            scope = str(rng.choice(sorted(degraded)))
            degraded.discard(scope)
            events.append(ChurnEvent(time, kind, scope=scope))
    return ChurnTimeline(
        seed=seed, events=tuple(events), num_nodes=num_nodes
    )

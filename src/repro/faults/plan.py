"""The executor's in-memory view of deployment faults.

Real V100/IB clusters fail in structured ways the analytic planner never
sees: a GPU drops mid-iteration, one device runs hot and slow, and an
oversubscribed IB link delivers a fraction of its nominal bandwidth.
A :class:`FaultPlan` names those faults for one measured iteration.  It
is never persisted: the fault artifact is a
:class:`~repro.elastic.timeline.ChurnTimeline`, and
:meth:`FaultPlan.from_timeline` derives the view from one.

The plan is pure data; :mod:`repro.faults.inject` and
:class:`repro.runtime.executor.Executor` interpret it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..cluster.topology import ClusterSpec
from ..elastic.timeline import LINK_SCOPES, ChurnTimeline


@dataclass(frozen=True)
class DeviceFailure:
    """Device ``device_id`` becomes unusable ``time`` seconds in."""

    device_id: int
    time: float

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")
        if self.time < 0:
            raise ValueError("failure time must be non-negative")


@dataclass(frozen=True)
class StragglerSlowdown:
    """Device ``device_id`` runs compute ``factor``x slower."""

    device_id: int
    factor: float

    def __post_init__(self) -> None:
        if self.device_id < 0:
            raise ValueError("device_id must be non-negative")
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0")


@dataclass(frozen=True)
class LinkDegradation:
    """A link class retains only ``factor`` of its nominal bandwidth."""

    scope: str  # "intra" (NVLink) or "inter" (IB)
    factor: float

    def __post_init__(self) -> None:
        if self.scope not in LINK_SCOPES:
            raise ValueError(
                f"unknown link scope {self.scope!r}; "
                f"choose from {LINK_SCOPES}"
            )
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("bandwidth factor must be in (0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of deployment faults.

    An empty plan (the default) injects nothing, so fault-aware code
    paths can treat ``FaultPlan()`` and ``None`` identically.
    """

    device_failures: Tuple[DeviceFailure, ...] = ()
    stragglers: Tuple[StragglerSlowdown, ...] = ()
    link_degradations: Tuple[LinkDegradation, ...] = ()

    @classmethod
    def from_timeline(
        cls, timeline: ChurnTimeline, cluster: ClusterSpec
    ) -> "FaultPlan":
        """The faults ``timeline`` inflicts on ``cluster``.

        A ``device_fail`` is a :class:`DeviceFailure` at its time, and a
        ``node_preempt`` is one per device of that node.  Stragglers and
        link degradations fold to their end state, so a recovered
        straggler or a repaired link leaves nothing behind.
        """
        gpn = cluster.gpus_per_node
        failures = []
        stragglers: Dict[int, float] = {}
        links: Dict[str, float] = {}
        for event in timeline.events:
            if event.kind == "device_fail":
                failures.append(DeviceFailure(event.device_id, event.time))
            elif event.kind == "node_preempt":
                first = event.node_id * gpn
                failures.extend(
                    DeviceFailure(device, event.time)
                    for device in range(first, first + gpn)
                )
            elif event.kind == "straggler_on":
                stragglers[event.device_id] = event.factor
            elif event.kind == "straggler_off":
                stragglers.pop(event.device_id, None)
            elif event.kind == "link_degrade":
                links[event.scope] = event.factor
            elif event.kind == "link_repair":
                links.pop(event.scope, None)
        return cls(
            device_failures=tuple(failures),
            stragglers=tuple(
                StragglerSlowdown(device, factor)
                for device, factor in sorted(stragglers.items())
            ),
            link_degradations=tuple(
                LinkDegradation(scope, factor)
                for scope, factor in sorted(links.items())
            ),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not (
            self.device_failures
            or self.stragglers
            or self.link_degradations
        )

    def first_failure(self, num_devices: int):
        """Earliest :class:`DeviceFailure` hitting the first
        ``num_devices`` devices (the span a config actually occupies),
        or ``None``."""
        hits = [
            f for f in self.device_failures if f.device_id < num_devices
        ]
        return min(hits, key=lambda f: (f.time, f.device_id)) if hits else None

    def straggler_factor(self, device_id: int) -> float:
        """Compound slowdown for one device (1.0 when healthy)."""
        factor = 1.0
        for straggler in self.stragglers:
            if straggler.device_id == device_id:
                factor *= straggler.factor
        return factor

    def bandwidth_factor(self, scope: str) -> float:
        """Remaining bandwidth fraction for a link scope."""
        if scope not in LINK_SCOPES:
            raise ValueError(f"unknown link scope {scope!r}")
        factor = 1.0
        for degradation in self.link_degradations:
            if degradation.scope == scope:
                factor *= degradation.factor
        return factor

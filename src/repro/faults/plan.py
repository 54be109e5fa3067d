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

:class:`Membership` is the one reading of churn events: it folds them
against a base cluster into the surviving cluster, the planner's view
of it and this fault view, for the controller, service and lint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..cluster.topology import ClusterSpec
from ..elastic.timeline import LINK_SCOPES, ChurnEvent, ChurnTimeline
from .inject import _surviving_nodes, degrade_cluster, shrink_cluster_checked


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
        ``node_preempt`` is one per device of that node; a later
        ``node_join`` keeps them, because the measured iteration has
        already lost those devices.  Stragglers and link degradations
        fold to their end state, so a recovered straggler or a repaired
        link leaves nothing behind.
        """
        membership = Membership.fold(cluster, timeline.events)
        return _fault_plan(
            membership.stragglers,
            membership.link_factors,
            membership.failures,
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
        return math.prod(
            (s.factor for s in self.stragglers if s.device_id == device_id),
            start=1.0,
        )

    def bandwidth_factor(self, scope: str) -> float:
        """Remaining bandwidth fraction for a link scope."""
        if scope not in LINK_SCOPES:
            raise ValueError(f"unknown link scope {scope!r}")
        return math.prod(
            (d.factor for d in self.link_degradations if d.scope == scope),
            start=1.0,
        )


def _fault_plan(
    stragglers: Dict[int, float],
    link_factors: Dict[str, float],
    failures: Iterable[Tuple[int, float]] = (),
) -> FaultPlan:
    return FaultPlan(
        device_failures=tuple(
            DeviceFailure(device, time) for device, time in failures
        ),
        stragglers=tuple(
            StragglerSlowdown(device, factor)
            for device, factor in sorted(stragglers.items())
        ),
        link_degradations=tuple(
            LinkDegradation(scope, factor)
            for scope, factor in sorted(link_factors.items())
        ),
    )


class MembershipView(NamedTuple):
    """The three coherent projections of a :class:`Membership`.

    ``effective`` keeps nominal links — the executor applies
    ``fault_view``'s link degradations and stragglers itself — while
    ``planner`` bakes both into the hardware description the
    performance model prices, so neither path double-counts.
    """

    effective: ClusterSpec  # survivors, power-of-two snapped
    planner: ClusterSpec    # + degraded links, stragglers folded
    fault_view: FaultPlan   # stragglers/links in shrunk device ids


@dataclass
class Membership:
    """Churn events folded against a base ``cluster``.

    Events about hardware the cluster lacks stay inert: they change
    neither :meth:`view` nor :attr:`state`.  A ``node_join`` brings back
    every device of the node, even those that failed on their own, but
    never erases the append-only ``failures`` log of ``(device, time)``.
    """

    cluster: ClusterSpec
    preempted: Set[int] = field(default_factory=set)
    failed: Set[int] = field(default_factory=set)
    stragglers: Dict[int, float] = field(default_factory=dict)
    link_factors: Dict[str, float] = field(default_factory=dict)
    failures: List[Tuple[int, float]] = field(default_factory=list)

    @classmethod
    def fold(
        cls, cluster: ClusterSpec, events: Iterable[ChurnEvent] = ()
    ) -> "Membership":
        membership = cls(cluster)
        for event in events:
            membership.apply(event)
        return membership

    def apply(self, event: ChurnEvent) -> None:
        gpn = self.cluster.gpus_per_node
        if event.kind == "node_preempt":
            self.preempted.add(event.node_id)
            first = event.node_id * gpn
            self.failures.extend(
                (device, event.time) for device in range(first, first + gpn)
            )
        elif event.kind == "node_join":
            self.preempted.discard(event.node_id)
            first = event.node_id * gpn
            self.failed -= set(range(first, first + gpn))
        elif event.kind == "device_fail":
            self.failed.add(event.device_id)
            self.failures.append((event.device_id, event.time))
        elif event.kind == "straggler_on":
            self.stragglers[event.device_id] = event.factor
        elif event.kind == "straggler_off":
            self.stragglers.pop(event.device_id, None)
        elif event.kind == "link_degrade":
            self.link_factors[event.scope] = event.factor
        elif event.kind == "link_repair":
            self.link_factors.pop(event.scope, None)

    def _lost_devices(self) -> Set[int]:
        """Devices of ``cluster`` that are down right now."""
        base = self.cluster
        gpn = base.gpus_per_node
        return {
            d
            for node in self.preempted
            if node < base.num_nodes
            for d in range(node * gpn, (node + 1) * gpn)
        } | {d for d in self.failed if d < base.num_gpus}

    @classmethod
    def from_state(
        cls, cluster: ClusterSpec, state: Optional[dict]
    ) -> "Membership":
        """A fold of ``cluster`` with this :attr:`state` (``None`` is
        the nominal fold), hence the same :meth:`view`."""
        if not state:
            return cls(cluster)
        return cls(
            cluster,
            failed=set(state["lost"]),
            stragglers=dict(state["stragglers"]),
            link_factors=dict(state["links"]),
        )

    @property
    def state(self) -> Optional[dict]:
        """The folded state as canonical JSON values — the lost devices,
        ``[device, factor]`` stragglers and link factors — or ``None``
        when nothing in it touches ``cluster`` (the nominal fold)."""
        stragglers = sorted(
            [device, factor]
            for device, factor in self.stragglers.items()
            if device < self.cluster.num_gpus
        )
        lost = sorted(self._lost_devices())
        if not (lost or stragglers or self.link_factors):
            return None
        return {
            "lost": lost,
            "stragglers": stragglers,
            "links": dict(sorted(self.link_factors.items())),
        }

    def view(self) -> MembershipView:
        """Project the fold onto ``cluster``; raises
        :class:`~repro.faults.inject.NoSurvivorsError` (``ACE221``)
        when no device survives."""
        base = self.cluster
        gpn = base.gpus_per_node
        failed = self._lost_devices()
        effective, _ = shrink_cluster_checked(base, sorted(failed))
        kept = _surviving_nodes(base, failed, effective.num_nodes)

        # Remap base-cluster device ids onto the shrunk cluster; a
        # straggler on a dropped node (or beyond a collapsed node's
        # snapped width) no longer exists.
        new_gpn = effective.gpus_per_node
        remapped: Dict[int, float] = {}
        for device, factor in self.stragglers.items():
            node, offset = device // gpn, device % gpn
            if node in kept and offset < new_gpn:
                remapped[kept.index(node) * new_gpn + offset] = factor

        planner = degrade_cluster(effective, **self.link_factors)
        if remapped:
            # Fold stragglers into per-node device specs: the hetero
            # performance model then prices the slow node and the
            # search migrates layers off it — the same mechanism that
            # handles genuinely mixed hardware.
            specs = list(
                planner.node_devices
                or (planner.device,) * planner.num_nodes
            )
            for position in range(planner.num_nodes):
                span = range(
                    position * new_gpn, (position + 1) * new_gpn
                )
                slow = max(
                    (remapped[d] for d in span if d in remapped),
                    default=1.0,
                )
                if slow > 1.0:
                    spec = specs[position]
                    specs[position] = replace(
                        spec,
                        name=f"{spec.name}~x{slow:.3f}",
                        efficiency=spec.efficiency / slow,
                    )
            planner = replace(planner, node_devices=tuple(specs))
        return MembershipView(
            effective=effective,
            planner=planner,
            fault_view=_fault_plan(remapped, self.link_factors),
        )

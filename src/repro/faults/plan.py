"""The executor's in-memory view of deployment faults.

Real V100/IB clusters fail in structured ways the analytic planner never
sees: a GPU drops mid-iteration, one device runs hot and slow, and an
oversubscribed IB link delivers a fraction of its nominal bandwidth.
Churn events are the one vocabulary for those faults, and a
:class:`~repro.elastic.timeline.ChurnTimeline` the only persisted fault
artifact.  A :class:`FaultPlan` is the end state of folding one: what
:class:`Membership` holds, as plain data for one measured iteration.

:class:`Membership` is the one reading of churn events: it folds them
against a base cluster into the surviving cluster, the planner's view
of it and this fault view, for the controller, service and lint.
:class:`repro.runtime.executor.Executor` interprets the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..cluster.topology import ClusterSpec
from ..elastic.timeline import ChurnEvent, ChurnTimeline
from .inject import _surviving_nodes, degrade_cluster, shrink_cluster_checked


@dataclass(frozen=True)
class FaultPlan:
    """The faults a :class:`Membership` fold leaves in effect.

    Each field is a sorted tuple of pairs named as in the fold: the
    ``(device, time)`` failure log, the ``(device, factor)`` stragglers
    and the ``(scope, factor)`` link factors.  An empty plan (the
    default) injects nothing, so fault-aware code paths can treat
    ``FaultPlan()`` and ``None`` identically.
    """

    failures: Tuple[Tuple[int, float], ...] = ()
    stragglers: Tuple[Tuple[int, float], ...] = ()
    link_factors: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_timeline(
        cls, timeline: ChurnTimeline, cluster: ClusterSpec
    ) -> "FaultPlan":
        """The faults ``timeline`` inflicts on ``cluster``.

        A ``device_fail`` logs its device at its time, and a
        ``node_preempt`` logs every device of that node; a later
        ``node_join`` keeps them, because the measured iteration has
        already lost those devices.  Stragglers and link degradations
        fold to their end state, so a recovered straggler or a repaired
        link leaves nothing behind.
        """
        membership = Membership.fold(cluster, timeline.events)
        return cls(
            failures=tuple(sorted(membership.failures)),
            stragglers=tuple(sorted(membership.stragglers.items())),
            link_factors=tuple(sorted(membership.link_factors.items())),
        )

    @property
    def is_empty(self) -> bool:
        return not (self.failures or self.stragglers or self.link_factors)

    def first_failure(self, num_devices: int) -> Optional[Tuple[float, int]]:
        """``(time, device)`` of the earliest failure among the first
        ``num_devices`` devices (the span a config actually occupies),
        or ``None``."""
        return min(
            ((time, device) for device, time in self.failures
             if device < num_devices),
            default=None,
        )


class MembershipView(NamedTuple):
    """The three coherent projections of a :class:`Membership`.

    ``effective`` keeps nominal links — the executor applies
    ``fault_view``'s link factors and stragglers itself — while
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
            fault_view=FaultPlan(
                stragglers=tuple(sorted(remapped.items())),
                link_factors=tuple(sorted(self.link_factors.items())),
            ),
        )

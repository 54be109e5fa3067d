"""Translate faults into the cluster and configuration they leave.

Three translations live here:

* ``degrade_cluster`` — apply link-bandwidth factors, producing the
  hardware the executor *actually* runs on;
* ``shrink_cluster_checked`` — the surviving cluster after device failures
  (snapped to the largest power-of-two allocation the planner's
  power-of-two invariants can use);
* ``adapt_config`` — rescale a searched plan onto a smaller surviving
  cluster, preserving its stage structure, per-op tensor degrees, and
  recompute decisions.  This is the warm-start seed of elastic
  re-planning: the adapted survivors of ``top_configs`` are usually one
  estimate away from feasibility, where a cold restart re-discovers
  everything.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..cluster.topology import ClusterSpec, LinkSpec
from ..ir.graph import OpGraph
from ..lint.diagnostics import Diagnostic
from ..lint.diagnostics import WARNING as LINT_WARNING
from ..parallel.config import ParallelConfig
from ..parallel.validation import ConfigError, validate_config
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    FAULTS_CLUSTER_SHRUNK,
    FAULTS_LINK_DEGRADATION,
)


def _degrade_link(link: LinkSpec, factor: float) -> LinkSpec:
    if factor >= 1.0:
        return link
    return LinkSpec(
        bandwidth=link.bandwidth * factor, latency=link.latency
    )


def degrade_cluster(
    cluster: ClusterSpec, intra: float = 1.0, inter: float = 1.0
) -> ClusterSpec:
    """Cluster whose intra-/inter-node links keep only the given
    fractions of their bandwidth (``cluster`` itself when both are 1)."""
    if intra >= 1.0 and inter >= 1.0:
        return cluster
    bus = get_bus()
    if bus.active:
        for scope, factor in (("intra", intra), ("inter", inter)):
            if factor < 1.0:
                bus.emit(
                    FAULTS_LINK_DEGRADATION,
                    source="faults",
                    level=WARNING,
                    scope=scope,
                    factor=float(factor),
                )
    return replace(
        cluster,
        intra_node=_degrade_link(cluster.intra_node, intra),
        inter_node=_degrade_link(cluster.inter_node, inter),
    )


class NoSurvivorsError(ValueError):
    """Every device failed; no usable cluster remains.

    Carries the structured ``ACE221`` diagnostic so service-layer
    callers can report the condition without string-matching.
    """

    def __init__(self, message: str, diagnostic: Diagnostic) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


def _surviving_nodes(
    cluster: ClusterSpec, failed: set, count: int
) -> Tuple[int, ...]:
    """The ``count`` healthiest nodes (fewest failures, then by id)."""
    losses = [0] * cluster.num_nodes
    for device in failed:
        losses[device // cluster.gpus_per_node] += 1
    ranked = sorted(
        range(cluster.num_nodes), key=lambda n: (losses[n], n)
    )
    return tuple(sorted(ranked[:count]))


def shrink_cluster_checked(
    cluster: ClusterSpec, failed_devices: Sequence[int]
) -> Tuple[ClusterSpec, List[Diagnostic]]:
    """The usable cluster after losing ``failed_devices``, plus
    structured diagnostics about what the snap cost.

    The planner's device splits are power-of-two, so the surviving
    allocation snaps down to the largest power of two not exceeding the
    healthy device count, keeping the original link specs.  Multi-node
    shapes keep full nodes (the paper's testbed rule); anything at or
    below one node collapses to a single node.  Heterogeneous clusters
    keep the healthiest nodes' device specs.

    When the snap idles healthy survivors (their count is not a power
    of two) an ``ACE220`` warning diagnostic says exactly how many were
    dropped; all devices failing raises :class:`NoSurvivorsError`
    carrying an ``ACE221`` diagnostic.
    """
    failed = {d for d in failed_devices if 0 <= d < cluster.num_gpus}
    survivors = cluster.num_gpus - len(failed)
    if survivors < 1:
        diagnostic = Diagnostic(
            "ACE221",
            f"all {cluster.num_gpus} devices failed; no usable "
            f"cluster remains",
            attrs={"num_gpus": cluster.num_gpus, "failed": len(failed)},
            hint="replace failed hardware before re-planning",
        )
        raise NoSurvivorsError(
            "no devices survive the fault plan", diagnostic
        )
    size = 1 << (survivors.bit_length() - 1)  # largest power of two <=
    diagnostics: List[Diagnostic] = []
    if size < survivors:
        diagnostics.append(Diagnostic(
            "ACE220",
            f"{survivors} devices survive but the planner's "
            f"power-of-two invariants can only use {size}; "
            f"{survivors - size} healthy device(s) left idle",
            severity=LINT_WARNING,
            attrs={
                "survivors": survivors,
                "snapped": size,
                "dropped": survivors - size,
            },
            hint="restore failed devices to a power-of-two total to "
            "reclaim the idle survivors",
        ))
    gpn = cluster.gpus_per_node
    if size <= gpn:
        num_nodes, gpn = 1, size
    else:
        # Power-of-two sizes above one node are multiples of a
        # power-of-two node width; a non-multiple means the original
        # width wasn't a power of two — fall back to one full node.
        num_nodes = 1 if size % gpn else size // gpn
    shrunk = replace(
        cluster,
        num_nodes=num_nodes,
        gpus_per_node=gpn,
        node_devices=(
            tuple(
                cluster.node_devices[n]
                for n in _surviving_nodes(cluster, failed, num_nodes)
            )
            if cluster.node_devices is not None
            else None
        ),
    )
    bus = get_bus()
    if bus.active:
        bus.emit(
            FAULTS_CLUSTER_SHRUNK,
            source="faults",
            level=WARNING,
            failed=len(failed),
            survivors=survivors,
            usable=size,
            dropped=survivors - size,
        )
    return shrunk, diagnostics


def memory_safe_variant(config: ParallelConfig) -> ParallelConfig:
    """Full-recompute copy of ``config``.

    Same stage partition, device counts, and per-op degrees, but every
    op recomputes — the memory floor of the plan's structure.  Warm
    re-planning pairs each adapted survivor with its safe variant: a
    survivor that fit a bigger cluster often overshoots the smaller
    one's memory, while its safe variant is nearly always feasible and
    keeps the searched structure as a starting point.
    """
    return ParallelConfig(
        stages=[stage.with_recompute(True) for stage in config.stages],
        microbatch_size=config.microbatch_size,
    )


def adapt_config(
    config: ParallelConfig,
    graph: OpGraph,
    cluster: ClusterSpec,
) -> Optional[ParallelConfig]:
    """Rescale ``config`` onto ``cluster``; ``None`` when impossible.

    Shrinking by a factor ``r`` divides every stage's device count by
    ``r`` (clamping per-op tensor degrees that no longer fit; data
    degrees follow).  Growing multiplies instead.  The result keeps the
    stage partition, microbatch size, partition dimensions, and
    recompute flags of the original plan and is fully validated before
    being returned.
    """
    old, new = config.total_devices, cluster.num_gpus
    if max(old, new) % min(old, new):
        return None
    adapted = config
    if old != new:
        if any(stage.num_devices * new < old for stage in config.stages):
            return None  # a stage would drop below one device
        adapted = ParallelConfig(
            stages=[
                stage.with_devices(stage.num_devices * new // old)
                for stage in config.stages
            ],
            microbatch_size=config.microbatch_size,
        )
    try:
        validate_config(adapted, graph, cluster)
    except ConfigError:
        return None
    return adapted

"""Cluster topology: nodes of devices with intra/inter-node links.

Matches the paper's testbed shape: servers of 8 GPUs connected by
NVLink inside a node and 100 Gb/s InfiniBand between nodes.  The
planner only needs, for any *device group*, the bottleneck bandwidth
and latency of collectives spanning that group — ``ClusterSpec``
answers those queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .device import DeviceSpec, v100


@dataclass(frozen=True)
class LinkSpec:
    """A communication link class.

    Attributes:
        bandwidth: effective bytes/s available to one GPU using the link.
        latency: seconds of fixed per-message cost.
    """

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def transfer_time(self, num_bytes: float) -> float:
        """alpha-beta time to move ``num_bytes`` point-to-point."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth


#: NVLink effective per-GPU bandwidth inside a DGX-1-style node.
DEFAULT_NVLINK = LinkSpec(bandwidth=130e9, latency=5e-6)
#: 100 Gb/s InfiniBand per server, shared by that server's GPUs.
DEFAULT_IB = LinkSpec(bandwidth=12.5e9, latency=20e-6)


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of ``num_nodes`` x ``gpus_per_node`` devices.

    Device ids are dense integers, node-major: GPU ``i`` lives on node
    ``i // gpus_per_node``.

    Clusters are homogeneous by default: every node hosts ``device``.
    A heterogeneous mix (e.g. some V100 nodes, some A100 nodes) sets
    ``node_devices`` to one :class:`DeviceSpec` per node; ``device``
    then acts as the *reference* device the profile database was built
    on, and per-node rooflines are expressed as scale factors relative
    to it.  ``node_devices=None`` is the homogeneous fast path — every
    existing query answers exactly as before.
    """

    num_nodes: int = 4
    gpus_per_node: int = 8
    device: DeviceSpec = field(default_factory=v100)
    intra_node: LinkSpec = DEFAULT_NVLINK
    inter_node: LinkSpec = DEFAULT_IB
    node_devices: Optional[Tuple[DeviceSpec, ...]] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("cluster dimensions must be positive")
        if self.node_devices is not None:
            if not isinstance(self.node_devices, tuple):
                object.__setattr__(
                    self, "node_devices", tuple(self.node_devices)
                )
            if len(self.node_devices) != self.num_nodes:
                raise ValueError(
                    f"node_devices has {len(self.node_devices)} entries "
                    f"for {self.num_nodes} nodes"
                )

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    # ------------------------------------------------------------------
    # heterogeneity
    # ------------------------------------------------------------------
    @property
    def is_heterogeneous(self) -> bool:
        """Whether any node's device differs from the reference."""
        return self.node_devices is not None and any(
            spec != self.device for spec in self.node_devices
        )

    def span_compute_scale(
        self, first_device: int, num_devices: int, precision: str
    ) -> float:
        """Compute-time scale of a contiguous device span vs. reference.

        A pipeline stage advances at the pace of its *slowest* occupied
        device, so the span's scale is the max over occupied nodes of
        ``reference_sustained / node_sustained`` at ``precision``
        (``1.0`` on a homogeneous cluster; ``< 1.0`` when every occupied
        device is faster than the reference).
        """
        if self.node_devices is None:
            return 1.0
        reference = self.device.sustained_flops(precision)
        return max(
            reference / self.node_devices[n].sustained_flops(precision)
            for n in self._span_nodes(first_device, num_devices)
        )

    def _span_nodes(self, first_device: int, num_devices: int) -> range:
        """Indices of the nodes a contiguous device span occupies."""
        if num_devices < 1:
            raise ValueError("num_devices must be positive")
        last_device = first_device + num_devices - 1
        if not (0 <= first_device and last_device < self.num_gpus):
            raise ValueError(
                f"span [{first_device}, {last_device}] exceeds cluster "
                f"size {self.num_gpus}"
            )
        return range(
            first_device // self.gpus_per_node,
            last_device // self.gpus_per_node + 1,
        )

    def span_memory_limit(
        self, first_device: int, num_devices: int
    ) -> float:
        """Usable bytes per device over a contiguous span.

        The tightest (minimum) capacity over the occupied nodes: a
        stage's shards are symmetric, so the smallest device bounds
        what the whole stage may allocate per GPU.
        """
        if self.node_devices is None:
            return float(self.device.memory_bytes)
        return float(min(
            self.node_devices[n].memory_bytes
            for n in self._span_nodes(first_device, num_devices)
        ))

    def node_of(self, device_id: int) -> int:
        """Node index hosting ``device_id``."""
        if not 0 <= device_id < self.num_gpus:
            raise IndexError(
                f"device {device_id} out of range [0, {self.num_gpus})"
            )
        return device_id // self.gpus_per_node

    def group_spans_nodes(self, devices: Sequence[int]) -> bool:
        """Whether the device group touches more than one node."""
        nodes = {self.node_of(d) for d in devices}
        return len(nodes) > 1

    def group_link(self, devices: Sequence[int]) -> LinkSpec:
        """Bottleneck link class for a collective over ``devices``.

        A group confined to one node communicates over NVLink.  A group
        spanning nodes is bottlenecked by the inter-node NIC, which is
        *shared* by all of the group's GPUs on one node, so the
        effective per-GPU bandwidth shrinks accordingly.
        """
        if not devices:
            raise ValueError("device group must be non-empty")
        if not self.group_spans_nodes(devices):
            return self.intra_node
        per_node = max(
            sum(1 for d in devices if self.node_of(d) == n)
            for n in {self.node_of(d) for d in devices}
        )
        return LinkSpec(
            bandwidth=self.inter_node.bandwidth / per_node,
            latency=self.inter_node.latency,
        )

    def link_for_group_size(
        self, group_size: int, *, contiguous_start: int = 0
    ) -> LinkSpec:
        """Link class for a contiguous group of ``group_size`` devices.

        The planner places parallel groups on contiguous device ranges;
        this is the fast path that avoids materializing id lists.
        """
        if group_size < 1:
            raise ValueError("group_size must be positive")
        devices = range(contiguous_start, contiguous_start + group_size)
        if devices.stop > self.num_gpus:
            raise ValueError(
                f"group [{devices.start}, {devices.stop}) exceeds cluster "
                f"size {self.num_gpus}"
            )
        return self.group_link(devices)

    def p2p_link(self, src: int, dst: int) -> LinkSpec:
        """Link class for a point-to-point transfer between two GPUs."""
        if self.node_of(src) == self.node_of(dst):
            return self.intra_node
        return self.inter_node

    def describe(self) -> str:
        """One-line human summary."""
        if self.is_heterogeneous:
            names = []
            for spec in self.node_devices:
                if not names or names[-1][0] != spec.name:
                    names.append([spec.name, 1])
                else:
                    names[-1][1] += 1
            device_text = "+".join(
                f"{count}x{name}" for name, count in names
            )
        else:
            device_text = self.device.name
        return (
            f"{self.num_nodes}x{self.gpus_per_node} {device_text} "
            f"(NVLink {self.intra_node.bandwidth / 1e9:.0f} GB/s, "
            f"IB {self.inter_node.bandwidth * 8 / 1e9:.0f} Gb/s)"
        )


def single_node(num_gpus: int = 8, device: DeviceSpec = None) -> ClusterSpec:
    """Convenience constructor for a one-node cluster."""
    return ClusterSpec(
        num_nodes=1,
        gpus_per_node=num_gpus,
        device=device or v100(),
    )


def mixed_cluster(
    node_devices: Sequence[DeviceSpec],
    gpus_per_node: int = 8,
    *,
    reference: Optional[DeviceSpec] = None,
) -> ClusterSpec:
    """A heterogeneous cluster from an explicit per-node device list.

    ``reference`` names the device the profile database is built on
    (defaults to the first node's device).
    """
    specs = tuple(node_devices)
    if not specs:
        raise ValueError("node_devices must be non-empty")
    return ClusterSpec(
        num_nodes=len(specs),
        gpus_per_node=gpus_per_node,
        device=reference or specs[0],
        node_devices=specs,
    )


def paper_cluster(num_gpus: int = 32) -> ClusterSpec:
    """The paper's testbed shape, truncated to ``num_gpus`` devices.

    Uses full 8-GPU nodes when possible; a smaller single node
    otherwise (the paper's 1/4-GPU settings fit one server).
    """
    if num_gpus < 1:
        raise ValueError("num_gpus must be positive")
    if num_gpus <= 8:
        return single_node(num_gpus)
    if num_gpus % 8:
        raise ValueError("multi-node clusters must use full 8-GPU nodes")
    return ClusterSpec(num_nodes=num_gpus // 8, gpus_per_node=8)

"""Hardware substrate: devices, topology, collective cost models."""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "collectives": ("CollectiveCostModel",),
    "device": ("DeviceSpec", "GB", "a100", "v100"),
    "topology": (
        "ClusterSpec", "DEFAULT_IB", "DEFAULT_NVLINK", "LinkSpec",
        "mixed_cluster", "paper_cluster", "single_node",
    ),
})

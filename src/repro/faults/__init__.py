"""Fault layer: deterministic injection, degraded execution, re-planning.

``FaultPlan`` describes deployment faults (device failure, stragglers,
link degradation, transient allocator OOM); the runtime executor
consumes it to produce degraded ground-truth measurements; and
``elastic_replan`` quantifies the paper's "cheap search enables fast
reconfiguration" argument by warm-starting a new search from the
surviving top-k plans after device loss.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "inject": (
        "NoSurvivorsError", "adapt_config", "degrade_cluster",
        "memory_safe_variant", "shrink_cluster", "shrink_cluster_checked",
    ),
    "plan": (
        "DeviceFailure", "FAULT_FORMAT_VERSION", "FaultPlan", "LINK_SCOPES",
        "LinkDegradation", "StragglerSlowdown", "TransientOOM",
        "random_fault_plan",
    ),
    "replan": ("ReplanComparison", "ReplanOutcome", "elastic_replan"),
})

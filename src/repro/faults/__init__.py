"""Fault layer: deterministic injection and degraded execution.

``FaultPlan`` is the executor's in-memory view of deployment faults
(device failure, stragglers, link degradation), derived from a churn
timeline; the runtime executor consumes it to produce degraded
ground-truth measurements, and ``inject`` shrinks and degrades clusters
and adapts plans onto them for the elastic controller.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "inject": (
        "NoSurvivorsError", "adapt_config", "degrade_cluster",
        "memory_safe_variant", "shrink_cluster", "shrink_cluster_checked",
    ),
    "plan": (
        "DeviceFailure", "FaultPlan", "LinkDegradation", "StragglerSlowdown",
    ),
})

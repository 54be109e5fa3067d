"""Fault layer: deterministic injection and degraded execution.

``Membership`` folds churn events against a base cluster into the
surviving cluster, the planner's view of it and ``FaultPlan`` — the
executor's in-memory view of deployment faults (device failure,
stragglers, link degradation), which the runtime executor consumes to
produce degraded ground-truth measurements.  ``inject`` shrinks and
degrades clusters and adapts plans onto them for the elastic
controller.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "inject": (
        "NoSurvivorsError", "adapt_config", "degrade_cluster",
        "memory_safe_variant", "shrink_cluster_checked",
    ),
    "plan": (
        "DeviceFailure", "FaultPlan", "LinkDegradation", "Membership",
        "MembershipView", "StragglerSlowdown",
    ),
})

"""Fault layer: deterministic injection and degraded execution.

Churn events are the one fault vocabulary.  ``Membership`` folds them
against a base cluster into the surviving cluster, the planner's view
of it and ``FaultPlan`` — the fold's end state (the failure log, the
stragglers and link factors in effect) as plain data, which the
runtime executor consumes to produce degraded ground-truth
measurements.  ``inject`` shrinks and degrades clusters and adapts
plans onto them for the elastic controller.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "inject": (
        "NoSurvivorsError", "adapt_config", "degrade_cluster",
        "memory_safe_variant", "shrink_cluster_checked",
    ),
    "plan": ("FaultPlan", "Membership", "MembershipView"),
})

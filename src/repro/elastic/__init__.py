"""Elastic training under churn: seeded timelines + rebalancing.

The paper's cheap search makes *continuous* re-planning affordable;
this package exercises that claim.  :mod:`~repro.elastic.timeline`
defines seeded, replayable cluster-membership churn, and
:mod:`~repro.elastic.controller` drives a plan through it — deciding
per event batch whether the estimated throughput loss justifies a
bounded warm re-search, and always holding a servable plan.
"""

from ..exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "controller": (
        "ControllerPolicy", "ControllerRun", "Decision", "ElasticController",
    ),
    "timeline": (
        "CHURN_FORMAT_VERSION", "ChurnEvent", "ChurnTimeline", "EVENT_KINDS",
        "LINK_SCOPES", "random_churn_timeline",
    ),
})

"""Bottleneck identification (Heuristic-1, §3.1).

Safety first: when any stage is predicted out-of-memory, the stage with
the largest memory consumption is the bottleneck (an OOM configuration
cannot run at all).  Otherwise the stage with the longest per-iteration
execution time dominates pipeline throughput and is the bottleneck.
Secondary bottlenecks (tried when the first yields no improvement,
§3.2.3) follow the same ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..perfmodel.report import RESOURCES, PerfReport


@dataclass(frozen=True)
class Bottleneck:
    """One bottleneck target: a stage plus its resource priority order.

    ``resources`` is ordered by consumption proportion (Heuristic-2's
    "highest-consumption first" tie-break), except that an OOM stage
    always lists memory first.
    """

    stage: int
    resources: tuple
    is_oom: bool

    @property
    def primary_resource(self) -> str:
        return self.resources[0]


def rank_bottlenecks(report: PerfReport) -> List[Bottleneck]:
    """All stages ordered from most to least bottleneck-y (Heuristic-1).

    The first element is *the* bottleneck; the rest are the secondary
    bottlenecks explored when multi-hop search fails on it.
    """
    return [
        _bottleneck_for_stage(report, int(stage))
        for stage in _order(report)
    ]


def identify_bottleneck(report: PerfReport) -> Bottleneck:
    """The single top-priority bottleneck: ``rank_bottlenecks(report)[0]``,
    without building the others."""
    return _bottleneck_for_stage(report, int(_order(report)[0]))


def _order(report: PerfReport) -> np.ndarray:
    """Stage indices from most to least bottleneck-y."""
    if report.is_oom:
        return np.argsort(report.peak_memories)[::-1]
    return np.argsort(report.stage_times())[::-1]


def _bottleneck_for_stage(report: PerfReport, stage: int) -> Bottleneck:
    oom = stage in report.oom_stages
    proportions = report.resource_proportions(stage)
    ordered = sorted(
        RESOURCES, key=lambda name: proportions[name], reverse=True
    )
    if oom:
        # Safety first: resolve the crash before chasing time.
        ordered.remove("memory")
        ordered.insert(0, "memory")
    return Bottleneck(stage=stage, resources=tuple(ordered), is_oom=oom)

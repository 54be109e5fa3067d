"""Megatron-LM baseline: global-setting grid search.

Megatron-LM exposes five global knobs — tensor degree ``tp``, data
degree ``dp``, pipeline stages ``pp``, per-GPU microbatch size ``b``,
and a model-wide recomputation flag — shared by every layer.  It has no
automated search, so (exactly as §5 of the paper does) we grid-search
those knobs with Aceso's performance model and keep the best feasible
plan.  The expressiveness gaps vs. Aceso are structural: even stages
only, one (tp, dp) everywhere, all-or-nothing recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.initializer import split_ops_balanced
from ..parallel.stage import powers_of_two
from ..perfmodel.model import PerfModel
from .partition import uniform_config


@dataclass(frozen=True)
class MegatronPlan:
    """One grid point."""

    tp: int
    dp: int
    pp: int
    microbatch_per_gpu: int
    recompute: bool

    @property
    def aggregated_microbatch(self) -> int:
        return self.microbatch_per_gpu * self.dp


@dataclass
class GridSearchResult:
    """Best plan plus the full evaluated grid."""

    best_config: Optional[ParallelConfig]
    best_plan: Optional[MegatronPlan]
    best_objective: float
    evaluated: int
    table: List[Tuple[MegatronPlan, float]] = field(default_factory=list)


def plan_to_config(
    plan: MegatronPlan, graph: OpGraph, cluster: ClusterSpec
) -> Optional[ParallelConfig]:
    """Materialize a Megatron plan as a :class:`ParallelConfig`.

    Stages split the op chain into ``pp`` spans balanced by *op count*
    (Megatron divides by layer count, not profiled cost).
    """
    devices_per_stage = cluster.num_gpus // plan.pp
    if devices_per_stage * plan.pp != cluster.num_gpus:
        return None
    if plan.tp * plan.dp != devices_per_stage:
        return None
    if plan.pp > graph.num_ops:
        return None
    boundaries = split_ops_balanced(
        graph, plan.pp, weights=np.ones(graph.num_ops)
    )
    spans = [
        (boundaries[i], boundaries[i + 1], devices_per_stage, plan.tp)
        for i in range(plan.pp)
    ]
    return uniform_config(
        graph, cluster, spans, plan.aggregated_microbatch, plan.recompute
    )


def enumerate_plans(
    graph: OpGraph,
    cluster: ClusterSpec,
    *,
    max_tp: int = 8,
    max_microbatch_per_gpu: int = 16,
) -> List[MegatronPlan]:
    """All grid points with power-of-two degrees filling the cluster."""
    gpus = cluster.num_gpus
    batch = graph.global_batch_size
    plans = []
    for pp in powers_of_two(min(gpus, graph.num_ops)):
        per_stage = gpus // pp
        if per_stage * pp != gpus:
            continue
        for tp in powers_of_two(min(per_stage, max_tp)):
            dp = per_stage // tp
            for b in powers_of_two(min(max_microbatch_per_gpu, batch // dp)):
                if batch % (b * dp) == 0:
                    plans.extend(
                        MegatronPlan(tp, dp, pp, b, recompute)
                        for recompute in (False, True)
                    )
    return plans


def megatron_grid_search(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    *,
    max_tp: int = 8,
    max_microbatch_per_gpu: int = 16,
) -> GridSearchResult:
    """Evaluate the full grid; return the best feasible plan."""
    result = GridSearchResult(
        best_config=None,
        best_plan=None,
        best_objective=float("inf"),
        evaluated=0,
    )
    for plan in enumerate_plans(
        graph,
        cluster,
        max_tp=max_tp,
        max_microbatch_per_gpu=max_microbatch_per_gpu,
    ):
        config = plan_to_config(plan, graph, cluster)
        if config is None:
            continue
        objective = perf_model.objective(config)
        result.evaluated += 1
        result.table.append((plan, objective))
        if objective < result.best_objective:
            result.best_objective = objective
            result.best_config = config
            result.best_plan = plan
    return result

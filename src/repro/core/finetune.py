"""Op-level fine-tuning (§4.2).

After each search iteration Aceso optionally refines configurations at
operator granularity:

* **Flexible tp/dp combinations inside a stage** — raise or lower the
  tensor degree of a *suffix* of the stage's ops (suffixes minimize the
  number of layout changes, each of which costs a reshard collective).
* **Flexible tensor-parallel dimension** — flip the partition option of
  an op kind (row/column for matmul, in/out-channel for conv) where a
  better kernel efficiency exists.

Both passes keep a change only when the performance model scores it
strictly better.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..perfmodel.model import PerfModel
from .arguments import tune_recompute


def finetune(
    config: ParallelConfig,
    graph: OpGraph,
    perf_model: PerfModel,
    *,
    max_split_points: int = 8,
    stages: Optional[List[int]] = None,
) -> ParallelConfig:
    """Run both fine-tuning passes; returns the best config found."""
    best = config
    best_objective = perf_model.objective(config)
    target_stages = (
        stages if stages is not None else list(range(config.num_stages))
    )
    for stage_index in target_stages:
        best, best_objective = _tune_suffix_parallel(
            best, best_objective, stage_index, perf_model, max_split_points
        )
        best, best_objective = _tune_partition_dims(
            best, best_objective, stage_index, graph, perf_model
        )
    return best


def _split_points(num_ops: int, max_points: int) -> List[int]:
    """Evenly sampled suffix start positions within a stage."""
    if num_ops <= 1:
        return []
    count = min(max_points, num_ops)
    return sorted(
        {int(round(x)) for x in np.linspace(0, num_ops - 1, count)}
    )


def _tune_suffix_parallel(
    config: ParallelConfig,
    best_objective: float,
    stage_index: int,
    perf_model: PerfModel,
    max_split_points: int,
):
    """Try doubling/halving tp for each sampled suffix of the stage."""
    stage = config.stages[stage_index]
    best = config
    for split in _split_points(stage.num_ops, max_split_points):
        for toward_tp in (True, False):
            candidate = config.mutated_copy([stage_index])
            target = candidate.stages[stage_index]
            suffix = slice(split, target.num_ops)
            if toward_tp:
                movable = target.dp[suffix] >= 2
                if not np.any(movable):
                    continue
                tp_view = target.tp[suffix]
                dp_view = target.dp[suffix]
                tp_view[movable] *= 2
                dp_view[movable] //= 2
            else:
                movable = target.tp[suffix] >= 2
                if not np.any(movable):
                    continue
                dp_new = target.dp[suffix][movable] * 2
                if np.any(candidate.microbatch_size % dp_new):
                    continue
                tp_view = target.tp[suffix]
                dp_view = target.dp[suffix]
                dp_view[movable] = dp_new
                tp_view[movable] //= 2
            candidate = tune_recompute(perf_model, candidate, [stage_index])
            objective = perf_model.objective(candidate)
            if objective < best_objective:
                best, best_objective = candidate, objective
    return best, best_objective


def _tune_partition_dims(
    config: ParallelConfig,
    best_objective: float,
    stage_index: int,
    graph: OpGraph,
    perf_model: PerfModel,
):
    """Flip partition dimension per op kind within the stage."""
    stage = config.stages[stage_index]
    arrays = graph.arrays
    sl = slice(stage.start, stage.end)
    multi_option = arrays.num_options[sl] > 1
    split = stage.tp > 1
    flippable = multi_option & split
    if not np.any(flippable):
        return config, best_objective
    kinds = arrays.kind_code[sl]  # numbered in sorted kind-name order
    best = config
    for kind in np.flatnonzero(np.bincount(kinds[flippable])):
        mask = flippable & (kinds == kind)
        for new_dim in (1, 0):
            candidate = config.mutated_copy([stage_index])
            target = candidate.stages[stage_index]
            if np.all(target.tp_dim[mask] == new_dim):
                continue
            target.tp_dim[mask] = new_dim
            objective = perf_model.objective(candidate)
            if objective < best_objective:
                best, best_objective = candidate, objective
    return best, best_objective

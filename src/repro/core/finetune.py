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
    """Try doubling/halving tp for each sampled suffix of the stage; a
    step no op can take, or that breaks dp divisibility, clones nothing."""
    stage = config.stages[stage_index]
    best = config
    for split in _split_points(stage.num_ops, max_split_points):
        suffix = slice(split, stage.num_ops)
        tp, dp = stage.tp[suffix], stage.dp[suffix]
        for toward_tp in (True, False):
            movable = (dp if toward_tp else tp) >= 2
            if not np.any(movable):
                continue
            if toward_tp:
                tp_new, dp_new = tp[movable] * 2, dp[movable] // 2
            else:
                tp_new, dp_new = tp[movable] // 2, dp[movable] * 2
                if np.any(config.microbatch_size % dp_new):
                    continue
            candidate = config.mutated_copy([stage_index])
            target = candidate.stages[stage_index]
            target.tp[suffix][movable] = tp_new
            target.dp[suffix][movable] = dp_new
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
            if np.all(stage.tp_dim[mask] == new_dim):
                continue
            candidate = config.mutated_copy([stage_index])
            candidate.stages[stage_index].tp_dim[mask] = new_dim
            objective = perf_model.objective(candidate)
            if objective < best_objective:
                best, best_objective = candidate, objective
    return best, best_objective

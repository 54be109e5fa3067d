"""Explicit dynamic-programming solver (the Exp#4 comparison point).

A mathematical-programming search over the same mechanism space as
Aceso: optimal contiguous op partitions over power-of-two device
meshes, per-stage uniform (tp, dp), global microbatch size, and
per-stage all-or-nothing recomputation — with the same pruning the
paper applied (bounded microbatch sizes, bounded tp).  The solver
reports the number of *complete configurations its recurrence covers*
(the path count through the DP table), which is the "explored
configurations" metric Figure 10a compares against Aceso's estimate
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.stage import powers_of_two
from ..perfmodel.model import PerfModel
from .partition import (
    IN_FLIGHT,
    SpanCoster,
    default_microbatches,
    uniform_config,
)


@dataclass
class DPSolverOptions:
    """Pruning knobs (mirrors the paper's DP implementation notes)."""

    microbatch_sizes: Optional[List[int]] = None
    max_tp: int = 8
    max_stages: int = 8


@dataclass
class DPSolverResult:
    """Solver outcome plus exploration accounting."""

    best_config: Optional[ParallelConfig]
    best_objective: float
    explored_configs: float
    table_evaluations: int
    wall_seconds: float


def dp_solve(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    *,
    options: Optional[DPSolverOptions] = None,
) -> DPSolverResult:
    """Run the DP over every (microbatch, recompute) combination."""
    opts = options or DPSolverOptions()
    start_time = time.monotonic()
    gpus = cluster.num_gpus
    tp_values = powers_of_two(min(opts.max_tp, gpus))
    microbatches = opts.microbatch_sizes or default_microbatches(graph, gpus)

    best_config = None
    best_objective = float("inf")
    explored = 0.0
    evaluations = 0
    for mbs in microbatches:
        for recompute in (False, True):
            coster = SpanCoster(graph, perf_model, mbs, recompute, tp_values)
            outcome = _run_dp(coster, graph.num_ops, gpus, opts.max_stages)
            if outcome is None:
                continue
            stages, paths, evals = outcome
            explored += paths
            evaluations += evals
            config = uniform_config(graph, cluster, stages, mbs, recompute)
            if config is None:
                continue
            objective = perf_model.objective(config)
            if objective < best_objective:
                best_objective = objective
                best_config = config
    return DPSolverResult(
        best_config=best_config,
        best_objective=best_objective,
        explored_configs=explored,
        table_evaluations=evaluations,
        wall_seconds=time.monotonic() - start_time,
    )


def _run_dp(coster: SpanCoster, num_ops: int, gpus: int, max_stages: int):
    """DP over (ops consumed, gpus consumed, stages used).

    Returns the best stage list as (lo, hi, devices, tp) op spans, the
    number of complete configurations the recurrence covered (path
    count), and table evaluations.
    """
    INF = float("inf")
    gpu_options = powers_of_two(gpus)
    best: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 0.0}
    paths: Dict[Tuple[int, int, int], float] = {(0, 0, 0): 1.0}
    parent: Dict[Tuple[int, int, int], tuple] = {}
    evaluations = 0
    for i in range(num_ops):
        for g_used in range(gpus + 1):
            for s_used in range(max_stages):
                state = (i, g_used, s_used)
                if state not in best:
                    continue
                base = best[state]
                base_paths = paths[state]
                for j in range(i + 1, num_ops + 1):
                    for devices in gpu_options:
                        if g_used + devices > gpus:
                            break
                        branch_count = 0
                        branch_best = INF
                        branch_tp = None
                        for tp in coster.tp_values:
                            if tp > devices:
                                break
                            # A per-GPU share must be whole samples.
                            cost = (
                                INF if coster.microbatch % (devices // tp)
                                else coster.stage_time(
                                    i, j, devices, tp, IN_FLIGHT
                                )
                            )
                            evaluations += 1
                            if cost < INF:
                                branch_count += 1
                            if cost < branch_best:
                                branch_best = cost
                                branch_tp = tp
                        if branch_tp is None:
                            continue
                        nxt = (j, g_used + devices, s_used + 1)
                        candidate = max(base, branch_best)
                        if candidate < best.get(nxt, INF):
                            best[nxt] = candidate
                            parent[nxt] = (state, (i, j, devices, branch_tp))
                        paths[nxt] = paths.get(nxt, 0.0) + (
                            base_paths * branch_count
                        )
    goal_states = [
        s for s in best
        if s[0] == num_ops and s[1] == gpus and best[s] < INF
    ]
    if not goal_states:
        return None
    goal = min(goal_states, key=lambda s: best[s])
    total_paths = sum(
        paths[s] for s in paths if s[0] == num_ops and s[1] == gpus
    )
    stages = []
    state = goal
    while state != (0, 0, 0):
        state, key = parent[state]
        stages.append(key)
    stages.reverse()
    return stages, total_paths, evaluations

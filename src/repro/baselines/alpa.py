"""Alpa-style baseline: two-level mathematical-programming search.

Reproduces Alpa's structure as the paper describes it (§2.2, §5.1):

* operators are first fused into ``l`` *layer groups* (a grid-searched
  hyper-parameter, like Alpa's manual ``l``);
* an **inter-op** dynamic program partitions the groups into pipeline
  stages over power-of-two device meshes, minimizing the slowest
  stage;
* an **intra-op** solver picks each stage's (dp, tp) — using Alpa's
  documented simplification: operator *compute-time differences are
  ignored* and only communication cost is compared, which is exactly
  the gap §5.1 credits for part of Aceso's wins;
* microbatch size and model-wide recomputation are grid-searched
  outside the solver (Alpa sets them manually).

**Search-cost substitution**: real Alpa spends its hours repeatedly
compiling and profiling XLA stage candidates.  Without GPUs or XLA we
charge a fixed simulated cost per unique (span, mesh, tp) candidate —
``per_compile_seconds`` — and report the total as the baseline's search
cost (Fig. 8/9).  The count of candidates is measured, not modelled.
Alpa's reported compilation failure beyond 64 layers (Exp#3) is
emulated by :class:`AlpaCompilationError` at the same threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.stage import powers_of_two
from ..perfmodel.model import PerfModel
from .partition import (
    IN_FLIGHT,
    SpanCoster,
    default_microbatches,
    prefix_sums,
    uniform_config,
)


class AlpaCompilationError(RuntimeError):
    """Raised when the emulated XLA compilation limit is exceeded."""


@dataclass
class AlpaOptions:
    """Knobs of the baseline search."""

    layer_group_counts: Optional[List[int]] = None
    microbatch_sizes: Optional[List[int]] = None
    max_tp: int = 8
    per_compile_seconds: float = 0.09
    max_supported_layers: int = 64
    ilp_seconds_per_candidate: float = 1e-4


@dataclass
class AlpaResult:
    """Best plan found plus the simulated search-cost accounting."""

    best_config: Optional[ParallelConfig]
    best_objective: float
    compilations: int
    simulated_search_seconds: float
    evaluated_plans: int
    table: List[Tuple[str, float]] = field(default_factory=list)


def _group_layers(graph: OpGraph, num_groups: int) -> List[Tuple[int, int]]:
    """Fuse the graph's layer spans into ``num_groups`` op spans."""
    spans = graph.layer_spans or [(i, i + 1) for i in range(graph.num_ops)]
    # Extend the first/last spans to absorb pre/post ops (embeddings,
    # heads, losses) exactly like Alpa's layer clustering does.
    spans = list(spans)
    spans[0] = (0, spans[0][1])
    spans[-1] = (spans[-1][0], graph.num_ops)
    num_groups = max(1, min(num_groups, len(spans)))
    edges = np.linspace(0, len(spans), num_groups + 1).astype(int)
    groups = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            groups.append((spans[a][0], spans[b - 1][1]))
    # Make the groups contiguous and covering.
    fixed = []
    cursor = 0
    for start, end in groups:
        fixed.append((cursor, max(end, cursor + 1)))
        cursor = fixed[-1][1]
    fixed[-1] = (fixed[-1][0], graph.num_ops)
    return fixed


class _StageCoster(SpanCoster):
    """A :class:`SpanCoster` plus Alpa's comm-only intra-op pick."""

    def __init__(
        self,
        graph: OpGraph,
        perf_model: PerfModel,
        microbatch: int,
        recompute: bool,
        max_tp: int,
    ) -> None:
        levels = perf_model.profiled.num_tp_levels
        super().__init__(
            graph, perf_model, microbatch, recompute,
            [1 << lv for lv in range(levels) if (1 << lv) <= max_tp],
        )
        self.num_microbatches = graph.global_batch_size // microbatch
        arrays = graph.arrays
        elem = graph.elem_bytes
        self.comm_bytes = prefix_sums(
            (arrays.fwd_comm_numel[:, 0] + arrays.bwd_comm_numel[:, 0]) * elem
        )
        self.param_bytes = prefix_sums(arrays.params * elem)
        self._ar_ibw = perf_model._ar_ibw

    def choose_tp(self, lo: int, hi: int, devices: int) -> int:
        """Alpa's simplified intra-op pick for ops ``[lo, hi)``:
        communication only.

        Compute-time differences between partition choices are treated
        as zero (the paper's description of Alpa's intra-stage
        estimator), so the chooser minimizes tp-collective traffic plus
        gradient-sync cost alone.
        """
        best_tp, best_comm = 1, float("inf")
        for tp in self.tp_values:
            if tp > devices:
                break
            dp = devices // tp
            samples = self.microbatch / dp
            comm = 0.0
            if tp > 1:
                lv = tp.bit_length() - 1
                traffic = (
                    (self.comm_bytes[hi] - self.comm_bytes[lo])
                    * samples
                    * self.num_microbatches  # per-iteration traffic
                )
                comm += traffic * self._ar_ibw[lv]
            if dp > 1:
                lv = dp.bit_length() - 1
                grads = (self.param_bytes[hi] - self.param_bytes[lo]) / tp
                comm += grads * self._ar_ibw[lv]
            if comm < best_comm:
                best_tp, best_comm = tp, comm
        return best_tp


def _inter_op_dp(
    coster: _StageCoster,
    groups: List[Tuple[int, int]],
    num_gpus: int,
    compiled: Dict[Tuple[int, int, int, int], float],
) -> Optional[List[Tuple[int, int, int, int]]]:
    """DP over (groups consumed, gpus consumed).

    Minimizes the 1F1B pipeline objective
    ``sum_i t_i + (N - 1) * max_i t_i`` that Alpa's inter-op level
    optimizes.  The max term makes the problem non-Markovian, so the
    state keeps the best (total, sum, max) triple — a standard
    approximation of Alpa's t_max enumeration.

    The memory filter holds a stage to at most :data:`IN_FLIGHT`
    microbatches (the final stage index is unknown inside the DP),
    the kind of bound real Alpa's memory constraint applies per
    submesh.  Returns the stage list as (lo, hi, devices, tp) op spans.
    """
    INF = float("inf")
    num_mb = coster.num_microbatches
    in_flight = min(IN_FLIGHT, num_mb)
    num_groups = len(groups)
    gpu_options = powers_of_two(num_gpus)
    # state -> (total, sum, max)
    best = {(0, 0): (0.0, 0.0, 0.0)}
    parent = {}
    for i in range(num_groups):
        for used in list(best):
            if used[0] != i:
                continue
            _, base_sum, base_max = best[used]
            for j in range(i + 1, num_groups + 1):
                lo, hi = groups[i][0], groups[j - 1][1]
                for devices in gpu_options:
                    if used[1] + devices > num_gpus:
                        break
                    tp = coster.choose_tp(lo, hi, devices)
                    key = (lo, hi, devices, tp)
                    if key not in compiled:
                        compiled[key] = coster.stage_time(
                            lo, hi, devices, tp, in_flight
                        )
                    t = compiled[key]
                    if t == INF:
                        continue
                    new_sum = base_sum + t
                    new_max = max(base_max, t)
                    total = new_sum + (num_mb - 1) * new_max
                    state = (j, used[1] + devices)
                    if total < best.get(state, (INF,))[0]:
                        best[state] = (total, new_sum, new_max)
                        parent[state] = (used, key)
    goal = (num_groups, num_gpus)
    if goal not in best:
        return None
    stages = []
    state = goal
    while state != (0, 0):
        state, key = parent[state]
        stages.append(key)
    stages.reverse()
    return stages


def alpa_search(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    *,
    options: Optional[AlpaOptions] = None,
) -> AlpaResult:
    """Run the full two-level search over the (l, b, recompute) grid."""
    opts = options or AlpaOptions()
    num_layers = max(1, graph.num_layers)
    if num_layers > opts.max_supported_layers:
        raise AlpaCompilationError(
            f"emulated XLA compilation failure: {num_layers} layers exceed "
            f"the supported {opts.max_supported_layers} (Exp#3 behaviour)"
        )
    group_counts = opts.layer_group_counts or sorted(
        {
            max(1, num_layers),
            max(1, num_layers // 2),
            max(1, num_layers // 4),
        }
    )
    microbatches = opts.microbatch_sizes or default_microbatches(
        graph, cluster.num_gpus
    )

    result = AlpaResult(
        best_config=None,
        best_objective=float("inf"),
        compilations=0,
        simulated_search_seconds=0.0,
        evaluated_plans=0,
    )
    for l in group_counts:
        groups = _group_layers(graph, l)
        for mbs in microbatches:
            for recompute in (False, True):
                compiled: Dict[Tuple[int, int, int, int], float] = {}
                coster = _StageCoster(
                    graph, perf_model, mbs, recompute, opts.max_tp
                )
                stages = _inter_op_dp(
                    coster, groups, cluster.num_gpus, compiled
                )
                result.compilations += len(compiled)
                result.simulated_search_seconds += (
                    len(compiled) * opts.per_compile_seconds
                    + len(compiled) * opts.ilp_seconds_per_candidate
                )
                if stages is None:
                    continue
                config = uniform_config(
                    graph, cluster, stages, mbs, recompute
                )
                if config is None:
                    continue
                objective = perf_model.objective(config)
                result.evaluated_plans += 1
                result.table.append(
                    (f"l={l} mbs={mbs} rc={recompute}", objective)
                )
                if objective < result.best_objective:
                    result.best_objective = objective
                    result.best_config = config
    return result


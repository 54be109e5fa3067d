"""The partition substrate the baseline planners share.

Megatron, Alpa and the DP solver all emit the same plan shape:
contiguous op spans, one (tp, dp) per stage on a power-of-two mesh,
and all-or-nothing recomputation.  They price a span with one
:class:`SpanCoster` and build a plan with one :func:`uniform_config`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.stage import StageConfig, powers_of_two
from ..parallel.validation import is_valid
from ..perfmodel.model import PerfModel

#: Microbatches a stage is assumed to hold in flight when its memory
#: is checked inside a solver, where its final pipeline position (and
#: so its real 1F1B in-flight count) is still unknown.
IN_FLIGHT = 4


def prefix_sums(per_op: np.ndarray) -> np.ndarray:
    """``out[k]`` is the sum of ``per_op[:k]``; a span ``[lo, hi)``
    sums to ``out[hi] - out[lo]``."""
    return np.concatenate([[0.0], np.cumsum(per_op)])


class SpanCoster:
    """Per-op prefix sums that price an op span at one (mbs, recompute).

    Time is fwd+bwd (plus a second forward under recomputation) taken
    linear in the samples a device sees: ``fixed + samples * slope``.
    Memory is the span's weight-and-optimizer state plus the
    activations of ``in_flight`` microbatches; under recomputation a
    stage keeps only its first op's activations.
    """

    def __init__(
        self,
        graph: OpGraph,
        perf_model: PerfModel,
        microbatch: int,
        recompute: bool,
        tp_values: Sequence[int],
    ) -> None:
        arrays = graph.arrays
        pg = perf_model.profiled
        elem = graph.elem_bytes
        self.microbatch = microbatch
        self.recompute = recompute
        self.tp_values = list(tp_values)
        self.memory_limit = float(perf_model.memory_limit)
        self.time_fixed = {}
        self.time_slope = {}
        self.state_bytes = {}
        self.act_bytes = {}
        for tp in self.tp_values:
            lv = tp.bit_length() - 1
            fixed = pg.fwd_fixed[:, lv, 0] + pg.bwd_fixed[:, lv, 0]
            slope = pg.fwd_slope[:, lv, 0] + pg.bwd_slope[:, lv, 0]
            if recompute:
                fixed = fixed + pg.fwd_fixed[:, lv, 0]
                slope = slope + pg.fwd_slope[:, lv, 0]
            etp = np.minimum(tp, arrays.max_tp)
            state = (
                arrays.params * (elem + graph.optimizer_bytes_per_param) / etp
            )
            self.time_fixed[tp] = prefix_sums(fixed)
            self.time_slope[tp] = prefix_sums(slope)
            self.state_bytes[tp] = prefix_sums(state)
            self.act_bytes[tp] = prefix_sums(arrays.saved_numel * elem / etp)

    def stage_time(
        self, lo: int, hi: int, devices: int, tp: int, in_flight: int
    ) -> float:
        """Per-microbatch latency of ops ``[lo, hi)`` on ``devices``
        at degree ``tp``, or +inf when the span does not fit in memory."""
        samples = self.microbatch / (devices // tp)
        act = self.act_bytes[tp]
        saved = act[lo + 1] - act[lo] if self.recompute else act[hi] - act[lo]
        state = self.state_bytes[tp][hi] - self.state_bytes[tp][lo]
        if state + saved * samples * in_flight > self.memory_limit:
            return float("inf")
        fixed = self.time_fixed[tp][hi] - self.time_fixed[tp][lo]
        slope = self.time_slope[tp][hi] - self.time_slope[tp][lo]
        return fixed + samples * slope


def uniform_config(
    graph: OpGraph,
    cluster: ClusterSpec,
    spans: Sequence[Tuple[int, int, int, int]],
    microbatch: int,
    recompute: bool,
) -> Optional[ParallelConfig]:
    """The plan whose stages are ``spans`` of ``(lo, hi, devices, tp)``,
    one (tp, dp) and one recompute flag per stage, or None when it is
    invalid (an indivisible microbatch among others)."""
    config = ParallelConfig(
        stages=[
            StageConfig.uniform(lo, hi, devices, tp=tp, recompute=recompute)
            for lo, hi, devices, tp in spans
        ],
        microbatch_size=microbatch,
    )
    return config if is_valid(config, graph, cluster) else None


def default_microbatches(graph: OpGraph, gpus: int) -> List[int]:
    """Power-of-two microbatch sizes up to ``8 * gpus`` that divide the
    global batch."""
    batch = graph.global_batch_size
    return [m for m in powers_of_two(min(batch, 8 * gpus)) if batch % m == 0]

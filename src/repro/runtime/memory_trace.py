"""Memory timelines: activation residency over the 1F1B schedule.

Eq. 1 charges ``act * (p - i)`` per stage; this module *derives* that
bound by replaying the schedule step by step, exposing the full
occupancy curve (useful for debugging plans and for validating the
in-flight model against the actual task order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from .schedule import FORWARD, stage_schedule


def activation_kept_mask(
    recompute: np.ndarray, stage_id: np.ndarray
) -> np.ndarray:
    """Fraction (0/1) of each op's saved activation actually kept.

    Non-recomputed ops keep their full saved activation.  A maximal run
    of recomputed ops inside one stage keeps only its *first* op's
    input (the checkpoint the segment restarts from); the rest keep
    nothing until backward regenerates them.
    """
    if recompute.shape != stage_id.shape:
        raise ValueError("recompute and stage_id must have the same shape")
    # Dropped: recomputed ops whose same-stage predecessor recomputes.
    dropped = np.zeros(recompute.shape, dtype=bool)
    dropped[1:] = (
        recompute[1:] & recompute[:-1] & (stage_id[1:] == stage_id[:-1])
    )
    return (~dropped).astype(np.float64)


@dataclass(frozen=True)
class StageMemoryTimeline:
    """Activation bytes held by one stage after each schedule step."""

    stage: int
    steps: List[str]
    held_bytes: List[float]
    static_bytes: float

    @property
    def peak_bytes(self) -> float:
        """Peak total (static + activation) bytes along the timeline."""
        dynamic = max(self.held_bytes) if self.held_bytes else 0.0
        return self.static_bytes + dynamic

    @property
    def peak_step(self) -> int:
        """Index of the first step reaching the activation peak."""
        if not self.held_bytes:
            return 0
        return int(np.argmax(self.held_bytes))


def stage_memory_timeline(
    graph: OpGraph,
    config: ParallelConfig,
    stage_index: int,
) -> StageMemoryTimeline:
    """Replay one stage's 1F1B schedule, tracking activation residency.

    Forward tasks acquire the stage's per-microbatch kept-activation
    bytes; backward tasks release them.  Static bytes (weights +
    optimizer state) are reported separately.
    """
    if not 0 <= stage_index < config.num_stages:
        raise IndexError(f"stage {stage_index} out of range")
    arrays = graph.arrays
    elem = graph.elem_bytes
    tp, dp, _, rc, stage_id = config.gather_arrays()
    etp = np.minimum(tp, arrays.max_tp)
    samples = config.microbatch_size / dp.astype(np.float64)
    kept = activation_kept_mask(rc, stage_id)
    act_per_op = arrays.saved_numel * samples / etp * elem * kept
    stage = config.stages[stage_index]
    sl = slice(stage.start, stage.end)
    act_per_microbatch = float(act_per_op[sl].sum())
    static = float(
        (arrays.params[sl] * elem / etp[sl]).sum()
        + (arrays.params[sl] * graph.optimizer_bytes_per_param / etp[sl]).sum()
    )

    num_microbatches = config.num_microbatches(graph.global_batch_size)
    held = 0.0
    steps = []
    held_bytes = []
    for task in stage_schedule(stage_index, config.num_stages,
                               num_microbatches):
        if task.direction == FORWARD:
            held += act_per_microbatch
        else:
            held -= act_per_microbatch
        steps.append(f"{task.direction}{task.microbatch}")
        held_bytes.append(held)
    return StageMemoryTimeline(
        stage=stage_index,
        steps=steps,
        held_bytes=held_bytes,
        static_bytes=static,
    )


def all_stage_timelines(
    graph: OpGraph, config: ParallelConfig
) -> List[StageMemoryTimeline]:
    """Timelines for every stage of a configuration."""
    return [
        stage_memory_timeline(graph, config, i)
        for i in range(config.num_stages)
    ]

"""Performance-report dataclasses.

The performance model answers every question the search asks through a
single :class:`PerfReport`: per-stage computation/communication time,
per-stage memory breakdown, OOM flags, and the predicted iteration
time (Eq. 2).  Keeping it one immutable object makes estimates safely
cacheable by configuration signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import gt
from typing import List, NamedTuple, Optional, Sequence, Tuple

#: Resource names used by bottleneck analysis (Table 1 columns).
RESOURCES = ("compute", "communication", "memory")


@dataclass(frozen=True)
class StageCost:
    """Stage-count-invariant cost of one pipeline stage.

    Everything here depends only on the stage's own op span, device
    count, per-op settings, and the microbatch size — never on how many
    other stages exist or where they sit.  That invariance is what lets
    :class:`~repro.perfmodel.PerfModel` memoize these by
    ``(stage.digest(), microbatch_size)`` and reuse them across every
    configuration that contains an identical stage.  The stage-count-
    dependent parts (pipeline p2p transfers, 1F1B in-flight counts,
    Eq. 2 totals) are added during assembly.

    Times are seconds per microbatch except ``dp_sync_time`` (per
    iteration); ``reshard_time`` is the one-way in-stage resharding
    cost (charged once forward, once backward).  ``egress_bytes`` is
    the stage's last-op output size, used to price the p2p transfer to
    whatever stage follows.
    """

    fwd_time: float
    bwd_time: float
    recompute_time: float
    tp_fwd_comm_time: float
    tp_bwd_comm_time: float
    reshard_time: float
    dp_sync_time: float
    weight_bytes: float
    optimizer_bytes: float
    activation_bytes: float
    reserved_bytes: float
    egress_bytes: float


class StageReport(NamedTuple):
    """Predicted resource consumption of one pipeline stage.

    Times are seconds per *iteration* unless suffixed ``_mb`` (per
    microbatch); memory is bytes per device.  A named tuple, so the
    estimator builds one positionally on every assembly.
    """

    fwd_time_mb: float
    bwd_time_mb: float
    recompute_time_mb: float
    tp_comm_time_mb: float
    reshard_time_mb: float
    p2p_time_mb: float
    dp_sync_time: float
    weight_bytes: float
    optimizer_bytes: float
    activation_bytes_mb: float
    in_flight: int
    reserved_bytes: float

    @property
    def compute_time_mb(self) -> float:
        """Pure computation per microbatch (fwd + bwd + recompute)."""
        return self.fwd_time_mb + self.bwd_time_mb + self.recompute_time_mb

    @property
    def comm_time_mb(self) -> float:
        """Communication per microbatch (tp collectives, reshard, p2p)."""
        return self.tp_comm_time_mb + self.reshard_time_mb + self.p2p_time_mb

    @property
    def peak_memory(self) -> float:
        """Predicted peak bytes per device (Eq. 1 + reserve)."""
        return (
            self.weight_bytes
            + self.optimizer_bytes
            + self.activation_bytes_mb * self.in_flight
            + self.reserved_bytes
        )

    def compute_time(self, num_microbatches: int) -> float:
        """Computation seconds per iteration."""
        return self.compute_time_mb * num_microbatches

    def comm_time(self, num_microbatches: int) -> float:
        """Communication seconds per iteration (incl. dp sync)."""
        return self.comm_time_mb * num_microbatches + self.dp_sync_time

    def stage_time(self, num_microbatches: int) -> float:
        """Total busy seconds per iteration for this stage's devices."""
        return (
            self.compute_time(num_microbatches)
            + self.comm_time(num_microbatches)
        )


class Eq1View(NamedTuple):
    """A config's per-stage Eq. 1 peaks, 1F1B in-flight counts and
    memory limits, which recompute tuning carries across its edits."""

    peaks: List[float]
    in_flight: Sequence[int]
    limits: Sequence[float]


@dataclass(frozen=True)
class PerfReport:
    """Predicted performance of a full configuration.

    Construction derives each stage's Eq. 1 peak
    (:attr:`StageReport.peak_memory`) and the OOM verdict once, because
    the search reads them on every candidate.
    """

    stages: Tuple[StageReport, ...]
    num_microbatches: int
    iteration_time: float
    memory_limit: float
    #: Per-stage memory limits on heterogeneous clusters (the minimum
    #: capacity over each stage's occupied devices); ``None`` on a
    #: homogeneous cluster, where ``memory_limit`` bounds every stage.
    stage_limits: Optional[Tuple[float, ...]] = None
    _peaks: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: Whether any stage exceeds its device memory limit.
    is_oom: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        peaks = tuple([s.peak_memory for s in self.stages])
        limits = self.stage_limits or (self.memory_limit,) * len(peaks)
        object.__setattr__(self, "_peaks", peaks)
        object.__setattr__(self, "is_oom", any(map(gt, peaks, limits)))

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def in_flight(self, stage: int) -> int:
        """1F1B in-flight microbatches of one stage (Eq. 1)."""
        return self.stages[stage].in_flight

    @property
    def peak_memories(self) -> List[float]:
        return list(self._peaks)

    def eq1(self) -> Eq1View:
        """This report's :class:`Eq1View`, with its own ``peaks`` list."""
        in_flight = [s.in_flight for s in self.stages]
        limits = self.stage_limits or [self.memory_limit] * len(in_flight)
        return Eq1View(self.peak_memories, in_flight, limits)

    def stage_limit(self, stage: int) -> float:
        """Device memory limit of one stage: its own on a heterogeneous
        cluster, else ``memory_limit``."""
        if self.stage_limits is not None:
            return self.stage_limits[stage]
        return self.memory_limit

    @property
    def oom_stages(self) -> List[int]:
        return [
            i for i, m in enumerate(self._peaks) if m > self.stage_limit(i)
        ]

    @property
    def max_memory(self) -> float:
        return max(self._peaks)

    def stage_times(self) -> List[float]:
        """Per-stage busy time per iteration (bottleneck metric)."""
        return [s.stage_time(self.num_microbatches) for s in self.stages]

    def throughput(self, global_batch_size: int) -> float:
        """Training throughput in samples per second."""
        if self.iteration_time <= 0:
            raise ValueError("iteration_time must be positive")
        return global_batch_size / self.iteration_time

    def resource_consumption(self, stage: int) -> dict:
        """Per-resource consumption of one stage (for Heuristic-2)."""
        s = self.stages[stage]
        return {
            "compute": s.compute_time(self.num_microbatches),
            "communication": s.comm_time(self.num_microbatches),
            "memory": s.peak_memory,
        }

    def resource_proportions(self, stage: int) -> dict:
        """Stage share of each resource across all stages (§3.2.2).

        The paper's "consumption proportion": the stage's consumed
        amount divided by the total consumed across stages.
        """
        totals = {name: 0.0 for name in RESOURCES}
        for i in range(self.num_stages):
            for name, value in self.resource_consumption(i).items():
                totals[name] += value
        own = self.resource_consumption(stage)
        return {
            name: (own[name] / totals[name]) if totals[name] > 0 else 0.0
            for name in RESOURCES
        }


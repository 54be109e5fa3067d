"""Performance-report dataclasses.

The performance model answers every question the search asks through a
single :class:`PerfReport`: per-stage computation/communication time,
per-stage memory breakdown, OOM flags, and the predicted iteration
time (Eq. 2).  Keeping it one immutable object makes estimates safely
cacheable by configuration signature.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class StageReport:
    """Predicted resource consumption of one pipeline stage.

    Times are seconds per *iteration* unless suffixed ``_mb`` (per
    microbatch); memory is bytes per device.
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


#: Values per stage in :attr:`LazyStages.rows`: the float fields of
#: :class:`StageReport` in declaration order, ``reserved_bytes`` last.
STAGE_ROW_WIDTH = 11


class LazyStages:
    """Deferred per-stage report payload for assembled estimates.

    Most estimated reports only ever answer "what is your objective?"
    or "does stage i fit?" before the search discards them, so this
    keeps one flat row of stage values, the (int) in-flight counts, the
    peak memories (computed with :attr:`StageReport.peak_memory`'s
    operand association) and the OOM verdict, and builds
    ``StageReport`` objects on first access.

    A fresh estimate's payload is the one before this: its Eq. 2
    assembly is still pending (see ``repro.perfmodel.model``).  It has
    the same ``in_flight``/``oom``/``peaks()`` surface plus a
    ``resolve()`` returning ``(LazyStages, iteration_time)``.
    """

    __slots__ = ("rows", "in_flight", "peak_list", "oom")

    def __init__(self, rows, in_flight, peaks, oom):
        self.rows = rows
        self.in_flight = in_flight
        self.peak_list = peaks
        self.oom = oom

    def peaks(self) -> List[float]:
        return list(self.peak_list)

    def build(self) -> Tuple[StageReport, ...]:
        new_stage = StageReport.__new__
        rows = self.rows
        starts = range(0, len(rows), STAGE_ROW_WIDTH)
        reports = []
        for k, infl in zip(starts, self.in_flight):
            report = new_stage(StageReport)
            fields = report.__dict__
            (
                fields["fwd_time_mb"],
                fields["bwd_time_mb"],
                fields["recompute_time_mb"],
                fields["tp_comm_time_mb"],
                fields["reshard_time_mb"],
                fields["p2p_time_mb"],
                fields["dp_sync_time"],
                fields["weight_bytes"],
                fields["optimizer_bytes"],
                fields["activation_bytes_mb"],
            ) = rows[k:k + 10]
            fields["in_flight"] = infl
            fields["reserved_bytes"] = rows[k + 10]
            reports.append(report)
        return tuple(reports)


class Eq1View(NamedTuple):
    """A config's per-stage Eq. 1 peaks, 1F1B in-flight counts and
    memory limits, which recompute tuning carries across its edits."""

    peaks: List[float]
    in_flight: Sequence[int]
    limits: Sequence[float]


@dataclass(frozen=True)
class PerfReport:
    """Predicted performance of a full configuration.

    Instances built directly carry their ``stages`` tuple; the
    estimator's instances defer both ``iteration_time`` and ``stages``
    behind a pending-assembly payload (see :func:`lazy_perf_report`),
    which runs the Eq. 2 assembly when either is first read and leaves
    a :class:`LazyStages` that materializes ``stages`` on access.  Equality, hashing, pickling, and every property read
    through the same field values either way.
    """

    stages: Tuple[StageReport, ...]
    num_microbatches: int
    iteration_time: float
    memory_limit: float
    #: Per-stage memory limits on heterogeneous clusters (the minimum
    #: capacity over each stage's occupied devices); ``None`` on a
    #: homogeneous cluster, where ``memory_limit`` bounds every stage.
    stage_limits: Optional[Tuple[float, ...]] = None

    def __getattr__(self, name: str):
        # Only ever reached when normal lookup fails, i.e. for the
        # not-yet-assembled ``iteration_time`` or the not-yet-built
        # ``stages`` of a lazy instance.
        fields = self.__dict__
        payload = fields.get("_lazy")
        if payload is None or name not in ("stages", "iteration_time"):
            raise AttributeError(name)
        if "iteration_time" not in fields:
            payload, fields["iteration_time"] = payload.resolve()
            fields["_lazy"] = payload
            if name == "iteration_time":
                return fields["iteration_time"]
        del fields["_lazy"]
        stages = fields["stages"] = payload.build()
        return stages

    def __getstate__(self) -> dict:
        # Canonical field order regardless of lazy/eager construction
        # history, so identical reports pickle to identical bytes.
        return {
            "stages": self.stages,
            "num_microbatches": self.num_microbatches,
            "iteration_time": self.iteration_time,
            "memory_limit": self.memory_limit,
            "stage_limits": self.stage_limits,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def num_stages(self) -> int:
        payload = self.__dict__.get("_lazy")
        if payload is not None:
            return len(payload.in_flight)
        return len(self.stages)

    def in_flight(self, stage: int) -> int:
        """1F1B in-flight microbatches of one stage (Eq. 1)."""
        payload = self.__dict__.get("_lazy")
        if payload is not None:
            return payload.in_flight[stage]
        return self.stages[stage].in_flight

    @property
    def peak_memories(self) -> List[float]:
        payload = self.__dict__.get("_lazy")
        if payload is not None:
            return payload.peaks()
        return [s.peak_memory for s in self.stages]

    def eq1(self) -> Eq1View:
        """This report's :class:`Eq1View`, with its own ``peaks`` list."""
        peaks = self.peak_memories
        in_flight = [self.in_flight(i) for i in range(len(peaks))]
        limits = self.stage_limits or [self.memory_limit] * len(peaks)
        return Eq1View(peaks, in_flight, limits)

    @property
    def is_oom(self) -> bool:
        """Whether any stage exceeds its device memory limit."""
        payload = self.__dict__.get("_lazy")
        if payload is not None:
            return payload.oom
        if self.stage_limits is not None:
            return any(
                m > limit
                for m, limit in zip(self.peak_memories, self.stage_limits)
            )
        return any(m > self.memory_limit for m in self.peak_memories)

    def stage_limit(self, stage: int) -> float:
        """Device memory limit of one stage: its own on a heterogeneous
        cluster, else ``memory_limit``."""
        if self.stage_limits is not None:
            return self.stage_limits[stage]
        return self.memory_limit

    @property
    def oom_stages(self) -> List[int]:
        return [
            i for i, m in enumerate(self.peak_memories)
            if m > self.stage_limit(i)
        ]

    @property
    def max_memory(self) -> float:
        return max(self.peak_memories)

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


def lazy_perf_report(
    payload,
    num_microbatches: int,
    memory_limit: float,
    stage_limits: Optional[Tuple[float, ...]] = None,
) -> PerfReport:
    """Construct a :class:`PerfReport` whose Eq. 2 assembly is pending.

    Bypasses the dataclass ``__init__`` so the ``iteration_time`` and
    ``stages`` slots stay unset until one is first read (at which point
    ``__getattr__`` resolves ``payload``, a pending-assembly payload
    with the :class:`LazyStages` surface plus ``resolve()``).
    """
    report = PerfReport.__new__(PerfReport)
    fields = report.__dict__
    fields["_lazy"] = payload
    fields["num_microbatches"] = num_microbatches
    fields["memory_limit"] = memory_limit
    fields["stage_limits"] = stage_limits
    return report

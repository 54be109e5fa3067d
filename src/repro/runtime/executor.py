"""Ground-truth configuration executor.

``Executor.run`` is this reproduction's substitute for launching a
training job on the V100 cluster: it derives per-stage task durations
from the *true* cost functions (no profiling fit), perturbs them with
seeded execution noise and a systematic framework overhead, resolves
the 1F1B dependency graph with the discrete-event simulator, and
measures memory with the caching-allocator model.  The performance
model never sees any of this, which is what gives the prediction-
accuracy experiments (Exp#8/9) their meaning.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..cluster.collectives import CollectiveCostModel
from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..telemetry import DEBUG, WARNING, get_bus
from ..telemetry.events import (
    FAULTS_DEVICE_FAILURE,
    FAULTS_STRAGGLER,
    RUNTIME_RUN,
    RUNTIME_TASK,
)
from .allocator import replay_transients
from .memory_trace import activation_kept_mask
from .schedule import max_in_flight
from .simulator import TaskRecord, simulate_pipeline

#: Real runs carry scheduling/launch overheads the analytic model
#: ignores; the paper's model under-predicts slightly for the same
#: reason.
FRAMEWORK_OVERHEAD = 0.03

#: Frameworks reuse and release activation buffers (in-place ops,
#: shared views) that a per-op sum counts twice.  The planner — like
#: the paper's — conservatively sums per-op saved tensors, so actual
#: live activation bytes land below the predicted figure by roughly
#: this factor.
ACTIVATION_SHARING = 0.88


@dataclass(frozen=True)
class ExecutionResult:
    """Measurements from one simulated deployment.

    The fault-related fields default to a healthy run: ``completed``
    flips to False when a :class:`~repro.faults.FaultPlan` device
    failure halts the iteration (``failure_time`` / ``failed_device``
    then say when and where), and ``degraded`` marks measurements taken
    under stragglers or link degradation.
    """

    iteration_time: float
    stage_peak_memory: List[float]
    stage_busy: List[float]
    bubble_fraction: float
    oom: bool
    memory_limit: float
    completed: bool = True
    degraded: bool = False
    failure_time: Optional[float] = None
    failed_device: Optional[int] = None
    tasks_completed: int = 0
    tasks_total: int = 0
    #: Per-task timeline (populated when the run recorded a trace);
    #: feed to :func:`repro.telemetry.chrome_trace_from_tasks`.
    tasks: Tuple[TaskRecord, ...] = ()

    @property
    def max_memory(self) -> float:
        return max(self.stage_peak_memory)

    def throughput(self, global_batch_size: int) -> float:
        """Samples per second (0 when the run OOMs or never finishes)."""
        if self.oom or not self.completed or self.iteration_time <= 0:
            return 0.0
        return global_batch_size / self.iteration_time


class Executor:
    """Deploy-and-measure oracle for parallel configurations."""

    def __init__(
        self,
        graph: OpGraph,
        cluster: ClusterSpec,
        *,
        seed: int = 0,
        noise: float = 0.02,
        schedule_style: str = None,
    ) -> None:
        from .schedule import ONE_F_ONE_B, SCHEDULE_STYLES

        if noise < 0:
            raise ValueError("noise must be non-negative")
        style = schedule_style or ONE_F_ONE_B
        if style not in SCHEDULE_STYLES:
            raise ValueError(
                f"unknown schedule style {style!r}; "
                f"choose from {SCHEDULE_STYLES}"
            )
        self.graph = graph
        self.cluster = cluster
        self.seed = seed
        self.noise = noise
        self.schedule_style = style
        self.collectives = CollectiveCostModel(cluster)

    # ------------------------------------------------------------------
    def run(
        self,
        config: ParallelConfig,
        fault_plan=None,
        *,
        record_trace: Optional[bool] = None,
    ) -> ExecutionResult:
        """Execute one training iteration of ``config``.

        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
        deterministic deployment faults: straggler devices slow their
        stage, link degradations stretch every transfer priced on the
        affected link class, and a device failure halts the iteration
        mid-flight.

        ``record_trace`` keeps the per-task 1F1B timeline on the
        result (and emits it as ``runtime.task`` telemetry events);
        the default records exactly when the telemetry bus has sinks
        attached, so plain runs pay nothing.
        """
        from ..profiling import cost

        bus = get_bus()
        if record_trace is None:
            record_trace = bus.active
        graph, cluster = self.graph, self.cluster
        plan = fault_plan
        if plan is not None and plan.is_empty:
            plan = None
        collectives = self.collectives
        degraded = False
        if plan is not None:
            from ..faults.inject import degrade_cluster

            links = dict(plan.link_factors)
            faulty_cluster = degrade_cluster(
                cluster, links.get("intra", 1.0), links.get("inter", 1.0)
            )
            if faulty_cluster is not cluster:
                collectives = CollectiveCostModel(faulty_cluster)
                degraded = True
        elem = graph.elem_bytes
        device = cluster.device
        num_stages = config.num_stages
        num_mb = config.num_microbatches(graph.global_batch_size)
        tp, dp, tp_dim, rc, stage_id = config.gather_arrays()
        arrays = graph.arrays
        etp = np.minimum(tp, arrays.max_tp)
        samples = config.microbatch_size / dp.astype(np.float64)

        fwd_op = np.empty(graph.num_ops)
        bwd_op = np.empty(graph.num_ops)
        for i, op in enumerate(graph.ops):
            fwd_op[i] = cost.op_fwd_time(
                op, device, graph.precision, samples[i], int(tp[i]),
                int(tp_dim[i]),
            )
            bwd_op[i] = cost.op_bwd_time(
                op, device, graph.precision, samples[i], int(tp[i]),
                int(tp_dim[i]),
            )

        # True collective costs for tp groups, resharding, dp sync.
        tp_fwd_comm = np.zeros(graph.num_ops)
        tp_bwd_comm = np.zeros(graph.num_ops)
        for i in range(graph.num_ops):
            if etp[i] <= 1:
                continue
            group = int(etp[i])
            fwd_bytes = arrays.fwd_comm_numel[i, tp_dim[i]] * samples[i] * elem
            bwd_bytes = arrays.bwd_comm_numel[i, tp_dim[i]] * samples[i] * elem
            if fwd_bytes > 0:
                tp_fwd_comm[i] = collectives.allreduce_time(
                    fwd_bytes, group
                )
            if bwd_bytes > 0:
                tp_bwd_comm[i] = collectives.allreduce_time(
                    bwd_bytes, group
                )
        reshard = np.zeros(graph.num_ops)
        for i in range(graph.num_ops - 1):
            if stage_id[i] != stage_id[i + 1]:
                continue
            if tp[i] == tp[i + 1] and dp[i] == dp[i + 1]:
                continue
            group = int(tp[i] * dp[i])
            bytes_moved = arrays.out_numel[i] * samples[i] * elem
            reshard[i] = collectives.allgather_time(bytes_moved, group)

        rc_extra = np.where(rc, fwd_op + tp_fwd_comm, 0.0)

        def per_stage(values: np.ndarray) -> np.ndarray:
            return np.bincount(stage_id, weights=values, minlength=num_stages)

        stage_fwd = per_stage(fwd_op + tp_fwd_comm + reshard)
        stage_bwd = per_stage(bwd_op + tp_bwd_comm + reshard + rc_extra)

        if cluster.is_heterogeneous:
            # A stage's compute runs at the pace of the slowest device
            # it occupies; op costs above were priced on the reference
            # device (the same roofline shared with the profiler).
            hetero_scale = np.array([
                cluster.span_compute_scale(
                    config.stage_first_device(i),
                    stage.num_devices,
                    graph.precision,
                )
                for i, stage in enumerate(config.stages)
            ])
            stage_fwd = stage_fwd * hetero_scale
            stage_bwd = stage_bwd * hetero_scale

        p2p = np.zeros(max(0, num_stages - 1))
        for i in range(num_stages - 1):
            last = config.stages[i].end - 1
            bytes_moved = arrays.out_numel[last] * config.microbatch_size / float(
                dp[last]
            ) * elem
            boundary = config.stage_first_device(i + 1) - 1
            p2p[i] = collectives.p2p_time_between_stages(
                bytes_moved, boundary
            )

        grad_bytes = arrays.params * elem / etp
        dp_sync = np.zeros(num_stages)
        for i, stage in enumerate(config.stages):
            sl = slice(stage.start, stage.end)
            stage_dp = dp[sl]
            for degree in np.unique(stage_dp):
                if degree <= 1:
                    continue
                total = float(grad_bytes[sl][stage_dp == degree].sum())
                dp_sync[i] += collectives.allreduce_time(
                    total, int(degree)
                )

        rng = np.random.default_rng(
            (self.seed, zlib.crc32(config.signature().encode()))
        )
        overhead = 1.0 + FRAMEWORK_OVERHEAD
        fwd_matrix = (
            stage_fwd[:, None]
            * overhead
            * rng.lognormal(0.0, self.noise, size=(num_stages, num_mb))
        )
        bwd_matrix = (
            stage_bwd[:, None]
            * overhead
            * rng.lognormal(0.0, self.noise, size=(num_stages, num_mb))
        )

        halt_at = None
        failed_device = None
        if plan is not None:
            straggle = self._straggler_factors(config, plan)
            if straggle is not None:
                fwd_matrix *= straggle[:, None]
                bwd_matrix *= straggle[:, None]
                degraded = True
                if bus.wants(FAULTS_STRAGGLER, WARNING):
                    for stage, factor in enumerate(straggle):
                        if factor > 1.0:
                            bus.emit(
                                FAULTS_STRAGGLER,
                                source="faults",
                                level=WARNING,
                                stage=stage,
                                factor=float(factor),
                            )
            failure = plan.first_failure(config.total_devices)
            if failure is not None:
                halt_at, failed_device = failure
                bus.emit(
                    FAULTS_DEVICE_FAILURE,
                    source="faults",
                    level=WARNING,
                    device=failed_device,
                    time=halt_at,
                )

        sim = simulate_pipeline(
            fwd_matrix,
            bwd_matrix,
            num_mb,
            p2p_times=p2p,
            dp_sync_times=dp_sync * overhead,
            style=self.schedule_style,
            halt_at=halt_at,
            record_tasks=record_trace,
        )
        if bus.wants(RUNTIME_TASK, DEBUG):
            for task in sim.tasks:
                bus.emit(
                    RUNTIME_TASK,
                    source="runtime",
                    level=DEBUG,
                    stage=task.stage,
                    microbatch=task.microbatch,
                    direction=task.direction,
                    start=task.start,
                    end=task.end,
                )
        bus.emit(
            RUNTIME_RUN,
            source="runtime",
            level=WARNING if sim.halted else DEBUG,
            makespan=sim.makespan,
            num_stages=num_stages,
            num_microbatches=num_mb,
            halted=sim.halted,
            degraded=degraded,
            tasks_completed=sim.tasks_completed,
            tasks_total=sim.tasks_total,
        )

        memory = self._measure_memory(
            config, samples, etp, rc, stage_id, num_mb, rng
        )
        if cluster.is_heterogeneous:
            stage_limits = [
                cluster.span_memory_limit(
                    config.stage_first_device(i), stage.num_devices
                )
                for i, stage in enumerate(config.stages)
            ]
            oom = any(m > lim for m, lim in zip(memory, stage_limits))
            limit = float(min(stage_limits))
        else:
            limit = float(cluster.device.memory_bytes)
            oom = any(m > limit for m in memory)
        return ExecutionResult(
            iteration_time=sim.makespan,
            stage_peak_memory=memory,
            stage_busy=sim.stage_busy,
            bubble_fraction=sim.bubble_fraction,
            oom=oom,
            memory_limit=limit,
            completed=not sim.halted,
            degraded=degraded,
            failure_time=sim.makespan if sim.halted else None,
            failed_device=failed_device if sim.halted else None,
            tasks_completed=sim.tasks_completed,
            tasks_total=sim.tasks_total,
            tasks=sim.tasks,
        )

    # ------------------------------------------------------------------
    def _straggler_factors(self, config: ParallelConfig, plan):
        """Per-stage slowdown: a stage runs at its slowest device."""
        if not plan.stragglers:
            return None
        slow = dict(plan.stragglers)
        factors = np.ones(config.num_stages)
        for i, stage in enumerate(config.stages):
            first = config.stage_first_device(i)
            factors[i] = max(
                slow.get(device, 1.0)
                for device in range(first, first + stage.num_devices)
            )
        return factors if factors.max() > 1.0 else None

    # ------------------------------------------------------------------
    def _measure_memory(
        self,
        config: ParallelConfig,
        samples: np.ndarray,
        etp: np.ndarray,
        rc: np.ndarray,
        stage_id: np.ndarray,
        num_mb: int,
        rng: np.random.Generator,
    ) -> List[float]:
        graph = self.graph
        arrays = graph.arrays
        elem = graph.elem_bytes
        num_stages = config.num_stages
        kept = activation_kept_mask(rc, stage_id)
        act = arrays.saved_numel * samples / etp * elem * kept
        weights = arrays.params * elem / etp
        optimizer = arrays.params * float(graph.optimizer_bytes_per_param) / etp
        transient = (arrays.saved_numel + arrays.out_numel) * samples / etp * elem

        peaks = []
        for i, stage in enumerate(config.stages):
            sl = slice(stage.start, stage.end)
            in_flight = max_in_flight(
                i, num_stages, num_mb, self.schedule_style
            )
            reserved = replay_transients(transient[sl])
            frag = 1.0 + abs(rng.normal(0.0, 0.05))
            sharing = ACTIVATION_SHARING * rng.lognormal(0.0, 0.02)
            peak = (
                float(weights[sl].sum())
                + float(optimizer[sl].sum())
                + float(act[sl].sum()) * in_flight * sharing
                + reserved * frag
            )
            peaks.append(peak)
        return peaks

"""The profiling-based performance model (§3.3).

``PerfModel`` composes the profiled per-op linear time models and
collective coefficients into per-stage resource predictions and the
Eq. 2 iteration time, entirely with vectorized numpy gathers.

Estimation is structured in two layers:

1. :meth:`PerfModel._cost_stage` prices one pipeline stage in
   isolation — compute, tensor-parallel collectives, in-stage
   resharding, dp gradient sync, and memory.  Every one of those terms
   is *stage-count invariant*, so the resulting :class:`StageCost` is
   memoized in a bounded LRU keyed by ``(stage.digest(),
   microbatch_size)``.  Reconfiguration primitives touch one or two
   stages, so after the first estimate of a configuration family a new
   candidate re-costs only its dirty stages instead of the whole op
   chain.  A miss whose stage differs from a recent one only in its
   recompute flags reuses that stage's recompute-free base (a small
   LRU keyed by ``stage.base_digest()``) and pays two masked sums, or
   none when the stage recomputes nothing.
2. A cheap assembly step combines the cached stage costs with the
   stage-count-dependent parts: pipeline p2p boundary transfers, 1F1B
   in-flight counts, the allocator view of peak memory, and the Eq. 2
   warmup/steady/cooldown totals.  A scalar estimate applies Eq. 1 at
   once and defers Eq. 2 until its ``iteration_time`` or ``stages`` is
   read, so a recompute probe that only asks "does stage i fit?" never
   pays for it.

Whole-config estimates are additionally memoized by configuration
identity (``ParallelConfig.cache_key``) in a second LRU; the miss counter (``num_estimates``) is the
"explored configurations" metric of Exp#4.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.stage import StageConfig
from ..profiling.database import ProfileDatabase, ProfiledGraph
from ..telemetry import DEBUG, CounterGroup, get_bus
from ..telemetry.events import (
    PERFMODEL_ESTIMATE,
    PERFMODEL_ESTIMATE_BATCH,
    PERFMODEL_FIRST_FEASIBLE,
)
from .memory import stage_allocator_reserve
from .report import (
    STAGE_ROW_WIDTH,
    LazyStages,
    PerfReport,
    StageCost,
    lazy_perf_report,
)

#: Bounds of the recompute-free stage-base LRU.  Each entry holds two
#: per-op vectors, so the LRU is bounded by the ops it holds: it evicts
#: only while it holds more than ``STAGE_BASE_CACHE_SIZE`` entries
#: *and* more than ``STAGE_BASE_CACHE_OPS`` ops (1 MiB of float64
#: vectors).  On gpt3-350m, 99.6% of base reuses fall within 65,536 ops
#: but only 85% within 32 entries; on gpt-1000l the entry floor keeps
#: 98% of reuses, where 65,536 ops would keep 96%.
STAGE_BASE_CACHE_SIZE = 32
STAGE_BASE_CACHE_OPS = 65_536


def _log2_int(values: np.ndarray) -> np.ndarray:
    """Exact log2 of power-of-two int arrays (via the float exponent).

    ``frexp`` writes a power of two ``2**k`` as ``0.5 * 2**(k+1)``, so
    the binary exponent minus one is the exact integer log — no loop,
    no float ``log2`` rounding hazard.
    """
    return np.frexp(values.astype(np.float64))[1] - 1


class _DeferredEq2:
    """Payload of a scalar estimate whose Eq. 2 assembly is pending.

    Eq. 1 is applied eagerly: the in-flight counts, peak memories and
    OOM verdict are what ``first_feasible_estimate`` and recompute
    probes read, and they are cheap.  :meth:`resolve` runs the rest
    (pipeline p2p, the Eq. 2 totals, the per-stage rows) on the first
    read of ``iteration_time`` or ``stages``.  The payload holds the
    stage costs, device counts and compute scales, never the config or
    its stage arrays, and ``links`` is the model's shared p2p table
    ``(latencies, inverse bandwidths, gpus per node, gpu count)``.
    """

    __slots__ = (
        "costs", "devices", "scales", "num_mb", "links",
        "in_flight", "peak_list", "oom",
    )

    def __init__(
        self, costs, devices, scales, num_mb, links, in_flight, peaks, oom
    ):
        self.costs = costs
        self.devices = devices
        self.scales = scales
        self.num_mb = num_mb
        self.links = links
        self.in_flight = in_flight
        self.peak_list = peaks
        self.oom = oom

    def peaks(self) -> List[float]:
        return list(self.peak_list)

    def resolve(self) -> Tuple[LazyStages, float]:
        """``(assembled payload, iteration_time)``, in Python floats.

        Over a handful of stages this beats numpy's per-call overhead,
        and every expression keeps :meth:`PerfModel._assemble_batch`'s
        operand association (its prefix sum is a sequential
        ``cumsum``; a compute scale multiplies exactly as
        :meth:`StageCost.scaled` does), so the two are bit-identical.
        """
        costs, devices, scales, num_mb = (
            self.costs, self.devices, self.scales, self.num_mb
        )
        p2p_lat, p2p_ibw, gpn, num_gpus = self.links
        last = len(costs) - 1
        rows = []
        prefix, iteration_time, p2p_in, end = 0.0, -np.inf, 0.0, 0
        for i, cost in enumerate(costs):
            # Pipeline p2p to the next stage over the boundary's link.
            end += devices[i]
            p2p_out = 0.0
            if i < last and cost.egress_bytes > 0:
                device = min(max(end - 1, 0), num_gpus - 2)
                kind = int(device // gpn != (device + 1) // gpn)
                p2p_out = p2p_lat[kind] + cost.egress_bytes * p2p_ibw[kind]
            fwd, bwd, recompute = (
                cost.fwd_time, cost.bwd_time, cost.recompute_time
            )
            if scales is not None and scales[i] != 1.0:
                scale = scales[i]
                fwd, bwd, recompute = (
                    fwd * scale, bwd * scale, recompute * scale
                )
            rows += (
                fwd, bwd, recompute,
                cost.tp_fwd_comm_time + cost.tp_bwd_comm_time,
                cost.reshard_time * 2.0, p2p_in + p2p_out,
                cost.dp_sync_time, cost.weight_bytes, cost.optimizer_bytes,
                cost.activation_bytes, cost.reserved_bytes,
            )
            # Eq. 2: warmup prefix + steady microbatches + dp sync.
            pair = (
                fwd + cost.tp_fwd_comm_time + cost.reshard_time + p2p_in
            ) + (
                bwd + recompute + cost.tp_bwd_comm_time
                + cost.reshard_time + p2p_out
            )
            total = prefix + num_mb * pair + cost.dp_sync_time
            iteration_time = max(iteration_time, total)
            prefix += pair
            p2p_in = p2p_out
        payload = LazyStages(rows, self.in_flight, self.peak_list, self.oom)
        return payload, iteration_time


class _PendingReport:
    """Placeholder occupying a config-cache slot during a batch.

    :meth:`PerfModel.estimate_batch` must mutate the LRU in exactly the
    order a sequential loop of :meth:`PerfModel.estimate` would — a
    miss early in the batch can evict an entry that a config later in
    the batch would otherwise have hit.  Phase 1 therefore *reserves*
    each miss's slot immediately (evicting at the sequential position)
    and phase 3 replaces the placeholder with the assembled report.
    ``slot`` is the miss's index into the batch's miss list, so repeat
    occurrences within the batch resolve to the same report.
    Placeholders never outlive the ``estimate_batch`` call.
    """

    __slots__ = ("slot",)

    def __init__(self, slot: int) -> None:
        self.slot = slot


class PerfModel:
    """Performance oracle bound to one (graph, cluster, database).

    Args:
        graph: the model under planning.
        cluster: the hardware.
        database: a profile database covering the graph's operators.
        cache_size: whole-config estimates kept in the LRU.
        stage_cache_size: per-stage costs kept in the LRU (0 disables
            stage-level memoization, the recompute-free bases included;
            every estimate then re-costs all stages, which is the
            reference path the equivalence tests compare against).
        reserve_safety_factor: override for the allocator over-reserve.
    """

    def __init__(
        self,
        graph: OpGraph,
        cluster: ClusterSpec,
        database: ProfileDatabase,
        *,
        cache_size: int = 500_000,
        stage_cache_size: int = 200_000,
        reserve_safety_factor: float = None,
    ) -> None:
        from .memory import RESERVE_SAFETY_FACTOR

        self.graph = graph
        self.cluster = cluster
        self.database = database
        self.profiled = ProfiledGraph(graph, database)
        self.memory_limit = float(cluster.device.memory_bytes)
        # Heterogeneous clusters: per-node compute scale relative to
        # the reference device the database was profiled on, and
        # per-node memory capacity.  ``None`` keeps the homogeneous
        # fast path bit-identical to the pre-hetero model.
        if cluster.is_heterogeneous:
            reference = cluster.device.sustained_flops(graph.precision)
            self._node_scale = np.array([
                reference / spec.sustained_flops(graph.precision)
                for spec in cluster.node_devices
            ])
            self._node_mem = np.array([
                float(spec.memory_bytes) for spec in cluster.node_devices
            ])
        else:
            self._node_scale = None
            self._node_mem = None
        self.reserve_safety_factor = (
            RESERVE_SAFETY_FACTOR
            if reserve_safety_factor is None
            else reserve_safety_factor
        )
        self._elem = graph.elem_bytes
        self._cache: "OrderedDict[str, PerfReport]" = OrderedDict()
        self._cache_size = cache_size
        self._stage_cache: "OrderedDict[Tuple[bytes, int], StageCost]" = (
            OrderedDict()
        )
        self._stage_cache_size = stage_cache_size
        self._base_cache: "OrderedDict[Tuple[bytes, int], tuple]" = (
            OrderedDict()
        )
        self._base_cache_ops = 0
        # Telemetry counters replace the former bare-int attributes;
        # the individual Counter objects are hoisted to slots-backed
        # locals because ``inc`` sits on the estimator hot path.
        self.counters = CounterGroup(
            "perfmodel",
            ("estimates", "config_hits", "stage_costs", "stage_hits"),
        )
        self._c_estimates = self.counters["estimates"]
        self._c_config_hits = self.counters["config_hits"]
        self._c_stage_costs = self.counters["stage_costs"]
        self._c_stage_hits = self.counters["stage_hits"]
        # num_estimates value at the first non-OOM report, or None —
        # the "estimates until a feasible plan" metric of the elastic
        # re-planning experiment.
        self.first_feasible_estimate: Optional[int] = None

        ar = database.collective("allreduce")
        ag = database.collective("allgather")
        self._ar_lat = ar.latency
        self._ar_ibw = ar.inv_bandwidth
        self._ag_lat = ag.latency
        self._ag_ibw = ag.inv_bandwidth
        p2p = [database.collective(n) for n in ("p2p_intra", "p2p_inter")]
        # Pipeline p2p always moves data between exactly two ranks, so
        # only the group-size-2 coefficients are ever used; hoist them
        # to Python floats, indexed 0 = intra-node, 1 = inter-node.
        # Single-GPU clusters may not profile level 1 — they also never
        # build a multi-stage pipeline, so zeros are never read.
        self._p2p_lat = [
            float(kind.latency[1]) if len(kind.latency) > 1 else 0.0
            for kind in p2p
        ]
        self._p2p_ibw = [
            float(kind.inv_bandwidth[1])
            if len(kind.inv_bandwidth) > 1 else 0.0
            for kind in p2p
        ]
        self._links = (
            self._p2p_lat, self._p2p_ibw,
            cluster.gpus_per_node, cluster.num_gpus,
        )
        # Config-independent per-op products of stage costing, hoisted
        # with their operand association intact (bit-identical values):
        # the op parts of the flat profile/comm indices, the weight and
        # optimizer bytes before the tp split, and the transient numel.
        ga = graph.arrays
        _, num_levels, num_opts = self.profiled.fwd_fixed.shape
        ops = np.arange(graph.num_ops)
        self._op_levels = ops * num_levels
        self._op_options = ops * ga.fwd_comm_numel.shape[1]
        self._num_opts = num_opts
        self._param_bytes = ga.params * self._elem
        self._param_optimizer_bytes = ga.params * float(
            graph.optimizer_bytes_per_param
        )
        self._transient_numel = ga.saved_numel + ga.out_numel

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def num_estimates(self) -> int:
        """Unique configurations costed (config-cache misses)."""
        return self._c_estimates.value

    @property
    def num_stage_costs(self) -> int:
        """Stage-cache misses."""
        return self._c_stage_costs.value

    @property
    def num_stage_hits(self) -> int:
        """Stage-cache hits."""
        return self._c_stage_hits.value

    def emit_counters(self, bus=None) -> None:
        """Publish a ``perfmodel.counters`` snapshot on the bus."""
        self.counters.emit_to(bus if bus is not None else get_bus())

    def estimate(self, config: ParallelConfig) -> PerfReport:
        """Predict the performance of ``config`` (memoized)."""
        key = config.cache_key()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._c_config_hits.value += 1
            return cached
        report = self._estimate_uncached(config)
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        self._cache[key] = report
        self._c_estimates.value += 1
        bus = get_bus()
        if self.first_feasible_estimate is None and not report.is_oom:
            self.first_feasible_estimate = self._c_estimates.value
            bus.emit(
                PERFMODEL_FIRST_FEASIBLE,
                source="perfmodel",
                level=DEBUG,
                estimates=self.first_feasible_estimate,
            )
        # Reading iteration_time resolves a deferred Eq. 2, so the event
        # is built only when some sink keeps it.
        if bus.wants(PERFMODEL_ESTIMATE, DEBUG):
            bus.emit(
                PERFMODEL_ESTIMATE,
                source="perfmodel",
                level=DEBUG,
                oom=report.is_oom,
                iteration_time=report.iteration_time,
            )
        return report

    def estimate_batch(
        self, configs: Sequence[ParallelConfig]
    ) -> List[PerfReport]:
        """Predict the performance of many candidates at once.

        Semantically a loop of :meth:`estimate` — same caches, same
        counters, same ``num_estimates`` accounting, and bit-identical
        reports — but cache misses are assembled together by
        :meth:`_assemble_batch` as padded ``[batch, stage]`` array ops,
        and telemetry is one aggregated ``perfmodel.estimate_batch``
        event per call instead of one event per costed config.

        ``first_feasible_estimate`` advances exactly as the sequential
        loop would: the counter value at the first non-OOM *miss* in
        batch order.  Eviction fidelity holds too: each miss reserves
        its LRU slot in phase 1 with a :class:`_PendingReport`, so an
        insertion mid-batch evicts (and can force a later config to
        re-miss) at exactly the point the sequential loop would.
        """
        reports: List[Optional[PerfReport]] = [None] * len(configs)
        miss_indices: List[int] = []
        miss_keys: List[bytes] = []
        duplicates: List[Tuple[int, int]] = []
        cache = self._cache
        for i, config in enumerate(configs):
            key = config.cache_key()
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                self._c_config_hits.value += 1
                if isinstance(cached, _PendingReport):
                    # Repeat within one batch: sequentially the second
                    # occurrence would hit the entry the first inserted.
                    duplicates.append((i, cached.slot))
                else:
                    reports[i] = cached
                continue
            if len(cache) >= self._cache_size:
                cache.popitem(last=False)
            cache[key] = _PendingReport(len(miss_indices))
            miss_indices.append(i)
            miss_keys.append(key)

        first_feasible_now = False
        oom_count = 0
        if miss_indices:
            miss_configs = [configs[i] for i in miss_indices]
            try:
                # Inlined hit path of _cost_stage (same cache, counters,
                # and LRU recency updates): the per-call overhead is
                # visible at batch sizes in the thousands.
                stage_cache = self._stage_cache
                stage_hits = self._c_stage_hits
                cost_stage = self._cost_stage
                costs_per_config: List[List[StageCost]] = []
                for config in miss_configs:
                    mbs = config.microbatch_size
                    costs = []
                    for stage in config.stages:
                        cache_key = (stage.digest(), mbs)
                        cached_cost = stage_cache.get(cache_key)
                        if cached_cost is not None:
                            stage_cache.move_to_end(cache_key)
                            stage_hits.value += 1
                            costs.append(cached_cost)
                        else:
                            costs.append(cost_stage(stage, mbs))
                    costs_per_config.append(costs)
                limits_per_config = None
                if self._node_scale is not None:
                    # Heterogeneous: apply placement-dependent compute
                    # scales to the (placement-free) cached stage costs
                    # and collect each config's per-stage memory limits.
                    limits_per_config = []
                    scaled_per_config = []
                    for config, costs in zip(
                        miss_configs, costs_per_config
                    ):
                        scales, limits = self._stage_factors(
                            [s.num_devices for s in config.stages]
                        )
                        limits_per_config.append(limits)
                        scaled_per_config.append([
                            cost if scale == 1.0 else cost.scaled(scale)
                            for cost, scale in zip(costs, scales)
                        ])
                    costs_per_config = scaled_per_config
                miss_reports, oom_flags = self._assemble_batch(
                    miss_configs, costs_per_config, limits_per_config
                )
            except BaseException:
                # Never leak placeholders into the cache where a later
                # estimate() could return one as a report.
                for key in miss_keys:
                    if isinstance(cache.get(key), _PendingReport):
                        del cache[key]
                raise
            oom_count = int(np.count_nonzero(oom_flags))
            for key, report, oom in zip(miss_keys, miss_reports, oom_flags):
                # The reserved slot may be gone (evicted mid-batch) —
                # the sequential loop would have lost the entry too.
                # Replacing a still-present value preserves LRU order.
                if key in cache:
                    cache[key] = report
                self._c_estimates.value += 1
                if self.first_feasible_estimate is None and not oom:
                    self.first_feasible_estimate = self._c_estimates.value
                    first_feasible_now = True
            for i, report in zip(miss_indices, miss_reports):
                reports[i] = report
            for i, slot in duplicates:
                reports[i] = miss_reports[slot]

        bus = get_bus()
        if first_feasible_now:
            bus.emit(
                PERFMODEL_FIRST_FEASIBLE,
                source="perfmodel",
                level=DEBUG,
                estimates=self.first_feasible_estimate,
            )
        if configs and bus.wants(PERFMODEL_ESTIMATE_BATCH, DEBUG):
            bus.emit(
                PERFMODEL_ESTIMATE_BATCH,
                source="perfmodel",
                level=DEBUG,
                batch=len(configs),
                hits=len(configs) - len(miss_indices),
                misses=len(miss_indices),
                oom=oom_count,
            )
        return reports

    def estimate_fresh(self, config: ParallelConfig) -> PerfReport:
        """Re-cost every stage from scratch, bypassing every cache.

        Reference path for the incremental-vs-full equivalence tests:
        the result must be bit-identical to :meth:`estimate` no matter
        what the caches contain.
        """
        mbs = config.microbatch_size
        costs = [
            self._cost_stage_uncached(stage, mbs, fresh=True)
            for stage in config.stages
        ]
        return self._assemble(config, costs)

    def cache_info(self) -> dict:
        """Sizes and hit/miss counters of both memo layers."""
        return {
            "config_cache_len": len(self._cache),
            "config_cache_size": self._cache_size,
            "stage_cache_len": len(self._stage_cache),
            "stage_cache_size": self._stage_cache_size,
            "num_estimates": self.num_estimates,
            "num_stage_costs": self.num_stage_costs,
            "num_stage_hits": self.num_stage_hits,
        }

    #: Objective offset separating every OOM config from feasible ones.
    OOM_PENALTY = 1e9

    def objective(self, config: ParallelConfig) -> float:
        """Search objective (lower is better).

        Feasible configurations score their iteration time.  OOM
        configurations score a large penalty plus their relative memory
        overflow, so the search still measures *progress* toward
        feasibility (the paper's "an infeasible configuration becomes
        feasible" notion of better).
        """
        return self.objective_from_report(self.estimate(config))

    def objective_from_report(self, report: PerfReport) -> float:
        """The :meth:`objective` scoring rule for an existing report.

        Split out so batch callers can score the reports
        :meth:`estimate_batch` returns without a second cache lookup.
        """
        if not report.is_oom:
            return report.iteration_time
        limits = report.stage_limits
        if limits is None:
            overflow = sum(
                max(0.0, m - report.memory_limit)
                for m in report.peak_memories
            )
            return self.OOM_PENALTY * (1.0 + overflow / report.memory_limit)
        overflow = sum(
            max(0.0, m - limit)
            for m, limit in zip(report.peak_memories, limits)
        )
        return self.OOM_PENALTY * (1.0 + overflow / min(limits))

    def objective_batch(
        self, configs: Sequence[ParallelConfig]
    ) -> List[float]:
        """Search objectives for many candidates (one batched estimate)."""
        return [
            self.objective_from_report(report)
            for report in self.estimate_batch(configs)
        ]

    # ------------------------------------------------------------------
    # per-stage costing (stage-count invariant, memoized)
    # ------------------------------------------------------------------
    def _cost_stage(self, stage: StageConfig, mbs: int) -> StageCost:
        """Memoized per-stage cost, keyed by stage identity + mbs."""
        if self._stage_cache_size <= 0:
            return self._cost_stage_uncached(stage, mbs, fresh=True)
        key = (stage.digest(), mbs)
        cached = self._stage_cache.get(key)
        if cached is not None:
            self._stage_cache.move_to_end(key)
            self._c_stage_hits.value += 1
            return cached
        cost = self._cost_stage_uncached(stage, mbs)
        if len(self._stage_cache) >= self._stage_cache_size:
            self._stage_cache.popitem(last=False)
        self._stage_cache[key] = cost
        self._c_stage_costs.value += 1
        return cost

    def stage_activation_bytes(
        self, stage: StageConfig, mbs: int
    ) -> np.ndarray:
        """Per-op saved-activation bytes of ``stage`` at microbatch size
        ``mbs``: the vector Eq. 1 sums before recomputation drops any of
        it, computed as the stage's recompute-free base computes it."""
        span = slice(stage.start, stage.end)
        return self._activation_bytes(
            span,
            mbs / stage.dp,
            np.minimum(stage.tp, self.graph.arrays.max_tp[span]),
        )

    def _activation_bytes(
        self, span: slice, samples: np.ndarray, etp: np.ndarray
    ) -> np.ndarray:
        return self.graph.arrays.saved_numel[span] * samples / etp * self._elem

    def _cost_stage_uncached(
        self, stage: StageConfig, mbs: int, fresh: bool = False
    ) -> StageCost:
        """A stage's recompute-free base (LRU-cached unless ``fresh``)
        plus its two recompute terms, which apply the flags to per-op
        base vectors with the same values and reductions as costing
        from scratch — bit-identical either way.  A stage that
        recomputes nothing keeps every activation, so its terms are the
        base's activation total and zero seconds."""
        if fresh:
            base = self._cost_stage_base(stage, mbs)
        else:
            cache = self._base_cache
            key = (stage.base_digest(), mbs)
            base = cache.pop(key, None)
            if base is None:
                base = self._cost_stage_base(stage, mbs)
                self._base_cache_ops += stage.num_ops
            cache[key] = base  # (re)insert as the most recent
            while (
                len(cache) > STAGE_BASE_CACHE_SIZE
                and self._base_cache_ops > STAGE_BASE_CACHE_OPS
            ):
                _, (_, _, act_bytes, _) = cache.popitem(last=False)
                self._base_cache_ops -= len(act_bytes)
        fields, rc_time, act_bytes, act_total = base
        rc = stage.recompute
        if not rc.any():
            return StageCost(
                recompute_time=0.0, activation_bytes=act_total, **fields
            )
        # ``activation_kept_mask`` within one stage: a recomputed op
        # whose predecessor also recomputes keeps nothing.
        kept = np.ones(len(rc))
        kept[1:] -= rc[1:] & rc[:-1]
        return StageCost(
            recompute_time=float(np.where(rc, rc_time, 0.0).sum()),
            activation_bytes=float((act_bytes * kept).sum()),
            **fields,
        )

    def _cost_stage_base(self, stage: StageConfig, mbs: int) -> tuple:
        """``(StageCost fields the recompute flags cannot change,
        per-op recompute seconds, per-op saved-activation bytes, their
        sum)``."""
        ga, pg = self.graph.arrays, self.profiled
        elem = self._elem
        span = slice(stage.start, stage.end)
        tp, dp, tp_dim = stage.tp, stage.dp, stage.tp_dim
        etp = np.minimum(tp, ga.max_tp[span])
        tp_lv = _log2_int(tp)
        etp_lv = _log2_int(etp)
        samples = mbs / dp
        # Flat element indices into the C-ordered ``[op, tp_level,
        # option]`` profile tables and ``[op, option]`` comm tables:
        # one ``take`` per table reads the same values a 3-index
        # fancy gather would, without its per-axis index broadcasting.
        flat = (self._op_levels[span] + tp_lv) * self._num_opts + tp_dim
        flat_opt = self._op_options[span] + tp_dim

        # --- per-op compute times (profiled linear models) -------------
        fwd = pg.fwd_fixed.take(flat) + samples * pg.fwd_slope.take(flat)
        bwd = pg.bwd_fixed.take(flat) + samples * pg.bwd_slope.take(flat)

        # --- tensor-parallel collectives per microbatch ----------------
        comm_mask = etp > 1
        fwd_bytes = ga.fwd_comm_numel.take(flat_opt) * samples * elem
        bwd_bytes = ga.bwd_comm_numel.take(flat_opt) * samples * elem
        ar_lat = self._ar_lat.take(etp_lv)
        ar_ibw = self._ar_ibw.take(etp_lv)
        tp_fwd_comm = np.where(
            comm_mask & (fwd_bytes > 0), ar_lat + fwd_bytes * ar_ibw, 0.0
        )
        tp_bwd_comm = np.where(
            comm_mask & (bwd_bytes > 0), ar_lat + bwd_bytes * ar_ibw, 0.0
        )

        # --- in-stage resharding (flexible tp/dp combinations, §4.2) ---
        # One-way cost; assembly charges it once forward, once backward.
        reshard = 0.0
        if stage.num_ops > 1:
            change = (tp[:-1] != tp[1:]) | (dp[:-1] != dp[1:])
            group_lv = _log2_int(tp[:-1] * dp[:-1])
            resh_bytes = ga.out_numel[span][:-1] * samples[:-1] * elem
            reshard = float(
                np.where(
                    change,
                    self._ag_lat[group_lv] + resh_bytes * self._ag_ibw[group_lv],
                    0.0,
                ).sum()
            )

        # --- data-parallel gradient sync per iteration -----------------
        # One allreduce per distinct dp degree present in the stage
        # (ops sharing a degree share a process group).  Bucket grad
        # bytes by log-level instead of looping over np.unique.
        weight_bytes = self._param_bytes[span] / etp
        dp_lv = _log2_int(dp)
        counts = np.bincount(dp_lv)
        sums = np.bincount(dp_lv, weights=weight_bytes)
        levels = np.nonzero(counts[1:])[0] + 1
        dp_sync = float(
            np.sum(self._ar_lat[levels] + sums[levels] * self._ar_ibw[levels])
        )

        # --- memory ----------------------------------------------------
        act_bytes = self._activation_bytes(span, samples, etp)
        optimizer_bytes = self._param_optimizer_bytes[span] / etp
        transient = self._transient_numel[span] * samples / etp * elem
        reserve = stage_allocator_reserve(
            transient, safety_factor=self.reserve_safety_factor
        )
        egress = float(
            ga.out_numel[stage.end - 1] * mbs / float(dp[-1]) * elem
        )

        fields = dict(
            fwd_time=float(fwd.sum()),
            bwd_time=float(bwd.sum()),
            tp_fwd_comm_time=float(tp_fwd_comm.sum()),
            tp_bwd_comm_time=float(tp_bwd_comm.sum()),
            reshard_time=reshard,
            dp_sync_time=dp_sync,
            weight_bytes=float(weight_bytes.sum()),
            optimizer_bytes=float(optimizer_bytes.sum()),
            reserved_bytes=reserve,
            egress_bytes=egress,
        )
        # Recomputation repeats the forward and its collectives.
        return fields, fwd + tp_fwd_comm, act_bytes, float(act_bytes.sum())

    # ------------------------------------------------------------------
    # assembly (stage-count dependent, cheap)
    # ------------------------------------------------------------------
    def _estimate_uncached(self, config: ParallelConfig) -> PerfReport:
        mbs = config.microbatch_size
        costs = [self._cost_stage(stage, mbs) for stage in config.stages]
        return self._assemble(config, costs)

    def _stage_factors(self, device_counts: Sequence[int]):
        """Hetero placement factors, or ``None`` when homogeneous.

        Stage costs are memoized placement-free (on the reference
        device); the per-device reality enters here, at assembly, where
        the contiguous device spans are known.  Returns per-stage
        ``(compute_scales, memory_limits)``: a stage's compute stretches
        by the slowest device it occupies and its memory budget is the
        smallest capacity in its span.
        """
        if self._node_scale is None:
            return None
        gpn = self.cluster.gpus_per_node
        max_node = self.cluster.num_nodes - 1
        scales: List[float] = []
        limits: List[float] = []
        first = 0
        for count in device_counts:
            lo = min(first // gpn, max_node)
            hi = min((first + count - 1) // gpn, max_node)
            scales.append(float(self._node_scale[lo:hi + 1].max()))
            limits.append(float(self._node_mem[lo:hi + 1].min()))
            first += count
        return scales, tuple(limits)

    def _assemble(
        self, config: ParallelConfig, costs: List[StageCost]
    ) -> PerfReport:
        """A report with Eq. 1 applied and Eq. 2 deferred (see
        :class:`_DeferredEq2`).  Peaks keep
        :attr:`StageReport.peak_memory`'s operand association."""
        devices = [stage.num_devices for stage in config.stages]
        num_stages = len(costs)
        num_mb = config.num_microbatches(self.graph.global_batch_size)
        scales = stage_limits = None
        factors = self._stage_factors(devices)
        if factors is not None:
            scales, stage_limits = factors
        limits = stage_limits or [self.memory_limit] * num_stages
        in_flight, peaks, oom = [], [], False
        for i, cost in enumerate(costs):
            infl = min(num_stages - i, num_mb)
            peak = (
                cost.weight_bytes + cost.optimizer_bytes
                + cost.activation_bytes * infl + cost.reserved_bytes
            )
            in_flight.append(infl)
            peaks.append(peak)
            oom = oom or peak > limits[i]
        payload = _DeferredEq2(
            costs, devices, scales, num_mb, self._links,
            in_flight, peaks, oom,
        )
        return lazy_perf_report(
            payload, num_mb, None, self.memory_limit, stage_limits
        )

    def _assemble_batch(
        self,
        configs: Sequence[ParallelConfig],
        costs_per_config: Sequence[List[StageCost]],
        limits_per_config: Optional[Sequence[Tuple[float, ...]]] = None,
    ) -> Tuple[List[PerfReport], np.ndarray]:
        """Assemble many configurations' reports in one set of array ops.

        Stage costs are gathered into padded ``[batch, stage, column]``
        float64 tensors (see ``STAGE_COST_COLUMNS``); the Eq. 1 peak
        memories, pipeline p2p boundary transfers, and Eq. 2 totals are
        then evaluated for the whole batch at once.  Every expression
        mirrors :meth:`_DeferredEq2.resolve`'s operand association
        order on the same float64 values, so the returned reports are
        bit-identical to the scalar path's; slots past a
        configuration's own stage count are masked out of every
        reduction.  Returns the reports
        plus a per-config OOM flag vector (used for first-feasible
        tracking without re-deriving it from report properties).
        """
        num_configs = len(configs)
        counts = np.array(
            [config.num_stages for config in configs], dtype=np.int64
        )
        max_stages = int(counts.max())
        stage_pos = np.arange(max_stages)
        valid = stage_pos[None, :] < counts[:, None]

        # Gather every stage's precomputed cost row into one flat
        # [total_stages, column] block, then scatter through the valid
        # mask: boolean fancy indexing walks the padded tensor in
        # C order, which is exactly the (config, stage) order the flat
        # lists were built in.
        flat_rows: List[np.ndarray] = []
        flat_devs: List[int] = []
        for config, costs in zip(configs, costs_per_config):
            for cost in costs:
                flat_rows.append(cost.row)
            for stage in config.stages:
                flat_devs.append(stage.num_devices)
        rows = np.zeros((num_configs, max_stages, 12), dtype=np.float64)
        devs = np.zeros((num_configs, max_stages), dtype=np.int64)
        rows[valid] = np.concatenate(flat_rows).reshape(len(flat_rows), 12)
        devs[valid] = flat_devs
        (
            fwd, bwd, recompute, tp_fwd, tp_bwd, reshard, dp_sync,
            weight, optimizer, activation, reserved, egress,
        ) = np.moveaxis(rows, 2, 0)

        batch_size = self.graph.global_batch_size
        num_mb = np.array(
            [config.num_microbatches(batch_size) for config in configs],
            dtype=np.int64,
        )

        # --- pipeline p2p per microbatch (vectorized over the batch) ---
        p2p_fwd_in = np.zeros((num_configs, max_stages))
        p2p_bwd_in = np.zeros((num_configs, max_stages))
        if max_stages > 1:
            boundary_dev = np.clip(
                np.cumsum(devs, axis=1)[:, :-1] - 1,
                0,
                self.cluster.num_gpus - 2,
            )
            gpn = self.cluster.gpus_per_node
            inter = (boundary_dev // gpn) != ((boundary_dev + 1) // gpn)
            kind = inter.astype(np.int64)  # 0 -> intra, 1 -> inter
            boundary = stage_pos[None, :-1] < counts[:, None] - 1
            out_bytes = egress[:, :-1]
            transfer = np.where(
                boundary & (out_bytes > 0),
                np.array(self._p2p_lat)[kind]
                + out_bytes * np.array(self._p2p_ibw)[kind],
                0.0,
            )
            p2p_fwd_in[:, 1:] = transfer
            p2p_bwd_in[:, :-1] = transfer

        in_flight = np.minimum(
            counts[:, None] - stage_pos[None, :], num_mb[:, None]
        )

        # --- Eq. 2 totals: same association order as the scalar path ---
        fwd_total = ((fwd + tp_fwd) + reshard) + p2p_fwd_in
        bwd_total = (((bwd + recompute) + tp_bwd) + reshard) + p2p_bwd_in
        pair = fwd_total + bwd_total
        prefix = np.zeros((num_configs, max_stages))
        prefix[:, 1:] = np.cumsum(pair, axis=1)[:, :-1]
        totals = (prefix + num_mb[:, None] * pair) + dp_sync
        iteration_times = np.where(valid, totals, -np.inf).max(axis=1)

        # --- Eq. 1 peak memory feasibility ----------------------------
        peaks = (weight + optimizer) + activation * in_flight + reserved
        if limits_per_config is None:
            oom_flags = np.any(
                valid & (peaks > self.memory_limit), axis=1
            )
        else:
            limit_arr = np.full(
                (num_configs, max_stages), np.inf, dtype=np.float64
            )
            limit_arr[valid] = [
                limit
                for limits in limits_per_config
                for limit in limits
            ]
            oom_flags = np.any(valid & (peaks > limit_arr), axis=1)

        # One bulk conversion to flat LazyStages rows; in_flight stays
        # apart so it converts to Python ints.
        rows = np.stack(
            (
                fwd, bwd, recompute, tp_fwd + tp_bwd, reshard * 2.0,
                p2p_fwd_in + p2p_bwd_in, dp_sync, weight, optimizer,
                activation, reserved,
            ),
            axis=2,
        ).reshape(num_configs, max_stages * STAGE_ROW_WIDTH).tolist()
        in_flight_l = in_flight.tolist()
        peaks_l = peaks.tolist()
        iteration_l = iteration_times.tolist()
        num_mb_l = num_mb.tolist()
        counts_l = counts.tolist()
        oom_l = oom_flags.tolist()

        # Reports come out stage-lazy: most batch-estimated candidates
        # only ever answer objective queries, and the search discards
        # them without reading per-stage detail.  LazyStages
        # materializes identical StageReport tuples for the survivors
        # on demand.
        memory_limit = self.memory_limit
        reports: List[PerfReport] = []
        for b in range(num_configs):
            n = counts_l[b]
            payload = LazyStages(
                rows[b][:n * STAGE_ROW_WIDTH], in_flight_l[b][:n],
                peaks_l[b][:n], oom_l[b],
            )
            reports.append(
                lazy_perf_report(
                    payload,
                    num_mb_l[b],
                    iteration_l[b],
                    memory_limit,
                    None
                    if limits_per_config is None
                    else limits_per_config[b],
                )
            )
        return reports, oom_flags


def build_perf_model(
    graph: OpGraph,
    cluster: ClusterSpec,
    *,
    database: Optional[ProfileDatabase] = None,
    seed: int = 0,
) -> PerfModel:
    """Profile (if needed) and construct a :class:`PerfModel`."""
    if database is None:
        from ..profiling.profiler import SimulatedProfiler

        database = SimulatedProfiler(cluster, seed=seed).profile(graph)
    return PerfModel(graph, cluster, database)

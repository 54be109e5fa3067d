"""The profiling-based performance model (§3.3).

``PerfModel`` composes the profiled per-op linear time models and
collective coefficients into per-stage resource predictions and the
Eq. 2 iteration time, reading every per-op term from one table per
microbatch size indexed by (cost class, tp level, dp level, option).

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
   warmup/steady/cooldown totals.  An estimate applies Eq. 1 at once
   and defers Eq. 2 until its ``iteration_time`` or ``stages`` is read.

Whole-config estimates are additionally memoized by configuration
identity (``ParallelConfig.cache_key``) in a second LRU, whose miss
counter (``num_estimates``) is Exp#4's "explored configurations" metric.
A recompute probe (:meth:`PerfModel.recompute_peak`) asks only "does
stage i fit with these flags?": it keys the variant without building
it, and a miss prices that stage's Eq. 1 alone and leaves an Eq. 1-only
entry in that LRU, counted as the estimate it stands for.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig, config_key
from ..parallel.stage import StageConfig, stage_digest
from ..profiling.database import ProfileDatabase, ProfiledGraph
from ..telemetry import DEBUG, CounterGroup, get_bus
from ..telemetry.events import PERFMODEL_ESTIMATE, PERFMODEL_FIRST_FEASIBLE
from .memory import stage_allocator_reserve
from .report import LazyStages, PerfReport, StageCost, lazy_perf_report

#: Bounds of the recompute-free stage-base LRU.  Each entry holds two
#: per-op vectors, so the LRU is bounded by the ops it holds: it evicts
#: only while it holds more than ``STAGE_BASE_CACHE_SIZE`` entries
#: *and* more than ``STAGE_BASE_CACHE_OPS`` ops (1 MiB of float64
#: vectors).  On gpt3-350m, 99.6% of base reuses fall within 65,536 ops
#: but only 85% within 32 entries; on gpt-1000l the entry floor keeps
#: 98% of reuses, where 65,536 ops would keep 96%.
STAGE_BASE_CACHE_SIZE = 32
STAGE_BASE_CACHE_OPS = 65_536

#: Class-setting table rows (:meth:`PerfModel._class_table`): these
#: StageCost fields, then activation bytes (also summed), recompute
#: seconds, transient bytes and one-way reshard seconds.
_SUMMED = ("fwd_time", "bwd_time", "tp_fwd_comm_time", "tp_bwd_comm_time",
           "weight_bytes", "optimizer_bytes")
_WEIGHT, _ACTIVATION, _RECOMPUTE, _TRANSIENT, _RESHARD = 4, 6, 7, 8, 9


def _kept_activation(rc: np.ndarray, act_bytes: np.ndarray) -> float:
    """Eq. 1's activation bytes under flags ``rc``, some set:
    ``activation_kept_mask`` within one stage, where a recomputed op
    whose predecessor also recomputes keeps nothing."""
    kept = np.ones(len(rc))
    kept[1:] -= rc[1:] & rc[:-1]
    return float((act_bytes * kept).sum())


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

        Over a handful of stages plain Python floats beat numpy's
        per-call overhead.  A stage's Eq. 2 pair time is its forward
        half plus its backward half, and the iteration time is the
        largest warmup prefix + ``num_mb`` pairs + dp sync over stages.
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
        # Reports, or the peaks list of a probe's Eq. 1-only entry.
        self._cache: "OrderedDict[bytes, PerfReport | list]" = OrderedDict()
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
        # Table column parts (see _stage_codes) and tables, one per mbs.
        _, num_tp_levels, self._num_opts = self.profiled.fwd_fixed.shape
        self._num_dp_levels = cluster.num_gpus.bit_length()
        self._class_offset = graph.arrays.op_class * (
            num_tp_levels * self._num_dp_levels * self._num_opts
        )
        levels = _log2_int(np.arange(cluster.num_gpus + 1))
        self._levels = levels.astype(np.int64)
        self._tables: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def build_kwargs(self) -> dict:
        """Keyword arguments that rebuild this model's settings (for a
        pool worker's fresh model of the same problem)."""
        return {
            "cache_size": self._cache_size,
            "stage_cache_size": self._stage_cache_size,
            "reserve_safety_factor": self.reserve_safety_factor,
        }

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
            if isinstance(cached, list):  # a probe's Eq. 1-only entry
                cached = self._cache[key] = self._estimate_uncached(config)
            return cached
        report = self._estimate_uncached(config)
        self._record_miss(key, report, report.is_oom)
        # Reading iteration_time resolves a deferred Eq. 2, so the event
        # is built only when some sink keeps it.
        bus = get_bus()
        if bus.wants(PERFMODEL_ESTIMATE, DEBUG):
            bus.emit(
                PERFMODEL_ESTIMATE,
                source="perfmodel",
                level=DEBUG,
                oom=report.is_oom,
                iteration_time=report.iteration_time,
            )
        return report

    def recompute_peak(
        self, config: ParallelConfig, report: PerfReport, stage_index: int,
        recompute: np.ndarray,
    ) -> float:
        """Eq. 1 peak of stage ``stage_index`` with recompute flags
        ``recompute``, given ``report = estimate(config)``, without
        building that variant.  It is keyed and counted as
        :meth:`estimate` of the variant would be; a miss prices only the
        stage's kept activation and stores the peaks as an Eq. 1-only
        entry, which a later :meth:`estimate` replaces with a report.
        When a sink keeps ``perfmodel.estimate`` DEBUG events (their
        payload reads the iteration time), it estimates the variant."""
        if get_bus().wants(PERFMODEL_ESTIMATE, DEBUG):
            variant = config.with_recompute(stage_index, recompute)
            return self.estimate(variant).peak_memories[stage_index]
        stage, mbs = config.stages[stage_index], config.microbatch_size
        digests = [s.digest() for s in config.stages]
        digests[stage_index] = stage_digest(stage.base_digest(), recompute)
        key = config_key(mbs, digests)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._c_config_hits.value += 1
            return getattr(cached, "peak_memories", cached)[stage_index]
        base = self._stage_base(stage, mbs, self._stage_cache_size <= 0)
        fields, _, act_bytes, activation = base
        if recompute.any():
            activation = _kept_activation(recompute, act_bytes)
        peaks = report.peak_memories
        peaks[stage_index] = peak = (  # _assemble's operand order
            fields["weight_bytes"] + fields["optimizer_bytes"]
            + activation * report.in_flight(stage_index)
            + fields["reserved_bytes"]
        )
        limits = report.stage_limits or [self.memory_limit] * len(peaks)
        oom = any(p > cap for p, cap in zip(peaks, limits))
        self._record_miss(key, peaks, oom)
        return peak

    def _record_miss(self, key: bytes, entry, oom: bool) -> None:
        """Insert a config-LRU miss, evicting the oldest entry when full,
        and count it; the first feasible one is recorded."""
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        self._cache[key] = entry
        self._c_estimates.value += 1
        if self.first_feasible_estimate is None and not oom:
            self.first_feasible_estimate = self._c_estimates.value
            get_bus().emit(
                PERFMODEL_FIRST_FEASIBLE,
                source="perfmodel",
                level=DEBUG,
                estimates=self.first_feasible_estimate,
            )

    def estimate_batch(
        self, configs: Sequence[ParallelConfig]
    ) -> List[PerfReport]:
        """:meth:`estimate` of each config, in order.

        The e2e benchmark's layer table (``benchmarks/e2e/layers.py``)
        times this and :meth:`objective_batch` by name.
        """
        return [self.estimate(config) for config in configs]

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

        Split out so callers holding a report (for example one from
        :meth:`estimate`) score it without a second cache lookup.
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
        """:meth:`objective` of each config, in order."""
        return [self.objective(config) for config in configs]

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
        it.  The read-only vector the base LRU holds when the stage's
        base is cached (read without touching the LRU's order), else
        gathered from the table's activation row."""
        base = self._base_cache.get((stage.base_digest(), mbs))
        if base is not None:
            return base[2]
        codes, _, _ = self._stage_codes(stage)
        return self._class_table(mbs)[_ACTIVATION].take(codes)

    def _cost_stage_uncached(
        self, stage: StageConfig, mbs: int, fresh: bool = False
    ) -> StageCost:
        """A stage's recompute-free base plus its two recompute terms, which
        apply the flags to per-op base vectors with the same values and
        reductions as costing from scratch — bit-identical either way.  A
        stage that recomputes nothing keeps every activation: its terms are
        the base's activation total and zero seconds."""
        fields, rc_time, act_bytes, act_total = self._stage_base(
            stage, mbs, fresh
        )
        rc = stage.recompute
        if not rc.any():
            return StageCost(
                recompute_time=0.0, activation_bytes=act_total, **fields
            )
        return StageCost(
            recompute_time=float(np.where(rc, rc_time, 0.0).sum()),
            activation_bytes=_kept_activation(rc, act_bytes),
            **fields,
        )

    def _stage_base(self, stage: StageConfig, mbs: int, fresh: bool):
        """:meth:`_cost_stage_base`, through the base LRU unless fresh."""
        if fresh:
            return self._cost_stage_base(stage, mbs)
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
        return base

    def _class_table(self, mbs: int) -> np.ndarray:
        """The read-only ``[column, class·T·D·O]`` table at ``mbs``, each
        entry computed from its class's first op in the per-op operand
        order, so it equals costing that op directly, bit for bit.
        Levels no valid stage reaches clip to the collectives' last."""
        table = self._tables.get(mbs)
        if table is not None:
            return table
        ga, pg, elem = self.graph.arrays, self.profiled, self._elem
        _, first = np.unique(ga.op_class, return_index=True)

        def per_class(values: np.ndarray) -> np.ndarray:
            """Class rows of a per-op table as ``[class, tp, dp, opt]``."""
            rows = values[first]
            opts = rows.shape[-1] if rows.ndim > 1 else 1
            return rows.reshape(len(first), -1, 1, opts)

        tp_lv = np.arange(pg.fwd_fixed.shape[1])[:, None, None]
        dp_lv = np.arange(self._num_dp_levels)[:, None]
        samples = mbs / (1 << dp_lv)
        etp = np.minimum(1 << tp_lv, per_class(ga.max_tp))
        ar_lv = np.minimum(_log2_int(etp), len(self._ar_lat) - 1)
        ag_lv = np.minimum(tp_lv + dp_lv, len(self._ag_lat) - 1)

        def tp_comm(numel: np.ndarray) -> np.ndarray:
            nbytes = per_class(numel) * samples * elem
            comm = self._ar_lat[ar_lv] + nbytes * self._ar_ibw[ar_lv]
            return np.where((etp > 1) & (nbytes > 0), comm, 0.0)

        fwd = per_class(pg.fwd_fixed) + samples * per_class(pg.fwd_slope)
        tp_fwd_comm = tp_comm(ga.fwd_comm_numel)
        saved = per_class(ga.saved_numel)
        opt_bytes = float(self.graph.optimizer_bytes_per_param)
        resh_bytes = per_class(ga.out_numel) * samples * elem
        columns = (
            fwd,
            per_class(pg.bwd_fixed) + samples * per_class(pg.bwd_slope),
            tp_fwd_comm,
            tp_comm(ga.bwd_comm_numel),
            per_class(ga.params * elem) / etp,
            per_class(ga.params) * opt_bytes / etp,
            saved * samples / etp * elem,
            fwd + tp_fwd_comm,  # recomputation repeats the forward
            (saved + per_class(ga.out_numel)) * samples / etp * elem,
            self._ag_lat[ag_lv] + resh_bytes * self._ag_ibw[ag_lv],
        )
        table = self._tables[mbs] = np.stack(
            [np.broadcast_to(c, fwd.shape).ravel() for c in columns]
        )
        table.setflags(write=False)
        return table

    def _stage_codes(self, stage: StageConfig) -> tuple:
        """Per-op ``(table column, tp_level * D + dp_level, dp_level)``."""
        dp_lv = self._levels.take(stage.dp)
        setting = self._levels.take(stage.tp) * self._num_dp_levels + dp_lv
        codes = (
            self._class_offset[stage.start:stage.end]
            + setting * self._num_opts + stage.tp_dim
        )
        return codes, setting, dp_lv

    def _cost_stage_base(self, stage: StageConfig, mbs: int) -> tuple:
        """``(StageCost fields the recompute flags cannot change,
        per-op recompute seconds, per-op saved-activation bytes, their
        sum)``: one gather of the stage's table columns and one row sum.
        Each row is contiguous, so numpy sums it pairwise exactly as a
        1-D ``sum`` of the per-op vector would."""
        codes, setting, dp_lv = self._stage_codes(stage)
        cols = self._class_table(mbs).take(codes, axis=1)
        *summed, act_total = cols[:len(_SUMMED) + 1].sum(axis=1).tolist()
        # One-way reshard; assembly charges it once forward, once back.
        change = setting[:-1] != setting[1:]
        reshard = float(np.where(change, cols[_RESHARD, :-1], 0.0).sum())
        # One dp allreduce per distinct dp degree in the stage (ops
        # sharing a degree share a process group), bucketed by level.
        counts = np.bincount(dp_lv)
        sums = np.bincount(dp_lv, weights=cols[_WEIGHT])
        levels = np.nonzero(counts[1:])[0] + 1
        dp_sync = float(
            np.sum(self._ar_lat[levels] + sums[levels] * self._ar_ibw[levels])
        )
        reserve = stage_allocator_reserve(
            cols[_TRANSIENT], safety_factor=self.reserve_safety_factor
        )
        egress = float(
            self.graph.arrays.out_numel[stage.end - 1] * mbs
            / float(stage.dp[-1]) * self._elem
        )
        fields = dict(
            zip(_SUMMED, summed), reshard_time=reshard, dp_sync_time=dp_sync,
            reserved_bytes=reserve, egress_bytes=egress,
        )
        # Owned copies: a view would pin every gathered row in the LRU.
        # Read-only, since stage_activation_bytes hands them out.
        rc_time, act_bytes = cols[_RECOMPUTE].copy(), cols[_ACTIVATION].copy()
        rc_time.setflags(write=False)
        act_bytes.setflags(write=False)
        return fields, rc_time, act_bytes, act_total

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
            payload, num_mb, self.memory_limit, stage_limits
        )


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

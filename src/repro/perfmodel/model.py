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
   none when the stage recomputes nothing; a deep stage's base gathers
   its time terms only when a full costing reads them.
2. A cheap assembly step combines the cached stage costs with the
   stage-count-dependent parts: pipeline p2p boundary transfers, 1F1B
   in-flight counts, the allocator view of peak memory, and the Eq. 2
   warmup/steady/cooldown totals, and returns the finished report.

Whole-config estimates are additionally memoized by configuration
identity (``ParallelConfig.cache_key``) in a second LRU, whose miss
counter (``num_estimates``) is Exp#4's "explored configurations" metric.
A recompute probe (:meth:`PerfModel.recompute_probe`) asks only "does
stage i fit with these flags?": set up once per greedy call, it keys
each variant without building it, and a miss prices that stage's Eq. 1
alone and leaves an Eq. 1-only entry in that LRU, counted as the
estimate it stands for; so does a miss of :meth:`PerfModel.eq1`, the
whole-config view recompute tuning reads, for every stage, and so
:meth:`PerfModel.objective` scores an OOM config, with no report.
Either kind of miss emits one ``perfmodel.estimate`` event carrying its
OOM verdict, so a sink observes what is priced and never changes it.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import gt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig, config_key
from ..parallel.stage import StageConfig, stage_digest
from ..profiling.database import ProfileDatabase, ProfiledGraph
from ..telemetry import DEBUG, CounterGroup, get_bus
from ..telemetry.events import PERFMODEL_ESTIMATE, PERFMODEL_FIRST_FEASIBLE
from .memory import stage_allocator_reserve
from .report import Eq1View, PerfReport, StageCost, StageReport

#: Bounds of the recompute-free stage-base LRU and of move_ops' relay
#: table (:class:`StageLRU`).  Each entry holds per-op vectors, so an
#: LRU is bounded by the ops it holds: it evicts only while it holds
#: more than ``STAGE_BASE_CACHE_SIZE`` entries *and* more than
#: ``STAGE_BASE_CACHE_OPS`` ops (1 MiB of float64 base vectors).  On
#: gpt3-350m, 99.6% of base reuses fall within 65,536 ops but only 85%
#: within 32 entries; on gpt-1000l the entry floor keeps 98% of reuses,
#: where 65,536 ops would keep 96%.
STAGE_BASE_CACHE_SIZE = 32
STAGE_BASE_CACHE_OPS = 65_536

#: A stage base of fewer ops is gathered whole, its time part with its
#: Eq. 1 part: there a second gather costs more than unread time rows.
SPLIT_BASE_OPS = 512


class StageLRU(OrderedDict):
    """Per-stage entries, least recent first, covering ``ops`` ops as
    ``num_ops(entry)`` counts them: evicts only while over both
    ``STAGE_BASE_CACHE_SIZE`` entries and ``STAGE_BASE_CACHE_OPS`` ops."""

    def __init__(self, num_ops: Callable[[object], int]) -> None:
        super().__init__()
        self.num_ops, self.ops = num_ops, 0

    def fetch(self, key, build: Callable[[], object]):
        """The entry at ``key``, built on a miss, as the most recent."""
        entry = self.pop(key, None)
        if entry is None:
            entry = build()
            self.ops += self.num_ops(entry)
        self[key] = entry
        max_entries, max_ops = STAGE_BASE_CACHE_SIZE, STAGE_BASE_CACHE_OPS
        while len(self) > max_entries and self.ops > max_ops:
            self.ops -= self.num_ops(self.popitem(last=False)[1])
        return entry


#: Class-setting table rows (:meth:`PerfModel._class_table`).  A base's
#: Eq. 1 part reads transient bytes, then activation bytes and these
#: (summed).  Its time part reads from ``_TIME`` on: weight bytes (for dp
#: sync), these (summed) and, last, one-way reshard seconds.
_EQ1_SUMMED = ("optimizer_bytes", "weight_bytes")
_TIME_SUMMED = ("fwd_time", "bwd_time", "tp_fwd_comm_time", "tp_bwd_comm_time")
_TRANSIENT, _ACTIVATION, _TIME = 0, 1, 3


class StageBase:
    """A base-LRU entry: a stage's recompute-free Eq. 1 part (``eq1``
    fields, per-op activation bytes, their sum) and, once a full costing
    needs it, its time part (``time`` fields, per-op recompute seconds)."""

    __slots__ = ("eq1", "act_bytes", "act_total", "time", "rc_time")

    def __init__(self, eq1: dict, act_bytes: np.ndarray, act_total: float):
        self.eq1, self.act_bytes, self.act_total = eq1, act_bytes, act_total
        self.time = self.rc_time = None


def _kept_activation(rc: np.ndarray, act_bytes: np.ndarray) -> float:
    """Eq. 1's activation bytes under flags ``rc``, some set:
    ``activation_kept_mask`` within one stage, where a recomputed op
    whose predecessor also recomputes keeps nothing."""
    kept = act_bytes.copy()
    kept[1:][rc[1:] & rc[:-1]] = 0.0
    return float(kept.sum())


def _log2_int(values: np.ndarray) -> np.ndarray:
    """Exact log2 of power-of-two int arrays (via the float exponent).

    ``frexp`` writes a power of two ``2**k`` as ``0.5 * 2**(k+1)``, so
    the binary exponent minus one is the exact integer log — no loop,
    no float ``log2`` rounding hazard.
    """
    return np.frexp(values.astype(np.float64))[1] - 1


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

        self.graph, self.cluster, self.database = graph, cluster, database
        self.profiled = ProfiledGraph(graph, database)
        self.memory_limit = float(cluster.device.memory_bytes)
        # Heterogeneous clusters: per-node compute scale relative to
        # the reference device the database was profiled on, and
        # per-node memory capacity.  ``None`` keeps the homogeneous
        # fast path bit-identical to the pre-hetero model.
        self._node_scale = self._node_mem = None
        if cluster.is_heterogeneous:
            reference = cluster.device.sustained_flops(graph.precision)
            self._node_scale = np.array([
                reference / spec.sustained_flops(graph.precision)
                for spec in cluster.node_devices
            ])
            self._node_mem = np.array([
                float(spec.memory_bytes) for spec in cluster.node_devices
            ])
        if reserve_safety_factor is None:
            reserve_safety_factor = RESERVE_SAFETY_FACTOR
        self.reserve_safety_factor = reserve_safety_factor
        self._elem = graph.elem_bytes
        # Reports, or the peaks list of a probe's Eq. 1-only entry.
        self._cache: "OrderedDict[bytes, PerfReport | list]" = OrderedDict()
        self._cache_size = cache_size
        self._stage_cache: "OrderedDict[Tuple[bytes, int], StageCost]" = (
            OrderedDict()
        )
        self._stage_cache_size = stage_cache_size
        self._base_cache = StageLRU(lambda base: len(base.act_bytes))
        # The Counter objects are hoisted to slots-backed attributes,
        # because counting sits on the estimator hot path.
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

        ar, ag = map(database.collective, ("allreduce", "allgather"))
        self._ar_lat, self._ar_ibw = ar.latency, ar.inv_bandwidth
        self._ag_lat, self._ag_ibw = ag.latency, ag.inv_bandwidth
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
        return report

    def eq1(self, config: ParallelConfig) -> Eq1View:
        """``estimate(config).eq1()``, from either kind of entry.  A miss
        (as for a probe) prices only each stage's Eq. 1 and stores it as
        the Eq. 1-only entry an estimate counts."""
        key = config.cache_key()
        peaks = self._cache.get(key)
        if peaks is not None:
            self._cache.move_to_end(key)
            self._c_config_hits.value += 1
            if not isinstance(peaks, list):
                return peaks.eq1()
        n, mbs = config.num_stages, config.microbatch_size
        num_mb = config.num_microbatches(self.graph.global_batch_size)
        in_flight = [min(n - i, num_mb) for i in range(n)]
        limits = self._stage_limits(config)
        if peaks is None:
            peaks = []
            for s, k in zip(config.stages, in_flight):
                # A cached cost (peeked: no reorder, no count) holds the
                # base's Eq. 1 terms; same operand order either way.
                cost = self._stage_cache.get((s.digest(), mbs))
                peaks.append(
                    self._eq1_peak(self._stage_base(s, mbs), s.recompute, k)
                    if cost is None
                    else cost.weight_bytes + cost.optimizer_bytes
                    + cost.activation_bytes * k + cost.reserved_bytes
                )
            self._record_miss(key, peaks, any(map(gt, peaks, limits)))
        return Eq1View(list(peaks), in_flight, limits)

    def _stage_limits(self, config: ParallelConfig) -> Sequence[float]:
        """Each stage's memory limit, as :meth:`_assemble` derives it."""
        if self._node_scale is None:
            return [self.memory_limit] * config.num_stages
        return self._stage_factors([s.num_devices for s in config.stages])[1]

    def recompute_probe(
        self, config: ParallelConfig, stage_index: int, eq1: Eq1View
    ) -> Callable[[np.ndarray], Tuple[float, bytes]]:
        """A probe of stage ``stage_index`` of ``config``, whose Eq. 1
        view is ``eq1``: called with recompute flags, it returns the
        stage's Eq. 1 peak and digest under them without building that
        variant, keyed and counted as :meth:`estimate` of the variant
        would be.  A miss prices only the stage's Eq. 1 (:meth:`_eq1_peak`
        of the base the setup's first miss looks up) and stores the peaks
        as an Eq. 1-only entry, which a later :meth:`estimate` replaces."""
        stage, mbs = config.stages[stage_index], config.microbatch_size
        digests = [s.digest() for s in config.stages]
        base_digest = stage.base_digest()
        in_flight, limit = eq1.in_flight[stage_index], eq1.limits[stage_index]
        others_oom = any(
            peak > cap
            for i, (peak, cap) in enumerate(zip(eq1.peaks, eq1.limits))
            if i != stage_index
        )
        cache, base = self._cache, None

        def probe(recompute: np.ndarray) -> Tuple[float, bytes]:
            nonlocal base
            digest = digests[stage_index] = stage_digest(base_digest, recompute)
            key = config_key(mbs, digests)
            hit = cache.get(key)
            if hit is not None:
                cache.move_to_end(key)
                self._c_config_hits.value += 1
                return getattr(hit, "peak_memories", hit)[stage_index], digest
            if base is None:
                base = self._stage_base(stage, mbs)
            peak = self._eq1_peak(base, recompute, in_flight)
            peaks = list(eq1.peaks)
            peaks[stage_index] = peak
            self._record_miss(key, peaks, others_oom or peak > limit)
            return peak, digest

        return probe

    def _record_miss(self, key: bytes, entry, oom: bool) -> None:
        """Insert a config-LRU miss, evicting the oldest entry when full,
        and count it; the first feasible one is recorded.  Either kind of
        entry emits one ``perfmodel.estimate`` event, carrying ``oom``."""
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        self._cache[key] = entry
        self._c_estimates.value += 1
        bus = get_bus()
        if self.first_feasible_estimate is None and not oom:
            self.first_feasible_estimate = self._c_estimates.value
            bus.emit(
                PERFMODEL_FIRST_FEASIBLE,
                source="perfmodel",
                level=DEBUG,
                estimates=self.first_feasible_estimate,
            )
        if bus.wants(PERFMODEL_ESTIMATE, DEBUG):
            bus.emit(
                PERFMODEL_ESTIMATE, source="perfmodel", level=DEBUG, oom=oom
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
        feasible" notion of better).  That score reads only Eq. 1, so an
        Eq. 1-only entry or a miss (priced as by :meth:`eq1`) gets a
        report only if it fits, whatever sinks are attached."""
        key = config.cache_key()
        entry = self._cache.get(key)
        if entry is None:
            peaks, _, limits = self.eq1(config)
        else:
            self._cache.move_to_end(key)
            self._c_config_hits.value += 1
            if not isinstance(entry, list):
                return self.objective_from_report(entry)
            peaks, limits = entry, self._stage_limits(config)
        if any(map(gt, peaks, limits)):
            return self._oom_score(peaks, limits)
        report = self._cache[key] = self._estimate_uncached(config)
        return report.iteration_time

    def objective_from_report(self, report: PerfReport) -> float:
        """The :meth:`objective` scoring rule for an existing report.

        Split out so callers holding a report (for example one from
        :meth:`estimate`) score it without a second cache lookup.
        """
        if not report.is_oom:
            return report.iteration_time
        peaks, _, limits = report.eq1()
        return self._oom_score(peaks, limits)

    def _oom_score(self, peaks, limits: Sequence[float]) -> float:
        """An OOM config's objective: the penalty plus the summed
        overflow of each stage past its limit, relative to the smallest
        limit (every stage's, on a homogeneous cluster)."""
        overflow = sum(
            max(0.0, m - limit) for m, limit in zip(peaks, limits)
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
            return base.act_bytes
        codes, _, _ = self._stage_codes(stage)
        return self._class_table(mbs)[_ACTIVATION].take(codes)

    def _cost_stage_uncached(
        self, stage: StageConfig, mbs: int, fresh: bool = False
    ) -> StageCost:
        """A stage's recompute-free base, both parts, plus its two recompute
        terms, which apply the flags to per-op base vectors with the same
        values and reductions as costing from scratch — bit-identical
        either way.  A stage that recomputes nothing keeps every
        activation: its terms are the base's activation total and zero."""
        base = self._stage_base(stage, mbs, fresh)
        if base.time is None:
            base.time, base.rc_time = self._cost_stage_time(stage, mbs)
        rc = stage.recompute
        if not rc.any():
            return StageCost(
                recompute_time=0.0, activation_bytes=base.act_total,
                **base.eq1, **base.time,
            )
        return StageCost(
            recompute_time=float(np.where(rc, base.rc_time, 0.0).sum()),
            activation_bytes=_kept_activation(rc, base.act_bytes),
            **base.eq1, **base.time,
        )

    def _stage_base(self, stage: StageConfig, mbs: int, fresh=False):
        """:meth:`_cost_stage_base`, through the base LRU unless fresh or
        stage caching is off."""
        if fresh or self._stage_cache_size <= 0:
            return self._cost_stage_base(stage, mbs)
        return self._base_cache.fetch(
            (stage.base_digest(), mbs),
            lambda: self._cost_stage_base(stage, mbs),
        )

    @staticmethod
    def _eq1_peak(base: StageBase, recompute, in_flight) -> float:
        """Eq. 1 peak of a stage with base ``base`` under flags
        ``recompute``, in :attr:`StageReport.peak_memory`'s operand order."""
        activation = base.act_total
        if recompute.any():
            activation = _kept_activation(recompute, base.act_bytes)
        eq1 = base.eq1
        return (
            eq1["weight_bytes"] + eq1["optimizer_bytes"]
            + activation * in_flight + eq1["reserved_bytes"]
        )

    def _class_table(self, mbs: int) -> np.ndarray:
        """The read-only ``[row, class·T·D·O]`` table at ``mbs``, each
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
        saved = per_class(ga.saved_numel)
        opt_bytes = float(self.graph.optimizer_bytes_per_param)
        resh_bytes = per_class(ga.out_numel) * samples * elem
        columns = (
            (saved + per_class(ga.out_numel)) * samples / etp * elem,
            saved * samples / etp * elem,
            per_class(ga.params) * opt_bytes / etp,
            per_class(ga.params * elem) / etp,
            fwd,
            per_class(pg.bwd_fixed) + samples * per_class(pg.bwd_slope),
            tp_comm(ga.fwd_comm_numel),
            tp_comm(ga.bwd_comm_numel),
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

    def _cost_stage_base(self, stage: StageConfig, mbs: int) -> StageBase:
        """The stage's base, its time part included under
        ``SPLIT_BASE_OPS`` ops: one gather of the rows its parts read and
        one row sum per part.  Each row is contiguous, so numpy sums it
        pairwise exactly as a 1-D ``sum`` of the per-op vector would."""
        codes, setting, dp_lv = self._stage_codes(stage)
        timed = stage.num_ops < SPLIT_BASE_OPS
        table = self._class_table(mbs)
        cols = (table if timed else table[:_TIME + 1]).take(codes, axis=1)
        act_total, *summed = cols[_ACTIVATION:_TIME + 1].sum(axis=1).tolist()
        reserve = stage_allocator_reserve(
            cols[_TRANSIENT], safety_factor=self.reserve_safety_factor
        )
        # Owned (a view pins every gathered row) and read-only, as
        # stage_activation_bytes hands it out.
        act_bytes = cols[_ACTIVATION].copy()
        act_bytes.setflags(write=False)
        eq1 = dict(zip(_EQ1_SUMMED, summed), reserved_bytes=reserve)
        base = StageBase(eq1, act_bytes, act_total)
        if timed:
            base.time, base.rc_time = self._cost_stage_time(
                stage, mbs, (cols[_TIME:], setting, dp_lv)
            )
        return base

    def _cost_stage_time(self, stage: StageConfig, mbs: int, gathered=None):
        """The time part of the stage's base, ``(fields, per-op recompute
        seconds)``, from ``gathered`` (the base gather's time rows and the
        other two :meth:`_stage_codes`) or its own gather: a base holds no
        codes, as at 8,004 ops that costs more RSS than recomputing them."""
        if gathered is None:
            codes, setting, dp_lv = self._stage_codes(stage)
            cols = self._class_table(mbs)[_TIME:].take(codes, axis=1)
        else:
            cols, setting, dp_lv = gathered
        summed = cols[1:len(_TIME_SUMMED) + 1].sum(axis=1).tolist()
        # One-way reshard; assembly charges it once forward, once back.
        change = setting[:-1] != setting[1:]
        reshard = float(np.where(change, cols[-1, :-1], 0.0).sum())
        # One dp allreduce per distinct dp degree above 1 in the stage
        # (ops sharing a degree share a process group), bucketed by level.
        dp_sync = 0.0
        if dp_lv.any():
            counts = np.bincount(dp_lv)
            sums = np.bincount(dp_lv, weights=cols[0])
            levels = np.nonzero(counts[1:])[0] + 1
            dp_sync = float(np.sum(
                self._ar_lat[levels] + sums[levels] * self._ar_ibw[levels]
            ))
        egress = float(
            self.graph.arrays.out_numel[stage.end - 1] * mbs
            / float(stage.dp[-1]) * self._elem
        )
        rc_time = cols[1] + cols[3]  # recomputation repeats fwd + tp-fwd
        rc_time.setflags(write=False)
        return dict(
            zip(_TIME_SUMMED, summed), reshard_time=reshard,
            dp_sync_time=dp_sync, egress_bytes=egress,
        ), rc_time

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
        """The finished report, in one pass over the stages: pipeline
        p2p, the 1F1B in-flight counts (Eq. 1) and the Eq. 2 totals.

        Over a handful of stages plain Python floats beat numpy's
        per-call overhead.  A stage's Eq. 2 pair time is its forward
        half plus its backward half, and the iteration time is the
        largest warmup prefix + ``num_mb`` pairs + dp sync over stages.
        """
        devices = [stage.num_devices for stage in config.stages]
        num_mb = config.num_microbatches(self.graph.global_batch_size)
        scales = stage_limits = None
        factors = self._stage_factors(devices)
        if factors is not None:
            scales, stage_limits = factors
        p2p_lat, p2p_ibw = self._p2p_lat, self._p2p_ibw
        gpn, num_gpus = self.cluster.gpus_per_node, self.cluster.num_gpus
        num_stages = len(costs)
        stages = []
        prefix, iteration_time, p2p_in, end = 0.0, -np.inf, 0.0, 0
        for i, cost in enumerate(costs):
            # Pipeline p2p to the next stage over the boundary's link.
            end += devices[i]
            p2p_out = 0.0
            if i < num_stages - 1 and cost.egress_bytes > 0:
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
            stages.append(StageReport(
                fwd, bwd, recompute,
                cost.tp_fwd_comm_time + cost.tp_bwd_comm_time,
                cost.reshard_time * 2.0, p2p_in + p2p_out,
                cost.dp_sync_time, cost.weight_bytes, cost.optimizer_bytes,
                cost.activation_bytes, min(num_stages - i, num_mb),
                cost.reserved_bytes,
            ))
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
        return PerfReport(
            tuple(stages), num_mb, iteration_time, self.memory_limit,
            stage_limits,
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

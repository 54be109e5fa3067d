"""Incremental stage-level estimation: equivalence + cache semantics.

The performance model memoizes per-stage costs and assembles whole
configurations from them.  These tests pin the contract that makes the
optimization safe: the cached/incremental path must be *bit-identical*
to costing every stage from scratch, across random primitive walks,
and the search must reach the same outcome with stage caching on, off,
or fanned out over worker processes.
"""

import contextlib
import dataclasses
import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DeviceSpec, mixed_cluster, paper_cluster
from repro.core import (
    AcesoSearch,
    AcesoSearchOptions,
    ApplyContext,
    SearchBudget,
    apply_primitive,
    identify_bottleneck,
    rank_bottlenecks,
    search_all_stage_counts,
    tune_recompute,
)
from repro.core import arguments as arguments_module
from repro.ir.models import build_model
from repro.ir.models.synthetic import build_synthetic
from repro.parallel import StageConfig, balanced_config, changed_stages
from repro.perfmodel import PerfModel
from repro.perfmodel import model as model_module
from repro.profiling import SimulatedProfiler
from repro.runtime.memory_trace import activation_kept_mask
from repro.telemetry import RingBufferSink, TelemetryBus, using_bus
from repro.telemetry.events import PERFMODEL_ESTIMATE

from conftest import make_tiny_gpt

PRIMITIVES = [
    "inc-op#", "dec-op#", "inc-mbs", "dec-mbs",
    "inc-dp", "dec-dp", "inc-tp", "dec-tp", "inc-rc", "dec-rc",
]


def assert_reports_identical(a, b):
    """Every PerfReport field equal to the last ulp (no approx)."""
    assert a.num_microbatches == b.num_microbatches
    assert a.iteration_time == b.iteration_time
    assert a.memory_limit == b.memory_limit
    assert len(a.stages) == len(b.stages)
    for sa, sb in zip(a.stages, b.stages):
        for name in sa._fields:
            va, vb = getattr(sa, name), getattr(sb, name)
            assert va == vb, f"stage field {name}: {va!r} != {vb!r}"


def random_walk(model, graph, cluster, config, rng, steps=12):
    """Apply random primitives, yielding each visited configuration."""
    for _ in range(steps):
        report = model.estimate(config)
        ctx = ApplyContext(
            graph=graph,
            cluster=cluster,
            perf_model=model,
            config=config,
            report=report,
            bottleneck=rank_bottlenecks(report)[0],
        )
        name = PRIMITIVES[int(rng.integers(len(PRIMITIVES)))]
        candidates = apply_primitive(name, ctx)
        if not candidates:
            continue
        config = candidates[int(rng.integers(len(candidates)))]
        yield config


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_matches_full_reestimation(self, seed):
        """Random primitive walks on synthetic graphs: the memoized
        estimate is bit-identical to costing every stage fresh."""
        graph = build_synthetic(24, seed=seed)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        rng = np.random.default_rng(seed)
        config = balanced_config(graph, cluster, 4)
        checked = 0
        for visited in random_walk(model, graph, cluster, config, rng):
            warm = model.estimate(visited)
            fresh = model.estimate_fresh(visited)
            assert_reports_identical(warm, fresh)
            checked += 1
        assert checked > 0
        # The walk produced genuine stage-cache reuse, not all misses.
        info = model.cache_info()
        assert info["num_stage_hits"] > 0

    def test_dirty_stage_hints_match_identity(self):
        """changed_stages only reports stages whose object changed, and
        every shared stage is genuinely untouched."""
        graph = build_synthetic(24, seed=7)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        rng = np.random.default_rng(7)
        parent = balanced_config(graph, cluster, 4)
        for child in random_walk(model, graph, cluster, parent, rng):
            dirty = set(changed_stages(child, parent))
            if child.num_stages == parent.num_stages:
                for i, (a, b) in enumerate(
                    zip(child.stages, parent.stages)
                ):
                    if i not in dirty:
                        assert a is b
                        np.testing.assert_array_equal(a.tp, b.tp)
                        np.testing.assert_array_equal(
                            a.recompute, b.recompute
                        )
            parent = child

    def test_num_estimates_semantics_preserved(self):
        """Exp#4's explored-configs metric: one increment per unique
        configuration, never per stage-cache event."""
        graph = build_synthetic(16, seed=1)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        config = balanced_config(graph, cluster, 2)
        for _ in range(5):
            model.estimate(config)
        assert model.num_estimates == 1
        # A different stage count shares no config-cache entry but may
        # share stage work; the metric still counts the configuration.
        model.estimate(balanced_config(graph, cluster, 4))
        assert model.num_estimates == 2
        # estimate_fresh never touches the metric.
        model.estimate_fresh(config)
        assert model.num_estimates == 2


class TestRecomputeDeltaCosting:
    """Stages that differ only in recompute flags share one cached
    recompute-free base; the two recompute terms are re-derived."""

    @pytest.mark.parametrize("base_cache_ops", [1, 24, 1_000_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recompute_walk_matches_fresh_under_eviction(
        self, monkeypatch, seed, base_cache_ops
    ):
        """Random recompute-flag walks, with occasional tp edits that
        churn the base LRU: every estimate is bit-identical to costing
        from scratch, the LRU holds no more ops than its bound allows
        (beyond its one-entry floor), and a base is re-costed only
        after the LRU evicted it; its time part is costed at most once
        per costing of its Eq. 1 part."""
        monkeypatch.setattr(model_module, "STAGE_BASE_CACHE_SIZE", 1)
        monkeypatch.setattr(
            model_module, "STAGE_BASE_CACHE_OPS", base_cache_ops
        )
        graph = build_synthetic(24, seed=seed)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        reference = PerfModel(graph, cluster, database)
        bases, times = [], []
        original, original_time = model._cost_stage_base, model._cost_stage_time

        def counted(stage, mbs):
            bases.append(stage.base_digest())
            return original(stage, mbs)

        def counted_time(stage, mbs, gathered=None):
            times.append(stage.base_digest())
            return original_time(stage, mbs, gathered)

        model._cost_stage_base = counted
        model._cost_stage_time = counted_time
        rng = np.random.default_rng(seed)
        config = balanced_config(graph, cluster, 2)  # 2 GPUs per stage
        evicted = set()
        for _ in range(60):
            index = int(rng.integers(config.num_stages))
            config = config.mutated_copy([index])
            stage = config.stages[index]
            if rng.random() < 0.15 and stage.num_devices >= 2:
                stage.set_uniform_parallel(int(rng.choice([1, 2])))
            else:
                flips = rng.random(stage.num_ops) < 0.3
                stage.recompute[flips] = ~stage.recompute[flips]
            held_before = set(model._base_cache)
            assert_reports_identical(
                model.estimate(config), reference.estimate_fresh(config)
            )
            cache = model._base_cache
            evicted |= {digest for digest, _ in held_before - set(cache)}
            held_ops = sum(len(base.act_bytes) for base in cache.values())
            assert model._base_cache.ops == held_ops
            assert held_ops <= base_cache_ops or len(cache) <= 1
        # Recompute-only misses reused a base; a base is re-costed only
        # after the LRU evicted it.
        assert len(bases) < model.num_stage_costs
        assert all(times.count(d) <= bases.count(d) for d in times)
        recosted = {digest for digest in bases if bases.count(digest) > 1}
        assert recosted <= evicted
        if base_cache_ops < graph.num_ops:
            assert recosted
        if base_cache_ops >= 1_000_000:
            assert not evicted and not recosted

    def test_recompute_terms_match_their_definition(self):
        """Recomputing every op repeats its forward and forward
        collectives, and keeps only the first op's activation."""
        graph = make_tiny_gpt()
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        config = balanced_config(graph, cluster, 2).mutated_copy([0])
        config.stages[0].set_uniform_parallel(2)
        plain = model._cost_stage(config.stages[0], config.microbatch_size)
        everything = config.mutated_copy([0])
        everything.stages[0].recompute[:] = True
        recomputed = model._cost_stage(
            everything.stages[0], config.microbatch_size
        )
        assert plain.tp_fwd_comm_time > 0
        assert plain.recompute_time == 0.0
        assert recomputed.recompute_time == pytest.approx(
            plain.fwd_time + plain.tp_fwd_comm_time
        )
        assert recomputed.activation_bytes == (
            model.stage_activation_bytes(
                config.stages[0], config.microbatch_size
            )[0]
        )
        assert len(model._base_cache) == 1

    def test_activation_bytes_read_the_base_lru(self, monkeypatch):
        """``stage_activation_bytes`` hands out the base LRU's read-only
        vector on a hit and gathers after eviction, bit-identical to a
        model without stage caches either way, and leaves the LRU's key
        order and op count alone."""
        monkeypatch.setattr(model_module, "STAGE_BASE_CACHE_SIZE", 2)
        monkeypatch.setattr(model_module, "STAGE_BASE_CACHE_OPS", 1)
        graph = build_synthetic(24, seed=1)
        cluster = paper_cluster(8)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        gather = PerfModel(graph, cluster, database, stage_cache_size=0)
        config = balanced_config(graph, cluster, 3)
        mbs = config.microbatch_size
        model.estimate(config)
        cache = model._base_cache
        keys, held_ops = list(cache), model._base_cache.ops
        # Two-entry floor: stage 0's base was evicted.
        assert keys == [
            (stage.base_digest(), mbs) for stage in config.stages[1:]
        ]
        for stage in config.stages:
            activation = model.stage_activation_bytes(stage, mbs)
            want = gather.stage_activation_bytes(stage, mbs)
            assert activation.dtype == want.dtype
            assert activation.tobytes() == want.tobytes()
            assert list(cache) == keys
            assert model._base_cache.ops == held_ops
        hit = model.stage_activation_bytes(config.stages[1], mbs)
        assert hit is cache[keys[0]].act_bytes
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0] = 0.0
        assert not cache[keys[0]].rc_time.flags.writeable

    def test_fresh_estimates_bypass_the_base_cache(self):
        graph = build_synthetic(16, seed=4)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        model.estimate_fresh(balanced_config(graph, cluster, 2))
        assert len(model._base_cache) == 0
        off = PerfModel(graph, cluster, database, stage_cache_size=0)
        off.estimate(balanced_config(graph, cluster, 2))
        assert len(off._base_cache) == 0


def frozen_fancy_index_cost_stage_base(model, stage, mbs):
    """Frozen copy of ``PerfModel._cost_stage_base`` as it computed
    every per-op term from the op's own profile, comm-numel and
    collective rows with multi-axis fancy indexing, before those terms
    moved into the class-setting tables.  ``estimate_fresh`` and
    ``stage_cache_size=0`` read the same tables as the cached path, so
    this copy is the tables' only independent oracle."""
    from repro.perfmodel.memory import stage_allocator_reserve
    from repro.perfmodel.model import _log2_int

    graph, ga, pg = model.graph, model.graph.arrays, model.profiled
    elem = model._elem
    idx = np.arange(stage.start, stage.end)
    span = slice(stage.start, stage.end)
    tp, dp, tp_dim = stage.tp, stage.dp, stage.tp_dim
    etp = np.minimum(tp, ga.max_tp[span])
    tp_lv = _log2_int(tp)
    etp_lv = _log2_int(etp)
    samples = mbs / dp.astype(np.float64)

    fwd = pg.fwd_fixed[idx, tp_lv, tp_dim] + samples * pg.fwd_slope[
        idx, tp_lv, tp_dim
    ]
    bwd = pg.bwd_fixed[idx, tp_lv, tp_dim] + samples * pg.bwd_slope[
        idx, tp_lv, tp_dim
    ]

    comm_mask = etp > 1
    fwd_bytes = ga.fwd_comm_numel[idx, tp_dim] * samples * elem
    bwd_bytes = ga.bwd_comm_numel[idx, tp_dim] * samples * elem
    tp_fwd_comm = np.where(
        comm_mask & (fwd_bytes > 0),
        model._ar_lat[etp_lv] + fwd_bytes * model._ar_ibw[etp_lv],
        0.0,
    )
    tp_bwd_comm = np.where(
        comm_mask & (bwd_bytes > 0),
        model._ar_lat[etp_lv] + bwd_bytes * model._ar_ibw[etp_lv],
        0.0,
    )

    reshard = 0.0
    if stage.num_ops > 1:
        change = (tp[:-1] != tp[1:]) | (dp[:-1] != dp[1:])
        group_lv = _log2_int(tp[:-1] * dp[:-1])
        resh_bytes = ga.out_numel[span][:-1] * samples[:-1] * elem
        reshard = float(
            np.where(
                change,
                model._ag_lat[group_lv]
                + resh_bytes * model._ag_ibw[group_lv],
                0.0,
            ).sum()
        )

    weight_bytes = ga.params[span] * elem / etp
    dp_lv = _log2_int(dp)
    counts = np.bincount(dp_lv)
    sums = np.bincount(dp_lv, weights=weight_bytes)
    levels = np.nonzero(counts[1:])[0] + 1
    dp_sync = float(
        np.sum(model._ar_lat[levels] + sums[levels] * model._ar_ibw[levels])
    )

    act_bytes = ga.saved_numel[span] * samples / etp * elem
    optimizer_bytes = (
        ga.params[span] * float(graph.optimizer_bytes_per_param) / etp
    )
    transient = (
        (ga.saved_numel[span] + ga.out_numel[span]) * samples / etp * elem
    )
    reserve = stage_allocator_reserve(
        transient, safety_factor=model.reserve_safety_factor
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
    return fields, fwd + tp_fwd_comm, act_bytes


@functools.lru_cache(maxsize=None)
def synthetic_model(seed):
    graph = build_synthetic(40, seed=seed)
    cluster = paper_cluster(8)
    database = SimulatedProfiler(cluster, seed=seed).profile(graph)
    return PerfModel(graph, cluster, database)


@functools.lru_cache(maxsize=None)
def capped_synthetic_model(seed, gpus, reserve_safety_factor):
    """A synthetic graph whose every third op caps tp at 2 or 4, so tp
    above ``max_tp`` clamps at a level between 1 and tp, on a
    ``gpus``-GPU cluster (1 to 5 dp levels)."""
    graph = build_synthetic(40, seed=seed)
    ops = [
        dataclasses.replace(op, max_tp=min(op.max_tp, 2 << (i // 3 % 2)))
        if i % 3 == 0 else op
        for i, op in enumerate(graph.ops)
    ]
    graph = dataclasses.replace(graph, ops=ops)
    cluster = paper_cluster(gpus)
    database = SimulatedProfiler(cluster, seed=seed).profile(graph)
    return PerfModel(
        graph, cluster, database,
        reserve_safety_factor=reserve_safety_factor,
    )


class TestClassSettingTables:
    """Stage costing gathers every per-op term from one table per
    microbatch size, indexed by (cost class, tp level, dp level,
    option).  Every path reads those tables, so they are checked
    against the frozen per-op costing above."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 3),
        gpus=st.sampled_from([1, 2, 8, 16]),
        reserve_safety_factor=st.sampled_from([None, 1.25]),
        data=st.data(),
    )
    def test_matches_frozen_per_op_costing(
        self, seed, gpus, reserve_safety_factor, data
    ):
        """Random stages on 1- to 16-GPU clusters with mixed per-op
        tp/dp, tp above an op's ``max_tp``, padded partition options
        (tp_dim past an op's real option count), any mbs and either
        allocator safety factor: the gathered base costing (both parts,
        field by field, gathered apart or together) and
        ``stage_activation_bytes`` are bit-identical to the frozen per-op
        costing."""
        model = capped_synthetic_model(seed, gpus, reserve_safety_factor)
        ga = model.graph.arrays
        num_ops = model.graph.num_ops
        assert np.any(ga.num_options == 1)  # padding
        assert {1, 2, 4} <= set(ga.max_tp.tolist())  # clamps
        start = data.draw(st.integers(0, num_ops - 1), label="start")
        end = data.draw(st.integers(start + 1, num_ops), label="end")
        n = end - start
        devices = data.draw(st.sampled_from(
            [d for d in (1, 2, 4, 8, 16) if d <= gpus]
        ), label="devices")
        degrees = [t for t in (1, 2, 4, 8, 16) if t <= devices]
        tp = np.array(data.draw(st.lists(
            st.sampled_from(degrees), min_size=n, max_size=n
        ), label="tp"), dtype=np.int64)
        max_opts = model.profiled.fwd_fixed.shape[2]
        stage = StageConfig(
            start=start,
            end=end,
            num_devices=devices,
            tp=tp,
            dp=devices // tp,
            tp_dim=np.array(data.draw(st.lists(
                st.integers(0, max_opts - 1), min_size=n, max_size=n
            ), label="tp_dim"), dtype=np.int64),
            recompute=np.zeros(n, dtype=bool),
        )
        mbs = data.draw(st.sampled_from([1, 2, 4, 8, 16]), label="mbs")

        want_fields, want_rc, want_act = frozen_fancy_index_cost_stage_base(
            model, stage, mbs
        )
        whole = model._cost_stage_base(stage, mbs)
        with mock.patch.object(model_module, "SPLIT_BASE_OPS", 0):
            base = model._cost_stage_base(stage, mbs)
        assert base.time is None
        base.time, base.rc_time = model._cost_stage_time(stage, mbs)
        for base in (base, whole):
            assert base.eq1.keys().isdisjoint(base.time)
            assert {**base.eq1, **base.time} == want_fields
            assert base.rc_time.tobytes() == want_rc.tobytes()
            assert base.act_bytes.tobytes() == want_act.tobytes()
            assert base.act_total == float(want_act.sum())
        activation = model.stage_activation_bytes(stage, mbs)
        assert activation.tobytes() == want_act.tobytes()

    def test_base_lru_holds_owned_vectors_it_accounts_for(self, monkeypatch):
        """After a short gpt3-350m search whose every base is gathered in
        two parts, every per-op vector in the base LRU owns its data (a
        view of the stage's gather would pin all of its table rows), is
        read-only and has one entry per stage op, an entry has its
        recompute seconds exactly when it has its time part (some have
        neither), and the LRU's op count is the sum of the stages'
        lengths."""
        monkeypatch.setattr(model_module, "SPLIT_BASE_OPS", 0)
        graph = build_model("gpt3-350m")
        cluster = paper_cluster(8)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(graph, cluster, database)
        num_ops = {}
        original = model._cost_stage_base

        def recorded(stage, mbs):
            num_ops[(stage.base_digest(), mbs)] = stage.num_ops
            return original(stage, mbs)

        model._cost_stage_base = recorded
        AcesoSearch(graph, cluster, model).run(
            balanced_config(graph, cluster, 4), SearchBudget(max_iterations=4)
        )
        cache = model._base_cache
        assert {base.time is None for base in cache.values()} == {
            False, True
        }
        for key, base in cache.items():
            assert (base.time is None) == (base.rc_time is None)
            for vec in (base.rc_time, base.act_bytes):
                if vec is not None:
                    assert vec.base is None and not vec.flags.writeable
                    assert len(vec) == num_ops[key]
        assert model._base_cache.ops == sum(num_ops[key] for key in cache)


class TestRecomputeTermsOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 3), data=st.data())
    def test_terms_match_the_executor_formula(self, seed, data):
        """Both recompute terms, from the base LRU and fresh, equal the
        executor's ``sum(act * activation_kept_mask(rc, stage_id))`` and
        the recomputed forward over the frozen base vectors, bit for
        bit, for all-off, all-on, alternating and random masks."""
        model = synthetic_model(seed)
        num_ops = model.graph.num_ops
        start = data.draw(st.integers(0, num_ops - 1), label="start")
        end = data.draw(st.integers(start + 1, num_ops), label="end")
        n = end - start
        devices = data.draw(st.sampled_from([1, 2, 4, 8]), label="gpus")
        tp = data.draw(
            st.sampled_from([t for t in (1, 2, 4, 8) if t <= devices]),
            label="tp",
        )
        mbs = data.draw(st.sampled_from([1, 2, 4, 8]), label="mbs")
        random_mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=n, max_size=n
        ), label="rc"))
        alternating = np.arange(n) % 2 == 0
        masks = (
            np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
            alternating, ~alternating, random_mask,
        )
        uniform = StageConfig.uniform(start, end, devices, tp=tp)
        _, want_rc, want_act = frozen_fancy_index_cost_stage_base(
            model, uniform, mbs
        )
        stage_id = np.full(n, 3, dtype=np.int64)
        for rc in masks:
            stage = uniform.clone()
            stage.recompute[:] = rc
            kept = activation_kept_mask(rc, stage_id)
            want_activation = float((want_act * kept).sum())
            want_recompute = float(np.where(rc, want_rc, 0.0).sum())
            for fresh in (True, False):
                cost = model._cost_stage_uncached(stage, mbs, fresh=fresh)
                assert cost.activation_bytes == want_activation
                assert cost.recompute_time == want_recompute


class CheckedModel(PerfModel):
    """A model whose every returned estimate is checked against costing
    every stage from scratch (which moves no counter)."""

    def estimate(self, config):
        report = super().estimate(config)
        assert_reports_identical(report, self.estimate_fresh(config))
        return report

    def eq1(self, config):
        view = super().eq1(config)
        assert view == self.estimate_fresh(config).eq1()
        return view


class BuildingModel(PerfModel):
    """Answers every recompute probe and Eq. 1 view by building the
    config and estimating it."""

    def recompute_probe(self, config, stage_index, eq1):
        def peak(recompute):
            variant = config.with_recompute(stage_index, recompute)
            stage = variant.stages[stage_index]
            return self.estimate(variant).peak_memories[stage_index], (
                stage.digest()
            )

        return peak

    def eq1(self, config):
        return self.estimate(config).eq1()


def assert_eq1_matches(eq1, report):
    """An Eq. 1 view equals ``report``'s, bit for bit."""
    want = report.eq1()
    assert list(eq1.peaks) == list(want.peaks)
    assert list(eq1.in_flight) == list(want.in_flight)
    assert list(eq1.limits) == list(want.limits)


def carried_view_checked(greedy):
    """``greedy`` that checks, after each call, that the Eq. 1 view it
    carries is the tuned (or untouched) config's, costed from scratch."""

    @functools.wraps(greedy)
    def run(perf_model, config, stage_index, eq1):
        tuned = greedy(perf_model, config, stage_index, eq1)
        current = config if tuned is None else tuned
        assert_eq1_matches(eq1, perf_model.estimate_fresh(current))
        return tuned

    return run


@functools.lru_cache(maxsize=None)
def probe_setup(seed, hetero, scale):
    """A 40-op synthetic graph on 4 GPUs with 10 MB devices, or on two
    2-GPU nodes with 8 MB and slower 12 MB devices, so recompute
    probes land on both sides of a stage's budget.  Every op's element
    counts are multiplied by ``scale``: whole byte counts add up alike
    in any order, so only fractional ones show Eq. 1's operand order."""
    graph = build_synthetic(40, seed=seed)
    ops = [
        dataclasses.replace(
            op, params=op.params * scale, out_numel=op.out_numel * scale,
            saved_numel=op.saved_numel * scale,
        )
        for op in graph.ops
    ]
    graph = dataclasses.replace(graph, ops=ops)
    mb = 2 ** 20
    if hetero:
        cluster = mixed_cluster([
            DeviceSpec(name="small", memory_bytes=8 * mb),
            DeviceSpec(name="slow", memory_bytes=12 * mb, efficiency=0.3),
        ], gpus_per_node=2)
    else:
        cluster = ClusterSpec(
            num_nodes=1, gpus_per_node=4,
            device=DeviceSpec(name="tight", memory_bytes=10 * mb),
        )
    return graph, cluster, SimulatedProfiler(cluster, seed=seed).profile(graph)


class TestRecomputeProbe:
    """A recompute probe prices one stage's Eq. 1 instead of building
    and estimating the variant, and ``tune_recompute`` carries an Eq. 1
    view instead of re-estimating; nothing observable may tell either
    apart from building and estimating."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2),
        hetero=st.booleans(),
        stages=st.sampled_from([1, 2, 4]),
        mbs=st.sampled_from([1, 4, 16]),
        cache_size=st.sampled_from([2, 500_000]),
        stage_cache_size=st.sampled_from([0, 200_000]),
        scale=st.sampled_from([1, 1.1]),
        split_ops=st.sampled_from([0, model_module.SPLIT_BASE_OPS]),
        debug=st.booleans(),
        data=st.data(),
    )
    def test_probe_matches_building_and_estimating(
        self, seed, hetero, stages, mbs, cache_size, stage_cache_size,
        scale, split_ops, debug, data,
    ):
        """Interleaved probes (several per setup), estimates of probed
        variants, walks onto them, primitives (which move tp and dp) and
        ``tune_recompute`` calls over several stages: each probe's key
        is the built variant's ``cache_key()`` and its peak is the built
        variant's estimated peak, bit for bit; after every tuned stage
        the carried Eq. 1 view equals the tuned config's, costed from
        scratch; every estimate equals costing from scratch; and
        estimate counts, config hits and ``first_feasible_estimate``
        match a model that builds and estimates every probe, with or
        without an LRU that evicts, a stage cache, bases gathered in two
        parts, or a DEBUG sink."""
        graph, cluster, database = probe_setup(seed, hetero, scale)
        model = CheckedModel(
            graph, cluster, database,
            cache_size=cache_size, stage_cache_size=stage_cache_size,
        )
        reference = BuildingModel(
            graph, cluster, database, cache_size=cache_size
        )
        config = balanced_config(graph, cluster, stages, microbatch_size=mbs)
        bus = TelemetryBus()
        if debug:
            bus.add_sink(RingBufferSink())
        probed = []

        def check_probes(config, index):
            """Several probes of one setup, each against the built
            variant's key, estimated peak and peak from scratch."""
            probe = model.recompute_probe(
                config, index, model.estimate(config).eq1()
            )
            reference_probe = reference.recompute_probe(
                config, index, reference.estimate(config).eq1()
            )
            n = config.stages[index].num_ops
            for _ in range(data.draw(st.integers(1, 3), label="k")):
                mask = config.stages[index].recompute.copy()
                flips = data.draw(st.lists(
                    st.integers(0, n - 1), max_size=3
                ), label="flips")
                mask[flips] = ~mask[flips]
                if data.draw(st.booleans(), label="uniform"):
                    mask[:] = data.draw(st.booleans(), label="all")
                peak, digest = probe(mask)
                variant = config.with_recompute(index, mask.copy())
                assert next(reversed(model._cache)) == variant.cache_key()
                assert digest == variant.stages[index].digest()
                # The reference estimates the built variant.
                assert (peak, digest) == reference_probe(mask.copy())
                fresh = reference.estimate_fresh(variant)
                assert peak == fresh.peak_memories[index]
                probed.append(variant)

        with contextlib.ExitStack() as stack:
            stack.enter_context(using_bus(bus))
            stack.enter_context(mock.patch.object(
                model_module, "SPLIT_BASE_OPS", split_ops
            ))
            for name in ("greedy_recompute", "greedy_unrecompute"):
                stack.enter_context(mock.patch.object(
                    arguments_module, name,
                    carried_view_checked(getattr(arguments_module, name)),
                ))
            for _ in range(data.draw(st.integers(1, 12), label="steps")):
                report = model.estimate(config)
                reference_report = reference.estimate(config)
                index = data.draw(st.integers(0, stages - 1), label="stage")
                action = data.draw(st.sampled_from(
                    ["probe", "probe", "estimate", "walk", "tune",
                     "primitive"]
                ), label="action")
                if action == "tune":
                    indices = data.draw(st.lists(
                        st.integers(-1, stages), min_size=1, max_size=4
                    ), label="indices")
                    tuned = tune_recompute(model, config, indices)
                    want = tune_recompute(reference, config, indices)
                    assert tuned.cache_key() == want.cache_key()
                    config = tuned
                elif action == "primitive":
                    name = data.draw(st.sampled_from(PRIMITIVES), label="p")
                    got, want = (
                        apply_primitive(name, ApplyContext(
                            graph=graph, cluster=cluster, perf_model=m,
                            config=config, report=r,
                            bottleneck=identify_bottleneck(r),
                        ))
                        for m, r in ((model, report),
                                     (reference, reference_report))
                    )
                    assert [c.cache_key() for c in got] == [
                        c.cache_key() for c in want
                    ]
                    if got:
                        config = got[data.draw(
                            st.integers(0, len(got) - 1), label="pick"
                        )]
                        # A new tp or dp must not reuse a stale base.
                        for i in range(config.num_stages):
                            check_probes(config, i)
                elif action != "probe" and probed:
                    variant = data.draw(st.sampled_from(probed), label="v")
                    model.estimate(variant)
                    reference.estimate(variant)
                    if action == "walk":
                        config = variant
                else:
                    check_probes(config, index)
                assert model.num_estimates == reference.num_estimates
                assert (
                    model.counters["config_hits"].value
                    == reference.counters["config_hits"].value
                )
                assert (
                    model.first_feasible_estimate
                    == reference.first_feasible_estimate
                )

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2),
        hetero=st.booleans(),
        stages=st.sampled_from([1, 2, 4]),
        mbs=st.sampled_from([1, 4, 16]),
        cache_size=st.sampled_from([2, 500_000]),
        stage_cache_size=st.sampled_from([0, 200_000]),
        split_ops=st.sampled_from([0, model_module.SPLIT_BASE_OPS]),
        debug=st.booleans(),
        data=st.data(),
    )
    def test_eq1_view_matches_estimating(
        self, seed, hetero, stages, mbs, cache_size, stage_cache_size,
        split_ops, debug, data,
    ):
        """``PerfModel.eq1`` calls interleaved with probes, estimates,
        primitives and ``tune_recompute``, on configs the LRU holds as a
        report, as an Eq. 1-only entry or not at all: every view equals
        ``estimate_fresh(config).eq1()`` bit for bit (CheckedModel), and
        estimate counts, config hits and ``first_feasible_estimate``
        match a model that estimates every config, with or without an
        LRU that evicts, a stage cache, bases gathered in two parts, or a
        DEBUG sink, which gets one ``perfmodel.estimate`` event per
        miss."""
        graph, cluster, database = probe_setup(seed, hetero, 1.1)
        model = CheckedModel(
            graph, cluster, database,
            cache_size=cache_size, stage_cache_size=stage_cache_size,
        )
        reference = BuildingModel(
            graph, cluster, database, cache_size=cache_size
        )
        seen = [balanced_config(graph, cluster, stages, microbatch_size=mbs)]
        bus, sink = TelemetryBus(), RingBufferSink()
        if debug:
            bus.add_sink(sink)
        with using_bus(bus), mock.patch.object(
            model_module, "SPLIT_BASE_OPS", split_ops
        ):
            for _ in range(data.draw(st.integers(1, 16), label="steps")):
                config = data.draw(st.sampled_from(seen), label="config")
                index = data.draw(st.integers(0, stages - 1), label="stage")
                action = data.draw(st.sampled_from(
                    ["eq1", "eq1", "probe", "estimate", "tune", "primitive"]
                ), label="action")
                if action == "eq1":
                    assert model.eq1(config) == reference.eq1(config)
                elif action == "probe":
                    mask = config.stages[index].recompute.copy()
                    flips = data.draw(st.lists(
                        st.integers(0, mask.size - 1), max_size=3
                    ), label="flips")
                    mask[flips] = ~mask[flips]
                    peak = model.recompute_probe(
                        config, index, model.eq1(config)
                    )(mask)
                    assert peak == reference.recompute_probe(
                        config, index, reference.eq1(config)
                    )(mask.copy())
                    seen.append(config.with_recompute(index, mask))
                elif action == "estimate":
                    model.estimate(config)
                    reference.estimate(config)
                elif action == "tune":
                    indices = data.draw(st.lists(
                        st.integers(0, stages - 1), min_size=1, max_size=4
                    ), label="indices")
                    tuned = tune_recompute(model, config, indices)
                    want = tune_recompute(reference, config, indices)
                    assert tuned.cache_key() == want.cache_key()
                    seen.append(tuned)
                else:
                    name = data.draw(st.sampled_from(PRIMITIVES), label="p")
                    got, want = (
                        apply_primitive(name, ApplyContext(
                            graph=graph, cluster=cluster, perf_model=m,
                            config=config, report=r,
                            bottleneck=identify_bottleneck(r),
                        ))
                        for m, r in ((model, model.estimate(config)),
                                     (reference, reference.estimate(config)))
                    )
                    assert [c.cache_key() for c in got] == [
                        c.cache_key() for c in want
                    ]
                    seen.extend(got)
                assert model.num_estimates == reference.num_estimates
                # A DEBUG sink gets one event per counted miss of
                # either model, whichever kind of entry it stored.
                assert sum(
                    event.name == PERFMODEL_ESTIMATE for event in sink.events
                ) == (2 * model.num_estimates if debug else 0)
                assert (
                    model.counters["config_hits"].value
                    == reference.counters["config_hits"].value
                )
                assert (
                    model.first_feasible_estimate
                    == reference.first_feasible_estimate
                )


def frozen_objective_from_report(report):
    """Frozen copy of ``PerfModel.objective_from_report`` as it scored a
    report before the OOM score moved into ``_oom_score``, which
    ``objective`` now also calls: the OOM score's independent oracle."""
    if not report.is_oom:
        return report.iteration_time
    limits = report.stage_limits
    if limits is None:
        overflow = sum(
            max(0.0, m - report.memory_limit) for m in report.peak_memories
        )
        return PerfModel.OOM_PENALTY * (1.0 + overflow / report.memory_limit)
    overflow = sum(
        max(0.0, m - limit) for m, limit in zip(report.peak_memories, limits)
    )
    return PerfModel.OOM_PENALTY * (1.0 + overflow / min(limits))


class ReportModel(PerfModel):
    """Scores every objective from a full report, as ``estimate``
    returns it."""

    def objective(self, config):
        return self.objective_from_report(self.estimate(config))


class TestObjectiveFromEq1:
    """``objective`` scores an OOM config from its Eq. 1 peaks and
    assembles a report only for a config that fits; nothing observable
    may tell it apart from scoring a full report."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2),
        hetero=st.booleans(),
        stages=st.sampled_from([1, 2, 4]),
        mbs=st.sampled_from([1, 4, 16]),
        cache_size=st.sampled_from([2, 500_000]),
        stage_cache_size=st.sampled_from([0, 200_000]),
        split_ops=st.sampled_from([0, model_module.SPLIT_BASE_OPS]),
        debug=st.booleans(),
        data=st.data(),
    )
    def test_objective_matches_scoring_a_fresh_report(
        self, seed, hetero, stages, mbs, cache_size, stage_cache_size,
        split_ops, debug, data,
    ):
        """Objectives of random walks over OOM and fitting configs
        (primitives, whose every candidate is scored, and tuned configs),
        interleaved with Eq. 1 views, probes and estimates, so the LRU
        holds a scored config as a report, as an Eq. 1-only entry or
        not at all: every objective equals
        ``objective_from_report(estimate_fresh(config))`` bit for bit
        (as the scoring rule read before this path existed),
        every report equals costing from scratch (CheckedModel), and
        estimate counts, config hits and ``first_feasible_estimate``
        match a model that scores every objective from a full report,
        with or without an LRU that evicts, a stage cache, bases gathered
        in two parts, or a DEBUG sink."""
        graph, cluster, database = probe_setup(seed, hetero, 1.1)
        model = CheckedModel(
            graph, cluster, database,
            cache_size=cache_size, stage_cache_size=stage_cache_size,
        )
        reference = ReportModel(graph, cluster, database, cache_size=cache_size)
        seen = [balanced_config(graph, cluster, stages, microbatch_size=mbs)]
        bus = TelemetryBus()
        if debug:
            bus.add_sink(RingBufferSink())

        def check_objectives(configs):
            got = model.objective_batch(configs)
            assert got == reference.objective_batch(configs)
            assert got == [
                frozen_objective_from_report(model.estimate_fresh(config))
                for config in configs
            ]

        with using_bus(bus), mock.patch.object(
            model_module, "SPLIT_BASE_OPS", split_ops
        ):
            for _ in range(data.draw(st.integers(1, 16), label="steps")):
                config = data.draw(st.sampled_from(seen), label="config")
                index = data.draw(st.integers(0, stages - 1), label="stage")
                action = data.draw(st.sampled_from(
                    ["objective", "objective", "eq1", "probe", "estimate",
                     "tune", "primitive"]
                ), label="action")
                if action == "objective":
                    check_objectives([config])
                elif action == "eq1":
                    assert model.eq1(config) == reference.eq1(config)
                elif action == "probe":
                    mask = config.stages[index].recompute.copy()
                    flips = data.draw(st.lists(
                        st.integers(0, mask.size - 1), max_size=3
                    ), label="flips")
                    mask[flips] = ~mask[flips]
                    assert model.recompute_probe(
                        config, index, model.eq1(config)
                    )(mask) == reference.recompute_probe(
                        config, index, reference.eq1(config)
                    )(mask.copy())
                    seen.append(config.with_recompute(index, mask))
                elif action == "estimate":
                    model.estimate(config)
                    reference.estimate(config)
                elif action == "tune":
                    tuned = tune_recompute(model, config, [index])
                    want = tune_recompute(reference, config, [index])
                    assert tuned.cache_key() == want.cache_key()
                    seen.append(tuned)
                else:
                    name = data.draw(st.sampled_from(PRIMITIVES), label="p")
                    got, want = (
                        apply_primitive(name, ApplyContext(
                            graph=graph, cluster=cluster, perf_model=m,
                            config=config, report=r,
                            bottleneck=identify_bottleneck(r),
                        ))
                        for m, r in ((model, model.estimate(config)),
                                     (reference, reference.estimate(config)))
                    )
                    assert [c.cache_key() for c in got] == [
                        c.cache_key() for c in want
                    ]
                    check_objectives(got)
                    seen.extend(got)
                assert model.num_estimates == reference.num_estimates
                assert (
                    model.counters["config_hits"].value
                    == reference.counters["config_hits"].value
                )
                assert (
                    model.first_feasible_estimate
                    == reference.first_feasible_estimate
                )

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("hetero", [False, True])
    @pytest.mark.parametrize("state", ["miss", "eq1", "report"])
    def test_each_entry_state_scores_as_a_fresh_report(
        self, monkeypatch, hetero, state, split
    ):
        """Balanced configs on tight devices, OOM and fitting, scored
        from a miss, an Eq. 1-only entry or a report, with bases
        gathered whole or in two parts: the objective equals scoring a
        fresh report bit for bit and counts one estimate.  An OOM config
        scored from a miss or an Eq. 1-only entry stays an Eq. 1-only
        entry, with no report assembled (and, for two-part bases, no
        stage's time part costed); otherwise the LRU then holds the
        config's report."""
        if split:
            monkeypatch.setattr(model_module, "SPLIT_BASE_OPS", 0)
        graph, cluster, database = probe_setup(0, hetero, 1.1)
        verdicts = set()
        for stages, mbs in itertools.product((1, 2, 4), (1, 4, 16)):
            model = PerfModel(graph, cluster, database)
            config = balanced_config(
                graph, cluster, stages, microbatch_size=mbs
            )
            fresh = model.estimate_fresh(config)
            verdicts.add(fresh.is_oom)
            if state == "eq1":
                model.eq1(config)
            elif state == "report":
                model.estimate(config)
            with mock.patch.object(
                model, "_assemble", wraps=model._assemble
            ) as assembled, mock.patch.object(
                model, "_cost_stage_time", wraps=model._cost_stage_time
            ) as timed:
                got = model.objective(config)
            assert got == frozen_objective_from_report(fresh)
            assert got == model.objective_from_report(fresh)
            assert model.num_estimates == 1
            entry = model._cache[config.cache_key()]
            if fresh.is_oom and state != "report":
                assert isinstance(entry, list)
                assert assembled.call_count == 0
                assert timed.call_count == 0 or not split
            else:
                assert_reports_identical(entry, fresh)
        assert verdicts == {False, True}


class TestLRUEviction:
    def test_evicts_oldest_not_everything(self, tiny_graph, small_cluster,
                                          tiny_database):
        model = PerfModel(
            tiny_graph, small_cluster, tiny_database, cache_size=2
        )
        c1 = balanced_config(tiny_graph, small_cluster, 1)
        c2 = balanced_config(tiny_graph, small_cluster, 2)
        c3 = balanced_config(tiny_graph, small_cluster, 4)
        model.estimate(c1)
        model.estimate(c2)
        model.estimate(c1)  # refresh c1 -> c2 is now the oldest
        model.estimate(c3)  # evicts only c2
        before = model.num_estimates
        model.estimate(c1)
        model.estimate(c3)
        assert model.num_estimates == before  # both still cached
        model.estimate(c2)
        assert model.num_estimates == before + 1  # c2 was the evictee

    def test_stage_cache_bounded(self):
        graph = build_synthetic(16, seed=2)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        model = PerfModel(
            graph, cluster, database, stage_cache_size=3
        )
        for stages in (1, 2, 4):
            for mbs in (1, 2, 4):
                model.estimate(
                    balanced_config(graph, cluster, stages,
                                    microbatch_size=mbs)
                )
        assert model.cache_info()["stage_cache_len"] <= 3
        # Results stay correct after evictions.
        config = balanced_config(graph, cluster, 2)
        assert_reports_identical(
            model.estimate(config), model.estimate_fresh(config)
        )

    def test_stage_cache_disabled_still_exact(self):
        graph = build_synthetic(16, seed=3)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        off = PerfModel(graph, cluster, database, stage_cache_size=0)
        config = balanced_config(graph, cluster, 4)
        report = off.estimate(config)
        assert off.cache_info()["num_stage_hits"] == 0
        assert_reports_identical(report, off.estimate_fresh(config))


class TestSearchOutcomeEquivalence:
    @pytest.mark.parametrize(
        "model_name", ["gpt3-350m", "t5-770m", "wresnet-500m"]
    )
    def test_stage_cache_does_not_change_search(self, model_name):
        """Seeded searches find the same best config and objective with
        stage-level memoization on and off."""
        graph = build_model(model_name, batch_size=64)
        cluster = paper_cluster(4)
        database = SimulatedProfiler(cluster, seed=0).profile(graph)
        outcomes = []
        for stage_cache_size in (200_000, 0):
            model = PerfModel(
                graph, cluster, database,
                stage_cache_size=stage_cache_size,
            )
            search = AcesoSearch(graph, cluster, model)
            result = search.run(
                balanced_config(graph, cluster, 4),
                SearchBudget(max_iterations=8),
            )
            outcomes.append(result)
        cached, uncached = outcomes
        assert cached.best_objective == uncached.best_objective
        assert (
            cached.best_config.signature()
            == uncached.best_config.signature()
        )
        assert cached.num_estimates == uncached.num_estimates

    def test_workers_match_serial(self, tiny_graph, small_cluster,
                                  tiny_database):
        """The process-pool driver returns the identical best config."""
        options = AcesoSearchOptions(seed=0)
        runs = {}
        for workers in (1, 2):
            model = PerfModel(tiny_graph, small_cluster, tiny_database)
            runs[workers] = search_all_stage_counts(
                tiny_graph, small_cluster, model,
                stage_counts=[1, 2, 4],
                options=options,
                budget_per_count={"max_iterations": 4},
                workers=workers,
            )
        serial, parallel = runs[1], runs[2]
        assert parallel.workers == 2
        assert serial.workers == 1
        assert parallel.wall_seconds > 0
        assert [r.num_stages for r in parallel.runs] == [1, 2, 4]
        assert (
            serial.best.best_objective == parallel.best.best_objective
        )
        assert (
            serial.best.best_config.signature()
            == parallel.best.best_config.signature()
        )
        for a, b in zip(serial.runs, parallel.runs):
            assert a.result.best_objective == b.result.best_objective

"""Equivalence of ``estimate_batch`` with a sequential ``estimate`` loop.

The batched estimator's contract is *bit identity*: for any batch of
configurations and any starting cache state — warm, cold, or small
enough that insertions evict mid-batch — ``estimate_batch(configs)``
must leave the model in exactly the state a ``[estimate(c) for c in
configs]`` loop would, and return exactly the reports that loop would.
The hypothesis test below drives randomized batches (duplicates
included) against randomized warm subsets and LRU sizes, on a
homogeneous and a heterogeneous cluster, over 1-, 2- and 4-stage
configs; deterministic tests pin down the trickiest corner (a
mid-batch eviction forcing a later config to re-miss) and the batch
telemetry shape.
"""

import functools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DeviceSpec
from repro.ir.models.synthetic import build_synthetic
from repro.parallel import ParallelConfig, balanced_config
from repro.perfmodel import PerfModel
from repro.perfmodel.model import _PendingReport
from repro.profiling import SimulatedProfiler
from repro.telemetry import RingBufferSink, TelemetryBus, using_bus
from repro.telemetry.events import (
    PERFMODEL_ESTIMATE,
    PERFMODEL_ESTIMATE_BATCH,
)

from conftest import make_tight_cluster, make_tiny_gpt

# Built lazily (not at import/collection time) and shared by every
# example: hypothesis runs many examples per test, so the problem and
# the candidate pool must not be rebuilt per example.  The cluster is
# deliberately tight so the pool mixes feasible and OOM candidates and
# ``first_feasible_estimate`` accounting is actually exercised.


@functools.lru_cache(maxsize=None)
def _problem(hetero=False):
    graph = make_tiny_gpt()
    if hetero:
        # Two nodes of unequal speed and capacity: assembly scales the
        # compute of stages on the slow node and checks each stage
        # against its own node's memory.
        cluster = ClusterSpec(
            num_nodes=2,
            gpus_per_node=2,
            node_devices=(
                DeviceSpec(name="tiny-6MB", memory_bytes=6 * 2**20),
                DeviceSpec(
                    name="slow-8MB", memory_bytes=8 * 2**20, efficiency=0.3
                ),
            ),
        )
    else:
        cluster = make_tight_cluster(4, memory_mb=6)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    return graph, cluster, database


@functools.lru_cache(maxsize=None)
def _variants(hetero=False):
    """A pool of distinct configs spanning 1/2/4 stages, tp, and mbs."""
    graph, cluster, _ = _problem(hetero)
    pool = []
    for num_stages in (1, 2, 4):
        base = balanced_config(graph, cluster, num_stages)
        pool.append(base)
        for k in range(6):
            dirty = k % num_stages
            variant = base.mutated_copy([dirty])
            stage = variant.stages[dirty]
            stage.recompute[k % stage.num_ops] = True
            pool.append(variant)
        if base.stages[0].num_devices >= 2:
            tp_variant = base.mutated_copy(range(num_stages))
            for stage in tp_variant.stages:
                stage.set_uniform_parallel(2)
            pool.append(tp_variant)
    # Microbatch variants share their stages by reference; only the
    # header of the config signature differs.
    for mbs in (2, 4):
        pool.append(
            ParallelConfig(stages=list(pool[0].stages), microbatch_size=mbs)
        )
    return tuple(pool)


def _fresh_models(cache_size, stage_cache_size, hetero=False):
    graph, cluster, database = _problem(hetero)
    kwargs = dict(cache_size=cache_size, stage_cache_size=stage_cache_size)
    return (
        PerfModel(graph, cluster, database, **kwargs),
        PerfModel(graph, cluster, database, **kwargs),
    )


def _assert_same_state(seq, bat):
    """Counters, feasibility tracking, and both LRUs (order included)."""
    assert bat.num_estimates == seq.num_estimates
    assert bat.num_stage_costs == seq.num_stage_costs
    assert bat.num_stage_hits == seq.num_stage_hits
    assert (
        bat.counters["config_hits"].value
        == seq.counters["config_hits"].value
    )
    assert bat.first_feasible_estimate == seq.first_feasible_estimate
    assert list(bat._cache.keys()) == list(seq._cache.keys())
    assert list(bat._stage_cache.keys()) == list(seq._stage_cache.keys())
    for key, report in bat._cache.items():
        assert not isinstance(report, _PendingReport)
        assert report.iteration_time == seq._cache[key].iteration_time


@settings(max_examples=50, deadline=None)
@given(
    batch_idx=st.lists(
        st.integers(min_value=0, max_value=63), min_size=0, max_size=10
    ),
    warm_idx=st.lists(
        st.integers(min_value=0, max_value=63), min_size=0, max_size=6
    ),
    cache_size=st.sampled_from([1, 2, 3, 1024]),
    stage_cache_size=st.sampled_from([0, 2, 1024]),
    hetero=st.booleans(),
)
def test_batch_bit_identical_to_sequential(
    batch_idx, warm_idx, cache_size, stage_cache_size, hetero
):
    variants = _variants(hetero)
    n = len(variants)
    seq, bat = _fresh_models(cache_size, stage_cache_size, hetero)
    for i in warm_idx:  # identical warm state on both models
        seq.estimate(variants[i % n])
        bat.estimate(variants[i % n])
    batch = [variants[i % n] for i in batch_idx]

    seq_reports = [seq.estimate(config) for config in batch]
    bat_reports = bat.estimate_batch(batch)

    assert len(bat_reports) == len(seq_reports)
    for a, b in zip(seq_reports, bat_reports):
        # Lazy fast paths first, *before* equality materializes stages.
        assert b.num_stages == a.num_stages
        assert b.is_oom == a.is_oom
        assert b.peak_memories == a.peak_memories
        assert b == a
        assert pickle.dumps(b) == pickle.dumps(a)
        assert all(type(s.in_flight) is int for s in b.stages)
    _assert_same_state(seq, bat)


def test_pool_covers_one_stage_and_heterogeneous_limits():
    """The property's pool really spans 1-stage configs, per-stage
    memory limits, and both OOM verdicts on each cluster."""
    for hetero in (False, True):
        model, _ = _fresh_models(1024, 1024, hetero)
        reports = [model.estimate(config) for config in _variants(hetero)]
        assert {r.num_stages for r in reports} == {1, 2, 4}
        assert {r.is_oom for r in reports} == {False, True}
        assert all((r.stage_limits is not None) == hetero for r in reports)


def test_midbatch_eviction_matches_sequential():
    """The corner the slot reservation exists for.

    With ``cache_size=2``, a batch ``[a, b, c, a]`` against a cache
    warmed with ``a``: sequentially, c's insertion evicts a, so the
    final a *re-misses*.  A batch path that resolved hits against the
    pre-batch cache would count it as a hit instead.
    """
    variants = _variants()
    a, b, c = variants[0], variants[1], variants[2]
    seq, bat = _fresh_models(2, 1024)
    seq.estimate(a)
    bat.estimate(a)

    batch = [a, b, c, a]
    seq_reports = [seq.estimate(config) for config in batch]
    bat_reports = bat.estimate_batch(batch)

    assert seq.num_estimates == 4  # warm-up miss + b + c + re-missed a
    assert seq.counters["config_hits"].value == 1
    assert [r.iteration_time for r in bat_reports] == [
        r.iteration_time for r in seq_reports
    ]
    _assert_same_state(seq, bat)


def test_in_batch_duplicates_share_one_estimate():
    variants = _variants()
    seq, bat = _fresh_models(1024, 1024)
    batch = [variants[3], variants[3], variants[4], variants[3]]
    seq_reports = [seq.estimate(config) for config in batch]
    bat_reports = bat.estimate_batch(batch)
    assert bat.num_estimates == 2
    assert bat_reports[0] is bat_reports[1] is bat_reports[3]
    assert bat_reports[0] == seq_reports[0]
    _assert_same_state(seq, bat)


def test_empty_batch_is_a_no_op():
    model, _ = _fresh_models(1024, 1024)
    bus = TelemetryBus()
    sink = bus.add_sink(RingBufferSink())
    with using_bus(bus):
        assert model.estimate_batch([]) == []
    assert model.num_estimates == 0
    assert sink.events == []


def test_estimate_batch_emits_one_aggregated_event():
    variants = _variants()
    model, _ = _fresh_models(1024, 1024)
    model.estimate(variants[0])  # one warm entry -> one hit in the batch
    bus = TelemetryBus()
    sink = bus.add_sink(RingBufferSink())
    with using_bus(bus):
        model.estimate_batch([variants[0], variants[1], variants[2]])
    batch_events = [
        e for e in sink.events if e.name == PERFMODEL_ESTIMATE_BATCH
    ]
    per_config = [e for e in sink.events if e.name == PERFMODEL_ESTIMATE]
    assert len(batch_events) == 1
    assert per_config == []
    attrs = batch_events[0].attrs
    assert attrs["batch"] == 3
    assert attrs["hits"] == 1
    assert attrs["misses"] == 2


@functools.lru_cache(maxsize=None)
def _synthetic_problem(seed, hetero):
    graph = build_synthetic(24, seed=seed)
    if hetero:
        cluster = ClusterSpec(
            num_nodes=2,
            gpus_per_node=2,
            node_devices=(
                DeviceSpec(name="fast-6MB", memory_bytes=6 * 2**20),
                DeviceSpec(
                    name="slow-9MB", memory_bytes=9 * 2**20,
                    efficiency=0.4,
                ),
            ),
        )
    else:
        cluster = make_tight_cluster(4, memory_mb=7)
    database = SimulatedProfiler(cluster, seed=0).profile(graph)
    return graph, cluster, database


def _first_read(report, attribute):
    if attribute == "pickle":
        return pickle.dumps(report)
    if attribute == "in_flight":
        return [report.in_flight(i) for i in range(report.num_stages)]
    return getattr(report, attribute)


def _assert_same_report(a, b):
    """Field for field, the fast paths too, and identical pickles."""
    assert a.num_stages == b.num_stages
    assert a.peak_memories == b.peak_memories
    assert a.is_oom == b.is_oom
    assert [a.in_flight(i) for i in range(a.num_stages)] == [
        b.in_flight(i) for i in range(b.num_stages)
    ]
    assert a.iteration_time == b.iteration_time
    assert a.num_microbatches == b.num_microbatches
    assert a.memory_limit == b.memory_limit
    assert a.stage_limits == b.stage_limits
    assert a.stages == b.stages
    assert pickle.dumps(a) == pickle.dumps(b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3),
    hetero=st.booleans(),
    num_stages=st.sampled_from([1, 2, 4]),
    mbs=st.sampled_from([1, 2, 4, 8]),
    data=st.data(),
)
def test_deferred_scalar_report_matches_fresh_and_batch(
    seed, hetero, num_stages, mbs, data
):
    """A scalar miss defers Eq. 2; whichever attribute is read first
    (or a pickle), it equals ``estimate_fresh`` and ``estimate_batch``
    field for field, and an attached sink sees the same verdicts."""
    graph, cluster, database = _synthetic_problem(seed, hetero)
    config = balanced_config(
        graph, cluster, num_stages, microbatch_size=mbs
    ).mutated_copy(range(num_stages))
    for i, stage in enumerate(config.stages):
        degrees = [t for t in (1, 2, 4) if t <= stage.num_devices]
        stage.set_uniform_parallel(
            data.draw(st.sampled_from(degrees), label=f"tp{i}")
        )
        stage.recompute[:] = data.draw(st.lists(
            st.booleans(), min_size=stage.num_ops, max_size=stage.num_ops
        ), label=f"rc{i}")
    want = PerfModel(graph, cluster, database).estimate_batch([config])[0]

    for attribute in (
        "peak_memories", "is_oom", "in_flight", "iteration_time",
        "stages", "pickle",
    ):
        model = PerfModel(graph, cluster, database)
        report = model.estimate(config)
        deferred = attribute in ("peak_memories", "is_oom", "in_flight")
        _first_read(report, attribute)
        # Eq. 1 reads leave the Eq. 2 assembly pending.
        assert ("iteration_time" not in report.__dict__) == deferred
        fresh = model.estimate_fresh(config)
        _first_read(fresh, attribute)
        _assert_same_report(report, want)
        _assert_same_report(fresh, want)
        assert model.first_feasible_estimate == (
            None if want.is_oom else 1
        )

    bus = TelemetryBus()
    sink = bus.add_sink(RingBufferSink())
    model = PerfModel(graph, cluster, database)
    with using_bus(bus):
        report = model.estimate(config)
    # The event reads iteration_time, so an active bus assembles at once.
    assert "iteration_time" in report.__dict__
    (event,) = [e for e in sink.events if e.name == PERFMODEL_ESTIMATE]
    assert event.attrs["oom"] == want.is_oom
    assert event.attrs["iteration_time"] == want.iteration_time
    _assert_same_report(report, want)


def test_deferred_property_covers_both_verdicts():
    """The synthetic problems mix feasible and OOM configs on both
    clusters, so the property exercises both ``is_oom`` answers."""
    for hetero in (False, True):
        verdicts = set()
        for seed in range(4):
            graph, cluster, database = _synthetic_problem(seed, hetero)
            model = PerfModel(graph, cluster, database)
            for num_stages in (1, 2, 4):
                for mbs in (1, 8):
                    verdicts.add(model.estimate(balanced_config(
                        graph, cluster, num_stages, microbatch_size=mbs
                    )).is_oom)
        assert verdicts == {False, True}

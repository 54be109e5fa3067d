"""The report of a scalar estimate, and its oracles.

The hypothesis property below reads each report attribute first in
turn (and pickles) and checks the report field for field against
``estimate_fresh``, which re-costs every stage with no cache at all; an
active sink must see the same verdicts.  Independently of the
estimator's own assembly, the iteration time must equal the 1F1B
formula of ``perfmodel.timing.iteration_time_1f1b`` evaluated on the
stage reports, on a homogeneous and a heterogeneous cluster.
"""

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DeviceSpec
from repro.ir.models.synthetic import build_synthetic
from repro.parallel import ParallelConfig, balanced_config
from repro.perfmodel import PerfModel, iteration_time_1f1b
from repro.profiling import SimulatedProfiler
from repro.telemetry import RingBufferSink, TelemetryBus, using_bus
from repro.telemetry.events import PERFMODEL_ESTIMATE

from conftest import make_tight_cluster, make_tiny_gpt

# Built lazily (not at import/collection time) and shared by every
# test and example.  The cluster is deliberately tight so the pool
# mixes feasible and OOM candidates.


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


def test_pool_covers_one_stage_and_heterogeneous_limits():
    """The oracle's pool really spans 1-stage configs, per-stage
    memory limits, and both OOM verdicts on each cluster."""
    for hetero in (False, True):
        model = PerfModel(*_problem(hetero))
        reports = [model.estimate(config) for config in _variants(hetero)]
        assert {r.num_stages for r in reports} == {1, 2, 4}
        assert {r.is_oom for r in reports} == {False, True}
        assert all((r.stage_limits is not None) == hetero for r in reports)


def test_iteration_time_matches_1f1b_oracle():
    """Eq. 2 from the stage reports, by the timing module's formula:
    each stage's pair time is its compute plus its communication per
    microbatch, and its sync term is the dp sync.  The operands
    associate differently, hence the tolerance."""
    for hetero in (False, True):
        graph, cluster, database = _problem(hetero)
        model = PerfModel(graph, cluster, database)
        for config in _variants(hetero):
            _assert_eq2_oracle(model.estimate(config))


def _assert_eq2_oracle(report):
    pairs = [s.compute_time_mb + s.comm_time_mb for s in report.stages]
    want = iteration_time_1f1b(
        pairs, [0.0] * len(pairs), report.num_microbatches,
        [s.dp_sync_time for s in report.stages],
    )
    assert report.iteration_time == pytest.approx(want, rel=1e-12)


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


@settings(deadline=None)
@given(
    seed=st.integers(0, 3),
    hetero=st.booleans(),
    num_stages=st.sampled_from([1, 2, 4]),
    mbs=st.sampled_from([1, 2, 4, 8]),
    data=st.data(),
)
def test_scalar_report_matches_fresh_in_every_read_order(
    seed, hetero, num_stages, mbs, data
):
    """Whichever attribute of a miss's report is read first (or a
    pickle), it equals ``estimate_fresh`` of an untouched model field
    for field, and an attached sink sees the same verdicts."""
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
    want = PerfModel(graph, cluster, database).estimate_fresh(config)
    _assert_eq2_oracle(want)

    for attribute in (
        "peak_memories", "is_oom", "in_flight", "iteration_time",
        "stages", "pickle",
    ):
        model = PerfModel(graph, cluster, database)
        report = model.estimate(config)
        _first_read(report, attribute)
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
    (event,) = [e for e in sink.events if e.name == PERFMODEL_ESTIMATE]
    assert event.attrs["oom"] == want.is_oom
    _assert_same_report(report, want)


def test_report_property_covers_both_verdicts():
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

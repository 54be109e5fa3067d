"""Elastic subsystem: churn timelines, heterogeneous clusters, the
rebalancing controller, and churn-aware serving."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tiny_gpt
from repro.cluster import ClusterSpec, DeviceSpec, a100, mixed_cluster, v100
from repro.elastic import (
    CHURN_FORMAT_VERSION,
    ChurnEvent,
    ChurnTimeline,
    ControllerPolicy,
    ElasticController,
    random_churn_timeline,
)
from repro.faults import (
    DeviceFailure,
    FaultPlan,
    LinkDegradation,
    Membership,
    NoSurvivorsError,
    StragglerSlowdown,
    adapt_config,
    degrade_cluster,
    shrink_cluster_checked,
)
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.runtime import Executor


@pytest.fixture(scope="module")
def graph():
    return make_tiny_gpt()


@pytest.fixture(scope="module")
def cluster42():
    return ClusterSpec(num_nodes=4, gpus_per_node=2)


def quick_policy(**overrides):
    kwargs = dict(replan_iterations=2, measure=False)
    kwargs.update(overrides)
    return ControllerPolicy(**kwargs)


# ======================================================================
# churn timelines
# ======================================================================
class TestChurnTimeline:
    def test_event_payload_validation(self):
        with pytest.raises(ValueError, match="node_id"):
            ChurnEvent(1.0, "node_preempt")
        with pytest.raises(ValueError, match="factor"):
            ChurnEvent(1.0, "straggler_on", device_id=0, factor=0.5)
        with pytest.raises(ValueError, match="scope"):
            ChurnEvent(1.0, "link_degrade", factor=0.5)
        with pytest.raises(ValueError, match="factor in"):
            ChurnEvent(1.0, "link_degrade", scope="intra", factor=1.5)
        with pytest.raises(ValueError, match="device_id"):
            ChurnEvent(1.0, "device_fail")
        with pytest.raises(ValueError, match="kind"):
            ChurnEvent(1.0, "meteor_strike")
        with pytest.raises(ValueError, match="non-negative"):
            ChurnEvent(-1.0, "node_join", node_id=0)

    def test_dict_round_trip_drops_none_fields(self):
        event = ChurnEvent(2.5, "straggler_on", device_id=3, factor=1.7)
        data = event.to_dict()
        assert set(data) == {"time", "kind", "device_id", "factor"}
        assert ChurnEvent.from_dict(data) == event

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown churn event"):
            ChurnEvent.from_dict(
                {"time": 1.0, "kind": "node_join", "node_id": 0,
                 "blast_radius": 3}
            )

    def test_timeline_must_be_time_ordered(self):
        events = (
            ChurnEvent(5.0, "node_preempt", node_id=0),
            ChurnEvent(1.0, "node_join", node_id=0),
        )
        with pytest.raises(ValueError, match="time-ordered"):
            ChurnTimeline(seed=0, events=events)

    def test_file_round_trip(self, tmp_path):
        timeline = random_churn_timeline(4, 2, seed=9, num_events=7)
        path = tmp_path / "t.churn.json"
        timeline.save(path)
        assert ChurnTimeline.load(path) == timeline

    def test_version_gate(self):
        data = {"format_version": 99, "seed": 0, "events": []}
        with pytest.raises(ValueError, match="format version"):
            ChurnTimeline.from_dict(data)

    def test_random_timeline_is_deterministic(self):
        a = random_churn_timeline(4, 2, seed=5, num_events=12)
        b = random_churn_timeline(4, 2, seed=5, num_events=12)
        c = random_churn_timeline(4, 2, seed=6, num_events=12)
        assert a == b
        assert a != c

    def test_random_timeline_state_consistency(self):
        for seed in range(8):
            timeline = random_churn_timeline(
                3, 2, seed=seed, num_events=20
            )
            preempted, stragglers, degraded = set(), set(), set()
            for event in timeline.events:
                if event.kind == "node_preempt":
                    assert event.node_id not in preempted
                    preempted.add(event.node_id)
                    assert len(preempted) < 3  # one node stays up
                elif event.kind == "node_join":
                    assert event.node_id in preempted
                    preempted.discard(event.node_id)
                elif event.kind == "straggler_on":
                    assert event.device_id not in stragglers
                    stragglers.add(event.device_id)
                elif event.kind == "straggler_off":
                    assert event.device_id in stragglers
                    stragglers.discard(event.device_id)
                elif event.kind == "link_degrade":
                    assert event.scope not in degraded
                    degraded.add(event.scope)
                else:
                    assert event.scope in degraded
                    degraded.discard(event.scope)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_events=st.integers(min_value=0, max_value=15),
    nodes=st.integers(min_value=1, max_value=5),
)
def test_random_churn_timeline_round_trips(seed, num_events, nodes):
    timeline = random_churn_timeline(
        nodes, 2, seed=seed, num_events=num_events
    )
    rebuilt = ChurnTimeline.from_dict(
        json.loads(json.dumps(timeline.to_dict()))
    )
    assert rebuilt == timeline
    assert rebuilt.to_dict()["format_version"] == CHURN_FORMAT_VERSION


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    failures=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=0, max_value=60, allow_nan=False),
        ),
        max_size=3,
    ),
    stragglers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
        ),
        max_size=3,
        unique_by=lambda pair: pair[0],
    ),
    intra=st.one_of(
        st.none(),
        st.floats(min_value=0.1, max_value=0.99, allow_nan=False),
    ),
)
def test_fault_plan_json_round_trips(
    seed, failures, stragglers, intra, cluster42
):
    """A fault set written as a churn timeline reads back, through the
    JSON artifact, as exactly the executor view it describes."""
    failures = sorted(failures, key=lambda pair: pair[1])
    events = [
        ChurnEvent(0.0, "straggler_on", device_id=d, factor=f)
        for d, f in stragglers
    ]
    if intra is not None:
        events.append(
            ChurnEvent(0.0, "link_degrade", scope="intra", factor=intra)
        )
    events += [
        ChurnEvent(t, "device_fail", device_id=d) for d, t in failures
    ]
    timeline = ChurnTimeline(seed=seed, events=tuple(events))
    rebuilt = ChurnTimeline.from_dict(
        json.loads(json.dumps(timeline.to_dict()))
    )
    assert FaultPlan.from_timeline(rebuilt, cluster42) == FaultPlan(
        device_failures=tuple(
            DeviceFailure(device_id=d, time=t) for d, t in failures
        ),
        stragglers=tuple(
            StragglerSlowdown(device_id=d, factor=f)
            for d, f in sorted(stragglers)
        ),
        link_degradations=(
            (LinkDegradation("intra", intra),) if intra is not None else ()
        ),
    )


class TestFaultPlanFromTimeline:
    def test_node_preempt_fails_every_device_of_the_node(self, cluster42):
        timeline = ChurnTimeline(events=(
            ChurnEvent(2.0, "node_preempt", node_id=1),
            ChurnEvent(3.0, "device_fail", device_id=6),
        ))
        plan = FaultPlan.from_timeline(timeline, cluster42)
        assert plan.device_failures == (
            DeviceFailure(2, 2.0),
            DeviceFailure(3, 2.0),
            DeviceFailure(6, 3.0),
        )
        assert plan.first_failure(8) == DeviceFailure(2, 2.0)

    def test_straggler_off_leaves_no_straggler(self, cluster42):
        timeline = ChurnTimeline(events=(
            ChurnEvent(1.0, "straggler_on", device_id=0, factor=2.0),
            ChurnEvent(2.0, "straggler_on", device_id=3, factor=1.5),
            ChurnEvent(4.0, "straggler_off", device_id=0),
        ))
        plan = FaultPlan.from_timeline(timeline, cluster42)
        assert plan.stragglers == (StragglerSlowdown(3, 1.5),)
        assert plan.straggler_factor(0) == 1.0
        assert plan.straggler_factor(3) == 1.5

    def test_link_repair_restores_bandwidth(self, cluster42):
        timeline = ChurnTimeline(events=(
            ChurnEvent(1.0, "link_degrade", scope="intra", factor=0.5),
            ChurnEvent(2.0, "link_degrade", scope="inter", factor=0.4),
            ChurnEvent(3.0, "link_repair", scope="intra"),
        ))
        plan = FaultPlan.from_timeline(timeline, cluster42)
        assert plan.link_degradations == (LinkDegradation("inter", 0.4),)
        assert plan.bandwidth_factor("intra") == 1.0
        assert plan.bandwidth_factor("inter") == 0.4

    def test_recovered_timeline_is_an_empty_plan(self, cluster42):
        timeline = ChurnTimeline(events=(
            ChurnEvent(1.0, "straggler_on", device_id=1, factor=3.0),
            ChurnEvent(2.0, "straggler_off", device_id=1),
        ))
        assert FaultPlan.from_timeline(timeline, cluster42).is_empty

    def test_node_join_keeps_the_measured_failures(self, cluster42):
        """A rejoined node is back for the next plan, but the measured
        iteration already lost its devices: their failures stay."""
        timeline = ChurnTimeline(events=(
            ChurnEvent(1.0, "node_preempt", node_id=1),
            ChurnEvent(2.0, "device_fail", device_id=0),
            ChurnEvent(3.0, "node_join", node_id=1),
        ))
        plan = FaultPlan.from_timeline(timeline, cluster42)
        assert plan.device_failures == (
            DeviceFailure(2, 1.0),
            DeviceFailure(3, 1.0),
            DeviceFailure(0, 2.0),
        )


# ======================================================================
# heterogeneous clusters
# ======================================================================
class TestHeterogeneousCluster:
    def test_mixed_cluster_shape_and_describe(self):
        cluster = mixed_cluster(
            [v100(), v100(), a100(), a100()], gpus_per_node=2
        )
        assert cluster.is_heterogeneous
        assert cluster.num_gpus == 8
        assert "V100" in cluster.describe()
        assert "A100" in cluster.describe()

    def test_homogeneous_node_devices_is_not_heterogeneous(self):
        device = v100()
        cluster = mixed_cluster([device, device], gpus_per_node=2)
        assert not cluster.is_heterogeneous

    def test_node_devices_length_is_validated(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                num_nodes=2, gpus_per_node=2, node_devices=(v100(),)
            )

    def test_span_compute_scale_prices_the_slowest_node(self):
        slow = v100()
        fast = a100()
        cluster = mixed_cluster(
            [slow, fast], gpus_per_node=2, reference=slow
        )
        # A span entirely on the fast node runs faster than reference.
        assert cluster.span_compute_scale(2, 2, "fp16") < 1.0
        # The reference node costs exactly reference time.
        assert cluster.span_compute_scale(0, 2, "fp16") == 1.0
        # A span covering both nodes is paced by the slower one.
        assert cluster.span_compute_scale(0, 4, "fp16") == 1.0

    def test_span_memory_limit_takes_the_min(self):
        small = DeviceSpec(name="small", memory_bytes=8 * 2**30)
        big = a100()
        cluster = mixed_cluster(
            [small, big], gpus_per_node=2, reference=big
        )
        assert cluster.span_memory_limit(0, 4) == 8 * 2**30
        assert cluster.span_memory_limit(2, 2) == big.memory_bytes

    def test_perfmodel_hetero_scales_costs(self, graph):
        homo = ClusterSpec(num_nodes=2, gpus_per_node=2)
        slowed = DeviceSpec(name="slow-V100", efficiency=0.55 / 2)
        hetero = ClusterSpec(
            num_nodes=2,
            gpus_per_node=2,
            node_devices=(v100(), slowed),
        )
        database = SimulatedProfiler(homo, seed=0).profile(graph)
        config = balanced_config(graph, homo, 2)
        base = PerfModel(graph, homo, database).estimate(config)
        het = PerfModel(graph, hetero, database).estimate(config)
        # Stage 0 sits on the reference node: identical cost.  Stage 1
        # sits on the half-speed node: compute costs double.
        assert het.stages[0].fwd_time_mb == pytest.approx(
            base.stages[0].fwd_time_mb
        )
        assert het.stages[1].fwd_time_mb == pytest.approx(
            2 * base.stages[1].fwd_time_mb
        )
        # Memory columns are capacity-bound, not speed-bound.
        assert het.stages[1].peak_memory == pytest.approx(
            base.stages[1].peak_memory
        )
        assert het.stage_limits is not None

    def test_perfmodel_hetero_batch_matches_scalar(self, graph):
        hetero = ClusterSpec(
            num_nodes=2, gpus_per_node=2, node_devices=(v100(), a100())
        )
        database = SimulatedProfiler(hetero, seed=0).profile(graph)
        configs = [
            balanced_config(graph, hetero, stages) for stages in (1, 2, 4)
        ]
        scalar_model = PerfModel(graph, hetero, database)
        fresh_model = PerfModel(graph, hetero, database)
        scalar = [scalar_model.estimate(c) for c in configs]
        fresh = [fresh_model.estimate_fresh(c) for c in configs]
        for left, right in zip(scalar, fresh):
            assert left.iteration_time == pytest.approx(
                right.iteration_time
            )
            assert left.is_oom == right.is_oom
            assert left.stage_limits == right.stage_limits

    def test_hetero_oom_uses_per_stage_limits(self, graph):
        tiny = DeviceSpec(name="tiny", memory_bytes=4 * 2**20)
        hetero = ClusterSpec(
            num_nodes=2,
            gpus_per_node=2,
            node_devices=(v100(), tiny),
        )
        database = SimulatedProfiler(hetero, seed=0).profile(graph)
        config = balanced_config(graph, hetero, 2)
        report = PerfModel(graph, hetero, database).estimate(config)
        assert report.is_oom
        assert report.oom_stages == [1]

    def test_executor_prices_hetero_placement(self, graph):
        homo = ClusterSpec(num_nodes=2, gpus_per_node=2)
        slowed = DeviceSpec(name="slow-V100", efficiency=0.55 / 2)
        hetero = ClusterSpec(
            num_nodes=2, gpus_per_node=2, node_devices=(v100(), slowed)
        )
        config = balanced_config(graph, homo, 2)
        fast = Executor(graph, homo, seed=0, noise=0.0).run(config)
        slow = Executor(graph, hetero, seed=0, noise=0.0).run(config)
        assert slow.iteration_time > fast.iteration_time
        assert not slow.oom

    def test_mixed_cluster_survives_search_and_adaptation(self, graph):
        hetero = mixed_cluster([v100(), a100()], gpus_per_node=2)
        config = balanced_config(graph, hetero, 2)
        shrunk = shrink_cluster_checked(hetero, [2, 3])[0]
        assert shrunk.num_gpus == 2
        adapted = adapt_config(config, graph, shrunk)
        assert adapted is not None
        assert adapted.total_devices == 2


# ======================================================================
# shrink diagnostics & stacked faults
# ======================================================================
class TestShrinkDiagnostics:
    def test_power_of_two_snap_surfaces_ace220(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8)
        shrunk, diagnostics = shrink_cluster_checked(cluster, [0, 1, 2])
        assert shrunk.num_gpus == 4  # 5 survive, snap to 4
        codes = [d.code for d in diagnostics]
        assert codes == ["ACE220"]
        assert diagnostics[0].severity == "warning"
        assert diagnostics[0].attrs == {
            "survivors": 5, "snapped": 4, "dropped": 1,
        }

    def test_exact_power_of_two_is_clean(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8)
        shrunk, diagnostics = shrink_cluster_checked(cluster, [0, 1, 2, 3])
        assert shrunk.num_gpus == 4
        assert diagnostics == []

    def test_all_devices_failed_raises_ace221(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=4)
        with pytest.raises(NoSurvivorsError) as excinfo:
            shrink_cluster_checked(cluster, range(4))
        assert excinfo.value.diagnostic.code == "ACE221"

    def test_hetero_shrink_keeps_healthiest_nodes(self):
        cluster = mixed_cluster(
            [v100(), a100(), a100(), v100()], gpus_per_node=2
        )
        # Node 1 loses both devices, node 0 loses one: the two fully
        # healthy nodes (2: A100, 3: V100) survive.
        shrunk, _ = shrink_cluster_checked(cluster, [0, 2, 3])
        assert shrunk.num_nodes == 2
        assert [d.name for d in shrunk.node_devices] == [
            a100().name, v100().name,
        ]


class TestStackedFaults:
    def stacked_timeline(self):
        return ChurnTimeline(seed=3, events=(
            ChurnEvent(0.0, "straggler_on", device_id=1, factor=2.5),
            ChurnEvent(0.0, "link_degrade", scope="intra", factor=0.5),
            ChurnEvent(0.0, "link_degrade", scope="inter", factor=0.4),
            ChurnEvent(0.001, "device_fail", device_id=5),
        ))

    def stacked_plan(self, cluster):
        return FaultPlan.from_timeline(self.stacked_timeline(), cluster)

    def test_executor_runs_all_faults_at_once(self, graph, cluster42):
        plan = self.stacked_plan(cluster42)
        config = balanced_config(graph, cluster42, 2)
        clean = Executor(graph, cluster42, seed=0, noise=0.0).run(config)
        hit = Executor(graph, cluster42, seed=0, noise=0.0).run(
            config, plan
        )
        assert hit.degraded
        assert not hit.completed  # the failure halts the iteration
        assert hit.failed_device == 5
        assert hit.throughput(graph.global_batch_size) == 0.0
        assert clean.completed

    def test_degrade_then_shrink_then_adapt(self, graph, cluster42):
        plan = self.stacked_plan(cluster42)
        degraded = degrade_cluster(
            cluster42,
            plan.bandwidth_factor("intra"),
            plan.bandwidth_factor("inter"),
        )
        assert degraded.intra_node.bandwidth == pytest.approx(
            cluster42.intra_node.bandwidth * 0.5
        )
        assert degraded.inter_node.bandwidth == pytest.approx(
            cluster42.inter_node.bandwidth * 0.4
        )
        shrunk = shrink_cluster_checked(
            degraded, [f.device_id for f in plan.device_failures]
        )[0]
        assert shrunk.num_gpus == 4
        # The degraded links carry over to the surviving cluster.
        assert shrunk.intra_node.bandwidth == degraded.intra_node.bandwidth
        config = balanced_config(graph, cluster42, 2)
        adapted = adapt_config(config, graph, shrunk)
        assert adapted is not None
        assert adapted.total_devices == 4
        assert adapted.num_stages == config.num_stages
        result = Executor(graph, shrunk, seed=0, noise=0.0).run(adapted)
        assert result.completed and not result.oom

    def test_stacked_plan_round_trips(self, tmp_path, cluster42):
        path = tmp_path / "stacked.churn.json"
        self.stacked_timeline().save(path)
        loaded = FaultPlan.from_timeline(ChurnTimeline.load(path), cluster42)
        assert loaded == FaultPlan(
            device_failures=(DeviceFailure(device_id=5, time=0.001),),
            stragglers=(StragglerSlowdown(device_id=1, factor=2.5),),
            link_degradations=(
                LinkDegradation("inter", 0.4),
                LinkDegradation("intra", 0.5),
            ),
        )


# ======================================================================
# the elastic controller
# ======================================================================
class TestElasticController:
    def test_replay_equivalence(self, graph, cluster42):
        timeline = random_churn_timeline(4, 2, seed=7, num_events=8)
        policy = ControllerPolicy(replan_iterations=3)
        first = ElasticController(
            graph, cluster42, seed=3, policy=policy
        ).run(timeline)
        second = ElasticController(
            graph, cluster42, seed=3, policy=policy
        ).run(timeline)
        assert first.replay_digest() == second.replay_digest()
        assert first.to_dict()["decisions"] == [
            d.to_dict() for d in first.decisions
        ]
        # The record is JSON-clean end to end.
        json.dumps(first.to_dict())

    def test_replay_digest_is_pinned(self):
        """The run ``benchmarks/bench_elastic.py`` records: its digest
        in ``BENCH_elastic.json`` must not move."""
        from repro.ir.models import build_model

        run = ElasticController(
            build_model("gpt-4l"),
            ClusterSpec(num_nodes=4, gpus_per_node=2),
            seed=3,
            policy=ControllerPolicy(replan_iterations=4),
        ).run(random_churn_timeline(
            4, 2, seed=3, num_events=8, horizon_seconds=60.0
        ))
        assert run.replay_digest() == (
            "726e831585feddfd487e89d4fa40c8ecc43b426dd40f898c0079a9e8a315bb06"
        )

    def test_forced_replan_on_preemption(self, graph, cluster42):
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "node_preempt", node_id=3),
        ))
        run = ElasticController(
            graph, cluster42, seed=0, policy=quick_policy()
        ).run(timeline)
        (decision,) = run.decisions
        assert decision.action == "replan"
        assert decision.reason == "shape_mismatch"
        assert decision.cluster_gpus == 4
        assert run.final_feasible
        assert run.final_config.total_devices == 4

    def test_device_failure_shrinks_and_a_node_join_restores_it(
        self, graph, cluster42
    ):
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "device_fail", device_id=5),
            ChurnEvent(20.0, "node_join", node_id=2),
        ))
        run = ElasticController(
            graph, cluster42, seed=0, policy=quick_policy()
        ).run(timeline)
        failed, rejoined = run.decisions
        # 7 healthy devices snap to the 4 of two whole nodes.
        assert (failed.action, failed.reason) == ("replan", "shape_mismatch")
        assert failed.cluster_gpus == 4
        assert (rejoined.action, rejoined.reason) == (
            "replan", "shape_mismatch",
        )
        assert rejoined.cluster_gpus == 8
        assert run.final_feasible

    def test_hysteresis_cooldown_blocks_back_to_back_replans(
        self, graph, cluster42
    ):
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "straggler_on", device_id=0, factor=4.0),
            ChurnEvent(8.0, "straggler_on", device_id=2, factor=4.0),
        ))
        policy = quick_policy(
            loss_threshold=0.05,
            cooldown_seconds=30.0,
            debounce_seconds=1.0,
        )
        run = ElasticController(
            graph, cluster42, seed=0, policy=policy
        ).run(timeline)
        assert [d.action for d in run.decisions][0] == "replan"
        assert run.decisions[0].reason == "loss_threshold"
        second = run.decisions[1]
        assert second.action == "keep"
        assert second.reason in ("cooldown", "below_threshold")

    def test_debounce_coalesces_bursts(self, graph, cluster42):
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "node_preempt", node_id=0),
            ChurnEvent(5.2, "node_preempt", node_id=1),
            ChurnEvent(5.4, "straggler_on", device_id=6, factor=2.0),
        ))
        run = ElasticController(
            graph, cluster42, seed=0, policy=quick_policy()
        ).run(timeline)
        assert len(run.decisions) == 1
        assert len(run.decisions[0].events) == 3

    def test_small_losses_are_kept(self, graph, cluster42):
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "link_degrade", scope="inter", factor=0.9),
        ))
        run = ElasticController(
            graph, cluster42, seed=0,
            policy=quick_policy(loss_threshold=0.5),
        ).run(timeline)
        (decision,) = run.decisions
        assert decision.action == "keep"
        assert decision.reason == "below_threshold"

    def test_all_nodes_preempted_halts_then_recovers(
        self, graph, cluster42
    ):
        events = tuple(
            ChurnEvent(float(i + 1) * 5, "node_preempt", node_id=i)
            for i in range(4)
        ) + (ChurnEvent(30.0, "node_join", node_id=0),)
        run = ElasticController(
            graph, cluster42, seed=0, policy=quick_policy()
        ).run(ChurnTimeline(seed=0, events=events))
        actions = [d.action for d in run.decisions]
        assert "halt" in actions
        assert actions[-1] == "replan"  # the join resumes service
        assert run.decisions[-1].reason == "resume"
        assert run.final_feasible

    def test_events_about_unknown_hardware_are_inert(self, graph):
        single = ClusterSpec(num_nodes=1, gpus_per_node=4)
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(1.0, "node_preempt", node_id=7),
            ChurnEvent(2.0, "straggler_on", device_id=99, factor=2.0),
        ))
        run = ElasticController(
            graph, single, seed=0, policy=quick_policy()
        ).run(timeline)
        assert all(d.action == "keep" for d in run.decisions)
        assert run.final_feasible

    def test_never_crashes_on_random_timelines(self, graph, cluster42):
        for seed in range(4):
            timeline = random_churn_timeline(
                4, 2, seed=seed, num_events=10
            )
            run = ElasticController(
                graph, cluster42, seed=seed, policy=quick_policy()
            ).run(timeline)
            assert len(run.decisions) >= 1
            for decision in run.decisions:
                assert decision.plan_signature

    def test_straggler_folds_into_planner_view(self, cluster42):
        view = Membership.fold(cluster42, (
            ChurnEvent(1.0, "straggler_on", device_id=2, factor=2.0),
            ChurnEvent(2.0, "link_degrade", scope="intra", factor=0.5),
        )).view()
        # Planner view: node 1 is half-speed, links degraded.
        assert view.planner.is_heterogeneous
        assert view.planner.node_devices[1].efficiency == pytest.approx(
            view.planner.node_devices[0].efficiency / 2
        )
        assert view.planner.intra_node.bandwidth == pytest.approx(
            cluster42.intra_node.bandwidth * 0.5
        )
        # Executor view: nominal links, faults carried separately.
        assert view.effective.intra_node.bandwidth == pytest.approx(
            cluster42.intra_node.bandwidth
        )
        assert view.fault_view.stragglers[0].device_id == 2
        assert view.fault_view.link_degradations[0].scope == "intra"

    def test_emits_elastic_telemetry(self, graph, cluster42):
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        timeline = ChurnTimeline(seed=0, events=(
            ChurnEvent(5.0, "node_preempt", node_id=3),
        ))
        with using_bus(bus):
            ElasticController(
                graph, cluster42, seed=0, policy=quick_policy()
            ).run(timeline)
        names = {event.name for event in events}
        assert {
            "elastic.run.begin", "elastic.run.end", "elastic.event",
            "elastic.decision", "elastic.replan.begin",
            "elastic.replan.end", "elastic.cluster.shrunk",
        } <= names
        from repro.telemetry.events import is_registered

        assert all(
            is_registered(event.name)
            for event in events
            if event.name.startswith("elastic.")
        )


# ======================================================================
# churn timeline lint
# ======================================================================
class TestChurnLint:
    def test_clean_timeline_lints_clean(self, tmp_path):
        path = tmp_path / "ok.churn.json"
        random_churn_timeline(4, 2, seed=1, num_events=6).save(path)
        from repro.lint import lint_artifact_path

        assert lint_artifact_path(path) == []

    def test_broken_timelines_get_typed_codes(self, tmp_path):
        from repro.lint import lint_artifact_path

        path = tmp_path / "bad.churn.json"
        path.write_text(json.dumps({
            "format_version": 9,
            "seed": 0,
            "events": [
                {"time": 2.0, "kind": "node_join", "node_id": 0},
                {"time": 1.0, "kind": "warp_core_breach"},
            ],
        }))
        codes = sorted(d.code for d in lint_artifact_path(path))
        assert codes == ["ACE351", "ACE353"]

        path.write_text(json.dumps({
            "format_version": 1,
            "seed": 0,
            "events": [
                {"time": 2.0, "kind": "node_join", "node_id": 0},
                {"time": 1.0, "kind": "node_join", "node_id": 1},
            ],
        }))
        assert [d.code for d in lint_artifact_path(path)] == ["ACE352"]

    def test_unreadable_timeline_is_ace350(self, tmp_path):
        from repro.lint import lint_churn_timeline_file

        path = tmp_path / "garbage.churn.json"
        path.write_text("{not json")
        assert [d.code for d in lint_churn_timeline_file(path)] == [
            "ACE350"
        ]

    def test_total_preemption_warns_ace354(self, tmp_path):
        from repro.lint import lint_artifact_path

        path = tmp_path / "dark.churn.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "seed": 0,
            "events": [
                {"time": 1.0, "kind": "node_preempt", "node_id": 0},
                {"time": 2.0, "kind": "node_preempt", "node_id": 1},
            ],
        }))
        diagnostics = lint_artifact_path(path)
        assert [d.code for d in diagnostics] == ["ACE354"]
        assert diagnostics[0].severity == "warning"

    def test_shape_dispatch_without_suffix(self, tmp_path):
        from repro.lint import lint_artifact_path

        path = tmp_path / "anything.json"
        random_churn_timeline(2, 2, seed=0, num_events=3).save(path)
        assert lint_artifact_path(path) == []


# ======================================================================
# churn-aware serving
# ======================================================================
class TestChurnServing:
    @pytest.fixture()
    def server(self, tmp_path):
        from test_service import fleet_of_one, quick_planner

        with fleet_of_one(tmp_path, quick_planner) as (http_server, replica):
            yield http_server, replica.daemon

    def post(self, server, path, payload):
        port = server.server_address[1]
        # One retry on transient connection errors: the assertion is
        # "the daemon never drops a request", not "the kernel never
        # resets a socket under a burst".
        for attempt in (0, 1):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=30
                ) as reply:
                    return reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())
            except (urllib.error.URLError, ConnectionError, OSError):
                if attempt:
                    raise
                time.sleep(0.2)

    def test_churn_endpoint_invalidates_cache(self, server):
        http_server, daemon = server
        request = {"model": "m", "gpus": 4}
        self.post(http_server, "/plan", request)
        assert len(daemon.cache) == 1
        code, body = self.post(
            http_server, "/churn",
            {"time": 1.0, "kind": "node_preempt", "node_id": 0},
        )
        assert code == 200
        # The router's shared tier drops, and nothing is demoted.
        assert body == {"kind": "node_preempt", "dropped": 1}
        # The replica keeps the plan under its nominal fingerprint, which
        # no request names while node 0 is out: none is left to plan on.
        assert len(daemon.cache) == 1
        code, body = self.post(http_server, "/plan", request)
        assert code == 400
        assert [d["code"] for d in body["diagnostics"]] == ["ACE221"]

    def test_invalid_churn_event_is_a_client_error(self, server):
        http_server, _ = server
        code, body = self.post(
            http_server, "/churn", {"time": 1.0, "kind": "nope"}
        )
        assert code == 400
        assert "error" in body

    def test_invalid_churn_event_leaves_every_cache_alone(self, server):
        http_server, daemon = server
        request = {"model": "m", "gpus": 4}
        code, first = self.post(http_server, "/plan", request)
        assert code == 200 and not first["cached"]
        code, _ = self.post(
            http_server, "/churn", {"time": 1.0, "kind": "meteor_strike"}
        )
        assert code == 400
        assert len(daemon.cache) == 1
        code, again = self.post(http_server, "/plan", request)
        assert code == 200
        assert again["cached"] and again["plan"] == first["plan"]
        # Answered by the router's shared tier, not the replica's.
        assert again["replica"] is None

    def test_requests_survive_concurrent_churn(self, server):
        """The chaos assertion: every /plan in flight during a churn
        storm gets a terminal answer — degraded allowed, drops not."""
        http_server, daemon = server
        timeline = random_churn_timeline(4, 2, seed=2, num_events=6)
        results = [None] * 6

        def client(index):
            results[index] = self.post(
                http_server, "/plan",
                {"model": "m", "gpus": 4 * (1 + index % 2)},
            )

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(results))
        ]
        for thread in threads[:3]:
            thread.start()
        for event in timeline.events:
            self.post(http_server, "/churn", event.to_dict())
        for thread in threads[3:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert all(result is not None for result in results)
        for code, body in results:
            assert code == 200
            assert body.get("status") in ("served", "partial")
            assert body.get("plan")

    def test_router_churn_accepts_event_objects(self):
        from repro.service import FleetRouter

        router = FleetRouter({"replica-0": None})
        result = router.churn(
            ChurnEvent(1.0, "link_degrade", scope="intra", factor=0.5)
        )
        assert result == {"kind": "link_degrade", "dropped": 0}
        assert router._churn.state(8) == {
            "lost": [], "stragglers": [], "links": {"intra": 0.5},
        }


class TestChurnReachesThePlan:
    """Served plans are searched on the cluster the churn left."""

    @staticmethod
    def _fleet(tmp_path, planner=None, workers=1):
        from repro.service import FleetRouter, InProcessReplica

        replica = InProcessReplica(
            "replica-0",
            state_dir=tmp_path / "replica-0",
            planner=planner,
            daemon_kwargs={"workers": workers},
        ).start()
        return FleetRouter({"replica-0": replica}).start(), replica

    @staticmethod
    def _devices(plan):
        return sum(stage["num_devices"] for stage in plan["stages"])

    def test_preempt_and_join_on_two_nodes(self, tmp_path):
        from repro.cluster import paper_cluster
        from repro.core import search_all_stage_counts
        from repro.ir.models import build_model
        from repro.perfmodel import build_perf_model
        from repro.service import PlanRequest, plan_digest

        request = PlanRequest(model="gpt-4l", gpus=16, iterations=3)
        router, replica = self._fleet(tmp_path)
        try:
            before = router.submit(request)
            assert plan_digest(before.plan) == "a5fede2f0c49f2b5"
            assert before.objective == pytest.approx(0.09686, abs=5e-6)
            assert self._devices(before.plan) == 16

            router.churn({"time": 1.0, "kind": "node_preempt", "node_id": 1})
            shrunk = router.submit(request)
            assert shrunk.status == "served" and not shrunk.cached
            assert plan_digest(shrunk.plan) == "9c00962c76c7966f"
            assert shrunk.objective == pytest.approx(0.17691, abs=5e-6)
            assert self._devices(shrunk.plan) == 8
            survivors = shrink_cluster_checked(
                paper_cluster(16), range(8, 16)
            )[0]
            graph = build_model("gpt-4l")
            oracle = search_all_stage_counts(
                graph, survivors,
                build_perf_model(graph, survivors, seed=request.seed),
                budget_per_count={"max_iterations": 3},
                strategy_kwargs={"seed": request.seed},
            ).best
            assert shrunk.objective == oracle.best_objective
            # The churned plan persists under its own fingerprint, which
            # names the membership it was planned on.
            persisted = sorted(
                [f"{request.fingerprint()}.plan.json",
                 f"{shrunk.fingerprint}.plan.json"]
            )
            assert shrunk.fingerprint != request.fingerprint()
            assert sorted(
                p.name for p in (tmp_path / "replica-0").glob("*.plan.json")
            ) == persisted

            router.churn({"time": 2.0, "kind": "node_join", "node_id": 1})
            again = router.submit(request)
            assert plan_digest(again.plan) == "a5fede2f0c49f2b5"
            # Nominal again: the bare fingerprint, whose plan is cached.
            assert again.fingerprint == request.fingerprint()
            assert again.cached
            assert sorted(
                p.name for p in (tmp_path / "replica-0").glob("*.plan.json")
            ) == persisted
        finally:
            router.stop()

    def test_no_survivors_is_a_structured_rejection(self, tmp_path):
        from repro.service import PlanRequest, plan_digest
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        request = PlanRequest(model="gpt-4l", gpus=8, iterations=3)
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        router, replica = self._fleet(tmp_path)
        try:
            with using_bus(bus):
                router.churn(
                    {"time": 1.0, "kind": "node_preempt", "node_id": 0}
                )
                dark = router.submit(request)
            assert dark.status == "rejected" and dark.plan is None
            assert [d["code"] for d in dark.diagnostics] == ["ACE221"]
            assert not any(
                e.name == "service.request.started" for e in events
            )
            assert all(
                b["state"] == "closed"
                for b in replica.daemon.breaker.snapshot().values()
            )

            router.churn({"time": 2.0, "kind": "node_join", "node_id": 0})
            back = router.submit(request)
            assert back.status == "served"
            assert plan_digest(back.plan) == "9c00962c76c7966f"
        finally:
            router.stop()

    def test_fold_keeps_up_with_concurrent_events(self):
        """Readers folding while events arrive never keep a fold that
        misses an event: once the writer is done, every state matches a
        fresh fold of all events."""
        import sys

        from repro.cluster import paper_cluster
        from repro.service.fleet import ChurnFold

        events = random_churn_timeline(
            4, 2, seed=4, num_events=40, horizon_seconds=40.0
        ).events
        fold = ChurnFold()
        done = threading.Event()

        def reader(gpus):
            while not done.is_set():
                fold.state(gpus)

        def writer():
            for event in events:
                fold.add(event)
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(gpus,))
                for gpus in (4, 8, 16, 4, 8, 16)
            ] + [threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        for gpus in (4, 8, 16):
            state = Membership.fold(paper_cluster(gpus), events).state
            assert fold.state(gpus) == state

    def test_no_stale_plan_crosses_a_churn_event(self, tmp_path):
        """A search admitted before ``/churn`` answers only its own
        fold: not from the daemon's cache, not by coalescing, not from
        the router's shared or stale tier."""
        from dataclasses import replace

        from repro.cluster import paper_cluster
        from repro.service import PlanOutcome, PlanRequest

        entered = threading.Semaphore(0)
        release = threading.Event()
        seen = []

        def blocked_planner(request, *, deadline=None,
                            checkpoint_path=None, cluster=None):
            gpus = cluster.num_gpus if cluster else request.gpus
            seen.append(gpus)
            entered.release()
            release.wait(timeout=30)
            return PlanOutcome(plan={"gpus": gpus}, objective=float(gpus))

        request = PlanRequest(model="m", gpus=8)
        router, replica = self._fleet(tmp_path, blocked_planner, workers=2)
        answers = {}

        def ask(name):
            answers[name] = router.submit(request)

        try:
            before = threading.Thread(target=ask, args=("before",))
            before.start()
            assert entered.acquire(timeout=10)
            event = {"time": 1.0, "kind": "device_fail", "device_id": 7}
            router.churn(event)
            after = threading.Thread(target=ask, args=("after",))
            after.start()
            # Its own search, not a ride on the one admitted earlier.
            assert entered.acquire(timeout=10)
            release.set()
            before.join(timeout=30)
            after.join(timeout=30)
            assert sorted(seen) == [4, 8]
            assert answers["before"].plan == {"gpus": 8}
            assert answers["after"].plan == {"gpus": 4}
            assert not answers["after"].coalesced

            # The request as the router stamped it.
            stamped = replace(request, membership=Membership.fold(
                paper_cluster(8), [ChurnEvent.from_dict(event)]
            ).state)
            assert answers["after"].fingerprint == stamped.fingerprint()
            daemon_hit = replica.daemon.submit(stamped)
            assert daemon_hit.cached and daemon_hit.plan == {"gpus": 4}
            shared_hit = router.submit(request)
            assert shared_hit.cached and shared_hit.replica is None
            assert shared_hit.plan == {"gpus": 4}
            router.invalidate()
            replica.kill()
            stale = router.submit(request)
            assert stale.stale and stale.plan == {"gpus": 4}
        finally:
            release.set()
            router.stop()


    def test_restarted_replica_plans_on_the_fold(self, tmp_path):
        """A restarted replica keeps no churn and needs none: the request
        carries the fleet's membership, so after ``node_preempt`` of
        node 1 every answer stays on node 0's 8 devices."""
        from dataclasses import replace

        from repro.service import PlanRequest, plan_digest

        request = PlanRequest(model="gpt-4l", gpus=16, iterations=3)
        router, replica = self._fleet(tmp_path)
        try:
            assert plan_digest(router.submit(request).plan) == \
                "a5fede2f0c49f2b5"
            router.churn({"time": 1.0, "kind": "node_preempt", "node_id": 1})
            shrunk = router.submit(request)
            assert plan_digest(shrunk.plan) == "9c00962c76c7966f"
            replica.kill()
            replica.restart()
            router.invalidate()
            after = router.submit(request)
            assert after.status == "served" and not after.cached
            assert plan_digest(after.plan) == "9c00962c76c7966f"
            assert self._devices(after.plan) == 8
            again = router.submit(request)
            assert again.cached and again.plan == after.plan
            # Planned on what the fold stamped: node 1's devices are lost.
            assert after.fingerprint == replace(request, membership={
                "lost": list(range(8, 16)), "stragglers": [], "links": {},
            }).fingerprint()
        finally:
            router.stop()

    def test_churned_request_survives_a_replica_restart(self, tmp_path):
        """A churned request a crash sheds from the queue keeps its
        journal, and the restarted replica plans it on its membership."""
        from repro.service import PlanOutcome, PlanRequest

        blocking = threading.Event()
        seen = []

        def planner(request, *, deadline=None, checkpoint_path=None,
                    cluster=None):
            gpus = cluster.num_gpus if cluster else request.gpus
            seen.append((request.model, gpus))
            if request.model == "blocker":
                blocking.set()
                while not deadline.expired():  # until the crash drains it
                    time.sleep(0.01)
            return PlanOutcome(plan={"gpus": gpus}, objective=float(gpus))

        request = PlanRequest(model="m", gpus=8)
        state = tmp_path / "replica-0"
        router, replica = self._fleet(tmp_path, planner, workers=1)
        answers = []
        try:
            blocker = threading.Thread(
                target=router.submit,
                args=(PlanRequest(model="blocker", gpus=8),),
            )
            blocker.start()
            assert blocking.wait(timeout=10)
            router.churn({"time": 1.0, "kind": "device_fail", "device_id": 7})
            asker = threading.Thread(
                target=lambda: answers.append(router.submit(request))
            )
            asker.start()
            waited = time.monotonic()
            while len(list(state.glob("*.request.json"))) < 2:
                assert time.monotonic() - waited < 10, "never queued"
                time.sleep(0.01)
            replica.kill()
            blocker.join(timeout=30)
            asker.join(timeout=30)
            assert not (blocker.is_alive() or asker.is_alive())
            assert answers[0].status == "rejected"
            journals = [p.name for p in state.glob("*.request.json")]
            assert journals == [f"{answers[0].fingerprint}.request.json"]

            replica.restart()
            waited = time.monotonic()
            while list(state.glob("*.request.json")):
                assert time.monotonic() - waited < 10, "never re-admitted"
                time.sleep(0.01)
            assert [s for s in seen if s[0] == "m"] == [("m", 4)]
            served = router.submit(request)
            assert served.cached and served.plan == {"gpus": 4}
            assert served.fingerprint == answers[0].fingerprint
            assert served.fingerprint != request.fingerprint()
        finally:
            router.stop()

    def test_churned_failures_leave_the_nominal_breaker_closed(
        self, tmp_path
    ):
        from repro.service import PlanOutcome, PlanRequest

        def planner(request, *, deadline=None, checkpoint_path=None,
                    cluster=None):
            if cluster is not None:
                raise RuntimeError("no plan on the churned cluster")
            return PlanOutcome(plan={"gpus": request.gpus}, objective=1.0)

        request = PlanRequest(model="m", gpus=8)
        router, replica = self._fleet(tmp_path, planner)
        try:
            fail = {"time": 1.0, "kind": "device_fail", "device_id": 7}
            router.churn(fail)
            for _ in range(3):
                assert router.submit(request).status == "failed"
            router.churn({"time": 2.0, "kind": "node_join", "node_id": 0})
            nominal = router.submit(request)
            assert nominal.status == "served", nominal.error
            # The churned membership's own breaker is the one open.
            router.churn(dict(fail, time=3.0))
            opened = router.submit(request)
            assert opened.status == "rejected"
            assert "circuit breaker open" in opened.error
            assert "/membership=" in opened.error
        finally:
            router.stop()

    @pytest.mark.parametrize("gpus", [4, 8, 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_from_state_round_trips_the_fold(self, seed, gpus, tmp_path):
        """``Membership.from_state`` rebuilds a fold with the same state
        and planner view, and the state survives JSON, so a journaled
        churned request keeps its fingerprint (ACE331)."""
        from dataclasses import replace

        from repro.cluster import paper_cluster
        from repro.lint.artifacts import lint_journal_file
        from repro.service import PlanRequest

        cluster = paper_cluster(gpus)
        events = random_churn_timeline(
            2, 8, seed=seed, num_events=10
        ).events
        for end in range(len(events) + 1):
            fold = Membership.fold(cluster, events[:end])
            rebuilt = Membership.from_state(cluster, fold.state)
            assert rebuilt.state == fold.state
            try:
                view = fold.view().planner
            except NoSurvivorsError:
                with pytest.raises(NoSurvivorsError):
                    rebuilt.view()
            else:
                assert rebuilt.view().planner == view
        request = replace(
            PlanRequest(model="gpt-4l", gpus=gpus), membership=fold.state
        )
        loaded = PlanRequest.from_json(
            json.loads(json.dumps(request.to_json()))
        )
        assert loaded == request
        assert loaded.fingerprint() == request.fingerprint()
        path = tmp_path / f"{request.fingerprint()}.request.json"
        path.write_text(json.dumps(request.to_json()))
        assert lint_journal_file(path) == []


# ======================================================================
# CLI
# ======================================================================
class TestElasticCLI:
    def test_gen_and_run_round_trip(self, tmp_path, capsys):
        from repro.cli import elastic_main

        path = tmp_path / "cli.churn.json"
        assert elastic_main([
            "gen", "--seed", "4", "--nodes", "4",
            "--gpus-per-node", "2", "--events", "4",
            "--output", str(path),
        ]) == 0
        assert ChurnTimeline.load(path).seed == 4

        out_path = tmp_path / "run.json"
        assert elastic_main([
            "run", "--model", "gpt-2l", "--seed", "4",
            "--nodes", "4", "--gpus-per-node", "2",
            "--timeline", str(path), "--iterations", "2",
            "--output", str(out_path), "--quiet", "--json",
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["seed"] == 4
        assert payload["decisions"]
        assert payload["final_feasible"] is True

    def test_replan_churn_replay_mode(self, tmp_path, capsys):
        from repro.cli import replan_main

        path = tmp_path / "replay.churn.json"
        random_churn_timeline(2, 2, seed=1, num_events=3).save(path)
        assert replan_main([
            "--model", "gpt-2l", "--gpus", "4", "--iterations", "2",
            "--churn-timeline", str(path), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decisions"]

    @pytest.fixture(scope="class")
    def plan_path(self, tmp_path_factory):
        from repro.cluster import paper_cluster
        from repro.ir.models import build_model
        from repro.parallel.serialization import save_config

        path = tmp_path_factory.mktemp("estimate") / "plan.json"
        save_config(
            balanced_config(build_model("gpt-2l"), paper_cluster(4), 2),
            path,
        )
        return path

    def estimate(self, plan_path, fault_path, capsys):
        from repro.cli import estimate_main

        rc = estimate_main([
            "--model", "gpt-2l", "--gpus", "4", str(plan_path),
            "--fault-plan", str(fault_path), "--quiet", "--json",
        ])
        return rc, capsys.readouterr()

    def test_estimate_device_fail_timeline_halts(
        self, tmp_path, plan_path, capsys
    ):
        path = tmp_path / "fail.churn.json"
        ChurnTimeline(events=(
            ChurnEvent(0.0, "device_fail", device_id=1),
        )).save(path)
        rc, out = self.estimate(plan_path, path, capsys)
        assert rc == 1
        payload = json.loads(out.out)
        assert payload["completed"] is False
        assert payload["failed_device"] == 1
        assert payload["fault_plan"] == str(path)

    def test_estimate_straggler_timeline_is_degraded(
        self, tmp_path, plan_path, capsys
    ):
        path = tmp_path / "slow.churn.json"
        ChurnTimeline(events=(
            ChurnEvent(0.0, "straggler_on", device_id=0, factor=2.0),
        )).save(path)
        rc, out = self.estimate(plan_path, path, capsys)
        assert rc == 0
        payload = json.loads(out.out)
        assert payload["completed"] is True
        assert payload["degraded"] is True

    def test_estimate_rejects_an_old_fault_plan_file(
        self, tmp_path, plan_path, capsys
    ):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "seed": 0,
            "device_failures": [{"device_id": 1, "time": 0.5}],
            "stragglers": [],
            "link_degradations": [],
            "transient_ooms": [],
        }))
        rc, out = self.estimate(plan_path, path, capsys)
        assert rc == 1
        assert "cannot load fault plan" in out.err
        assert "ACE35" in out.err
        assert "Traceback" not in out.err

    def test_replan_single_failure_mode(self, capsys):
        from repro.cli import replan_main

        assert replan_main([
            "--model", "gpt-4l", "--gpus", "8", "--iterations", "2",
            "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "model", "gpus", "surviving_gpus", "failed_device",
            "failure_time", "tasks_completed", "tasks_total",
            "strategies", "estimate_savings",
        }
        warm, cold = payload["strategies"]["warm"], payload["strategies"]["cold"]
        for outcome in (warm, cold):
            assert set(outcome) == {
                "best_objective", "feasible", "num_estimates",
                "estimates_to_feasible", "wall_seconds",
            }
        assert warm["feasible"]
        assert warm["num_estimates"] < cold["num_estimates"]
        assert payload["surviving_gpus"] == 4
        assert payload["estimate_savings"] > 0

    def test_replan_rejects_missing_timeline(self, tmp_path):
        from repro.cli import replan_main

        assert replan_main([
            "--model", "gpt-2l", "--gpus", "4",
            "--churn-timeline", str(tmp_path / "nope.churn.json"),
            "--quiet",
        ]) == 2

"""Tests for Heuristic-1 bottleneck identification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import identify_bottleneck, rank_bottlenecks
from repro.parallel import balanced_config
from repro.perfmodel.report import PerfReport, StageReport


def _stage(fwd=1.0, bwd=2.0, weights=1e9, act=1e8, in_flight=1,
           dp_sync=0.0):
    return StageReport(
        fwd_time_mb=fwd,
        bwd_time_mb=bwd,
        recompute_time_mb=0.0,
        tp_comm_time_mb=0.0,
        reshard_time_mb=0.0,
        p2p_time_mb=0.0,
        dp_sync_time=dp_sync,
        weight_bytes=weights,
        optimizer_bytes=0.0,
        activation_bytes_mb=act,
        in_flight=in_flight,
        reserved_bytes=0.0,
    )


def _report(stages, limit=32e9, num_microbatches=4, stage_limits=None):
    return PerfReport(
        stages=tuple(stages),
        num_microbatches=num_microbatches,
        iteration_time=1.0,
        memory_limit=limit,
        stage_limits=stage_limits,
    )


class TestHeuristic1:
    def test_slowest_stage_wins_when_feasible(self):
        report = _report([_stage(fwd=1.0), _stage(fwd=5.0), _stage(fwd=2.0)])
        assert identify_bottleneck(report).stage == 1

    def test_oom_overrides_time(self):
        report = _report(
            [_stage(fwd=9.0, weights=1e9), _stage(fwd=1.0, weights=40e9)]
        )
        bottleneck = identify_bottleneck(report)
        assert bottleneck.stage == 1
        assert bottleneck.is_oom
        assert bottleneck.primary_resource == "memory"

    def test_oom_ranks_all_by_memory(self):
        report = _report(
            [_stage(weights=40e9), _stage(weights=50e9), _stage(weights=1e9)]
        )
        ranked = rank_bottlenecks(report)
        assert [b.stage for b in ranked] == [1, 0, 2]

    def test_feasible_ranks_by_time(self):
        report = _report([_stage(fwd=3.0), _stage(fwd=1.0), _stage(fwd=2.0)])
        assert [b.stage for b in rank_bottlenecks(report)] == [0, 2, 1]

    def test_resources_ordered_by_proportion(self):
        # Stage 0 dominates compute; its first resource should be
        # compute (no OOM anywhere).
        report = _report([_stage(fwd=50.0), _stage(fwd=1.0)])
        bottleneck = identify_bottleneck(report)
        assert bottleneck.primary_resource == "compute"

    def test_real_model_bottleneck(self, tiny_perf_model, tiny_graph,
                                   small_cluster):
        config = balanced_config(tiny_graph, small_cluster, 4)
        report = tiny_perf_model.estimate(config)
        ranked = rank_bottlenecks(report)
        assert len(ranked) == 4
        times = report.stage_times()
        assert times[ranked[0].stage] == max(times)


class TestIdentifyBottleneck:
    @settings(deadline=None)
    @given(data=st.data())
    def test_is_the_first_ranked_bottleneck(self, data):
        """``identify_bottleneck`` builds only the top stage's bottleneck,
        and it is ``rank_bottlenecks``'s first, ties included: values
        come from a few levels, so stage times and peaks often tie, some
        stages are OOM, and mixed clusters give per-stage limits."""
        num_stages = data.draw(st.integers(1, 8), label="stages")
        levels = st.sampled_from([1.0, 2.0, 3.0])
        stages = [
            _stage(
                fwd=data.draw(levels), bwd=data.draw(levels),
                weights=data.draw(levels) * 1e9,
                act=data.draw(levels) * 1e8,
                in_flight=data.draw(st.integers(1, 2)),
                dp_sync=data.draw(st.sampled_from([0.0, 1.0])),
            )
            for _ in range(num_stages)
        ]
        caps = st.sampled_from([1.5e9, 2.5e9, 4e9])
        stage_limits = data.draw(st.one_of(
            st.none(), st.tuples(*[caps] * num_stages)
        ), label="stage_limits")
        report = _report(
            stages, limit=data.draw(caps, label="limit"),
            stage_limits=stage_limits,
        )
        assert identify_bottleneck(report) == rank_bottlenecks(report)[0]

"""Tests for repro.perfmodel: memory, timing, reports, the model."""

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.parallel import balanced_config
from repro.perfmodel import (
    PerfModel,
    allocator_reserve,
    in_flight_counts,
    iteration_time_1f1b,
    stage_peak_memory,
    stage_totals,
)
from repro.perfmodel.memory import RESERVE_SAFETY_FACTOR
from repro.runtime.memory_trace import activation_kept_mask

from conftest import make_tiny_gpt


class TestMemoryFormulas:
    def test_in_flight_counts(self):
        np.testing.assert_array_equal(
            in_flight_counts(4, 100), [4, 3, 2, 1]
        )

    def test_in_flight_capped_by_microbatches(self):
        np.testing.assert_array_equal(in_flight_counts(4, 2), [2, 2, 2, 1])

    def test_in_flight_validation(self):
        with pytest.raises(ValueError):
            in_flight_counts(0, 1)

    def test_kept_mask_no_recompute(self):
        rc = np.zeros(4, dtype=bool)
        sid = np.zeros(4, dtype=np.int64)
        np.testing.assert_array_equal(
            activation_kept_mask(rc, sid), [1, 1, 1, 1]
        )

    def test_kept_mask_segment_keeps_first(self):
        rc = np.array([False, True, True, False])
        sid = np.zeros(4, dtype=np.int64)
        np.testing.assert_array_equal(
            activation_kept_mask(rc, sid), [1, 1, 0, 1]
        )

    def test_kept_mask_resets_at_stage_boundary(self):
        rc = np.array([True, True, True, True])
        sid = np.array([0, 0, 1, 1])
        # Each stage's first recomputed op is a checkpoint.
        np.testing.assert_array_equal(
            activation_kept_mask(rc, sid), [1, 0, 1, 0]
        )

    def test_kept_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            activation_kept_mask(
                np.zeros(3, dtype=bool), np.zeros(4, dtype=np.int64)
            )

    def test_allocator_reserve_per_stage_max(self):
        from repro.perfmodel.memory import ALLOCATOR_BLOCK_BYTES as BLOCK

        transient = np.array([1.0, 5.0, 2.0, 7.0]) * BLOCK
        starts = np.array([0, 2])
        np.testing.assert_allclose(
            allocator_reserve(transient, starts),
            np.array([5.0, 7.0]) * BLOCK * RESERVE_SAFETY_FACTOR,
        )

    def test_allocator_reserve_rounds_to_blocks(self):
        from repro.perfmodel.memory import ALLOCATOR_BLOCK_BYTES as BLOCK

        tiny = np.array([100.0, 1.0])  # far below one block
        starts = np.array([0])
        np.testing.assert_allclose(
            allocator_reserve(tiny, starts),
            [BLOCK * RESERVE_SAFETY_FACTOR],
        )

    def test_allocator_reserve_empty_raises(self):
        with pytest.raises(ValueError):
            allocator_reserve(np.array([]), np.array([0]))

    def test_stage_peak_memory_formula(self):
        assert stage_peak_memory(10, 20, 5, 3, 7) == 10 + 20 + 15 + 7


class TestTimingFormulas:
    def test_homogeneous_matches_closed_form(self):
        """p equal stages: T = (p - 1)(f + b) + N (f + b)."""
        p, n, f, b = 4, 16, 2.0, 3.0
        total = iteration_time_1f1b([f] * p, [b] * p, n)
        assert total == pytest.approx((p - 1) * (f + b) + n * (f + b))

    def test_single_stage(self):
        assert iteration_time_1f1b([2.0], [3.0], 10) == pytest.approx(50.0)

    def test_slow_stage_dominates(self):
        fast = iteration_time_1f1b([1.0, 1.0], [1.0, 1.0], 8)
        slow = iteration_time_1f1b([1.0, 5.0], [1.0, 5.0], 8)
        assert slow > fast

    def test_dp_sync_added(self):
        base = stage_totals([1.0, 1.0], [1.0, 1.0], 4)
        synced = stage_totals([1.0, 1.0], [1.0, 1.0], 4, [0.5, 0.0])
        assert synced[0] == base[0] + 0.5
        assert synced[1] == base[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            stage_totals([1.0], [1.0, 2.0], 4)
        with pytest.raises(ValueError):
            stage_totals([1.0], [1.0], 0)
        with pytest.raises(ValueError):
            stage_totals([1.0], [1.0], 2, [0.1, 0.2])


class TestPerfModel:
    def test_estimate_structure(self, tiny_perf_model, tiny_config):
        report = tiny_perf_model.estimate(tiny_config)
        assert report.num_stages == tiny_config.num_stages
        assert report.iteration_time > 0
        assert report.num_microbatches == 32 // tiny_config.microbatch_size

    def test_estimate_cached(self, tiny_perf_model, tiny_config):
        before = tiny_perf_model.num_estimates
        r1 = tiny_perf_model.estimate(tiny_config)
        r2 = tiny_perf_model.estimate(tiny_config.clone())
        assert r1 is r2
        assert tiny_perf_model.num_estimates <= before + 1

    def test_more_devices_is_faster(self, tiny_graph, tiny_database):
        small = PerfModel(tiny_graph, paper_cluster(1), _db_for(
            tiny_graph, paper_cluster(1)))
        big = PerfModel(tiny_graph, paper_cluster(4), tiny_database)
        t1 = small.estimate(
            balanced_config(tiny_graph, paper_cluster(1), 1)
        ).iteration_time
        t4 = big.estimate(
            balanced_config(tiny_graph, paper_cluster(4), 1)
        ).iteration_time
        assert t4 < t1

    def test_recompute_increases_time_reduces_memory(
        self, tiny_perf_model, tiny_config
    ):
        plain = tiny_perf_model.estimate(tiny_config)
        rc = tiny_config.clone()
        for stage in rc.stages:
            stage.recompute[:] = True
        recomputed = tiny_perf_model.estimate(rc)
        assert recomputed.iteration_time > plain.iteration_time
        for a, b in zip(recomputed.stages, plain.stages):
            assert a.activation_bytes_mb < b.activation_bytes_mb

    def test_tp_adds_communication(self, tiny_graph, tiny_perf_model,
                                   small_cluster):
        base = balanced_config(tiny_graph, small_cluster, 1)
        tp = balanced_config(tiny_graph, small_cluster, 1, tp=4)
        r_base = tiny_perf_model.estimate(base)
        r_tp = tiny_perf_model.estimate(tp)
        assert r_tp.stages[0].tp_comm_time_mb > r_base.stages[0].tp_comm_time_mb

    def test_earlier_stages_hold_more_activation(
        self, tiny_graph, tiny_perf_model, small_cluster
    ):
        config = balanced_config(tiny_graph, small_cluster, 4)
        report = tiny_perf_model.estimate(config)
        in_flights = [s.in_flight for s in report.stages]
        assert in_flights == [4, 3, 2, 1]

    def test_objective_oom_penalized(self, tiny_perf_model, tiny_config):
        feasible = tiny_perf_model.objective(tiny_config)
        assert feasible < PerfModel.OOM_PENALTY

    def test_reshard_cost_for_mixed_layout(self, tiny_graph, small_cluster,
                                           tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 1, tp=2)
        mixed = config.clone()
        half = mixed.stages[0].num_ops // 2
        mixed.stages[0].tp[half:] = 4
        mixed.stages[0].dp[half:] = 1
        uniform_report = tiny_perf_model.estimate(config)
        mixed_report = tiny_perf_model.estimate(mixed)
        assert mixed_report.stages[0].reshard_time_mb > 0
        assert uniform_report.stages[0].reshard_time_mb == 0


def _db_for(graph, cluster):
    from repro.profiling import SimulatedProfiler

    return SimulatedProfiler(cluster, seed=0).profile(graph)


class TestPerfReport:
    def test_resource_proportions_sum_to_one(
        self, tiny_perf_model, tiny_config
    ):
        report = tiny_perf_model.estimate(tiny_config)
        for name in ("compute", "communication", "memory"):
            total = sum(
                report.resource_proportions(i)[name]
                for i in range(report.num_stages)
            )
            assert total == pytest.approx(1.0)

    def test_throughput(self, tiny_perf_model, tiny_config, tiny_graph):
        report = tiny_perf_model.estimate(tiny_config)
        thpt = report.throughput(tiny_graph.global_batch_size)
        assert thpt == pytest.approx(
            tiny_graph.global_batch_size / report.iteration_time
        )

    def test_oom_flags(self, tiny_perf_model, tiny_config):
        report = tiny_perf_model.estimate(tiny_config)
        assert not report.is_oom
        assert report.oom_stages == []
        assert report.max_memory <= report.memory_limit

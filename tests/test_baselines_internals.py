"""Deeper tests of the baseline solvers' internals."""

import pytest

from repro.baselines.alpa import _group_layers, _inter_op_dp, _StageCoster
from repro.baselines.dp_solver import DPSolverOptions, dp_solve
from repro.baselines.megatron import MegatronPlan, plan_to_config
from repro.baselines.partition import (
    IN_FLIGHT,
    default_microbatches,
    uniform_config,
)
from repro.parallel import validate_config

from conftest import make_tiny_gpt


class TestAlpaLayerGrouping:
    def test_groups_tile_the_graph(self, tiny_graph):
        for count in (1, 2, 4, 100):
            groups = _group_layers(tiny_graph, count)
            assert groups[0][0] == 0
            assert groups[-1][1] == tiny_graph.num_ops
            for (a, b), (c, d) in zip(groups, groups[1:]):
                assert b == c
                assert b > a

    def test_group_count_capped_by_layers(self, tiny_graph):
        groups = _group_layers(tiny_graph, 100)
        assert len(groups) <= tiny_graph.num_layers

    def test_first_and_last_absorb_edges(self, tiny_graph):
        """Embedding/head/loss ops land in the edge groups."""
        groups = _group_layers(tiny_graph, 4)
        assert groups[0][0] == 0  # embedding included
        assert groups[-1][1] == tiny_graph.num_ops  # loss included


class TestAlpaIntraOpChooser:
    @pytest.fixture()
    def coster(self, tiny_graph, tiny_perf_model):
        return _StageCoster(
            tiny_graph, tiny_perf_model,
            microbatch=8, recompute=False, max_tp=8,
        )

    def test_prefers_dp_when_tp_traffic_dominates(self, coster, tiny_graph):
        """Paper §5.4: Alpa prioritizes data parallelism — per-iteration
        tp collectives dwarf the one-shot gradient sync."""
        tp = coster.choose_tp(0, tiny_graph.num_ops, devices=4)
        assert tp == 1

    def test_stage_time_monotone_in_span(self, coster, tiny_graph):
        first_group = _group_layers(tiny_graph, 4)[0]
        short = coster.stage_time(*first_group, 2, 1, IN_FLIGHT)
        long = coster.stage_time(0, tiny_graph.num_ops, 2, 1, IN_FLIGHT)
        assert long > short

    def test_memory_filter_rejects_oversize(self, coster, tiny_graph):
        coster.memory_limit = 1.0  # nothing fits
        assert coster.stage_time(
            0, tiny_graph.num_ops, 2, 1, IN_FLIGHT
        ) == float("inf")

    def test_recompute_reduces_memory_needs(self, tiny_graph,
                                            tiny_perf_model):
        plain = _StageCoster(tiny_graph, tiny_perf_model, 8, False, 8)
        recomputed = _StageCoster(tiny_graph, tiny_perf_model, 8, True, 8)
        # With recompute the same stage costs more time...
        span = (0, tiny_graph.num_ops, 2, 1, IN_FLIGHT)
        assert recomputed.stage_time(*span) > plain.stage_time(*span)


class TestAlpaInterOpDP:
    @pytest.mark.xfail(strict=True, reason=(
        "choose_tp can pick a tp whose dp does not divide the microbatch; "
        "the inter-op DP prices that stage and uniform_config then "
        "rejects the whole plan (6 of 36 solutions here)"
    ))
    def test_every_dp_solution_materializes(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        gpus = small_cluster.num_gpus
        dropped = []
        for count in (1, 2, 4):  # alpa_search's layer groupings here
            groups = _group_layers(tiny_graph, count)
            for mbs in default_microbatches(tiny_graph, gpus):
                for recompute in (False, True):
                    coster = _StageCoster(
                        tiny_graph, tiny_perf_model, mbs, recompute, 8
                    )
                    stages = _inter_op_dp(coster, groups, gpus, {})
                    if stages is not None and uniform_config(
                        tiny_graph, small_cluster, stages, mbs, recompute
                    ) is None:
                        dropped.append((count, mbs, recompute))
        assert dropped == []


class TestDPSolverInternals:
    def test_op_unit_dp_beats_constructible_plan(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        """At op granularity the DP's space contains the naive balanced
        split, so its answer can't be (much) worse than it.

        The tolerance covers objective-mismatch: the DP balances
        per-microbatch stage latency while the true objective adds
        comm/bubble terms it approximates.
        """
        from repro.parallel import balanced_config

        result = dp_solve(
            tiny_graph, small_cluster, tiny_perf_model,
            options=DPSolverOptions(microbatch_sizes=[4], max_stages=4),
        )
        naive = balanced_config(tiny_graph, small_cluster, 4,
                                microbatch_size=4)
        assert result.best_objective <= tiny_perf_model.objective(naive) * 1.05

    def test_respects_max_stages(self, tiny_graph, small_cluster,
                                 tiny_perf_model):
        result = dp_solve(
            tiny_graph, small_cluster, tiny_perf_model,
            options=DPSolverOptions(microbatch_sizes=[4], max_stages=2),
        )
        assert result.best_config.num_stages <= 2


class TestMegatronPlanEdges:
    def test_pp_exceeding_ops_rejected(self, small_cluster):
        graph = make_tiny_gpt(num_layers=4)
        plan = MegatronPlan(tp=1, dp=1, pp=4, microbatch_per_gpu=4,
                            recompute=False)
        config = plan_to_config(plan, graph, small_cluster)
        assert config is not None
        validate_config(config, graph, small_cluster)

    def test_indivisible_batch_rejected(self, tiny_graph, small_cluster):
        # dp=4 with per-gpu microbatch 3 -> aggregated 12, but batch 32
        # isn't divisible by 12: plan_to_config returns None (invalid).
        plan = MegatronPlan(tp=1, dp=4, pp=1, microbatch_per_gpu=3,
                            recompute=False)
        assert plan_to_config(plan, tiny_graph, small_cluster) is None

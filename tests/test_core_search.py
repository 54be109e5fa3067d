"""Tests for ranking, multi-hop, dedup, budget, trace, and the search."""

import pickle
import time

import numpy as np
import pytest

from repro.core import (
    AcesoSearch,
    AcesoSearchOptions,
    ApplyContext,
    MultiHopSearcher,
    SearchBudget,
    SearchTrace,
    UnexploredPool,
    VisitedSet,
    candidate_groups,
    default_stage_counts,
    identify_bottleneck,
    search_all_stage_counts,
)
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.telemetry import RingBufferSink, TelemetryBus, using_bus
from repro.telemetry.events import DRIVER_POOL_WORKER_START


@pytest.fixture()
def ctx(tiny_graph, small_cluster, tiny_perf_model):
    config = balanced_config(tiny_graph, small_cluster, 4)
    report = tiny_perf_model.estimate(config)
    return ApplyContext(
        graph=tiny_graph,
        cluster=small_cluster,
        perf_model=tiny_perf_model,
        config=config,
        report=report,
        bottleneck=identify_bottleneck(report),
    )


class TestRanking:
    def test_groups_sorted_by_objective(self, ctx):
        groups = candidate_groups(ctx)
        assert groups
        for group in groups:
            assert group.objectives == sorted(group.objectives)

    def test_primitives_unique_across_groups(self, ctx):
        groups = candidate_groups(ctx)
        names = [g.primitive for g in groups]
        assert len(names) == len(set(names))

    def test_first_group_targets_primary_resource(self, ctx):
        groups = candidate_groups(ctx)
        assert groups[0].resource == ctx.bottleneck.primary_resource

    def test_random_mode_shuffles(self, ctx):
        rng = np.random.default_rng(0)
        groups = candidate_groups(ctx, rng=rng)
        assert groups  # still generates candidates


class TestDedup:
    def test_visited_set(self, tiny_config):
        visited = VisitedSet()
        assert visited.add(tiny_config)
        assert not visited.add(tiny_config)
        assert visited.hits == 1
        assert tiny_config in visited
        assert len(visited) == 1

    def test_unexplored_pool_pops_best(self, tiny_config):
        pool = UnexploredPool()
        worse = tiny_config.clone()
        worse.microbatch_size *= 2
        pool.put(tiny_config, 5.0)
        pool.put(worse, 1.0)
        assert pool.pop_best().signature() == worse.signature()
        assert len(pool) == 1
        pool.remove(tiny_config)
        assert pool.pop_best() is None

    def test_pool_put_keeps_first(self, tiny_config):
        pool = UnexploredPool()
        pool.put(tiny_config, 5.0)
        pool.put(tiny_config, 1.0)  # ignored duplicate
        assert len(pool) == 1


class TestBudget:
    def test_iteration_limit(self):
        budget = SearchBudget(max_iterations=3)
        budget.start()
        assert not budget.exhausted(iterations=2)
        assert budget.exhausted(iterations=3)

    def test_estimate_limit_relative(self):
        budget = SearchBudget(max_estimates=10)
        budget.start(current_estimates=100)
        assert not budget.exhausted(estimates=105)
        assert budget.exhausted(estimates=110)

    def test_time_limit(self):
        budget = SearchBudget(max_seconds=0.01)
        budget.start()
        time.sleep(0.02)
        assert budget.exhausted()

    def test_requires_some_limit(self):
        with pytest.raises(ValueError):
            SearchBudget()
        with pytest.raises(ValueError):
            SearchBudget(max_iterations=0)

    def test_elapsed_requires_start(self):
        with pytest.raises(RuntimeError):
            SearchBudget(max_iterations=1).elapsed()


class TestTrace:
    def test_histograms(self):
        trace = SearchTrace()
        for i, (tried, hops, improved) in enumerate(
            [(1, 1, True), (1, 3, True), (2, 2, True), (1, 0, False)]
        ):
            trace.record_iteration(
                index=i, elapsed=float(i), bottlenecks_tried=tried,
                hops_used=hops, improved=improved,
                objective=1.0, best_objective=1.0,
            )
        assert trace.bottleneck_histogram() == {1: 2, 2: 1}
        assert trace.hop_histogram() == {1: 1, 3: 1, 2: 1}
        assert trace.first_try_rate() == pytest.approx(2 / 3)
        assert trace.multi_hop_rate() == pytest.approx(2 / 3)

    def test_empty_rates(self):
        trace = SearchTrace()
        assert trace.first_try_rate() == 0.0
        assert trace.multi_hop_rate() == 0.0


class TestMultiHop:
    def test_finds_improvement(self, tiny_graph, small_cluster,
                               tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 4)
        searcher = MultiHopSearcher(
            tiny_graph, small_cluster, tiny_perf_model, max_hops=3
        )
        result = searcher.search(
            config, visited=VisitedSet(), unexplored=UnexploredPool()
        )
        assert result is not None
        assert result.objective < tiny_perf_model.objective(config)
        assert 1 <= result.hops_used <= 3

    def test_respects_max_nodes(self, tiny_graph, small_cluster,
                                tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 4)
        searcher = MultiHopSearcher(
            tiny_graph, small_cluster, tiny_perf_model,
            max_hops=7, max_nodes=1,
        )
        searcher.search(
            config, visited=VisitedSet(), unexplored=UnexploredPool()
        )
        assert searcher._nodes_left >= 0

    def test_should_stop_aborts(self, tiny_graph, small_cluster,
                                tiny_perf_model):
        config = balanced_config(tiny_graph, small_cluster, 4)
        searcher = MultiHopSearcher(
            tiny_graph, small_cluster, tiny_perf_model,
            should_stop=lambda: True,
        )
        result = searcher.search(
            config, visited=VisitedSet(), unexplored=UnexploredPool()
        )
        assert result is None

    def test_validation(self, tiny_graph, small_cluster, tiny_perf_model):
        with pytest.raises(ValueError):
            MultiHopSearcher(
                tiny_graph, small_cluster, tiny_perf_model, max_hops=0
            )
        with pytest.raises(ValueError):
            MultiHopSearcher(
                tiny_graph, small_cluster, tiny_perf_model, beam_width=0
            )


class TestAcesoSearch:
    def test_improves_over_init(self, tiny_graph, small_cluster,
                                tiny_perf_model):
        init = balanced_config(tiny_graph, small_cluster, 4)
        search = AcesoSearch(tiny_graph, small_cluster, tiny_perf_model)
        result = search.run(init, SearchBudget(max_iterations=6))
        assert result.best_objective <= tiny_perf_model.objective(init)
        assert result.trace.num_iterations <= 6
        assert result.best_report.iteration_time == pytest.approx(
            result.best_objective
        )

    def test_top_configs_sorted_unique(self, tiny_graph, small_cluster,
                                       tiny_perf_model):
        init = balanced_config(tiny_graph, small_cluster, 4)
        search = AcesoSearch(tiny_graph, small_cluster, tiny_perf_model)
        result = search.run(init, SearchBudget(max_iterations=6))
        objectives = [o for o, _ in result.top_configs]
        assert objectives == sorted(objectives)
        signatures = [c.signature() for _, c in result.top_configs]
        assert len(signatures) == len(set(signatures))

    def test_convergence_monotone(self, tiny_graph, small_cluster,
                                  tiny_perf_model):
        init = balanced_config(tiny_graph, small_cluster, 4)
        search = AcesoSearch(tiny_graph, small_cluster, tiny_perf_model)
        result = search.run(init, SearchBudget(max_iterations=8))
        bests = [b for _, b in result.trace.convergence]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_random_mode_runs(self, tiny_graph, small_cluster,
                              tiny_perf_model):
        init = balanced_config(tiny_graph, small_cluster, 4)
        options = AcesoSearchOptions(use_heuristic2=False, seed=3,
                                     enable_finetune=False)
        search = AcesoSearch(
            tiny_graph, small_cluster, tiny_perf_model, options=options
        )
        result = search.run(init, SearchBudget(max_iterations=4))
        assert result.best_objective <= tiny_perf_model.objective(init)

    def test_oom_start_becomes_feasible(self):
        from conftest import (
    make_activation_heavy_gpt,
    make_tight_cluster,
    make_tiny_gpt,
)
        from repro.perfmodel import PerfModel
        from repro.profiling import SimulatedProfiler

        graph = make_activation_heavy_gpt()
        cluster = make_tight_cluster(num_gpus=4, memory_mb=64)
        db = SimulatedProfiler(cluster, seed=0).profile(graph)
        pm = PerfModel(graph, cluster, db)
        init = balanced_config(graph, cluster, 2, microbatch_size=16)
        assert pm.estimate(init).is_oom
        search = AcesoSearch(graph, cluster, pm)
        result = search.run(init, SearchBudget(max_iterations=10))
        assert result.is_feasible


class TestStageCountDriver:
    def test_default_stage_counts(self, tiny_graph, small_cluster):
        assert default_stage_counts(tiny_graph, small_cluster) == [1, 2, 4]

    def test_multi_search(self, tiny_graph, small_cluster, tiny_perf_model):
        multi = search_all_stage_counts(
            tiny_graph, small_cluster, tiny_perf_model,
            budget_per_count={"max_iterations": 4},
        )
        assert len(multi.runs) == 3
        assert multi.parallel_seconds <= multi.serial_seconds
        best = multi.best
        assert best.best_objective == min(
            run.result.best_objective for run in multi.runs
        )
        top = multi.top_configs(5)
        assert len(top) >= 1
        assert [o for o, _ in top] == sorted(o for o, _ in top)

    def test_pool_reports_equal_serial_ones(
        self, tiny_graph, small_cluster, tiny_database
    ):
        """A pooled search's best report crosses the worker pipe by
        pickle; it arrives equal to the serial run's, field for field
        and in pickle bytes.  The per-count timeout puts the counts on
        worker processes even on a one-core box."""
        runs, started = {}, {}
        for workers, timeout in ((1, None), (2, 600.0)):
            bus = TelemetryBus()
            sink = bus.add_sink(RingBufferSink())
            with using_bus(bus):
                multi = search_all_stage_counts(
                    tiny_graph, small_cluster,
                    PerfModel(tiny_graph, small_cluster, tiny_database),
                    budget_per_count={"max_iterations": 3},
                    workers=workers, timeout_per_count=timeout,
                )
            runs[workers] = {
                run.num_stages: run.result.best_report for run in multi.runs
            }
            started[workers] = sum(
                e.name == DRIVER_POOL_WORKER_START for e in sink.events
            )
        assert started == {1: 0, 2: 2}
        assert set(runs[1]) == set(runs[2]) == {1, 2, 4}
        for count, serial in runs[1].items():
            pooled = runs[2][count]
            assert pooled == serial
            assert pooled.iteration_time == serial.iteration_time
            assert pooled.peak_memories == serial.peak_memories
            assert pooled.is_oom == serial.is_oom
            assert pickle.dumps(pooled) == pickle.dumps(serial)

    def test_empty_counts_raise(self, tiny_graph, small_cluster,
                                tiny_perf_model):
        with pytest.raises(ValueError):
            search_all_stage_counts(
                tiny_graph, small_cluster, tiny_perf_model, stage_counts=[]
            )

"""Fault injection, crash-safe search, and elastic re-planning."""

import json
import os
import threading
import time

import pytest

from repro.cluster import paper_cluster
from repro.core import (
    AcesoSearch,
    CheckpointError,
    Deadline,
    SearchBudget,
    SearchCheckpoint,
    SearchFailedError,
    retry_delay,
    search_all_stage_counts,
)
from repro.core.checkpoint import _result_to_dict
from repro.core.pool import WorkerPool, usable_cores
from repro.core.search import (
    DEADLINE_KILL_GRACE,
    _failure_kind_from_error,
    _stage_count_worker,
)
from repro.elastic import (
    ChurnEvent,
    ChurnTimeline,
    ControllerPolicy,
    ElasticController,
)
from repro.faults import (
    DeviceFailure,
    FaultPlan,
    LinkDegradation,
    StragglerSlowdown,
    adapt_config,
    degrade_cluster,
    shrink_cluster_checked,
)
from repro.lint.artifacts import fold_checkpoint
from repro.perfmodel import PerfModel
from repro.profiling import SimulatedProfiler
from repro.runtime.simulator import simulate_pipeline
from repro.telemetry import CallbackSink, TelemetryBus, get_bus, using_bus
from repro.telemetry.events import (
    DRIVER_COUNT_COMPLETED,
    PERFMODEL_FIRST_FEASIBLE,
)

from conftest import make_tiny_gpt

BUDGET = {"max_iterations": 6}


def fresh_model(graph, cluster, database):
    return PerfModel(graph, cluster, database)


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(
            stragglers=(StragglerSlowdown(device_id=0, factor=2.0),)
        ).is_empty

    def test_first_failure_respects_device_span(self):
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(device_id=6, time=0.1),
                DeviceFailure(device_id=1, time=0.5),
            )
        )
        # A 4-device config never sees device 6's (earlier) failure.
        assert plan.first_failure(4).device_id == 1
        assert plan.first_failure(8).device_id == 6
        assert plan.first_failure(1) is None

    def test_compound_factors(self):
        plan = FaultPlan(
            stragglers=(
                StragglerSlowdown(device_id=2, factor=1.5),
                StragglerSlowdown(device_id=2, factor=2.0),
            ),
            link_degradations=(
                LinkDegradation(scope="inter", factor=0.5),
                LinkDegradation(scope="inter", factor=0.5),
            ),
        )
        assert plan.straggler_factor(2) == pytest.approx(3.0)
        assert plan.straggler_factor(0) == 1.0
        assert plan.bandwidth_factor("inter") == pytest.approx(0.25)
        assert plan.bandwidth_factor("intra") == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerSlowdown(device_id=0, factor=0.5)
        with pytest.raises(ValueError):
            LinkDegradation(scope="bogus", factor=0.5)
        with pytest.raises(ValueError):
            DeviceFailure(device_id=0, time=-1.0)


class TestInjection:
    def test_degrade_cluster_scales_bandwidth(self, small_cluster):
        degraded = degrade_cluster(small_cluster, intra=0.5)
        assert degraded.intra_node.bandwidth == pytest.approx(
            small_cluster.intra_node.bandwidth * 0.5
        )
        assert degraded.inter_node.bandwidth == pytest.approx(
            small_cluster.inter_node.bandwidth
        )
        # No degradation -> identical object, so the executor can skip
        # rebuilding its collective model.
        assert degrade_cluster(small_cluster) is small_cluster

    def test_shrink_snaps_to_power_of_two(self, small_cluster):
        shrunk = shrink_cluster_checked(small_cluster, [1])[0]
        assert shrunk.num_gpus == 2
        one_gpu = shrink_cluster_checked(small_cluster, [0, 1, 2])[0]
        assert one_gpu.num_gpus == 1
        with pytest.raises(ValueError):
            shrink_cluster_checked(small_cluster, [0, 1, 2, 3])

    def test_adapt_config_shrinks_stagewise(
        self, tiny_graph, small_cluster, tiny_config
    ):
        shrunk = shrink_cluster_checked(small_cluster, [3])[0]
        adapted = adapt_config(tiny_config, tiny_graph, shrunk)
        assert adapted is not None
        assert adapted.total_devices == shrunk.num_gpus
        assert adapted.num_stages == tiny_config.num_stages
        assert adapted.microbatch_size == tiny_config.microbatch_size

    def test_adapt_config_refuses_too_deep_pipelines(
        self, tiny_graph, small_cluster
    ):
        from repro.parallel import balanced_config

        config = balanced_config(tiny_graph, small_cluster, 4)
        one_gpu = shrink_cluster_checked(small_cluster, [1, 2, 3])[0]
        # 4 stages cannot fit one device: each stage already has 1.
        assert adapt_config(config, tiny_graph, one_gpu) is None


class TestSimulatorHalt:
    def test_halt_truncates_iteration(self):
        import numpy as np

        fwd = np.full((2, 4), 1.0)
        bwd = np.full((2, 4), 1.0)
        full = simulate_pipeline(fwd, bwd, 4)
        halted = simulate_pipeline(fwd, bwd, 4, halt_at=full.makespan / 2)
        assert halted.halted
        assert halted.makespan == pytest.approx(full.makespan / 2)
        assert 0 < halted.tasks_completed < halted.tasks_total
        assert not full.halted
        assert full.tasks_completed == full.tasks_total

    def test_halt_at_zero_completes_nothing(self):
        import numpy as np

        fwd = np.full((1, 2), 1.0)
        bwd = np.full((1, 2), 1.0)
        halted = simulate_pipeline(fwd, bwd, 2, halt_at=0.0)
        assert halted.halted
        assert halted.tasks_completed == 0


class TestExecutorFaults:
    def test_empty_plan_matches_healthy_run(self, tiny_executor, tiny_config):
        healthy = tiny_executor.run(tiny_config)
        empty = tiny_executor.run(tiny_config, fault_plan=FaultPlan())
        assert empty.iteration_time == healthy.iteration_time
        assert empty.completed and not empty.degraded

    def test_fixed_seed_faults_are_deterministic(
        self, tiny_executor, tiny_config
    ):
        plan = FaultPlan(
            stragglers=(StragglerSlowdown(device_id=0, factor=1.7),),
            link_degradations=(LinkDegradation(scope="intra", factor=0.5),),
        )
        first = tiny_executor.run(tiny_config, fault_plan=plan)
        second = tiny_executor.run(tiny_config, fault_plan=plan)
        assert first == second
        assert first.degraded

    def test_straggler_slows_iteration(self, tiny_executor, tiny_config):
        healthy = tiny_executor.run(tiny_config)
        slow = tiny_executor.run(
            tiny_config,
            fault_plan=FaultPlan(
                stragglers=(StragglerSlowdown(device_id=0, factor=2.0),)
            ),
        )
        assert slow.degraded
        assert slow.iteration_time > healthy.iteration_time

    def test_link_degradation_slows_iteration(
        self, tiny_executor, tiny_config
    ):
        healthy = tiny_executor.run(tiny_config)
        slow = tiny_executor.run(
            tiny_config,
            fault_plan=FaultPlan(
                link_degradations=(
                    LinkDegradation(scope="intra", factor=0.25),
                    LinkDegradation(scope="inter", factor=0.25),
                )
            ),
        )
        assert slow.degraded
        assert slow.iteration_time > healthy.iteration_time

    def test_device_failure_halts_run(self, tiny_executor, tiny_config):
        healthy = tiny_executor.run(tiny_config)
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(
                    device_id=0, time=healthy.iteration_time / 2
                ),
            )
        )
        failed = tiny_executor.run(tiny_config, fault_plan=plan)
        assert not failed.completed
        assert failed.failed_device == 0
        assert failed.failure_time <= healthy.iteration_time / 2
        assert failed.tasks_completed < failed.tasks_total
        assert failed.throughput(1024) == 0.0
        # Same plan, same result: the halt is deterministic.
        assert tiny_executor.run(tiny_config, fault_plan=plan) == failed

    def test_failure_outside_device_span_is_ignored(
        self, tiny_executor, tiny_config
    ):
        plan = FaultPlan(
            device_failures=(DeviceFailure(device_id=63, time=0.0),)
        )
        run = tiny_executor.run(tiny_config, fault_plan=plan)
        assert run.completed


class TestCrashSafeDriver:
    def test_raising_worker_leaves_partial_result(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def raises_on_two(payload):
            if payload[3] == 2:
                raise RuntimeError("injected fault")
            return _stage_count_worker(payload)

        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=1,
            retry_backoff=0.01,
            _worker_fn=raises_on_two,
        )
        assert [run.num_stages for run in result.runs] == [1, 4]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.num_stages == 2
        assert failure.attempts == 2  # initial + one retry
        assert "RuntimeError: injected fault" in failure.error
        assert result.best.best_objective > 0

    def test_hanging_worker_is_killed_and_recorded(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def hangs_on_one(payload):
            if payload[3] == 1:
                time.sleep(60)
            return _stage_count_worker(payload)

        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            timeout_per_count=1.0,
            max_retries=0,
            _worker_fn=hangs_on_one,
        )
        assert [run.num_stages for run in result.runs] == [2, 4]
        assert len(result.failures) == 1
        assert result.failures[0].num_stages == 1
        assert "timed out" in result.failures[0].error

    @pytest.mark.parametrize("workers, counts, resume", [
        (2, [1], False),
        (1, [1, 2], False),
        (2, [1, 2], True),
    ])
    def test_isolated_run_always_gets_a_worker_process(
        self, tiny_graph, small_cluster, tiny_database, tmp_path,
        workers, counts, resume,
    ):
        """A per-count timeout holds for a single count, for
        ``workers=1`` and for a resume with one count left."""
        path = tmp_path / "search.ckpt.json"
        hung = counts[-1]

        def hangs(payload):
            if payload[3] == hung:
                time.sleep(60)
            return _stage_count_worker(payload)

        def search(worker_fn, **kwargs):
            return search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                stage_counts=counts,
                budget_per_count=BUDGET,
                workers=workers,
                max_retries=0,
                _worker_fn=worker_fn,
                **kwargs,
            )

        if resume:
            def raises(payload):
                if payload[3] == hung:
                    raise RuntimeError("injected fault")
                return _stage_count_worker(payload)

            search(raises, checkpoint_path=path)
            kwargs = {"checkpoint_path": path, "resume": True}
        else:
            kwargs = {}
        started = time.monotonic()
        result = search(hangs, timeout_per_count=1.0, **kwargs)
        assert time.monotonic() - started < 30
        assert [run.num_stages for run in result.runs] == counts[:-1]
        assert [(f.num_stages, f.kind) for f in result.failures] == [
            (hung, "timeout")
        ]
        assert result.pool_forks >= 1

    def test_retry_backoff_sleeps_instead_of_spinning(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def always_raises(payload):
            raise RuntimeError("nothing works")

        wall, cpu = time.monotonic(), time.process_time()
        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=2,
            retry_backoff=0.3,
            _worker_fn=always_raises,
        )
        wall, cpu = time.monotonic() - wall, time.process_time() - cpu
        assert [f.attempts for f in result.failures] == [3, 3, 3]
        assert cpu < wall / 2, (cpu, wall)

    def test_killed_worker_is_recorded_with_exit_code(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def dies_on_four(payload):
            if payload[3] == 4:
                os._exit(41)
            return _stage_count_worker(payload)

        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=0,
            _worker_fn=dies_on_four,
        )
        assert [run.num_stages for run in result.runs] == [1, 2]
        assert "exit code 41" in result.failures[0].error

    def test_retried_count_converges_to_same_best(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        marker = tmp_path / "already-failed-once"

        def flaky_once(payload):
            if payload[3] == 2 and not marker.exists():
                marker.write_text("crashed")
                raise RuntimeError("transient")
            return _stage_count_worker(payload)

        flaky = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=1,
            retry_backoff=0.01,
            _worker_fn=flaky_once,
        )
        clean = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
        )
        assert not flaky.failures
        assert [run.num_stages for run in flaky.runs] == [
            run.num_stages for run in clean.runs
        ]
        assert flaky.best.best_objective == clean.best.best_objective

    def test_all_failed_raises_named_error(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def always_raises(payload):
            raise RuntimeError("nothing works")

        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=0,
            _worker_fn=always_raises,
        )
        assert not result.runs
        assert [f.num_stages for f in result.failures] == [1, 2, 4]
        with pytest.raises(SearchFailedError, match=r"\[1, 2, 4\]"):
            result.best
        with pytest.raises(SearchFailedError):
            result.parallel_seconds

    def test_serial_path_records_failures_too(
        self, tiny_graph, small_cluster, tiny_database, monkeypatch
    ):
        import repro.core.search as search_module

        real = search_module.balanced_config

        def broken_for_two(graph, cluster, count):
            if count == 2:
                raise RuntimeError("bad init")
            return real(graph, cluster, count)

        monkeypatch.setattr(
            search_module, "balanced_config", broken_for_two
        )
        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert [run.num_stages for run in result.runs] == [1, 4]
        assert result.failures[0].num_stages == 2
        assert result.failures[0].attempts == 2

    def test_bad_budget_key_fails_before_forking(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        with pytest.raises(ValueError, match="max_iteration"):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                tiny_perf_model,
                budget_per_count={"max_iteration": 5},
                workers=4,
            )

    def test_estimate_totals_match_serial_vs_parallel(
        self, tiny_graph, small_cluster, tiny_database
    ):
        serial = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
        )
        parallel = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
        )
        assert serial.num_estimates == parallel.num_estimates
        assert serial.best.best_objective == parallel.best.best_objective

    def test_pool_is_capped_at_usable_cores(
        self, monkeypatch, tiny_graph, small_cluster, tiny_database
    ):
        """With one usable core, ``workers=2`` searches serially (no
        fork) and returns the pool's plan and estimate count; a run
        that needs worker isolation keeps its pool."""

        def run(**kwargs):
            return search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                workers=2,
                **kwargs,
            )

        pooled = run()
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert usable_cores() == 1
        isolated = run(timeout_per_count=60.0)
        assert isolated.workers == 2
        assert isolated.pool_forks > 0

        def no_fork(pool):
            raise AssertionError("a 1-core run must not fork")

        monkeypatch.setattr(WorkerPool, "spawn", no_fork)
        capped = run()
        assert capped.workers == 1
        assert capped.pool_forks == 0
        for outcome in (capped, isolated):
            assert outcome.num_estimates == pooled.num_estimates
            assert outcome.best.best_objective == pooled.best.best_objective
            assert (
                outcome.best.best_config.cache_key()
                == pooled.best.best_config.cache_key()
            )


class TestCheckpointResume:
    def test_interrupted_search_resumes_bit_exactly(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        path = tmp_path / "search.ckpt.json"

        def dies_on_four(payload):
            if payload[3] == 4:
                os._exit(1)
            return _stage_count_worker(payload)

        # Uninterrupted reference run.
        clean = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
        )
        # "Crash": stage count 4 dies; 1 and 2 land in the checkpoint.
        partial = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=0,
            checkpoint_path=path,
            _worker_fn=dies_on_four,
        )
        assert [run.num_stages for run in partial.runs] == [1, 2]
        on_disk = fold_checkpoint(path.read_text())
        assert sorted(on_disk["completed"]) == ["1", "2"]
        assert on_disk["failures"][0]["num_stages"] == 4

        # Resume with a healthy worker: only count 4 searches again.
        model = fresh_model(tiny_graph, small_cluster, tiny_database)
        resumed = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            model,
            budget_per_count=BUDGET,
            workers=2,
            checkpoint_path=path,
            resume=True,
        )
        assert not resumed.failures
        assert [run.num_stages for run in resumed.runs] == [1, 2, 4]
        assert resumed.best.best_objective == clean.best.best_objective
        assert resumed.best.best_config.signature() == (
            clean.best.best_config.signature()
        )
        # The resumed run only spent estimates on the missing count.
        count_four = next(
            run for run in clean.runs if run.num_stages == 4
        )
        restored = sum(
            run.result.num_estimates
            for run in clean.runs
            if run.num_stages != 4
        )
        assert resumed.num_estimates == restored + count_four.result.num_estimates

    def test_resume_refuses_mismatched_budget(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        path = tmp_path / "search.ckpt.json"
        search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="budget"):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count={"max_iterations": 99},
                checkpoint_path=path,
                resume=True,
            )

    def test_concurrent_searches_checkpoint_only_their_own_counts(
        self, tmp_path
    ):
        """Two threads searching different models on the shared bus:
        each checkpoint holds exactly its own counts and plans."""
        cluster = paper_cluster(4)
        problems = {}
        for name, layers, counts in (("a", 4, [1, 2]), ("b", 6, [1, 4])):
            graph = make_tiny_gpt(num_layers=layers)
            database = SimulatedProfiler(cluster, seed=0).profile(graph)
            problems[name] = (graph, database, counts)
        a_held, b_done = threading.Event(), threading.Event()

        def hold_a_until_b_is_done(event) -> None:
            # A stalls inside its first count-completed event, before
            # it records that count in its checkpoint, while B runs
            # from start to finish.
            if threading.current_thread().name == "a":
                a_held.set()
                assert b_done.wait(timeout=120)

        outcomes = {}

        def search(name: str) -> None:
            graph, database, counts = problems[name]
            try:
                if name == "b":
                    assert a_held.wait(timeout=120)
                outcomes[name] = search_all_stage_counts(
                    graph, cluster, PerfModel(graph, cluster, database),
                    stage_counts=counts,
                    budget_per_count=BUDGET,
                    checkpoint_path=tmp_path / f"{name}.ckpt.json",
                )
            finally:
                if name == "b":
                    b_done.set()

        gate = get_bus().add_sink(CallbackSink(
            hold_a_until_b_is_done, names=(DRIVER_COUNT_COMPLETED,)
        ))
        try:
            threads = {
                name: threading.Thread(target=search, args=(name,), name=name)
                for name in problems
            }
            threads["a"].start()
            threads["b"].start()
            for thread in threads.values():
                thread.join(timeout=300)
                assert not thread.is_alive()
        finally:
            get_bus().remove_sink(gate)

        for name, (_, _, counts) in problems.items():
            checkpoint = SearchCheckpoint.load(tmp_path / f"{name}.ckpt.json")
            assert sorted(checkpoint.completed) == counts
            for run in outcomes[name].runs:
                assert checkpoint.completed[run.num_stages] == (
                    _result_to_dict(run.result)
                )

    def test_checkpoint_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CheckpointError, match="format version"):
            SearchCheckpoint.load(path)


class TestRetryJitter:
    def test_schedule_is_deterministic_and_bounded(self):
        for count in (1, 2, 4):
            for attempt in (0, 1, 2):
                delay = retry_delay(0.5, count, attempt, seed=7)
                assert delay == retry_delay(0.5, count, attempt, seed=7)
                floor = 0.5 * 2**attempt
                assert floor <= delay < 2 * floor
        # Different stage counts draw decorrelated jitter, so a herd of
        # simultaneous failures does not re-fork in lockstep.
        delays = {retry_delay(0.5, c, 0, seed=7) for c in range(1, 9)}
        assert len(delays) == 8

    def test_process_retries_follow_the_jitter_schedule(
        self, tiny_graph, small_cluster, tiny_database
    ):
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        def always_raises_on_two(payload):
            if payload[3] == 2:
                raise RuntimeError("injected fault")
            return _stage_count_worker(payload)

        retries = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(
            lambda e: retries.append(e)
            if e.name == "driver.worker.retry"
            else None
        ))
        with using_bus(bus):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                workers=2,
                max_retries=2,
                retry_backoff=0.01,
                _worker_fn=always_raises_on_two,
            )
        assert [e.attrs["attempt"] for e in retries] == [0, 1]
        for event in retries:
            assert event.attrs["delay"] == retry_delay(
                0.01, 2, event.attrs["attempt"], seed=0
            )

    def test_serial_retries_follow_the_jitter_schedule(
        self, tiny_graph, small_cluster, tiny_database, monkeypatch
    ):
        import repro.core.search as search_module
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        def always_broken(graph, cluster, count):
            raise RuntimeError("bad init")

        monkeypatch.setattr(
            search_module, "balanced_config", always_broken
        )
        monkeypatch.setattr(search_module.time, "sleep", lambda s: None)
        retries = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(
            lambda e: retries.append(e)
            if e.name == "driver.worker.retry"
            else None
        ))
        with using_bus(bus):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                stage_counts=[2],
                budget_per_count=BUDGET,
                max_retries=2,
                retry_backoff=0.25,
            )
        assert [e.attrs["delay"] for e in retries] == [
            retry_delay(0.25, 2, 0, seed=0),
            retry_delay(0.25, 2, 1, seed=0),
        ]


class TestCheckpointQuarantine:
    def test_corrupt_file_is_quarantined_not_fatal(self, tmp_path):
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        path = tmp_path / "search.ckpt.json"
        path.write_text('{"format_version": 1, "completed": tru')
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            assert SearchCheckpoint.load_or_quarantine(path) is None
        assert not path.exists()
        quarantined = tmp_path / "search.ckpt.json.corrupt"
        assert quarantined.exists()
        assert quarantined.read_text().endswith("tru")
        names = [e.name for e in events]
        assert names == ["checkpoint.corrupt"]
        assert events[0].attrs["quarantined_to"] == str(quarantined)

    def test_missing_and_valid_files_pass_through(self, tmp_path):
        path = tmp_path / "none.json"
        assert SearchCheckpoint.load_or_quarantine(path) is None
        ckpt = SearchCheckpoint.new(
            [1, 2], {"max_iterations": 3}, {"num_ops": 1}, path
        )
        ckpt.save()
        loaded = SearchCheckpoint.load_or_quarantine(path)
        assert loaded is not None
        assert path.exists()

    def test_resume_with_corrupt_checkpoint_starts_fresh(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        path = tmp_path / "search.ckpt.json"
        path.write_text("not json at all")
        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            checkpoint_path=path,
            resume=True,
        )
        assert not result.failures
        assert (tmp_path / "search.ckpt.json.corrupt").exists()
        # The fresh checkpoint written alongside is valid and complete.
        on_disk = fold_checkpoint(path.read_text())
        assert sorted(on_disk["completed"]) == ["1", "2", "4"]

    def test_torn_completed_entry_is_quarantined(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        """A completed count missing a field fails the checkpoint schema
        at load, so resume quarantines the file and searches afresh
        instead of dying on a KeyError while restoring the runs."""
        from repro.parallel import config_to_dict
        from repro.service import plan_digest

        def search(**kwargs):
            best = search_all_stage_counts(
                tiny_graph, small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET, **kwargs,
            ).best
            return plan_digest(config_to_dict(best.best_config))

        reference = search()
        path = tmp_path / "search.ckpt.json"
        assert search(checkpoint_path=path) == reference
        data = fold_checkpoint(path.read_text())
        del data["completed"]["2"]["top_configs"]
        path.write_text(json.dumps(data))
        events = []
        bus = get_bus()
        sink = bus.add_sink(CallbackSink(events.append))
        try:
            resumed = search(checkpoint_path=path, resume=True)
        finally:
            bus.remove_sink(sink)
        assert resumed == reference
        assert (tmp_path / "search.ckpt.json.corrupt").exists()
        assert "checkpoint.corrupt" in [e.name for e in events]


class TestDeadline:
    def test_deadline_semantics(self):
        unbounded = Deadline(None)
        assert not unbounded.expired()
        assert unbounded.remaining() is None
        expired = Deadline(0.0)
        assert expired.expired()
        assert expired.remaining() == 0.0
        with pytest.raises(ValueError):
            Deadline(-1.0)
        cancelled = Deadline(None)
        cancelled.cancel()
        assert cancelled.expired()
        assert cancelled.remaining() == 0.0

    def test_anytime_prefix_is_bit_exact(
        self, tiny_graph, small_cluster, tiny_database
    ):
        """A deadline hit after k iterations returns exactly the plan a
        k-iteration search returns — the acceptance criterion."""
        from repro.parallel import balanced_config
        from repro.telemetry import CallbackSink, TelemetryBus, using_bus

        cutoff = 3
        init = balanced_config(tiny_graph, small_cluster, 2)
        reference = AcesoSearch(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
        ).run(init, SearchBudget(max_iterations=cutoff))

        # A fake clock that jumps past the deadline once `cutoff`
        # iterations have been applied, mid-"wall-clock" of the run.
        clock = [0.0]
        deadline = Deadline(10.0, clock=lambda: clock[0])

        def advance(event):
            if (
                event.name == "search.iteration"
                and event.attrs["index"] >= cutoff
            ):
                clock[0] = 100.0

        bus = TelemetryBus()
        bus.add_sink(CallbackSink(advance))
        with using_bus(bus):
            anytime = AcesoSearch(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
            ).run(
                init,
                SearchBudget(max_iterations=cutoff * 10),
                deadline=deadline,
            )
        assert anytime.partial
        assert not reference.partial
        assert anytime.trace.num_iterations == cutoff
        assert anytime.best_objective == reference.best_objective
        assert anytime.best_config.signature() == (
            reference.best_config.signature()
        )

    def test_expired_deadline_sheds_every_count(
        self, tiny_graph, small_cluster, tiny_database
    ):
        for workers in (1, 2):
            result = search_all_stage_counts(
                tiny_graph,
                small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                budget_per_count=BUDGET,
                workers=workers,
                deadline=Deadline(0.0),
            )
            assert not result.runs
            assert result.partial
            assert {f.kind for f in result.failures} == {"deadline"}
            with pytest.raises(SearchFailedError):
                result.best

    def test_scheduler_reaps_a_stuck_worker_past_the_deadline(
        self, tiny_graph, small_cluster, tiny_database
    ):
        """A pool search stuck past the request deadline is bounded by
        the scheduler alone: its worker is reaped ``DEADLINE_KILL_GRACE``
        later and recorded as a deadline failure."""
        def hangs_on_one(payload):
            if payload[3] == 1:
                time.sleep(60)
            return _stage_count_worker(payload)

        started = time.monotonic()
        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            stage_counts=[1, 2],
            budget_per_count=BUDGET,
            workers=2,
            max_retries=0,
            deadline=Deadline(0.5),
            _worker_fn=hangs_on_one,
        )
        assert time.monotonic() - started < 0.5 + DEADLINE_KILL_GRACE + 1.0
        assert [run.num_stages for run in result.runs] == [2]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert (failure.num_stages, failure.kind) == (1, "deadline")
        assert "reaped past the request deadline" in failure.error

    def test_generous_deadline_changes_nothing(
        self, tiny_graph, small_cluster, tiny_database
    ):
        clean = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
        )
        bounded = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            deadline=Deadline(3600.0),
        )
        assert not bounded.partial
        assert bounded.best.best_objective == clean.best.best_objective

    def test_partial_runs_are_not_checkpointed(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        path = tmp_path / "search.ckpt.json"
        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            deadline=Deadline(0.0),
            checkpoint_path=path,
        )
        assert result.partial
        on_disk = fold_checkpoint(path.read_text())
        # Deadline-cut results are best-so-far, not the search's
        # answer: a resume must search these counts again.
        assert on_disk["completed"] == {}


class TestMemoryGuard:
    def test_failure_kind_classification(self):
        assert _failure_kind_from_error("MemoryError: big") == "oom"
        assert _failure_kind_from_error("RuntimeError: x") == "error"

    def test_memory_capped_worker_surfaces_oom(
        self, tiny_graph, small_cluster, tiny_database
    ):
        def allocates_on_two(payload):
            if payload[3] == 2:
                hog = bytearray(8 * 1024**3)  # 8 GiB, over any cap
                return len(hog)
            return _stage_count_worker(payload)

        result = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
            workers=2,
            max_retries=0,
            worker_memory_mb=2048,
            _worker_fn=allocates_on_two,
        )
        assert [run.num_stages for run in result.runs] == [1, 4]
        failure = result.failures[0]
        assert failure.num_stages == 2
        assert failure.kind == "oom"
        assert "MemoryError" in failure.error

    def test_rejects_nonpositive_cap(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        with pytest.raises(ValueError, match="worker_memory_mb"):
            search_all_stage_counts(
                tiny_graph,
                small_cluster,
                tiny_perf_model,
                budget_per_count=BUDGET,
                worker_memory_mb=0,
            )


class TestElasticReplan:
    """Device loss -> warm replan through the elastic controller."""

    def device_loss(self, device):
        return ChurnTimeline(seed=0, events=(
            ChurnEvent(1.0, "device_fail", device_id=device),
        ))

    def test_warm_start_beats_cold_restart(
        self, tiny_graph, small_cluster, tiny_database
    ):
        initial = search_all_stage_counts(
            tiny_graph,
            small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            budget_per_count=BUDGET,
        )
        bus = TelemetryBus()
        warm_feasible_at = []
        bus.add_sink(CallbackSink(
            lambda event: warm_feasible_at.append(event.attrs["estimates"]),
            names=[PERFMODEL_FIRST_FEASIBLE],
        ))
        with using_bus(bus):
            (warm,) = ElasticController(
                tiny_graph,
                small_cluster,
                policy=ControllerPolicy(
                    replan_iterations=BUDGET["max_iterations"],
                    measure=False,
                ),
                initial_survivors=initial.top_configs(5),
            ).run(self.device_loss(3)).decisions
        shrunk = shrink_cluster_checked(small_cluster, [3])[0]
        cold_model = fresh_model(
            tiny_graph,
            shrunk,
            SimulatedProfiler(shrunk, seed=0).profile(tiny_graph),
        )
        cold = search_all_stage_counts(
            tiny_graph, shrunk, cold_model, budget_per_count=BUDGET
        ).best
        assert warm.action == "replan" and warm.cluster_gpus == 2
        assert warm.feasible and cold.is_feasible
        assert warm.num_estimates < cold_model.num_estimates
        assert warm_feasible_at[0] <= cold_model.first_feasible_estimate
        # Warm start must not end worse than the cold restart's plan.
        assert warm.objective_after <= cold.best_objective * 1.05

    def test_replan_falls_back_without_adaptable_survivors(
        self, tiny_graph, small_cluster
    ):
        from repro.parallel import balanced_config

        # Four one-device stages cannot shrink onto two devices.
        deep = balanced_config(tiny_graph, small_cluster, 4)
        assert adapt_config(
            deep, tiny_graph, shrink_cluster_checked(small_cluster, [3])[0]
        ) is None
        (decision,) = ElasticController(
            tiny_graph,
            small_cluster,
            policy=ControllerPolicy(
                replan_iterations=BUDGET["max_iterations"], measure=False
            ),
            initial_survivors=[(1.0, deep)],
        ).run(self.device_loss(3)).decisions
        # A balanced start, not a fallback rung, reaches the plan.
        assert decision.action == "replan"
        assert decision.fallback_rung is None
        assert decision.feasible
        assert decision.cluster_gpus == 2

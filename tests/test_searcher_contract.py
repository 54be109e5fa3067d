"""The shared ``Searcher`` contract, enforced across every strategy.

Every registered strategy must be: seed-reproducible against a fresh
performance model, anytime under a :class:`Deadline` (best-so-far,
``partial=True``, never raises), bit-exact through checkpoint/resume,
and telemetry-well-formed (registered event names, complete
``search.iteration`` attrs, a trace reconstructible from the event
stream).  Two hypothesis properties at the bottom are the greedy
search's behaviour oracles, and each catches what the other cannot:

* the extracted :class:`SearchContext` greedy path must be
  bit-identical — same plans, traces, and estimate counts — to a frozen
  copy of the pre-refactor monolithic ``AcesoSearch.run``, which pins
  the search loop itself;
* over random ``ir.models.synthetic`` graphs, a search on the default
  :class:`PerfModel` must equal one whose stage caches are off, which
  pins the estimator's caches under a real search.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BanditOptions,
    BanditSearcher,
    MCMCOptions,
    MCMCSearcher,
    SearchBudget,
    Searcher,
    StrategyError,
    available_strategies,
    build_options,
    get_searcher_class,
    register_searcher,
    search_all_stage_counts,
    strategy_option_names,
    unregister_searcher,
    warm_start_from_events,
)
from repro.cluster import single_node
from repro.core.budget import BudgetKwargsError, Deadline
from repro.core.search import AcesoSearch, AcesoSearchOptions
from repro.ir.models.synthetic import build_synthetic
from repro.parallel import balanced_config
from repro.perfmodel import PerfModel
from repro.perfmodel.model import build_perf_model
from repro.telemetry import CallbackSink, TelemetryBus, using_bus
from repro.telemetry.events import (
    SEARCH_BEGIN,
    SEARCH_END,
    SEARCH_ITERATION,
    SEARCH_STRATEGY_ARM,
    SEARCH_STRATEGY_STATS,
    is_registered,
)
from repro.core.trace import SearchTrace

STRATEGIES = ("greedy", "mcmc", "bandit")

#: Attrs every ``search.iteration`` event must carry (trace schema).
ITERATION_ATTRS = (
    "index",
    "elapsed",
    "bottlenecks_tried",
    "hops_used",
    "improved",
    "objective",
    "best_objective",
)


def fresh_model(graph, cluster, database):
    """A cold-cache model so estimate counts compare across runs."""
    return PerfModel(graph, cluster, database)


def deterministic_fields(result, *, with_estimates_to_best=True):
    """Everything a seeded rerun must reproduce (no wall-clock)."""
    fields = {
        "best_signature": result.best_config.signature(),
        "best_objective": result.best_objective,
        "num_estimates": result.num_estimates,
        "converged": result.converged,
        "partial": result.partial,
        "top": [
            (objective, config.signature())
            for objective, config in result.top_configs
        ],
        "records": [
            (
                record.index,
                record.bottlenecks_tried,
                record.hops_used,
                record.improved,
                record.objective,
                record.best_objective,
            )
            for record in result.trace.records
        ],
    }
    if with_estimates_to_best:
        fields["estimates_to_best"] = result.estimates_to_best
    return fields


def run_strategy(
    strategy, graph, cluster, database, *, stage_count=2, seed=0,
    budget=None, deadline=None,
):
    model = fresh_model(graph, cluster, database)
    searcher = get_searcher_class(strategy)(
        graph, cluster, model,
        options=build_options(strategy, {"seed": seed}),
    )
    init = balanced_config(graph, cluster, stage_count)
    return searcher.run(
        init,
        budget or SearchBudget(max_iterations=8),
        deadline=deadline,
    )


class TestSeedReproducibility:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_seed_reproduces_bit_for_bit(
        self, strategy, tiny_graph, small_cluster, tiny_database
    ):
        first = run_strategy(
            strategy, tiny_graph, small_cluster, tiny_database, seed=3
        )
        second = run_strategy(
            strategy, tiny_graph, small_cluster, tiny_database, seed=3
        )
        assert deterministic_fields(first) == deterministic_fields(second)

    def test_mcmc_seed_changes_the_walk(
        self, tiny_graph, small_cluster, tiny_database
    ):
        runs = {
            seed: run_strategy(
                "mcmc", tiny_graph, small_cluster, tiny_database,
                seed=seed,
            )
            for seed in (0, 1, 2)
        }
        walks = {
            seed: deterministic_fields(run)["records"]
            for seed, run in runs.items()
        }
        assert len({tuple(w) for w in walks.values()}) > 1


class TestAnytimeDeadline:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_expired_deadline_returns_partial_init(
        self, strategy, tiny_graph, small_cluster, tiny_database
    ):
        clock = [0.0]
        deadline = Deadline(0.0, clock=lambda: clock[0])
        result = run_strategy(
            strategy, tiny_graph, small_cluster, tiny_database,
            deadline=deadline,
        )
        assert result.partial is True
        assert result.trace.num_iterations == 0
        init = balanced_config(tiny_graph, small_cluster, 2)
        assert result.best_config.signature() == init.signature()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deadline_cut_returns_best_so_far(
        self, strategy, tiny_graph, small_cluster, tiny_database
    ):
        """Trip the deadline right after the first counted iteration."""
        clock = [0.0]
        deadline = Deadline(1.0, clock=lambda: clock[0])
        bus = TelemetryBus()

        def advance(event):
            if event.name == SEARCH_ITERATION:
                clock[0] = 10.0

        bus.add_sink(CallbackSink(advance))
        with using_bus(bus):
            result = run_strategy(
                strategy, tiny_graph, small_cluster, tiny_database,
                budget=SearchBudget(max_iterations=50),
                deadline=deadline,
            )
        assert result.partial is True
        assert result.trace.num_iterations == 1
        assert result.best_config is not None
        assert result.best_objective > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_anytime_prefix_matches_undeadlined_run(
        self, strategy, tiny_graph, small_cluster, tiny_database
    ):
        """The iterations a deadline-cut run applied are a bit-exact
        prefix of the undeadlined run's."""
        full = run_strategy(
            strategy, tiny_graph, small_cluster, tiny_database,
            budget=SearchBudget(max_iterations=6),
        )
        clock = [0.0]
        deadline = Deadline(1.0, clock=lambda: clock[0])
        bus = TelemetryBus()
        seen = [0]

        def advance(event):
            if event.name == SEARCH_ITERATION:
                seen[0] += 1
                if seen[0] >= 3:
                    clock[0] = 10.0

        bus.add_sink(CallbackSink(advance))
        with using_bus(bus):
            cut = run_strategy(
                strategy, tiny_graph, small_cluster, tiny_database,
                budget=SearchBudget(max_iterations=6),
                deadline=deadline,
            )
        full_records = deterministic_fields(full)["records"]
        cut_records = deterministic_fields(cut)["records"]
        assert cut_records == full_records[: len(cut_records)]


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_resume_restores_bit_exact_results(
        self, strategy, tiny_graph, small_cluster, tiny_database,
        tmp_path,
    ):
        checkpoint = tmp_path / "contract.ckpt.json"
        model = fresh_model(tiny_graph, small_cluster, tiny_database)
        original = search_all_stage_counts(
            tiny_graph, small_cluster, model,
            stage_counts=(1, 2),
            strategy=strategy,
            budget_per_count={"max_iterations": 3},
            checkpoint_path=checkpoint,
        )
        assert checkpoint.exists()
        resumed = search_all_stage_counts(
            tiny_graph, small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            stage_counts=(1, 2),
            strategy=strategy,
            budget_per_count={"max_iterations": 3},
            checkpoint_path=checkpoint,
            resume=True,
        )
        first_by_count = {
            run.num_stages: run.result for run in original.runs
        }
        second_by_count = {
            run.num_stages: run.result for run in resumed.runs
        }
        assert set(first_by_count) == set(second_by_count) == {1, 2}
        # Traces and estimates_to_best are runtime-only (deliberately
        # not checkpointed); every persisted field must round-trip
        # bit-exact.
        checkpointed = (
            "best_signature", "best_objective", "num_estimates",
            "converged", "top",
        )
        for count in (1, 2):
            first = deterministic_fields(first_by_count[count])
            second = deterministic_fields(second_by_count[count])
            for fieldname in checkpointed:
                assert first[fieldname] == second[fieldname], fieldname

    def test_strategy_mismatch_refuses_resume(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        from repro.core import CheckpointError

        checkpoint = tmp_path / "mismatch.ckpt.json"
        search_all_stage_counts(
            tiny_graph, small_cluster,
            fresh_model(tiny_graph, small_cluster, tiny_database),
            stage_counts=(1,),
            strategy="mcmc",
            budget_per_count={"max_iterations": 2},
            checkpoint_path=checkpoint,
        )
        with pytest.raises(CheckpointError, match="strategy"):
            search_all_stage_counts(
                tiny_graph, small_cluster,
                fresh_model(tiny_graph, small_cluster, tiny_database),
                stage_counts=(1,),
                strategy="bandit",
                budget_per_count={"max_iterations": 2},
                checkpoint_path=checkpoint,
                resume=True,
            )


class TestTelemetryWellFormedness:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_event_stream_is_registered_and_complete(
        self, strategy, tiny_graph, small_cluster, tiny_database
    ):
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            result = run_strategy(
                strategy, tiny_graph, small_cluster, tiny_database
            )
        names = [event.name for event in events]
        assert all(is_registered(name) for name in names), names
        assert SEARCH_BEGIN in names
        assert SEARCH_END in names
        iterations = [
            event for event in events if event.name == SEARCH_ITERATION
        ]
        assert len(iterations) == result.trace.num_iterations
        for event in iterations:
            assert set(ITERATION_ATTRS) <= set(event.attrs), event.attrs
        # The trace rebuilt from the published stream matches the one
        # the result carries — any sink sees what the search saw.
        rebuilt = SearchTrace.from_events(events)
        assert [
            (r.index, r.objective, r.best_objective)
            for r in rebuilt.records
        ] == [
            (r.index, r.objective, r.best_objective)
            for r in result.trace.records
        ]

    def test_mcmc_emits_proposal_stats(
        self, tiny_graph, small_cluster, tiny_database
    ):
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            run_strategy(
                "mcmc", tiny_graph, small_cluster, tiny_database
            )
        stats = [e for e in events if e.name == SEARCH_STRATEGY_STATS]
        assert len(stats) == 1
        attrs = stats[0].attrs
        assert attrs["proposed"] >= attrs["accepted"]
        assert 0.0 <= attrs["acceptance_rate"] <= 1.0

    def test_bandit_warm_start_round_trips_through_events(
        self, tiny_graph, small_cluster, tiny_database
    ):
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            run_strategy(
                "bandit", tiny_graph, small_cluster, tiny_database
            )
        arm_events = [
            e for e in events if e.name == SEARCH_STRATEGY_ARM
        ]
        assert arm_events
        warm = warm_start_from_events(events)
        assert warm  # at least one kind learned something
        total_pulls = sum(
            entry[0]
            for arms in warm.values()
            for entry in arms.values()
        )
        assert total_pulls == len(arm_events)

        # A warm-started run is still seed-reproducible and reports it.
        stats_events = []
        bus2 = TelemetryBus()
        bus2.add_sink(CallbackSink(stats_events.append))
        model = fresh_model(tiny_graph, small_cluster, tiny_database)
        searcher = BanditSearcher(
            tiny_graph, small_cluster, model,
            options=BanditOptions(warm_start=warm),
        )
        init = balanced_config(tiny_graph, small_cluster, 2)
        with using_bus(bus2):
            result = searcher.run(init, SearchBudget(max_iterations=8))
        assert result.best_config is not None
        stats = [
            e for e in stats_events
            if e.name == SEARCH_STRATEGY_STATS
        ]
        assert stats[0].attrs["warm_started"] is True


class TestStrategyRegistry:
    def test_all_three_strategies_registered(self):
        assert set(STRATEGIES) <= set(available_strategies())
        assert get_searcher_class("greedy") is AcesoSearch
        assert get_searcher_class("mcmc") is MCMCSearcher
        assert get_searcher_class("bandit") is BanditSearcher

    def test_unknown_strategy_is_typed_ace212(self):
        with pytest.raises(StrategyError, match="unknown search strategy"):
            get_searcher_class("flexflow")
        try:
            get_searcher_class("flexflow")
        except StrategyError as exc:
            assert [d.code for d in exc.diagnostics] == ["ACE212"]

    def test_unknown_strategy_kwarg_is_typed_ace213(self):
        with pytest.raises(StrategyError, match="bogus"):
            build_options("mcmc", {"bogus": 1, "seed": 0})
        try:
            build_options("mcmc", {"bogus": 1, "also_bogus": 2})
        except StrategyError as exc:
            assert [d.code for d in exc.diagnostics] == [
                "ACE213", "ACE213",
            ]
            assert {d.attrs["argument"] for d in exc.diagnostics} == {
                "bogus", "also_bogus",
            }

    def test_mistyped_strategy_kwarg_is_typed_ace213(self):
        with pytest.raises(StrategyError, match="cooling") as caught:
            build_options("mcmc", {"cooling": "abc", "top_k": True})
        assert [
            (d.code, d.attrs["argument"]) for d in caught.value.diagnostics
        ] == [("ACE213", "cooling"), ("ACE213", "top_k")]
        # An int fits a float field; None fits an Optional one.
        assert build_options("mcmc", {"cooling": 1}).cooling == 1
        assert build_options("bandit", {"warm_start": None}) is not None
        for bad in ({"attach_recompute": 1}, {"seed": 2.0},
                    {"warm_start": "x"}):
            with pytest.raises(StrategyError):
                build_options("bandit", bad)

    def test_budget_kwargs_error_is_typed_ace213(self):
        with pytest.raises(BudgetKwargsError, match="max_iteration"):
            SearchBudget.validate_kwargs({"max_iteration": 5})
        try:
            SearchBudget.validate_kwargs({"max_iteration": 5})
        except BudgetKwargsError as exc:
            assert [d.code for d in exc.diagnostics] == ["ACE213"]

    def test_options_and_kwargs_are_mutually_exclusive(
        self, tiny_graph, small_cluster, tiny_perf_model
    ):
        with pytest.raises(ValueError, match="not both"):
            search_all_stage_counts(
                tiny_graph, small_cluster, tiny_perf_model,
                stage_counts=[1],
                strategy="mcmc",
                options=MCMCOptions(),
                strategy_kwargs={"seed": 1},
            )

    def test_option_names_cover_every_strategy(self):
        for strategy in STRATEGIES:
            names = strategy_option_names(strategy)
            assert "seed" in names

    def test_register_and_unregister_round_trip(self):
        class StubSearcher(Searcher):
            strategy = "stub-contract-test"

        register_searcher(StubSearcher)
        try:
            assert "stub-contract-test" in available_strategies()
            assert get_searcher_class("stub-contract-test") is StubSearcher
        finally:
            unregister_searcher("stub-contract-test")
        assert "stub-contract-test" not in available_strategies()


# ----------------------------------------------------------------------
# the refactor pin: frozen pre-refactor greedy vs the SearchContext one
# ----------------------------------------------------------------------
def _frozen_update_top(top, objective, config, k):
    signatures = {c.signature() for _, c in top}
    if config.signature() not in signatures:
        top = top + [(objective, config)]
    top.sort(key=lambda pair: pair[0])
    return top[:k]


def frozen_greedy_run(searcher, init_config, budget, *, deadline=None):
    """A frozen copy of the pre-refactor ``AcesoSearch.run`` body.

    Kept verbatim (modulo the telemetry capture, which is irrelevant to
    the compared fields) so the hypothesis property below can assert the
    refactored strategy reproduces it bit-for-bit — same estimate-call
    order, same plans, same traces — on arbitrary configurations.
    """
    from repro.core.bottleneck import rank_bottlenecks
    from repro.core.dedup import UnexploredPool, VisitedSet
    from repro.core.finetune import finetune
    from repro.core.multihop import MultiHopSearcher
    from repro.core.search import SearchResult
    from repro.telemetry import Event, get_bus
    from repro.telemetry.events import (
        SEARCH_BEGIN,
        SEARCH_DEADLINE,
        SEARCH_END,
        SEARCH_ITERATION,
    )

    opts = searcher.options
    perf_model = searcher.perf_model
    bus = get_bus()
    events = []

    def emit(name, **attrs):
        events.append(Event(
            name=name, ts=bus.clock(), pid=bus.pid, source="search",
            attrs=attrs,
        ))

    estimates_start = perf_model.num_estimates
    budget.start(estimates_start)
    rng = (
        None if opts.use_heuristic2
        else np.random.default_rng(opts.seed)
    )

    def should_stop():
        if deadline is not None and deadline.expired():
            return True
        return budget.exhausted(estimates=perf_model.num_estimates)

    visited = VisitedSet()
    unexplored = UnexploredPool()
    multihop = MultiHopSearcher(
        searcher.graph,
        searcher.cluster,
        perf_model,
        max_hops=opts.max_hops,
        rng=rng,
        should_stop=should_stop,
        beam_width=opts.beam_width,
        max_nodes=opts.max_nodes_per_iteration,
        attach_recompute=opts.attach_recompute,
    )

    config = init_config
    best = init_config
    best_objective = perf_model.objective(init_config)
    top = [(best_objective, best)]
    emit(
        SEARCH_BEGIN,
        best_objective=best_objective,
        num_stages=init_config.num_stages,
    )
    iteration = 0
    converged = False
    partial = False

    while not budget.exhausted(
        iterations=iteration, estimates=perf_model.num_estimates
    ):
        if deadline is not None and deadline.expired():
            partial = True
            break
        iteration += 1
        report = perf_model.estimate(config)
        bottlenecks = rank_bottlenecks(report)[: opts.max_bottlenecks]
        result = None
        tried = 0
        for bottleneck in bottlenecks:
            tried += 1
            result = multihop.search(
                config,
                visited=visited,
                unexplored=unexplored,
                bottleneck=bottleneck,
            )
            if result is not None:
                break
        if deadline is not None and deadline.expired():
            iteration -= 1
            partial = True
            break
        if result is not None:
            new_config = result.config
            if opts.enable_finetune:
                scope = None
                if result.dirty_stages is not None:
                    new_report = perf_model.estimate(new_config)
                    hot = rank_bottlenecks(new_report)[0].stage
                    scope = sorted(set(result.dirty_stages) | {hot})
                new_config = finetune(
                    new_config,
                    searcher.graph,
                    perf_model,
                    max_split_points=opts.finetune_split_points,
                    stages=scope,
                )
            if deadline is not None and deadline.expired():
                iteration -= 1
                partial = True
                break
            objective = perf_model.objective(new_config)
            config = new_config
            if objective < best_objective:
                best, best_objective = new_config, objective
            top = _frozen_update_top(top, objective, new_config, opts.top_k)
            emit(
                SEARCH_ITERATION,
                index=iteration,
                elapsed=budget.elapsed(),
                bottlenecks_tried=tried,
                hops_used=result.hops_used,
                improved=True,
                objective=objective,
                best_objective=best_objective,
            )
        else:
            restart = unexplored.pop_best()
            emit(
                SEARCH_ITERATION,
                index=iteration,
                elapsed=budget.elapsed(),
                bottlenecks_tried=tried,
                hops_used=0,
                improved=False,
                objective=perf_model.objective(config),
                best_objective=best_objective,
            )
            if restart is None:
                converged = True
                break
            config = restart

    if partial:
        emit(
            SEARCH_DEADLINE,
            iterations_completed=iteration,
            elapsed=budget.elapsed(),
            best_objective=best_objective,
        )
    emit(
        SEARCH_END,
        iterations=iteration,
        converged=converged,
        partial=partial,
        best_objective=best_objective,
        num_estimates=perf_model.num_estimates - estimates_start,
    )
    trace = SearchTrace.from_events(events)
    return SearchResult(
        best_config=best,
        best_objective=best_objective,
        best_report=perf_model.estimate(best),
        trace=trace,
        top_configs=top,
        num_estimates=perf_model.num_estimates - estimates_start,
        elapsed_seconds=budget.elapsed(),
        converged=converged,
        partial=partial,
    )


class TestGreedyBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(
        stage_count=st.sampled_from([1, 2, 4]),
        iterations=st.integers(min_value=1, max_value=6),
        max_hops=st.integers(min_value=1, max_value=7),
        max_bottlenecks=st.integers(min_value=1, max_value=3),
        enable_finetune=st.booleans(),
        use_heuristic2=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_refactored_greedy_matches_frozen_pre_refactor(
        self, tiny_graph, small_cluster, tiny_database,
        stage_count, iterations, max_hops, max_bottlenecks,
        enable_finetune, use_heuristic2, seed,
    ):
        options = AcesoSearchOptions(
            max_hops=max_hops,
            max_bottlenecks=max_bottlenecks,
            enable_finetune=enable_finetune,
            use_heuristic2=use_heuristic2,
            seed=seed,
        )
        init = balanced_config(tiny_graph, small_cluster, stage_count)
        budget_kwargs = {"max_iterations": iterations}

        frozen_model = fresh_model(
            tiny_graph, small_cluster, tiny_database
        )
        frozen = frozen_greedy_run(
            AcesoSearch(
                tiny_graph, small_cluster, frozen_model, options=options
            ),
            init,
            SearchBudget(**budget_kwargs),
        )
        current_model = fresh_model(
            tiny_graph, small_cluster, tiny_database
        )
        current = AcesoSearch(
            tiny_graph, small_cluster, current_model, options=options
        ).run(init, SearchBudget(**budget_kwargs))

        # estimates_to_best is a new runtime field the frozen copy
        # never computed; every pre-existing field must match exactly.
        assert deterministic_fields(
            current, with_estimates_to_best=False
        ) == deterministic_fields(frozen, with_estimates_to_best=False)
        # Same estimate-call order => same cache state => same counter.
        assert (
            current_model.num_estimates == frozen_model.num_estimates
        )


# ----------------------------------------------------------------------
# the behaviour oracle: the stage-cached model vs the uncached one
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _synthetic_problem(num_ops, seed, gpus):
    graph = build_synthetic(num_ops, seed=seed, batch_size=64)
    cluster = single_node(gpus)
    return graph, cluster, build_perf_model(graph, cluster).database


class TestStageCacheOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        num_ops=st.sampled_from([16, 40, 96]),
        graph_seed=st.integers(min_value=0, max_value=3),
        gpus=st.sampled_from([2, 4, 8]),
        stage_pick=st.integers(min_value=0, max_value=3),
        iterations=st.integers(min_value=1, max_value=8),
        max_hops=st.integers(min_value=1, max_value=7),
        max_bottlenecks=st.integers(min_value=1, max_value=3),
        enable_finetune=st.booleans(),
        use_heuristic2=st.booleans(),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_search_matches_the_uncached_model(
        self, num_ops, graph_seed, gpus, stage_pick, iterations, max_hops,
        max_bottlenecks, enable_finetune, use_heuristic2, seed,
    ):
        """A greedy search on the default model (stage, base and config
        caches on) equals one whose stage caches are off: same best
        plan, same trace, same estimate count."""
        graph, cluster, database = _synthetic_problem(
            num_ops, graph_seed, gpus
        )
        stage_counts = [c for c in (1, 2, 4, 8) if c <= gpus]
        init = balanced_config(
            graph, cluster, stage_counts[stage_pick % len(stage_counts)]
        )
        options = AcesoSearchOptions(
            max_hops=max_hops,
            max_bottlenecks=max_bottlenecks,
            enable_finetune=enable_finetune,
            use_heuristic2=use_heuristic2,
            seed=seed,
        )

        def search(**model_kwargs):
            model = PerfModel(graph, cluster, database, **model_kwargs)
            result = AcesoSearch(
                graph, cluster, model, options=options
            ).run(init, SearchBudget(max_iterations=iterations))
            return deterministic_fields(result), model.num_estimates

        assert search() == search(stage_cache_size=0)

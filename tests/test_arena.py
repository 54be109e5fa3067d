"""The strategy arena: equal-budget tournaments over registered searchers."""

import contextlib
import dataclasses
import json
import os
import time

import pytest

from repro.arena import (
    ArenaEntry,
    EntryOutcome,
    TournamentResult,
    run_tournament,
)
from repro.core import Searcher, StrategyError, register_searcher
from repro.core.budget import BudgetKwargsError
from repro.core.searcher import unregister_searcher
from repro.telemetry import CallbackSink, TelemetryBus, using_bus
from repro.telemetry.events import (
    ARENA_BEGIN,
    ARENA_END,
    ARENA_ENTRY_BEGIN,
    ARENA_ENTRY_END,
    ARENA_ENTRY_FAILED,
    DRIVER_WORKER_PREFIX,
    SEARCH_BEGIN,
    is_registered,
)

ENTRIES = [
    ArenaEntry(strategy="greedy"),
    ArenaEntry(strategy="mcmc"),
    ArenaEntry(strategy="bandit"),
]
BUDGET = {"max_estimates": 300}


def race(graph, cluster, database, **kwargs):
    kwargs.setdefault("entries", ENTRIES)
    kwargs.setdefault("stage_count", 2)
    kwargs.setdefault("budget_per_entry", dict(BUDGET))
    return run_tournament(graph, cluster, database, **kwargs)


def deterministic_outcome(outcome: EntryOutcome) -> dict:
    data = outcome.to_json()
    data.pop("elapsed_seconds")
    return data


class TestTournament:
    def test_every_strategy_reports(
        self, tiny_graph, small_cluster, tiny_database
    ):
        result = race(tiny_graph, small_cluster, tiny_database)
        assert [o.strategy for o in result.outcomes] == [
            "greedy", "mcmc", "bandit",
        ]
        for outcome in result.outcomes:
            assert not outcome.failed
            assert outcome.best_objective > 0
            assert outcome.best_signature
            assert outcome.curve
            # Curves are (iteration index, best objective) pairs —
            # deterministic, monotonically non-increasing in quality.
            bests = [point[1] for point in outcome.curve]
            assert bests == sorted(bests, reverse=True)
        assert result.winner is not None
        assert result.winner.feasible

    def test_reruns_are_bit_identical(
        self, tiny_graph, small_cluster, tiny_database
    ):
        first = race(tiny_graph, small_cluster, tiny_database)
        second = race(tiny_graph, small_cluster, tiny_database)
        assert [deterministic_outcome(o) for o in first.outcomes] == [
            deterministic_outcome(o) for o in second.outcomes
        ]

    def test_pool_path_matches_serial(
        self, tiny_graph, small_cluster, tiny_database
    ):
        serial = race(tiny_graph, small_cluster, tiny_database)
        pooled = race(
            tiny_graph, small_cluster, tiny_database, workers=2
        )
        assert [deterministic_outcome(o) for o in serial.outcomes] == [
            deterministic_outcome(o) for o in pooled.outcomes
        ]

    def test_json_round_trip(
        self, tiny_graph, small_cluster, tiny_database, tmp_path
    ):
        result = race(
            tiny_graph, small_cluster, tiny_database, label="round-trip"
        )
        path = tmp_path / "BENCH_strategies.json"
        result.write_json(path)
        data = json.loads(path.read_text())
        assert data["label"] == "round-trip"
        assert data["winner"] == result.winner.strategy
        restored = TournamentResult.from_json(data)
        assert [deterministic_outcome(o) for o in restored.outcomes] == [
            deterministic_outcome(o) for o in result.outcomes
        ]
        assert restored.budget == dict(BUDGET)

    def test_failing_strategy_becomes_failure_outcome(
        self, tiny_graph, small_cluster, tiny_database
    ):
        @dataclasses.dataclass
        class ExplodingOptions:
            seed: int = 0

        @register_searcher
        class ExplodingSearcher(Searcher):
            strategy = "exploding-test"
            options_class = ExplodingOptions

            def run(self, init_config, budget, *, deadline=None):
                raise RuntimeError("kaboom")

        try:
            result = race(
                tiny_graph, small_cluster, tiny_database,
                entries=[
                    ArenaEntry(strategy="exploding-test"),
                    ArenaEntry(strategy="greedy"),
                ],
            )
        finally:
            unregister_searcher("exploding-test")
        exploded, greedy = result.outcomes
        assert exploded.failed
        assert "kaboom" in exploded.error
        assert not greedy.failed
        assert result.winner.strategy == "greedy"

    def test_validation_happens_before_any_search(
        self, tiny_graph, small_cluster, tiny_database
    ):
        with pytest.raises(StrategyError):
            race(
                tiny_graph, small_cluster, tiny_database,
                entries=[ArenaEntry(strategy="no-such-strategy")],
            )
        with pytest.raises(StrategyError):
            race(
                tiny_graph, small_cluster, tiny_database,
                entries=[
                    ArenaEntry(
                        strategy="mcmc",
                        strategy_kwargs={"bogus": 1},
                    )
                ],
            )
        with pytest.raises(BudgetKwargsError):
            race(
                tiny_graph, small_cluster, tiny_database,
                budget_per_entry={"max_iteration": 5},
            )
        with pytest.raises(ValueError, match="no arena entries"):
            race(
                tiny_graph, small_cluster, tiny_database, entries=[]
            )

    def test_lifecycle_events_are_registered_and_attributed(
        self, tiny_graph, small_cluster, tiny_database
    ):
        events = []
        bus = TelemetryBus()
        bus.add_sink(CallbackSink(events.append))
        with using_bus(bus):
            race(tiny_graph, small_cluster, tiny_database)
        names = [e.name for e in events]
        assert all(is_registered(name) for name in names)
        assert names.count(ARENA_BEGIN) == 1
        assert names.count(ARENA_END) == 1
        assert names.count(ARENA_ENTRY_BEGIN) == len(ENTRIES)
        assert names.count(ARENA_ENTRY_END) == len(ENTRIES)
        assert ARENA_ENTRY_FAILED not in names
        end = next(e for e in events if e.name == ARENA_END)
        assert end.attrs["winner"] in {e.strategy for e in ENTRIES}

    def test_seed_sweep_entries_are_distinct_lanes(
        self, tiny_graph, small_cluster, tiny_database
    ):
        result = race(
            tiny_graph, small_cluster, tiny_database,
            entries=[
                ArenaEntry(strategy="mcmc", seed=seed)
                for seed in (0, 1, 2)
            ],
        )
        assert [o.seed for o in result.outcomes] == [0, 1, 2]
        best = result.outcome_for("mcmc")
        assert best.best_objective == min(
            o.best_objective for o in result.outcomes
        )


@contextlib.contextmanager
def stub_strategy(name, run):
    """Register a strategy whose ``run`` calls ``run()`` instead."""

    @dataclasses.dataclass
    class StubOptions:
        seed: int = 0

    class StubSearcher(Searcher):
        strategy = name
        options_class = StubOptions

        def run(self, init_config, budget, *, deadline=None):
            return run()

    register_searcher(StubSearcher)
    try:
        yield ArenaEntry(strategy=name)
    finally:
        unregister_searcher(name)


def race_logged(graph, cluster, database, **kwargs):
    """``race`` on a fresh bus; returns the result and every event."""
    events = []
    bus = TelemetryBus()
    bus.add_sink(CallbackSink(events.append))
    with using_bus(bus):
        result = race(graph, cluster, database, **kwargs)
    return result, events


class TestLaneFailures:
    def assert_only_lane_failed(self, result, events, lane):
        """``lane`` alone failed, once; the other lanes reported."""
        assert [o.failed for o in result.outcomes] == [True, False, False]
        failed = [e for e in events if e.name == ARENA_ENTRY_FAILED]
        assert [e.attrs["entry"] for e in failed] == [lane.name]
        assert [e.name for e in events].count(ARENA_ENTRY_END) == 2
        for event in events:
            if event.name.startswith(DRIVER_WORKER_PREFIX):
                assert "arena_entry" in event.attrs
                assert "num_stages" not in event.attrs
        return result.outcomes[0].error

    def test_crashed_worker_fails_only_its_lane(
        self, tiny_graph, small_cluster, tiny_database
    ):
        with stub_strategy("crash-test", lambda: os._exit(3)) as crash:
            result, events = race_logged(
                tiny_graph, small_cluster, tiny_database,
                entries=[crash, *ENTRIES[:2]], workers=2,
            )
        error = self.assert_only_lane_failed(result, events, crash)
        assert "exit code 3" in error
        begins = [e for e in events if e.name == ARENA_ENTRY_BEGIN]
        assert all("worker_pid" in e.attrs for e in begins)

    def test_lane_past_its_deadline_is_reaped(
        self, tiny_graph, small_cluster, tiny_database
    ):
        with stub_strategy("sleepy-test", lambda: time.sleep(60)) as sleepy:
            result, events = race_logged(
                tiny_graph, small_cluster, tiny_database,
                entries=[sleepy, *ENTRIES[:2]], workers=2,
                deadline_seconds=0.5,
            )
        error = self.assert_only_lane_failed(result, events, sleepy)
        assert "timed out after 1.5s" in error

    def test_serial_lane_begins_before_its_search(
        self, tiny_graph, small_cluster, tiny_database
    ):
        _, events = race_logged(tiny_graph, small_cluster, tiny_database)
        order = [
            e.attrs.get("entry", e.name)
            for e in events
            if e.name in (ARENA_ENTRY_BEGIN, SEARCH_BEGIN)
        ]
        assert order == [
            step for entry in ENTRIES for step in (entry.name, SEARCH_BEGIN)
        ]


class TestArenaEntry:
    def test_options_fold_in_the_seed(self):
        entry = ArenaEntry(
            strategy="mcmc", seed=7,
            strategy_kwargs={"initial_temperature": 0.5},
        )
        options = entry.options()
        assert options.seed == 7
        assert options.initial_temperature == 0.5
        assert entry.name == "mcmc#7"

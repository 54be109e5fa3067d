"""The strategy arena: race registered searchers under equal budgets.

Aceso's headline claim is not "greedy search finds good plans" but
"greedy bottleneck alleviation finds them *cheaper* than the
alternatives searching the same space".  The arena makes that claim
measurable: every registered strategy runs from the same initial
configuration, against its own **fresh** :class:`PerfModel` (no
strategy inherits another's warm cache), under the same
:class:`SearchBudget` and per-entry deadline.  The output is one
:class:`TournamentResult` — per-entry best objective, estimates-to-
best, and a deterministic quality-vs-cost curve (best objective by
iteration index) — serialized as ``BENCH_strategies.json``.

Each lane is one task of the stage-count driver's scheduler
(:func:`repro.core.search._run_counts_in_pool`): one ``_search_count``
call on a fresh model, in this process by default or, with
``workers > 1`` and more than one lane, on the crash-safe
:class:`~repro.core.pool.WorkerPool`
(a lane that crashes or overruns its worker becomes a failure record,
the rest still report).  Lifecycle is published as ``arena.*``
telemetry events; the scheduler's ``driver.worker.*`` events and each
worker's captured ``search.*`` stream carry the lane's
``arena_entry``, so one run log holds the whole tournament.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..cluster.topology import ClusterSpec
from ..ioutil import write_json_atomic
from ..ir.graph import OpGraph
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    ARENA_BEGIN,
    ARENA_END,
    ARENA_ENTRY_BEGIN,
    ARENA_ENTRY_END,
    ARENA_ENTRY_FAILED,
)
from ..core.budget import SearchBudget
from ..core.pool import InProcessRunner, WorkerPool
from ..core.search import (
    DEADLINE_KILL_GRACE,
    SearchResult,
    StageCountResult,
    _payload_from_task,
    _run_counts_in_pool,
    _stage_count_worker,
)
from ..core.searcher import build_options

#: Format marker for ``BENCH_strategies.json``.
TOURNAMENT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ArenaEntry:
    """One tournament lane: a strategy, its seed, and extra kwargs.

    ``strategy_kwargs`` must *not* repeat ``seed`` — the entry's
    ``seed`` field is folded in so sweeps over seeds stay declarative.
    """

    strategy: str
    seed: int = 0
    strategy_kwargs: Optional[dict] = None

    @property
    def name(self) -> str:
        return f"{self.strategy}#{self.seed}"

    def options(self):
        kwargs = dict(self.strategy_kwargs or {})
        kwargs["seed"] = self.seed
        return build_options(self.strategy, kwargs)


@dataclass
class EntryOutcome:
    """What one lane reported (or how it failed).

    ``curve`` is the deterministic quality-vs-cost trajectory:
    ``[iteration index, best objective]`` pairs, bit-reproducible from
    the entry's seed (unlike wall-clock convergence curves).
    """

    strategy: str
    seed: int
    best_objective: Optional[float] = None
    feasible: bool = False
    partial: bool = False
    converged: bool = False
    num_estimates: int = 0
    estimates_to_best: int = 0
    iterations: int = 0
    elapsed_seconds: float = 0.0
    best_signature: str = ""
    curve: List[List[float]] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "best_objective": self.best_objective,
            "feasible": self.feasible,
            "partial": self.partial,
            "converged": self.converged,
            "num_estimates": self.num_estimates,
            "estimates_to_best": self.estimates_to_best,
            "iterations": self.iterations,
            "elapsed_seconds": self.elapsed_seconds,
            "best_signature": self.best_signature,
            "curve": [list(point) for point in self.curve],
            "error": self.error,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EntryOutcome":
        return cls(
            strategy=data["strategy"],
            seed=int(data.get("seed", 0)),
            best_objective=data.get("best_objective"),
            feasible=bool(data.get("feasible", False)),
            partial=bool(data.get("partial", False)),
            converged=bool(data.get("converged", False)),
            num_estimates=int(data.get("num_estimates", 0)),
            estimates_to_best=int(data.get("estimates_to_best", 0)),
            iterations=int(data.get("iterations", 0)),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            best_signature=str(data.get("best_signature", "")),
            curve=[list(point) for point in data.get("curve", [])],
            error=data.get("error"),
        )


@dataclass
class TournamentResult:
    """Everything one tournament produced, JSON round-trippable."""

    label: str
    stage_count: int
    budget: dict
    deadline_seconds: Optional[float]
    outcomes: List[EntryOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def winner(self) -> Optional[EntryOutcome]:
        """Best surviving entry: feasible plans first, then objective."""
        ranked = [o for o in self.outcomes if not o.failed]
        if not ranked:
            return None
        return min(
            ranked,
            key=lambda o: (not o.feasible, o.best_objective),
        )

    def outcome_for(self, strategy: str) -> Optional[EntryOutcome]:
        """The best (lowest-objective) non-failed lane of a strategy."""
        lanes = [
            o
            for o in self.outcomes
            if o.strategy == strategy and not o.failed
        ]
        if not lanes:
            return None
        return min(lanes, key=lambda o: (not o.feasible, o.best_objective))

    def to_json(self) -> dict:
        winner = self.winner
        return {
            "format_version": TOURNAMENT_FORMAT_VERSION,
            "label": self.label,
            "stage_count": self.stage_count,
            "budget": dict(self.budget),
            "deadline_seconds": self.deadline_seconds,
            "entries": [o.to_json() for o in self.outcomes],
            "winner": winner.strategy if winner is not None else None,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TournamentResult":
        result = cls(
            label=str(data.get("label", "")),
            stage_count=int(data["stage_count"]),
            budget=dict(data["budget"]),
            deadline_seconds=data.get("deadline_seconds"),
            outcomes=[
                EntryOutcome.from_json(entry)
                for entry in data.get("entries", [])
            ],
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )
        return result

    def write_json(self, path) -> None:
        """Atomic write, matching the repo's artifact conventions."""
        write_json_atomic(path, self.to_json())


def _outcome_from_result(
    entry: ArenaEntry, result: SearchResult
) -> EntryOutcome:
    return EntryOutcome(
        strategy=entry.strategy,
        seed=entry.seed,
        best_objective=result.best_objective,
        feasible=result.is_feasible,
        partial=result.partial,
        converged=result.converged,
        num_estimates=result.num_estimates,
        estimates_to_best=result.estimates_to_best,
        iterations=result.trace.num_iterations,
        elapsed_seconds=result.elapsed_seconds,
        best_signature=result.best_config.signature(),
        curve=[
            [record.index, record.best_objective]
            for record in result.trace.records
        ],
    )


def run_tournament(
    graph: OpGraph,
    cluster: ClusterSpec,
    database,
    *,
    entries: Sequence[ArenaEntry],
    stage_count: int,
    budget_per_entry: Optional[dict] = None,
    deadline_seconds: Optional[float] = None,
    workers: int = 1,
    label: str = "",
) -> TournamentResult:
    """Race ``entries`` under equal budget and per-entry deadline.

    Every lane searches from ``balanced_config(graph, cluster,
    stage_count)`` with a fresh :class:`PerfModel` built from the shared
    profile ``database``, so estimate counts are comparable across
    strategies (the same accounting trick the stage-count driver uses).
    Strategy names and kwargs are validated up front — a typo fails
    with a typed ``ACE212``/``ACE213`` error before any search or fork.

    Lanes run on the stage-count driver's scheduler: in this process
    when ``workers <= 1`` or there is one lane, else on a
    :class:`WorkerPool`, where a lane whose worker crashes or overruns
    ``deadline_seconds`` by ``DEADLINE_KILL_GRACE`` becomes a failure
    outcome (no retries — a tournament rematch is a rerun, not a
    retry).  Results are merged in entry order either way, so the
    report is deterministic.
    """
    if not entries:
        raise ValueError("no arena entries to race")
    if stage_count < 1:
        raise ValueError("stage_count must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    budget_kwargs = SearchBudget.validate_kwargs(
        dict(budget_per_entry or {"max_iterations": 30})
    )
    # Every lane searches the same stage count with its own strategy
    # and options (a typed ACE212/ACE213 error here, before any work).
    lanes = {
        index: (stage_count, entry.strategy, entry.options())
        for index, entry in enumerate(entries)
    }

    bus = get_bus()
    bus.emit(
        ARENA_BEGIN,
        source="arena",
        label=label,
        entries=[entry.name for entry in entries],
        stage_count=stage_count,
        budget=dict(budget_kwargs),
        deadline_seconds=deadline_seconds,
        workers=min(workers, len(entries)),
    )
    started = time.perf_counter()
    outcomes: List[Optional[EntryOutcome]] = [None] * len(entries)

    def begin(index: int, attempt: int, worker_pid: Optional[int]) -> None:
        entry = entries[index]
        pid = {} if worker_pid is None else {"worker_pid": worker_pid}
        bus.emit(
            ARENA_ENTRY_BEGIN,
            source="arena",
            entry=entry.name,
            strategy=entry.strategy,
            seed=entry.seed,
            **pid,
        )

    def end(index: int, attempt: int, run: StageCountResult) -> None:
        outcome = outcomes[index] = _outcome_from_result(
            entries[index], run.result
        )
        bus.emit(
            ARENA_ENTRY_END,
            source="arena",
            entry=entries[index].name,
            best_objective=outcome.best_objective,
            feasible=outcome.feasible,
            partial=outcome.partial,
            num_estimates=outcome.num_estimates,
            estimates_to_best=outcome.estimates_to_best,
        )

    def fail(index: int, attempts: int, error: str, kind: str) -> None:
        entry = entries[index]
        outcomes[index] = EntryOutcome(
            strategy=entry.strategy, seed=entry.seed, error=error
        )
        bus.emit(
            ARENA_ENTRY_FAILED,
            source="arena",
            level=WARNING,
            entry=entry.name,
            error=error,
        )

    # Each lane searches on a fresh model built from the shared database.
    build = functools.partial(_payload_from_task, (
        graph, cluster, database, budget_kwargs, {}, lanes,
    ))
    if workers <= 1 or len(entries) <= 1:
        runner = InProcessRunner(
            lambda task: _stage_count_worker(build(task))
        )
    else:
        runner = WorkerPool(
            _stage_count_worker,
            build,
            max_workers=min(workers, len(entries)),
            bus=bus,
        )
    _run_counts_in_pool(
        range(len(entries)),
        lambda index: (index, deadline_seconds),
        runner,
        attribution=lambda index: {"arena_entry": entries[index].name},
        on_start=begin,
        on_done=end,
        on_fail=fail,
        timeout_per_count=(
            None if deadline_seconds is None
            else deadline_seconds + DEADLINE_KILL_GRACE
        ),
        bus=bus,
    )

    result = TournamentResult(
        label=label,
        stage_count=stage_count,
        budget=dict(budget_kwargs),
        deadline_seconds=deadline_seconds,
        outcomes=[o for o in outcomes if o is not None],
        wall_seconds=time.perf_counter() - started,
    )
    winner = result.winner
    bus.emit(
        ARENA_END,
        source="arena",
        label=label,
        winner=winner.strategy if winner is not None else None,
        winner_objective=(
            winner.best_objective if winner is not None else None
        ),
        failed=[o.strategy for o in result.outcomes if o.failed],
        wall_seconds=result.wall_seconds,
    )
    return result

"""Top-level Aceso search (Algorithm 1) and the stage-count driver.

``AcesoSearch`` iterates: identify the bottleneck, run the multi-hop
primitive search, fall back to secondary bottlenecks, apply op-level
fine-tuning, and restart from the best unexplored configuration when an
iteration stalls — until the budget runs out or nothing is left to
explore.

``search_all_stage_counts`` reproduces §4.3's "parallel search of
configurations under different pipeline stage numbers": independent
searches per stage count whose *parallel* cost is the slowest single
search (reported alongside the serial total).

One scheduler, :func:`_run_counts_in_pool`, runs search tasks on one
of two runners: a persistent :class:`~repro.core.pool.WorkerPool`
whose processes load the problem once (inherited at fork) and serve
many tasks, each under an optional timeout, or an in-process slot.  It
has two callers, the stage-count driver here and the strategy arena
(:mod:`repro.arena.tournament`), and hands each task's start, result
and final failure straight back to its caller.  For the driver, failed
or hung counts are retried with exponential backoff (on individually
restartable pool workers), surviving results are always returned
(failures become structured :class:`SearchFailure` records instead of
exceptions), and — with a checkpoint path — completed stage counts
persist to JSON so an interrupted search resumes without repeating
work.
"""

from __future__ import annotations

import functools
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.topology import ClusterSpec
from ..ir.graph import OpGraph
from ..parallel.config import ParallelConfig
from ..parallel.initializer import balanced_config
from ..perfmodel.model import PerfModel
from ..perfmodel.report import PerfReport
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    DRIVER_BEGIN,
    DRIVER_COUNT_COMPLETED,
    DRIVER_COUNT_FAILED,
    DRIVER_COUNT_RESTORED,
    DRIVER_END,
    DRIVER_WORKER_CRASH,
    DRIVER_WORKER_ERROR,
    DRIVER_WORKER_RETRY,
    DRIVER_WORKER_SPAWN,
    DRIVER_WORKER_TIMEOUT,
)
from .bottleneck import identify_bottleneck, rank_bottlenecks
from .budget import Deadline, SearchBudget
from .finetune import finetune
from .multihop import MultiHopSearcher
from .pool import PoolWorker, WorkerPool, _apply_worker_memory_limit  # noqa: F401 - re-export
from .pool import InProcessRunner, usable_cores
from .searcher import (
    SearchContext,
    Searcher,
    build_options,
    get_searcher_class,
    register_searcher,
)
from .trace import SearchTrace

#: Extra seconds a worker subprocess gets past the request deadline to
#: ship its best-so-far partial result home before the watchdog reaps it.
DEADLINE_KILL_GRACE = 1.0


@dataclass
class SearchResult:
    """Outcome of one search run.

    ``num_estimates`` counts the estimates *this run* consumed (the
    delta of the model's counter over the run), so serial searches
    sharing one :class:`PerfModel` and parallel workers with fresh
    models report the same quantity.  ``visited_signatures`` snapshots
    the dedup set for checkpointing, as the hex ``cache_key()`` of every
    visited configuration.

    ``partial`` marks a search cut short by a :class:`Deadline`: the
    plan is the best found by that point — bit-exact with what an
    undeadlined search held after the same completed iterations — not
    the plan a full budget would have produced.

    ``estimates_to_best`` is the estimate count at the moment the best
    configuration was last improved — the "cost to best" axis of the
    strategy arena's quality-vs-cost curves.  It is a runtime-only
    field (not persisted in checkpoints), defaulting to 0 on restore.
    """

    best_config: ParallelConfig
    best_objective: float
    best_report: PerfReport
    trace: SearchTrace
    top_configs: List[Tuple[float, ParallelConfig]]
    num_estimates: int
    elapsed_seconds: float
    converged: bool
    visited_signatures: Tuple[str, ...] = ()
    partial: bool = False
    estimates_to_best: int = 0

    @property
    def is_feasible(self) -> bool:
        return not self.best_report.is_oom


@dataclass
class AcesoSearchOptions:
    """Tunable knobs of the search (paper defaults)."""

    max_hops: int = 7
    max_bottlenecks: int = 3
    top_k: int = 5
    enable_finetune: bool = True
    use_heuristic2: bool = True
    seed: int = 0
    finetune_split_points: int = 8
    beam_width: int = 2
    max_nodes_per_iteration: int = 60
    attach_recompute: bool = True


@register_searcher
class AcesoSearch(Searcher):
    """Algorithm 1: iterative bottleneck alleviation (the ``greedy``
    strategy of the :mod:`repro.core.searcher` registry)."""

    strategy = "greedy"
    options_class = AcesoSearchOptions

    def run(
        self,
        init_config: ParallelConfig,
        budget: SearchBudget,
        *,
        deadline: Optional[Deadline] = None,
    ) -> SearchResult:
        """Search from ``init_config`` until ``budget`` is exhausted.

        Every iteration outcome is emitted as a ``search.iteration``
        telemetry event; the returned :class:`SearchTrace` is rebuilt
        from that event stream (``SearchTrace.from_events``), so run
        logs, checkpoints, and ablation benches all read the same
        numbers.

        ``deadline`` makes the search *anytime*: the cutoff is checked
        cooperatively at iteration boundaries (and inside the multi-hop
        search, which then halts early), and when it trips the search
        returns its best-so-far plan flagged ``partial=True`` instead
        of raising.  An iteration in flight when the deadline expires
        is discarded rather than applied — its multi-hop may have been
        truncated — so the iterations that *were* applied are a
        bit-exact prefix of what an undeadlined search would have done.
        """
        opts = self.options
        ctx = SearchContext(
            self.perf_model, budget, deadline=deadline, top_k=opts.top_k
        )
        rng = (
            None
            if opts.use_heuristic2
            else np.random.default_rng(opts.seed)
        )
        searcher = MultiHopSearcher(
            self.graph,
            self.cluster,
            self.perf_model,
            max_hops=opts.max_hops,
            rng=rng,
            should_stop=ctx.should_stop,
            beam_width=opts.beam_width,
            max_nodes=opts.max_nodes_per_iteration,
            attach_recompute=opts.attach_recompute,
        )

        config = init_config
        ctx.open(init_config)

        while not ctx.exhausted():
            if ctx.deadline_expired():
                ctx.partial = True
                break
            ctx.iteration += 1
            report = self.perf_model.estimate(config)
            bottlenecks = rank_bottlenecks(report)[: opts.max_bottlenecks]
            result = None
            tried = 0
            for bottleneck in bottlenecks:
                tried += 1
                result = searcher.search(
                    config,
                    visited=ctx.visited,
                    unexplored=ctx.unexplored,
                    bottleneck=bottleneck,
                )
                if result is not None:
                    break
            if ctx.deadline_expired():
                # The deadline tripped mid-iteration: the multi-hop may
                # have halted early, so this outcome is not what a full
                # search would have applied.  Drop it to keep the
                # applied iterations a bit-exact anytime prefix.
                ctx.iteration -= 1
                ctx.partial = True
                break
            if result is not None:
                new_config = result.config
                if opts.enable_finetune:
                    # Fine-tune only the stages the multi-hop result
                    # changed, plus its current top bottleneck: a
                    # one-stage edit on a deep pipeline then re-costs a
                    # handful of stages, not all of them.
                    scope = None
                    if result.dirty_stages is not None:
                        new_report = self.perf_model.estimate(new_config)
                        hot = identify_bottleneck(new_report).stage
                        scope = sorted(set(result.dirty_stages) | {hot})
                    new_config = finetune(
                        new_config,
                        self.graph,
                        self.perf_model,
                        max_split_points=opts.finetune_split_points,
                        stages=scope,
                    )
                if ctx.deadline_expired():
                    # Same prefix rule for a deadline hit in finetune.
                    ctx.iteration -= 1
                    ctx.partial = True
                    break
                objective = self.perf_model.objective(new_config)
                config = new_config
                ctx.observe(objective, new_config)
                ctx.record_iteration(
                    bottlenecks_tried=tried,
                    hops_used=result.hops_used,
                    improved=True,
                    objective=objective,
                )
            else:
                restart = ctx.unexplored.pop_best()
                ctx.record_iteration(
                    bottlenecks_tried=tried,
                    hops_used=0,
                    improved=False,
                    objective=self.perf_model.objective(config),
                )
                if restart is None:
                    ctx.converged = True
                    break
                config = restart

        return ctx.finish()


@dataclass
class StageCountResult:
    """Per-stage-count outcome of the parallel search driver."""

    num_stages: int
    result: SearchResult


class SearchFailedError(RuntimeError):
    """No stage-count search produced a result."""


@dataclass(frozen=True)
class SearchFailure:
    """Structured record of one stage count that never succeeded.

    ``kind`` classifies the terminal cause so callers (the planner
    service's circuit breaker, operators reading run logs) can react
    without parsing error strings:

    - ``"error"``    — the worker raised
    - ``"oom"``      — the worker hit its ``--worker-memory-mb`` cap
    - ``"crash"``    — the worker process died
    - ``"timeout"``  — killed after ``timeout_per_count`` seconds
    - ``"deadline"`` — shed or reaped because the request deadline
      expired (never retried: there is no time left to retry in)
    """

    num_stages: int
    error: str
    attempts: int
    kind: str = "error"


def retry_delay(
    base: float, num_stages: int, attempt: int, seed: int = 0
) -> float:
    """Exponential backoff with deterministic, per-attempt jitter.

    Workers that fail simultaneously usually share a cause (a bad node,
    a full disk); retrying them in lockstep re-forks the whole herd at
    once.  Each (stage count, attempt) therefore draws a multiplier in
    ``[1, 2)`` from its own seeded RNG — deterministic across runs for
    reproducibility, decorrelated across stage counts so the re-forks
    spread out.
    """
    jitter = random.Random(f"{seed}:{num_stages}:{attempt}").random()
    return base * (2 ** attempt) * (1.0 + jitter)


@dataclass
class MultiStageSearchResult:
    """Aggregate of the per-stage-count searches.

    ``workers`` records how many processes searched concurrently and
    ``wall_seconds`` the measured wall-clock of the whole driver —
    with ``workers > 1`` the §4.3 "parallel cost" is observed rather
    than simulated.  ``failures`` lists stage counts whose workers
    crashed, raised, or timed out past their retry budget; the runs
    that survived are still reported.  ``pool_forks`` / ``pool_tasks``
    record the persistent pool's process churn: tasks exceeding forks
    is worker reuse, forks exceeding the worker cap means crashed or
    reaped workers were replaced (both zero on the in-process runner).
    """

    runs: List[StageCountResult] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    failures: List[SearchFailure] = field(default_factory=list)
    pool_forks: int = 0
    pool_tasks: int = 0

    def _require_runs(self, what: str) -> None:
        if not self.runs:
            failed = [f.num_stages for f in self.failures]
            detail = (
                f"stage counts {failed} all failed "
                f"({'; '.join(f.error for f in self.failures)})"
                if failed
                else "no stage counts were searched"
            )
            raise SearchFailedError(f"cannot report {what}: {detail}")

    @property
    def best(self) -> SearchResult:
        self._require_runs("best")
        return min(
            (run.result for run in self.runs),
            key=lambda r: r.best_objective,
        )

    @property
    def serial_seconds(self) -> float:
        """Total compute cost if searches ran one after another."""
        return sum(run.result.elapsed_seconds for run in self.runs)

    @property
    def parallel_seconds(self) -> float:
        """Wall-clock cost when stage counts search in parallel (§4.3)."""
        self._require_runs("parallel_seconds")
        return max(run.result.elapsed_seconds for run in self.runs)

    @property
    def num_estimates(self) -> int:
        """Total estimates consumed across all per-count runs.

        Each run reports its own delta (see :class:`SearchResult`), so
        the sum is directly comparable between the in-process runner
        (shared model) and the pool (fresh model per worker).
        """
        return sum(run.result.num_estimates for run in self.runs)

    @property
    def partial(self) -> bool:
        """Whether a deadline cut this search short.

        True when any surviving run holds a best-so-far (rather than
        budget-complete) plan, or when stage counts were shed before
        they could start.  A partial result is still a *valid* plan —
        the anytime contract — it just isn't the full search's answer.
        """
        return any(run.result.partial for run in self.runs) or any(
            f.kind == "deadline" for f in self.failures
        )

    def top_configs(self, k: int = 5) -> List[Tuple[float, ParallelConfig]]:
        merged: List[Tuple[float, ParallelConfig]] = []
        seen = set()
        for run in self.runs:
            for objective, config in run.result.top_configs:
                key = config.cache_key()
                if key not in seen:
                    seen.add(key)
                    merged.append((objective, config))
        merged.sort(key=lambda pair: pair[0])
        return merged[:k]


def default_stage_counts(graph: OpGraph, cluster: ClusterSpec) -> List[int]:
    """Pipeline stage counts worth searching for this problem size."""
    limit = min(cluster.num_gpus, graph.num_ops)
    counts = []
    value = 1
    while value <= limit:
        counts.append(value)
        value *= 2
    return counts


def _search_count(
    graph: OpGraph, cluster: ClusterSpec, perf_model: PerfModel,
    count: int, strategy: str, options, budget_kwargs: dict,
    deadline: Optional[Deadline],
) -> StageCountResult:
    """Search one stage count: balanced init, the strategy's searcher,
    then ``run`` under the budget and deadline."""
    init = balanced_config(graph, cluster, count)
    search = get_searcher_class(strategy)(
        graph, cluster, perf_model, options=options
    )
    result = search.run(init, SearchBudget(**budget_kwargs), deadline=deadline)
    return StageCountResult(num_stages=count, result=result)


def _stage_count_worker(payload: tuple) -> StageCountResult:
    """Search one stage count in a fresh process.

    Module-level so it pickles; rebuilds a :class:`PerfModel` from the
    (picklable) graph/cluster/database because live models carry cache
    state not worth shipping.  Budgets count estimate *deltas*, so a
    fresh model searches exactly like a shared serial one.
    """
    (graph, cluster, database, count, options, budget_kwargs,
     model_kwargs, deadline_seconds, strategy) = payload
    perf_model = PerfModel(graph, cluster, database, **model_kwargs)
    deadline = (
        None if deadline_seconds is None else Deadline(deadline_seconds)
    )
    return _search_count(graph, cluster, perf_model, count, strategy,
                         options, budget_kwargs, deadline)


def _payload_from_task(shared: tuple, task: Tuple[object, Optional[float]]):
    """Rebuild a :func:`_stage_count_worker` payload inside a pool worker.

    ``shared`` is the per-pool problem state (inherited by fork or
    shipped once per worker), whose ``lanes`` map each task key to its
    ``(stage count, strategy, options)``; ``task`` is the tiny
    per-dispatch tuple ``(key, deadline_seconds)`` that actually
    crosses the pipe.
    """
    graph, cluster, database, budget_kwargs, model_kwargs, lanes = shared
    key, deadline_seconds = task
    count, strategy, options = lanes[key]
    return (graph, cluster, database, count, options, budget_kwargs,
            model_kwargs, deadline_seconds, strategy)


@dataclass
class _ActiveTask:
    worker: PoolWorker
    kill_at: Optional[float]
    attempt: int


def _failure_kind_from_error(error: str) -> str:
    """Classify a worker's error string into a ``SearchFailure.kind``."""
    if error.startswith("MemoryError"):
        return "oom"
    return "error"


def _run_counts_in_pool(
    keys: Sequence,
    task_for: Callable,
    runner,
    *,
    attribution: Callable[[object], dict],
    on_done: Callable,
    on_fail: Callable,
    on_start: Optional[Callable] = None,
    timeout_per_count: Optional[float] = None,
    max_retries: int = 0,
    retry_backoff: float = 0.0,
    jitter_seed: int = 0,
    deadline: Optional[Deadline] = None,
    bus=None,
) -> None:
    """The one search scheduler, over either runner, for either caller.

    ``runner`` (a :class:`WorkerPool` or an :class:`InProcessRunner`)
    only runs tasks; the scheduler owns retries, timeouts, deadline
    shedding and every ``driver.worker.*`` event.  Each of ``keys`` (a
    stage count for the driver, a lane index for the arena) becomes the
    task ``task_for(key)``, a tiny ``(key, deadline_seconds)`` tuple, so
    pool workers, which load the problem state once (inherited
    read-only at fork), never unpickle the graph or profile database
    per task.  Unlike a ``ProcessPoolExecutor`` — where one dead worker
    breaks the pool and takes every pending future with it — each pool
    worker owns a private pipe, so a worker that crashes or blows its
    per-task timeout is discarded *individually* and lazily replaced;
    tasks that raise cleanly keep their worker alive for reuse.  A
    failed task is retried with jittered exponential backoff
    (:func:`retry_delay`) up to ``max_retries`` extra attempts while
    other tasks run.

    Outcomes go straight to the caller: ``on_start(key, attempt,
    worker_pid)`` once a task is dispatched (before any of its events;
    ``worker_pid`` is None in process), ``on_done(key, attempt,
    value)`` when it returns, and ``on_fail(key, attempts, error,
    kind)`` once it has failed for good, ``kind`` being a
    :class:`SearchFailure` kind.

    A request ``deadline`` turns the scheduler anytime: tasks search
    cooperatively against the remaining time, queued tasks are shed as
    ``kind="deadline"`` failures once it expires, and a watchdog reaps
    any worker still running a task ``DEADLINE_KILL_GRACE`` seconds
    past it — workers are only ever forked on first dispatch, so an
    already-expired deadline forks nothing.

    Every ``driver.worker.*`` event carries ``attribution(key)`` and the
    attempt.  ``driver.worker.spawn`` marks a dispatch to a pool worker,
    carrying its pid (the in-process slot has no process: no
    ``driver.worker.spawn``/``error``), and the pool adds
    ``driver.pool.worker_start`` / ``worker_exit`` for process churn.
    Each pool worker's captured events (only those the bus's sinks
    keep) are re-emitted with the same attribution.
    """
    bus = bus if bus is not None else get_bus()
    queue = deque((key, 0, 0.0) for key in keys)  # (key, attempt, not_before)
    active: dict = {}

    def attrs(key, attempt: int) -> dict:
        return {**attribution(key), "attempt": attempt}

    def register_failure(
        key, attempt: int, error: str, kind: str = "error"
    ) -> None:
        out_of_time = deadline is not None and deadline.expired()
        if attempt < max_retries and not out_of_time:
            delay = retry_delay(retry_backoff, key, attempt, jitter_seed)
            queue.append((key, attempt + 1, time.monotonic() + delay))
            bus.emit(DRIVER_WORKER_RETRY, source="driver", level=WARNING,
                     **attrs(key, attempt), delay=delay, error=error)
        else:
            on_fail(key, attempt + 1, error, kind)

    try:
        while queue or active:
            now = time.monotonic()
            if deadline is not None and deadline.expired():
                # Anytime contract: stop dispatching, shed the backlog,
                # and give in-flight tasks one grace window to return
                # their best-so-far partial results before the watchdog
                # reaps their workers.
                while queue:
                    key, attempt, _ = queue.popleft()
                    on_fail(key, attempt, "deadline expired before this "
                            "stage count was searched", "deadline")
                reap_at = now + DEADLINE_KILL_GRACE
                for task in active.values():
                    if task.kill_at is None or task.kill_at > reap_at:
                        task.kill_at = reap_at
            # Dispatch whatever fits, skipping retries still in backoff.
            # Pool workers fork lazily in acquire(), so a queue that
            # drains without dispatching (expired deadline) forks none.
            for _ in range(len(queue)):
                key, attempt, not_before = queue[0]
                if not_before > now:
                    queue.rotate(-1)
                    continue
                worker = runner.acquire()
                if worker is None:
                    break  # every slot busy and the pool is at cap
                queue.popleft()
                try:
                    runner.send(worker, task_for(key))
                except (BrokenPipeError, OSError):
                    # The idle worker died between tasks; replace it and
                    # re-dispatch the task, which never started.
                    runner.discard(worker)
                    queue.appendleft((key, attempt, not_before))
                    continue
                if worker.pid is not None:
                    bus.emit(DRIVER_WORKER_SPAWN, source="driver",
                             **attrs(key, attempt), worker_pid=worker.pid)
                if on_start is not None:
                    on_start(key, attempt, worker.pid)
                kill_at = (
                    None if timeout_per_count is None
                    else now + timeout_per_count
                )
                left = deadline.remaining() if deadline is not None else None
                if left is not None:
                    reap_at = now + left + DEADLINE_KILL_GRACE
                    kill_at = (
                        reap_at if kill_at is None else min(kill_at, reap_at)
                    )
                active[key] = _ActiveTask(worker, kill_at, attempt)

            finished = []
            for key, task in active.items():
                worker = task.worker
                message = runner.poll(worker)
                if message is not None:
                    finished.append(key)
                    status, value, worker_events = message
                    runner.forward(worker_events, **attrs(key, task.attempt))
                    if status == "ok":
                        on_done(key, task.attempt, value)
                    else:
                        if worker.pid is not None:
                            bus.emit(DRIVER_WORKER_ERROR, source="driver",
                                     level=WARNING,
                                     **attrs(key, task.attempt), error=value)
                        register_failure(
                            key,
                            task.attempt,
                            value,
                            kind=_failure_kind_from_error(value),
                        )
                elif not worker.alive():
                    finished.append(key)
                    runner.discard(worker)
                    exitcode = worker.process.exitcode
                    bus.emit(DRIVER_WORKER_CRASH, source="driver",
                             level=WARNING, **attrs(key, task.attempt),
                             exitcode=exitcode)
                    register_failure(
                        key,
                        task.attempt,
                        "worker process died with exit code "
                        f"{exitcode}",
                        kind="crash",
                    )
                elif (
                    task.kill_at is not None
                    and time.monotonic() >= task.kill_at
                ):
                    runner.discard(worker, kill=True)
                    finished.append(key)
                    past_deadline = (
                        deadline is not None and deadline.expired()
                    )
                    bus.emit(DRIVER_WORKER_TIMEOUT, source="driver",
                             level=WARNING, **attrs(key, task.attempt),
                             timeout=timeout_per_count,
                             past_deadline=past_deadline)
                    register_failure(
                        key,
                        task.attempt,
                        "worker reaped past the request deadline"
                        if past_deadline
                        else f"timed out after {timeout_per_count:.1f}s",
                        kind="deadline" if past_deadline else "timeout",
                    )
            for key in finished:
                active.pop(key)
            if active and not finished:
                time.sleep(0.005)
            elif queue and not active:
                # Every queued task waits out a retry backoff: sleep
                # until the first is due (or the deadline, if sooner).
                wake = min(not_before for _, _, not_before in queue)
                left = deadline.remaining() if deadline is not None else None
                if left is not None:
                    wake = min(wake, time.monotonic() + left)
                time.sleep(max(0.0, wake - time.monotonic()))
    finally:
        runner.shutdown()


def search_all_stage_counts(
    graph: OpGraph,
    cluster: ClusterSpec,
    perf_model: PerfModel,
    *,
    stage_counts: Optional[Sequence[int]] = None,
    options=None,
    strategy: str = "greedy",
    strategy_kwargs: Optional[dict] = None,
    budget_per_count: Optional[dict] = None,
    workers: int = 1,
    timeout_per_count: Optional[float] = None,
    max_retries: int = 1,
    retry_backoff: float = 0.05,
    deadline: Optional[Deadline] = None,
    worker_memory_mb: Optional[float] = None,
    checkpoint_path=None,
    resume: bool = False,
    _worker_fn: Optional[Callable] = None,
) -> MultiStageSearchResult:
    """Run one independent search per pipeline stage count.

    ``strategy`` names the registered :class:`Searcher` to run for
    every stage count (default ``"greedy"``, the Algorithm 1 search);
    ``strategy_kwargs`` are validated against that strategy's options
    dataclass (typed ``ACE212``/``ACE213`` errors) and are mutually
    exclusive with passing a ready-made ``options`` object.

    ``budget_per_count`` holds :class:`SearchBudget` keyword arguments
    applied to each stage count's search (default: 60 iterations); its
    keys are validated up front so a typo fails before any worker
    forks.  One scheduler (:func:`_run_counts_in_pool`) searches the
    counts on one of two runners.  A run that needs worker processes
    for isolation (a per-count timeout, a memory cap, or a custom
    ``_worker_fn``) always gets a persistent pool of up to ``workers``
    processes that load the problem state once and are reused across
    tasks, even for a single count.  Otherwise the pool never
    outnumbers the usable cores (:func:`usable_cores`), where extra
    processes only time-slice, and it runs only with more than one
    worker and more than one count left to search; else the counts
    search one by one in this process, on the caller's ``perf_model``
    and ``deadline``, forking nothing.  Each task runs under
    ``timeout_per_count`` seconds (``None`` = no limit); a count that
    raises, crashes its worker, or hangs is retried up to
    ``max_retries`` more times with jittered exponential backoff
    (:func:`retry_delay`, seeded from ``options.seed``), after which it
    becomes a :class:`SearchFailure` record while the surviving counts
    still return.  Results merge in stage-count order, so the outcome
    is deterministic and the same on either runner.

    ``deadline`` makes the whole driver anytime: each per-count search
    stops cooperatively at the cutoff and returns its best-so-far plan
    flagged partial, counts that never started are shed as
    ``kind="deadline"`` failures, and the aggregate result reports
    ``.partial`` — the caller always gets the best valid plan found by
    the deadline instead of an exception.  ``worker_memory_mb`` caps
    each subprocess's address space (``RLIMIT_AS``) so a runaway count
    fails as ``kind="oom"`` instead of triggering the host OOM killer.

    ``checkpoint_path`` persists completed stage counts to JSON after
    each one finishes (deadline-cut partial runs are *not* recorded —
    they must be re-searched); with ``resume=True`` an existing
    checkpoint's completed counts are restored instead of re-searched
    (failed counts are retried), and a corrupt checkpoint file is
    quarantined to ``<path>.corrupt`` and the search starts fresh.
    """
    from .checkpoint import SearchCheckpoint

    if stage_counts is None:
        counts = default_stage_counts(graph, cluster)
    else:
        counts = list(stage_counts)
    if not counts:
        raise ValueError("no stage counts to search")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if retry_backoff < 0:
        raise ValueError("retry_backoff must be non-negative")
    if timeout_per_count is not None and timeout_per_count <= 0:
        raise ValueError("timeout_per_count must be positive")
    if worker_memory_mb is not None and worker_memory_mb <= 0:
        raise ValueError("worker_memory_mb must be positive")
    budget_kwargs = SearchBudget.validate_kwargs(
        dict(budget_per_count or {"max_iterations": 60})
    )
    get_searcher_class(strategy)  # typed ACE212 error on a bad name
    if options is None:
        options = build_options(strategy, strategy_kwargs)
    elif strategy_kwargs:
        raise ValueError(
            "pass either options or strategy_kwargs, not both"
        )
    isolated = (
        timeout_per_count is not None
        or worker_memory_mb is not None
        or _worker_fn is not None
    )
    workers = min(workers, len(counts))
    if not isolated:
        workers = min(workers, usable_cores())
    jitter_seed = options.seed if options is not None else 0

    context = {
        "num_ops": graph.num_ops,
        "num_gpus": cluster.num_gpus,
    }
    if strategy != "greedy":
        # Only non-default strategies stamp the checkpoint, so greedy
        # checkpoints stay byte-identical to pre-refactor files and old
        # checkpoints keep resuming.
        context["strategy"] = strategy
    checkpoint = None
    restored: List[StageCountResult] = []
    if checkpoint_path is not None:
        if resume:
            # None for a missing file, or a quarantined invalid one.
            checkpoint = SearchCheckpoint.load_or_quarantine(
                checkpoint_path
            )
        if checkpoint is None:
            checkpoint = SearchCheckpoint.new(
                counts, budget_kwargs, context, checkpoint_path
            )
            checkpoint.save()
        else:
            checkpoint.ensure_compatible(counts, budget_kwargs, context)
            restored = [
                run
                for run in checkpoint.restore_runs(perf_model)
                if run.num_stages in counts
            ]
    done_counts = {run.num_stages for run in restored}
    todo = [count for count in counts if count not in done_counts]

    started = time.perf_counter()
    outcome = MultiStageSearchResult(workers=workers)
    bus = get_bus()
    bus.emit(
        DRIVER_BEGIN,
        source="driver",
        stage_counts=list(counts),
        workers=workers,
        restored=sorted(done_counts),
    )
    for run in restored:
        bus.emit(
            DRIVER_COUNT_RESTORED,
            source="driver",
            num_stages=run.num_stages,
        )

    results: dict = {run.num_stages: run for run in restored}
    failures: dict = {}

    def completed(count: int, attempt: int, run: StageCountResult) -> None:
        results[count] = run
        bus.emit(
            DRIVER_COUNT_COMPLETED,
            source="driver",
            num_stages=count,
            attempt=attempt,
        )
        # A deadline-cut plan is best-so-far, not the budget's answer;
        # resuming must re-search it.
        if checkpoint is not None and not run.result.partial:
            checkpoint.record_run(run)

    def failed(count: int, attempts: int, error: str, kind: str) -> None:
        failure = failures[count] = SearchFailure(
            num_stages=count, error=error, attempts=attempts, kind=kind
        )
        bus.emit(
            DRIVER_COUNT_FAILED,
            source="driver",
            level=WARNING,
            num_stages=count,
            attempts=attempts,
            error=error,
            failure_kind=kind,
        )
        if checkpoint is not None:
            checkpoint.record_failure(failure)

    if isolated or (workers > 1 and len(todo) > 1):
        # The heavy problem state crosses into pool workers exactly
        # once (inherited at fork, or shipped per worker under spawn);
        # each dispatched task is only (count, remaining).
        lanes = {count: (count, strategy, options) for count in todo}
        shared = (graph, cluster, perf_model.database, budget_kwargs,
                  perf_model.build_kwargs, lanes)
        runner = WorkerPool(
            _worker_fn or _stage_count_worker,
            functools.partial(_payload_from_task, shared),
            max_workers=max(1, min(workers, len(todo))),
            memory_limit_mb=worker_memory_mb,
            bus=bus,
        )
    else:
        runner = InProcessRunner(lambda task: _search_count(
            graph, cluster, perf_model, task[0], strategy, options,
            budget_kwargs, deadline,
        ))

    def task_for(count: int) -> Tuple[int, Optional[float]]:
        remaining = deadline.remaining() if deadline is not None else None
        return (count, remaining)

    _run_counts_in_pool(
        todo,
        task_for,
        runner,
        attribution=lambda count: {"num_stages": count},
        on_done=completed,
        on_fail=failed,
        timeout_per_count=timeout_per_count,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        jitter_seed=jitter_seed,
        deadline=deadline,
        bus=bus,
    )
    outcome.pool_forks = runner.num_forks
    outcome.pool_tasks = runner.num_tasks

    # Deterministic merge in stage-count order, regardless of the order
    # workers finished (or which half came from a resumed checkpoint).
    outcome.runs.extend(results[count] for count in counts if count in results)
    outcome.failures.extend(
        failures[count] for count in counts if count in failures
    )
    outcome.wall_seconds = time.perf_counter() - started
    bus.emit(
        DRIVER_END,
        source="driver",
        completed=sorted(results),
        failed=sorted(failures),
        partial=outcome.partial,
        wall_seconds=outcome.wall_seconds,
    )
    return outcome

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

The multiprocess driver is crash-safe and self-healing: stage counts
are dispatched onto a persistent :class:`~repro.core.pool.WorkerPool`
whose processes load the problem once (inherited at fork) and serve
many tasks, each under an optional per-count timeout.  Failed or hung
counts are retried with exponential backoff on individually
restartable workers, surviving results are always returned (failures
become structured :class:`SearchFailure` records instead of
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
from ..parallel.validation import Verdicts
from ..perfmodel.model import PerfModel
from ..perfmodel.report import PerfReport
from ..telemetry import WARNING, CallbackSink, Event, get_bus
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
from .bottleneck import rank_bottlenecks
from .budget import Deadline, SearchBudget
from .finetune import finetune
from .multihop import MultiHopSearcher
from .pool import PoolWorker, WorkerPool, _apply_worker_memory_limit  # noqa: F401 - re-export
from .pool import usable_cores
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
    """Tunable knobs of the search (paper defaults).

    ``finetune_dirty_only`` scopes the op-level fine-tuning pass to the
    stages the multi-hop result actually changed (plus its current top
    bottleneck) instead of sweeping every stage — a one-stage edit on a
    deep pipeline then re-costs a handful of stages, not all of them.
    """

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
    finetune_dirty_only: bool = True


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
        # Structure verdicts of every stage this search has validated,
        # shared by the multi-hop candidates and fine-tuning.
        verified: Verdicts = set()
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
            verified=verified,
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
                    scope = None
                    if (
                        opts.finetune_dirty_only
                        and result.dirty_stages is not None
                    ):
                        new_report = self.perf_model.estimate(new_config)
                        hot = rank_bottlenecks(new_report)[0].stage
                        scope = sorted(set(result.dirty_stages) | {hot})
                    new_config = finetune(
                        new_config,
                        self.graph,
                        self.cluster,
                        self.perf_model,
                        max_split_points=opts.finetune_split_points,
                        stages=scope,
                        verified=verified,
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
    reaped workers were replaced (both zero on the serial path).
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
        the sum is directly comparable between the serial path (shared
        model) and the multiprocess path (fresh model per worker).
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
    init = balanced_config(graph, cluster, count)
    searcher_cls = get_searcher_class(strategy)
    search = searcher_cls(graph, cluster, perf_model, options=options)
    deadline = (
        None if deadline_seconds is None else Deadline(deadline_seconds)
    )
    result = search.run(
        init, SearchBudget(**budget_kwargs), deadline=deadline
    )
    return StageCountResult(num_stages=count, result=result)


def _payload_from_task(shared: tuple, task: Tuple[int, Optional[float]]):
    """Rebuild a :func:`_stage_count_worker` payload inside a pool worker.

    ``shared`` is the per-pool problem state (inherited by fork or
    shipped once per worker); ``task`` is the tiny per-dispatch tuple
    ``(count, deadline_seconds)`` that actually crosses the pipe.
    """
    (graph, cluster, database, options, budget_kwargs,
     model_kwargs, strategy) = shared
    count, deadline_seconds = task
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
    counts: Sequence[int],
    task_for,
    worker_fn,
    payload_builder,
    *,
    max_workers: int,
    timeout_per_count: Optional[float],
    max_retries: int,
    retry_backoff: float,
    jitter_seed: int = 0,
    deadline: Optional[Deadline] = None,
    worker_memory_mb: Optional[float] = None,
    bus=None,
    call: object,
):
    """Self-healing scheduler over a persistent worker pool.

    Stage counts are dispatched to long-lived :class:`WorkerPool`
    processes that load the problem state once (inherited read-only at
    fork under the POSIX default) and then receive only a tiny
    ``(count, deadline_seconds)`` tuple per task — no per-task pickling
    of the graph or profile database.  Unlike a
    ``ProcessPoolExecutor`` — where one dead worker breaks the pool and
    takes every pending future with it — each pool worker owns a
    private pipe, so a worker that crashes or blows its per-count
    deadline is discarded *individually* and lazily replaced; tasks
    that raise cleanly keep their worker alive for reuse.  A failed
    count is retried with jittered exponential backoff
    (:func:`retry_delay`) up to ``max_retries`` extra attempts; the
    other counts never notice.  Returns ``(results, failures, stats)``
    — the first two keyed by stage count, ``stats`` a dict with the
    pool's process ``forks`` and dispatched ``tasks`` counts (tasks
    exceeding forks is the pool's reuse at work).

    A request ``deadline`` turns the scheduler anytime: workers search
    cooperatively against the remaining time, queued counts are shed as
    ``kind="deadline"`` failures once it expires, and a watchdog reaps
    any worker still running a task ``DEADLINE_KILL_GRACE`` seconds
    past it — workers are only ever forked on first dispatch, so an
    already-expired deadline forks nothing.  ``worker_memory_mb``
    applies an ``RLIMIT_AS`` cap inside each pool worker so a runaway
    count surfaces as ``kind="oom"``.

    Worker lifecycle (dispatch / retry / timeout / crash / completion)
    is published on the telemetry ``bus`` with the same event
    vocabulary as the old process-per-count scheduler
    (``driver.worker.spawn`` now marks a task dispatch, carrying the
    pool worker's pid), plus ``driver.pool.worker_start`` /
    ``driver.pool.worker_exit`` for actual process churn.  Completed
    and finally-failed counts carry their payload objects in private
    ``_result`` / ``_failure`` attrs for in-process subscribers
    (checkpointing), plus the caller's ``call`` token as ``_call``, and
    each worker's captured events (only those the bus's sinks keep) are
    re-emitted with ``num_stages``/``attempt`` attribution.
    """
    bus = bus if bus is not None else get_bus()
    queue = deque((count, 0, 0.0) for count in counts)  # (count, attempt, not_before)
    active: dict = {}
    results: dict = {}
    failures: dict = {}
    dispatched = 0
    pool = WorkerPool(
        worker_fn,
        payload_builder,
        max_workers=max_workers,
        memory_limit_mb=worker_memory_mb,
        bus=bus,
    )

    def register_failure(
        count: int, attempt: int, error: str, kind: str = "error"
    ) -> None:
        out_of_time = deadline is not None and deadline.expired()
        if attempt < max_retries and not out_of_time:
            delay = retry_delay(retry_backoff, count, attempt, jitter_seed)
            queue.append((count, attempt + 1, time.monotonic() + delay))
            bus.emit(
                DRIVER_WORKER_RETRY,
                source="driver",
                level=WARNING,
                num_stages=count,
                attempt=attempt,
                delay=delay,
                error=error,
            )
        else:
            failures[count] = SearchFailure(
                num_stages=count,
                error=error,
                attempts=attempt + 1,
                kind=kind,
            )
            bus.emit(
                DRIVER_COUNT_FAILED,
                source="driver",
                level=WARNING,
                num_stages=count,
                attempts=attempt + 1,
                error=error,
                failure_kind=kind,
                _failure=failures[count],
                _call=call,
            )

    def shed_queued_past_deadline() -> None:
        while queue:
            count, attempt, _ = queue.popleft()
            failures[count] = SearchFailure(
                num_stages=count,
                error="deadline expired before this stage count was "
                "searched",
                attempts=attempt,
                kind="deadline",
            )
            bus.emit(
                DRIVER_COUNT_FAILED,
                source="driver",
                level=WARNING,
                num_stages=count,
                attempts=attempt,
                error=failures[count].error,
                failure_kind="deadline",
                _failure=failures[count],
                _call=call,
            )

    try:
        while queue or active:
            now = time.monotonic()
            if deadline is not None and deadline.expired():
                # Anytime contract: stop dispatching, shed the backlog,
                # and give in-flight tasks one grace window to return
                # their best-so-far partial results before the watchdog
                # reaps their workers.
                shed_queued_past_deadline()
                reap_at = now + DEADLINE_KILL_GRACE
                for task in active.values():
                    if task.kill_at is None or task.kill_at > reap_at:
                        task.kill_at = reap_at
            # Dispatch whatever fits, skipping retries still in backoff.
            # Workers fork lazily inside pool.acquire(), so a queue that
            # drains without dispatching (expired deadline) forks none.
            for _ in range(len(queue)):
                count, attempt, not_before = queue[0]
                if not_before > now:
                    queue.rotate(-1)
                    continue
                worker = pool.acquire()
                if worker is None:
                    break  # every worker busy and the pool is at cap
                queue.popleft()
                try:
                    pool.send(worker, task_for(count))
                except (BrokenPipeError, OSError):
                    # The idle worker died between tasks; replace it and
                    # re-dispatch the task, which never started.
                    pool.discard(worker)
                    queue.appendleft((count, attempt, not_before))
                    continue
                dispatched += 1
                bus.emit(
                    DRIVER_WORKER_SPAWN,
                    source="driver",
                    num_stages=count,
                    attempt=attempt,
                    worker_pid=worker.pid,
                )
                kill_at = (
                    now + timeout_per_count
                    if timeout_per_count is not None
                    else None
                )
                if deadline is not None:
                    left = deadline.remaining()
                    if left is not None:
                        reap_at = now + left + DEADLINE_KILL_GRACE
                        kill_at = (
                            reap_at if kill_at is None
                            else min(kill_at, reap_at)
                        )
                active[count] = _ActiveTask(
                    worker=worker,
                    kill_at=kill_at,
                    attempt=attempt,
                )

            finished = []
            for count, task in active.items():
                worker = task.worker
                message = None
                if worker.conn.poll(0):
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        message = None
                if message is None and not worker.alive():
                    # The process exited between our poll and now —
                    # drain the pipe once more before declaring a crash.
                    if worker.conn.poll(0.05):
                        try:
                            message = worker.conn.recv()
                        except (EOFError, OSError):
                            message = None
                if message is not None:
                    finished.append(count)
                    worker.busy = False
                    worker.tasks_done += 1
                    status, value, worker_events = message
                    pool.forward(
                        worker_events, num_stages=count, attempt=task.attempt
                    )
                    if status == "ok":
                        results[count] = value
                        bus.emit(
                            DRIVER_COUNT_COMPLETED,
                            source="driver",
                            num_stages=count,
                            attempt=task.attempt,
                            _result=value,
                            _call=call,
                        )
                    else:
                        bus.emit(
                            DRIVER_WORKER_ERROR,
                            source="driver",
                            level=WARNING,
                            num_stages=count,
                            attempt=task.attempt,
                            error=value,
                        )
                        register_failure(
                            count,
                            task.attempt,
                            value,
                            kind=_failure_kind_from_error(value),
                        )
                elif not worker.alive():
                    finished.append(count)
                    pool.discard(worker)
                    exitcode = worker.process.exitcode
                    bus.emit(
                        DRIVER_WORKER_CRASH,
                        source="driver",
                        level=WARNING,
                        num_stages=count,
                        attempt=task.attempt,
                        exitcode=exitcode,
                    )
                    register_failure(
                        count,
                        task.attempt,
                        "worker process died with exit code "
                        f"{exitcode}",
                        kind="crash",
                    )
                elif (
                    task.kill_at is not None
                    and time.monotonic() >= task.kill_at
                ):
                    pool.discard(worker, kill=True)
                    finished.append(count)
                    past_deadline = (
                        deadline is not None and deadline.expired()
                    )
                    bus.emit(
                        DRIVER_WORKER_TIMEOUT,
                        source="driver",
                        level=WARNING,
                        num_stages=count,
                        attempt=task.attempt,
                        timeout=timeout_per_count,
                        past_deadline=past_deadline,
                    )
                    if past_deadline:
                        register_failure(
                            count,
                            task.attempt,
                            "worker reaped past the request deadline",
                            kind="deadline",
                        )
                    else:
                        register_failure(
                            count,
                            task.attempt,
                            f"timed out after {timeout_per_count:.1f}s",
                            kind="timeout",
                        )
            for count in finished:
                active.pop(count)
            if active and not finished:
                time.sleep(0.005)
    finally:
        pool.shutdown()

    return results, failures, {"forks": pool.num_forks, "tasks": dispatched}


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
    forks.  With ``workers > 1`` stage counts are dispatched onto a
    persistent pool of up to ``workers`` processes that load the
    problem state once and are reused across tasks; the pool never
    outnumbers the usable cores (:func:`usable_cores`), where extra
    processes only time-slice, so a 1-core box searches serially unless
    the run needs worker processes for isolation (a per-count timeout,
    a memory cap, or a custom ``_worker_fn``).  Each task runs under
    ``timeout_per_count`` seconds (``None`` = no limit); a count that
    raises, crashes its worker, or hangs is retried up to
    ``max_retries`` more times with jittered exponential backoff
    (:func:`retry_delay`, seeded from ``options.seed``), after which it
    becomes a :class:`SearchFailure` record while the surviving counts
    still return.  Results merge in stage-count order, so the outcome
    is deterministic and identical to the serial path.

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
    Serial runs (``workers == 1``) checkpoint too but cannot enforce
    timeouts or memory caps.
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
    worker_fn = _worker_fn or _stage_count_worker
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

    # Checkpoint recording subscribes to the driver's lifecycle events
    # instead of threading ad-hoc callbacks through the scheduler: the
    # serial loop and the multiprocess scheduler publish the same
    # ``driver.count.completed`` / ``driver.count.failed`` events, and
    # this sink (whose presence activates the bus) persists them.
    # Concurrent calls share the process bus: count events carry this
    # call's private ``_call`` token and the sink records only its own.
    bus = get_bus()
    call = object()
    checkpoint_sink = None
    if checkpoint is not None:
        snapshot = checkpoint

        def record(event: Event) -> None:
            if event.attrs.get("_call") is not call:
                return
            if event.name == DRIVER_COUNT_COMPLETED:
                run = event.attrs["_result"]
                if run.result.partial:
                    # A deadline-cut plan is best-so-far, not the
                    # budget's answer; resuming must re-search it.
                    return
                snapshot.record_run(run)
            else:
                snapshot.record_failure(event.attrs["_failure"])

        checkpoint_sink = bus.add_sink(CallbackSink(
            record,
            names=(DRIVER_COUNT_COMPLETED, DRIVER_COUNT_FAILED),
        ))

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
    try:
        if workers <= 1 or len(todo) <= 1:
            for count in todo:
                if deadline is not None and deadline.expired():
                    failures[count] = SearchFailure(
                        num_stages=count,
                        error="deadline expired before this stage count "
                        "was searched",
                        attempts=0,
                        kind="deadline",
                    )
                    bus.emit(
                        DRIVER_COUNT_FAILED,
                        source="driver",
                        level=WARNING,
                        num_stages=count,
                        attempts=0,
                        error=failures[count].error,
                        failure_kind="deadline",
                        _failure=failures[count],
                        _call=call,
                    )
                    continue
                attempt = 0
                while True:
                    try:
                        init = balanced_config(graph, cluster, count)
                        search = get_searcher_class(strategy)(
                            graph, cluster, perf_model, options=options
                        )
                        result = search.run(
                            init,
                            SearchBudget(**budget_kwargs),
                            deadline=deadline,
                        )
                    except Exception as exc:  # noqa: BLE001 - degrade, record
                        error = f"{type(exc).__name__}: {exc}"
                        out_of_time = (
                            deadline is not None and deadline.expired()
                        )
                        if attempt < max_retries and not out_of_time:
                            delay = retry_delay(
                                retry_backoff, count, attempt, jitter_seed
                            )
                            bus.emit(
                                DRIVER_WORKER_RETRY,
                                source="driver",
                                level=WARNING,
                                num_stages=count,
                                attempt=attempt,
                                delay=delay,
                                error=error,
                            )
                            time.sleep(delay)
                            attempt += 1
                            continue
                        failures[count] = SearchFailure(
                            num_stages=count,
                            error=error,
                            attempts=attempt + 1,
                            kind=_failure_kind_from_error(error),
                        )
                        bus.emit(
                            DRIVER_COUNT_FAILED,
                            source="driver",
                            level=WARNING,
                            num_stages=count,
                            attempts=attempt + 1,
                            error=error,
                            failure_kind=failures[count].kind,
                            _failure=failures[count],
                            _call=call,
                        )
                        break
                    run = StageCountResult(num_stages=count, result=result)
                    results[count] = run
                    bus.emit(
                        DRIVER_COUNT_COMPLETED,
                        source="driver",
                        num_stages=count,
                        attempt=attempt,
                        _result=run,
                        _call=call,
                    )
                    break
        elif todo:
            model_kwargs = {
                "cache_size": perf_model._cache_size,
                "stage_cache_size": perf_model._stage_cache_size,
                "reserve_safety_factor": perf_model.reserve_safety_factor,
            }
            # The heavy problem state crosses into pool workers exactly
            # once (inherited at fork, or shipped per worker under
            # spawn); each dispatched task is only (count, remaining).
            shared = (graph, cluster, perf_model.database, options,
                      budget_kwargs, model_kwargs, strategy)

            def task_for(count: int) -> Tuple[int, Optional[float]]:
                remaining = (
                    deadline.remaining() if deadline is not None else None
                )
                return (count, remaining)

            fresh, failures, pool_stats = _run_counts_in_pool(
                todo,
                task_for,
                worker_fn,
                functools.partial(_payload_from_task, shared),
                max_workers=min(workers, len(todo)),
                timeout_per_count=timeout_per_count,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                jitter_seed=jitter_seed,
                deadline=deadline,
                worker_memory_mb=worker_memory_mb,
                bus=bus,
                call=call,
            )
            results.update(fresh)
            outcome.pool_forks = pool_stats["forks"]
            outcome.pool_tasks = pool_stats["tasks"]
    finally:
        if checkpoint_sink is not None:
            bus.remove_sink(checkpoint_sink)

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

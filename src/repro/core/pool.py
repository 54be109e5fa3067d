"""The search scheduler's runners: a fork-shared worker pool and an
in-process slot.

One scheduler (:func:`repro.core.search._run_counts_in_pool`) runs
search tasks on these runners for two callers: the stage-count driver
(one task per pipeline stage count) and the strategy arena (one task
per lane).

The original driver forked one fresh process per (stage count, attempt)
and shipped the whole problem — op graph, cluster spec, and profile
database — through the pickled process arguments every time.  For the
models the paper searches, that serialization dwarfs the actual search
work at small budgets.  This module keeps a pool of long-lived workers
instead:

* Under the ``fork`` start method (the POSIX default), workers inherit
  the problem state read-only through :data:`_FORK_STATE` at fork time
  — the graph, database, and search options are never pickled at all,
  and a worker costs one ``fork()`` no matter how large the model is.
* Under ``spawn``/``forkserver``, the state is shipped once per
  *worker* (through the process arguments) instead of once per *task*.

Crash safety is preserved by construction: each worker is an
individual process with a private duplex pipe, so the scheduler in
:mod:`repro.core.search` can kill, discard, and lazily replace one
worker without disturbing the others — none of the fate-sharing of a
``ProcessPoolExecutor``, where a single dead process poisons the whole
executor.

Runs that need no isolation use :class:`InProcessRunner` instead: the
same scheduler, one slot, no process at all.  Either runner only runs
tasks; the scheduler owns failure policy and reports each task's
outcome to its caller.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..telemetry import get_bus
from ..telemetry.events import (
    DRIVER_POOL_WORKER_EXIT,
    DRIVER_POOL_WORKER_START,
)

#: State a forked pool worker inherits instead of unpickling:
#: ``(worker_fn, payload_builder)``.  Set by :meth:`WorkerPool.spawn`
#: immediately before each fork and cleared right after, under
#: :data:`_FORK_LOCK` — pools are spawned concurrently from daemon
#: worker threads, and an unguarded set/fork/clear lets one pool's
#: child inherit another pool's state.
_FORK_STATE: Optional[Tuple[Callable, Callable]] = None

#: Serializes the set-state/fork/clear-state window in :meth:`spawn`.
_FORK_LOCK = threading.Lock()

#: Seconds to wait for a worker to acknowledge shutdown before
#: escalating to ``terminate()``.
_SHUTDOWN_GRACE = 2.0


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the
    platform has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _apply_worker_memory_limit(memory_limit_mb: Optional[float]) -> None:
    """Cap the worker's address space (the opt-in RSS guard).

    A runaway stage count then fails with a structured ``MemoryError``
    (surfaced as ``SearchFailure(kind="oom")``) instead of inviting the
    host OOM killer.  No-op where ``resource`` is unavailable or the
    host forbids lowering limits.
    """
    if memory_limit_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return
    limit = int(memory_limit_mb * 1024 * 1024)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - restrictive host
        pass


def _pool_worker_main(
    conn, memory_limit_mb: Optional[float], shipped_state
) -> None:
    """Task loop of one pool worker.

    Receives ``(task, filters)`` messages over the pipe until a ``None``
    sentinel (or a closed pipe) arrives.  Every task runs under a fresh
    telemetry bus — the forked parent bus, and any file handles its
    sinks hold, is never written.  ``filters`` are the parent bus's
    sink filters (:meth:`WorkerPool.send` attaches them): the task's bus
    captures only the events they keep, and those travel back alongside
    the result so the parent can re-emit them with worker attribution.
    With no filters the task's bus stays inactive, builds no event at
    all, and the task returns ``[]``.  A task that raises reports
    ``("error", message, events)`` and the worker *survives* to take the
    next task; only a crash (abort, kill, unhandled exit) loses the
    process, and the scheduler detects that through the dead pipe and
    exit code.
    """
    from ..telemetry import RingBufferSink, TelemetryBus, set_bus

    _apply_worker_memory_limit(memory_limit_mb)
    state = shipped_state if shipped_state is not None else _FORK_STATE
    worker_fn, payload_builder = state
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task, filters = message
        bus = TelemetryBus()
        capture = RingBufferSink(filters=filters)
        if filters:
            bus.add_sink(capture)
        set_bus(bus)
        try:
            result = worker_fn(payload_builder(task))
            conn.send(("ok", result, capture.events))
        except BaseException as exc:  # noqa: BLE001 - report, don't mask
            try:
                conn.send(
                    ("error", f"{type(exc).__name__}: {exc}", capture.events)
                )
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already gone
        pass


def _recv(conn, timeout: float):
    """The next message on ``conn`` within ``timeout`` seconds, else None."""
    if conn.poll(timeout):
        try:
            return conn.recv()
        except (EOFError, OSError):
            pass
    return None


@dataclass
class PoolWorker:
    """One live pool process and its task pipe."""

    process: multiprocessing.Process
    conn: Any
    busy: bool = False
    tasks_done: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Lazily-grown pool of restartable search workers.

    Workers are spawned on demand (a driver whose deadline already
    expired forks nothing), capped at ``max_workers``, and reused
    across tasks and retry attempts.  The scheduler owns failure
    policy; the pool only owns process lifecycle:

    * :meth:`acquire` returns an idle worker, growing the pool if
      allowed, or ``None`` when saturated.
    * :meth:`send` dispatches a task to a worker, with the bus's sink
      filters attached so the worker captures only what the bus keeps;
      :meth:`poll` returns its reply once there is one, and
      :meth:`forward` re-emits the events the task brought back.
    * :meth:`discard` removes one worker (optionally killing it) —
      used for crashes and timeouts; the next :meth:`acquire` forks a
      replacement.
    * :meth:`shutdown` drains idle workers with a sentinel and
      escalates to ``terminate()`` after a grace period.

    ``driver.pool.worker_start`` / ``driver.pool.worker_exit`` events
    record each process's lifetime and task count, so run logs show
    exactly how much process churn the run paid.
    """

    def __init__(
        self,
        worker_fn: Callable,
        payload_builder: Callable,
        *,
        max_workers: int,
        memory_limit_mb: Optional[float] = None,
        bus=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._state = (worker_fn, payload_builder)
        self._max_workers = max_workers
        self._memory_limit_mb = memory_limit_mb
        self._ctx = multiprocessing.get_context()
        self._fork = self._ctx.get_start_method() == "fork"
        self._bus = bus if bus is not None else get_bus()
        self._workers: List[PoolWorker] = []
        self.num_forks = 0
        self.num_tasks = 0

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> Tuple[PoolWorker, ...]:
        return tuple(self._workers)

    def idle_worker(self) -> Optional[PoolWorker]:
        for worker in self._workers:
            if not worker.busy and worker.alive():
                return worker
        return None

    def can_grow(self) -> bool:
        return len(self._workers) < self._max_workers

    def spawn(self) -> PoolWorker:
        """Fork one new worker (inheriting state when fork is used)."""
        global _FORK_STATE
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        shipped = None if self._fork else self._state
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._memory_limit_mb, shipped),
            daemon=True,  # a hung worker must not block interpreter exit
        )
        with _FORK_LOCK:
            if self._fork:
                _FORK_STATE = self._state
            try:
                process.start()
            finally:
                if self._fork:
                    _FORK_STATE = None
        child_conn.close()
        worker = PoolWorker(process=process, conn=parent_conn)
        self._workers.append(worker)
        self.num_forks += 1
        self._bus.emit(
            DRIVER_POOL_WORKER_START,
            source="driver",
            worker_pid=process.pid,
            pool_size=len(self._workers),
            forks=self.num_forks,
        )
        return worker

    def acquire(self) -> Optional[PoolWorker]:
        """An idle worker, a fresh one if the pool may grow, or None."""
        worker = self.idle_worker()
        if worker is None and self.can_grow():
            worker = self.spawn()
        return worker

    def send(self, worker: PoolWorker, task) -> None:
        """Dispatch ``task`` to ``worker`` and mark it busy.

        Raises ``BrokenPipeError``/``OSError`` if the worker died while
        idle; the task never started and the caller may re-dispatch it.
        """
        worker.conn.send((task, self._bus.filters))
        worker.busy = True
        self.num_tasks += 1

    def poll(self, worker: PoolWorker):
        """``worker``'s ``(status, value, events)`` reply, or None while
        its task runs (or once it has died without replying).

        A worker that exited between the poll and now has its pipe
        drained once more before the caller declares a crash.  A reply
        frees the worker for its next task.
        """
        message = _recv(worker.conn, 0)
        if message is None and not worker.alive():
            message = _recv(worker.conn, 0.05)
        if message is not None:
            worker.busy = False
            worker.tasks_done += 1
        return message

    def forward(self, events, **attribution) -> None:
        """Re-emit a task's captured ``events`` stamped with
        ``attribution`` (e.g. the stage count the task searched)."""
        bus = self._bus
        for event in events:
            bus.emit_event(event.with_attrs(**attribution))

    def discard(self, worker: PoolWorker, *, kill: bool = False) -> None:
        """Remove ``worker`` from the pool (terminating it if asked)."""
        if worker in self._workers:
            self._workers.remove(worker)
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._bus.emit(
            DRIVER_POOL_WORKER_EXIT,
            source="driver",
            worker_pid=worker.pid,
            tasks=worker.tasks_done,
            killed=kill,
            exitcode=worker.process.exitcode,
        )

    def shutdown(self) -> None:
        """Drain every remaining worker (sentinel, then terminate)."""
        for worker in list(self._workers):
            if worker.alive() and not worker.busy:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in list(self._workers):
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            self.discard(worker, kill=worker.process.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class InProcessRunner:
    """One slot that runs a task in this process when it is polled.

    :class:`WorkerPool`'s interface over ``run_task(task)``, for runs
    that need no isolation: nothing forks, nothing is pickled, and the
    task's events go straight to the caller's bus.  :meth:`send` only
    queues the task, so the scheduler reports its start before the
    task's own events; :meth:`poll` runs it to completion.  The slot is
    the runner itself; it has no process (``pid`` is None) and never
    dies.
    """

    pid = None
    num_forks = num_tasks = 0

    def __init__(self, run_task: Callable) -> None:
        self._run_task = run_task
        self._task = None

    def acquire(self) -> Optional["InProcessRunner"]:
        return self if self._task is None else None

    def send(self, slot: "InProcessRunner", task) -> None:
        self._task = task

    def poll(self, slot: "InProcessRunner"):
        task, self._task = self._task, None
        try:
            return ("ok", self._run_task(task), [])
        except Exception as exc:  # noqa: BLE001 - report, like a worker
            return ("error", f"{type(exc).__name__}: {exc}", [])

    def forward(self, events, **attribution) -> None:
        """Nothing to re-emit: the task emitted on the caller's bus."""

    def shutdown(self) -> None:
        """Nothing to drain."""

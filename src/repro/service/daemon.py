"""The resilient planner daemon: admission → breaker → cache → search.

``PlannerDaemon`` owns a worker pool (``ThreadPoolExecutor``) that
consumes an admission-controlled priority queue of plan requests.  Each
request flows through:

1. **plan cache** — repeat fingerprints answer in O(1), no search;
2. **circuit breaker** — known-bad configurations fail fast with the
   last recorded error instead of re-forking subprocess trees;
3. **anytime search** — the planner runs under the request's
   cooperative :class:`~repro.core.budget.Deadline`; running out of
   time yields the best-so-far plan flagged ``partial``, never an
   exception; the stage-count driver reaps any subprocess worker
   still running ``DEADLINE_KILL_GRACE`` past the deadline.

A request's churn ``membership``, stamped by the fleet router and part
of its fingerprint, names the cluster it plans on: the daemon keeps no
churn state.

Lifecycle: :meth:`drain` (wired to SIGTERM by ``repro-serve``) stops
admission, rejects the queued backlog with ``retry_after``, cancels
in-flight deadlines so searches stop at the next iteration boundary,
and relies on the per-request ``SearchCheckpoint`` files already on
disk — a restarted daemon re-admits the journaled requests and resumes
their completed stage counts bit-exactly.

Every decision emits a ``service.*`` event on the telemetry bus, so a
degraded daemon is diagnosable from its run log alone.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..cluster.topology import ClusterSpec, paper_cluster
from ..core.budget import Deadline
from ..ioutil import write_json_atomic
from ..lint.diagnostics import ERROR as LINT_ERROR
from ..lint.diagnostics import ArtifactError, Diagnostic
from ..lint.requests import analyze_plan_request
from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    COALESCE_ATTACH,
    COALESCE_FANOUT,
    SERVICE_DRAIN_BEGIN,
    SERVICE_DRAIN_END,
    SERVICE_REQUEST_COMPLETED,
    SERVICE_REQUEST_FAILED,
    SERVICE_REQUEST_INVALID,
    SERVICE_REQUEST_READMITTED,
    SERVICE_REQUEST_RECEIVED,
    SERVICE_REQUEST_REJECTED,
    SERVICE_REQUEST_STARTED,
    SERVICE_START,
)
from .admission import AdmissionController, QueueFullError
from .breaker import BreakerOpenError, CircuitBreaker
from .cache import PlanCache
from .planner import plan_request
from .protocol import (
    STATUS_FAILED,
    STATUS_PARTIAL,
    STATUS_REJECTED,
    STATUS_SERVED,
    PlanRequest,
    PlanResponse,
    digest,
)

@dataclass(frozen=True)
class TicketTimeout:
    """Typed :meth:`Ticket.wait` outcome: the caller's patience ran out.

    Distinguishable from a shed request (that is a ``rejected``
    :class:`PlanResponse`) and from a failed search (``failed``): the
    search is *still running* — its result will land in the plan cache
    — only this waiter gave up.
    """

    request_id: int
    fingerprint: str
    waited_seconds: float

    @property
    def ok(self) -> bool:
        return False


@dataclass
class Ticket:
    """One admitted request in flight through the daemon."""

    request: PlanRequest
    request_id: int
    fingerprint: str
    #: The planner view of the request's churn membership (``None``
    #: when nominal).
    cluster: Optional[ClusterSpec] = None
    deadline: Optional[Deadline] = None
    response: Optional[PlanResponse] = None
    done: threading.Event = field(default_factory=threading.Event)
    #: Same-fingerprint tickets sharing this ticket's in-flight search;
    #: resolved by fan-out when this (primary) ticket finishes.
    waiters: List["Ticket"] = field(default_factory=list)
    #: Whether this ticket rides another ticket's search.
    coalesced: bool = False

    def wait(
        self, timeout: Optional[float] = None
    ) -> Union[PlanResponse, TicketTimeout]:
        """Block until the terminal response, or a typed
        :class:`TicketTimeout` when ``timeout`` elapses first."""
        started = time.monotonic()
        if self.done.wait(timeout):
            return self.response
        return TicketTimeout(
            request_id=self.request_id,
            fingerprint=self.fingerprint,
            waited_seconds=time.monotonic() - started,
        )


class PlannerDaemon:
    """Admission-controlled, self-healing planner service."""

    def __init__(
        self,
        *,
        planner: Optional[Callable] = None,
        workers: int = 2,
        queue_limit: int = 8,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
        cache_entries: int = 128,
        state_dir: Optional[Path] = None,
        search_workers: int = 1,
        timeout_per_count: Optional[float] = None,
        worker_memory_mb: Optional[float] = None,
        admission_lint: Optional[bool] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._planner = planner or self._default_planner
        # The Tier-A admission lint validates requests against the real
        # model registry and paper cluster, which only describes the
        # default planner; injected planners (tests, alternative
        # back-ends) define their own model namespace, so lint defaults
        # to on exactly when the default planner is in use.
        self._admission_lint = (
            admission_lint if admission_lint is not None else planner is None
        )
        self._search_workers = search_workers
        self._timeout_per_count = timeout_per_count
        self._worker_memory_mb = worker_memory_mb
        self.admission = AdmissionController(queue_limit, workers=workers)
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_seconds=breaker_reset_seconds,
        )
        self.cache = PlanCache(cache_entries, directory=self.state_dir)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._in_flight: Dict[int, Ticket] = {}
        #: fingerprint -> primary ticket whose search later
        #: same-fingerprint submissions ride (request coalescing).
        self._coalesce: Dict[str, Ticket] = {}
        self._coalesced_total = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stop = threading.Event()
        self._started = False
        self._draining = False
        self.counters = {
            "served": 0, "partial": 0, "rejected": 0, "failed": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PlannerDaemon":
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self._stop.clear()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="planner-worker",
        )
        for _ in range(self.workers):
            self._executor.submit(self._worker_loop)
        get_bus().emit(
            SERVICE_START,
            source="service",
            workers=self.workers,
            queue_limit=self.admission.max_pending,
            state_dir=str(self.state_dir) if self.state_dir else None,
        )
        self._readmit_journaled()
        return self

    @property
    def ready(self) -> bool:
        """Accepting new requests (``/readyz``)."""
        return self._started and not self._draining

    def health(self) -> dict:
        """Liveness + degradation report (``/healthz``).

        ``degraded`` while any breaker is open, the queue is saturated,
        or a drain is in progress — ``healthy`` again once the breaker
        closes and the queue has room.
        """
        breakers = self.breaker.snapshot()
        degraded = (
            self._draining
            or self.admission.saturated
            or any(b["state"] != "closed" for b in breakers.values())
        )
        with self._lock:
            in_flight = len(self._in_flight)
            coalesce = {
                "in_flight": len(self._coalesce),
                "waiters": sum(
                    len(t.waiters) for t in self._coalesce.values()
                ),
                "total": self._coalesced_total,
            }
            counters = dict(self.counters)
        queue = self.admission.stats()
        return {
            "status": "degraded" if degraded else "healthy",
            "ready": self.ready,
            "draining": self._draining,
            "in_flight": in_flight,
            # Surfaced top-level so fleet routers can poll the load
            # factor without digging into the queue sub-dict.
            "queue_depth": queue.get("depth", 0),
            "queue": queue,
            "coalesce": coalesce,
            "breakers": breakers,
            "cache": self.cache.stats(),
            "requests": counters,
        }

    def drain(self, timeout: Optional[float] = 30.0) -> dict:
        """Graceful shutdown: shed the queue, checkpoint in-flight work.

        Queued requests are answered ``rejected`` (their journal files
        stay on disk, so a restarted daemon re-admits them); in-flight
        searches get their deadlines cancelled and stop at the next
        iteration boundary, leaving completed stage counts in their
        ``SearchCheckpoint``.  Returns a summary of what was shed.
        """
        if not self._started:
            return {"queued_shed": 0, "in_flight_interrupted": 0}
        self._draining = True
        bus = get_bus()
        shed = self.admission.drain()
        bus.emit(
            SERVICE_DRAIN_BEGIN,
            source="service",
            level=WARNING,
            queued=len(shed),
        )
        for ticket in shed:
            self._finish(
                ticket,
                PlanResponse(
                    status=STATUS_REJECTED,
                    request_id=ticket.request_id,
                    fingerprint=ticket.fingerprint,
                    error="daemon draining",
                    retry_after=timeout,
                ),
                keep_journal=True,
            )
        with self._lock:
            interrupted = list(self._in_flight.values())
        for ticket in interrupted:
            if ticket.deadline is not None:
                ticket.deadline.cancel()
        waited_from = time.monotonic()
        while timeout is None or time.monotonic() - waited_from < timeout:
            with self._lock:
                if not self._in_flight:
                    break
            time.sleep(0.02)
        self.admission.close()
        self._stop.set()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._started = False
        summary = {
            "queued_shed": len(shed),
            "in_flight_interrupted": len(interrupted),
        }
        bus.emit(SERVICE_DRAIN_END, source="service", **summary)
        return summary

    def stop(self) -> None:
        """Immediate drain with no patience (tests, atexit)."""
        self.drain(timeout=5.0)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self, request: PlanRequest, timeout: Optional[float] = None
    ) -> PlanResponse:
        """Admit ``request`` and block for its terminal response."""
        ticket_or_response = self.submit_nowait(request)
        if isinstance(ticket_or_response, PlanResponse):
            return ticket_or_response
        response = ticket_or_response.wait(timeout)
        if isinstance(response, TicketTimeout):
            # The caller gave up waiting; the search continues and will
            # land in the cache, but this client sees a failure.
            return PlanResponse(
                status=STATUS_FAILED,
                request_id=response.request_id,
                fingerprint=response.fingerprint,
                error=(
                    "timed out waiting for a response after "
                    f"{response.waited_seconds:.2f}s"
                ),
                elapsed_seconds=response.waited_seconds,
            )
        return response

    def submit_nowait(self, request: PlanRequest):
        """Admit ``request``; returns a :class:`Ticket` to wait on, or
        an immediate :class:`PlanResponse` (cache hit / rejection)."""
        bus = get_bus()
        request_id = next(self._ids)
        fingerprint = request.fingerprint()
        bus.emit(
            SERVICE_REQUEST_RECEIVED,
            source="service",
            request_id=request_id,
            fingerprint=fingerprint,
            model=request.model,
            gpus=request.gpus,
            priority=request.priority,
            deadline_seconds=request.deadline_seconds,
        )
        if not self.ready:
            return self._count(PlanResponse(
                status=STATUS_REJECTED,
                request_id=request_id,
                fingerprint=fingerprint,
                error="daemon is not accepting requests",
                retry_after=1.0,
            ))
        cached = self.cache.get(fingerprint)
        if cached is not None:
            journal = self._journal_path(fingerprint)
            if journal is not None and journal.exists():
                # A journaled request answered by the warm cache (e.g.
                # re-admitted after a restart) is done — drop its entry.
                try:
                    journal.unlink()
                except OSError:
                    pass
            response = self._count(PlanResponse(
                status=STATUS_SERVED,
                request_id=request_id,
                fingerprint=fingerprint,
                plan=cached.get("plan"),
                objective=cached.get("objective"),
                cached=True,
            ))
            bus.emit(
                SERVICE_REQUEST_COMPLETED,
                source="service",
                request_id=request_id,
                fingerprint=fingerprint,
                status=response.status,
                cached=True,
            )
            return response
        # Request coalescing: a second request for a fingerprint whose
        # search is already queued or running attaches to that ticket
        # instead of burning another search worker — one search, many
        # waiters, each fanned an identical (flagged) response.  A
        # request without a deadline never rides a deadlined primary,
        # whose answer may be a deadline's: it queues its own search
        # and becomes the fingerprint's primary instead.
        with self._lock:
            primary = self._coalesce.get(fingerprint)
            if primary is not None and (
                request.deadline_seconds is not None
                or primary.request.deadline_seconds is None
            ):
                follower = Ticket(
                    request=request,
                    request_id=request_id,
                    fingerprint=fingerprint,
                    coalesced=True,
                )
                primary.waiters.append(follower)
                self._coalesced_total += 1
                bus.emit(
                    COALESCE_ATTACH,
                    source="service",
                    request_id=request_id,
                    fingerprint=fingerprint,
                    primary_request_id=primary.request_id,
                )
                return follower
        # Admission lint (Tier A): a request naming an unknown model, an
        # unbuildable cluster, or a model whose weight state cannot fit
        # the cluster under any plan is rejected with structured
        # diagnostics instead of burning a search worker on it — as is
        # one whose churn membership leaves no device (ACE221).
        invalid: List[Diagnostic] = []
        if self._admission_lint:
            invalid = [
                d for d in analyze_plan_request(request)
                if d.severity == LINT_ERROR
            ]
        cluster = None
        if request.membership and not invalid:
            from ..faults.inject import NoSurvivorsError
            from ..faults.plan import Membership

            membership = Membership.from_state(
                paper_cluster(request.gpus), request.membership
            )
            try:
                cluster = membership.view().planner
            except NoSurvivorsError as exc:
                invalid = [exc.diagnostic]
        if invalid:
            bus.emit(
                SERVICE_REQUEST_INVALID,
                source="service",
                level=WARNING,
                request_id=request_id,
                fingerprint=fingerprint,
                codes=[d.code for d in invalid],
            )
            return self._count(PlanResponse(
                status=STATUS_REJECTED,
                request_id=request_id,
                fingerprint=fingerprint,
                error="; ".join(d.message for d in invalid),
                diagnostics=[d.to_json() for d in invalid],
            ))
        try:
            self.breaker.check(self._breaker_key(request))
        except BreakerOpenError as exc:
            return self._count(PlanResponse(
                status=STATUS_REJECTED,
                request_id=request_id,
                fingerprint=fingerprint,
                error=str(exc),
                retry_after=exc.retry_after,
            ))
        ticket = Ticket(
            request=request,
            request_id=request_id,
            fingerprint=fingerprint,
            cluster=cluster,
            # The search's clock starts at admission, like the router's
            # attempt bound: queue wait spends it.
            deadline=Deadline(request.deadline_seconds),
        )
        # Register as the coalescing primary *before* enqueueing so a
        # concurrent same-fingerprint submit can never slip between
        # enqueue and registration and start a duplicate search.
        with self._lock:
            self._coalesce[fingerprint] = ticket
        # Journal before enqueueing: a worker may pop and finish the
        # ticket (unlinking the journal) the instant it is queued.
        self._journal(ticket)
        try:
            self.admission.submit(ticket, priority=request.priority)
        except QueueFullError as exc:
            path = self._journal_path(fingerprint)
            if path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass
            # Route through _finish so any waiter that attached in the
            # registration window is fanned the same rejection.
            self._finish(ticket, PlanResponse(
                status=STATUS_REJECTED,
                request_id=request_id,
                fingerprint=fingerprint,
                error=str(exc),
                retry_after=exc.retry_after,
            ))
            return ticket.response
        return ticket

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _default_planner(self, request, *, deadline=None,
                         checkpoint_path=None, cluster=None):
        return plan_request(
            request,
            cluster,
            deadline=deadline,
            checkpoint_path=checkpoint_path,
            search_workers=self._search_workers,
            timeout_per_count=self._timeout_per_count,
            worker_memory_mb=self._worker_memory_mb,
        )

    @staticmethod
    def _breaker_key(request: PlanRequest) -> str:
        counts = (
            ",".join(map(str, request.stage_counts))
            if request.stage_counts is not None
            else "auto"
        )
        key = f"{request.model}/gpus={request.gpus}/counts={counts}"
        if request.membership:
            # Churned failures must not open the nominal config's breaker.
            key += f"/membership={digest(request.membership)}"
        return key

    def _count(self, response: PlanResponse) -> PlanResponse:
        key = response.status
        # Worker threads finish requests concurrently; the counter
        # update is a read-modify-write and must hold the lock (every
        # caller invokes _count outside the locked regions).
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1
        if response.status == STATUS_REJECTED:
            get_bus().emit(
                SERVICE_REQUEST_REJECTED,
                source="service",
                level=WARNING,
                request_id=response.request_id,
                fingerprint=response.fingerprint,
                error=response.error,
                retry_after=response.retry_after,
            )
        return response

    def _journal_path(self, fingerprint: str) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / f"{fingerprint}.request.json"

    def _checkpoint_path(self, ticket: Ticket) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / f"{ticket.fingerprint}.ckpt.json"

    def _journal(self, ticket: Ticket) -> None:
        path = self._journal_path(ticket.fingerprint)
        if path is None:
            return
        write_json_atomic(path, ticket.request.to_json())

    def _readmit_journaled(self) -> None:
        """Re-admit requests a previous daemon journaled but never
        finished (the other half of the SIGTERM drain contract)."""
        from ..lint.artifacts import check_journal, load_artifact

        if self.state_dir is None:
            return
        for path in sorted(self.state_dir.glob("*.request.json")):
            try:
                data = load_artifact(path, "ACE301", check_journal)
            except ArtifactError:
                # Torn, or renamed (ACE331): the client will retry.
                continue
            request = PlanRequest.from_json(data)
            get_bus().emit(
                SERVICE_REQUEST_READMITTED,
                source="service",
                fingerprint=request.fingerprint(),
                model=request.model,
            )
            outcome = self.submit_nowait(request)
            if (
                isinstance(outcome, PlanResponse)
                and outcome.status == STATUS_REJECTED
            ):
                # Queue full: restore this journal entry (the rejection
                # path unlinked it) and leave the rest for the next
                # restart.
                try:
                    write_json_atomic(path, request.to_json())
                except OSError:
                    pass
                break

    def _finish(
        self, ticket: Ticket, response: PlanResponse,
        *, keep_journal: bool = False,
    ) -> None:
        if not keep_journal:
            path = self._journal_path(ticket.fingerprint)
            if path is not None:
                try:
                    path.unlink()
                except OSError:
                    pass
        # Atomically retire the coalescing registration and capture the
        # waiter list; attaches happen under the same lock, so a waiter
        # either rides this fan-out or finds no primary and queues its
        # own (cache-warm) search.
        with self._lock:
            if self._coalesce.get(ticket.fingerprint) is ticket:
                del self._coalesce[ticket.fingerprint]
            waiters = list(ticket.waiters)
            ticket.waiters.clear()
        ticket.response = response
        self._count(response)
        ticket.done.set()
        if waiters:
            get_bus().emit(
                COALESCE_FANOUT,
                source="service",
                fingerprint=ticket.fingerprint,
                primary_request_id=ticket.request_id,
                waiters=len(waiters),
                status=response.status,
            )
        for waiter in waiters:
            waiter.response = self._count(replace(
                response,
                request_id=waiter.request_id,
                coalesced=True,
            ))
            waiter.done.set()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            ticket = self.admission.next(timeout=0.1)
            if ticket is None:
                continue
            try:
                self._serve(ticket)
            except BaseException as exc:  # noqa: BLE001 - never lose a ticket
                self._finish(ticket, PlanResponse(
                    status=STATUS_FAILED,
                    request_id=ticket.request_id,
                    fingerprint=ticket.fingerprint,
                    error=f"internal error: {type(exc).__name__}: {exc}",
                ))

    def _serve(self, ticket: Ticket) -> None:
        bus = get_bus()
        request = ticket.request
        started = time.monotonic()
        # Another worker may have planned the same fingerprint while
        # this ticket queued; a cache hit now skips the whole search.
        cached = self.cache.get(ticket.fingerprint)
        if cached is not None:
            self._finish(ticket, PlanResponse(
                status=STATUS_SERVED,
                request_id=ticket.request_id,
                fingerprint=ticket.fingerprint,
                plan=cached.get("plan"),
                objective=cached.get("objective"),
                cached=True,
            ))
            return
        if ticket.deadline.expired():
            # Queue wait spent the whole budget; the search would shed
            # every stage count.  The caller's deadline failed, not the
            # config, so the breaker hears nothing of it.
            self._fail(ticket, "deadline expired while queued", 0.0)
            return
        key = self._breaker_key(request)
        with self._lock:
            self._in_flight[ticket.request_id] = ticket
        bus.emit(
            SERVICE_REQUEST_STARTED,
            source="service",
            request_id=ticket.request_id,
            fingerprint=ticket.fingerprint,
            model=request.model,
        )
        checkpoint = self._checkpoint_path(ticket)
        # Planners that never serve churn need not take ``cluster``.
        churned = {"cluster": ticket.cluster} if ticket.cluster else {}
        try:
            outcome = self._planner(
                request,
                deadline=ticket.deadline,
                checkpoint_path=checkpoint,
                **churned,
            )
        except Exception as exc:  # noqa: BLE001 - map to terminal response
            error = f"{type(exc).__name__}: {exc}"
            if not (self._draining or ticket.deadline.expired()):
                # A drain-cancelled or deadline-cut search is not the
                # config's fault; don't poison the breaker with it.
                self.breaker.record_failure(
                    key, error, model=request.model, gpus=request.gpus
                )
            self._fail(ticket, error, time.monotonic() - started)
            return
        finally:
            with self._lock:
                self._in_flight.pop(ticket.request_id, None)
            self.admission.note_service_seconds(
                time.monotonic() - started
            )
        elapsed = time.monotonic() - started
        partial = bool(outcome.partial)
        self.breaker.record_success(key)
        entry = {
            "plan": outcome.plan,
            "objective": outcome.objective,
            "model": request.model,
            "gpus": request.gpus,
            "strategy": request.strategy,
        }
        if not partial:
            # Partial plans answer their own request but must not be
            # served to later callers as the full search's answer.
            self.cache.put(ticket.fingerprint, entry)
            if checkpoint is not None:
                try:
                    checkpoint.unlink()
                except OSError:
                    pass
        bus.emit(
            SERVICE_REQUEST_COMPLETED,
            source="service",
            request_id=ticket.request_id,
            fingerprint=ticket.fingerprint,
            status=STATUS_PARTIAL if partial else STATUS_SERVED,
            cached=False,
            partial=partial,
            objective=outcome.objective,
            elapsed=elapsed,
        )
        self._finish(
            ticket,
            PlanResponse(
                status=STATUS_PARTIAL if partial else STATUS_SERVED,
                request_id=ticket.request_id,
                fingerprint=ticket.fingerprint,
                plan=outcome.plan,
                objective=outcome.objective,
                elapsed_seconds=elapsed,
                failures=outcome.failures,
            ),
            keep_journal=partial and self._draining,
        )

    def _fail(self, ticket: Ticket, error: str, elapsed: float) -> None:
        get_bus().emit(
            SERVICE_REQUEST_FAILED, source="service", level=WARNING,
            request_id=ticket.request_id, fingerprint=ticket.fingerprint,
            error=error, elapsed=elapsed,
        )
        self._finish(ticket, PlanResponse(
            status=STATUS_FAILED,
            request_id=ticket.request_id,
            fingerprint=ticket.fingerprint,
            error=error,
            elapsed_seconds=elapsed,
        ), keep_journal=self._draining)

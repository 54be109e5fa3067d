"""Admission control: a bounded priority queue with backpressure.

"Millions of users" do not get to stack unbounded work on a subprocess
pool.  The controller holds at most ``max_pending`` queued requests;
one more is *rejected immediately* with a ``retry_after`` estimate
(429-style) instead of piling up — overload sheds load, it never
queues latency.  Within the bound, higher ``priority`` requests pop
first and equal priorities stay FIFO.

``retry_after`` is derived from the live state: an EMA of observed
service times times the queue depth ahead of the hypothetical retry,
divided by the worker count — i.e. "when a slot is plausibly free",
not a magic constant.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import List, Optional

from ..telemetry import WARNING, get_bus
from ..telemetry.events import (
    SERVICE_ADMISSION_ADMITTED,
    SERVICE_ADMISSION_REJECTED,
)

#: Service-time EMA seed: ``retry_after`` before any request finished.
INITIAL_SERVICE_SECONDS = 1.0


class QueueFullError(RuntimeError):
    """The admission queue is at capacity; retry after ``retry_after``."""

    def __init__(self, retry_after: float, depth: int) -> None:
        super().__init__(
            f"admission queue full ({depth} pending); "
            f"retry after {retry_after:.2f}s"
        )
        self.retry_after = retry_after
        self.depth = depth


class AdmissionController:
    """Thread-safe bounded priority queue feeding the worker pool."""

    def __init__(
        self,
        max_pending: int,
        *,
        workers: int = 1,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.max_pending = max_pending
        self.workers = workers
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._service_ema = INITIAL_SERVICE_SECONDS
        self.admitted = 0
        self.rejected = 0

    # -- producer side -------------------------------------------------
    def submit(self, item, *, priority: int = 0):
        """Enqueue ``item`` or raise :class:`QueueFullError`."""
        with self._not_empty:
            if self._closed:
                raise RuntimeError("admission controller is closed")
            if len(self._heap) >= self.max_pending:
                self.rejected += 1
                retry_after = self._retry_after_locked()
                get_bus().emit(
                    SERVICE_ADMISSION_REJECTED,
                    source="service",
                    level=WARNING,
                    depth=len(self._heap),
                    max_pending=self.max_pending,
                    retry_after=retry_after,
                )
                raise QueueFullError(retry_after, len(self._heap))
            # heapq is a min-heap: negate priority so higher pops first;
            # the monotone sequence keeps equal priorities FIFO.
            heapq.heappush(
                self._heap, (-priority, next(self._seq), item)
            )
            self.admitted += 1
            get_bus().emit(
                SERVICE_ADMISSION_ADMITTED,
                source="service",
                depth=len(self._heap),
                priority=priority,
            )
            self._not_empty.notify()
            return item

    # -- consumer side -------------------------------------------------
    def next(self, timeout: Optional[float] = None):
        """Pop the highest-priority item; ``None`` on timeout/close."""
        with self._not_empty:
            deadline_hit = not self._not_empty.wait_for(
                lambda: self._heap or self._closed, timeout=timeout
            )
            if deadline_hit or (self._closed and not self._heap):
                return None
            _, _, item = heapq.heappop(self._heap)
            return item

    def note_service_seconds(self, seconds: float) -> None:
        """Feed one observed service time into the retry_after EMA."""
        with self._lock:
            self._service_ema = 0.8 * self._service_ema + 0.2 * max(
                seconds, 0.0
            )

    # -- introspection / lifecycle ------------------------------------
    def _retry_after_locked(self) -> float:
        backlog = len(self._heap) + 1  # the retry joins behind the queue
        return max(
            0.1, self._service_ema * backlog / max(self.workers, 1)
        )

    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def saturated(self) -> bool:
        with self._lock:
            return len(self._heap) >= self.max_pending

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._heap),
                "max_pending": self.max_pending,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "service_seconds_ema": self._service_ema,
            }

    def drain(self) -> list:
        """Remove and return everything still queued (drain/shutdown)."""
        with self._not_empty:
            items = [item for _, _, item in sorted(self._heap)]
            self._heap.clear()
            self._not_empty.notify_all()
            return items

    def close(self) -> None:
        """Stop accepting and wake every blocked consumer."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

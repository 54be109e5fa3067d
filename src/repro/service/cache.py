"""Plan cache: repeat queries are O(1), invalidation is explicit.

Completed plans are keyed by the request fingerprint (canonical
model × cluster × budget digest, see ``protocol.PlanRequest``); a
churned request's fingerprint names its membership, so its plan is
cached and persisted under its own address like any other.  Only
*complete* plans are cached — a deadline-cut partial plan answers its
own request but must not masquerade as the full search's answer for
the next caller.

With a ``directory`` the cache is write-through: every entry also
lands as ``<fingerprint>.plan.json`` and is reloaded on construction,
so a restarted daemon serves yesterday's plans warm.  ``invalidate``
drops matching entries (memory *and* disk) — the daemon calls it when
a fault plan or cluster change arrives, because a plan searched for
the old world is worse than no plan at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from ..ioutil import write_json_atomic
from ..lint.diagnostics import ArtifactError
from ..telemetry import get_bus
from ..telemetry.events import (
    SERVICE_CACHE_HIT,
    SERVICE_CACHE_INVALIDATE,
    SERVICE_CACHE_MISS,
)


class PlanCache:
    """Thread-safe LRU keyed by request fingerprint."""

    def __init__(
        self,
        max_entries: int = 128,
        *,
        directory: Optional[Path] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._preload()

    def _preload(self) -> None:
        """Warm the cache from persisted plans, oldest first (LRU order);
        an entry failing its schema (``ACE31x``) is a miss."""
        from ..lint.artifacts import check_plan_cache_entry, load_artifact

        paths = sorted(
            self.directory.glob("*.plan.json"),
            key=lambda p: p.stat().st_mtime,
        )
        for path in paths[-self.max_entries:]:
            try:
                entry = load_artifact(path, "ACE301", check_plan_cache_entry)
            except ArtifactError:
                continue
            self._entries[path.name[: -len(".plan.json")]] = entry

    def get(self, fingerprint: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                get_bus().emit(
                    SERVICE_CACHE_MISS,
                    source="service",
                    fingerprint=fingerprint,
                )
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            get_bus().emit(
                SERVICE_CACHE_HIT,
                source="service",
                fingerprint=fingerprint,
            )
            return dict(entry)

    def put(self, fingerprint: str, entry: dict) -> None:
        stored = dict(entry)
        evicted = []
        with self._lock:
            self._entries[fingerprint] = stored
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.max_entries:
                evicted.append(self._entries.popitem(last=False)[0])
        # Touch the disk outside the lock: a rename or unlink can stall
        # for tens of ms, and holding the cache lock across it would
        # stall every hit and miss.  Concurrent puts of the same
        # fingerprint race benignly — os.replace is atomic, last writer
        # wins, and the in-memory entry is the authority on the next
        # get().
        self._unlink(evicted)
        if self.directory is not None:
            write_json_atomic(
                self.directory / f"{fingerprint}.plan.json", stored
            )

    def snapshot(self) -> dict:
        """Copy of every live entry, LRU-oldest first.

        The fleet router demotes these to its stale tier before fanning
        an invalidation out, so an overloaded fleet can still serve a
        stale-but-flagged plan instead of shedding the request.
        """
        with self._lock:
            return {fp: dict(entry) for fp, entry in self._entries.items()}

    def invalidate(self, *, gpus: Optional[int] = None) -> int:
        """Drop every entry, or those planned for a ``gpus``-sized
        cluster, because a fault plan or cluster change arrived.

        Returns the number of entries dropped and emits one
        ``service.cache.invalidate`` event with the count and reach.
        """
        with self._lock:
            doomed = [
                fp for fp, entry in self._entries.items()
                if gpus is None or entry.get("gpus") == gpus
            ]
            for fingerprint in doomed:
                del self._entries[fingerprint]
            get_bus().emit(
                SERVICE_CACHE_INVALIDATE,
                source="service",
                dropped=len(doomed),
                remaining=len(self._entries),
            )
        self._unlink(doomed)  # outside the lock, as in put
        return len(doomed)

    def _unlink(self, fingerprints) -> None:
        if self.directory is None:
            return
        for fingerprint in fingerprints:
            try:
                (self.directory / f"{fingerprint}.plan.json").unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }

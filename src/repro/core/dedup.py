"""Configuration deduplication (§4.3).

The multi-hop search can reach one configuration along many primitive
paths; a semantic identity (a hash over stage spans, device counts,
per-op settings, and microbatch size) lets the search skip re-exploring
them.  The identity is :meth:`ParallelConfig.cache_key`, which is
composed from the stages' cached digests, so keying a candidate that
shares all but one stage with its parent hashes only that stage.
``VisitedSet`` also counts hits, which quantifies how much work
deduplication saves.
"""

from __future__ import annotations

from ..parallel.config import ParallelConfig


class VisitedSet:
    """Cache-key set with hit accounting."""

    def __init__(self) -> None:
        self._keys = set()
        self.hits = 0

    def add(self, config: ParallelConfig) -> bool:
        """Record ``config``; returns True when it was new."""
        key = config.cache_key()
        if key in self._keys:
            self.hits += 1
            return False
        self._keys.add(key)
        return True

    def __contains__(self, config: ParallelConfig) -> bool:
        seen = config.cache_key() in self._keys
        if seen:
            self.hits += 1
        return seen

    def __len__(self) -> int:
        return len(self._keys)


class UnexploredPool:
    """Best-first pool of configurations seen but not yet expanded.

    Mirrors Algorithm 1's ``unexplored_configs``: every candidate the
    search estimates lands here; when an iteration fails to improve,
    the search restarts from the best unexplored configuration.
    """

    def __init__(self) -> None:
        self._pool = {}

    def put(self, config: ParallelConfig, objective: float) -> None:
        self._pool.setdefault(config.cache_key(), (objective, config))

    def remove(self, config: ParallelConfig) -> None:
        self._pool.pop(config.cache_key(), None)

    def pop_best(self):
        """Remove and return the lowest-objective entry (or ``None``)."""
        if not self._pool:
            return None
        key = min(self._pool, key=lambda k: self._pool[k][0])
        _, config = self._pool.pop(key)
        return config

    def __len__(self) -> int:
        return len(self._pool)

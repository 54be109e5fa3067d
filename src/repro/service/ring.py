"""Consistent-hash ring: fingerprints → replicas, stably under churn.

The fleet router shards request fingerprints across replicas with the
classic vnode construction: every replica owns ``vnodes`` points on a
2^64 ring (sha256 of ``"<name>#<i>"``), and a key belongs to the first
replica point clockwise from the key's own hash.  Two properties make
this the right shard function for a plan cache:

* **balance** — with enough vnodes the key space splits near-evenly,
  so no replica's LRU cache or admission queue becomes the hot spot;
* **minimal remapping** — adding or removing one replica only moves
  the keys that land on that replica's vnodes; every other fingerprint
  keeps its owner, so a membership change does not cold-start the
  whole fleet's caches.

Both properties are pinned by hypothesis tests
(``tests/test_fleet.py``), the second one exactly: a key whose owner
changed after a join must now map to the joined replica.

:meth:`HashRing.nodes_for` returns the *failover ladder* — the first
``count`` distinct replicas clockwise — which the router walks when
the primary is down, so retry targets are as stable as the primary
assignment itself.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List


def _point(data: str) -> int:
    """64-bit ring position for ``data`` (sha256 prefix)."""
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring over string node names."""

    def __init__(
        self, nodes: Iterable[str] = (), *, vnodes: int = 128
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: List[str] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------
    def add(self, node: str) -> None:
        """Add ``node``'s vnodes to the ring."""
        if not node or not isinstance(node, str):
            raise ValueError("node must be a non-empty string")
        if node in self._nodes:
            raise ValueError(f"duplicate node {node!r}")
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _point(f"{node}#{i}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node``'s vnodes (exact inverse of :meth:`add`)."""
        if node not in self._nodes:
            raise KeyError(node)
        self._nodes.discard(node)
        kept = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lookup --------------------------------------------------------
    def node_for(self, key: str) -> str:
        """The replica owning ``key``."""
        return self.nodes_for(key, 1)[0]

    def nodes_for(self, key: str, count: int = 1) -> List[str]:
        """The first ``count`` distinct replicas clockwise from ``key``
        — the owner followed by its failover ladder."""
        if not self._nodes:
            raise LookupError("hash ring is empty")
        want = min(max(count, 1), len(self._nodes))
        size = len(self._points)
        start = bisect.bisect(self._points, _point(key)) % size
        out: List[str] = []
        seen: set = set()
        for i in range(size):
            owner = self._owners[(start + i) % size]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == want:
                    break
        return out

    def shares(self, keys: Iterable[str]) -> dict:
        """Fraction of ``keys`` owned per replica (balance check)."""
        counts = {node: 0 for node in self._nodes}
        total = 0
        for key in keys:
            counts[self.node_for(key)] += 1
            total += 1
        if total == 0:
            return {node: 0.0 for node in counts}
        return {node: n / total for node, n in counts.items()}

"""The planner service's wire protocol: requests, responses, fingerprints.

One request asks for a plan (model × cluster × search budget) and gets
exactly one terminal response:

- ``served``   — a complete plan from a full-budget search (or cache)
- ``partial``  — the best-so-far plan of a deadline-cut anytime search
- ``rejected`` — admission control shed the request (``retry_after``
  tells the client when to come back) or the circuit breaker is open
- ``failed``   — the search itself failed; ``error`` says why

Everything round-trips through plain JSON dicts so the HTTP layer and
the on-disk request journal (used by the SIGTERM drain/re-admit cycle)
speak the same records; in process, the router and the daemon pass the
parsed objects.

The *fingerprint* is the plan cache key: a digest over exactly the
fields that determine the resulting plan (model, cluster size, stage
counts, budget, seed, and the churn membership the fleet stamped on
the request).  Deadline and priority are deliberately
excluded — they shape *when* and *whether* a search runs, never what
plan it finds — so an impatient request can be answered from a patient
request's cached plan.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Terminal response statuses (every request ends in exactly one).
STATUS_SERVED = "served"
STATUS_PARTIAL = "partial"
STATUS_REJECTED = "rejected"
STATUS_FAILED = "failed"
TERMINAL_STATUSES = frozenset(
    (STATUS_SERVED, STATUS_PARTIAL, STATUS_REJECTED, STATUS_FAILED)
)

#: Protocol marker so future layout changes stay parseable.
PROTOCOL_VERSION = 1


class ProtocolError(ValueError):
    """A request/response payload is malformed."""


def digest(value) -> str:
    """The first 16 hex digits of the sha256 of canonical JSON."""
    blob = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class PlanRequest:
    """One plan query.

    ``deadline_seconds`` bounds the search wall-clock (anytime: a plan
    is returned either way); ``priority`` orders the admission queue
    (higher first, FIFO within a priority).  The fleet router stamps
    ``membership``, its churn fold of the ``gpus`` cluster
    (``Membership.state``, ``None`` when nominal).
    """

    model: str
    gpus: int = 8
    stage_counts: Optional[Tuple[int, ...]] = None
    iterations: int = 30
    seed: int = 0
    deadline_seconds: Optional[float] = None
    priority: int = 0
    strategy: str = "greedy"
    strategy_kwargs: Optional[dict] = None
    membership: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.model or not isinstance(self.model, str):
            raise ProtocolError("model must be a non-empty string")
        if self.gpus < 1:
            raise ProtocolError("gpus must be >= 1")
        if self.iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ProtocolError("deadline_seconds must be positive")
        if not self.strategy or not isinstance(self.strategy, str):
            raise ProtocolError("strategy must be a non-empty string")
        if self.strategy_kwargs is not None and not isinstance(
            self.strategy_kwargs, dict
        ):
            raise ProtocolError("strategy_kwargs must be an object")
        if self.stage_counts is not None:
            counts = tuple(int(c) for c in self.stage_counts)
            if not counts or any(c < 1 for c in counts):
                raise ProtocolError("stage_counts must be positive ints")
            object.__setattr__(self, "stage_counts", counts)

    def fingerprint(self) -> str:
        """Canonical digest of the plan-determining fields.

        Stage counts are sorted and deduplicated first, so query-order
        quirks don't defeat the cache.  The strategy participates only
        when it isn't the default greedy search (and its kwargs and the
        membership only when non-empty), so every fingerprint minted
        before strategies or churn existed still addresses the same
        cached plan.
        """
        canonical = {
            "model": self.model,
            "gpus": self.gpus,
            "stage_counts": (
                sorted(set(self.stage_counts))
                if self.stage_counts is not None
                else None
            ),
            "iterations": self.iterations,
            "seed": self.seed,
        }
        if self.strategy != "greedy":
            canonical["strategy"] = self.strategy
        if self.strategy_kwargs:
            canonical["strategy_kwargs"] = {
                key: self.strategy_kwargs[key]
                for key in sorted(self.strategy_kwargs)
            }
        if self.membership:
            canonical["membership"] = self.membership
        return digest(canonical)

    def to_json(self) -> dict:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "model": self.model,
            "gpus": self.gpus,
            "stage_counts": (
                list(self.stage_counts)
                if self.stage_counts is not None
                else None
            ),
            "iterations": self.iterations,
            "seed": self.seed,
            "deadline_seconds": self.deadline_seconds,
            "priority": self.priority,
            "strategy": self.strategy,
            "strategy_kwargs": (
                dict(self.strategy_kwargs)
                if self.strategy_kwargs is not None
                else None
            ),
            "membership": self.membership,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlanRequest":
        """Parse a wire or journal payload: value types must pass
        ``repro.lint.artifacts.check_request_fields``, ranges the
        constructor; raises :class:`ProtocolError` otherwise."""
        from ..lint.artifacts import check_request_fields

        problems = check_request_fields(data, "request")
        if problems:
            raise ProtocolError(problems[0].message)
        fields = dict(data)
        version = fields.pop("protocol_version", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version: {version!r}")
        return cls(**fields)


@dataclass
class PlanResponse:
    """The terminal answer to one :class:`PlanRequest`."""

    status: str
    request_id: int
    fingerprint: str
    plan: Optional[dict] = None
    objective: Optional[float] = None
    cached: bool = False
    retry_after: Optional[float] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    failures: list = field(default_factory=list)
    #: Structured admission-lint findings (``Diagnostic.to_json()``
    #: dicts) explaining a rejected-as-invalid request.
    diagnostics: list = field(default_factory=list)
    #: The plan predates the last invalidation: a degraded fleet chose
    #: a stale-but-flagged answer over shedding the request.
    stale: bool = False
    #: This response was fanned out from another request's in-flight
    #: search (same fingerprint, one search, many waiters).
    coalesced: bool = False
    #: Which fleet replica answered (``None`` outside a fleet).
    replica: Optional[str] = None
    #: How many replicas failed before this answer arrived.
    failovers: int = 0
    #: A hedge (backup request past the p99 budget) won the race.
    hedged: bool = False

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATUSES:
            raise ProtocolError(f"unknown status: {self.status!r}")

    @property
    def ok(self) -> bool:
        """Whether the response carries a usable plan."""
        return self.status in (STATUS_SERVED, STATUS_PARTIAL)

    def to_json(self) -> dict:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "status": self.status,
            "request_id": self.request_id,
            "fingerprint": self.fingerprint,
            "plan": self.plan,
            "objective": self.objective,
            "cached": self.cached,
            "retry_after": self.retry_after,
            "error": self.error,
            "elapsed_seconds": self.elapsed_seconds,
            "failures": self.failures,
            "diagnostics": self.diagnostics,
            "stale": self.stale,
            "coalesced": self.coalesced,
            "replica": self.replica,
            "failovers": self.failovers,
            "hedged": self.hedged,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlanResponse":
        if not isinstance(data, dict):
            raise ProtocolError("response must be a JSON object")
        try:
            return cls(
                status=data["status"],
                request_id=int(data["request_id"]),
                fingerprint=data["fingerprint"],
                plan=data.get("plan"),
                objective=data.get("objective"),
                cached=bool(data.get("cached", False)),
                retry_after=data.get("retry_after"),
                error=data.get("error"),
                elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
                failures=list(data.get("failures", [])),
                diagnostics=list(data.get("diagnostics", [])),
                stale=bool(data.get("stale", False)),
                coalesced=bool(data.get("coalesced", False)),
                replica=data.get("replica"),
                failovers=int(data.get("failovers", 0)),
                hedged=bool(data.get("hedged", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(
                f"malformed response: {type(exc).__name__}: {exc}"
            ) from exc

"""Typed diagnostics shared by every analyzer tier.

A :class:`Diagnostic` is one violated invariant: a stable code from the
``ACE***`` taxonomy, a severity, a human message, an optional location
and fix hint.  Analyzers *collect* diagnostics instead of raising on
the first one; callers that want raise-on-first semantics (the legacy
``validate_config`` contract) wrap the first error themselves.

Code taxonomy:

* ``ACE1xx`` — structural configuration invariants (§3.1/§5.1).
* ``ACE2xx`` — feasibility: Eq. 1 memory vs. device capacity,
  primitive legality, request-level lower bounds.
* ``ACE3xx`` — on-disk artifacts: plans, plan-cache entries,
  checkpoints, request journals, telemetry run logs, churn timelines.
  Loaders raise these as an :class:`ArtifactError`.
* ``ACE4xx`` — fleet invariants: the cross-event ``fleet.*`` rules of
  router run logs.
* ``ACE9xx`` — codebase invariants enforced by the Tier-B ``ast`` lint.

Codes are append-only: a shipped code never changes meaning, so tests,
CI filters, and admission clients can match on them; the code of a
removed check is retired, never reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

ERROR = "error"
WARNING = "warning"

_SEVERITY_RANK = {WARNING: 1, ERROR: 2}

#: Stable code -> short title.  The single source of truth for which
#: codes exist; ``Diagnostic`` refuses codes not registered here.
CODES: Dict[str, str] = {
    # -- ACE1xx: structural configuration invariants ------------------
    "ACE101": "stage span does not start where the previous one ended",
    "ACE102": "stage has an empty op span",
    "ACE103": "stage spans do not cover the op graph exactly",
    "ACE110": "stage device count is not a power of two",
    "ACE111": "stage device counts do not sum to the cluster size",
    "ACE120": "op has non-positive tp or dp",
    "ACE121": "op has non-power-of-two tp or dp",
    "ACE122": "op tp * dp does not equal the stage device count",
    "ACE123": "op tp exceeds the cluster size",
    "ACE130": "op has negative tp_dim",
    "ACE131": "op tp_dim indexes beyond its partition options",
    "ACE140": "microbatch size does not divide the global batch",
    "ACE141": "microbatch size not divisible by an op's dp",
    # -- ACE2xx: feasibility ------------------------------------------
    "ACE201": "stage peak memory (Eq. 1) exceeds device capacity",
    "ACE202": "model weight+optimizer state cannot fit the cluster",
    "ACE203": "requested cluster size is not constructible",
    "ACE204": "requested model is not in the registry",
    # ACE210/ACE211 are retired: a primitive registers with its
    # applier, so nothing emits them.
    "ACE210": "unknown resource-adjustment primitive",
    "ACE211": "primitive has no registered applier",
    "ACE212": "unknown search strategy",
    "ACE213": "unknown or mistyped search-strategy or budget keyword",
    "ACE220": "surviving devices exceed the usable power-of-two snap",
    "ACE221": "no devices survive the fault plan",
    # -- ACE3xx: on-disk artifacts ------------------------------------
    "ACE301": "artifact is not readable JSON",
    "ACE302": "plan format_version is unsupported",
    "ACE303": "plan JSON violates the serialization schema",
    "ACE310": "plan-cache entry violates the cache schema",
    "ACE311": "plan-cache filename is not a request fingerprint",
    "ACE320": "checkpoint is corrupt or not readable JSON",
    "ACE321": "checkpoint format_version is unsupported",
    "ACE322": "checkpoint JSON violates the checkpoint schema",
    "ACE323": "checkpoint cross-field state is inconsistent",
    "ACE324": "checkpoint ends in a torn record, which was dropped",
    "ACE330": "journaled request violates the PlanRequest schema",
    "ACE331": "journal filename does not match the request fingerprint",
    "ACE340": "run log line is not readable JSON",
    "ACE341": "run log event violates the event schema",
    "ACE342": "run log event has an unknown kind",
    "ACE343": "run log event name is not in the telemetry registry",
    "ACE350": "churn timeline is not readable or violates the schema",
    "ACE351": "churn timeline format_version is unsupported",
    "ACE352": "churn timeline events are not time-ordered",
    "ACE353": "churn timeline event has an invalid kind or payload",
    "ACE354": "churn timeline preempts every node",
    # -- ACE4xx: fleet run-log invariants -----------------------------
    "ACE410": "routed fleet request has no terminal completion event",
    "ACE411": "fleet event references an undeclared replica",
    # -- ACE9xx: codebase invariants ----------------------------------
    "ACE901": "nondeterministic call in a deterministic module",
    "ACE902": "telemetry emit with a non-literal event name",
    "ACE903": "telemetry emit with an unregistered event name",
    "ACE904": "dataclass defines to_json without a matching from_json",
    "ACE905": "bare except clause",
    # -- ACE92x: Tier-C determinism taint -----------------------------
    "ACE920": "nondeterministic value reaches a serialized JSON artifact",
    "ACE921": "nondeterministic value reaches a digest or fingerprint",
    "ACE922": "nondeterministic value reaches a telemetry event payload",
    # -- ACE93x: Tier-C concurrency discipline ------------------------
    "ACE930": "off-lock write to a lock-protected attribute from "
              "thread-reachable code",
    "ACE931": "blocking call while holding a lock",
    "ACE932": "fork or worker-pool start after a non-daemon thread "
              "was started",
    "ACE933": "non-daemon thread started but never joined",
    "ACE934": "worker pool or executor without guaranteed shutdown",
    "ACE935": "unsynchronized read-modify-write on a shared attribute",
    "ACE936": "module global mutated without synchronization",
    # -- ACE94x: Tier-C resource lifecycle ----------------------------
    "ACE940": "file opened outside with and not closed on every path",
    "ACE941": "socket opened outside with and not closed on every path",
    "ACE942": "temporary file or fd not cleaned up on every path",
}


@dataclass(frozen=True)
class Diagnostic:
    """One violated invariant, with a stable machine-matchable code."""

    code: str
    message: str
    severity: str = ERROR
    location: str = ""
    hint: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def title(self) -> str:
        return CODES[self.code]

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.location:
            data["location"] = self.location
        if self.hint:
            data["hint"] = self.hint
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Diagnostic":
        return cls(
            code=str(data["code"]),
            message=str(data["message"]),
            severity=str(data.get("severity", ERROR)),
            location=str(data.get("location", "")),
            hint=str(data.get("hint", "")),
            attrs=dict(data.get("attrs", {})),
        )

    def render(self) -> str:
        """One-line human rendering (``repro-lint --format text``)."""
        parts = [f"{self.code}", self.severity]
        if self.location:
            parts.append(self.location)
        line = " ".join(parts) + f": {self.message}"
        if self.hint:
            line += f"  [hint: {self.hint}]"
        return line


def sort_key(diag: Diagnostic):
    """Total order over diagnostics: (path, line, col, code, message).

    Analyzer scheduling must never leak into report ordering —
    ``repro-lint -o report.json`` over the same inputs is byte-identical
    no matter which tier or analyzer produced each finding first.
    Location-less diagnostics (config/request analysis) sort before any
    located one on the empty path, then by code.
    """
    location = diag.location
    path, line, col = location, -1, -1
    head, sep, tail = path.rpartition(":")
    if sep and tail.isdigit():
        path, last = head, int(tail)
        head, sep, tail = path.rpartition(":")
        if sep and tail.isdigit():
            path, line, col = head, int(tail), last
        else:
            line = last
    return (path, line, col, diag.code, diag.message, diag.severity)


def sorted_diagnostics(
    diagnostics: Iterable[Diagnostic],
) -> List[Diagnostic]:
    """``diagnostics`` under the total :func:`sort_key` order."""
    return sorted(diagnostics, key=sort_key)


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """Highest severity present, or ``None`` for a clean result."""
    best: Optional[str] = None
    for diag in diagnostics:
        if best is None or _SEVERITY_RANK[diag.severity] > _SEVERITY_RANK[best]:
            best = diag.severity
    return best


def errors_only(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Just the error-severity diagnostics."""
    return [d for d in diagnostics if d.severity == ERROR]


class ArtifactError(ValueError):
    """An artifact failed its family's schema checker; ``diagnostics``
    holds the errors, with the codes ``repro-lint`` reports."""

    def __init__(self, message: str, diagnostics: Sequence = ()) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics)


def require_valid(
    diagnostics: Iterable[Diagnostic], error: type = ArtifactError
) -> None:
    """Raise ``error`` (an :class:`ArtifactError`) carrying every
    error-severity diagnostic; the message leads with the first."""
    errors = errors_only(diagnostics)
    if errors:
        first = errors[0]
        where = f"{first.location}: " if first.location else ""
        raise error(f"{where}{first.code} {first.message}", errors)

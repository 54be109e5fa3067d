"""One schema checker per on-disk artifact family, shared with the loaders.

Each family has one ``check_*(data, location) -> List[Diagnostic]``
over parsed JSON, whose keys are declared once in a :class:`Field`
table (required or optional, plus a :class:`Check` on the value):
plans (``ACE30x``), plan-cache entries (``ACE31x``), search
checkpoints (``ACE32x``), request journals (``ACE33x``, whose payload
schema is ``PlanRequest.from_json``, shared with the HTTP front),
run-log lines (``ACE34x``) and churn timelines (``ACE35x``).

Every loader runs its family's checker before it builds anything and
raises :class:`~repro.lint.diagnostics.ArtifactError` with the errors,
so an artifact loads exactly when it lints clean.  Each ``lint_*_file``
is the same checker plus the rules that are lint-only by design:
unregistered event names (ACE343), the ``fleet.*`` cross-event
invariants (ACE41x) and the total-preemption warning (ACE354).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from ..telemetry.bus import (
    COUNTER,
    EVENT,
    LEVELS_BY_NAME,
    SPAN_BEGIN,
    SPAN_END,
)
from .diagnostics import ArtifactError, Diagnostic, errors_only, require_valid

#: Fingerprints are the first 16 hex digits of a sha256.
_FINGERPRINT_HEX = 16
_HEX = "0123456789abcdef"


class Check(NamedTuple):
    """A predicate on one JSON value and the phrase naming what it accepts."""

    ok: Callable[[object], bool]
    expect: str


class Field(NamedTuple):
    """One schema key: whether it must be present, what it must hold."""

    required: bool
    check: Check
    #: Code for a bad value, when it differs from the table's code.
    code: Optional[str] = None


def _is(types, low=None) -> Callable[[object], bool]:
    """Instances of ``types`` (bools only for ``bool``), at least ``low``."""

    def ok(value) -> bool:
        return (
            isinstance(value, types)
            and isinstance(value, bool) == (types is bool)
            and (low is None or value >= low)
        )

    return ok


def _list_of(item_ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(item_ok, value))


def _nullable(check: Check) -> Check:
    return Check(lambda v: v is None or check.ok(v), f"null or {check.expect}")


ANY = Check(lambda value: True, "anything")
INT = Check(_is(int), "an int")
POSITIVE_INT = Check(_is(int, 1), "a positive int")
NON_NEGATIVE_INT = Check(_is(int, 0), "a non-negative int")
NUMBER = Check(_is((int, float)), "a number")
NON_NEGATIVE = Check(_is((int, float), 0), "a non-negative number")
STRING = Check(_is(str), "a string")
NAME = Check(lambda v: isinstance(v, str) and v != "", "a non-empty string")
BOOLEAN = Check(_is(bool), "a boolean")
OBJECT = Check(_is(dict), "a JSON object")
LIST = Check(_is(list), "a list")
#: ``format_version`` is declared in every table but checked by
#: :func:`_check_version`, which owns its family's version code.
_VERSION = Field(False, ANY)


def _diag(code: str, message: str, location: str, **kwargs) -> Diagnostic:
    return Diagnostic(code, message, location=location, **kwargs)


def _check_fields(
    data, fields: Dict[str, Field], code: str, what: str, location: str
) -> List[Diagnostic]:
    """Unknown and missing keys, then each present key's check."""
    if not isinstance(data, dict):
        return [_diag(code, f"{what} must be a JSON object", location)]
    out: List[Diagnostic] = []
    unknown = sorted(set(data) - set(fields))
    if unknown:
        out.append(_diag(code, f"unknown {what} field(s) {unknown}", location))
    missing = [k for k, f in fields.items() if f.required and k not in data]
    if missing:
        out.append(_diag(code, f"missing {what} field(s) {missing}", location))
    for key, spec in fields.items():
        if key in data and not spec.check.ok(data[key]):
            got = repr(data[key])
            got = got if len(got) <= 60 else got[:57] + "..."
            out.append(_diag(
                spec.code or code,
                f"{what} field {key!r} must be {spec.check.expect}, got {got}",
                location,
            ))
    return out


def _check_version(
    data: dict, code: str, what: str, location: str, expected: int = 1
) -> List[Diagnostic]:
    version = data.get("format_version")
    if INT.ok(version) and version == expected:
        return []
    message = f"unsupported {what} format version {version!r}"
    return [_diag(code, f"{message} (expected {expected})", location)]


def _is_fingerprint(text: str) -> bool:
    return len(text) == _FINGERPRINT_HEX and set(text) <= set(_HEX)


def _stem(location: str, suffix: str) -> str:
    name = Path(location).name
    return name[: -len(suffix)] if name.endswith(suffix) else Path(name).stem


def _read(
    path: Path, code: str, parse: Callable[[str], object] = json.loads
) -> Tuple[object, List[Diagnostic]]:
    """``(parsed text, [])``, or ``(None, [diagnostic])`` if unreadable."""
    try:
        return parse(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:  # incl. JSON and Unicode errors
        return None, [_diag(
            code,
            f"cannot read {path}: {type(exc).__name__}: {exc}",
            str(path),
        )]


def load_artifact(
    path: Union[str, Path],
    code: str,
    check: Optional[Callable[[object, str], List[Diagnostic]]] = None,
    error: type = ArtifactError,
    parse: Callable[[str], object] = json.loads,
) -> object:
    """``parse`` the text at ``path`` (``code`` if unreadable) and raise
    ``error`` unless ``check``, located at the path, finds no error."""
    data, diagnostics = _read(Path(path), code, parse)
    require_valid(diagnostics, error)
    if check is not None:
        require_valid(check(data, str(path)), error)
    return data


def _file_linter(
    check, code: str, parse: Callable[[str], object] = json.loads
) -> Callable[[Union[str, Path]], list]:
    """A ``lint_*_file`` that is exactly ``check`` over the parsed file."""

    def lint(path: Union[str, Path]) -> List[Diagnostic]:
        data, out = _read(Path(path), code, parse)
        return out or check(data, str(path))

    return lint


# ----------------------------------------------------------------------
# serialized plans (ACE30x)
# ----------------------------------------------------------------------
#: Per-op arrays: one entry per op of the stage's ``[start, end)`` span.
_OP_ARRAYS = ("tp", "dp", "tp_dim", "recompute")
_INTS = Field(True, Check(_list_of(INT.ok), "a list of ints"))
_BOOLS = Field(True, Check(_list_of(BOOLEAN.ok), "a list of booleans"))
_PLAN_FIELDS = {
    "format_version": _VERSION,
    "microbatch_size": Field(True, POSITIVE_INT),
    "stages": Field(True, Check(
        lambda v: LIST.ok(v) and bool(v), "a non-empty list"
    )),
}
_STAGE_FIELDS = {
    "start": Field(True, INT),
    "end": Field(True, INT),
    "num_devices": Field(True, INT),
    "tp": _INTS,
    "dp": _INTS,
    "tp_dim": _INTS,
    "recompute": _BOOLS,
}


def check_plan(data, location: str) -> List[Diagnostic]:
    """Schema of one serialized plan (``config_to_dict``), ``ACE30x``."""
    out = _check_fields(data, _PLAN_FIELDS, "ACE303", "plan", location)
    if not isinstance(data, dict):
        return out
    out = _check_version(data, "ACE302", "plan", location) + out
    stages = data.get("stages")
    for i, stage in enumerate(stages if LIST.ok(stages) else ()):
        loc = f"{location} stage {i}"
        out.extend(_check_fields(
            stage, _STAGE_FIELDS, "ACE303", f"stage {i}", loc
        ))
        if not isinstance(stage, dict) or not (
            INT.ok(stage.get("start")) and INT.ok(stage.get("end"))
        ):
            continue
        span = stage["end"] - stage["start"]
        for key in _OP_ARRAYS:
            value = stage.get(key)
            if LIST.ok(value) and len(value) != span:
                out.append(_diag(
                    "ACE303",
                    f"stage {i} field {key!r} has {len(value)} entries "
                    f"for a {span}-op span",
                    loc,
                ))
    return out


lint_plan_file = _file_linter(check_plan, "ACE301")


# ----------------------------------------------------------------------
# plan-cache entries (ACE31x)
# ----------------------------------------------------------------------
_CACHE_FIELDS = {
    "plan": Field(True, ANY),
    "objective": Field(True, NUMBER),
    "model": Field(True, STRING),
    "gpus": Field(True, POSITIVE_INT),
    # Optional, so entries minted before the field existed stay valid.
    "strategy": Field(False, STRING),
}


def check_plan_cache_entry(data, location: str) -> List[Diagnostic]:
    """Schema of one cache entry, ``ACE31x``; ``location`` is its path,
    whose file name must be ``<fingerprint>.plan.json`` (ACE311)."""
    out = [] if _is_fingerprint(_stem(location, ".plan.json")) else [_diag(
        "ACE311",
        f"cache entry filename {Path(location).name!r} is not "
        f"<{_FINGERPRINT_HEX}-hex-fingerprint>.plan.json",
        location,
        hint="cache keys are PlanRequest.fingerprint() digests",
    )]
    out.extend(_check_fields(
        data, _CACHE_FIELDS, "ACE310", "cache entry", location
    ))
    if isinstance(data, dict) and "plan" in data:
        out.extend(check_plan(data["plan"], f"{location} plan"))
    return out


lint_plan_cache_file = _file_linter(check_plan_cache_entry, "ACE301")


# ----------------------------------------------------------------------
# search checkpoints (ACE32x)
# ----------------------------------------------------------------------
#: Where :func:`fold_checkpoint` notes the length of a torn final record
#: it dropped; :func:`check_checkpoint` warns ``ACE324`` on it.
TORN_RECORD = "torn_record"
_DECODER = json.JSONDecoder()


def fold_record(data: dict, record) -> None:
    """Apply one checkpoint record to ``data``: ``{"completed": {count:
    result}}`` supersedes the count's result and drops its failure,
    ``{"failure": {...}}`` supersedes its failure.  ``SearchCheckpoint``
    records through this too, so a load folds what memory held."""
    try:
        (kind, value), = record.items()
        if kind == "completed":
            (key, result), = value.items()
            count = int(key)
            data.setdefault("completed", {})[key] = result
        elif kind == "failure":
            count = value["num_stages"]
        else:
            raise ValueError(f"unknown record kind {kind!r}")
        kept = [
            f for f in data.get("failures", []) if f.get("num_stages") != count
        ]
        data["failures"] = kept + [value] if kind == "failure" else kept
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint record: {exc!r}") from exc


def fold_checkpoint(text: str) -> object:
    """The document a checkpoint file describes: its first JSON value
    (what ``SearchCheckpoint.save`` wrote), then each later line as one
    record, in order.  A file with no records is plain JSON.  A final
    line that is not JSON is a torn append, dropped and noted under
    :data:`TORN_RECORD`; any other bad line raises ``ValueError``."""
    data, end = _DECODER.raw_decode(text, len(text) - len(text.lstrip()))
    first, *lines = text[end:].split("\n")
    if first.strip() or any(lines) and not OBJECT.ok(data):
        raise ValueError("extra data after the checkpoint document")
    tail = lines.pop() if lines else ""
    for line in filter(None, lines):
        fold_record(data, json.loads(line))
    if tail:
        try:
            record = json.loads(tail)
        except ValueError:
            data[TORN_RECORD] = len(tail)
            return data
        fold_record(data, record)
    return data


_CHECKPOINT_FIELDS = {
    "format_version": _VERSION,
    "stage_counts": Field(True, Check(
        _list_of(POSITIVE_INT.ok), "a list of positive ints"
    )),
    "budget_kwargs": Field(True, OBJECT),
    "context": Field(False, OBJECT),
    "completed": Field(False, OBJECT),
    "failures": Field(False, LIST),
    TORN_RECORD: Field(False, NON_NEGATIVE_INT),
}
#: One completed stage count (``checkpoint._result_to_dict``).
_RESULT_FIELDS = {
    "best_config": Field(True, ANY),
    "best_objective": Field(True, NUMBER),
    "top_configs": Field(True, LIST),
    "num_estimates": Field(True, NON_NEGATIVE_INT),
    "elapsed_seconds": Field(True, NON_NEGATIVE),
    "converged": Field(True, BOOLEAN),
}
_TOP_CONFIG_FIELDS = {
    "objective": Field(True, NUMBER),
    "config": Field(True, ANY),
}
_FAILURE_FIELDS = {
    "num_stages": Field(True, POSITIVE_INT),
    "error": Field(True, STRING),
    "attempts": Field(True, NON_NEGATIVE_INT),
}


def check_checkpoint(data, location: str) -> List[Diagnostic]:
    """Schema of one ``SearchCheckpoint`` file, ``ACE32x``."""
    if not isinstance(data, dict):
        return [_diag("ACE320", "checkpoint must be a JSON object", location)]
    out = _check_version(data, "ACE321", "checkpoint", location)
    out.extend(_check_fields(
        data, _CHECKPOINT_FIELDS, "ACE322", "checkpoint", location
    ))
    completed = data.get("completed", {})
    completed_counts: List[int] = []
    for key, payload in (completed.items() if OBJECT.ok(completed) else ()):
        loc = f"{location} completed[{key}]"
        try:
            count = int(key)
        except ValueError:
            out.append(_diag(
                "ACE322", f"completed key {key!r} is not a stage count", loc
            ))
            continue
        completed_counts.append(count)
        out.extend(_check_fields(
            payload, _RESULT_FIELDS, "ACE322", f"completed[{key}]", loc
        ))
        if not isinstance(payload, dict):
            continue
        best = payload.get("best_config")
        if "best_config" in payload:
            out.extend(check_plan(best, f"{loc}.best_config"))
        stages = best.get("stages") if isinstance(best, dict) else None
        if LIST.ok(stages) and len(stages) != count:
            out.append(_diag(
                "ACE323",
                f"completed[{key}] best_config has {len(stages)} "
                f"stages, expected {count}",
                loc,
            ))
        top = payload.get("top_configs")
        for j, entry in enumerate(top if LIST.ok(top) else ()):
            what = f"completed[{key}].top_configs[{j}]"
            out.extend(_check_fields(
                entry, _TOP_CONFIG_FIELDS, "ACE322", what, loc
            ))
            if isinstance(entry, dict) and "config" in entry:
                plan_location = f"{location} {what}.config"
                out.extend(check_plan(entry["config"], plan_location))
    failures = data.get("failures", [])
    failed_counts: List[int] = []
    for i, failure in enumerate(failures if LIST.ok(failures) else ()):
        problems = _check_fields(
            failure, _FAILURE_FIELDS, "ACE322", f"failures[{i}]", location
        )
        out.extend(problems)
        if not problems:
            failed_counts.append(failure["num_stages"])
    stage_counts = data.get("stage_counts")
    if _CHECKPOINT_FIELDS["stage_counts"].check.ok(stage_counts):
        stray = sorted(set(completed_counts) - set(stage_counts))
        if stray:
            out.append(_diag(
                "ACE323",
                f"completed stage counts {stray} are absent from "
                f"stage_counts {sorted(stage_counts)}",
                location,
            ))
    # record_run removes a count's failure record on success, so a
    # count in both sets means the file was hand-edited or torn.
    both = sorted(set(completed_counts) & set(failed_counts))
    if both:
        out.append(_diag(
            "ACE323",
            f"stage counts {both} appear as both completed and failed",
            location,
        ))
    if TORN_RECORD in data:
        out.append(_diag(
            "ACE324",
            f"dropped a torn final record ({data[TORN_RECORD]} characters)",
            location,
            severity="warning",
            hint="a resume compacts the file before it appends again",
        ))
    return out


lint_checkpoint_file = _file_linter(
    check_checkpoint, "ACE320", fold_checkpoint
)


# ----------------------------------------------------------------------
# journaled requests (ACE33x)
# ----------------------------------------------------------------------
def _is_membership(value) -> bool:
    """A ``Membership.state``: non-negative ``lost`` devices,
    ``[device, factor >= 1]`` ``stragglers`` and ``links`` factors in
    (0, 1] by scope."""
    from ..elastic.timeline import LINK_SCOPES

    def straggler(entry) -> bool:
        return (
            LIST.ok(entry) and len(entry) == 2
            and NON_NEGATIVE_INT.ok(entry[0])
            and _is((int, float), 1)(entry[1])
        )

    def link(scope, factor) -> bool:
        return scope in LINK_SCOPES and NUMBER.ok(factor) and 0 < factor <= 1

    return (
        OBJECT.ok(value) and set(value) == {"lost", "stragglers", "links"}
        and _list_of(NON_NEGATIVE_INT.ok)(value["lost"])
        and _list_of(straggler)(value["stragglers"])
        and OBJECT.ok(value["links"])
        and all(link(*item) for item in value["links"].items())
    )


#: Value types of one ``PlanRequest`` payload; the ranges are the
#: request's own invariants.
_REQUEST_FIELDS = {
    "protocol_version": Field(False, ANY),
    "model": Field(True, STRING),
    "gpus": Field(False, INT),
    "stage_counts": Field(False, _nullable(_INTS.check)),
    "iterations": Field(False, INT),
    "seed": Field(False, INT),
    "deadline_seconds": Field(False, _nullable(NUMBER)),
    "priority": Field(False, INT),
    "strategy": Field(False, STRING),
    "strategy_kwargs": Field(False, _nullable(OBJECT)),
    "membership": Field(False, _nullable(Check(
        _is_membership,
        "a membership state {lost: [device >= 0], stragglers: "
        "[[device >= 0, factor >= 1]], links: {scope: factor in (0, 1]}}",
    ))),
}


def check_request_fields(data, location: str) -> List[Diagnostic]:
    """Keys and value types of one request payload (``ACE330``), the
    schema ``PlanRequest.from_json`` enforces on the wire and journal."""
    return _check_fields(data, _REQUEST_FIELDS, "ACE330", "request", location)


def check_journal(data, location: str) -> List[Diagnostic]:
    """Schema of one journaled request, ``ACE33x``: a valid
    ``PlanRequest`` payload (ACE330) whose ``location``, when it names
    a ``<fingerprint>.request.json`` file, matches it (ACE331)."""
    from ..service.protocol import PlanRequest, ProtocolError

    try:
        request = PlanRequest.from_json(data)
    except ProtocolError as exc:
        hint = "see repro.service.protocol.PlanRequest for the schema"
        return [_diag("ACE330", str(exc), location, hint=hint)]
    stem = _stem(location, ".request.json")
    expected = request.fingerprint()
    if stem == expected or not location.endswith(".request.json"):
        return []
    return [_diag(
        "ACE331",
        f"journal filename fingerprint {stem!r} does not match the "
        f"request's fingerprint {expected!r}",
        location,
        hint="the journal was renamed or its request edited",
    )]


lint_journal_file = _file_linter(check_journal, "ACE301")


# ----------------------------------------------------------------------
# telemetry run logs (ACE34x)
# ----------------------------------------------------------------------
_EVENT_KINDS = (EVENT, SPAN_BEGIN, SPAN_END, COUNTER)
#: One run-log line (``telemetry.Event.to_json``).
_RUN_LOG_FIELDS = {
    "name": Field(True, NAME),
    "kind": Field(True, Check(
        lambda v: STRING.ok(v) and v in _EVENT_KINDS,
        f"one of {sorted(_EVENT_KINDS)}",
    ), code="ACE342"),
    "ts": Field(True, NON_NEGATIVE),
    "pid": Field(True, INT),
    "source": Field(True, STRING),
    "level": Field(True, Check(
        lambda v: INT.ok(v) or (STRING.ok(v) and v in LEVELS_BY_NAME),
        f"an int or one of {sorted(LEVELS_BY_NAME)}",
    )),
    "attrs": Field(True, OBJECT),
}


def check_run_log_event(data, location: str) -> List[Diagnostic]:
    """Schema of one parsed run-log line, ``ACE341``/``ACE342``."""
    return _check_fields(data, _RUN_LOG_FIELDS, "ACE341", "event", location)


def parse_run_log_line(
    line: str, location: str
) -> Tuple[object, List[Diagnostic]]:
    """``(event, diagnostics)`` for one run-log line: an unreadable line
    is ``ACE340``, a parsed one gets :func:`check_run_log_event`."""
    if not line.strip():
        return None, [_diag("ACE340", "blank line in run log", location)]
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, [_diag("ACE340", f"invalid JSON: {exc}", location)]
    return data, check_run_log_event(data, location)


def lint_run_log_file(path: Union[str, Path]) -> List[Diagnostic]:
    """The run-log checker over every line, plus two lint-only rules:
    every event name must come from :mod:`repro.telemetry.events`
    (ACE343), and a router log must keep the ``fleet.*`` cross-event
    invariants (ACE41x)."""
    from ..telemetry import events as registry

    path = Path(path)
    lines, out = _read(path, "ACE340", str.splitlines)
    if out:
        return out
    parsed: List[Tuple[int, str, dict]] = []
    for lineno, line in enumerate(lines, start=1):
        loc = f"{path}:{lineno}"
        data, diagnostics = parse_run_log_line(line, loc)
        out.extend(diagnostics)
        name = data.get("name") if isinstance(data, dict) else None
        if not NAME.ok(name):
            continue
        if not registry.is_registered(name):
            out.append(_diag(
                "ACE343",
                f"event name {name!r} is not in the telemetry registry",
                loc,
                hint="register it in repro/telemetry/events.py",
            ))
        if isinstance(data.get("attrs"), dict):
            parsed.append((lineno, name, data["attrs"]))
    out.extend(_lint_fleet_events(parsed, path))
    return out


def _lint_fleet_events(
    parsed: List[Tuple[int, str, dict]], path: Path
) -> List[Diagnostic]:
    """Cross-event ``fleet.*`` invariants of a router run log (ACE41x).

    * every ``fleet.request.routed`` fingerprint must reach a
      ``fleet.request.completed`` — a routed request with no terminal
      event is exactly the "lost request" the fleet promises never to
      produce (ACE410);
    * every fleet event naming a replica must name one declared by
      ``fleet.start`` — an undeclared name means two runs' logs were
      interleaved or an event was hand-edited (ACE411).
    """
    out: List[Diagnostic] = []
    declared: set = set()
    saw_start = False
    routed: dict = {}
    for lineno, name, attrs in parsed:
        if not name.startswith("fleet."):
            continue
        if name == "fleet.start":
            saw_start = True
            replicas = attrs.get("replicas")
            declared.update(
                r for r in (replicas if LIST.ok(replicas) else ())
                if isinstance(r, str)
            )
        fingerprint = attrs.get("fingerprint")
        if isinstance(fingerprint, str):
            pending = routed.setdefault(fingerprint, [])
            if name == "fleet.request.routed":
                pending.append(lineno)
            elif name == "fleet.request.completed" and pending:
                pending.pop(0)
        replica = attrs.get("replica")
        if saw_start and isinstance(replica, str) and replica not in declared:
            out.append(_diag(
                "ACE411",
                f"{name} references replica {replica!r}, which no "
                f"fleet.start declared",
                f"{path}:{lineno}",
            ))
    for fingerprint, pending in sorted(routed.items()):
        for lineno in pending:
            out.append(_diag(
                "ACE410",
                f"request {fingerprint} was routed but never reached a "
                f"fleet.request.completed event",
                f"{path}:{lineno}",
                hint="a lost request: the router must always answer",
            ))
    return out


# ----------------------------------------------------------------------
# churn timelines (ACE35x)
# ----------------------------------------------------------------------
_CHURN_FIELDS = {
    "format_version": _VERSION,
    "seed": Field(False, INT),
    "events": Field(True, LIST),
    "num_nodes": Field(False, _nullable(POSITIVE_INT)),
}
#: Value types of one event; which payload each kind needs, and the
#: payload ranges, are ``ChurnEvent``'s own invariants.
_CHURN_EVENT_FIELDS = {
    "time": Field(True, NUMBER),
    "kind": Field(True, STRING),
    "node_id": Field(False, INT),
    "device_id": Field(False, INT),
    "factor": Field(False, NUMBER),
    "scope": Field(False, STRING),
}


def check_churn_event(
    data, location: str, what: str = "churn event"
) -> List[Diagnostic]:
    """Schema of one churn event (``ChurnEvent.to_dict``), ``ACE353``."""
    from ..elastic.timeline import ChurnEvent

    out = _check_fields(data, _CHURN_EVENT_FIELDS, "ACE353", what, location)
    if not out:
        try:
            ChurnEvent(**data)
        except ValueError as exc:
            out.append(_diag("ACE353", f"{what} is invalid: {exc}", location))
    return out


def check_churn_timeline(data, location: str) -> List[Diagnostic]:
    """Schema of one churn timeline (``ChurnTimeline.to_dict``), ``ACE35x``."""
    from ..elastic.timeline import CHURN_FORMAT_VERSION

    what = "churn timeline"
    out = _check_fields(data, _CHURN_FIELDS, "ACE350", what, location)
    if not isinstance(data, dict):
        return out
    version = CHURN_FORMAT_VERSION
    out = _check_version(data, "ACE351", what, location, version) + out
    events = data.get("events")
    times = []
    for i, raw in enumerate(events if LIST.ok(events) else ()):
        problems = check_churn_event(raw, location, f"event #{i}")
        out.extend(problems)
        if not problems:
            times.append(raw["time"])
    if any(b < a for a, b in zip(times, times[1:])):
        out.append(_diag(
            "ACE352",
            "churn timeline events are not sorted by time",
            location,
            hint="sort events by their 'time' field",
        ))
    return out


def lint_churn_timeline_file(path: Union[str, Path]) -> List[Diagnostic]:
    """The churn-timeline checker, plus the lint-only warning (ACE354)
    when some prefix of a valid timeline preempts every node: a run
    replaying it halts there until a join arrives."""
    data, out = _read(Path(path), "ACE350")
    out = out or check_churn_timeline(data, str(path))
    if errors_only(out):
        return out
    from ..cluster.topology import ClusterSpec
    from ..elastic.timeline import ChurnEvent
    from ..faults.plan import Membership

    # With a recorded cluster size, count nodes exactly; otherwise fall
    # back to the nodes the timeline mentions (a timeline can't name
    # the nodes it never touches).  Only the fold's preempted nodes are
    # read, and no cluster shape changes those.
    num_nodes = data.get("num_nodes")
    nodes_seen = {e["node_id"] for e in data["events"] if "node_id" in e}
    membership = Membership(ClusterSpec(num_nodes=1, gpus_per_node=1))
    preempted = membership.preempted
    for event in data["events"]:
        membership.apply(ChurnEvent(**event))
        if (
            len(preempted) >= num_nodes
            if num_nodes is not None
            else bool(nodes_seen) and preempted >= nodes_seen
        ):
            out.append(_diag(
                "ACE354",
                f"at t={event['time']:g} every node the timeline "
                f"mentions is preempted; a replay halts there",
                str(path),
                severity="warning",
                hint="add a node_join or keep one node alive",
            ))
            break
    return out


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
_BY_SUFFIX = (
    (".churn.json", lint_churn_timeline_file),
    (".request.json", lint_journal_file),
    (".ckpt.json", lint_checkpoint_file),
    (".jsonl", lint_run_log_file),
)


def lint_artifact_path(path: Union[str, Path]) -> List[Diagnostic]:
    """Lint one artifact file, dispatching on its name/shape."""
    path = Path(path)
    name = path.name
    for suffix, lint in _BY_SUFFIX:
        if name.endswith(suffix):
            return lint(path)
    if name.endswith(".plan.json") and _is_fingerprint(
        name[: -len(".plan.json")]
    ):
        return lint_plan_cache_file(path)
    data, out = _read(path, "ACE301", fold_checkpoint)
    if out:
        return out
    if isinstance(data, dict):
        keys = set(data)
        if {"events", "seed"} <= keys:
            return lint_churn_timeline_file(path)
        if {"plan", "objective"} <= keys:
            return lint_plan_cache_file(path)
        if "stage_counts" in keys and keys & {"completed", "budget_kwargs"}:
            return lint_checkpoint_file(path)
        if "protocol_version" in keys and "model" in keys:
            return lint_journal_file(path)
        if "stages" in keys or "microbatch_size" in keys:
            return check_plan(data, str(path))
    return [_diag(
        "ACE301",
        f"unrecognized artifact shape in {name}",
        str(path),
        severity="warning",
        hint="expected a plan, cache entry (*.plan.json), checkpoint "
        "(*.ckpt.json), request journal (*.request.json), or run log "
        "(*.jsonl)",
    )]

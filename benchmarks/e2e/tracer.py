"""Self-time call tracer that instruments a program from the outside.

The end-to-end benchmark attributes a plan request's time to the
program's layers without editing the program.  :meth:`Tracer.patch`
replaces a function or method by a timing wrapper, *by identity*: the
defining attribute and every attribute of every ``repro.*`` module that
*is* the original function object are replaced, so copies bound with
``from x import f`` are caught along with the definition.

Each thread keeps its own span stack, so a layer's *self time* (its
calls' duration minus the part its wrapped callees cover) stays exact
while the daemon's worker and HTTP threads interleave.  Hot leaves are
aggregated only (calls, self and total seconds); layers patched with
``span=True`` also keep one record per call, tagged with a request id,
for the ``*.spans.jsonl`` files.  A patch target that no longer exists
is recorded in :attr:`Tracer.missing`, so its metrics read "missing"
rather than 0.

Every process writes its own :meth:`snapshot` with :meth:`dump`, and
:func:`merge` folds the snapshots of a run together.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: Clock shared by every process of a run: ``time.monotonic`` reads
#: CLOCK_MONOTONIC on Linux, so span times from the benchmark, its
#: children and the daemon line up.
clock = time.monotonic


class _ThreadState:
    """Per-thread accumulators; merged only by :meth:`Tracer.snapshot`."""

    __slots__ = ("stack", "layers", "counts", "samples", "rids")

    def __init__(self) -> None:
        #: Open calls, innermost last: ``[child_seconds, span_id]``.
        self.stack: List[list] = []
        #: layer -> ``[calls, self_s, total_s]``.
        self.layers: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, list] = {}
        #: Request ids of the open spans that set one.
        self.rids: List[str] = []


class Tracer:
    """Wraps callables of the ``prefix`` package and accounts their time."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        #: Request id for spans that carry none of their own (the
        #: benchmark's repeat index); inherited by forked workers.
        self.request_id: Optional[str] = None
        #: Layers whose patch target could not be found.
        self.missing: List[str] = []
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        """Forget every measurement (a forked child starts clean)."""
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self.spans: List[dict] = []
        #: Callables returning ``{count_name: value}`` folded into the
        #: counts at snapshot time (e.g. live counter groups).
        self.gauges: List[Callable[[], Dict[str, float]]] = []
        #: Open enqueue times keyed by ``id(item)`` (see :meth:`stamp`).
        self.stamps: Dict[int, float] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        span: bool = False,
        rid: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` accounted to ``layer``.

        ``rid(args)`` names the request a span serves; nested spans
        inherit it.  ``after(args, result)`` runs inside the timed call
        once ``fn`` returned; a dict it returns is added to the span.
        """
        state_of = self._state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0, None]
            own_rid = None
            if span:
                frame[1] = next(ids)
                if rid is not None:
                    own_rid = rid(args)
                    state.rids.append(own_rid)
            stack.append(frame)
            start = clock()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    extra = after(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                record = state.layers.get(layer)
                if record is None:
                    record = state.layers[layer] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed - frame[0]
                record[2] += elapsed
                if span:
                    if own_rid is not None:
                        state.rids.pop()
                    self._record_span(
                        layer, frame, stack, state, own_rid,
                        start, end, extra,
                    )

        return traced

    def hook(self, fn: Callable, after: Callable) -> Callable:
        """An untimed wrapper that only runs ``after(args, result)``."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return hooked

    def _record_span(self, layer, frame, stack, state, own_rid,
                     start, end, extra) -> None:
        parent = None
        for outer in reversed(stack):
            if outer[1] is not None:
                parent = outer[1]
                break
        if self.request_id is not None:
            request = self.request_id
        elif own_rid is not None:
            request = own_rid
        else:
            request = state.rids[-1] if state.rids else None
        record = {
            "name": layer,
            "rid": request,
            "id": frame[1],
            "parent": parent,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": start,
            "end": end,
            "self_s": (end - start) - frame[0],
        }
        if extra:
            record.update(extra)
        self.spans.append(record)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a root span (the benchmark's measured region)."""
        return self.wrap(layer, fn, span=True)(*args, **kwargs)

    def add_span(self, name: str, start: float, end: float,
                 rid: Optional[str]) -> None:
        """Record an interval timed by a hook (not a call, no self time)."""
        self.spans.append({
            "name": name,
            "rid": rid,
            "id": next(self._ids),
            "parent": None,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": start,
            "end": end,
        })

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self._state().samples.setdefault(name, []).append(value)

    def stamp(self, item) -> None:
        """Remember when ``item`` entered a queue."""
        self.stamps[id(item)] = clock()

    def waited(self, item) -> Optional[float]:
        """Start time stamped for ``item`` (forgotten), if any."""
        return self.stamps.pop(id(item), None)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(
        self,
        layer: str,
        module_name: str,
        qualname: str,
        *,
        make: Optional[Callable[[Callable], Callable]] = None,
        **wrap_options,
    ) -> bool:
        """Replace ``module_name.qualname`` everywhere it is bound.

        ``make(original)`` builds the replacement (default: a
        :meth:`wrap` timing wrapper).  Returns False, and records
        ``layer`` as missing, when the target does not exist.
        """
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            original = None
        if not callable(original):
            if layer not in self.missing:
                self.missing.append(layer)
            return False
        if make is not None:
            replacement = make(original)
        else:
            replacement = self.wrap(layer, original, **wrap_options)
        self._replace(owner, attr, original, replacement)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None)
            if module is owner or not isinstance(name, str):
                continue
            if name != self.prefix and not name.startswith(self.prefix + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, original, replacement)
        return True

    def _replace(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """This process's measurements as plain JSON data."""
        with self._states_lock:
            states = list(self._states)
        layers: Dict[str, list] = {}
        counts: Dict[str, float] = {}
        samples: Dict[str, list] = {}
        for state in states:
            for layer, (calls, self_s, total_s) in state.layers.items():
                into = layers.setdefault(layer, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += self_s
                into[2] += total_s
            _add_counts(counts, state.counts)
            for name, values in state.samples.items():
                samples.setdefault(name, []).extend(values)
        for gauge in self.gauges:
            _add_counts(counts, gauge())
        return {
            "pid": os.getpid(),
            "layers": layers,
            "counts": counts,
            "samples": samples,
            "spans": list(self.spans),
            "missing": sorted(self.missing),
        }

    def dump(self, directory) -> Path:
        """Write :meth:`snapshot` to a fresh file in ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{os.getpid()}-{time.time_ns()}.json"
        path.write_text(json.dumps(self.snapshot()))
        return path


def _add_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


def merge(snapshots: Iterable[dict]) -> dict:
    """Fold per-process snapshots into one (spans concatenated)."""
    merged = {
        "layers": {}, "counts": {}, "samples": {}, "spans": [],
        "missing": [],
    }
    for snap in snapshots:
        for layer, (calls, self_s, total_s) in snap["layers"].items():
            into = merged["layers"].setdefault(layer, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += self_s
            into[2] += total_s
        _add_counts(merged["counts"], snap["counts"])
        for name, values in snap["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        merged["spans"].extend(snap["spans"])
        merged["missing"] = sorted(set(merged["missing"]) | set(snap["missing"]))
    merged["spans"].sort(key=lambda span: (span["start"], span["id"]))
    return merged


def load_dumps(directory) -> dict:
    """Merge every snapshot :meth:`Tracer.dump` wrote into ``directory``."""
    return merge(
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("trace-*.json"))
    )
